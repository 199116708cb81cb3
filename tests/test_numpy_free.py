"""The plain-Python pieces of the phase diagram and the asymptotic report
against the numpy routes they replaced: the generator's Q0 block, the
oracle's kernel and verdict, K's rates, the sweep's linspace, the table of
the fixed dissipators and the whole asymptotic report, over seeded draws at
every corner (beta = inf, ell = 0, ell -> 0+, beta*omega from its floor
1.5e-154 to 1e3); and the floor itself, which ModelParams enforces."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermalpair import (ModelParams, PositivityError, build_superoperator, cli, generation,
                         spectral, trajectory)
from thermalpair.spectral import MIN_BETA_OMEGA, kossakowski_eigenvalues

from util import (Q0, _DISSIPATORS_KRON, asymptotic_report_numpy, dissipators_dense, q0_row_mp,
                  polyval_rates, small_time_ppt_oracle_numpy, taylor_action_numpy)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


beta_omega = st.one_of(st.just(math.inf), st.just(MIN_BETA_OMEGA),
                       _log_uniform(MIN_BETA_OMEGA, 1e3), _log_uniform(1e-3, 1e3))
omega_ell = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e-3), st.floats(0.0, 20.0),
                      _log_uniform(1e-3, 1e300))
EPS = np.finfo(float).eps
# the largest difference between a named trajectory's values and those of the
# dense route on the same state, at t_max |M|_1 <= 300
NAMED_TRAJECTORY_TOL = 1e-13


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(MIN_BETA_OMEGA, 0.0)
def test_generator_q0_is_the_superoperator_block(bw, wl):
    # exact: each entry sums the same products of rates and powers of 2, in
    # spectral.generator's order (== also equates -0.0 and 0.0)
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    block = build_superoperator(params)[np.ix_(Q0, Q0)]
    assert np.array_equal(np.array(spectral.generator_q0(params)), block), (bw, wl)


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(1.0, 1.0)
@example(1.0, math.nextafter(1.0, 0.0))
def test_kossakowski_eigenvalues_are_the_polyval_bits(bw, wl):
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    rates = kossakowski_eigenvalues(params)
    assert isinstance(rates, tuple) and all(type(r) is float for r in rates)
    assert np.array(rates).tobytes() == polyval_rates(params).tobytes(), (bw, wl)


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(MIN_BETA_OMEGA, 0.0)
@example(1e-3, 0.0)
def test_oracle_matches_its_numpy_kernel(bw, wl):
    # the same verdict, and the same evolved Q0 state to eps (its entries are
    # at most 1): the numpy kernel's matrix-vector products sum in another
    # order.  On 20000 seeded points over these corners they differed in
    # 10295, by at most 0.5 eps
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    assert generation.small_time_ppt_oracle(params) is small_time_ppt_oracle_numpy(params)
    M = spectral.generator_q0(params)
    norm = generation.norm_1(M)
    dt = min(generation._ORACLE_DT, generation._THETA_T / norm)
    A = [[dt * x for x in row] for row in M]
    v = generation._CANONICAL_Q0
    plain = np.array(generation.taylor_action(A, v, dt * norm))
    reference = taylor_action_numpy(np.array(A), np.array(v))
    assert np.abs(plain - reference).max() <= EPS, (bw, wl, plain - reference)


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.one_of(finite, _log_uniform(1e-320, 1e-300), st.just(0.0)),
       st.one_of(finite, st.just(0.0), st.just(1.7e308)),
       st.one_of(st.integers(1, 3), st.integers(1, 2000)))
@example(0.0, 0.0, 1)
@example(1.0, 1.0, 5)
@example(-0.0, 0.0, 1)
@example(0.0, 5e-324, 3)
@example(-1.7e308, 1.7e308, 4)
@example(0.5, 0.25, 3)
def test_linspace_is_numpys_bit_for_bit(lo, hi, num):
    # every range, also hi < lo and one whose width overflows; the config
    # parser admits lo <= hi alone
    with np.errstate(over="ignore", invalid="ignore"):
        reference = np.linspace(lo, hi, num)
    assert np.array(cli._linspace(lo, hi, num)).tobytes() == reference.tobytes(), (lo, hi, num)


def test_model_params_refuse_what_the_cli_refuses():
    # the floor on beta*omega is ModelParams' own, and the CLI's name for it
    # is the same constant
    assert cli.MIN_BETA_OMEGA is MIN_BETA_OMEGA
    ModelParams(beta_omega=MIN_BETA_OMEGA, omega_ell=0.0)
    for bw in (math.nextafter(MIN_BETA_OMEGA, 0.0), 1e-308, 5e-324):
        with pytest.raises(ValueError, match=r"beta_omega must be at least 1\.5e-154"):
            ModelParams(beta_omega=bw, omega_ell=0.0)


def test_oracle_raises_where_its_generator_is_not_finite():
    # below the floor the rates are finite but a column of M_q0 sums past the
    # largest float: a ModelParams made past its check, at beta*omega 1e-308,
    # where the numpy kernel stepped by 0 and returned false
    params = object.__new__(ModelParams)
    object.__setattr__(params, "beta_omega", 1e-308)
    object.__setattr__(params, "omega_ell", 0.0)
    assert all(map(math.isfinite, spectral.generator_q0(params)[0]))
    with pytest.raises(PositivityError, match=r"^generator has \|M\|_1 = inf, not finite$"):
        generation.small_time_ppt_oracle(params)
    with np.errstate(over="ignore", invalid="ignore"):
        assert small_time_ppt_oracle_numpy(params) is False


# ------------------------------------------------ the table of the dissipators

def test_dissipator_table_is_the_dense_dissipators():
    # 64 distinct entries, whose dense form is the kron-built dissipators
    # byte for byte once the kron's -0.0 are cleared, with no kron entry
    # off the table
    entries = [entry for _, group in spectral.DISSIPATORS for entry in group]
    assert len(entries) == len(set(entries)) == 64
    dense = dissipators_dense()
    assert dense.tobytes() == (_DISSIPATORS_KRON + 0.0).tobytes()
    assert not np.any(_DISSIPATORS_KRON[:, np.abs(dense).sum(axis=0) == 0])


@SETTINGS
@given(beta_omega, omega_ell)
@example(math.inf, 0.0)
@example(MIN_BETA_OMEGA, 0.0)
@example(1.0, 1.0)
def test_generator_q0_is_the_tables_q0_rows(bw, wl):
    # the table's entries, each summed over k in order, give generator_q0
    # exactly on Q0 (== equates -0.0, which generator_q0 gives at beta = inf,
    # and 0.0); they are the kron-built dissipators' contraction to
    # rounding; and the dense generator that evolve integrates holds exactly
    # those entries, the ones the convergence guard reads, and +0.0
    # everywhere else
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    entries = {(i, j): m for i, j, m in spectral.generator(params)}
    rows = [[entries.get((i, j), 0.0) for j in Q0] for i in Q0]
    assert np.array_equal(np.array(rows), np.array(spectral.generator_q0(params)))
    sparse = np.zeros((16, 16))
    for (i, j), m in entries.items():
        sparse[i, j] = m
    rates = kossakowski_eigenvalues(params)
    scale = np.tensordot(rates, np.abs(_DISSIPATORS_KRON), axes=1)
    contraction = np.tensordot(rates, _DISSIPATORS_KRON, axes=1)
    assert np.all(np.abs(sparse - contraction) <= 4 * EPS * scale), (bw, wl)
    assert build_superoperator(params).tobytes() == sparse.tobytes(), (bw, wl)


# ----------------------------------------------- the asymptotic report in numpy

unit = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: tuple(x / math.hypot(*v) for x in v)))


@st.composite
def initial_states(draw):
    kind = draw(st.sampled_from(["canonical", "singlet", "product", "matrix"]))
    if kind == "product":
        return {"product": {"bloch1": list(draw(unit)), "bloch2": list(draw(unit))}}
    if kind == "matrix":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        return {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
    return {"named": kind}


def _run_asymptotic(config: dict):
    """(exit code, standard error, report text) of one in-process call."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["asymptotic", "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), out.read_text(encoding="utf-8") if code == 0 else None


@SETTINGS
@given(beta_omega, omega_ell, unit, st.booleans(), initial_states())
@example(math.inf, 0.0, (0.0, 0.0, 1.0), True, {"named": "canonical"})
@example(math.inf, 0.0, (0.6, 0.0, 0.8), False,
         {"product": {"bloch1": [1, 0, 0], "bloch2": [0, 0, -1]}})
@example(math.inf, 0.0, (0.6, 0.0, 0.8), True,
         {"product": {"bloch1": [1, 0, 0], "bloch2": [0, 0, -1]}})
@example(MIN_BETA_OMEGA, 1e-300, (0.0, 0.0, 1.0), False, {"named": "singlet"})
def test_asymptotic_report_matches_its_numpy_route(bw, wl, n, include_hs, state):
    # the plain-Python report against the array routes it replaced: the same
    # exit code, message and stationary dimension, and rho_infinity, tau
    # and concurrence within 4 eps.  On bench seeds 1-3 of the asymptotic
    # workloads the two differed by at most 1.5 eps in an entry
    config = {"beta": "inf" if math.isinf(bw) else bw, "ell": wl, "n": list(n),
              "include_hs": include_hs, "initial_state": state}
    code, err, text = _run_asymptotic(config)
    ref_code, ref_err, ref = asymptotic_report_numpy(config)
    assert (code, err) == (ref_code, ref_err)
    if code != 0:
        return
    doc = json.loads(text)
    assert doc["stationary_dim"] == ref["stationary_dim"]
    assert doc["threshold_tau"] == ref["threshold_tau"]
    rho = np.array([complex(*z) for z in doc["rho_infinity"]]).reshape(4, 4)
    assert np.abs(rho - ref["rho_infinity"]).max() <= 4 * EPS, rho - ref["rho_infinity"]
    for key in ("tau", "concurrence"):
        assert abs(doc[key] - ref[key]) <= 4 * EPS * max(1.0, abs(ref[key])), key


# ------------------------------------------- the named trajectory in plain Python

def _run_evolve(config: dict, dense: bool = False):
    """(exit code, standard error, rows, summary) of one in-process evolve,
    rows and summary as floats; dense sends a state in Q0 to
    dynamics.evolve_traj, the route of the other states."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        if dense:
            patch.setattr(trajectory, "in_q0", lambda rho: False)
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["evolve", "--config", str(path), "--out", str(out)])
        if code != 0:
            return code, err.getvalue(), None, None
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == cli.EVOLVE_HEADER
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        summary = json.loads(Path(str(out) + ".summary.json").read_text(encoding="utf-8"))
        return code, err.getvalue(), rows, summary


@st.composite
def q0_states(draw, n):
    """A state in Q0 with real entries at the axis n: a named state, a
    product of the kets of +-n or a matrix state with a coherence |c| <=
    sqrt(r11 r22).  The frame keeps a product or matrix state in Q0 at n =
    +-e3 alone: at another axis a matrix state leaves Q0, and a product
    state mostly leaves it by rounding."""
    kind = draw(st.sampled_from(["canonical", "singlet", "product", "matrix"]))
    if kind == "product":
        signs = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        return {"product": {name: [sign * x for x in n]
                            for name, sign in zip(("bloch1", "bloch2"), signs)}}
    if kind == "matrix":
        p = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
            lambda p: sum(p) > 0.1))
        r00, r11, r22, r33 = (x / sum(p) for x in p)
        c = draw(st.floats(-1.0, 1.0)) * math.sqrt(r11 * r22)
        entries = {0: r00, 5: r11, 6: c, 9: c, 10: r22, 15: r33}
        return {"matrix": [[entries.get(k, 0.0), 0.0] for k in range(16)]}
    return {"named": kind}


@st.composite
def q0_evolve_configs(draw):
    """A state in Q0 at a corner, on a time grid of at most 12 samples whose
    work t_max |M|_1 stays small."""
    bw, wl, n = draw(beta_omega), draw(omega_ell), draw(unit)
    work = draw(st.one_of(_log_uniform(1e-12, 1e-1), _log_uniform(1e-1, 300.0)))
    t_max = work / trajectory.work(ModelParams(beta_omega=bw, omega_ell=wl), 1.0)
    if draw(st.booleans()):
        grid = {"t_max": t_max, "n_samples": draw(st.integers(2, 12))}
    else:
        fractions = sorted(set(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                             min_size=1, max_size=11))))
        grid = {"times": [f * t_max for f in fractions] + [t_max]}
    return {"beta": "inf" if math.isinf(bw) else bw, "ell": wl, "n": list(n),
            "include_hs": draw(st.booleans()), "time_grid": grid,
            "initial_state": draw(q0_states(n))}


@SETTINGS
@given(q0_evolve_configs())
@example({"beta": "inf", "ell": 0.0, "time_grid": {"t_max": 50.0, "n_samples": 11},
          "initial_state": {"named": "singlet"}})
@example({"beta": 0.35, "ell": 0.0, "time_grid": {"t_max": 200.0, "n_samples": 5},
          "initial_state": {"named": "singlet"}})
@example({"beta": 1e-3, "ell": 1e-300, "time_grid": {"t_max": 1e-3, "n_samples": 3},
          "initial_state": {"named": "canonical"}})
@example({"beta": 1e3, "ell": 20.0, "n": [0.6, 0.0, 0.8], "time_grid": [0.0, 1e-9, 2.0],
          "initial_state": {"named": "canonical"}})
def test_named_trajectory_matches_the_dense_route(config):
    # the plain-Python trajectory on Q0 against dynamics.evolve_traj on the
    # same state: the same exit code and message, and every row and summary
    # value within NAMED_TRAJECTORY_TOL of it.  Over 5000 seeded configs like
    # these (3164 named, 865 product and 971 matrix states) the largest
    # difference was 2.6e-14, no config failed a guard on either route, and
    # both refused the same 127 grids with exit 2
    code, err, rows, summary = _run_evolve(config)
    ref_code, ref_err, ref_rows, ref_summary = _run_evolve(config, dense=True)
    assert (code, err) == (ref_code, ref_err)
    if code != 0:
        return
    assert rows.shape == ref_rows.shape and np.array_equal(rows[:, 0], ref_rows[:, 0])
    assert np.abs(rows - ref_rows).max() <= NAMED_TRAJECTORY_TOL, np.abs(rows - ref_rows).max(0)
    assert summary.keys() == ref_summary.keys()
    for key, value in summary.items():
        assert abs(value - ref_summary[key]) <= NAMED_TRAJECTORY_TOL, key


# configs, their sampled rows and the budget of each value in eps * max(1,
# |exact|): a relaxing canonical state, the pure singlet, stationary at ell =
# 0, beta = inf at ell = 0, a singlet at beta*omega = 1e-3, and a horizon of
# |M_q0|_1 t = 13300, which takes 3800 substeps of the Taylor series
NAMED_ROWS = [
    ({"beta": 2.0, "ell": 0.7, "time_grid": {"t_max": 50.0, "n_samples": 11}}, (0, 1, 4, 10), 4),
    ({"beta": 0.35, "ell": 0.0, "time_grid": {"t_max": 128.0, "n_samples": 5},
      "initial_state": {"named": "singlet"}}, (0, 4), 4),
    ({"beta": "inf", "ell": 0.0, "n": [0.6, 0.0, 0.8], "time_grid": [0.0, 0.3, 20.0]}, (1, 2), 4),
    ({"beta": 1e-3, "ell": 2.0, "time_grid": [1e-4, 0.5, 3.0],
      "initial_state": {"named": "singlet"}}, (0, 2), 4),
    ({"beta": 0.058, "ell": 0.053, "time_grid": {"t_max": 393.0, "n_samples": 4}}, (1, 3), 1024),
    # product and matrix states in Q0, which take the named states' route:
    # |++> and |--> from steps short enough for a Taylor series of degree 1
    # or 2, |+-> at n = -e3, and a mixed X-state
    ({"beta": "inf", "ell": 0.0, "time_grid": [0.0, 1e-9, 1e-8, 1e-6, 0.3, 5.0],
      "initial_state": {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0, 1]}}}, range(6), 4),
    ({"beta": 1.0, "ell": 0.0, "time_grid": [0.0, 3e-9, 1e-4, 2.0],
      "initial_state": {"product": {"bloch1": [0, 0, -1], "bloch2": [0, 0, -1]}}}, range(4), 4),
    ({"beta": 2.0, "ell": 0.7, "n": [0, 0, -1], "time_grid": {"t_max": 50.0, "n_samples": 11},
      "initial_state": {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0, -1]}}}, range(11), 4),
    ({"beta": 2.0, "ell": 0.7, "time_grid": {"t_max": 50.0, "n_samples": 11},
      "initial_state": {"matrix": [[{0: 0.1, 5: 0.2, 6: 0.1, 9: 0.1, 10: 0.3, 15: 0.4}.get(k, 0.0),
                                    0.0] for k in range(16)]}}, range(11), 4),
]


def test_named_rows_against_mpmath():
    # rows of the trajectory on Q0 against 40-digit mpmath: mp.expm of the
    # same float Q0 block and the general routes for each column.  The worst
    # errors are 1 eps on the first four configs, 444 eps (tau) on the long
    # horizon, where the dense route of dynamics.evolve_traj is off by 214
    # and 2572 eps, and 1.7 eps on the product and matrix states, where the
    # dense route is off by up to 4.5 eps.  A Taylor series of degree below 3
    # left the concurrence of |++> and |--> 2.9e6 and 5.0e6 eps off at the
    # sample 1e-9 or 3e-9
    for doc, samples, budget in NAMED_ROWS:
        code, _, rows, _ = _run_evolve(doc)
        assert code == 0, doc
        config = cli.parse_config(doc)
        rho0 = config.initial_state()[1]
        v0 = [rho0[k % 4][k // 4].real for k in Q0]
        M = spectral.generator_q0(config.params)
        for k in samples:
            exact = q0_row_mp(M, v0, config.times[k])
            for column, value, ref in zip(cli.EVOLVE_HEADER.split(",")[1:], rows[k, 1:], exact):
                error = float(abs(value - ref)) / (EPS * max(1.0, abs(float(ref))))
                assert error <= budget, (doc, k, column, error)


@SETTINGS
@given(beta_omega, omega_ell, st.one_of(st.just(1.0), _log_uniform(1e-300, 1e300),
                                        st.floats(0.5, 2.0)))
@example(math.inf, 0.0, 1.0)
@example(MIN_BETA_OMEGA, 0.0, 1.0)
def test_rk45_work_is_numpys_bit_for_bit(bw, wl, factor):
    # evolve's work t_max |M|_1, from the column sums of spectral.generator in
    # plain Python, is the numpy figure of the dense M bit for bit, so the
    # cap refuses the same grids with the same message; t_max is factor
    # times the cap's own t_max
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    with np.errstate(over="ignore"):
        norm = np.abs(build_superoperator(params)).sum(axis=0).max()
        t_max = float(factor * (cli.MAX_RK_WORK / norm))
        reference = t_max * norm
    assert np.float64(trajectory.work(params, t_max)).tobytes() == reference.tobytes()
    if not (math.isfinite(t_max) and reference > cli.MAX_RK_WORK):
        return
    config = {"beta": "inf" if math.isinf(bw) else bw, "ell": wl,
              "time_grid": {"t_max": t_max, "n_samples": 2}}
    assert _run_evolve(config)[:2] == (2, (
        f"error: time_grid t_max {t_max!r} is too long for the RK45 cross-check: "
        f"t_max |M|_1 = {reference:.3g} exceeds MAX_RK_WORK = 2e+05\n"))
