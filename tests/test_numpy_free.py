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
                         spectral)
from thermalpair.spectral import MIN_BETA_OMEGA, kossakowski_eigenvalues

from util import (Q0, _DISSIPATORS_KRON, asymptotic_report_numpy, dissipators_dense,
                  polyval_rates, small_time_ppt_oracle_numpy, taylor_action_numpy)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


beta_omega = st.one_of(st.just(math.inf), st.just(MIN_BETA_OMEGA),
                       _log_uniform(MIN_BETA_OMEGA, 1e3), _log_uniform(1e-3, 1e3))
omega_ell = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e-3), st.floats(0.0, 20.0),
                      _log_uniform(1e-3, 1e300))
EPS = np.finfo(float).eps


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
    dt = min(generation._ORACLE_DT, generation._THETA_T / generation._norm_1(M))
    A = [[dt * x for x in row] for row in M]
    v = generation._CANONICAL_Q0
    plain = np.array(generation._taylor_action(A, v))
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
