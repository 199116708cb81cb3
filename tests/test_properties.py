"""Seeded properties over ModelParams: K's closed-form eigenvalues, none
negative, so complete positivity holds by construction, M against the
reference route, trace and Hermiticity preservation of M, the closed-form
discriminant against the general product-state one at |-+> and its
canonical-state reduction,
the small-time oracle in the charge-0 sector against the general route,
concurrence against the SVD route, on general states and on X-states,
against a 50-digit mpmath concurrence and against the partial-transpose
verdict, the
Gibbs state as a stationary state (the bath is KMS), the closed-form
asymptotic state against the SVD stationary projector and the long-time
evolution, the free Hamiltonian as a local turn that commutes with M and
masks its stationary projector, and the axis n as a local frame only: the
generator at n, and the CLI's phase diagram and trajectories at n, against
those at e3; and sibling subcommands agree: the phase diagram's oracle
with evolve's partial transpose, and its R and S with those that
coefficients prints, and evolve's summary with asymptotic's report; and
omega is only the unit: every subcommand prints the same bytes at omega as
at omega = 1 with the same beta*omega and omega*ell."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings, strategies as st

from thermalpair import cli
from thermalpair.asymptotic import asymptotic_state, tau
from thermalpair.dynamics import build_superoperator, trace_norm, unvec, vec
from thermalpair.entanglement import (ProductState, _wootters_l, canonical_state, concurrence,
                                      local_frame, min_eig_pt)
from thermalpair.generation import criterion_rs, generation_test, small_time_ppt_oracle
from thermalpair.spectral import ModelParams, kossakowski_coefficients, kossakowski_eigenvalues

from util import (_AT_REST, _HORIZON, _NULLSPACE_REL_TOL, build_kossakowski_spectral,
                  concurrence_reference, evolve_step, generation_discriminant,
                  generator_with_hamiltonian,
                  hamiltonian, kossakowski_6x6, kossakowski_from_coefficients, mp_concurrence,
                  oracle_step, random_density, random_product_state, random_unit_complex,
                  small_time_ppt_reference, spectral_gap, stationary_projector,
                  superoperator_reference, wootters_l_reference)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v] if norm > 0.1 else [0.0, 0.0, 1.0]


# the corners: beta = inf, ell = 0 and ell -> 0+ (omega*ell down to 1e-12),
# beside generic and extreme beta*omega; include_hs is a flag of the CLI,
# drawn by its tests
beta_omega = st.one_of(st.just(math.inf), _log_uniform(1e-3, 1e3))
omega_ell = st.one_of(st.just(0.0), _log_uniform(1e-12, 1e-3), st.floats(0.0, 20.0))
unit = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(_unit)
E3 = (0.0, 0.0, 1.0)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def models(draw):
    """(params, K, M) at a drawn corner."""
    params = ModelParams(beta_omega=draw(beta_omega), omega_ell=draw(omega_ell))
    coeffs = kossakowski_coefficients(params)
    return params, kossakowski_from_coefficients(coeffs), build_superoperator(params)


@SETTINGS
@given(models())
def test_kossakowski_passes_the_cp_guard(model):
    params, K, _ = model
    eigs = np.linalg.eigvalsh(kossakowski_6x6(K))
    lam = np.array(kossakowski_eigenvalues(params))
    assert np.abs(np.sort(lam) - eigs).max() <= 1e-14 * np.abs(eigs).max()
    svd_norm = np.linalg.norm(kossakowski_6x6(K), 2)
    assert abs(K.norm - svd_norm) <= 1e-14 * svd_norm
    # K >= 0, the whole complete-positivity condition, holds exactly: no rate
    # is negative, and the relative dephasing rate is an exact 0
    assert lam.min() >= 0.0 and lam[5] == 0.0


# every beta*omega the CLI admits, from its floor to zero temperature, and
# omega*ell from 0 through 1e-300 to 1e300
@SETTINGS
@given(st.one_of(st.just(math.inf), _log_uniform(1.5e-154, 1e300)),
       st.one_of(st.just(0.0), _log_uniform(1e-300, 1e300), st.floats(0.0, 20.0)))
def test_no_rate_is_negative_at_any_corner(bw, wl):
    lam = np.array(kossakowski_eigenvalues(ModelParams(beta_omega=bw, omega_ell=wl)))
    assert np.isfinite(lam).all() and lam.min() >= 0.0 and lam[5] == 0.0, (bw, wl, lam)


@SETTINGS
@given(models())
def test_generator_matches_the_reference_route(model):
    _, K, M = model
    ref = superoperator_reference(K)
    assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()


@SETTINGS
@given(models())
def test_generator_preserves_trace_and_hermiticity(model):
    _, _, M = model
    scale = np.abs(M).max()
    # vec(I)^T M = 0: every d rho / dt is traceless
    assert np.abs(vec(np.eye(4)) @ M).max() <= 1e-14 * scale
    # M maps each Hermitian basis matrix to a Hermitian one
    for k in range(4):
        for l in range(k, 4):
            for phase in (1.0, 1j) if k != l else (1.0,):
                h = np.zeros((4, 4), dtype=complex)
                h[k, l] = phase
                h[l, k] = np.conj(phase)
                d = unvec(M @ vec(h))
                assert np.abs(d - d.conj().T).max() <= 1e-14 * scale


@SETTINGS
@given(models())
def test_discriminant_sign_matches_rs_margin(model):
    params, _, _ = model
    margin, label = generation_test(kossakowski_coefficients(params))
    _, _, rs_margin = criterion_rs(params)
    if label != "boundary":
        assert (label == "true") == (rs_margin > 0), (margin, label, rs_margin)


# beta = inf and omega*ell a multiple of pi put R^2 + S^2 - 1 within rounding of 0
@SETTINGS
@given(st.one_of(st.just(math.inf), _log_uniform(1e-3, 60.0)),
       st.one_of(st.just(0.0), _log_uniform(1e-8, 1e-3), st.floats(0.0, 20.0)))
@example(math.inf, math.pi)
@example(math.inf, 2.0 * math.pi)
def test_closed_form_discriminant_is_the_general_one_at_the_canonical_state(bw, wl):
    # the general discriminant at u = v = (1, -i, 0), from the 3x3 blocks;
    # the closed form rounds as that contraction does, so the margins agree
    # bit for bit in practice
    coeffs = kossakowski_coefficients(ModelParams(beta_omega=bw, omega_ell=wl))
    K = kossakowski_from_coefficients(coeffs)
    ref = generation_discriminant(canonical_state(), K)
    margin, label = generation_test(coeffs)
    assert label == ref.label, (margin, label, ref)
    assert abs(margin - ref.margin) <= 1e-15 * K.norm ** 2, (margin, ref.margin)


# the phase diagram checks the oracle against the discriminant where |rs_margin| exceeds this
ORACLE_BAND = 1e-3


# the oracle's corners: beta = inf, ell = 0, the crossover, and beta*omega down
# to 1e-20, where 1e-3 |M_q0|_1 exceeds entanglement._THETA_T (below about 0.007)
# and the oracle shortens its step to keep its Taylor series short; the general
# route is evolved by the same step
@SETTINGS
@given(st.one_of(st.just(math.inf), _log_uniform(1e-3, 1e3), _log_uniform(1e-3, 1e-2),
                 _log_uniform(1e-20, 1e-3)),
       st.one_of(st.just(0.0), _log_uniform(1e-8, 1e-3), st.floats(0.0, 20.0)))
@example(1e-3, 0.0)
@example(2e-3, 5.0)
@example(1e-10, 3.0)
def test_sector_oracle_is_the_general_route(bw, wl):
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    oracle = small_time_ppt_oracle(params)
    rho0 = np.array(canonical_state().density())
    ref = small_time_ppt_reference(build_superoperator(params), rho0, oracle_step(params))
    assert oracle == ref, (oracle, ref)


@SETTINGS
@given(st.sampled_from([1, 2, 3, 4]), st.integers(0, 2**32 - 1))
def test_concurrence_matches_the_svd_route(rank, seed):
    # l_k from the pivoted factor and the dilation's eigvalsh against the
    # singular values of sqrt(rho~) sqrt(rho), each root from its own eigh:
    # pure (generically entangled), rank-deficient and full-rank states
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(rank))
    kets = [random_unit_complex(rng) for _ in range(rank)]
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    lam, ref = _wootters_l(rho.tolist()), wootters_l_reference(rho)
    assert np.all(np.diff(lam) <= 0), lam
    assert np.abs(lam - ref).max() <= 1e-14, (lam, ref)
    assert abs(concurrence(rho) - concurrence_reference(rho)) <= 4e-14
    # a pure product state has l = 0.  The factor keeps its one row and T
    # is rounding; the reference takes the square roots of its three zero
    # eigenvalues, rounded to about 1e-17, and its l_k come near 1e-8
    product = np.array(random_product_state(rng).density())
    assert _wootters_l(product.tolist()).max() <= 1e-15
    assert wootters_l_reference(product).max() <= 1e-7


def _mp_concurrence(weights, kets) -> float:
    """The concurrence of sum_k w_k |k><k| in 50-digit mpmath, from the float
    weights and kets."""
    with mp.workdps(50):
        rho = mp.zeros(4, 4)
        for w, k in zip(weights, kets):
            ket = mp.matrix(k.tolist())
            rho += mp.mpf(float(w)) * ket * ket.H
        return mp_concurrence(rho)


@settings(SETTINGS, max_examples=200)
@given(st.sampled_from([1, 2, 3, 4]), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@example(1, False, False, 44)
@example(3, True, True, 317)
def test_concurrence_against_mpmath(rank, graded, with_product, seed):
    # rank 1 to 4, with uniform weights or weights graded down to 1e-30, and
    # a product ket among the kets, against the 50-digit concurrence of the
    # state they define.  The reference is the state, not the float matrix:
    # on the seed-317 draw that matrix has an eigenvalue of 3.3e-17 from
    # rounding alone, which puts 1.8e-14 into its own l_3.  Over 1400 graded
    # draws the float matrix's own concurrence strays from the state's by up
    # to 5.9e-15, and the factor's by up to 5.4e-15.  On the seed-44 pure
    # state a factor that stops only at a pivot <= 0 gives l = (0.710,
    # 0.024) for (0.686, 0); one that drops only the rows with a diagonal
    # <= 0 keeps a rounding row of the seed-317 draw and is 1.6e-14 off
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-30.0, 0.0, rank) if graded else rng.dirichlet(np.ones(rank))
    weights = weights / weights.sum()
    kets = [random_unit_complex(rng) for _ in range(rank)]
    if with_product:
        kets[0] = np.kron(random_unit_complex(rng, 2), random_unit_complex(rng, 2))
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    assert abs(concurrence(rho) - _mp_concurrence(weights, kets)) <= 8e-15


@SETTINGS
@given(st.sampled_from([1, 2, 3, 4]), st.integers(0, 2**32 - 1))
def test_concurrence_of_an_x_state_matches_the_svd_route(rank, seed):
    # an X-state is a direct sum of a block on {|++>, |-->} and one on
    # {|+->, |-+>}; up to two of its rank-many kets lie in each, so the
    # closed form meets pure, rank-deficient and full-rank X-states
    rng = np.random.default_rng(seed)
    in_outer = int(rng.integers(max(0, rank - 2), min(2, rank) + 1))
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((4, 4), dtype=complex)
    for k, w in enumerate(weights):
        ket = np.zeros(4, dtype=complex)
        ket[[0, 3] if k < in_outer else [1, 2]] = random_unit_complex(rng, dim=2)
        rho += w * np.outer(ket, ket.conj())
    assert abs(concurrence(rho) - concurrence_reference(rho)) <= 1e-14


@SETTINGS
@given(models(), st.floats(0.0, 5.0), st.floats(0.0, 0.5))
def test_concurrence_is_positive_exactly_when_partial_transpose_is_negative(model, omega_t,
                                                                          noise):
    # the canonical state, mixed with white noise so that separable states
    # are full rank and keep their partial transpose away from 0
    params, _, M = model
    rho0 = (1.0 - noise) * np.array(canonical_state().density()) + noise * np.eye(4) / 4.0
    rho = evolve_step(M, rho0, omega_t)
    c, m = concurrence(rho), min_eig_pt(rho)
    if m < -1e-10:
        assert c > 0, (c, m)
    if m > 1e-10:
        assert c == 0, (c, m)


@SETTINGS
@given(models())
def test_gibbs_state_is_stationary(model):
    params, _, M = model
    e, v = np.linalg.eigh(hamiltonian(E3))
    if math.isinf(params.beta_omega):
        gibbs = np.outer(v[:, 0], v[:, 0].conj())    # the ground state
    else:
        w = np.exp(-params.beta_omega * (e - e[0]))
        gibbs = (v * w) @ v.conj().T / w.sum()
    assert np.linalg.norm(M @ vec(gibbs)) <= 1e-14 * np.linalg.norm(M)


# ------------------------------- the asymptotic state against the references

# every corner but the ell -> 0+ crossover: omega*ell is 0 or at least 0.05.
# On the crossover the slow mode's singular value sits at the null-space
# threshold, so the SVD rank decision of stationary_projector fails there
# (at omega*ell = 4.3e-4 and beta*omega = 32 the second smallest singular
# value is 1.05e-8 of the largest); tests/test_exact.py proves the closed
# forms for every omega*ell instead.
OFF_CROSSOVER = st.one_of(st.just(0.0), st.floats(0.05, 20.0))


@SETTINGS
@given(beta_omega, OFF_CROSSOVER, st.integers(0, 2**32 - 1))
def test_closed_form_asymptotic_state_is_the_projected_one(bw, wl, seed):
    # the closed form, which passes its guard, against unvec(P vec(rho0))
    # with the SVD projector and its rank, and against the evolution to the
    # horizon
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    M = build_superoperator(params)
    rho0 = random_density(np.random.default_rng(seed))
    P = stationary_projector(M)
    rho_inf, dim = asymptotic_state(params, rho0.tolist())
    rho_inf = np.array(rho_inf)
    assert dim == round(np.trace(P).real)
    assert np.abs(rho_inf - unvec(P @ vec(rho0))).max() <= 1e-11
    assert trace_norm(evolve_step(M, rho0, _HORIZON / spectral_gap(M)) - rho_inf) <= 1e-8


# ------------------------------------------- the free Hamiltonian commutes

@SETTINGS
@given(st.one_of(st.just(math.inf), _log_uniform(1e-3, 60.0)), OFF_CROSSOVER, unit, unit,
       st.floats(0.0, 1.0), st.floats(0.0, 20.0))
def test_free_hamiltonian_only_turns_the_dissipators_evolution(bw, wl, b1, b2, noise, omega_t):
    # the reference generator with -i[H_S, .] against the library's
    # dissipator M: they commute, the reference's stationary projector is
    # M's masked to m_a = m_b, the closed form so masked is the reference's
    # projected state, and its evolution differs by a local unitary, which
    # no emitted quantity sees
    params = ModelParams(beta_omega=bw, omega_ell=wl)
    M = build_superoperator(params)
    M_h = generator_with_hamiltonian(params)
    assert np.abs(M @ M_h - M_h @ M).max() <= 1e-15 * np.abs(M_h).max() ** 2
    P, P_h = stationary_projector(M) * _AT_REST, stationary_projector(M_h)
    # 1e-13, or the rounding of a null space that is gap away from the next
    # singular value (relative to the largest) where that is larger: near
    # omega*ell = 0.05 the gap is about 1e-4
    svals = np.linalg.svd(M, compute_uv=False)
    gap = svals[svals > _NULLSPACE_REL_TOL * svals[0]].min() / svals[0]
    tol = max(1e-13, 4 * np.finfo(float).eps / gap)
    assert np.abs(P - P_h).max() <= tol
    assert round(np.trace(P).real) == round(np.trace(P_h).real)
    rho0 = (1.0 - noise) * np.array(ProductState(b1, b2).density()) + noise * np.eye(4) / 4.0
    rho, rho_h = (evolve_step(G, rho0, omega_t) for G in (M, M_h))
    for f in (lambda r: np.linalg.eigvalsh(r).min(), min_eig_pt, tau):
        assert abs(f(rho) - f(rho_h)) <= 1e-11
    rho_inf, _ = asymptotic_state(params, rho0.tolist())
    assert np.abs(unvec(_AT_REST * vec(rho_inf)) - unvec(P_h @ vec(rho0))).max() <= tol


# ---------------------------------------------------------- n is only a frame

FRAME_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def _rotation_from_e3(n):
    """A proper rotation O with O e3 = n: a turn by the polar angle about e2,
    then by the azimuth about e3."""
    th, ph = math.atan2(math.hypot(n[0], n[1]), n[2]), math.atan2(n[1], n[0])
    c, s, cp, sp = math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)
    return np.array([[cp * c, -sp, cp * s], [sp * c, cp, sp * s], [-s, 0.0, c]])


def _run_cli(sub, config):
    """(exit code, output, evolve summary or None) of one in-process call."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main([sub, "--config", str(path), "--out", str(out)])
        summary = Path(str(out) + ".summary.json")
        return (code, out.read_text(encoding="utf-8") if code == 0 else None,
                json.loads(summary.read_text(encoding="utf-8")) if summary.exists() else None)


@SETTINGS
@given(models(), unit)
def test_generator_at_an_axis_is_the_generator_at_e3_in_its_frame(model, n):
    # the reference route builds K at n itself; S = kron(V*, V) is the
    # superoperator of rho -> V rho V^dag
    params, _, M = model
    V = np.kron(local_frame(n), local_frame(n))
    S = np.kron(V.conj(), V)
    ref = superoperator_reference(build_kossakowski_spectral(params, n))
    assert np.abs(S @ M @ S.conj().T - ref).max() <= 3e-15 * np.abs(ref).max()


@FRAME_SETTINGS
@given(_log_uniform(0.25, 4.0), unit, st.booleans(),
       st.tuples(_log_uniform(1e-2, 30.0), _log_uniform(1e-2, 30.0)).map(sorted),
       st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)).map(sorted))
def test_phase_diagram_does_not_depend_on_the_axis(omega, n, include_hs, bw, wl):
    config = {"omega": omega, "include_hs": include_hs,
              "sweep": {"beta_omega": [*bw, 3], "omega_ell": [*wl, 3]}}
    code, at_n, _ = _run_cli("phase-diagram", {**config, "n": n})
    code_e3, at_e3, _ = _run_cli("phase-diagram", {**config, "n": list(E3)})
    assert code == code_e3 == 0
    for row, row_e3 in zip(at_n.splitlines()[1:], at_e3.splitlines()[1:]):
        x, y = row.split(","), row_e3.split(",")
        assert x[:5] + x[6:] == y[:5] + y[6:]
        K = kossakowski_from_coefficients(kossakowski_coefficients(
            ModelParams(beta_omega=float(x[0]), omega_ell=float(x[1]))))
        assert abs(float(x[5]) - float(y[5])) <= 1e-14 * K.norm ** 2
    assert len(at_n.splitlines()) == len(at_e3.splitlines()) == 10


@FRAME_SETTINGS
@given(_log_uniform(0.25, 4.0), beta_omega, omega_ell, st.booleans(), unit, unit, unit)
def test_evolve_at_an_axis_matches_e3_with_the_bloch_vectors_turned(omega, bw, wl, include_hs,
                                                                    n, b1, b2):
    O = _rotation_from_e3(n)
    config = {"omega": omega, "beta": "inf" if math.isinf(bw) else bw / omega,
              "ell": wl / omega, "include_hs": include_hs, "time_grid": [0.0, 0.5, 2.0, 5.0]}
    code, at_n, summary = _run_cli("evolve", {
        **config, "n": n, "initial_state": {"product": {"bloch1": b1, "bloch2": b2}}})
    code_e3, at_e3, summary_e3 = _run_cli("evolve", {
        **config, "initial_state": {"product": {"bloch1": list(O.T @ b1),
                                                "bloch2": list(O.T @ b2)}}})
    assert code == code_e3
    if code != 0:
        return
    rows = np.array([line.split(",") for line in at_n.splitlines()[1:]], dtype=float)
    rows_e3 = np.array([line.split(",") for line in at_e3.splitlines()[1:]], dtype=float)
    # t, trace, min_eig, min_eig_pt and tau; concurrence to bench/check.py's
    # CONCURRENCE_TOL, as square roots of near-zero eigenvalues amplify rounding
    np.testing.assert_allclose(rows[:, [0, 1, 2, 3, 5]], rows_e3[:, [0, 1, 2, 3, 5]],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(rows[:, 4], rows_e3[:, 4], rtol=0, atol=1e-7)
    assert summary["final_time"] == summary_e3["final_time"]
    assert abs(summary["trace_distance_to_asymptotic"]
               - summary_e3["trace_distance_to_asymptotic"]) <= 1e-12
    assert abs(summary["asymptotic_concurrence"] - summary_e3["asymptotic_concurrence"]) <= 1e-7


# ------------------------------------------------------ sibling subcommands

SIBLING_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@SIBLING_SETTINGS
@given(_log_uniform(0.25, 4.0), _log_uniform(1e-3, 1e3),
       st.one_of(st.just(0.0), _log_uniform(1e-8, 1e-3), st.floats(0.0, 20.0)), unit)
def test_phase_diagram_agrees_with_evolve_and_coefficients(omega, bw, wl, n):
    # a 1x1 phase diagram against evolve from the canonical state at
    # omega*t = 1e-3, the oracle's step, and against coefficients at the
    # same point; the two print R and S in their own formats (%.17g in the
    # CSV, repr in the JSON), so the parsed doubles must be equal
    model = {"omega": omega, "beta": bw / omega, "ell": wl / omega, "n": n}
    code, csv, _ = _run_cli("phase-diagram", {
        **model, "sweep": {"beta_omega": [bw, bw, 1], "omega_ell": [wl, wl, 1]}})
    assert code == 0
    row = csv.splitlines()[1].split(",")
    code, traj, _ = _run_cli("evolve", {**model, "time_grid": {"times": [1e-3]}})
    assert code == 0
    min_eig_pt_at_dt = float(traj.splitlines()[1].split(",")[3])
    if abs(float(row[4])) > ORACLE_BAND:
        assert (row[7] == "true") == (min_eig_pt_at_dt < -1e-13), (row, min_eig_pt_at_dt)
    code, doc, _ = _run_cli("coefficients", model)
    assert code == 0
    doc = json.loads(doc)
    assert (doc["R"], doc["S"]) == (float(row[2]), float(row[3]))


@st.composite
def initial_states(draw):
    """A named, product or general (matrix) initial state."""
    kind = draw(st.sampled_from(["matrix", "product", "canonical", "singlet"]))
    if kind == "product":
        return {"product": {"bloch1": draw(unit), "bloch2": draw(unit)}}
    if kind == "matrix":
        rho = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        return {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
    return {"named": kind}


@SETTINGS
@given(beta_omega, omega_ell, unit, st.booleans(), initial_states())
@example(math.inf, 0.0, list(E3), True, {"named": "canonical"})
@example(math.inf, 0.0, list(E3), True, {"product": {"bloch1": [1, 0, 0], "bloch2": [0, 0, -1]}})
def test_evolve_summary_agrees_with_the_asymptotic_report(bw, wl, n, include_hs, state):
    # both exit 0, and evolve's asymptotic_concurrence is the report's
    # concurrence to bench/check.py's CONCURRENCE_TOL, with or without
    # include_hs, which changes nothing: at beta = inf and ell = 0 both keep
    # the coherence c = <S|rho0|-->
    config = {"beta": "inf" if math.isinf(bw) else bw, "ell": wl, "n": n,
              "include_hs": include_hs, "initial_state": state, "time_grid": [0.0, 1.0]}
    code, report, _ = _run_cli("asymptotic", config)
    code_evolve, _, summary = _run_cli("evolve", config)
    assert code == code_evolve == 0, (code, code_evolve)
    assert abs(summary["asymptotic_concurrence"] - json.loads(report)["concurrence"]) <= 1e-7


# --------------------------------------------------------- omega is the unit

OMEGA_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)
SUBCOMMANDS = ("coefficients", "phase-diagram", "evolve", "asymptotic")
GRID = {"time_grid": [0.0, 0.5, 2.0],
        "sweep": {"beta_omega": [0.5, 5.0, 2], "omega_ell": [0.0, 3.0, 2]}}


@st.composite
def omega_configs(draw):
    """A config at omega log-uniform over [1e-100, 1e100], with beta and ell
    given as quotients of drawn beta*omega and omega*ell by omega."""
    omega = draw(_log_uniform(1e-100, 1e100))
    bw = draw(st.one_of(st.just(math.inf), _log_uniform(1e-2, 1e2)))
    return {"omega": omega, "beta": "inf" if math.isinf(bw) else bw / omega,
            "ell": draw(omega_ell) / omega, "n": draw(unit), "include_hs": draw(st.booleans()),
            "initial_state": {"product": {"bloch1": draw(unit), "bloch2": draw(unit)}},
            "time_grid": draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4,
                                       unique=True).map(sorted)),
            "sweep": {"beta_omega": [*sorted(draw(st.lists(_log_uniform(1e-2, 30.0),
                                                           min_size=2, max_size=2))), 2],
                      "omega_ell": [*sorted(draw(st.lists(st.floats(0.0, 10.0),
                                                          min_size=2, max_size=2))), 2]}}


def _at_omega_1(config):
    """The config at omega = 1 with beta*omega and omega*ell, formed as
    cli.parse_config forms them."""
    omega, beta = config["omega"], config.get("beta", 1.0)
    return {**config, "omega": 1.0, "beta": beta if beta == "inf" else beta * omega,
            "ell": config.get("ell", 0.0) * omega}


def _run_cli_stdout(sub, config):
    """(exit code, stdout, stderr) of one in-process call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([sub, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


# the examples put omega at the ends of the float range, far from beta, ell,
# the times and a sweep's ends, and each of them must run every subcommand
@OMEGA_SETTINGS
@given(omega_configs(), st.just(False))
@example({**GRID, "omega": 1e-300, "beta": 1e300}, True)
@example({**GRID, "omega": 1e300, "beta": 1e-300, "ell": 0.5,
          "time_grid": {"times": [1e-25, 2e-25]}}, True)
@example({**GRID, "omega": 1e300}, True)
@example({**GRID, "omega": 1e300, "beta": 1e-308, "ell": 0.5,
          "time_grid": {"times": [0.0, 1e-9]}}, True)
@example({**GRID, "omega": 1e300, "beta": 1e-310, "ell": 0.5,
          "time_grid": {"times": [0.0, 1e-9]}}, True)
@example({**GRID, "omega": 0.25, "sweep": {"beta_omega": [1, 1, 1],
                                           "omega_ell": [0, 1e308, 2]}}, True)
@example({**GRID, "omega": 0.25, "sweep": {"beta_omega": [1e308, 1e308, 1],
                                           "omega_ell": [0, 1, 2]}}, True)
def test_output_depends_on_omega_only_through_the_products(config, must_run):
    reference = _at_omega_1(config)
    for sub in SUBCOMMANDS:
        code, out, err = _run_cli_stdout(sub, config)
        assert (code, out) == _run_cli_stdout(sub, reference)[:2], (sub, code, err)
        assert code == 0 or not must_run, (sub, code, err)
