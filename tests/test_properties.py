"""Seeded properties over ModelParams: K's closed-form eigenvalues and the
complete-positivity guard, M against the reference route, trace and
Hermiticity preservation of M, the canonical-state reduction of the
discriminant, concurrence against the partial-transpose verdict, the
Gibbs state as a stationary state (the bath is KMS), and the axis n as a
local frame only: the generator at n, and the CLI's phase diagram and
trajectories at n, against those at e3."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from thermalpair import (ModelParams, build_kossakowski_closed, build_superoperator,
                         canonical_state, cli, concurrence, criterion_rs, evolve,
                         generation_test, kossakowski_coefficients, kossakowski_eigenvalues,
                         local_frame, min_eig_pt, unvec, vec)
from thermalpair.dynamics import _CP_REL_TOL

from util import (build_kossakowski_spectral, hamiltonian, kossakowski_6x6,
                  superoperator_reference)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v] if norm > 0.1 else [0.0, 0.0, 1.0]


# the corners: beta = inf, ell = 0, ell -> 0+ (omega*ell down to 1e-12) and
# include_hs, beside generic and extreme beta*omega
beta_omega = st.one_of(st.just(math.inf), _log_uniform(1e-3, 1e3))
omega_ell = st.one_of(st.just(0.0), _log_uniform(1e-12, 1e-3), st.floats(0.0, 20.0))
unit = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(_unit)
E3 = (0.0, 0.0, 1.0)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def models(draw):
    """(params, include_hs, K, M) at a drawn corner."""
    omega = draw(_log_uniform(0.25, 4.0))
    params = ModelParams(omega=omega, beta=draw(beta_omega) / omega,
                         ell=draw(omega_ell) / omega)
    include_hs = draw(st.booleans())
    K = build_kossakowski_closed(params)
    return params, include_hs, K, build_superoperator(params, include_hs)


@SETTINGS
@given(models())
def test_kossakowski_passes_the_cp_guard(model):
    params, _, K, _ = model
    eigs = np.linalg.eigvalsh(kossakowski_6x6(K))
    lam = kossakowski_eigenvalues(kossakowski_coefficients(params))
    assert np.abs(np.sort(lam) - eigs).max() <= 1e-14 * np.abs(eigs).max()
    svd_norm = np.linalg.norm(kossakowski_6x6(K), 2)
    assert abs(K.norm - svd_norm) <= 1e-14 * svd_norm
    assert lam.min() >= -_CP_REL_TOL * lam.max() / 6


@SETTINGS
@given(models())
def test_generator_matches_the_reference_route(model):
    params, include_hs, K, M = model
    ref = superoperator_reference(K, hamiltonian(params, E3) if include_hs else None)
    assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()


@SETTINGS
@given(models())
def test_generator_preserves_trace_and_hermiticity(model):
    _, _, _, M = model
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
    params, _, K, _ = model
    verdict = generation_test(canonical_state(), K)
    _, _, rs_margin = criterion_rs(params)
    if verdict.generated is not None:   # outside the boundary band
        assert verdict.generated == (rs_margin > 0), (verdict, rs_margin)


@SETTINGS
@given(models(), st.floats(0.0, 5.0), st.floats(0.0, 0.5))
def test_concurrence_is_positive_exactly_when_partial_transpose_is_negative(model, omega_t,
                                                                          noise):
    # the canonical state, mixed with white noise so that separable states
    # are full rank and keep their partial transpose away from 0
    params, _, _, M = model
    rho0 = (1.0 - noise) * canonical_state().density() + noise * np.eye(4) / 4.0
    rho = evolve(M, rho0, omega_t / params.omega)
    c, m = concurrence(rho), min_eig_pt(rho)
    if m < -1e-10:
        assert c > 0, (c, m)
    if m > 1e-10:
        assert c == 0, (c, m)


@SETTINGS
@given(models())
def test_gibbs_state_is_stationary(model):
    params, _, _, M = model
    e, v = np.linalg.eigh(hamiltonian(params, E3))
    if math.isinf(params.beta):
        gibbs = np.outer(v[:, 0], v[:, 0].conj())    # the ground state
    else:
        w = np.exp(-params.beta * (e - e[0]))
        gibbs = (v * w) @ v.conj().T / w.sum()
    assert np.linalg.norm(M @ vec(gibbs)) <= 1e-14 * np.linalg.norm(M)


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
    # the reference route builds K and H_S at n itself; S = kron(V*, V) is
    # the superoperator of rho -> V rho V^dag
    params, include_hs, _, M = model
    V = local_frame(n)
    S = np.kron(V.conj(), V)
    ref = superoperator_reference(build_kossakowski_spectral(params, n),
                                  hamiltonian(params, n) if include_hs else None)
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
        K = build_kossakowski_closed(ModelParams(omega=omega, beta=float(x[0]) / omega,
                                                 ell=float(x[1]) / omega))
        assert abs(float(x[5]) - float(y[5])) <= 1e-14 * K.norm ** 2 / omega ** 2
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
