"""Seeded properties over ModelParams: K's closed-form eigenvalues and the
complete-positivity guard, M against the reference route, trace and
Hermiticity preservation of M, the canonical-state reduction of the
discriminant, concurrence against the partial-transpose verdict, and the
Gibbs state as a stationary state (the bath is KMS)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from thermalpair import (ModelParams, build_kossakowski_closed, build_superoperator,
                         canonical_state, concurrence, criterion_rs, evolve, generation_test,
                         kossakowski_coefficients, kossakowski_eigenvalues, min_eig_pt, unvec,
                         vec)
from thermalpair.dynamics import _CP_REL_TOL

from util import hamiltonian, kossakowski_6x6, superoperator_reference


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
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def models(draw):
    """(params, include_hs, K, M) at a drawn corner."""
    omega = draw(_log_uniform(0.25, 4.0))
    params = ModelParams(omega=omega, beta=draw(beta_omega) / omega,
                         ell=draw(omega_ell) / omega, n=np.array(draw(unit)))
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
    ref = superoperator_reference(K, params, include_hs)
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
    verdict = generation_test(canonical_state(params.n), K)
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
    rho0 = (1.0 - noise) * canonical_state(params.n).density() + noise * np.eye(4) / 4.0
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
    e, v = np.linalg.eigh(hamiltonian(params))
    if math.isinf(params.beta):
        gibbs = np.outer(v[:, 0], v[:, 0].conj())    # the ground state
    else:
        w = np.exp(-params.beta * (e - e[0]))
        gibbs = (v * w) @ v.conj().T / w.sum()
    assert np.linalg.norm(M @ vec(gibbs)) <= 1e-14 * np.linalg.norm(M)
