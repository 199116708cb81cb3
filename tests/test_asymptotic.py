"""The closed-form asymptotic states and the reference stationary projector,
checked against the closed-form ell = 0 equilibrium family and its
concurrence."""

import math

import numpy as np
import pytest

from thermalpair import (
    ConvergenceError,
    ModelParams,
    asymptotic_state,
    build_superoperator,
    canonical_state,
    concurrence,
    kossakowski_coefficients,
    min_eig_pt,
    singlet_density,
    singlet_ket,
    tau,
    temperature_ratio,
    threshold_tau,
    trace_norm,
    unvec,
    validate_density_matrix,
    vec,
)
from thermalpair import asymptotic, spectral
from thermalpair.spectral import KossakowskiCoefficients

from util import (_AT_REST, asymptotic_concurrence, build_kossakowski_spectral,
                  dissipator_reference, equilibrium_closed_form, equilibrium_coefficients,
                  generator_with_hamiltonian, kossakowski_from_coefficients, random_density,
                  random_params, spectral_gap, stationary_projector, superoperator_reference)

R_GRID = np.round(np.arange(0.0, 1.0001, 0.1), 10)
TAU_GRID = np.round(np.arange(-3.0, 1.0001, 0.5), 10)


def generator_for_ratio(R):
    """ell = 0 generator whose temperature ratio B/A equals R.

    R in (0, 1) comes from beta*omega = 2 atanh(R); R = 1 is the
    zero-temperature bath.  R = 0 (infinite temperature) is reached by
    the scaled coefficient limit A -> 1, B -> 0, C -> 0 directly.
    """
    if R == 0.0:
        coeffs = KossakowskiCoefficients(A=1.0, B=0.0, C=0.0, Ap=1.0, Bp=0.0, Cp=0.0)
        return superoperator_reference(kossakowski_from_coefficients(coeffs))
    beta = math.inf if R == 1.0 else 2.0 * math.atanh(R)
    params = ModelParams(beta_omega=beta, omega_ell=0.0)
    return build_superoperator(params)


def coherent_ground_singlet():
    """Equal mixture of the singlet and the ground state |--> with a
    coherence between them, which no ell = 0, zero-temperature
    dissipator damps."""
    ground = np.zeros(4, dtype=complex)
    ground[3] = 1.0
    s = np.array(singlet_ket())
    return (0.5 * np.outer(s, s.conj()) + 0.5 * np.outer(ground, ground)
            + 0.3 * (np.outer(s, ground) + np.outer(ground, s.conj())))


def stationary_dim(M):
    return round(np.trace(stationary_projector(M)).real)


# ------------------------------------------------------- stationary projector

def test_stationary_dimension_degenerate_at_zero_separation():
    p = ModelParams(beta_omega=1.0, omega_ell=0.0)
    M = build_superoperator(p)
    assert stationary_dim(M) == 2


def test_stationary_dimension_unique_at_finite_separation():
    p = ModelParams(beta_omega=1.0, omega_ell=2.0)
    M = build_superoperator(p)
    assert stationary_dim(M) == 1


def test_stationary_dimension_at_zero_temperature_and_separation():
    # ground, singlet and the two coherences between them
    p = ModelParams(beta_omega=math.inf, omega_ell=0.0)
    M = build_superoperator(p)
    assert stationary_dim(M) == 4
    M_h = generator_with_hamiltonian(p)
    assert stationary_dim(M_h) == 2  # the coherences oscillate at omega
    # the dissipator's projector masked to m_a = m_b has the same rank
    assert round(np.trace(stationary_projector(M) * _AT_REST).real) == 2


def test_stationary_basis_elements_are_stationary():
    # the range of P: every column, devectorized, is a stationary operator
    for ell in (0.0, 2.0):
        p = ModelParams(beta_omega=1.0, omega_ell=ell)
        K = build_kossakowski_spectral(p, (0.0, 0.0, 1.0))
        P = stationary_projector(build_superoperator(p))
        for col in P.T:
            assert np.abs(dissipator_reference(K, unvec(col))).max() < 1e-12


def test_stationary_basis_rejects_bad_shape():
    with pytest.raises(ValueError):
        stationary_projector(np.zeros((4, 4)))


def test_stationary_projector_properties():
    """On seeded random parameters, with the free Hamiltonian (the reference
    generator) on every other one: P^2 = P, M P = P M = 0,
    vec(I)^dag P = vec(I)^dag, and at finite temperature and ell = 0,
    P rho0 is the closed-form equilibrium."""
    rng = np.random.default_rng(52)
    vec_id = vec(np.eye(4))
    seen = set()
    for k in range(120):
        p = random_params(rng)
        include_hs = k % 2 == 1
        seen |= {"beta_inf"} if math.isinf(p.beta_omega) else set()
        seen |= {"ell_0"} if p.omega_ell == 0 else set()
        seen |= {"include_hs"} if include_hs else set()
        M = (generator_with_hamiltonian(p) if include_hs
             else build_superoperator(p))
        P = stationary_projector(M)
        scale = np.abs(M).max()
        label = f"{p} include_hs={include_hs}"
        assert np.abs(P @ P - P).max() < 1e-12, label
        assert np.abs(M @ P).max() < 1e-12 * scale, label
        assert np.abs(P @ M).max() < 1e-12 * scale, label
        assert np.abs(vec_id.conj() @ P - vec_id.conj()).max() < 1e-12, label
        if p.omega_ell == 0 and not math.isinf(p.beta_omega):
            rho0 = random_density(rng)
            expected = equilibrium_closed_form(temperature_ratio(p), tau(rho0))
            assert np.abs(unvec(P @ vec(rho0)) - expected).max() < 1e-12, label
    assert seen == {"beta_inf", "ell_0", "include_hs"}


# ----------------------------------------------------- closed-form family

def test_equilibrium_ground_state_at_zero_temperature():
    rho = equilibrium_closed_form(1.0, 1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 3] = 1.0  # |--><--|
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_equilibrium_singlet_at_tau_floor():
    for R in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(equilibrium_closed_form(R, -3.0),
                                   np.array(singlet_density()), atol=1e-15)


def test_equilibrium_maximally_mixed():
    np.testing.assert_allclose(equilibrium_closed_form(0.0, 0.0),
                               np.eye(4) / 4.0, atol=1e-16)


def test_equilibrium_coefficients_tau_identity():
    for R in R_GRID:
        for t in TAU_GRID:
            fam = equilibrium_coefficients(R, t)
            assert 3.0 * fam.b + fam.c == pytest.approx(t, abs=1e-12)
            assert fam.c == pytest.approx(R * fam.a, abs=1e-15)
            rho = equilibrium_closed_form(R, t)
            validate_density_matrix(rho)
            assert tau(rho) == pytest.approx(t, abs=1e-12)


def test_equilibrium_family_is_stationary():
    # the null-space oracle for the coefficient grouping of the family
    for R in R_GRID:
        M = generator_for_ratio(R)
        for t in TAU_GRID:
            rho = equilibrium_closed_form(R, t)
            assert np.abs(unvec(M @ vec(rho))).max() < 1e-12, (R, t)


def test_equilibrium_rejects_out_of_range():
    with pytest.raises(ValueError):
        equilibrium_closed_form(1.5, 0.0)
    with pytest.raises(ValueError):
        equilibrium_closed_form(0.5, -3.5)
    with pytest.raises(ValueError):
        asymptotic_concurrence(-0.1, 0.0)


# ------------------------------------------------------------- concurrence

def test_asymptotic_concurrence_endpoints():
    for R in R_GRID:
        assert asymptotic_concurrence(R, -3.0) == pytest.approx(1.0, abs=1e-12)
    assert asymptotic_concurrence(1.0, -1.0) == pytest.approx(0.5, abs=1e-12)
    assert asymptotic_concurrence(0.0, -1.0) == 0.0


def test_asymptotic_concurrence_matches_wootters():
    for R in R_GRID:
        for t in TAU_GRID:
            closed = asymptotic_concurrence(R, t)
            numeric = concurrence(equilibrium_closed_form(R, t))
            assert numeric == pytest.approx(closed, abs=1e-10)


def test_threshold_values():
    assert threshold_tau(1.0) == pytest.approx(1.0, abs=1e-15)
    assert threshold_tau(0.8) == pytest.approx(0.084745762711864406780, abs=1e-15)
    assert threshold_tau(math.sqrt(3.0 / 5.0)) == pytest.approx(0.0, abs=1e-15)


def test_concurrence_positive_region_matches_threshold():
    for R in R_GRID:
        thr = threshold_tau(R)
        values = [asymptotic_concurrence(R, t) for t in TAU_GRID]
        for t, c in zip(TAU_GRID, values):
            assert (c > 0) == (t < thr), (R, t, c)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))  # non-increasing


# --------------------------------------------------------- asymptotic state

def test_asymptotic_state_canonical_at_zero_separation():
    p = ModelParams(beta_omega=1.0, omega_ell=0.0)
    rho_inf, dim = asymptotic_state(p, canonical_state().density())
    assert dim == 2
    # tau = -1 for orthogonal pure states: concurrence 2R^2/(3+R^2)
    assert concurrence(rho_inf) == pytest.approx(0.13290729341780352129, abs=1e-10)


def test_asymptotic_state_singlet_is_fixed():
    p = ModelParams(beta_omega=0.5, omega_ell=0.0)
    rho_inf, _ = asymptotic_state(p, singlet_density())
    assert trace_norm(np.array(rho_inf) - np.array(singlet_density())) < 1e-10


def test_asymptotic_state_unique_and_separable_at_finite_separation():
    rng = np.random.default_rng(51)
    p = ModelParams(beta_omega=1.0, omega_ell=2.0)
    rho_a, dim = asymptotic_state(p, random_density(rng).tolist())
    rho_b, _ = asymptotic_state(p, random_density(rng).tolist())
    assert dim == 1
    assert trace_norm(np.array(rho_a) - np.array(rho_b)) < 1e-10  # independent of rho0
    assert min_eig_pt(rho_a) >= -1e-12
    assert concurrence(rho_a) < 1e-10


def test_asymptotic_state_keeps_conserved_coherences():
    # zero temperature, ell = 0: the singlet/ground coherence is conserved,
    # so the state is its own limit, which the tau family alone would miss
    p = ModelParams(beta_omega=math.inf, omega_ell=0.0)
    rho0 = coherent_ground_singlet()
    rho_inf, dim = asymptotic_state(p, rho0.tolist())
    assert dim == 4
    assert trace_norm(np.array(rho_inf) - rho0) < 1e-12


def test_asymptotic_state_convergence_check_fires(monkeypatch):
    # with the free Hamiltonian the singlet/ground coherence rotates at
    # omega forever: under the full generator, put in place of the one the
    # guard reads from spectral, the closed form that keeps it fails the
    # residual guard (the CLI's refusal of that state with include_hs is
    # test_cli's test_asymptotic_convergence_failure_exits_5)
    p = ModelParams(beta_omega=math.inf, omega_ell=0.0)
    M_h = generator_with_hamiltonian(p)
    monkeypatch.setattr(asymptotic, "generator",
                        lambda params: [(i, j, M_h[i, j]) for i, j in zip(*np.nonzero(M_h))])
    with pytest.raises(ConvergenceError, match="not stationary"):
        asymptotic_state(p, coherent_ground_singlet().tolist())
    monkeypatch.undo()
    # the Gibbs state of beta = 1 under the generator of beta = 2
    p = ModelParams(beta_omega=1.0, omega_ell=2.0)
    M_2 = spectral.generator(ModelParams(beta_omega=2.0, omega_ell=2.0))
    monkeypatch.setattr(asymptotic, "generator", lambda params: M_2)
    with pytest.raises(ConvergenceError, match="not stationary"):
        asymptotic_state(p, canonical_state().density())


def test_spectral_gap_positive():
    for ell in (0.0, 0.5, 2.0):
        p = ModelParams(beta_omega=1.0, omega_ell=ell)
        M = build_superoperator(p)
        assert spectral_gap(M) > 0.01


def test_temperature_ratio_consistent_with_family():
    # R used by the family equals the coefficient ratio B/A
    p = ModelParams(beta_omega=1.17, omega_ell=0.0)
    c = kossakowski_coefficients(p)
    assert temperature_ratio(p) == pytest.approx(c.B / c.A, rel=1e-14)
