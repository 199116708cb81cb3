"""Partial transposition, concurrence and the generation test with its oracles."""

import math

import numpy as np
import pytest

from thermalpair import (
    ModelParams,
    ProductState,
    build_superoperator,
    canonical_state,
    concurrence,
    criterion_rs,
    generation_test,
    kossakowski_eigenvalues,
    min_eig_pt,
    partial_transpose,
    singlet_density,
    singlet_ket,
    small_time_ppt_oracle,
)
from thermalpair.spectral import kossakowski_coefficients

from util import (KossakowskiMatrix, build_kossakowski_spectral, equilibrium_closed_form,
                  generation_discriminant, is_entangled, kossakowski_6x6, min_q_rate, q_probe,
                  q_rate, random_bloch, random_density, random_params, random_product_state,
                  random_rotation, random_separable_density, random_unit_complex, uv_vectors,
                  uv_vectors_rotation)

E3 = np.array([0.0, 0.0, 1.0])


def phi_plus_ket():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


# ------------------------------------------------------- partial transposition

def test_partial_transpose_of_product_state():
    rng = np.random.default_rng(31)
    rho1 = random_density(rng, dim=2)
    rho2 = random_density(rng, dim=2)
    rho = np.kron(rho1, rho2)
    np.testing.assert_allclose(partial_transpose(rho), np.kron(rho1, rho2.T), atol=1e-15)
    assert min_eig_pt(rho) >= -1e-14


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(32)
    rho = random_density(rng)
    np.testing.assert_array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_factor_choice_is_spectrally_irrelevant():
    rng = np.random.default_rng(33)
    for _ in range(20):
        rho = random_density(rng)
        pt2 = partial_transpose(rho)
        # transpose on the first factor = global transpose of the second-factor PT
        pt1 = partial_transpose(rho.T).T
        np.testing.assert_allclose(np.linalg.eigvalsh(pt1), np.linalg.eigvalsh(pt2),
                                   atol=1e-13)


def test_singlet_partial_transpose_spectrum():
    assert min_eig_pt(singlet_density()) == pytest.approx(-0.5, abs=1e-15)
    assert is_entangled(singlet_density())


def test_separable_reference_points():
    assert min_eig_pt(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.25, abs=1e-15)
    assert not is_entangled(np.eye(4, dtype=complex) / 4.0)
    rho_mp = canonical_state().density()
    assert min_eig_pt(rho_mp) == pytest.approx(0.0, abs=1e-15)
    assert not is_entangled(rho_mp)


# ------------------------------------------------------------------ concurrence

def test_concurrence_reference_values():
    assert concurrence(singlet_density()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(equilibrium_closed_form(1.0, -1.0)) == pytest.approx(0.5, abs=1e-12)
    assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_concurrence_of_product_states_vanishes():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rho = random_product_state(rng).density()
        # spin-flip spectrum of a pure product state is entirely roundoff
        assert concurrence(rho) < 1e-7


def test_peres_horodecki_exactness():
    # two-qubit PPT criterion and concurrence must agree on entanglement
    rng = np.random.default_rng(35)
    checked = 0
    for k in range(1000):
        rho = random_density(rng) if k % 2 == 0 else random_separable_density(rng)
        me = min_eig_pt(rho)
        if abs(me) < 1e-12:
            continue
        checked += 1
        assert (concurrence(rho) > 1e-12) == (me < 0), f"state {k}: PT {me}"
    assert checked > 900


# ---------------------------------------------------------------------- probes

def test_q_probe_values_on_singlet():
    assert q_probe(phi_plus_ket(), singlet_density()) == pytest.approx(-0.5, abs=1e-15)
    assert q_probe(singlet_ket(), singlet_density()) == pytest.approx(0.5, abs=1e-15)


def test_q_probe_nonnegative_for_separable_or_product_probe():
    rng = np.random.default_rng(36)
    for _ in range(50):
        rho_sep = random_separable_density(rng)
        assert q_probe(random_unit_complex(rng), rho_sep) >= -1e-13
        chi_prod = np.kron(random_unit_complex(rng, 2), random_unit_complex(rng, 2))
        assert q_probe(chi_prod, random_density(rng)) >= -1e-13


def test_q_probe_rejects_zero_vector():
    with pytest.raises(ValueError):
        q_probe(np.zeros(4), singlet_density())


def test_q_rate_finite_for_any_probe():
    rng = np.random.default_rng(37)
    K = build_kossakowski_spectral(ModelParams(omega=1.0, beta=1.0, ell=0.0), E3)
    rho0 = canonical_state().density()
    for _ in range(10):
        val = q_rate(random_unit_complex(rng), rho0, K)
        assert math.isfinite(val)


def test_min_q_rate_negative_when_generation_occurs():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.0)
    K = build_kossakowski_spectral(p, E3)
    state = canonical_state()
    val, chi = min_q_rate(state, K)
    assert val < -1e-3
    # the returned probe reproduces the rate and starts at Q(0) = 0
    assert q_rate(chi, state.density(), K) == pytest.approx(val, rel=1e-10)
    assert abs(q_probe(chi, state.density())) < 1e-13


def test_min_q_rate_boundary_case():
    # R = 1, S = 0: the reduction sits exactly on R^2 + S^2 = 1
    p = ModelParams(omega=1.0, beta=math.inf, ell=math.pi)
    K = build_kossakowski_spectral(p, E3)
    val, _ = min_q_rate(canonical_state(), K)
    assert val >= -1e-12 * np.linalg.norm(kossakowski_6x6(K), 2)


# ------------------------------------------------------------------ u/v vectors

def test_uv_vectors_canonical():
    u, v = uv_vectors(canonical_state())
    np.testing.assert_allclose(u, [1.0, -1j, 0.0], atol=1e-15)
    np.testing.assert_allclose(v, u, atol=1e-15)


def test_uv_vectors_both_ground():
    u, v = uv_vectors(ProductState(-E3, -E3))
    np.testing.assert_allclose(u, [1.0, -1j, 0.0], atol=1e-15)
    np.testing.assert_allclose(v, [1.0, +1j, 0.0], atol=1e-15)


def test_uv_vector_norms():
    rng = np.random.default_rng(38)
    for _ in range(50):
        u, v = uv_vectors(random_product_state(rng))
        assert np.linalg.norm(u) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_uv_vectors_match_the_pauli_rotation_route():
    # the bra-sigma-ket products against the SU(2) -> SO(3) rotations they
    # replace, on random product states and on every pair of the six poles
    rng = np.random.default_rng(43)
    poles = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
    states = [random_product_state(rng) for _ in range(200)]
    states += [ProductState(b1, b2) for b1 in poles for b2 in poles]
    for state in states:
        u, v = uv_vectors(state)
        u_ref, v_ref = uv_vectors_rotation(state)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-15)


# -------------------------------------------------------------- generation test

def test_generation_frozen_grid_points():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.5)
    _, label = generation_test(kossakowski_coefficients(p))
    assert label == "true"
    assert criterion_rs(p)[2] == pytest.approx(1.132947655297793155 - 1.0, rel=1e-12)

    p = ModelParams(omega=1.0, beta=1.0, ell=3.0)
    _, label = generation_test(kossakowski_coefficients(p))
    assert label == "false"
    assert criterion_rs(p)[2] == pytest.approx(0.21576502888683003315 - 1.0, rel=1e-12)


def test_generation_margin_equals_canonical_reduction():
    # for the canonical state the discriminant is exactly 4 A^2 (R^2 + S^2 - 1)
    rng = np.random.default_rng(39)
    for _ in range(50):
        p = random_params(rng)
        c = kossakowski_coefficients(p)
        margin, _ = generation_test(c)
        norm = np.abs(kossakowski_eigenvalues(c)).max()
        assert margin == pytest.approx(4.0 * c.A * c.A * criterion_rs(p)[2],
                                       rel=1e-10, abs=1e-13 * norm ** 2)


def test_generation_always_at_zero_separation():
    for bw in (0.01, 0.1, 1.0, 10.0):
        p = ModelParams(omega=1.0, beta=bw, ell=0.0)
        _, label = generation_test(kossakowski_coefficients(p))
        assert label == "true"


def test_criterion_rs_values():
    R, S, margin = criterion_rs(ModelParams(omega=1.0, beta=1.0, ell=0.0))
    assert R == pytest.approx(0.4621171572600097585, abs=1e-15)
    assert S == 1.0

    R, S, margin = criterion_rs(ModelParams(omega=1.0, beta=math.inf, ell=2.0))
    assert R == 1.0
    assert margin == pytest.approx(S * S, rel=1e-14)
    assert margin > 0  # zero temperature generates at any finite separation

    R, S, margin = criterion_rs(ModelParams(omega=1.0, beta=1.0, ell=math.pi))
    assert abs(S) < 1e-16
    assert margin == pytest.approx(R * R - 1.0, rel=1e-14)
    assert margin < 0


def test_generation_verdict_rotation_invariance():
    # turning K (to the axis O e3) and both Bloch vectors by one rotation O
    # leaves the discriminant as it is
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = random_params(rng, allow_zero_temperature=False)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        O = random_rotation(rng)
        K_rot = KossakowskiMatrix(c11=O @ K.c11 @ O.T, c12=O @ K.c12 @ O.T, norm=K.norm)
        state_rot = ProductState(O @ state.bloch1, O @ state.bloch2)
        verdict_rot = generation_discriminant(state_rot, K_rot)
        assert abs(verdict.margin - verdict_rot.margin) < 1e-12 * K.norm ** 2


def test_probe_optimality_matches_discriminant():
    # minimum of the constrained rate is negative iff the discriminant fires
    rng = np.random.default_rng(41)
    for _ in range(40):
        p = random_params(rng)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        if verdict.generated is None or abs(verdict.margin) < 1e-9 * K.norm ** 2:
            continue
        val, _ = min_q_rate(state, K)
        rate_scale = np.linalg.norm(kossakowski_6x6(K), 2)
        if verdict.generated:
            assert val < -1e-12 * rate_scale
        else:
            assert val >= -1e-12 * rate_scale


# ------------------------------------------------------------ small-time oracle

def test_small_time_oracle_frozen_points():
    state = canonical_state()
    p = ModelParams(omega=1.0, beta=1.0, ell=0.5)
    M = build_superoperator(p)
    assert small_time_ppt_oracle(M, state.density(), 1e-3) is True

    p = ModelParams(omega=1.0, beta=1.0, ell=3.0)
    M = build_superoperator(p)
    assert small_time_ppt_oracle(M, state.density(), 1e-3) is False


def test_small_time_oracle_rejects_bad_dt():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.5)
    M = build_superoperator(p)
    with pytest.raises(ValueError):
        small_time_ppt_oracle(M, canonical_state().density(), 0.0)


def test_oracle_agrees_for_generic_product_states():
    # the discriminant claim is not specific to the canonical state
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(30):
        p = random_params(rng)
        state = random_product_state(rng)
        K = build_kossakowski_spectral(p, E3)
        verdict = generation_discriminant(state, K)
        if verdict.generated is None or abs(verdict.margin) < 1e-6 * K.norm ** 2:
            continue
        M = build_superoperator(p)
        oracle = small_time_ppt_oracle(M, state.density(), 1e-3 / p.omega)
        assert oracle == verdict.generated
        checked += 1
    assert checked > 15


def test_oracle_insensitive_to_hamiltonian_term():
    # the free Hamiltonian is local, so it cannot change the verdict
    state = canonical_state()
    p = ModelParams(omega=1.0, beta=1.0, ell=0.5)
    M_h = build_superoperator(p, include_hs=True)
    assert small_time_ppt_oracle(M_h, state.density(), 1e-3) is True
