"""Bath spectra, Kossakowski coefficients and matrix constructions.

Frozen reference numbers were computed with a 50-digit mpmath evaluation
of the defining expressions, independent of the float implementation
under test.
"""

import math

import numpy as np
import pytest

from thermalpair import (
    ModelParams,
    kossakowski_coefficients,
    kossakowski_eigenvalues,
    temperature_ratio,
)
from thermalpair.spectral import KossakowskiCoefficients

from util import (build_kossakowski_spectral, kossakowski_6x6, kossakowski_from_coefficients,
                  psi_tensors, random_params, random_rotation, spectral_density)

E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------- spectra

def test_spectral_density_frozen_values():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.0)
    sv = spectral_density(p, 1.0)
    assert sv.g11 == pytest.approx(0.25177941275449163618, abs=1e-15)
    assert sv.g12 == sv.g11  # sinc(0) = 1 at ell = 0
    sv = spectral_density(p, -1.0)
    assert sv.g11 == pytest.approx(0.092624469662596300409, abs=1e-15)


def test_spectral_density_zero_frequency_limit():
    for ell in (0.0, 0.7, 3.0):
        sv = spectral_density(ModelParams(omega=1.0, beta=1.0, ell=ell), 0.0)
        assert sv.g11 == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-16)
        assert sv.g12 == sv.g11


def test_spectral_density_cross_atom():
    p = ModelParams(omega=1.0, beta=1.0, ell=2.0)
    sv = spectral_density(p, 1.0)
    assert sv.g12 == pytest.approx(0.11447118607267023355, abs=1e-15)


def test_spectral_density_zero_temperature():
    p = ModelParams(omega=1.0, beta=math.inf, ell=0.5)
    assert spectral_density(p, 2.0).g11 == pytest.approx(1.0 / math.pi, abs=1e-16)
    assert spectral_density(p, -2.0).g11 == 0.0
    assert spectral_density(p, 0.0).g11 == 0.0


def test_spectral_density_series_branch_matches_direct_form():
    # the series branch takes over below |beta z| = 1e-6; at the same point
    # it must agree with the expm1-based evaluation to near machine precision
    p = ModelParams(omega=1.0, beta=1.0, ell=0.0)
    for z in (0.999e-6, -0.999e-6, 1e-9):
        direct = z / (2.0 * math.pi * -math.expm1(-p.beta * z))
        assert spectral_density(p, z).g11 == pytest.approx(direct, rel=1e-13)


def test_kms_detailed_balance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        beta = float(np.exp(rng.uniform(np.log(0.02), np.log(50.0))))
        z = float(rng.uniform(-20.0, 20.0))
        if abs(z) < 1e-3:
            continue
        p = ModelParams(omega=1.0, beta=beta, ell=float(rng.uniform(0, 5)))
        g_plus = spectral_density(p, z).g11
        g_minus = spectral_density(p, -z).g11
        if beta * abs(z) > 700:
            continue  # e^{-beta z} underflows; relation is 0 = 0
        assert g_minus == pytest.approx(math.exp(-beta * z) * g_plus, rel=1e-12)


def test_sinc_bound_and_positivity():
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = ModelParams(omega=1.0, beta=float(rng.uniform(0.1, 10)),
                        ell=float(rng.uniform(0, 10)))
        sv = spectral_density(p, float(rng.uniform(-10, 10)))
        assert sv.g11 >= 0.0
        assert abs(sv.g12) <= sv.g11 + 1e-16


def test_spectral_density_rejects_nonfinite():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.0)
    with pytest.raises(ValueError):
        spectral_density(p, math.nan)
    with pytest.raises(ValueError):
        spectral_density(p, math.inf)


# ----------------------------------------------------------- model params

@pytest.mark.parametrize("kwargs", [
    {"omega": 0.0, "beta": 1.0, "ell": 0.0},
    {"omega": -1.0, "beta": 1.0, "ell": 0.0},
    {"omega": 1.0, "beta": 0.0, "ell": 0.0},
    {"omega": 1.0, "beta": -2.0, "ell": 0.0},
    {"omega": 1.0, "beta": 1.0, "ell": -0.1},
    {"omega": 1.0, "beta": math.nan, "ell": 0.0},
    {"omega": math.inf, "beta": 1.0, "ell": 0.0},
    {"omega": 1.0, "beta": 1.0, "ell": math.inf},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


# ------------------------------------------------------------ coefficients

def test_coefficients_frozen_values():
    c = kossakowski_coefficients(ModelParams(omega=1.0, beta=1.0, ell=0.0))
    assert c.A == pytest.approx(0.17220194120854396829, abs=1e-15)
    assert c.B == pytest.approx(0.079577471545947667884, abs=1e-16)
    assert c.C == pytest.approx(-0.013046998116648632524, abs=1e-15)
    # ell = 0: primed coefficients coincide with the unprimed ones
    assert c.Ap == c.A and c.Bp == c.B and c.Cp == c.C


def test_coefficients_zero_temperature():
    c = kossakowski_coefficients(ModelParams(omega=1.0, beta=math.inf, ell=0.0))
    quarter = 1.0 / (4.0 * math.pi)
    assert c.A == pytest.approx(quarter, abs=1e-16)
    assert c.B == pytest.approx(quarter, abs=1e-16)
    assert c.C == pytest.approx(-quarter, abs=1e-16)


def test_coefficients_at_sinc_zero():
    c = kossakowski_coefficients(ModelParams(omega=1.0, beta=1.0, ell=math.pi))
    assert abs(c.Ap) < 1e-16
    assert abs(c.Bp) < 1e-16
    assert c.Cp == pytest.approx(0.15915494309189533577, abs=1e-15)


def test_coefficients_zero_temperature_cross():
    # beta = inf: Cp = -(omega/4pi) sinc(omega ell)
    w, ell = 1.3, 0.8
    c = kossakowski_coefficients(ModelParams(omega=w, beta=math.inf, ell=ell))
    expected = -(w / (4 * math.pi)) * math.sin(w * ell) / (w * ell)
    assert c.Cp == pytest.approx(expected, rel=1e-14)


def test_coefficient_invariants():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = random_params(rng)
        c = kossakowski_coefficients(p)
        assert c.B == p.omega / (4.0 * math.pi)  # exact
        assert c.A >= c.B >= 0.0
        expected_sum = 0.0 if p.zero_temperature else 1.0 / (2.0 * math.pi * p.beta)
        assert c.A + c.C == pytest.approx(expected_sum, rel=1e-12, abs=1e-15)
        assert abs(c.Ap) <= c.A + 1e-16
        assert abs(c.Bp) <= c.B + 1e-16


def test_temperature_ratio_monotone():
    ratios = [temperature_ratio(ModelParams(omega=1.0, beta=bw, ell=0.0))
              for bw in np.linspace(0.05, 30.0, 60)]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert temperature_ratio(ModelParams(omega=1.0, beta=math.inf, ell=0.0)) == 1.0


# ------------------------------------------------------------- psi tensors

def test_psi_tensors_along_e3():
    psi = psi_tensors(E3)
    np.testing.assert_allclose(psi.psi0, np.diag([0, 0, 1.0]), atol=1e-16)
    expected_plus = 0.5 * np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 0]])
    np.testing.assert_allclose(psi.psi_plus, expected_plus, atol=1e-16)


def test_psi_tensors_along_e1():
    psi = psi_tensors(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(psi.psi0, np.diag([1.0, 0, 0]), atol=1e-16)


def test_psi_tensor_identities():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v = rng.normal(size=3)
        psi = psi_tensors(v / np.linalg.norm(v))
        total = psi.psi0 + psi.psi_plus + psi.psi_minus
        np.testing.assert_allclose(total, np.eye(3), atol=1e-14)
        # + and - sectors are exchanged by transposition (each tensor is
        # Hermitian, so elementwise conjugation does the same)
        np.testing.assert_allclose(psi.psi_plus.T, psi.psi_minus, atol=1e-14)
        np.testing.assert_allclose(np.conj(psi.psi_plus), psi.psi_minus, atol=1e-14)
        for m in (psi.psi0, psi.psi_plus, psi.psi_minus):
            np.testing.assert_allclose(m @ m, m, atol=1e-14)
            np.testing.assert_allclose(m.conj().T, m, atol=1e-14)


def test_psi_tensors_reject_non_unit():
    with pytest.raises(ValueError):
        psi_tensors([1.0, 1.0, 0.0])


# ----------------------------------------------------- matrix constructions

def closed_form(p):
    """K's blocks from the library's closed-form coefficients."""
    return kossakowski_from_coefficients(kossakowski_coefficients(p))


def test_closed_form_entries_along_e3():
    K = closed_form(ModelParams(omega=1.0, beta=1.0, ell=0.0))
    B = 0.079577471545947667884
    assert K.c11[0, 1] == pytest.approx(-1j * B, abs=1e-16)
    assert K.c11[1, 0] == pytest.approx(+1j * B, abs=1e-16)
    np.testing.assert_array_equal(K.c12, K.c11)  # ell = 0


def test_closed_form_primed_ratio():
    K = closed_form(ModelParams(omega=1.0, beta=1.0, ell=0.5))
    ratio = K.c12[0, 1] / K.c11[0, 1]  # Bp / B = sinc(0.5)
    assert ratio == pytest.approx(0.95885107720840600055, rel=1e-14)


def test_construction_equivalence():
    rng = np.random.default_rng(15)
    for _ in range(300):
        p = random_params(rng)
        Ks = build_kossakowski_spectral(p, E3)
        Kc = closed_form(p)
        assert np.abs(kossakowski_6x6(Ks) - kossakowski_6x6(Kc)).max() < 1e-13
        assert abs(Ks.norm - Kc.norm) <= 1e-13 * Ks.norm


def test_transverse_and_longitudinal_eigenvalues():
    p = ModelParams(omega=1.0, beta=1.0, ell=0.0)
    c = kossakowski_coefficients(p)
    eigs = np.sort(np.linalg.eigvalsh(build_kossakowski_spectral(p, E3).c11))
    expected = np.sort([c.A - c.B, c.A + c.B, c.A + c.C])
    np.testing.assert_allclose(eigs, expected, atol=1e-14)


def test_rotation_covariance():
    # K at the axis O e3, from the frequency sum, is the closed-form K at e3
    # turned by O, for any proper rotation O
    rng = np.random.default_rng(16)
    for _ in range(30):
        p = random_params(rng, allow_zero_temperature=False)
        O = random_rotation(rng)
        K = closed_form(p)
        K_rot = build_kossakowski_spectral(p, O @ E3)
        np.testing.assert_allclose(K_rot.c11, O @ K.c11 @ O.T, atol=1e-13)
        np.testing.assert_allclose(K_rot.c12, O @ K.c12 @ O.T, atol=1e-13)


def test_positivity_on_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = kossakowski_6x6(closed_form(random_params(rng)))
        assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1.0)
        assert np.linalg.eigvalsh(m).min() >= -1e-12 * np.linalg.norm(m, 2)


# ------------------------------------------------ closed-form eigenvalues

def test_kossakowski_eigenvalues_match_eigvalsh_for_any_coefficients():
    # the closed form holds for every real A, B, C, A', B', C' and axis (K
    # turned by a rotation O on both atoms), also where K is not positive
    # semidefinite
    rng = np.random.default_rng(18)
    for _ in range(200):
        coeffs = KossakowskiCoefficients(*rng.normal(size=6))
        O = np.kron(np.eye(2), random_rotation(rng))
        K = kossakowski_from_coefficients(coeffs)
        eigs = np.linalg.eigvalsh(O @ kossakowski_6x6(K) @ O.T)
        lam = kossakowski_eigenvalues(coeffs)
        assert np.abs(np.sort(lam) - eigs).max() <= 1e-14 * np.abs(eigs).max()


def test_kossakowski_eigenvalues_detect_corrupted_cross_block():
    c = kossakowski_coefficients(ModelParams(omega=1.0, beta=1.0, ell=0.0))
    corrupted = KossakowskiCoefficients(A=c.A, B=c.B, C=c.C,
                                        Ap=2.0 * c.Ap, Bp=2.0 * c.Bp, Cp=2.0 * c.Cp)
    # at ell = 0 the doubled cross block gives min eig = -(A + B), the
    # relative lowering rate
    lam = kossakowski_eigenvalues(corrupted)
    assert lam[3] == lam.min() == pytest.approx(-0.25177941275449163618, abs=1e-14)


def test_from_coefficients_roundtrip():
    coeffs = KossakowskiCoefficients(A=1.0, B=0.25, C=-0.5, Ap=0.8, Bp=0.2, Cp=-0.4)
    K = kossakowski_from_coefficients(coeffs)
    assert K.c11[2, 2] == pytest.approx(1.0 - 0.5)
    assert K.c12[0, 1] == pytest.approx(-0.2j)
