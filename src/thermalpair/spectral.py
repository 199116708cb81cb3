"""Thermal-bath spectral functions and the two-atom Kossakowski matrix.

Physical conventions (natural units, hbar = c = k_B = 1):
  - omega : level splitting of each atom, > 0 (units 1/time)
  - beta  : inverse bath temperature, > 0; math.inf encodes the
            zero-temperature bath exactly (no large-float stand-in)
  - ell   : spatial separation of the atoms, >= 0 (units time since c = 1)
  - n     : real unit 3-vector; each free atom Hamiltonian is (omega/2) n.sigma

The bath enters the reduced dynamics only through two real spectra,

    g11(z) = z / (2 pi (1 - exp(-beta z)))        (same-atom)
    g12(z) = g11(z) * sin(ell z) / (ell z)        (cross-atom)

evaluated at z in {+omega, -omega, 0}, and through the geometric psi
tensors built from n.  The resulting coefficient matrix has the 2x2 block
structure [[C11, C12], [C12, C11]] with 3x3 Hermitian blocks; it must be
positive semidefinite for the generated semigroup to be completely
positive.  The matrix is built from the closed form in terms of the six
coefficients A, B, C, A', B', C' (`build_kossakowski_closed`); the
independent frequency-sum construction it is checked against lives in
the test suite.

Its six eigenvalues (`kossakowski_eigenvalues`) are the lowering, raising
and dephasing rates of the collective and the relative channel; the
relative ones carry 1 - sinc(omega ell) and vanish at ell = 0, where the
singlet is dark.  `dynamics.build_superoperator` builds the generator from
them and enforces their positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Levi-Civita symbol, epsilon[i, j, k]
_EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPSILON[_i, _j, _k] = 1.0
    _EPSILON[_j, _i, _k] = -1.0

_UNIT_TOL = 1e-12


def _unit_vector(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"axis must be a real 3-vector, got shape {n.shape}")
    norm = math.hypot(*n)
    if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN entry fails too
        raise ValueError(f"axis must be a unit vector, |n| = {norm!r}")
    return n


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs of the two-atom / thermal-field model.

    beta = math.inf selects the zero-temperature bath branch everywhere.
    """

    omega: float
    beta: float
    ell: float
    n: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not (self.beta > 0):  # inf allowed
            raise ValueError(f"beta must be > 0 (or inf), got {self.beta}")
        if not (math.isfinite(self.ell) and self.ell >= 0):
            raise ValueError(f"ell must be finite and >= 0, got {self.ell}")
        object.__setattr__(self, "n", _unit_vector(self.n))

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)


@dataclass(frozen=True)
class KossakowskiCoefficients:
    """Closed-form coefficients of the block Kossakowski matrix.

    Unprimed values parametrize the same-atom block C11 = A 1 - iB eps.n
    + C nn^T; primed values the cross-atom block C12.  Units 1/time.
    """

    A: float
    B: float
    C: float
    Ap: float
    Bp: float
    Cp: float


@dataclass(frozen=True)
class KossakowskiMatrix:
    """Block Kossakowski matrix; c22 = c11 and c21 = c12 by symmetry."""

    c11: np.ndarray
    c12: np.ndarray
    n: np.ndarray

    @property
    def c22(self) -> np.ndarray:
        return self.c11

    @property
    def c21(self) -> np.ndarray:
        return self.c12

    @property
    def matrix(self) -> np.ndarray:
        """6x6 Hermitian form, indexed by (atom, direction)."""
        return np.block([[self.c11, self.c12], [self.c12, self.c11]])


def _sinc(x: float) -> float:
    """sin(x)/x with the exact value 1 at x = 0."""
    return float(np.sinc(x / np.pi))


def kossakowski_coefficients(params: ModelParams) -> KossakowskiCoefficients:
    """Closed-form A, B, C (same-atom) and primed variants (cross-atom).

    B = omega/4pi exactly; A carries the coth(beta omega / 2) thermal
    enhancement; A + C equals the zero-frequency spectrum 1/(2 pi beta).
    Primed values differ by the sinc(omega ell) factor, except Cp whose
    zero-frequency part has ell -> 0 built in (sinc(0) = 1).
    """
    w = params.omega
    B = w / (4.0 * math.pi)
    if params.zero_temperature:
        A = B
        g0 = 0.0
    else:
        A = B / math.tanh(params.beta * w / 2.0)
        g0 = 1.0 / (TWO_PI * params.beta)
    C = g0 - A
    s = _sinc(w * params.ell)
    return KossakowskiCoefficients(A=A, B=B, C=C, Ap=A * s, Bp=B * s, Cp=g0 - A * s)


def temperature_ratio(params: ModelParams) -> float:
    """R = B/A = tanh(beta omega / 2); equals 1 at zero temperature."""
    if params.zero_temperature:
        return 1.0
    return math.tanh(params.beta * params.omega / 2.0)


def kossakowski_from_coefficients(coeffs: KossakowskiCoefficients, n) -> KossakowskiMatrix:
    """Blocks A 1 - iB eps.n + C nn^T (and primed analogue) for given coefficients."""
    n = _unit_vector(n)
    eps_n = np.einsum("ijk,k->ij", _EPSILON, n)
    nn = np.outer(n, n)
    eye = np.eye(3)
    c11 = coeffs.A * eye - 1j * coeffs.B * eps_n + coeffs.C * nn
    c12 = coeffs.Ap * eye - 1j * coeffs.Bp * eps_n + coeffs.Cp * nn
    return KossakowskiMatrix(c11=c11, c12=c12, n=n)


def build_kossakowski_closed(params: ModelParams) -> KossakowskiMatrix:
    """Assemble the Kossakowski blocks from the closed-form coefficients."""
    return kossakowski_from_coefficients(kossakowski_coefficients(params), params.n)


def kossakowski_eigenvalues(coeffs: KossakowskiCoefficients) -> np.ndarray:
    """The six eigenvalues of the Kossakowski matrix, which do not depend on n.

    For the collective (s = +1) and then the relative (s = -1) channel, with
    a_s = A + s A', b_s = B + s B' and c_s = C + s C': a_s + b_s (lowering
    along n), a_s - b_s (raising) and a_s + c_s (dephasing).  a_+ + c_+ is
    2 g0, and a_- + c_- is zero up to rounding.
    """
    rates = []
    for s in (1.0, -1.0):
        a, b, c = coeffs.A + s * coeffs.Ap, coeffs.B + s * coeffs.Bp, coeffs.C + s * coeffs.Cp
        rates += [a + b, a - b, a + c]
    return np.array(rates)
