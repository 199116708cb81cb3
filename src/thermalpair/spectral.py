"""Thermal-bath spectral functions and the two-atom Kossakowski matrix.

Physical conventions (natural units, hbar = c = k_B = 1).  Every result
depends on the level splitting omega of each atom only through beta*omega,
omega*ell and omega*t, so the library runs in units of omega: rates are in
units of omega and times in units of 1/omega (the CLI forms the two
products from its config).
  - beta_omega : inverse bath temperature, > 0; math.inf encodes the
                 zero-temperature bath exactly (no large-float stand-in)
  - omega_ell  : spatial separation of the atoms, >= 0 (c = 1)

The bath enters the reduced dynamics only through two real spectra,

    g11(z) = z / (2 pi (1 - exp(-beta_omega z)))          (same-atom)
    g12(z) = g11(z) * sin(omega_ell z) / (omega_ell z)    (cross-atom)

evaluated at z in {+1, -1, 0}, and through the geometric psi tensors
built from the axis n of the atom Hamiltonians (1/2) n.sigma.
One rotation of both atoms turns n into e3, so n is only a frame: the
library works at e3 (`dynamics.local_frame` turns states to it).  The
coefficient matrix has the 2x2 block structure [[C11, C12], [C12, C11]]
with 3x3 Hermitian blocks C11 = A 1 - iB eps.e3 + C e3 e3^T and C12 its
primed analogue; it must be positive semidefinite for the generated
semigroup to be completely positive.  The package holds K only as the six
coefficients A, B, C, A', B', C' (`kossakowski_coefficients`) and its six
eigenvalues; the 3x3 blocks, and the independent frequency-sum
construction they are checked against, live in the test suite.

The eigenvalues (`kossakowski_eigenvalues`) are the lowering, raising
and dephasing rates of the collective and the relative channel; the
relative ones carry 1 - sinc(omega ell) and vanish at ell = 0, where the
singlet is dark.  `dynamics.build_superoperator` builds the generator from
them and enforces their positivity, and the largest of their magnitudes is
the spectral norm |K|_2 that sizes the generation test's boundary band, so
no SVD of the 6x6 matrix is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """The two-atom / thermal-field model in units of omega.

    beta_omega = math.inf is the zero-temperature bath, by IEEE arithmetic
    alone: tanh(inf) = 1 and 1/inf = 0 give its coefficients exactly.
    """

    beta_omega: float
    omega_ell: float

    def __post_init__(self):
        if not (self.beta_omega > 0):  # inf allowed
            raise ValueError(f"beta_omega must be > 0 (or inf), got {self.beta_omega}")
        if not (math.isfinite(self.omega_ell) and self.omega_ell >= 0):
            raise ValueError(f"omega_ell must be finite and >= 0, got {self.omega_ell}")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta_omega)


@dataclass(frozen=True)
class KossakowskiCoefficients:
    """Closed-form coefficients of the block Kossakowski matrix.

    Unprimed values parametrize the same-atom block C11 = A 1 - iB eps.e3
    + C e3 e3^T; primed values the cross-atom block C12.  Units of omega.
    """

    A: float
    B: float
    C: float
    Ap: float
    Bp: float
    Cp: float


def _sinc(x: float) -> float:
    """sin(x)/x with the exact value 1 at x = 0."""
    return float(np.sinc(x / np.pi))


def kossakowski_coefficients(params: ModelParams) -> KossakowskiCoefficients:
    """Closed-form A, B, C (same-atom) and primed variants (cross-atom).

    B = 1/4pi exactly; A carries the coth(beta omega / 2) thermal
    enhancement; A + C equals the zero-frequency spectrum 1/(2 pi beta omega).
    Primed values differ by the sinc(omega ell) factor, except Cp whose
    zero-frequency part has ell -> 0 built in (sinc(0) = 1).
    """
    B = 1.0 / (4.0 * math.pi)
    A = B / math.tanh(params.beta_omega / 2.0)
    g0 = 1.0 / (TWO_PI * params.beta_omega)
    C = g0 - A
    s = _sinc(params.omega_ell)
    return KossakowskiCoefficients(A=A, B=B, C=C, Ap=A * s, Bp=B * s, Cp=g0 - A * s)


def temperature_ratio(params: ModelParams) -> float:
    """R = B/A = tanh(beta omega / 2); equals 1 at zero temperature."""
    return math.tanh(params.beta_omega / 2.0)


def kossakowski_eigenvalues(coeffs: KossakowskiCoefficients) -> np.ndarray:
    """The six eigenvalues of the Kossakowski matrix, the same at every axis.

    For the collective (s = +1) and then the relative (s = -1) channel, with
    a_s = A + s A', b_s = B + s B' and c_s = C + s C': a_s + b_s (lowering
    along the axis), a_s - b_s (raising) and a_s + c_s (dephasing).  a_+ + c_+ is
    2 g0, and a_- + c_- is zero up to rounding.
    """
    rates = []
    for s in (1.0, -1.0):
        a, b, c = coeffs.A + s * coeffs.Ap, coeffs.B + s * coeffs.Bp, coeffs.C + s * coeffs.Cp
        rates += [a + b, a - b, a + c]
    return np.array(rates)
