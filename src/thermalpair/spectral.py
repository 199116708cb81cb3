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
coefficients A, B, C, A', B', C' (`kossakowski_coefficients`, for the
`coefficients` report and the generation discriminant) and as its six
eigenvalues; the 3x3 blocks, and the independent frequency-sum
construction they are checked against, live in the test suite.

The eigenvalues (`kossakowski_eigenvalues`) are the lowering, raising
and dephasing rates of the collective and the relative channel, each a
thermal factor (A + B, A - B or 2 g0) times a geometric one (1 + S or
1 - S, S = sinc(omega ell)), so none is negative: K >= 0, and with it
complete positivity, holds by construction.  The relative ones vanish at
ell = 0, where the singlet is dark.  `dynamics.build_superoperator` builds
the generator from them (and `generation.generator_q0` its charge-0 block),
and the largest is the spectral norm |K|_2 that sizes the generation
test's boundary band, so no SVD of the 6x6 matrix is taken.  The module is
plain-Python float arithmetic, with no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
# below this beta*omega the square of the thermal factor coth(beta*omega/2),
# which scales the discriminant and |K|_2^2, is not a finite float
MIN_BETA_OMEGA = 1.5e-154


@dataclass(frozen=True)
class ModelParams:
    """The two-atom / thermal-field model in units of omega.

    beta_omega = math.inf is the zero-temperature bath, by IEEE arithmetic
    alone: tanh(inf) = 1 and 1/inf = 0 give its coefficients exactly, and
    expm1(-inf) = -1 and exp(-inf) = 0 its rates.  beta_omega below
    MIN_BETA_OMEGA is refused.
    """

    beta_omega: float
    omega_ell: float

    def __post_init__(self):
        if not (self.beta_omega >= MIN_BETA_OMEGA):  # inf allowed
            raise ValueError(f"beta_omega must be at least {MIN_BETA_OMEGA} (or inf), "
                             f"got {self.beta_omega}")
        if not (math.isfinite(self.omega_ell) and self.omega_ell >= 0):
            raise ValueError(f"omega_ell must be finite and >= 0, got {self.omega_ell}")


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
    """sin(x)/x of the exact x, which np.sinc(x / pi) rounds; 1 at x = 0."""
    return math.sin(x) / x if x != 0 else 1.0


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


# 1 - sin(x)/x = x^2 sum_{k>=1} (-1)^(k+1) x^(2k-2) / (2k+1)!, highest power
# first; below x = 1 the terms after the ninth are under 2^-60 of the sum
_ONE_MINUS_SINC_SERIES = [(-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(9, 0, -1)]


def kossakowski_eigenvalues(params: ModelParams) -> tuple:
    """K's six eigenvalues, the same at every axis, as products of nonnegative
    factors: with down = A + B = -2B / expm1(-beta_omega), up = A - B = down
    e^-beta_omega (which underflows where expm1(beta_omega) would overflow)
    and S = sinc(omega ell), the collective rates down (1 + S), up (1 + S) and
    2 g0 = 1/(pi beta_omega), then the relative ones down (1 - S), up (1 - S)
    and 0.  1 - S is its series below omega ell = 1, where the difference
    cancels, and (x - sin x)/x above, exact to x ~ 1.9 (Sterbenz).  A tuple
    of floats.
    """
    bw, x = params.beta_omega, params.omega_ell
    down = -1.0 / (TWO_PI * math.expm1(-bw))
    up = down * math.exp(-bw)
    if x >= 1.0:
        rel = (x - math.sin(x)) / x
    else:
        x2, series = x * x, 0.0
        for c in _ONE_MINUS_SINC_SERIES:  # Horner, the steps of np.polyval
            series = series * x2 + c
        rel = x2 * series
    return (down * (2.0 - rel), up * (2.0 - rel), 1.0 / (math.pi * bw),
            down * rel, up * rel, 0.0)
