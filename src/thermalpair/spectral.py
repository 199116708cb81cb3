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
library works at e3 (`entanglement.local_frame` gives the frame, and the
CLI turns states into it and back).  The coefficient matrix has the 2x2
block structure [[C11, C12], [C12, C11]] with 3x3 Hermitian blocks
C11 = A 1 - iB eps.e3 + C e3 e3^T and C12 its primed analogue; it must be
positive semidefinite for the generated semigroup to be completely
positive.  The package holds K only as the six
coefficients A, B, C, A', B', C' (`kossakowski_coefficients`, for the
`coefficients` report and the generation discriminant) and as its six
eigenvalues; the 3x3 blocks, and the independent frequency-sum
construction they are checked against, live in the test suite.

The eigenvalues (`kossakowski_eigenvalues`) are the lowering, raising
and dephasing rates of the collective and the relative channel, each a
thermal factor (A + B, A - B or 2 g0) times a geometric one (1 + S or
1 - S, S = sinc(omega ell)), so none is negative: K >= 0, and with it
complete positivity, holds by construction.  The relative ones vanish at
ell = 0, where the singlet is dark.  The largest is the spectral norm
|K|_2 that sizes the generation test's boundary band, so no SVD of the
6x6 matrix is taken.

The module also owns the generator, the one form of it in the package:
the rates weight six fixed dissipators at e3, held as one table of their
64 nonzero entries (`DISSIPATORS`), and `generator` sums each entry over
the six in order.  `dynamics.build_superoperator` fills the dense 16x16 M
from those entries and `asymptotic`'s convergence guard reads them as
they are, so the guard checks the M that is integrated, bit for bit.  The
phase diagram's oracle reads the block on the charge-0 sector,
`generator_q0`, written out by hand because the sweep forms it once per
grid point; it equals the table's rows there.  The module is
plain-Python float arithmetic, with no numpy.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
# below this beta*omega the square of the thermal factor coth(beta*omega/2),
# which scales the discriminant and |K|_2^2, is not a finite float
MIN_BETA_OMEGA = 1.5e-154


class ModelParams:
    """The two-atom / thermal-field model in units of omega.

    beta_omega = math.inf is the zero-temperature bath, by IEEE arithmetic
    alone: tanh(inf) = 1 and 1/inf = 0 give its coefficients exactly, and
    expm1(-inf) = -1 and exp(-inf) = 0 its rates.  beta_omega below
    MIN_BETA_OMEGA is refused.
    """

    __slots__ = ("beta_omega", "omega_ell")

    def __init__(self, beta_omega: float, omega_ell: float):
        if not (beta_omega >= MIN_BETA_OMEGA):  # inf allowed
            raise ValueError(f"beta_omega must be at least {MIN_BETA_OMEGA} (or inf), "
                             f"got {beta_omega}")
        if not (math.isfinite(omega_ell) and omega_ell >= 0):
            raise ValueError(f"omega_ell must be finite and >= 0, got {omega_ell}")
        self.beta_omega = beta_omega
        self.omega_ell = omega_ell


class KossakowskiCoefficients:
    """Closed-form coefficients of the block Kossakowski matrix.

    Unprimed values parametrize the same-atom block C11 = A 1 - iB eps.e3
    + C e3 e3^T; primed values the cross-atom block C12.  Units of omega.
    """

    __slots__ = ("A", "B", "C", "Ap", "Bp", "Cp")

    def __init__(self, A: float, B: float, C: float, Ap: float, Bp: float, Cp: float):
        self.A, self.B, self.C = A, B, C
        self.Ap, self.Bp, self.Cp = Ap, Bp, Cp


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


# the generator at n = e3 is sum_k lambda_k D_k, lambda from
# kossakowski_eigenvalues: for s = +1 (collective), then s = -1 (relative),
# D[L] with L = sigma- (x) 1 + s 1 (x) sigma-, D[L^dag] and (1/2) D[Z] with
# Z = sigma3 (x) 1 + s 1 (x) sigma3, where D[L] rho = L rho L^dag -
# (1/2){L^dag L, rho}.  Each line holds the coefficients (D_0, .., D_5)
# that a group of their 64 nonzero entries shares, then the entries as
# row,column in the vec basis, |a><b| at a + 4b (one group takes two
# lines).  Text parsed at import, not a nested tuple literal: the
# literal's 64 pairs took 0.5 MB to compile from source, against 0.3 MB,
# and so raised a phase diagram's peak RSS by 0.12 MB
_DISSIPATOR_TABLE = """
  -2    0    0   -2    0    0 | 0,0
   0    1    0    0    1    0 | 0,5 0,10 1,11 2,7 4,14 5,15 8,13 10,15
   0    1    0    0   -1    0 | 0,6 0,9 1,7 2,11 4,13 6,15 8,14 9,15
-1.5 -0.5   -1 -1.5 -0.5   -1 | 1,1 2,2 4,4 8,8
-0.5 -0.5    0  0.5  0.5    0 | 1,2 2,1 4,8 5,6 5,9 6,5 6,10 7,11
-0.5 -0.5    0  0.5  0.5    0 | 8,4 9,5 9,10 10,6 10,9 11,7 13,14 14,13
  -1   -1   -4   -1   -1    0 | 3,3 12,12
   1    0    0    1    0    0 | 5,0 7,2 10,0 11,1 13,8 14,4 15,5 15,10
  -1   -1    0   -1   -1    0 | 5,5 10,10
   1    0    0   -1    0    0 | 6,0 7,1 9,0 11,2 13,4 14,8 15,6 15,9
  -1   -1    0   -1   -1   -4 | 6,6 9,9
-0.5 -1.5   -1 -0.5 -1.5   -1 | 7,7 11,11 13,13 14,14
   0   -2    0    0   -2    0 | 15,15
"""
# ((coefficients), ((row, column), ..)) of each line of the table
DISSIPATORS = tuple((tuple(map(float, coeffs.split())),
                     tuple(tuple(map(int, entry.split(","))) for entry in entries.split()))
                    for coeffs, entries in (line.split("|")
                                            for line in _DISSIPATOR_TABLE.strip().splitlines()))


def generator(params: ModelParams) -> list:
    """(row, column, entry) of the 64 nonzero entries of M = sum_k lambda_k
    D_k, each summed over k in order."""
    rates = kossakowski_eigenvalues(params)
    return [(i, j, sum(rate * c for rate, c in zip(rates, coeffs)))
            for coeffs, entries in DISSIPATORS for i, j in entries]


def generator_q0(params: ModelParams) -> list:
    """The rows of the generator's block on the charge-0 sector Q0, the vec
    indices 0, 5, 6, 9, 10, 15 of |++><++|, |+-><+-|, |-+><+-|, |+-><-+|,
    |-+><-+| and |--><--|, which every dissipator maps into itself: from the
    collective rates d, u and the relative ones a, b, each entry sums its
    rates' terms in their order in `generator`, so the rows are its entries
    there.  The dephasing rates do not enter: the collective one acts as 0
    on Q0, and the relative one is 0."""
    d, u, _, a, b, _ = kossakowski_eigenvalues(params)
    loss = ((-d - u) - a) - b  # the decay of |+-> and |-+>
    half = ((-0.5 * d - 0.5 * u) + 0.5 * a) + 0.5 * b
    return [[-2.0 * d - 2.0 * a, u + b, u - b, u - b, u + b, 0.0],
            [d + a, loss, half, half, 0.0, u + b],
            [d - a, half, loss, 0.0, half, u - b],
            [d - a, half, 0.0, loss, half, u - b],
            [d + a, 0.0, half, half, loss, u + b],
            [0.0, d + a, d - a, d - a, d + a, -2.0 * u - 2.0 * b]]
