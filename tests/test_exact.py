"""Exact proofs of the closed forms, in sympy: K's eigenvalues, the
generation discriminant at |-> (x) |+> and the asymptotic states; and
K's rates in floating point against 40-digit mpmath.

K's six eigenvalues as coefficient sums (`util.coefficient_rates`) are the
roots of the characteristic polynomial of the 6x6 K assembled from the 3x3
blocks of `tests/util.py`, for all six coefficients, and at the closed-form
coefficients they are the products of nonnegative factors that
`spectral.kossakowski_eigenvalues` evaluates; that function is within 4 eps
of a 40-digit reference on a grid of corners.  The general discriminant at
u = v = (1, -i, 0) (`util.uv_vectors` of the canonical state) is the closed
form that `entanglement.generation_test` returns, for all six coefficients.

For the asymptotic states, the generator is built symbolically: K's
eigenvalues from `util.coefficient_rates`, applied to symbolic
coefficients, weight the six fixed dissipators of `dynamics`, whose entries
are small dyadic rationals and convert exactly.  The coefficients follow
`kossakowski_coefficients` with R = B/A, S = sinc(omega ell) and the
zero-frequency spectrum g0: A = B/R, A' = A S, B' = B S, C = g0 - A and
C' = g0 - A S.  Each closed form of `asymptotic.asymptotic_state` is then
annihilated by M identically, which seeded float draws cannot show where
terms cancel (the ell -> 0+ crossover is such a place).

The spectrum of M is pinned from `spectral.DISSIPATORS` itself, with
symbolic rates: M splits into charge blocks, and each block's
characteristic polynomial has the factors that `spectral`'s docstring
states, with roots linear in the rates at beta = inf.
"""

import math
from itertools import product

import numpy as np
import sympy as sp

from thermalpair import spectral
from thermalpair.entanglement import canonical_state
from thermalpair.generation import generation_test
from thermalpair.spectral import KossakowskiCoefficients, ModelParams, kossakowski_eigenvalues

from util import _DISSIPATORS_KRON, coefficient_rates, kossakowski_blocks, mp_rates, uv_vectors

R, S, g0, B, p_s = sp.symbols("R S g0 B p_S", real=True)
c = sp.Symbol("c_re", real=True) + sp.I * sp.Symbol("c_im", real=True)

DISSIPATORS = [sp.Matrix(16, 16, lambda i, j, k=k: sp.Rational(_DISSIPATORS_KRON[k][i, j]))
               for k in range(len(_DISSIPATORS_KRON))]

# product basis |++>, |+->, |-+>, |-->; |T0> and |S> are the exchange pair
KET_PP, KET_MM = sp.Matrix([1, 0, 0, 0]), sp.Matrix([0, 0, 0, 1])
KET_T0 = sp.Matrix([0, 1, 1, 0]) / sp.sqrt(2)
KET_S = sp.Matrix([0, 1, -1, 0]) / sp.sqrt(2)


def generator(R, S, g0):
    """The symbolic M = sum_k lambda_k D_k over the kron-built dissipators."""
    A = B / R
    lam = coefficient_rates(KossakowskiCoefficients(
        A=A, B=B, C=g0 - A, Ap=A * S, Bp=B * S, Cp=g0 - A * S))
    return sum((lam_k * D_k for lam_k, D_k in zip(lam, DISSIPATORS)), sp.zeros(16, 16))


def vec(rho):
    """Column-major stacking, as dynamics.vec."""
    return sp.Matrix([rho[i, j] for j in range(4) for i in range(4)])


def proj(a, b):
    return a * b.H


def gibbs(R):
    """The product Gibbs state g (x) g, g = diag((1 - R)/2, (1 + R)/2)."""
    g = sp.diag((1 - R) / 2, (1 + R) / 2)
    return sp.kronecker_product(g, g)


def family(R, p_s):
    """The ell = 0 state with singlet population p_S."""
    return p_s * proj(KET_S, KET_S) + (1 - p_s) / (3 + R**2) * (
        (1 - R) ** 2 * proj(KET_PP, KET_PP) + (1 - R**2) * proj(KET_T0, KET_T0)
        + (1 + R) ** 2 * proj(KET_MM, KET_MM))


def residual(M, rho):
    return sp.simplify(M * vec(rho))


def test_gibbs_state_is_stationary_for_every_r_s_and_g0():
    assert residual(generator(R, S, g0), gibbs(R)) == sp.zeros(16, 1)


def test_zero_separation_family_is_stationary_for_every_r_and_singlet_population():
    M = generator(R, 1, g0)
    assert residual(M, family(R, p_s)) == sp.zeros(16, 1)
    # its tau = 1 - 4 p_S, which keeps p_S = (1 - tau(rho0))/4 conserved
    sigma = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
             sp.Matrix([[1, 0], [0, -1]]))
    tau = sum((family(R, p_s) * sp.kronecker_product(s, s)).trace() for s in sigma)
    assert sp.simplify(tau - (1 - 4 * p_s)) == 0


def test_singlet_ground_coherence_is_stationary_at_zero_temperature_and_separation():
    coherence = c * proj(KET_S, KET_MM)
    assert residual(generator(1, 1, 0), coherence + coherence.H) == sp.zeros(16, 1)


def test_the_mutant_with_minus_r_is_not_stationary():
    # nonzero at one rational point, so not an identity that simplify missed
    point = {R: sp.Rational(1, 2), S: sp.Rational(1, 3), g0: sp.Rational(1, 7), B: 1,
             p_s: sp.Rational(1, 5)}
    assert residual(generator(R, S, g0), gibbs(-R)).subs(point) != sp.zeros(16, 1)
    assert residual(generator(R, 1, g0), family(-R, p_s)).subs(point) != sp.zeros(16, 1)


# ------------------------------------------------ K and the discriminant

A, C, Ap, Bp, Cp = sp.symbols("A C A' B' C'", real=True)
x = sp.Symbol("x")  # as charpoly's generator, with no assumptions
COEFFS = KossakowskiCoefficients(A=A, B=B, C=C, Ap=Ap, Bp=Bp, Cp=Cp)


def exact(array):
    """A numpy array of floats and symbols as an exact sympy matrix."""
    return sp.Matrix(array).applyfunc(sp.nsimplify)


def test_kossakowski_matrix_has_the_closed_form_eigenvalues():
    c11, c12 = (exact(block) for block in kossakowski_blocks(COEFFS))
    K = sp.Matrix(sp.BlockMatrix([[c11, c12], [c12, c11]]))
    lam = exact(coefficient_rates(COEFFS))
    assert sp.expand(K.charpoly(x).as_expr() - sp.prod([x - l for l in lam])) == 0


def test_factored_rates_are_the_coefficient_sums():
    # at kossakowski_coefficients' closed forms (beta*omega = b, B = 1/4pi,
    # A = B coth(b/2), g0 = 1/(2 pi b)) the sums cancel into products of
    # nonnegative factors: down = A + B = 2B/(1 - e^-b), up = A - B = down
    # e^-b, 2 g0, and 1 +- S
    b = sp.Symbol("b", positive=True)
    B_, g0_ = 1 / (4 * sp.pi), 1 / (2 * sp.pi * b)
    A_ = B_ / sp.tanh(b / 2)
    sums = exact(coefficient_rates(KossakowskiCoefficients(
        A=A_, B=B_, C=g0_ - A_, Ap=A_ * S, Bp=B_ * S, Cp=g0_ - A_ * S)))
    down = 2 * B_ / (1 - sp.exp(-b))
    up = down * sp.exp(-b)
    factored = [down * (1 + S), up * (1 + S), 1 / (sp.pi * b), down * (1 - S), up * (1 - S), 0]
    for k, (total, product_form) in enumerate(zip(sums, factored)):
        assert sp.simplify((total - product_form).rewrite(sp.exp)) == 0, k


# beta*omega from the CLI's floor to zero temperature, past expm1's overflow
# at 709.78; omega*ell from 0 through the series' range, both sides of its
# switch at 1, to the first zero of S and beyond
RATE_GRID_BETA_OMEGA = (1.5e-154, 1e-20, 1e-6, 1e-3, 0.05, 1.0, 24.0, 30.0, 37.7, 50.0, 700.0,
                        709.8, 1e3, 1e300, math.inf)
RATE_GRID_OMEGA_ELL = (0.0, 1e-300, 1e-8, 1e-6, 1e-3, 0.3, 0.999, 1.0, 1.001, 1.5, 3.0, math.pi,
                       4.4934, 12.0)


def test_rates_are_within_4_eps_of_40_digit_mpmath():
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for bw, wl in product(RATE_GRID_BETA_OMEGA, RATE_GRID_OMEGA_ELL):
        params = ModelParams(beta_omega=bw, omega_ell=wl)
        for k, (got, ref) in enumerate(zip(kossakowski_eigenvalues(params), mp_rates(params))):
            if ref >= tiny:
                assert abs(got - ref) <= 4 * eps * ref, (bw, wl, k, got, ref)
            else:  # below the normal range the rate underflows, never below 0
                assert 0.0 <= got < tiny, (bw, wl, k, got, ref)


def test_general_discriminant_at_the_canonical_state_is_the_closed_form():
    # |<u| Re C12 |v>|^2 - <u|C11|u> <v|C11^T|v>, as util.generation_discriminant
    c11, c12 = (exact(block) for block in kossakowski_blocks(COEFFS))
    u, v = (exact(w) for w in uv_vectors(canonical_state()))
    general = (sp.Abs((u.H * c12.applyfunc(sp.re) * v)[0]) ** 2
               - sp.re((u.H * c11 * u)[0]) * sp.re((v.H * c11.T * v)[0]))
    closed = (2 * Ap) ** 2 - (2 * A - 2 * B) * (2 * A + 2 * B)
    assert sp.expand(general - closed) == 0
    # generation_test's margin is a quadratic form in the six coefficients,
    # so agreeing with the closed form on {1, 2, 3}^6, where every float
    # operation is exact, makes it the same polynomial
    for point in product((1.0, 2.0, 3.0), repeat=6):
        margin, _ = generation_test(KossakowskiCoefficients(*point))
        assert margin == float(closed.subs(dict(zip((A, B, C, Ap, Bp, Cp), point)))), point


# ------------------------------------------------ the generator's spectrum

# the charge blocks of M in the vec basis, |a><b| at a + 4b: Q0, the corners
# |++><--| and |--><++|, and the two blocks of charge +-1
CHARGE_BLOCKS = ((0, 5, 6, 9, 10, 15), (3,), (12,), (1, 2, 7, 11), (4, 8, 13, 14))
Q0 = CHARGE_BLOCKS[0]


def test_generator_spectrum_in_closed_form():
    # spectral.DISSIPATORS weighted by symbolic rates: the collective down,
    # up and dephasing rates d, u, g and the relative down and up rates a, b
    # (the relative dephasing rate is 0); the table's coefficients are
    # dyadic, so each converts exactly
    d, u, g, a, b = rates = sp.symbols("d u g a b", positive=True)
    M = sp.zeros(16, 16)
    for coeffs, entries in spectral.DISSIPATORS:
        entry = sum(rate * sp.Rational(c) for rate, c in zip((*rates, 0), coeffs))
        for i, j in entries:
            M[i, j] += entry
    block_of = {i: k for k, block in enumerate(CHARGE_BLOCKS) for i in block}
    assert sorted(block_of) == list(range(16))
    crossing = [(i, j) for i in range(16) for j in range(16)
                if M[i, j] != 0 and block_of[i] != block_of[j]]
    assert not crossing, crossing

    def charpoly(block):
        return M.extract(list(block), list(block)).charpoly(x).as_expr()

    # each corner decays alone
    assert M[3, 3] == M[12, 12] == -(a + b + d + u + 4 * g)
    # the two 4-blocks share one characteristic polynomial, two quadratics
    # (written out: sympy's multivariate factorization takes minutes under
    # some hash seeds)
    four = charpoly(CHARGE_BLOCKS[3])
    assert sp.expand(four - charpoly(CHARGE_BLOCKS[4])) == 0
    quadratics = (
        x ** 2 + (3 * a + 3 * b + d + u + 2 * g) * x + 2 * a ** 2 + 2 * b ** 2 + a * b
        + a * (d + 2 * u) + b * (2 * d + u) + g * (3 * a + 3 * b + d + u) + g ** 2 + d * u,
        x ** 2 + (a + b + 3 * d + 3 * u + 2 * g) * x + 2 * d ** 2 + 2 * u ** 2 + d * u
        + d * (a + 2 * b) + u * (2 * a + b) + g * (a + b + 3 * d + 3 * u) + g ** 2 + a * b)
    assert sp.expand(four - quadratics[0] * quadratics[1]) == 0
    # Q0: the four Dicke populations' chain, with the roots 0 and a cubic's,
    # and the |T0><S| coherence and its mirror, decaying at a + b + d + u
    cubic, rest = sp.div(charpoly(Q0), x * (x + a + b + d + u) ** 2, x)
    assert rest == 0 and sp.degree(cubic, x) == 3
    # ell = 0 (a = b = 0): the cubic is x (x^2 + 4(d + u) x + 4(d^2 + du + u^2)),
    # whose roots are 0 and -2(d + u) +- 2 sqrt(du)
    at_ell_0 = x * (x ** 2 + 4 * (d + u) * x + 4 * (d ** 2 + d * u + u ** 2))
    assert sp.expand(cubic.subs({a: 0, b: 0}) - at_ell_0) == 0
    roots = (0, -2 * (d + u) + 2 * sp.sqrt(d * u), -2 * (d + u) - 2 * sp.sqrt(d * u))
    assert sp.expand(sp.prod([x - r for r in roots]) - at_ell_0) == 0
    # beta = inf (u = b = 0): every root of Q0 is linear in the rates
    roots = (0, -2 * a, -2 * d, -(a + d), -(a + d), -2 * (a + d))
    assert sp.expand(charpoly(Q0).subs({u: 0, b: 0}) - sp.prod([x - r for r in roots])) == 0
