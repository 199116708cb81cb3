"""Exact proofs of the closed-form asymptotic states, in sympy.

The generator is built symbolically from the library's own parts: K's
eigenvalues from `spectral.kossakowski_eigenvalues`, applied to symbolic
coefficients, weight the six fixed dissipators of `dynamics`, whose entries
are small dyadic rationals and convert exactly.  The coefficients follow
`kossakowski_coefficients` with R = B/A, S = sinc(omega ell) and the
zero-frequency spectrum g0: A = B/R, A' = A S, B' = B S, C = g0 - A and
C' = g0 - A S.  Each closed form of `asymptotic.asymptotic_state` is then
annihilated by M identically, which seeded float draws cannot show where
terms cancel (the ell -> 0+ crossover is such a place).
"""

import sympy as sp

from thermalpair.dynamics import _DISSIPATORS
from thermalpair.spectral import KossakowskiCoefficients, kossakowski_eigenvalues

R, S, g0, B, p_s = sp.symbols("R S g0 B p_S", real=True)
c = sp.Symbol("c_re", real=True) + sp.I * sp.Symbol("c_im", real=True)

DISSIPATORS = [sp.Matrix(16, 16, lambda i, j, k=k: sp.Rational(_DISSIPATORS[k][i, j]))
               for k in range(len(_DISSIPATORS))]

# product basis |++>, |+->, |-+>, |-->; |T0> and |S> are the exchange pair
KET_PP, KET_MM = sp.Matrix([1, 0, 0, 0]), sp.Matrix([0, 0, 0, 1])
KET_T0 = sp.Matrix([0, 1, 1, 0]) / sp.sqrt(2)
KET_S = sp.Matrix([0, 1, -1, 0]) / sp.sqrt(2)


def generator(R, S, g0):
    """The symbolic M = sum_k lambda_k _DISSIPATORS[k]."""
    A = B / R
    lam = kossakowski_eigenvalues(KossakowskiCoefficients(
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
