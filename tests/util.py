"""Shared random generators for the property tests (all explicitly seeded)
and closed-form references the library's numerical routes are checked against."""

from dataclasses import dataclass

import numpy as np

from thermalpair import ModelParams, ProductState, pauli_op
from thermalpair.dynamics import SIGMA
from thermalpair.spectral import _unit_vector


def random_density(rng, dim=4):
    """Full-rank random state from a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_product_state(rng):
    return ProductState(random_bloch(rng), random_bloch(rng))


def random_separable_density(rng, terms=5):
    """Convex mixture of random product states (separable by construction)."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        rho += w * random_product_state(rng).density()
    return rho


def random_unit_complex(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    """Haar-ish proper rotation (det +1) from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_params(rng, allow_zero_temperature=True, allow_zero_ell=True):
    omega = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
    beta_omega = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    beta = beta_omega / omega
    if allow_zero_temperature and rng.random() < 0.1:
        beta = np.inf
    ell = float(rng.uniform(0.0, 12.0)) / omega
    if allow_zero_ell and rng.random() < 0.1:
        ell = 0.0
    return ModelParams(omega=omega, beta=beta, ell=ell, n=random_bloch(rng))


def dissipator_reference(K, rho):
    """d rho / dt as the explicit sum over the four blocks of K:

    (1/2) sum_{ab,ij} C^(ab)_ij (2 s_j^b rho s_i^a - s_i^a s_j^b rho - rho s_i^a s_j^b),

    a route independent of the basis tensor behind build_superoperator.
    """
    out = np.zeros((4, 4), dtype=complex)
    for a, b, c in ((1, 1, K.c11), (2, 2, K.c22), (1, 2, K.c12), (2, 1, K.c21)):
        for i in range(3):
            si = pauli_op(a, i + 1)
            for j in range(3):
                sj = pauli_op(b, j + 1)
                sij = si @ sj
                out += 0.5 * c[i, j] * (2.0 * sj @ rho @ si - sij @ rho - rho @ sij)
    return out


@dataclass(frozen=True)
class EquilibriumFamily:
    """Coefficients (a, b, c) of the ell = 0 equilibrium state."""

    a: float
    b: float
    c: float
    R: float
    tau: float


def equilibrium_coefficients(R: float, tau: float) -> EquilibriumFamily:
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    if not (-3.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [-3, 1], got {tau}")
    a = R * (tau + 3.0) / (3.0 + R * R)
    # b = (tau - R^2)/(3 + R^2): fixed by linearity of the asymptotic map in
    # the initial state together with conservation of tau (3b + c = tau);
    # also the unique choice reproducing the singlet at tau = -3 and the
    # ground state at (R, tau) = (1, 1).  Checked against the stationary
    # projector in test_asymptotic.
    b = (tau - R * R) / (3.0 + R * R)
    return EquilibriumFamily(a=a, b=b, c=R * a, R=R, tau=tau)


def equilibrium_closed_form(R: float, tau: float, n=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Closed-form ell = 0 equilibrium state rho_inf(R, tau).

    rho_inf = (1/4)[1 - a n.(sigma (x) 1 + 1 (x) sigma)
                      + sum_ij (b d_ij + c n_i n_j) sigma_i (x) sigma_j]
    """
    fam = equilibrium_coefficients(R, tau)
    n = _unit_vector(n)
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho -= fam.a * n[i] * (pauli_op(1, i + 1) + pauli_op(2, i + 1))
        for j in range(3):
            coeff = fam.b * (i == j) + fam.c * n[i] * n[j]
            rho += coeff * np.kron(SIGMA[i], SIGMA[j])
    return rho / 4.0


def asymptotic_concurrence(R: float, tau: float) -> float:
    """Concurrence of the ell = 0 equilibrium state, linear in tau:
    max{0, (3 - R^2)/(2(3 + R^2)) ((5R^2 - 3)/(3 - R^2) - tau)}.

    Equals 1 at tau = -3 (singlet) for any R and 1/2 at (R, tau) = (1, -1).
    """
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    if not (-3.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [-3, 1], got {tau}")
    r2 = R * R
    val = (3.0 - r2) / (2.0 * (3.0 + r2)) * ((5.0 * r2 - 3.0) / (3.0 - r2) - tau)
    return max(val, 0.0)
