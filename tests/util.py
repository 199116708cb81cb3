"""Shared random generators for the property tests (all explicitly seeded)."""

import numpy as np

from thermalpair import ModelParams, ProductState, pauli_op


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
