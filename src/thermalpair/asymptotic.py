"""Stationary states of the dissipative semigroup.

Every asymptotic state comes from one projector onto the null space of the
16x16 generator M.  With R the right null vectors (stationary states) and L
the left ones (conserved quantities), P = R (L^dag R)^{-1} L^dag is the
projector that commutes with the semigroup, so rho_inf = unvec(P vec(rho0))
(Albert & Jiang, PRA 89, 022118, 2014).  At ell = 0 the conserved tau
selects a member of the tau-labelled equilibrium family, and at zero
temperature the conserved singlet/ground coherences survive as well; for
ell > 0 the null space is one-dimensional and the state is unique.  M is
the dissipator alone; with the free Hamiltonian, P is masked (`_AT_REST`).
"""

from __future__ import annotations

import numpy as np

from . import dynamics
from .spectral import ModelParams


class ConvergenceError(RuntimeError):
    """Long-time evolution did not reach the predicted stationary state."""


# |Re eigenvalue| below this fraction of the largest counts as zero in spectral_gap
_GAP_REL_TOL = 1e-10

# singular values of M below this fraction of the largest span its null space
_NULLSPACE_REL_TOL = 1e-10

# the convergence check of asymptotic_state evolves to T = _HORIZON / gap and
# raises ConvergenceError beyond _CONV_TOL in trace norm from the prediction
_HORIZON = 200.0
_CONV_TOL = 1e-8

# P's mask for M - i[H_S, .], which turns |a><b| (entry a + 4b of vec) unless
# m_a = m_b; M has no non-decaying mode outside its null space
_AT_REST = np.array([1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1], dtype=float)


def spectral_gap(M: np.ndarray) -> float:
    """Smallest nonzero |Re eigenvalue| of the generator (relaxation rate)."""
    re = np.abs(np.linalg.eigvals(M).real)
    scale = re.max()
    if scale == 0:
        raise ValueError("generator has no decaying modes")
    nonzero = re[re > _GAP_REL_TOL * scale]
    if nonzero.size == 0:
        raise ValueError("generator has no decaying modes")
    return float(nonzero.min())


def stationary_projector(M: np.ndarray) -> np.ndarray:
    """P = R (L^dag R)^{-1} L^dag from one SVD M = U diag(s) V^dag.

    The right null vectors R are the conjugated rows of V^dag, and the left
    null vectors L the matching columns of U, whose singular values are at
    most _NULLSPACE_REL_TOL * s_max.  The rank of P (its trace) is the
    dimension of the stationary manifold.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (16, 16):
        raise ValueError(f"expected a 16x16 generator, got shape {M.shape}")
    u, svals, vh = np.linalg.svd(M)
    null = svals <= _NULLSPACE_REL_TOL * svals[0]
    if not null.any():
        raise ValueError("empty null space: generator is not trace preserving")
    R = vh[null].conj().T
    Ldag = u[:, null].conj().T
    return R @ np.linalg.solve(Ldag @ R, Ldag)


def asymptotic_state(M: np.ndarray, rho0: np.ndarray, params: ModelParams,
                     check: bool = True, include_hs: bool = False) -> tuple[np.ndarray, int]:
    """(rho_inf, stationary dimension) of rho0 under the generator M.

    rho_inf = unvec(P vec(rho0)) with P the stationary projector, masked by
    _AT_REST with include_hs.  For ell > 0 a null space of dimension other
    than 1 raises ConvergenceError.  With check=True the prediction is
    compared against the evolution under M at T = _HORIZON / spectral gap;
    disagreement beyond _CONV_TOL in trace norm raises ConvergenceError, as
    with include_hs at beta = inf and ell = 0 for a state that carries the
    singlet/ground coherences, which the Hamiltonian turns forever.
    """
    rho0 = dynamics.validate_density_matrix(rho0)
    P = stationary_projector(M)
    if include_hs:
        P = P * _AT_REST
    dim = round(np.trace(P).real)
    if params.ell > 0 and dim != 1:
        raise ConvergenceError(
            f"stationary manifold has dimension {dim}, expected 1 for ell > 0")
    rho_inf = dynamics.unvec(P @ dynamics.vec(rho0))
    rho_inf = rho_inf / np.trace(rho_inf)
    rho_inf = 0.5 * (rho_inf + rho_inf.conj().T)

    if check:
        T = _HORIZON / spectral_gap(M)
        rho_T = dynamics.evolve(M, rho0, T)
        dist = dynamics.trace_norm(rho_T - rho_inf)
        if dist > _CONV_TOL:
            raise ConvergenceError(
                f"evolution at T={T:.3g} is {dist:.3e} (trace norm) from the predicted state")
    return rho_inf, dim


def threshold_tau(R: float) -> float:
    """Largest tau with asymptotically entangled equilibrium: (5R^2-3)/(3-R^2)."""
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    return (5.0 * R * R - 3.0) / (3.0 - R * R)
