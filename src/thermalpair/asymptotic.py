"""Stationary states of the dissipative semigroup and their entanglement.

At ell = 0 the generator is collective and conserves tau, leaving a
one-parameter family of equilibria rho_inf(R, tau); its concurrence is
max{0, (3 - R^2)/(2(3 + R^2)) ((5R^2 - 3)/(3 - R^2) - tau)}, positive for
tau below the threshold (5R^2 - 3)/(3 - R^2).  For ell > 0 the stationary
state is unique and found from the numerical null space of the 16x16
generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .spectral import ModelParams, temperature_ratio, _unit_vector


class ConvergenceError(RuntimeError):
    """Long-time evolution did not reach the predicted stationary state."""


# |Re eigenvalue| below this fraction of the largest counts as zero in spectral_gap
_GAP_REL_TOL = 1e-10

# the convergence check of asymptotic_state evolves to T = _HORIZON / gap
_HORIZON = 200.0


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


def stationary_basis(M: np.ndarray, tol: float = 1e-10) -> list:
    """Orthonormal basis of the numerical null space, devectorized to 4x4.

    Singular values below tol * sigma_max count as zero.  The dimension
    exposes the degeneracy structure: 2 for the ell = 0 collective
    generator at finite temperature, 1 for ell > 0.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (16, 16):
        raise ValueError(f"expected a 16x16 generator, got shape {M.shape}")
    _, svals, vh = np.linalg.svd(M)
    null_rows = vh[svals < tol * svals[0]] if svals[0] > 0 else vh
    if null_rows.shape[0] == 0:
        raise RuntimeError("empty null space: generator is not trace preserving")
    return [dynamics.unvec(row.conj()) for row in null_rows]


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
    # ground state at (R, tau) = (1, 1).  Verified against the null-space
    # solver in the tests.
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
        si1 = dynamics.pauli_op(1, i + 1)
        si2 = dynamics.pauli_op(2, i + 1)
        rho -= fam.a * n[i] * (si1 + si2)
        for j in range(3):
            coeff = fam.b * (i == j) + fam.c * n[i] * n[j]
            rho += coeff * np.kron(dynamics.SIGMA[i], dynamics.SIGMA[j])
    return rho / 4.0


def asymptotic_state(M: np.ndarray, rho0: np.ndarray, params: ModelParams,
                     check: bool = True, conv_tol: float = 1e-8) -> np.ndarray:
    """Predicted long-time state of rho0 under the generator M.

    ell = 0: the tau-conserving member of the closed-form family.
    ell > 0: the unique trace-one null-space element.

    With check=True the prediction is compared against the actual
    evolution at T = _HORIZON / spectral gap; disagreement beyond conv_tol
    in trace norm raises ConvergenceError.  (At zero temperature and
    ell = 0 the stationary manifold is larger than the tau family, since
    singlet/ground coherences do not decay, so the check can fail
    legitimately for initial states carrying them.)
    """
    rho0 = dynamics.validate_density_matrix(rho0)
    if params.ell == 0:
        rho_inf = equilibrium_closed_form(temperature_ratio(params),
                                          dynamics.tau(rho0), params.n)
    else:
        basis = stationary_basis(M)
        if len(basis) != 1:
            raise ConvergenceError(
                f"stationary manifold has dimension {len(basis)}, expected 1 for ell > 0")
        x = basis[0]
        tr = np.trace(x)
        if abs(tr) < 1e-12:
            raise ConvergenceError("traceless null-space element cannot be normalized")
        rho_inf = x / tr
        rho_inf = 0.5 * (rho_inf + rho_inf.conj().T)

    if check:
        T = _HORIZON / spectral_gap(M)
        rho_T = dynamics.evolve(M, rho0, T)
        dist = dynamics.trace_norm(rho_T - rho_inf)
        if dist > conv_tol:
            raise ConvergenceError(
                f"evolution at T={T:.3g} is {dist:.3e} (trace norm) from the predicted state")
    return rho_inf


def asymptotic_concurrence(R: float, tau: float) -> float:
    """Concurrence of the ell = 0 equilibrium state, linear in tau.

    Equals 1 at tau = -3 (singlet) for any R and 1/2 at (R, tau) = (1, -1).
    """
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    if not (-3.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [-3, 1], got {tau}")
    r2 = R * R
    val = (3.0 - r2) / (2.0 * (3.0 + r2)) * ((5.0 * r2 - 3.0) / (3.0 - r2) - tau)
    return max(val, 0.0)


def threshold_tau(R: float) -> float:
    """Largest tau with asymptotically entangled equilibrium: (5R^2-3)/(3-R^2)."""
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    return (5.0 * R * R - 3.0) / (3.0 - R * R)
