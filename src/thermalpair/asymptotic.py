"""Stationary states of the dissipative semigroup, in closed form.

In the basis (|+>, |->) with R = tanh(beta*omega/2) and the single-atom
Gibbs state g = diag((1 - R)/2, (1 + R)/2):
  - for ell > 0 the bath is KMS and the unique stationary state is the
    product Gibbs state g (x) g;
  - at ell = 0 the singlet |S> is dark and its population
    p_S = (1 - tau)/4 is conserved, so rho0 relaxes to the member
    p_S |S><S| + (1 - p_S)/(3 + R^2) [(1 - R)^2 |++><++| + (1 - R^2) |T0><T0|
    + (1 + R)^2 |--><--|] of the tau-labelled family;
  - at beta = inf and ell = 0 the dissipator is the collective lowering
    alone, which annihilates |S> and |-->, so c = <S|rho0|--> is conserved
    too and c |S><--| + h.c. joins the state.
M is the dissipator alone and is read only by the convergence guard.  The
SVD stationary projector (Albert & Jiang, PRA 89, 022118, 2014) these
forms are checked against lives in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics
from .generation import ConvergenceError
from .spectral import ModelParams, temperature_ratio


# asymptotic_state's guard: |M vec(rho_inf)|_max at most _RESIDUAL_REL_TOL |M|_1,
# and at ell = 0 tau conserved to _TAU_TOL
_RESIDUAL_REL_TOL = 1e-12
_TAU_TOL = 1e-12


def asymptotic_state(M: np.ndarray, rho0: np.ndarray,
                     params: ModelParams) -> tuple[np.ndarray, int]:
    """(rho_inf, stationary dimension) of rho0 under the dissipator M.

    rho_inf is the closed form of the module docstring, and the dimension
    is that of M's null space: 1 for ell > 0, 2 at ell = 0, 4 at beta = inf
    and ell = 0, where the coherence c = <S|rho0|--> joins the state.  The
    state must satisfy |M vec(rho_inf)|_max <= _RESIDUAL_REL_TOL |M|_1 and,
    at ell = 0, keep tau(rho0) to _TAU_TOL; either failure raises
    ConvergenceError.  rho0 is a valid density matrix array, as for
    dynamics.evolve.
    """
    R = temperature_ratio(params)
    if params.omega_ell > 0:
        g = np.array([1.0 - R, 1.0 + R]) / 2.0
        rho_inf, dim = np.diag(np.kron(g, g)).astype(complex), 1
    else:
        tau0 = dynamics.tau(rho0)
        p_s = (1.0 - tau0) / 4.0
        t = (1.0 - p_s) / (3.0 + R * R)
        t0 = t * (1.0 - R * R)
        rho_inf = np.diag([t * (1.0 - R) ** 2, 0.0, 0.0, t * (1.0 + R) ** 2]).astype(complex)
        rho_inf[1:3, 1:3] = np.array([[p_s + t0, t0 - p_s], [t0 - p_s, p_s + t0]]) / 2.0
        dim = 2
        if math.isinf(params.beta_omega):
            singlet = dynamics.singlet_ket()
            c = singlet.conj() @ rho0[:, 3]
            rho_inf[:, 3] += c * singlet
            rho_inf[3, :] += np.conj(c) * singlet.conj()
            dim = 4

    residual = np.abs(M @ dynamics.vec(rho_inf)).max()
    scale = np.abs(M).sum(axis=0).max()
    if not residual <= _RESIDUAL_REL_TOL * scale:
        raise ConvergenceError(f"the predicted state is not stationary: residual "
                               f"{residual:.3e} exceeds {_RESIDUAL_REL_TOL:.0e} |M|_1")
    if params.omega_ell == 0 and not abs(dynamics.tau(rho_inf) - tau0) <= _TAU_TOL:
        raise ConvergenceError(f"the predicted state has tau {dynamics.tau(rho_inf)!r}, "
                               f"the initial state {tau0!r}")
    return rho_inf, dim


def threshold_tau(R: float) -> float:
    """Largest tau with asymptotically entangled equilibrium: (5R^2-3)/(3-R^2)."""
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    return (5.0 * R * R - 3.0) / (3.0 - R * R)
