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
The convergence guard reads M, the dissipator alone, as the 64 nonzero
entries of `spectral.generator`, from which `dynamics` also fills the
dense M it evolves with, so the guard checks that same M.  States are
4x4 nested lists and the module is plain-Python arithmetic, with no
numpy, so the CLI's `asymptotic` report loads numpy only for a matrix
initial state, which the config parser validates with it, and for the
concurrence of the state at beta = inf and ell = 0 with c != 0, the one
limit that is not an X-state.  The SVD stationary projector (Albert &
Jiang, PRA 89, 022118, 2014) these forms are checked against lives in
the test suite.
"""

from __future__ import annotations

import math

from .generation import ConvergenceError
from .spectral import ModelParams, generator, temperature_ratio


# asymptotic_state's guard: |M vec(rho_inf)|_max at most _RESIDUAL_REL_TOL |M|_1,
# and at ell = 0 tau conserved to _TAU_TOL
_RESIDUAL_REL_TOL = 1e-12
_TAU_TOL = 1e-12


def tau(rho) -> float:
    """Total spin correlator sum_i <sigma_i (x) sigma_i>, in [-3, 1], of a
    4x4 nested list or array.

    Conserved by the ell = 0 (collective) generator; labels the
    one-parameter family of its stationary states.  sum_i sigma_i (x) sigma_i
    = 2 SWAP - 1, so tau = (r00 + r33) - (r11 + r22) + 2 Re(r12 + r21).
    """
    return float(((rho[0][0] + rho[3][3]) - (rho[1][1] + rho[2][2])
                  + 2.0 * (rho[1][2] + rho[2][1])).real)


def asymptotic_state(params: ModelParams, rho0: list) -> tuple[list, int]:
    """(rho_inf, stationary dimension) of rho0 under the dissipator at params.

    rho_inf is the closed form of the module docstring, and the dimension
    is that of M's null space: 1 for ell > 0, 2 at ell = 0, 4 at beta = inf
    and ell = 0, where the coherence c = <S|rho0|--> joins the state as its
    entries c/sqrt(2) = (r13 - r23)/2 and their mirror images.  The state
    must satisfy |M vec(rho_inf)|_max <= _RESIDUAL_REL_TOL |M|_1 and, at
    ell = 0, keep tau(rho0) to _TAU_TOL; either failure raises
    ConvergenceError.  rho0 is a valid density matrix as a 4x4 nested list
    of complex numbers, and so is rho_inf.
    """
    R = temperature_ratio(params)
    if params.omega_ell > 0:
        g0, g1 = (1.0 - R) / 2.0, (1.0 + R) / 2.0
        top, inner, cross, bottom, dim = g0 * g0, g0 * g1, 0.0, g1 * g1, 1
    else:
        tau0 = tau(rho0)
        p_s = (1.0 - tau0) / 4.0
        t = (1.0 - p_s) / (3.0 + R * R)
        t0 = t * (1.0 - R * R)
        top, bottom, dim = t * (1.0 - R) ** 2, t * (1.0 + R) ** 2, 2
        inner, cross = (p_s + t0) / 2.0, (t0 - p_s) / 2.0
    rho_inf = [[complex(top), 0j, 0j, 0j], [0j, complex(inner), complex(cross), 0j],
               [0j, complex(cross), complex(inner), 0j], [0j, 0j, 0j, complex(bottom)]]
    if params.omega_ell == 0 and math.isinf(params.beta_omega):
        h = (rho0[1][3] - rho0[2][3]) / 2.0
        rho_inf[1][3], rho_inf[2][3] = h, -h
        rho_inf[3][1], rho_inf[3][2] = h.conjugate(), -h.conjugate()
        dim = 4

    out, norms = [0j] * 16, [0.0] * 16
    for i, j, m in generator(params):
        out[i] += m * rho_inf[j % 4][j // 4]  # entry j of vec(rho_inf)
        norms[j] += abs(m)
    residual, scale = max(map(abs, out)), max(norms)
    if not residual <= _RESIDUAL_REL_TOL * scale:
        raise ConvergenceError(f"the predicted state is not stationary: residual "
                               f"{residual:.3e} exceeds {_RESIDUAL_REL_TOL:.0e} |M|_1")
    if params.omega_ell == 0 and not abs(tau(rho_inf) - tau0) <= _TAU_TOL:
        raise ConvergenceError(f"the predicted state has tau {tau(rho_inf)!r}, "
                               f"the initial state {tau0!r}")
    return rho_inf, dim


def threshold_tau(R: float) -> float:
    """Largest tau with asymptotically entangled equilibrium: (5R^2-3)/(3-R^2)."""
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    return (5.0 * R * R - 3.0) / (3.0 - R * R)
