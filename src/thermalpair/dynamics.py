"""Two-qubit operator algebra and Lindblad time evolution.

Basis and vectorization conventions used throughout the package:
  - single-atom basis (|+>, |->) with sigma3 |+-> = +-|+->, |+> first;
  - two-atom product basis ordered |++>, |+->, |-+>, |-->;
  - vec(.) stacks matrix columns (column-major), so that
    vec(A rho B) = kron(B.T, A) vec(rho).

The generator is the purely dissipative Kossakowski-Lindblad form; the
free-Hamiltonian commutator -i[H_S, .] (bare frequency, no Lamb shift) can
be switched on with `include_hs` but is excluded by default since it plays
no role in the temperature-dependent entanglement physics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .spectral import KossakowskiMatrix, ModelParams

log = logging.getLogger(__name__)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: only the RK45 guard needs it."""
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
IDENTITY2 = np.eye(2, dtype=complex)
IDENTITY4 = np.eye(4, dtype=complex)


class PositivityError(RuntimeError):
    """Evolution produced a state with an eigenvalue below tolerance."""


def pauli_op(atom: int, axis: int) -> np.ndarray:
    """sigma_axis acting on one atom: sigma (x) 1 for atom 1, 1 (x) sigma for atom 2."""
    if atom not in (1, 2):
        raise ValueError(f"atom index must be 1 or 2, got {atom}")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {axis}")
    s = SIGMA[axis - 1]
    return np.kron(s, IDENTITY2) if atom == 1 else np.kron(IDENTITY2, s)


def _basis_element(sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> (1/2)(2 sq rho sp - sp sq rho - rho sp sq)."""
    spq = sp @ sq
    return 0.5 * (2.0 * np.kron(sp.T, sq) - np.kron(IDENTITY4, spq) - np.kron(spq.T, IDENTITY4))


# generator basis: M = sum_pq K[p, q] _BASIS[p, q], p and q running over
# (atom, axis) in the row order of KossakowskiMatrix.matrix
_PAULI_OPS = tuple(pauli_op(a, i) for a in (1, 2) for i in (1, 2, 3))
_BASIS = np.array([[_basis_element(sp, sq) for sq in _PAULI_OPS] for sp in _PAULI_OPS])

# sigma_i (x) sigma_i, used by the total-spin correlator tau
_SIGMA_SIGMA = tuple(np.kron(SIGMA[i], SIGMA[i]) for i in range(3))


def singlet_ket() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2), the collective dark state at ell = 0."""
    k = np.zeros(4, dtype=complex)
    k[1] = 1.0 / math.sqrt(2.0)
    k[2] = -1.0 / math.sqrt(2.0)
    return k


def singlet_density() -> np.ndarray:
    k = singlet_ket()
    return np.outer(k, k.conj())


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major stacking of a 4x4 matrix into a 16-vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(4, 4, order="F")


# input-state checks of validate_density_matrix
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10

# RK45 cross-check of evolve_traj: integrator rtol and max-norm agreement
_RK_RTOL = 1e-10
_RK_AGREE_TOL = 1e-8


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {np.trace(rho)}, expected 1")
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < _EIG_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig}")
    return rho


def tau(rho: np.ndarray) -> float:
    """Total spin correlator sum_i <sigma_i (x) sigma_i>, in [-3, 1].

    Conserved by the ell = 0 (collective) generator; labels the
    one-parameter family of its stationary states.
    """
    return float(sum(np.trace(rho @ ss).real for ss in _SIGMA_SIGMA))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def dissipator_apply(K: KossakowskiMatrix, rho: np.ndarray) -> np.ndarray:
    """d rho / dt of the dissipative generator for state rho.

    (1/2) sum_{ab,ij} C^(ab)_ij (2 s_j^b rho s_i^a - s_i^a s_j^b rho - rho s_i^a s_j^b)

    The output is traceless and Hermitian for Hermitian rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"state must be 4x4, got shape {rho.shape}")
    return unvec(build_superoperator(K) @ vec(rho))


def hamiltonian(params: ModelParams) -> np.ndarray:
    """Free two-atom Hamiltonian (omega/2)(n.sigma (x) 1 + 1 (x) n.sigma)."""
    h1 = sum(params.n[i] * SIGMA[i] for i in range(3))
    return 0.5 * params.omega * (np.kron(h1, IDENTITY2) + np.kron(IDENTITY2, h1))


def build_superoperator(K: KossakowskiMatrix, params: ModelParams | None = None,
                        include_hs: bool = False) -> np.ndarray:
    """16x16 matrix M with M vec(rho) = vec(d rho / dt).

    M = sum_pq K[p, q] _BASIS[p, q] is linear in the 6x6 Kossakowski
    matrix.  With include_hs the commutator -i[H_S, .] at the bare
    frequency is added; params is then required.
    """
    M = np.tensordot(K.matrix, _BASIS, axes=([0, 1], [0, 1]))
    if include_hs:
        if params is None:
            raise ValueError("params required when include_hs is set")
        h = hamiltonian(params)
        M += -1j * (np.kron(IDENTITY4, h) - np.kron(h.T, IDENTITY4))
    return M


def evolve(M: np.ndarray, rho0: np.ndarray, t: float, pos_tol: float = 1e-8) -> np.ndarray:
    """rho(t) = unvec(expm(t M) vec(rho0)), re-Hermitized and renormalized.

    Raises PositivityError if the result dips below -pos_tol; smaller
    Hermiticity/trace deviations are logged and repaired.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    rho0 = validate_density_matrix(rho0)
    if t == 0:
        return rho0.copy()
    rho = unvec(expm(t * M) @ vec(rho0))
    herm_dev = np.abs(rho - rho.conj().T).max()
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    trace_dev = abs(tr - 1.0)
    if herm_dev > 1e-10 or trace_dev > 1e-10:
        log.warning("evolve deviations at t=%g: hermiticity %.3g, trace %.3g",
                    t, herm_dev, trace_dev)
    else:
        log.debug("evolve deviations at t=%g: hermiticity %.3g, trace %.3g",
                  t, herm_dev, trace_dev)
    rho = rho / tr
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < -pos_tol:
        raise PositivityError(f"state eigenvalue {min_eig} below -{pos_tol} at t={t}")
    return rho


@dataclass
class Trajectory:
    """Time-ordered state samples rho(t_k) on a fixed grid."""

    times: np.ndarray
    states: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def evolve_traj(M: np.ndarray, rho0: np.ndarray, times,
                pos_tol: float = 1e-8) -> Trajectory:
    """Sample the evolution on a sorted nonnegative time grid.

    Samples come from the matrix exponential; the same trajectory is
    integrated with adaptive RK45 at rtol=_RK_RTOL and the two must agree
    to _RK_AGREE_TOL in max-norm (two independent numerical routes through
    a non-normal generator).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if times[0] < 0 or (len(times) > 1 and not np.all(np.diff(times) > 0)):
        raise ValueError("time grid must be sorted, strictly increasing and nonnegative")
    rho0 = validate_density_matrix(rho0)
    states = [evolve(M, rho0, float(t), pos_tol=pos_tol) for t in times]

    if times[-1] > 0:
        sol = solve_ivp(lambda _t, y: M @ y, (0.0, float(times[-1])), vec(rho0),
                        t_eval=times, method="RK45", rtol=_RK_RTOL, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"RK45 cross-check integration failed: {sol.message}")
        worst = 0.0
        for k in range(len(times)):
            worst = max(worst, np.abs(states[k] - unvec(sol.y[:, k])).max())
        if worst > _RK_AGREE_TOL:
            raise RuntimeError(f"matrix-exponential and RK45 trajectories disagree: "
                               f"{worst:.3e} > {_RK_AGREE_TOL:.1e}")
        log.debug("expm/RK45 max-norm disagreement: %.3e", worst)

    return Trajectory(times=times, states=states)


def choi_matrix(M: np.ndarray, t: float) -> np.ndarray:
    """Choi matrix sum_kl E_kl (x) Phi_t(E_kl) of the map Phi_t = expm(t M).

    Positive semidefiniteness certifies complete positivity of the map.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    E = expm(t * M)
    choi = np.zeros((16, 16), dtype=complex)
    for k in range(4):
        for l in range(4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[k, l] = 1.0
            # vec(E_kl) is the basis vector at column-major index 4l + k
            phi = unvec(E[:, 4 * l + k])
            choi += np.kron(unit, phi)
    return choi
