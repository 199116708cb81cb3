"""Two-qubit operator algebra and Lindblad time evolution.

Basis and vectorization conventions used throughout the package:
  - single-atom basis (|+>, |->) with sigma3 |+-> = +-|+->, |+> first;
  - two-atom product basis ordered |++>, |+->, |-+>, |-->;
  - vec(.) stacks matrix columns (column-major), so that
    vec(A rho B) = kron(B.T, A) vec(rho).

The generator is the Kossakowski dissipator D alone at the axis n = e3:
`build_superoperator` fills the dense 16x16 M from the 64 entries of
`spectral.generator`, K's six rates, which are nonnegative, on six fixed
dissipators, so completely positive by construction.  Those are the
entries `asymptotic`'s convergence guard reads.  States reach this module
already in the frame of e3, where `cli.RunConfig.initial_state` turns
them.  The free Hamiltonian's -i[H_S, .] commutes with D, so it
only turns both atoms by one local unitary, which no emitted quantity sees.

Evolution multiplies vec(rho) by the Taylor exponential exp(dt M) (`expm`,
no linear solve).  A trajectory (`evolve_traj`) steps from sample to
sample, with one exponential for each run of equal steps, guards each
state and is cross-checked from t = 0 by an adaptive RK45 (`solve_ivp`);
both are generators that advance together, one sample at a time.  The
CLI takes this route for a state off the charge-0 sector Q0
(`dense_route`).  The
phase diagram's small-time oracle has its own kernel, a Taylor series of
matrix-vector products on the generator's Q0 block, in plain Python
(`generation`, which also holds the guards `check_trace`, `check_state`
and `check_unit` and the exceptions raised here), and the trajectory of a
state in Q0 runs on that kernel (`trajectory`, which also holds the RK45
step control and agreement check that solve_ivp and evolve_traj use, the
tolerances, the Dormand-Prince table this module turns into arrays and
`expm`'s THETA_T30).

This is the one module of the package that imports numpy when it is
imported; which of the CLI's runs load numpy, and this module, is `cli`'s
rule.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotic, entanglement
from .generation import check_state, check_trace
from .trajectory import DP_A, DP_B, DP_E, RK_ATOL, RK_RTOL, THETA_T30, agree, dormand_prince
from .spectral import ModelParams, generator


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major stacking of a 4x4 matrix into a 16-vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(4, 4, order="F")


# expm's degree-30 Taylor polynomial, to the 1-norm trajectory.THETA_T30:
# row j of _TAYLOR30_BLOCKS holds 1/(6j + i)!, i < 6
_TAYLOR30_BLOCKS = np.array([[1.0 / math.factorial(6 * j + i) if 6 * j + i <= 30 else 0.0
                              for i in range(6)] for j in range(6)])


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential in A's real or complex type, without a linear
    solve: A is scaled by 2^-s to a 1-norm of at most THETA_T30, its
    degree-30 Taylor polynomial, sum_j (A^6)^j B_j with B_j = sum_i A^i /
    (6j + i)!, is summed in ten products (Paterson-Stockmeyer) and squared
    s times.
    """
    A = np.asarray(A)
    norm = np.abs(A).sum(axis=0).max()
    s = math.ceil(math.log2(norm / THETA_T30)) if THETA_T30 < norm < math.inf else 0
    A = A * 2.0**-s
    n = A.shape[0]
    powers = [np.eye(n), A]
    for _ in range(5):
        powers.append(powers[-1] @ A)
    B = (_TAYLOR30_BLOCKS @ np.reshape(powers[:6], (6, n * n))).reshape(6, n, n)
    R = B[5]
    for j in range(4, -1, -1):
        R = R @ powers[6] + B[j]
    for _ in range(s):
        R = R @ R
    return R


# trajectory's Dormand-Prince 5(4) table as arrays, _DP_A padded with zeros
_DP_A = np.array([row + (0.0,) * (5 - len(row)) for row in DP_A])
_DP_B, _DP_E = np.array(DP_B), np.array(DP_E)


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def solve_ivp(M: np.ndarray, y0: np.ndarray, times: np.ndarray):
    """Adaptive Dormand-Prince 5(4) solution of dy/dt = M y, y(0) = y0, at the
    sorted nonnegative sample times: the stages on numpy arrays under
    `trajectory.dormand_prince`, a generator that yields y(t_k), a complex
    array shaped like y0, as it reaches each t_k (y0 itself where t_k = 0),
    with its step control and errors.
    """
    K = np.empty((7, len(y0)), dtype=complex)

    def stages(y, k1, step):
        K[0] = k1
        for i in range(1, 6):
            K[i] = M @ (y + step * (_DP_A[i, :i] @ K[:i]))
        y_new = y + step * (_DP_B @ K[:6])
        # a fresh k7: a rejected step leaves the k1 it was handed as it is
        K[6] = k7 = M @ y_new
        with np.errstate(over="ignore", invalid="ignore"):
            return y_new, k7, _rms(step * (_DP_E @ K) / (
                RK_ATOL + RK_RTOL * np.maximum(np.abs(y), np.abs(y_new))))

    y = np.asarray(y0, dtype=complex)
    k1 = M @ y
    # an overflow here or a non-finite error norm in a step is no warning:
    # the step-size floor and the non-finite check handle them
    scale = RK_ATOL + RK_RTOL * np.abs(y)
    with np.errstate(over="ignore", invalid="ignore"):
        d0, d1 = _rms(y / scale), _rms(k1 / scale)
    yield from dormand_prince(stages, y, k1, d0, d1, times)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix, such as a difference of states."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def build_superoperator(params: ModelParams) -> np.ndarray:
    """16x16 matrix M with M vec(rho) = vec(d rho / dt) at the axis n = e3:
    the 64 entries of spectral.generator(params), the nonnegative rates on
    the fixed dissipators, and 0 elsewhere; no Hamiltonian term."""
    M = np.zeros((16, 16))
    for i, j, m in generator(params):
        M[i, j] = m
    return M


def evolve_traj(M: np.ndarray, rho0: np.ndarray, times):
    """A generator of (rho(t_k), its least eigenvalue) on a sorted
    nonnegative time grid, from rho0 at t = 0, where the state is rho0
    itself.  Each later state is the one before times exp((t_k - t_(k-1)) M)
    (`expm`, formed again only where the step changes, so one 16x16 matrix
    is held), a trace-norm contraction, re-Hermitized and renormalized.
    Each state passes its guards: PositivityError if it is not finite (a
    generator too large for its rounding) or has no positive trace
    (`check_trace`), or if its least eigenvalue is below
    -generation._POS_TOL (`check_state`); smaller Hermiticity/trace
    deviations are repaired, with one standard-error line when either
    exceeds 1e-10.  Every message names t_k.  Then RK45 (solve_ivp), which
    integrates the same trajectory from rho0, advances to t_k, and the
    state is yielded only once the two routes agree there in max-norm
    (`trajectory.agree`: two independent numerical routes through a
    non-normal generator); the first sample over its bound raises
    CrossCheckError.  The grid is checked, with ValueError, on the first
    next().  rho0 must already be a valid 4x4 density matrix array, as
    entanglement.validate_density_matrix checks: the CLI's config parser
    validates a matrix state once, where it enters.  Only the last state
    is held."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if times[0] < 0 or (len(times) > 1 and not np.all(np.diff(times) > 0)):
        raise ValueError("time grid must be sorted, strictly increasing and nonnegative")
    ys = solve_ivp(M, vec(rho0), times)
    rho, t0, step = rho0, 0.0, 0.0
    for t in times.tolist():
        # an overflow is reported once, as check_trace's PositivityError; the
        # trace of the real diagonal is the trace of the Hermitian part
        with np.errstate(over="ignore", invalid="ignore"):
            if t - t0 != step:
                step = t - t0
                E = expm(step * M)
            new = unvec(E @ vec(rho)) if t > 0 else rho
            tr = np.trace(new).real
        check_trace(np.isfinite(new).all(), tr, t)
        herm_dev = np.abs(new - new.conj().T).max()
        rho = 0.5 * (new + new.conj().T) / tr if t > 0 else new
        min_eig = np.linalg.eigvalsh(rho).min()
        check_state(min_eig, herm_dev, tr, t)
        agree(np.abs(rho - unvec(next(ys))).max())
        yield rho, min_eig
        t0 = t


def dense_route(params: ModelParams, rho0: list, times) -> tuple:
    """(states, columns, distance) of the evolve of a state rho0 off Q0, a
    4x4 nested list: the (state, least eigenvalue) pairs of evolve_traj
    under build_superoperator(params), the columns of a row after the time,
    trace, min_eig (the guard's), min_eig_pt, concurrence and tau, and the
    trace distance of a state to the stationary state."""
    def columns(state):
        rho, min_eig = state
        r = rho.tolist()  # read by the plain-Python concurrence and tau
        return (np.trace(rho).real, min_eig, entanglement.min_eig_pt(rho),
                entanglement.concurrence(r), asymptotic.tau(r))

    def distance(state, rho_inf):
        return trace_norm(state[0] - np.array(rho_inf))

    return evolve_traj(build_superoperator(params), np.array(rho0), times), columns, distance

