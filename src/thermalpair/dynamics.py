"""Two-qubit operator algebra and Lindblad time evolution.

Basis and vectorization conventions used throughout the package:
  - single-atom basis (|+>, |->) with sigma3 |+-> = +-|+->, |+> first;
  - two-atom product basis ordered |++>, |+->, |-+>, |-->;
  - vec(.) stacks matrix columns (column-major), so that
    vec(A rho B) = kron(B.T, A) vec(rho).

The generator is the purely dissipative Kossakowski-Lindblad form, built
at the axis n = e3 from six fixed dissipators (`local_frame(n)` takes a
state at another axis to e3 and back); the free-Hamiltonian commutator
-i[H_S, .] (bare frequency, no Lamb shift) can be switched on with
`include_hs` but is excluded by default since it plays no role in the
temperature-dependent entanglement physics.

Evolution applies exp(t M) to vec(rho0) (`expm_multiply`): a Taylor series
of matrix-vector products while |t M|_1 <= _THETA_T, which holds for the
phase diagram's small-time oracle at every beta*omega above about 0.007,
and the [13/13] Pade exponential (`expm`) above it.  Trajectories are
cross-checked by an adaptive RK45 (`solve_ivp`).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .spectral import ModelParams, kossakowski_coefficients, kossakowski_eigenvalues


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class PositivityError(RuntimeError):
    """The Kossakowski matrix is not positive semidefinite (the generator is
    not completely positive), or evolution produced a state with an
    eigenvalue below tolerance or a non-finite entry."""


def _dissipator(L: np.ndarray) -> np.ndarray:
    """Superoperator of D[L] rho = L rho L^dag - (1/2){L^dag L, rho}."""
    LdL = L.conj().T @ L
    eye = np.eye(4)
    return np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)


# the generator at n = e3 is sum_k lambda_k _DISSIPATORS[k], lambda from
# spectral.kossakowski_eigenvalues: for s = +1 (collective), then s = -1
# (relative), D[L] with L = sigma- (x) 1 + s 1 (x) sigma-, D[L^dag] and
# (1/2) D[Z] with Z = sigma3 (x) 1 + s 1 (x) sigma3
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # |-><+|
_DISSIPATORS = []
for _s in (1.0, -1.0):
    _L = np.kron(_SIGMA_MINUS, np.eye(2)) + _s * np.kron(np.eye(2), _SIGMA_MINUS)
    _Z = np.kron(SIGMA[2].real, np.eye(2)) + _s * np.kron(np.eye(2), SIGMA[2].real)
    _DISSIPATORS += [_dissipator(_L), _dissipator(_L.T), 0.5 * _dissipator(_Z)]
_DISSIPATORS = np.array(_DISSIPATORS)

# charge m_a - m_b of |a><b| in vec order, with m = (1, 0, 0, -1) the total
# sigma3 / 2 of |a>: at e3, -i[H_S, .] is the diagonal -i omega _CHARGE
_M3 = np.array([1.0, 0.0, 0.0, -1.0])
_CHARGE = (_M3[:, None] - _M3[None, :]).reshape(-1, order="F")

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

# complete positivity of build_superoperator: the Kossakowski matrix may have
# eigenvalues below zero by at most this fraction of its largest eigenvalue
# over 6, which is at most its largest entry since |K|_2 <= 6 max|K_ij|.  The
# relative dephasing rate is an exact zero eigenvalue that rounding moves
# either way, so the bound is relative.
_CP_REL_TOL = 1e-12

# RK45 cross-check of evolve_traj: the integrator's relative and absolute
# error bounds, and the max-norm agreement with the matrix exponential
_RK_RTOL = 1e-10
_RK_ATOL = 1e-12
_RK_AGREE_TOL = 1e-8

# evolve raises PositivityError below this state eigenvalue
_POS_TOL = 1e-8

# [13/13] Pade approximant of exp (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005)): numerator coefficients b_0..b_13 (the denominator has
# (-1)^k b_k) and the 1-norm up to which it needs no scaling
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# coefficients over (I, A^2, A^4, A^6) of the four sums W0..W3 behind
# U = A (A^6 W0 + W2) and V = A^6 W1 + W3
_PADE13_SUMS = np.array([(0.0, *_PADE13[9:14:2]), (0.0, *_PADE13[8:13:2]),
                         _PADE13[1:8:2], _PADE13[0:7:2]], dtype=complex)
# expm_multiply sums the Taylor series of exp(A) v up to this 1-norm of A
# (degree m <= 12 there), and multiplies by expm(A) above it.  At 0.3 on a
# 16x16 generator the series took about 50 us against about 70 us for the
# Pade exponential (timeit on a 2-vCPU Xeon VM); they break even near 1.
_THETA_T = 0.3


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (complex) by scaling and squaring with the [13/13]
    Pade approximant (Higham 2005, Algorithm 2.3).

    A is scaled by 2^-s so that its 1-norm is at most _THETA13, the
    approximant r = (V - U)^-1 (V + U) is formed from even powers of the
    scaled A, and r is squared s times.
    """
    A = np.asarray(A)
    norm = np.abs(A).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    A = A * 2.0**-s
    n = A.shape[0]
    powers = np.empty((4, n, n), dtype=complex)
    powers[0] = np.eye(n)
    np.matmul(A, A, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    W = (_PADE13_SUMS @ powers.reshape(4, n * n)).reshape(4, n, n)
    high = powers[3] @ W[:2]
    U = A @ (high[0] + W[2])
    V = high[1] + W[3]
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def expm_multiply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(A) v, without forming exp(A) when |A|_1 <= _THETA_T.

    There it is the Taylor polynomial of degree m in Horner form, y = v and
    y = v + A y / j for j = m..1, with m the smallest degree whose
    truncation bound |A|_1^(m+1) / (m+1)! is at most 2^-53 (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)); every step is a
    matrix-vector product.  A larger or non-finite norm takes expm(A) @ v.
    """
    norm = np.abs(A).sum(axis=0).max()
    if not norm <= _THETA_T:
        return expm(A) @ v
    m, bound = 0, norm
    while bound > 2.0**-53:
        m += 1
        bound *= norm / (m + 1)
    y = v
    for j in range(m, 0, -1):
        y = v + (A @ y) / j
    return y


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)): stage
# coefficients, fifth-order weights and error weights.  The seventh stage is
# the derivative at the new point and becomes the next step's first stage.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                  1 / 40])
# step-size control: safety factor and the bounds on the change of h per step
_DP_SAFETY, _DP_MIN_FACTOR, _DP_MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def solve_ivp(M: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) solution of dy/dt = M y, y(0) = y0, at the
    sorted nonnegative sample times: a (len(y0), len(times)) array.

    Step control is the usual one for this pair: the RMS of the error
    estimate over _RK_ATOL + max(|y|, |y_new|) _RK_RTOL must stay below 1,
    h changes by a factor of 0.9 err^(-1/5) clipped to [0.2, 10] (at most 1
    right after a rejected step), and h never starts a step below 10 ulp(t).  Steps are
    shortened to land exactly on every sample time, so no sample is
    interpolated.  Raises RuntimeError if a rejected step shrinks h below
    10 ulp(t) or the solution turns non-finite.
    """
    y = np.asarray(y0, dtype=complex)
    out = np.empty((len(y), len(times)), dtype=complex)
    K = np.empty((7, len(y)), dtype=complex)
    K[0] = M @ y
    # first step from the sizes of y and dy/dt (Hairer, Norsett & Wanner,
    # Solving ODEs I, Sec. II.4); the controller corrects it within a few steps.
    # An overflow here or a non-finite error norm below is no warning: the
    # step-size floor and the non-finite check handle them.
    scale = _RK_ATOL + _RK_RTOL * np.abs(y)
    with np.errstate(over="ignore", invalid="ignore"):
        d0, d1 = _rms(y / scale), _rms(K[0] / scale)
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    t, rejected = 0.0, False
    for k, target in enumerate(times):
        while t < target:
            min_step = 10 * math.ulp(t)
            h = max(h, min_step)
            step = min(h, target - t)
            for i in range(1, 6):
                K[i] = M @ (y + step * (_DP_A[i, :i] @ K[:i]))
            y_new = y + step * (_DP_B @ K[:6])
            K[6] = M @ y_new
            with np.errstate(over="ignore", invalid="ignore"):
                err = _rms(step * (_DP_E @ K)
                           / (_RK_ATOL + _RK_RTOL * np.maximum(np.abs(y), np.abs(y_new))))
            if not math.isfinite(err):
                raise RuntimeError(f"RK45 cross-check integration failed: non-finite "
                                   f"solution at t={t:.6g}")
            if err < 1.0:
                factor = _DP_MAX_FACTOR if err == 0 else min(_DP_MAX_FACTOR,
                                                             _DP_SAFETY * err**-0.2)
                if rejected:
                    factor = min(1.0, factor)
                # a step shortened to land on a sample does not shrink the next one
                h = max(h, step * factor) if step < h else step * factor
                t = target if step == target - t else t + step
                y, K[0], rejected = y_new, K[6], False
            else:
                h = step * max(_DP_MIN_FACTOR, _DP_SAFETY * err**-0.2)
                rejected = True
                if h < min_step:
                    raise RuntimeError(f"RK45 cross-check integration failed: step size "
                                       f"{h:.3g} at t={t:.6g}")
        out[:, k] = y
    return out


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


_UNIT_TOL = 1e-12


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"axis must be a real 3-vector, got shape {v.shape}")
    norm = math.hypot(*v)
    if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN entry fails too
        raise ValueError(f"axis must be a unit vector, |n| = {norm!r}")
    return v


def bloch_ket(b) -> np.ndarray:
    """Pure qubit state with Bloch vector b: (cos(th/2), e^{i ph} sin(th/2)).

    The larger half-angle factor is sqrt((1 +- cos th)/2) and the other
    sin th over twice it, so both keep full precision near the poles.  The
    azimuth is 0 on the poles, so b = (0, 0, +-1) gives |+> and |-> exactly.
    """
    b = _unit_vector(b)
    norm = math.hypot(*b)
    sin_th, cos_th = math.hypot(b[0], b[1]) / norm, b[2] / norm
    if cos_th >= 0:
        c = math.sqrt((1.0 + cos_th) / 2.0)
        s = sin_th / (2.0 * c)
    else:
        s = math.sqrt((1.0 - cos_th) / 2.0)
        c = sin_th / (2.0 * s)
    phi = 0.0 if sin_th == 0.0 else math.atan2(b[1], b[0])
    return np.array([c, complex(math.cos(phi), math.sin(phi)) * s])


def local_frame(n) -> np.ndarray:
    """V = U (x) U, U = [|n>, |-n>] with |n> = bloch_ket(n): V^dag rho V is a
    state at the axis n in the frame where the axis is e3, V rho V^dag takes
    it back.  Spectrum, partial-transpose spectrum, concurrence and tau
    do not change under V."""
    a, b = bloch_ket(n)
    U = np.array([[a, -b.conjugate()], [b, a.conjugate()]])
    return np.kron(U, U)


def build_superoperator(params: ModelParams, include_hs: bool = False) -> np.ndarray:
    """16x16 matrix M with M vec(rho) = vec(d rho / dt) at the axis n = e3.

    M is sum_k lambda_k _DISSIPATORS[k] with lambda the six eigenvalues of
    the Kossakowski matrix (spectral.kossakowski_eigenvalues); with
    include_hs the commutator -i[H_S, .] at the bare frequency adds
    -i omega _CHARGE to its diagonal.  K >= 0 is the whole
    complete-positivity condition of a Lindblad generator: a minimum
    eigenvalue below -_CP_REL_TOL / 6 times the largest raises
    PositivityError.
    """
    lam = kossakowski_eigenvalues(kossakowski_coefficients(params))
    if lam.min() < -_CP_REL_TOL * lam.max() / 6:
        raise PositivityError(f"Kossakowski matrix is not positive semidefinite: minimum "
                              f"eigenvalue {lam.min():.3e}, the generator is not completely "
                              f"positive")
    M = np.tensordot(lam, _DISSIPATORS, axes=1)
    if include_hs:
        M = M - 1j * params.omega * np.diag(_CHARGE)
    return M


def evolve(M: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = unvec(exp(t M) vec(rho0)) by expm_multiply, re-Hermitized and
    renormalized.

    rho0 must already be a valid 4x4 density matrix (an array, as
    validate_density_matrix returns it); it is not checked again here, so
    the callers that take a state from outside (evolve_traj,
    asymptotic_state, the CLI's config parser) validate it once.  Raises
    PositivityError if the exponential's result is not finite (a generator
    too large for its rounding) or has no positive trace, or if the state
    dips below -_POS_TOL; smaller Hermiticity/trace deviations of a state
    that passes are repaired, with one standard-error line when either
    exceeds 1e-10.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if t == 0:
        return rho0.copy()
    # an overflow is reported once, as the PositivityError below
    with np.errstate(over="ignore", invalid="ignore"):
        rho = unvec(expm_multiply(t * M, vec(rho0)))
    if not np.isfinite(rho).all():
        raise PositivityError(f"evolved state is not finite at t={t}")
    herm_dev = np.abs(rho - rho.conj().T).max()
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if not 0 < tr < math.inf:
        raise PositivityError(f"evolved state has trace {tr} at t={t}")
    rho = rho / tr
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < -_POS_TOL:
        raise PositivityError(f"state eigenvalue {min_eig} below -{_POS_TOL} at t={t}")
    trace_dev = abs(tr - 1.0)
    if herm_dev > 1e-10 or trace_dev > 1e-10:
        print(f"evolve deviations at t={t:g}: hermiticity {herm_dev:.3g}, "
              f"trace {trace_dev:.3g}", file=sys.stderr)
    return rho


def evolve_traj(M: np.ndarray, rho0: np.ndarray, times) -> list:
    """The states rho(t_k) on a sorted nonnegative time grid.

    Samples come from evolve; the same trajectory is integrated with
    adaptive RK45 (solve_ivp) and the two must agree to _RK_AGREE_TOL in
    max-norm (two independent numerical routes through a non-normal
    generator).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if times[0] < 0 or (len(times) > 1 and not np.all(np.diff(times) > 0)):
        raise ValueError("time grid must be sorted, strictly increasing and nonnegative")
    rho0 = validate_density_matrix(rho0)
    states = [evolve(M, rho0, float(t)) for t in times]

    if times[-1] > 0:
        ys = solve_ivp(M, vec(rho0), times)
        worst = 0.0
        for k in range(len(times)):
            worst = max(worst, np.abs(states[k] - unvec(ys[:, k])).max())
        if worst > _RK_AGREE_TOL:
            raise RuntimeError(f"matrix-exponential and RK45 trajectories disagree: "
                               f"{worst:.3e} > {_RK_AGREE_TOL:.1e}")

    return states
