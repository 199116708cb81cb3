"""The plain-Python half of `evolve`: the RK45 cross-check that both of its
routes share, and the trajectory of a state in the charge-0 sector Q0.

Each route's trajectory is cross-checked from t = 0 by an adaptive RK45,
whose step control and errors (`dormand_prince`) and agreement check
(`agree`) live here; each route has its own stages.  `dynamics.solve_ivp`
integrates the 16 complex entries with numpy arrays built from this
module's Dormand-Prince table and tolerances, and `solve_q0` the six real
entries of Q0 with its stages written out, which ran 2.2 times as fast as
a loop over the table's rows.  The numpy stages stay: plain-Python stages
on the 16 entries took 2 to 3 times as long on bench `trajectory`'s
product and matrix states.  `work` sizes the integration for the CLI's
cap.

Every dissipator maps Q0 into itself, so a state that starts in Q0 with
real entries (`in_q0`), such as the named states |-> (x) |+> and the
singlet, keeps six reals under the generator's Q0 block for its whole
trajectory (`evolve_q0`): the phase diagram oracle's Taylor kernel in
substeps of 1-norm at most THETA_T30, so it never squares, the oracle's
guards, and `solve_q0`.  The rows and the summary's trace distance are
closed forms of an X-state (`x_columns`, `x_distance`).  Any other state
evolves by `dynamics.evolve_traj`.  The module imports no numpy, and of
the CLI's runs only `evolve` imports it: in `generation`, which every run
compiles, this code raised a phase diagram's peak RSS.
"""

from __future__ import annotations

import math

from . import asymptotic, entanglement, generation
from .generation import CrossCheckError
from .spectral import ModelParams, generator, generator_q0

# the degree-30 Taylor polynomial has backward error at most 2^-53 up to this
# 1-norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1):
# dynamics.expm scales to it, and evolve_q0 takes substeps of this norm
THETA_T30 = 3.5
# the vec indices a + 4b of |a><b| in Q0
_Q0 = (0, 5, 6, 9, 10, 15)

# RK45 cross-check of a trajectory: the integrator's relative and absolute
# error bounds, and the max-norm agreement with the exponential's route
RK_RTOL = 1e-10
RK_ATOL = 1e-12
RK_AGREE_TOL = 1e-8
# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)): row i of
# DP_A holds stage i's coefficients, then the fifth-order weights and the
# error weights.  The seventh stage is the derivative at the new point and
# becomes the next step's first stage.  dynamics builds its arrays from these
DP_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# step-size control: safety factor and the bounds on the change of h per step
DP_SAFETY, DP_MIN_FACTOR, DP_MAX_FACTOR = 0.9, 0.2, 10.0


def work(params: ModelParams, t_max: float) -> float:
    """The work of a trajectory's cross-check, t_max |M|_1 of the generator
    at e3, from the column sums of its 64 entries, each column summed from
    the top row down as numpy sums it."""
    sums = [0.0] * 16
    for _, j, m in sorted(generator(params)):
        sums[j] += abs(m)
    return t_max * max(sums)


def in_q0(rho: list) -> bool:
    """Whether the 4x4 nested list rho lies in Q0 with real entries: every
    entry outside Q0 exactly 0, as `entanglement.concurrence` reads an
    X-state's, and every entry in Q0 real.  The named states do, and at n =
    +-e3 so do a product of the kets of +-n and a matrix state in Q0.  At
    other axes the frame's turn leaves rounding outside Q0 on most such
    states, 195 of 200 seeded (n, -n) products, and those evolve densely."""
    return not any(rho[k % 4][k // 4].imag if k in _Q0 else rho[k % 4][k // 4]
                   for k in range(16))


def _matvec(A: list, y) -> list:
    y0, y1, y2, y3, y4, y5 = y
    return [a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 + a4 * y4 + a5 * y5
            for a0, a1, a2, a3, a4, a5 in A]


def _rms(x: list) -> float:
    return math.hypot(*x) / math.sqrt(len(x))


def dormand_prince(stages, y, k1, d0: float, d1: float, times):
    """The step control of both RK45 cross-checks, an adaptive Dormand-Prince
    5(4) solution from y(0) = y with derivative k1 there: a generator that
    yields y(t_k) as it reaches each sorted nonnegative t_k (y itself where
    t_k = 0) and holds no earlier sample.  stages(y, k1, step) takes one
    step and returns (y_new, k7, err): the fifth-order solution, the
    derivative there, which an accepted step hands to the next as its k1,
    and the RMS of the error estimate over RK_ATOL + max(|y|, |y_new|)
    RK_RTOL.  d0 and d1 are the RMS of y and k1 over RK_ATOL + |y| RK_RTOL.

    The first step is 0.01 d0 / d1, or 1e-6 where either is below 1e-5
    (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4); the controller
    corrects it within a few steps.  A step is accepted when err < 1, h
    changes by a factor of 0.9 err^(-1/5) clipped to [0.2, 10] (at most 1
    right after a rejected step), and h never starts a step below 10
    ulp(t).  Steps are shortened to land exactly on every sample time, so no
    sample is interpolated.  Raises CrossCheckError, from the next() that
    needs the step, if a rejected step shrinks h below 10 ulp(t) or err is
    not finite.
    """
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    t, rejected = 0.0, False
    for target in times:
        while t < target:
            min_step = 10 * math.ulp(t)
            h = max(h, min_step)
            step = min(h, target - t)
            y_new, k7, err = stages(y, k1, step)
            if not math.isfinite(err):
                raise CrossCheckError(f"RK45 cross-check integration failed: non-finite "
                                      f"solution at t={t:.6g}")
            if err < 1.0:
                factor = DP_MAX_FACTOR if err == 0 else min(DP_MAX_FACTOR,
                                                            DP_SAFETY * err**-0.2)
                if rejected:
                    factor = min(1.0, factor)
                # a step shortened to land on a sample does not shrink the next one
                h = max(h, step * factor) if step < h else step * factor
                t = target if step == target - t else t + step
                y, k1, rejected = y_new, k7, False
            else:
                h = step * max(DP_MIN_FACTOR, DP_SAFETY * err**-0.2)
                rejected = True
                if h < min_step:
                    raise CrossCheckError(f"RK45 cross-check integration failed: step size "
                                          f"{h:.3g} at t={t:.6g}")
        yield y


def agree(diff: float):
    """The cross-check of a sample: CrossCheckError unless diff, the max-norm
    distance of the exponential's state from RK45's, is within
    RK_AGREE_TOL."""
    if diff > RK_AGREE_TOL:
        raise CrossCheckError(f"matrix-exponential and RK45 trajectories disagree: "
                              f"{diff:.3e} > {RK_AGREE_TOL:.1e}")


def solve_q0(M: list, y: list, times):
    """dynamics.solve_ivp on the six real Q0 entries y under the rows M: the
    same Dormand-Prince stages, written out, under `dormand_prince`."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = \
        DP_A[1:]
    b1, _, b3, b4, b5, b6 = DP_B
    e1, _, e3, e4, e5, e6, e7 = DP_E

    def stages(y, k1, step):
        k2 = _matvec(M, [x + step * (a21 * p1) for x, p1 in zip(y, k1)])
        k3 = _matvec(M, [x + step * (a31 * p1 + a32 * p2) for x, p1, p2 in zip(y, k1, k2)])
        k4 = _matvec(M, [x + step * (a41 * p1 + a42 * p2 + a43 * p3)
                         for x, p1, p2, p3 in zip(y, k1, k2, k3)])
        k5 = _matvec(M, [x + step * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                         for x, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
        k6 = _matvec(M, [x + step * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
                         for x, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
        y_new = [x + step * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
                 for x, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = _matvec(M, y_new)
        return y_new, k7, _rms([step * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
                                / (RK_ATOL + RK_RTOL * max(abs(x), abs(x_new)))
                                for x, x_new, p1, p3, p4, p5, p6, p7
                                in zip(y, y_new, k1, k3, k4, k5, k6, k7)])

    k1 = _matvec(M, y)
    scale = [RK_ATOL + RK_RTOL * abs(x) for x in y]
    yield from dormand_prince(stages, y, k1, _rms([x / s for x, s in zip(y, scale)]),
                              _rms([k / s for k, s in zip(k1, scale)]), times)


def evolve_q0(params: ModelParams, rho0: list, times):
    """dynamics.evolve_traj for a state rho0 in Q0 with real entries, a 4x4
    nested list, on the generator's Q0 block M: a generator of the states
    (r00, r11, r22, r33, c) at the sorted nonnegative times t_k.  Each step
    from t_(k-1) to t_k applies exp(dt M) as s = ceil(dt |M|_1 / THETA_T30)
    equal substeps of `generation.taylor_action`, and
    `generation.checked_q0` guards the result before `solve_q0` advances to
    t_k; the two routes must agree in max-norm (`agree`), as in
    evolve_traj.  Only the last state is held."""
    M = generator_q0(params)
    norm = generation.norm_1(M)
    v = [rho0[k % 4][k // 4].real for k in _Q0]
    ys, t0 = solve_q0(M, v, times), 0.0
    for t in times:
        s = math.ceil((t - t0) * norm / THETA_T30)
        h = (t - t0) / max(s, 1)
        A = [[h * x for x in row] for row in M]
        for _ in range(s):
            v = generation.taylor_action(A, v, h * norm)
        r00, r11, r22, r33, c = x = generation.checked_q0(v, t)
        v, t0 = [r00, r11, c, c, r22, r33], t
        agree(max(abs(a - b) for a, b in zip(v, next(ys))))
        yield x


def x_columns(x: tuple) -> tuple:
    """The columns of an evolve row after the time, trace, min_eig,
    min_eig_pt, concurrence and tau, of the X-state x = (r00, r11, r22, r33,
    c), in closed form."""
    r00, r11, r22, r33, c = x
    rho = [[r00, 0.0, 0.0, 0.0], [0.0, r11, c, 0.0], [0.0, c, r22, 0.0], [0.0, 0.0, 0.0, r33]]
    return ((r00 + r11) + (r22 + r33), generation.x_min_eig(r00, r11, r22, r33, c),
            generation.x_min_eig(r11, r00, r33, r22, c), entanglement.concurrence(rho),
            asymptotic.tau(rho))


def x_distance(x: tuple, rho_inf: list) -> float:
    """The trace distance of the X-state x = (r00, r11, r22, r33, c) to the
    state rho_inf, a 4x4 nested list that is an X-state in Q0 too: with d
    their difference, |d00| + |d33| + |m + h| + |m - h|, m +- h the
    eigenvalues of its block on |+->, |-+>."""
    d00, d11, d22, d33, c = (a - b.real for a, b in zip(x, (
        rho_inf[0][0], rho_inf[1][1], rho_inf[2][2], rho_inf[3][3], rho_inf[1][2])))
    return abs(d00) + abs(d33) + 2.0 * max(abs(d11 + d22) / 2, math.hypot((d11 - d22) / 2, c))
