"""Entanglement generation at t = 0+, and the guards the array modules share.

Whether the common bath starts entangling a pure product state at t = 0+
is decided by the discriminant of Benatti, Floreanini & Piani (PRL 91,
070402, 2003), built from the Kossakowski blocks and two complex
3-vectors u, v encoding the state.  The package evaluates it only at the
canonical state |-> (x) |+> (ground and excited along the axis e3), where
u = v = (1, -i, 0) and it is a closed form in K's coefficients that
collapses to R^2 + S^2 > 1 with R = tanh(beta omega / 2) and
S = sinc(omega ell); the general test for any product state is the
reference in the test suite.  The phase diagram checks the verdict
against an independent oracle, the partial transpose of |-> (x) |+>
evolved by a short time under the generator's charge-0 block
`spectral.generator_q0` (`small_time_ppt_oracle`).  The oracle owns its
kernel, the Taylor series of exp(t M) v in matrix-vector products, and
its step, capped so that the series stays short; `dynamics.evolve_traj`
multiplies by `dynamics.expm` instead.  The named states' `evolve`
trajectory (`trajectory.evolve_q0`) runs on the same six reals, with the
same kernel (`taylor_action`), spectra (`x_min_eig`) and guards
(`checked_q0`).  The state stays
in the charge-0 sector Q0, an X-state with populations r00..r33 and real
coherence c = <+-|rho|-+>: its spectrum r00, r33,
(r11 + r22)/2 +- hypot((r11 - r22)/2, c) and its partial transpose's r11,
r22, (r00 + r33)/2 +- hypot((r00 - r33)/2, c) are closed forms.  The tests
add the oracle's general route and the exact minimum of the initial
entanglement-production rate over probe vectors.

All of it is plain-Python float arithmetic, with no numpy (which runs
load it is `cli`'s rule).  The module also holds what `dynamics` and
`asymptotic` share with it: the evolved-state guards (`check_trace`,
`check_state`), the unit-vector check of an axis or Bloch vector
(`check_unit`), and the three exception classes that the CLI maps to
exit codes 3, 4 and 5.
"""

from __future__ import annotations

import math
import sys

from .spectral import (KossakowskiCoefficients, ModelParams, generator_q0, temperature_ratio,
                       _sinc)


class CrossCheckError(RuntimeError):
    """The RK45 cross-check failed to integrate, or disagrees with the
    matrix-exponential trajectory: an implementation bug, not a bad input."""


class PositivityError(RuntimeError):
    """Evolution produced a state with an eigenvalue below tolerance, a
    non-finite entry or no positive trace, or its generator is not finite."""


class ConvergenceError(RuntimeError):
    """The closed-form stationary state fails its guard (residual or
    conserved tau)."""


# check_state raises PositivityError below this state eigenvalue
_POS_TOL = 1e-8


def check_state(min_eig: float, herm_dev: float, tr: float, t: float):
    """dynamics.evolve_traj's last two guards, on the state it Hermitized
    and renormalized from trace tr; `checked_q0` applies them on Q0 too."""
    if min_eig < -_POS_TOL:
        raise PositivityError(f"state eigenvalue {min_eig} below -{_POS_TOL} at t={t}")
    trace_dev = abs(tr - 1.0)
    if herm_dev > 1e-10 or trace_dev > 1e-10:
        print(f"evolve deviations at t={t:g}: hermiticity {herm_dev:.3g}, "
              f"trace {trace_dev:.3g}", file=sys.stderr)


def check_trace(finite: bool, tr: float, t: float):
    """dynamics.evolve_traj's first two guards, which `checked_q0` applies on Q0
    too: PositivityError unless the state evolved to time t is finite and
    its trace tr positive and finite."""
    if not finite:
        raise PositivityError(f"evolved state is not finite at t={t}")
    if not 0 < tr < math.inf:
        raise PositivityError(f"evolved state has trace {tr} at t={t}")


_UNIT_TOL = 1e-12


def check_unit(v, name: str | None = None):
    """Raise ValueError unless the real 3-vector v has unit length to
    _UNIT_TOL; the message names v by name, or as the axis n."""
    norm = math.hypot(*v)
    if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN entry fails too
        raise ValueError(f"{name or 'axis'} must be a unit vector, |{name or 'n'}| = {norm!r}")


# generation_test verdicts within this fraction of |K|_2^2 of zero are inconclusive
_BOUNDARY_REL_TOL = 1e-12


def generation_test(coeffs: KossakowskiCoefficients) -> tuple[float, str]:
    """Discriminant test for entanglement generation out of |-> (x) |+>.

    Returns (margin, label).  The general product-state discriminant
    |<u| Re C12 |v>|^2 - <u|C11|u> <v|C11^T|v> at u = v = (1, -i, 0) is
    margin = (2A')^2 - (2A - 2B)(2A + 2B), here in the order that contraction
    rounds in; it equals 4 A^2 (R^2 + S^2 - 1).  The bath starts entangling
    the pair iff margin > 0 (strict).  label is "true" or "false", or
    "boundary" within _BOUNDARY_REL_TOL * |K|_2^2 of zero, with |K|_2 K's
    largest eigenvalue, (A + B)(1 + |S|) or 2 g0 (no SVD).
    """
    A, B = coeffs.A, coeffs.B
    margin = (2.0 * coeffs.Ap) ** 2 - (2.0 * A - 2.0 * B) * (2.0 * A + 2.0 * B)
    norm = max(A + B + abs(coeffs.Ap + coeffs.Bp), (A + coeffs.C) + (coeffs.Ap + coeffs.Cp))
    if abs(margin) <= _BOUNDARY_REL_TOL * norm ** 2:
        return margin, "boundary"
    return margin, "true" if margin > 0 else "false"


def criterion_rs(params: ModelParams):
    """(R, S, R^2 + S^2 - 1): the canonical-state reduction of the test."""
    R = temperature_ratio(params)
    S = _sinc(params.omega_ell)
    return R, S, R * R + S * S - 1.0


# partial-transpose eigenvalues below -_ORACLE_NEG_TOL count as negative in the oracle
_ORACLE_NEG_TOL = 1e-13
# the oracle evolves by omega*t = _ORACLE_DT, or by _THETA_T / |M|_1 where that
# is shorter: its Taylor series then needs degree m <= 12.  The series, not
# dynamics.expm, because expm's matrix-matrix products would be the first in
# a sweep process: with them a 256-point sweep's peak RSS in a fresh process
# rose by a median of 0.14 MB (6 of 6 pairs, one BLAS thread)
_ORACLE_DT = 1e-3
_THETA_T = 0.3
# |-> (x) |+> in Q0, the sector m_a = m_b of the entries |++><++|, |+-><+-|,
# |-+><+-|, |+-><-+|, |-+><-+|, |--><--| (vec indices a + 4b of |a><b|: 0, 5,
# 6, 9, 10, 15), which every dissipator maps into itself
_CANONICAL_Q0 = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def norm_1(A: list) -> float:
    """max_j sum_i |A[i][j]|, each column summed from the top row down."""
    return max(sum(abs(row[j]) for row in A) for j in range(len(A[0])))


def taylor_action(A: list, v, norm: float) -> list:
    """exp(A) v for the 6x6 rows A of 1-norm norm as the Taylor polynomial of
    degree m in Horner form, y = v and y = v + A y / j for j = m..1, with
    m >= 3 the smallest degree whose truncation bound norm^(m+1) / (m+1)! is
    at most 2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011));
    every step is a matrix-vector product, written out term by term.  The
    bound is relative to |v|, so at least three terms: a corner population
    that a step feeds only at second order, from |++> to |--> through the
    triplet, keeps its first two terms, and the concurrence, which takes its
    square root, stays precise."""
    m, bound = 1, norm * norm / 2.0
    while m < 3 or bound > 2.0**-53:
        m += 1
        bound *= norm / (m + 1)
    y = v
    for j in range(m, 0, -1):
        y0, y1, y2, y3, y4, y5 = y
        y = [vi + (a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 + a4 * y4 + a5 * y5) / j
             for vi, (a0, a1, a2, a3, a4, a5) in zip(v, A)]
    return y


def x_min_eig(r00: float, r11: float, r22: float, r33: float, c: float) -> float:
    """The least eigenvalue of the X-state of Q0 with populations r00..r33 and
    real coherence c = <+-|rho|-+>: min(r00, r33, m - h), m +- h the
    eigenvalues of [[r11, c], [c, r22]].  Its partial transpose is the
    X-state with the two pairs of populations swapped, so its least
    eigenvalue is x_min_eig(r11, r00, r33, r22, c)."""
    return min(r00, r33, (r11 + r22) / 2 - math.hypot((r11 - r22) / 2, c))


def checked_q0(v, t: float) -> tuple:
    """dynamics.evolve_traj's guards on the evolved Q0 entries v at time t, in
    closed form: a non-finite entry, or a trace that is not positive and
    finite, raises PositivityError (`check_trace`); the state is
    renormalized, its coherence Hermitized, and `check_state` reads its
    least eigenvalue.
    Returns (r00, r11, r22, r33, c)."""
    r00, r11, c21, c12, r22, r33 = v
    tr = (r00 + r11) + (r22 + r33)  # in evolve_traj's order: np.trace of a complex 4x4
    check_trace(all(map(math.isfinite, v)), tr, t)
    x = r00 / tr, r11 / tr, r22 / tr, r33 / tr, 0.5 * (c21 + c12) / tr
    check_state(x_min_eig(*x), abs(c12 - c21), tr, t)
    return x


def small_time_ppt_oracle(params: ModelParams) -> bool:
    """Whether |-> (x) |+>, evolved by a short step in Q0 under the generator's
    Q0 block M (`generator_q0`), has a partial-transpose eigenvalue below
    -_ORACLE_NEG_TOL; the state passes dynamics.evolve_traj's guards with the
    closed-form spectra of the module docstring (`checked_q0`).  The step is
    _ORACLE_DT, or _THETA_T / |M|_1 where that is shorter, and exp(step M)
    is the Taylor series (`taylor_action`); the guards' messages name the
    step taken.  A generator whose |M|_1 is not finite raises
    PositivityError, as no step can be taken."""
    M = generator_q0(params)
    norm = norm_1(M)
    if not norm < math.inf:
        raise PositivityError(f"generator has |M|_1 = {norm}, not finite")
    dt = min(_ORACLE_DT, _THETA_T / norm)
    v = taylor_action([[dt * x for x in row] for row in M], _CANONICAL_Q0, dt * norm)
    r00, r11, r22, r33, c = checked_q0(v, dt)
    return x_min_eig(r11, r00, r33, r22, c) < -_ORACLE_NEG_TOL
