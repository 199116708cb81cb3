"""Entanglement detection and the bath-driven generation test.

For two qubits the partial-transposition criterion is exact: a state is
entangled iff its partial transpose has a negative eigenvalue.  Wootters
concurrence quantifies the entanglement (0 separable, 1 for Bell states);
the complex conjugation in its spin-flip step is taken in the fixed
computational product basis.

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
evolved by a short time under K's rates (`small_time_ppt_oracle`).  That
state stays in the charge-0 sector Q0, an
X-state with populations r00..r33 and real coherence c = <+-|rho|-+>: its
spectrum r00, r33, (r11 + r22)/2 +- hypot((r11 - r22)/2, c) and its partial
transpose's r11, r22, (r00 + r33)/2 +- hypot((r00 - r33)/2, c) are closed
forms.  The tests add the oracle's general route and the exact minimum of
the initial entanglement-production rate over probe vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .spectral import (KossakowskiCoefficients, ModelParams, kossakowski_eigenvalues,
                       temperature_ratio, _sinc)


@dataclass(frozen=True)
class ProductState:
    """Pure separable two-atom state |phi> (x) |psi> given by Bloch vectors."""

    bloch1: np.ndarray
    bloch2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bloch1", dynamics._unit_vector(self.bloch1))
        object.__setattr__(self, "bloch2", dynamics._unit_vector(self.bloch2))

    def kets(self):
        return dynamics.bloch_ket(self.bloch1), dynamics.bloch_ket(self.bloch2)

    def density(self) -> np.ndarray:
        k = np.kron(*self.kets())
        return np.outer(k, k.conj())


def canonical_state() -> ProductState:
    """Ground (x) excited along the axis e3: |-> (x) |+>."""
    return ProductState(bloch1=(0.0, 0.0, -1.0), bloch2=(0.0, 0.0, 1.0))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second tensor factor (an involution).

    Transposing the first factor instead gives the same spectrum, so the
    entanglement verdicts do not depend on this choice.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)  # r[i, j, k, l] = <ij|rho|kl>
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def min_eig_pt(rho: np.ndarray) -> float:
    """Minimum eigenvalue of the partially transposed state."""
    pt = partial_transpose(rho)
    return float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T)).min())


# S = sigma2 (x) sigma2: real, symmetric and its own inverse
_SIGMA2_SIGMA2 = np.kron(dynamics.SIGMA[1], dynamics.SIGMA[1]).real


def _wootters_l(rho: np.ndarray) -> np.ndarray:
    """Concurrence's l_1 >= .. >= l_4, the singular values of X = sqrt(rho~)
    sqrt(rho) with sqrt(rho~) = S sqrt(rho)* S from one eigh, as the four
    largest eigenvalues of the Hermitian dilation [[0, X], [X^dag, 0]]."""
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    X = _SIGMA2_SIGMA2 @ root.conj() @ _SIGMA2_SIGMA2 @ root
    zero = np.zeros((4, 4))
    return np.linalg.eigvalsh(np.block([[zero, X], [X.conj().T, zero]]))[:3:-1]


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are the decreasing square roots of the eigenvalues of
    rho (s2 x s2) rho* (s2 x s2), conjugation in the computational basis.
    As singular values (`_wootters_l`), near-zero l_k keep full absolute
    precision (the direct eigensolve of the non-Hermitian product loses
    half the digits there).
    """
    lam = _wootters_l(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


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

# vec indices (a + 4b of |a><b|) of the sector m_a = m_b, which every dissipator
# maps into itself: |++><++|, |+-><+-|, |-+><+-|, |+-><-+|, |-+><-+|, |--><--|
Q0 = (0, 5, 6, 9, 10, 15)
_DISSIPATORS_Q0 = dynamics._DISSIPATORS[:, Q0][:, :, Q0]
_CANONICAL_Q0 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def small_time_ppt_oracle(params: ModelParams, dt: float) -> bool:
    """Whether |-> (x) |+>, evolved by a short step in Q0 under the generator's
    Q0 block M, has a partial-transpose eigenvalue below -_ORACLE_NEG_TOL; the
    state passes dynamics.evolve's guards with the closed-form spectra of the
    module docstring.  The step is dt (of order 1e-3 per unit frequency), or
    just under dynamics._THETA_T / |M|_1 where that is shorter, so that
    exp(step M) is always the Taylor series and never squares; the guards'
    messages name the step taken."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    M = np.tensordot(kossakowski_eigenvalues(params), _DISSIPATORS_Q0, axes=1)
    # 1 - 2^-48 absorbs the rounding of dt * M and of its column sums
    dt = min(dt, dynamics._THETA_T / float(np.abs(M).sum(axis=0).max()) * (1.0 - 2.0**-48))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        v = dynamics.expm_multiply(dt * M, _CANONICAL_Q0)
    if not np.isfinite(v).all():
        raise dynamics.PositivityError(f"evolved state is not finite at t={dt}")
    r00, r11, c21, c12, r22, r33 = v.tolist()
    tr = (r00 + r11) + (r22 + r33)  # in evolve's order: np.trace of a complex 4x4
    if not 0 < tr < math.inf:
        raise dynamics.PositivityError(f"evolved state has trace {tr} at t={dt}")
    r00, r11, r22, r33, c = r00 / tr, r11 / tr, r22 / tr, r33 / tr, 0.5 * (c21 + c12) / tr
    dynamics.check_state(min(r00, r33, (r11 + r22) / 2 - math.hypot((r11 - r22) / 2, c)),
                         abs(c12 - c21), tr, dt)
    return min(r11, r22, (r00 + r33) / 2 - math.hypot((r00 - r33) / 2, c)) < -_ORACLE_NEG_TOL
