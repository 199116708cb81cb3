"""Entanglement detection and the bath-driven generation test.

For two qubits the partial-transposition criterion is exact: a state is
entangled iff its partial transpose has a negative eigenvalue.  Wootters
concurrence quantifies the entanglement (0 separable, 1 for Bell states);
the complex conjugation in its spin-flip step is taken in the fixed
computational product basis.

Whether the common bath starts entangling a pure product state
|phi> (x) |psi> at t = 0+ is decided by a discriminant built from the
Kossakowski blocks and two complex 3-vectors u, v encoding the initial
state; for the canonical state (|->, |+> along the Hamiltonian axis) the
test collapses to R^2 + S^2 > 1 with R = tanh(beta omega / 2) and
S = sinc(omega ell).  A small-time evolution followed by the
partial-transpose test is the independent oracle the phase diagram checks
the verdict against; the tests add a second one, the exact minimum of the
initial entanglement-production rate over probe vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .spectral import KossakowskiMatrix, ModelParams, temperature_ratio, _sinc, _unit_vector


@dataclass(frozen=True)
class ProductState:
    """Pure separable two-atom state |phi> (x) |psi> given by Bloch vectors."""

    bloch1: np.ndarray
    bloch2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bloch1", _unit_vector(self.bloch1))
        object.__setattr__(self, "bloch2", _unit_vector(self.bloch2))

    def kets(self):
        return dynamics.bloch_ket(self.bloch1), dynamics.bloch_ket(self.bloch2)

    def ket(self) -> np.ndarray:
        k1, k2 = self.kets()
        return np.kron(k1, k2)

    def density(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


def canonical_state(n=(0.0, 0.0, 1.0)) -> ProductState:
    """Ground (x) excited along the Hamiltonian axis: |-> (x) |+> for n = e3."""
    n = _unit_vector(n)
    return ProductState(bloch1=-n, bloch2=n)


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the discriminant test.

    generated is None inside generation_test's boundary band (strict
    inequality test, inconclusive at the boundary).
    """

    margin: float
    generated: bool | None
    scale: float

    @property
    def label(self) -> str:
        if self.generated is None:
            return "boundary"
        return "true" if self.generated else "false"


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


_SIGMA2_SIGMA2 = np.kron(dynamics.SIGMA[1], dynamics.SIGMA[1])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are the decreasing square roots of the eigenvalues of
    rho (s2 x s2) rho* (s2 x s2), conjugation in the computational basis.
    They are computed as the singular values of sqrt(rho~) sqrt(rho),
    which keeps near-zero l_k at full absolute precision (the direct
    eigensolve of the non-Hermitian product loses half the digits there).
    """
    rho = np.asarray(rho, dtype=complex)
    rho_flip = _SIGMA2_SIGMA2 @ rho.conj() @ _SIGMA2_SIGMA2
    lam = np.linalg.svd(_psd_sqrt(rho_flip) @ _psd_sqrt(rho), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# the Pauli matrices stacked: bra @ _SIGMAS @ ket is the 3-vector <bra|sigma_i|ket>
_SIGMAS = np.array(dynamics.SIGMA)


def uv_vectors(state: ProductState) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with u_i = <phi'|sigma_i|phi> and v_i = <psi|sigma_i|psi'>.

    phi, psi are the single-atom kets and phi', psi' their antipodes
    (bloch_ket(-b)).  This is u_i = sum_j O_ij <+|sigma_j|-> for the Pauli
    rotation U^dag sigma_i U = sum_j O_ij sigma_j of U = [|phi'>, |phi>],
    and likewise for v.  Both vectors have norm sqrt(2); a phase of either
    ket only rephases u or v, which the discriminant is insensitive to.
    """
    phi, psi = state.kets()
    u = dynamics.bloch_ket(-state.bloch1).conj() @ _SIGMAS @ phi
    v = psi.conj() @ _SIGMAS @ dynamics.bloch_ket(-state.bloch2)
    return u, v


# generation_test verdicts within this fraction of |K|_2^2 of zero are inconclusive
_BOUNDARY_REL_TOL = 1e-12


def generation_test(state: ProductState, K: KossakowskiMatrix) -> GenerationVerdict:
    """Discriminant test for entanglement generation out of a product state.

    margin = |<u| Re C12 |v>|^2 - <u|C11|u> <v|C22^T|v>; the bath starts
    entangling the pair iff margin > 0 (strict).  Verdicts within
    _BOUNDARY_REL_TOL * |K|_2^2 of zero are reported as inconclusive.
    """
    u, v = uv_vectors(state)
    lhs = np.real(u.conj() @ K.c11 @ u) * np.real(v.conj() @ K.c22.T @ v)
    rhs = abs(u.conj() @ np.real(K.c12) @ v) ** 2
    margin = float(rhs - lhs)
    scale = float(np.linalg.norm(K.matrix, 2) ** 2)
    band = _BOUNDARY_REL_TOL * scale
    generated = None if abs(margin) <= band else margin > 0
    return GenerationVerdict(margin=margin, generated=generated, scale=scale)


def criterion_rs(params: ModelParams):
    """(R, S, R^2 + S^2 - 1): the canonical-state reduction of the test."""
    R = temperature_ratio(params)
    S = _sinc(params.omega * params.ell)
    return R, S, R * R + S * S - 1.0


# partial-transpose eigenvalues below -_ORACLE_NEG_TOL count as negative in the oracle
_ORACLE_NEG_TOL = 1e-13


def small_time_ppt_oracle(M: np.ndarray, rho0: np.ndarray, dt: float) -> bool:
    """Evolve a product state by dt and test the partial transpose.

    Independent verification of the discriminant verdict: evolve rho0 (a
    valid density matrix, which dynamics.evolve does not check again) by
    a short dt (of order 1e-3 per unit frequency) and report whether the
    partial transpose develops an eigenvalue below -_ORACLE_NEG_TOL.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    rho = dynamics.evolve(M, rho0, dt)
    return min_eig_pt(rho) < -_ORACLE_NEG_TOL
