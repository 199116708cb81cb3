"""States of the pair, the local frame of the axis, and entanglement
detection: partial transpose, its spectrum and the concurrence.

The states are 4x4 nested lists of complex numbers, built in plain
Python: the pure product states (`ProductState`) and the singlet.  The
frame of the axis n is U = [|n>, |-n>] (`local_frame`): V = U (x) U turns
a state at the axis n into the frame where the axis is e3, and `turn`
takes a state in that frame back to n.

For two qubits the partial-transposition criterion is exact: a state is
entangled iff its partial transpose has a negative eigenvalue.  Wootters
concurrence quantifies the entanglement (0 separable, 1 for Bell states);
the complex conjugation in its spin-flip step is taken in the fixed
computational product basis.  An X-state, whose entries off the diagonal
and the anti-diagonal are all exactly 0, has the closed form
C = 2 max(0, |r12| - sqrt(r00 r33), |r03| - sqrt(r11 r22)) (Yu & Eberly,
Quantum Inf. Comput. 7, 459, 2007); the asymptotic states, and the
trajectories of the named states, are X-states, since the generator at e3
couples no X entry to any other.  Any other state takes the l_k as the
singular values of T = V^T (s2 x s2) V, with V V^dag = rho from a pivoted
Cholesky factor that drops the rows that are rounding: no eigendecomposition
of rho, and no square root of an eigenvalue that is only rounding.

A matrix state from a config is checked as given
(`validate_density_matrix`), so the parser needs no trajectory module.

The module imports numpy only inside the functions that take an
eigenvalue: that check, the partial transpose's spectrum and the
concurrence of a state that is not an X-state.  The generation test at t = 0+ and its
small-time oracle need none of these; they live in `generation`.
"""

from __future__ import annotations

import math
import sys

from .generation import check_unit


def _unit_vector(v, name: str | None = None) -> tuple:
    """v as three floats, or ValueError; the message names v by name, or
    as the axis n."""
    v = tuple(map(float, v))
    if len(v) != 3:
        raise ValueError(f"{name or 'axis'} must be a real 3-vector, got {len(v)} entries")
    check_unit(v, name)
    return v


def bloch_ket(b) -> tuple:
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
    return complex(c), complex(math.cos(phi), math.sin(phi)) * s


def local_frame(n) -> list:
    """U = [|n>, |-n>] with |n> = bloch_ket(n), the frame of one atom: with
    V = U (x) U, turn(dagger(U), rho) = V^dag rho V is a state at the axis n
    in the frame where the axis is e3, and turn(U, rho) takes it back.
    Spectrum, partial-transpose spectrum, concurrence and tau do not change
    under V."""
    a, b = bloch_ket(n)
    return [[a, -b.conjugate()], [b, a.conjugate()]]


def dagger(A: list) -> list:
    """The conjugate transpose of a nested list."""
    return [[x.conjugate() for x in column] for column in zip(*A)]


def _product(A: list, B: list) -> list:
    return [[sum(a * b for a, b in zip(row, column)) for column in zip(*B)] for row in A]


def turn(U: list, rho: list) -> list:
    """V rho V^dag with V = U (x) U, for the 2x2 U and the 4x4 rho as nested
    lists."""
    V = [[U[i][k] * U[j][l] for k in (0, 1) for l in (0, 1)] for i in (0, 1) for j in (0, 1)]
    return _product(_product(V, rho), dagger(V))


def _density(ket: list) -> list:
    """|k><k| of a ket."""
    return [[x * y.conjugate() for y in ket] for x in ket]


def singlet_ket() -> list:
    """(|+-> - |-+>)/sqrt(2), the collective dark state at ell = 0."""
    s = 1.0 / math.sqrt(2.0)
    return [0j, complex(s), complex(-s), 0j]


def singlet_density() -> list:
    return _density(singlet_ket())


class ProductState:
    """Pure separable two-atom state |phi> (x) |psi> given by the unit Bloch
    vectors bloch1 and bloch2, each kept as three floats; an invalid one
    raises ValueError naming it."""

    __slots__ = ("bloch1", "bloch2")

    def __init__(self, bloch1, bloch2):
        self.bloch1 = _unit_vector(bloch1, "bloch1")
        self.bloch2 = _unit_vector(bloch2, "bloch2")

    def kets(self):
        return bloch_ket(self.bloch1), bloch_ket(self.bloch2)

    def density(self, U: list | None = None) -> list:
        """|phi psi><phi psi|, or with the frame U of local_frame(n) the state
        V^dag rho V in that frame, V = U (x) U, from the turned kets U^dag
        |phi> and U^dag |psi>."""
        k1, k2 = self.kets()
        if U is not None:
            k1, k2 = ([row[0] * k[0] + row[1] * k[1] for row in dagger(U)] for k in (k1, k2))
        return _density([x * y for x in k1 for y in k2])


def canonical_state() -> ProductState:
    """Ground (x) excited along the axis e3: |-> (x) |+>."""
    return ProductState(bloch1=(0.0, 0.0, -1.0), bloch2=(0.0, 0.0, 1.0))


# input-state checks of validate_density_matrix
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10


def validate_density_matrix(rho):
    """Check Hermiticity, unit trace and positivity of a two-qubit state, a
    4x4 nested list or array, each by a measure that no change of frame
    rho -> V^dag rho V alters but by rounding: the Frobenius norm of
    rho - rho^dag, the trace and the spectrum.  So a state that passes at
    the axis n passes in the frame of e3 too."""
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    # a difference that overflows to inf fails the check, and math.hypot
    # scales its arguments, so their norm does not overflow
    with np.errstate(over="ignore"):
        anti = np.abs(rho - rho.conj().T)
    if not math.hypot(*anti.flat) <= _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {np.trace(rho)}, expected 1")
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < _EIG_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig}")


def partial_transpose(rho):
    """Transpose on the second tensor factor (an involution), as an array.

    Transposing the first factor instead gives the same spectrum, so the
    entanglement verdicts do not depend on this choice.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)  # r[i, j, k, l] = <ij|rho|kl>
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def min_eig_pt(rho) -> float:
    """Minimum eigenvalue of the partially transposed state."""
    import numpy as np
    pt = partial_transpose(rho)
    return float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T)).min())


# a pivot at most this multiple of the largest term it was formed from is rounding
_PIVOT_REL_TOL = 4.0 * sys.float_info.epsilon


def _wootters_l(r: list):
    """Concurrence's l_1 >= .. >= l_4 of the 4x4 nested list r.

    A Cholesky factorization with diagonal pivoting of r's Hermitian part
    gives the k columns of V, V V^dag = rho.  A row is dropped once its
    diagonal is at most _PIVOT_REL_TOL times the largest term it was formed
    from, the original |a_ii| and each |c_i|^2 subtracted from it.  That is
    a per-entry rounding bound, not a global floor: it keeps the graded
    populations far below eps that a state carries to full relative
    precision.  The l_k are the singular values of the complex-symmetric
    T = V^T (s2 x s2) V, which hold for any such V: the k largest
    eigenvalues of the dilation [[0, T], [T^dag, 0]], and 0 past k.
    """
    import numpy as np
    a = [[(r[i][j] + r[j][i].conjugate()) / 2.0 for j in range(4)] for i in range(4)]
    d = [a[i][i].real for i in range(4)]
    bound = [abs(x) for x in d]
    rows, V = [0, 1, 2, 3], []
    while rows := [i for i in rows if d[i] > _PIVOT_REL_TOL * bound[i]]:
        p = max(rows, key=d.__getitem__)
        rows.remove(p)
        root = math.sqrt(d[p])
        c = [0.0] * 4
        c[p] = root
        for i in rows:
            c[i] = a[i][p] / root
        for i in rows:
            square = c[i].real ** 2 + c[i].imag ** 2
            d[i] -= square
            bound[i] = max(bound[i], square)
            for j in rows:
                a[i][j] -= c[i] * c[j].conjugate()
        V.append(c)
    # (s2 x s2) v = (-v3, v2, v1, -v0); T is symmetric, so T^dag = T*
    T = np.array([[u[1] * v[2] + u[2] * v[1] - u[0] * v[3] - u[3] * v[0] for v in V]
                  for u in V], dtype=complex)
    k = len(V)
    dilation = np.zeros((2 * k, 2 * k), dtype=complex)
    dilation[:k, k:] = T
    dilation[k:, :k] = T.conj()
    return np.concatenate((np.linalg.eigvalsh(dilation)[:k - 1:-1], np.zeros(4 - k)))


# (row, column) of the entries outside the diagonal and the anti-diagonal,
# where an X-state is 0: pairs, not a numpy mask, whose first use in a
# process takes 64 KB more resident memory
_OFF_X = [(i, j) for i in range(4) for j in range(4) if j not in (i, 3 - i)]


def _x_block(a: float, d: float, z: complex) -> tuple[float, float]:
    """(sqrt(a d), |z|) of the positive part of the Hermitian block
    [[a, z], [z*, d]], whose eigenvalues are m +- h: the block itself if
    m >= h, else (m + h)^+ times the projector on the top eigenvector, which
    gives (m + h)^+ |z| / 2h for both: a block that rounding leaves slightly
    indefinite counts with its positive part."""
    m, h = (a + d) / 2.0, math.hypot((a - d) / 2.0, abs(z))
    if m >= h:
        return math.sqrt(max(a, 0.0)) * math.sqrt(max(d, 0.0)), abs(z)
    top = (m + h) * abs(z) / (2.0 * h) if m + h > 0 else 0.0
    return top, top


def concurrence(rho) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4} of the Hermitian part
    of rho, a 4x4 nested list or array, less what rounding leaves below zero.

    The l_k are the decreasing square roots of the eigenvalues of
    rho (s2 x s2) rho* (s2 x s2), conjugation in the computational basis.
    An X-state (every entry in _OFF_X exactly 0) takes the closed form of
    the module docstring on its two 2x2 blocks (`_x_block`); any other
    state takes the l_k from the pivoted factor of `_wootters_l`.  Neither
    takes the square root of an eigenvalue that is only rounding, so a
    rank-deficient state is as accurate as a full-rank one, to a few eps.
    The closed form stays for precision and speed, not memory: on a singlet
    that rounding leaves slightly indefinite the factor is 5.1e-15 off where
    the closed form is within 2^-52, and on an X-state it is 5 to 15 times
    slower per call.
    """
    r = rho.tolist() if hasattr(rho, "tolist") else rho
    if any(r[i][j] for i, j in _OFF_X):
        lam = _wootters_l(r)
        return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
    root_out, z_out = _x_block(r[0][0].real, r[3][3].real, (r[0][3] + r[3][0].conjugate()) / 2.0)
    root_in, z_in = _x_block(r[1][1].real, r[2][2].real, (r[1][2] + r[2][1].conjugate()) / 2.0)
    return 2.0 * max(0.0, z_in - root_out, z_out - root_in)
