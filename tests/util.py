"""Shared random generators for the property tests (all explicitly seeded),
closed-form references the library's numerical routes are checked against,
and the independent cross-check routes that no subcommand runs: the 3x3
blocks of the Kossakowski matrix, from arbitrary coefficients or from the
frequency sum at any axis; the dissipator's action on a state as the
explicit sum over K's entries (with the Pauli operators and the free
Hamiltonian it is built from); the generator assembled from it column by
column; the Choi matrix of the evolved map; and the general
entanglement-generation discriminant for any product state, with its u and
v (also by the Pauli-rotation route) and its probe functionals.  The
library evaluates that discriminant only at |-> (x) |+>, in closed form."""

import math
from dataclasses import dataclass

import numpy as np

from thermalpair import (KossakowskiCoefficients, ModelParams, ProductState, bloch_ket,
                         kossakowski_eigenvalues, min_eig_pt, partial_transpose, unvec, vec)
from thermalpair.dynamics import SIGMA, _unit_vector, expm
from thermalpair.entanglement import _BOUNDARY_REL_TOL
from thermalpair.spectral import TWO_PI, _sinc

# Levi-Civita symbol, epsilon[i, j, k]
_EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPSILON[_i, _j, _k] = 1.0
    _EPSILON[_j, _i, _k] = -1.0


def random_density(rng, dim=4):
    """Full-rank random state from a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_product_state(rng):
    return ProductState(random_bloch(rng), random_bloch(rng))


def random_separable_density(rng, terms=5):
    """Convex mixture of random product states (separable by construction)."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        rho += w * random_product_state(rng).density()
    return rho


def random_unit_complex(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    """Haar-ish proper rotation (det +1) from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_params(rng, allow_zero_temperature=True, allow_zero_ell=True):
    omega = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
    beta_omega = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    beta = beta_omega / omega
    if allow_zero_temperature and rng.random() < 0.1:
        beta = np.inf
    ell = float(rng.uniform(0.0, 12.0)) / omega
    if allow_zero_ell and rng.random() < 0.1:
        ell = 0.0
    return ModelParams(omega=omega, beta=beta, ell=ell)


def pauli_op(atom: int, axis: int) -> np.ndarray:
    """sigma_axis acting on one atom: sigma (x) 1 for atom 1, 1 (x) sigma for atom 2."""
    if atom not in (1, 2):
        raise ValueError(f"atom index must be 1 or 2, got {atom}")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {axis}")
    s = SIGMA[axis - 1]
    return np.kron(s, np.eye(2)) if atom == 1 else np.kron(np.eye(2), s)


def hamiltonian(params: ModelParams, n) -> np.ndarray:
    """Free two-atom Hamiltonian (omega/2)(n.sigma (x) 1 + 1 (x) n.sigma)."""
    h1 = sum(n[i] * SIGMA[i] for i in range(3))
    return 0.5 * params.omega * (np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1))


def dissipator_reference(K, rho):
    """d rho / dt as the explicit sum over the four blocks of K:

    (1/2) sum_{ab,ij} C^(ab)_ij (2 s_j^b rho s_i^a - s_i^a s_j^b rho - rho s_i^a s_j^b),

    a route independent of the closed-form eigenvalues and the fixed
    dissipators behind build_superoperator.
    """
    out = np.zeros((4, 4), dtype=complex)
    for a, b, c in ((1, 1, K.c11), (2, 2, K.c11), (1, 2, K.c12), (2, 1, K.c12)):
        for i in range(3):
            si = pauli_op(a, i + 1)
            for j in range(3):
                sj = pauli_op(b, j + 1)
                sij = si @ sj
                out += 0.5 * c[i, j] * (2.0 * sj @ rho @ si - sij @ rho - rho @ sij)
    return out


@dataclass(frozen=True)
class EquilibriumFamily:
    """Coefficients (a, b, c) of the ell = 0 equilibrium state."""

    a: float
    b: float
    c: float
    R: float
    tau: float


def equilibrium_coefficients(R: float, tau: float) -> EquilibriumFamily:
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    if not (-3.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [-3, 1], got {tau}")
    a = R * (tau + 3.0) / (3.0 + R * R)
    # b = (tau - R^2)/(3 + R^2): fixed by linearity of the asymptotic map in
    # the initial state together with conservation of tau (3b + c = tau);
    # also the unique choice reproducing the singlet at tau = -3 and the
    # ground state at (R, tau) = (1, 1).  Checked against the stationary
    # projector in test_asymptotic.
    b = (tau - R * R) / (3.0 + R * R)
    return EquilibriumFamily(a=a, b=b, c=R * a, R=R, tau=tau)


def equilibrium_closed_form(R: float, tau: float, n=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Closed-form ell = 0 equilibrium state rho_inf(R, tau).

    rho_inf = (1/4)[1 - a n.(sigma (x) 1 + 1 (x) sigma)
                      + sum_ij (b d_ij + c n_i n_j) sigma_i (x) sigma_j]
    """
    fam = equilibrium_coefficients(R, tau)
    n = _unit_vector(n)
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho -= fam.a * n[i] * (pauli_op(1, i + 1) + pauli_op(2, i + 1))
        for j in range(3):
            coeff = fam.b * (i == j) + fam.c * n[i] * n[j]
            rho += coeff * np.kron(SIGMA[i], SIGMA[j])
    return rho / 4.0


def asymptotic_concurrence(R: float, tau: float) -> float:
    """Concurrence of the ell = 0 equilibrium state, linear in tau:
    max{0, (3 - R^2)/(2(3 + R^2)) ((5R^2 - 3)/(3 - R^2) - tau)}.

    Equals 1 at tau = -3 (singlet) for any R and 1/2 at (R, tau) = (1, -1).
    """
    if not (0.0 <= R <= 1.0):
        raise ValueError(f"R must lie in [0, 1], got {R}")
    if not (-3.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [-3, 1], got {tau}")
    r2 = R * R
    val = (3.0 - r2) / (2.0 * (3.0 + r2)) * ((5.0 * r2 - 3.0) / (3.0 - r2) - tau)
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# the 3x3 blocks of the Kossakowski matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KossakowskiMatrix:
    """Block Kossakowski matrix [[c11, c12], [c12, c11]]: the second atom's
    blocks equal the first's by symmetry.  norm is its spectral norm |K|_2."""

    c11: np.ndarray
    c12: np.ndarray
    norm: float


def kossakowski_from_coefficients(coeffs: KossakowskiCoefficients) -> KossakowskiMatrix:
    """Blocks A 1 - iB eps.e3 + C e3 e3^T (and the primed analogue) at the
    axis e3 for any coefficients, with |K|_2 from the closed-form eigenvalues."""
    eye, eps_e3, e3_e3 = np.eye(3), _EPSILON[:, :, 2], np.diag([0.0, 0.0, 1.0])
    c11 = coeffs.A * eye - 1j * coeffs.B * eps_e3 + coeffs.C * e3_e3
    c12 = coeffs.Ap * eye - 1j * coeffs.Bp * eps_e3 + coeffs.Cp * e3_e3
    norm = float(np.abs(kossakowski_eigenvalues(coeffs)).max())
    return KossakowskiMatrix(c11=c11, c12=c12, norm=norm)


# ---------------------------------------------------------------------------
# frequency-sum construction of the Kossakowski matrix (spectral)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralValues:
    """Bath spectra at one frequency: g11 same-atom, g12 cross-atom."""

    g11: float
    g12: float
    z: float


@dataclass(frozen=True)
class PsiTensors:
    """Geometric projectors onto the 0, +, - frequency sectors of n."""

    psi0: np.ndarray
    psi_plus: np.ndarray
    psi_minus: np.ndarray


def _bose_weighted(beta: float, z: float) -> float:
    """z / (1 - exp(-beta z)) for finite beta, stable for all real z.

    A series branch handles |beta z| < 1e-6 (the expression is 0/0 at
    z = 0); the two-sided exponential form avoids overflow for large
    |beta z| of either sign.
    """
    x = beta * z
    if abs(x) < 1e-6:
        # x/(1 - e^-x) = 1 + x/2 + x^2/12 - x^4/720 + O(x^6)
        return (1.0 + x / 2.0 + x * x / 12.0 - x**4 / 720.0) / beta
    if x > 0:
        return z / -math.expm1(-x)
    return z * math.exp(x) / math.expm1(x)


def spectral_density(params: ModelParams, z: float) -> SpectralValues:
    """Evaluate the thermal spectra g11 and g12 at frequency z.

    Zero temperature gives g11(z) = z/2pi for z > 0 and 0 for z <= 0.
    The cross spectrum carries the sinc(ell z) suppression factor.
    """
    if not math.isfinite(z):
        raise ValueError(f"frequency must be finite, got {z}")
    if params.zero_temperature:
        g11 = z / TWO_PI if z > 0 else 0.0
    else:
        g11 = _bose_weighted(params.beta, z) / TWO_PI
    g12 = g11 * _sinc(params.ell * z)
    return SpectralValues(g11=g11, g12=g12, z=z)


def psi_tensors(n) -> PsiTensors:
    """psi0 = n n^T and psi+- = (1 - n n^T +- i eps.n)/2 for unit n."""
    n = _unit_vector(n)
    p0 = np.outer(n, n).astype(complex)
    eps_n = np.einsum("ijk,k->ij", _EPSILON, n)
    perp = np.eye(3) - np.outer(n, n)
    return PsiTensors(
        psi0=p0,
        psi_plus=0.5 * (perp + 1j * eps_n),
        psi_minus=0.5 * (perp - 1j * eps_n),
    )


def build_kossakowski_spectral(params: ModelParams, n) -> KossakowskiMatrix:
    """Assemble the Kossakowski blocks at the axis n from the frequency sum,
    with |K|_2 from an SVD of the 6x6 form rather than from the closed-form
    eigenvalues.

    C^(ab)_ij = sum_{xi in {+,-,0}} g_ab(xi omega) sum_k psi^(xi)_ki psi^(-xi)_kj
    """
    psi = psi_tensors(n)
    pairs = (
        (psi.psi_plus, psi.psi_minus, +params.omega),
        (psi.psi_minus, psi.psi_plus, -params.omega),
        (psi.psi0, psi.psi0, 0.0),
    )
    c11 = np.zeros((3, 3), dtype=complex)
    c12 = np.zeros((3, 3), dtype=complex)
    for psi_xi, psi_mxi, z in pairs:
        weight = np.einsum("ki,kj->ij", psi_xi, psi_mxi)
        sv = spectral_density(params, z)
        c11 += sv.g11 * weight
        c12 += sv.g12 * weight
    norm = float(np.linalg.norm(np.block([[c11, c12], [c12, c11]]), 2))
    return KossakowskiMatrix(c11=c11, c12=c12, norm=norm)


def kossakowski_6x6(K: KossakowskiMatrix) -> np.ndarray:
    """6x6 Hermitian form of K, indexed by (atom, direction)."""
    return np.block([[K.c11, K.c12], [K.c12, K.c11]])


# ---------------------------------------------------------------------------
# the generator applied to a state, and the Choi matrix of its map (dynamics)
# ---------------------------------------------------------------------------

def dissipator_apply(K: KossakowskiMatrix, rho: np.ndarray) -> np.ndarray:
    """d rho / dt of the dissipative generator for state rho (dissipator_reference
    on a checked 4x4 state).

    The output is traceless and Hermitian for Hermitian rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"state must be 4x4, got shape {rho.shape}")
    return dissipator_reference(K, rho)


def superoperator_reference(K: KossakowskiMatrix, h: np.ndarray | None = None) -> np.ndarray:
    """The 16x16 generator of K, assembled column by column from
    dissipator_reference applied to the matrix units; a Hamiltonian h adds
    the commutator -i[h, .].  This also builds generators of a K that no
    ModelParams gives, such as the infinite-temperature limit."""
    if h is None:
        h = np.zeros((4, 4))
    M = np.zeros((16, 16), dtype=complex)
    for k in range(16):
        unit = unvec(np.eye(16)[k])
        M[:, k] = vec(dissipator_reference(K, unit) - 1j * (h @ unit - unit @ h))
    return M


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


# ---------------------------------------------------------------------------
# probe functionals of the generation test (entanglement)
# ---------------------------------------------------------------------------

def is_entangled(rho: np.ndarray, tol: float = 1e-12) -> bool:
    """Exact two-qubit criterion: entangled iff min_eig_pt < -tol."""
    return min_eig_pt(rho) < -tol


def q_probe(chi: np.ndarray, rho: np.ndarray) -> float:
    """<chi| PT(rho) |chi> for a normalized probe vector chi.

    Negative values witness entanglement of rho; a product probe can
    never give a negative value.
    """
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.shape != (4,):
        raise ValueError(f"probe must be a 4-vector, got shape {chi.shape}")
    nrm = np.linalg.norm(chi)
    if nrm == 0:
        raise ValueError("probe vector must be nonzero")
    chi = chi / nrm
    return float(np.real(chi.conj() @ partial_transpose(rho) @ chi))


def q_rate(chi: np.ndarray, rho0: np.ndarray, K: KossakowskiMatrix) -> float:
    """Initial rate <chi| PT(d rho/dt) |chi> of the probe expectation.

    rho0 is meant to be a pure product state with q_probe(chi, rho0) = 0;
    a negative rate then witnesses entanglement generation at t = 0+.
    """
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(chi)
    if nrm == 0:
        raise ValueError("probe vector must be nonzero")
    chi = chi / nrm
    drho = dissipator_apply(K, rho0)
    return float(np.real(chi.conj() @ partial_transpose(drho) @ chi))


def min_q_rate(state: ProductState, K: KossakowskiMatrix):
    """Minimize q_rate over normalized probes chi with q_probe(chi, rho0) = 0.

    The constraint set is the orthogonal complement of the product vector
    carried by PT(rho0), so the exact minimum is the smallest eigenvalue
    of the compressed rate matrix.

    Returns (minimum rate, minimizing probe vector).
    """
    k1, k2 = state.kets()
    rho0 = state.density()
    rate_matrix = partial_transpose(dissipator_apply(K, rho0))
    rate_matrix = 0.5 * (rate_matrix + rate_matrix.conj().T)
    w = np.kron(k1, k2.conj())  # range of PT(rho0)
    # orthonormal basis of the 3-dim complement of w
    q, _ = np.linalg.qr(np.column_stack([w, np.eye(4)]))
    P = q[:, 1:]
    comp = P.conj().T @ rate_matrix @ P
    comp = 0.5 * (comp + comp.conj().T)

    evals, evecs = np.linalg.eigh(comp)
    return float(evals[0]), P @ evecs[:, 0]


# the Pauli matrices stacked: bra @ _SIGMAS @ ket is the 3-vector <bra|sigma_i|ket>
_SIGMAS = np.array(SIGMA)


def uv_vectors(state: ProductState) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with u_i = <phi'|sigma_i|phi> and v_i = <psi|sigma_i|psi'>.

    phi, psi are the single-atom kets and phi', psi' their antipodes
    (bloch_ket(-b)).  This is u_i = sum_j O_ij <+|sigma_j|-> for the Pauli
    rotation U^dag sigma_i U = sum_j O_ij sigma_j of U = [|phi'>, |phi>],
    and likewise for v.  Both vectors have norm sqrt(2); a phase of either
    ket only rephases u or v, which the discriminant is insensitive to.
    """
    phi, psi = state.kets()
    u = bloch_ket(-state.bloch1).conj() @ _SIGMAS @ phi
    v = psi.conj() @ _SIGMAS @ bloch_ket(-state.bloch2)
    return u, v


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the general discriminant test; generated is None inside
    the boundary band (strict inequality, inconclusive at the boundary)."""

    margin: float
    generated: bool | None

    @property
    def label(self) -> str:
        if self.generated is None:
            return "boundary"
        return "true" if self.generated else "false"


def generation_discriminant(state: ProductState, K: KossakowskiMatrix) -> GenerationVerdict:
    """The discriminant test for entanglement generation out of any pure
    product state (Benatti, Floreanini & Piani, PRL 91, 070402, 2003).

    margin = |<u| Re C12 |v>|^2 - <u|C11|u> <v|C11^T|v>; the bath starts
    entangling the pair iff margin > 0 (strict).  Verdicts within the
    library's band, _BOUNDARY_REL_TOL * |K|_2^2 of zero, are inconclusive.
    """
    u, v = uv_vectors(state)
    lhs = np.real(u.conj() @ K.c11 @ u) * np.real(v.conj() @ K.c11.T @ v)
    rhs = abs(u.conj() @ np.real(K.c12) @ v) ** 2
    margin = float(rhs - lhs)
    generated = None if abs(margin) <= _BOUNDARY_REL_TOL * K.norm ** 2 else margin > 0
    return GenerationVerdict(margin=margin, generated=generated)


def _su2_from_bloch(b) -> np.ndarray:
    """Unitary with U|-> the Bloch-b state and U|+> its antipode.

    The antipodal construction fixes the phase of the complement so that
    U is the identity for b = -e3 and the sigma1 spin flip for b = +e3.
    """
    b = np.asarray(b, dtype=float)
    return np.column_stack([bloch_ket(-b), bloch_ket(b)])


def _pauli_rotation(U: np.ndarray) -> np.ndarray:
    """Orthogonal O with U^dag sigma_i U = sum_j O_ij sigma_j."""
    O = np.zeros((3, 3))
    for i in range(3):
        X = U.conj().T @ SIGMA[i] @ U
        for j in range(3):
            O[i, j] = 0.5 * np.real(np.trace(X @ SIGMA[j]))
    return O


# <+|sigma_j|-> for j = 1, 2, 3
_M_PLUS_MINUS = np.array([1.0, -1j, 0.0])


def uv_vectors_rotation(state: ProductState):
    """(u, v) with u_i = sum_j U_ij <+|s_j|->, v_i = sum_j V_ij <-|s_j|+>.

    U, V are the Pauli rotations induced by the unitaries mapping |-> to
    the two single-atom states: the route uv_vectors' bra-sigma-ket
    products are checked against.
    """
    u = _pauli_rotation(_su2_from_bloch(state.bloch1)) @ _M_PLUS_MINUS
    v = _pauli_rotation(_su2_from_bloch(state.bloch2)) @ np.conj(_M_PLUS_MINUS)
    return u, v
