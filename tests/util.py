"""Shared random generators for the property tests (all explicitly seeded),
closed-form references the library's numerical routes are checked against,
and the independent cross-check routes that no subcommand runs: the 3x3
blocks of the Kossakowski matrix, from arbitrary coefficients or from the
frequency sum at any axis, and its eigenvalues as sums of the six
coefficients, which hold for any coefficients, also where K is not positive
semidefinite, and its rates in 40-digit mpmath; tau as the sum of the three
Pauli correlators; the dissipator's action on a state as the
explicit sum over K's entries (with the Pauli operators and the free
Hamiltonian it is built from); the generator as one contraction of K's 6x6
form with that sum's 36 terms on vec(rho), also with the free Hamiltonian
that the library leaves out; the Choi matrix of the evolved map; the
stationary projector from one SVD of the generator, and the spectral gap
that sizes the long-time evolution; and the general entanglement-generation
discriminant for any product state, with its u and v (also by the
Pauli-rotation route) and its probe functionals; and the small-time oracle
on the general route, any state under any 16x16 generator, and on the
charge-0 sector with numpy arrays, as the library ran it before its kernel
became plain Python; the six fixed dissipators built by kron (and
spectral's table of them expanded to dense arrays), and the asymptotic
report on numpy arrays, as the library ran it before it became plain
Python.  The library
evaluates that discriminant only at |-> (x) |+>, in closed form, runs its
oracle from that state in the charge-0 sector with closed-form spectra,
and takes the asymptotic state in closed form too."""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from thermalpair import (ConvergenceError, KossakowskiCoefficients, ModelParams, ProductState,
                         bloch_ket, build_superoperator, cli, concurrence, evolve,
                         kossakowski_coefficients, kossakowski_eigenvalues, local_frame,
                         min_eig_pt, partial_transpose, singlet_ket, tau, temperature_ratio,
                         threshold_tau, unvec, vec)
from thermalpair import PositivityError
from thermalpair.dynamics import check_state, expm
from thermalpair.entanglement import _unit_vector
from thermalpair.generation import (_BOUNDARY_REL_TOL, _CANONICAL_Q0, _ORACLE_DT,
                                    _ORACLE_NEG_TOL, _THETA_T)
from thermalpair.spectral import _ONE_MINUS_SINC_SERIES, DISSIPATORS, TWO_PI, _sinc

# the Pauli matrices sigma_x, sigma_y, sigma_z in the basis (|+>, |->)
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

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
        rho += w * np.array(random_product_state(rng).density())
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
    beta_omega = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    if allow_zero_temperature and rng.random() < 0.1:
        beta_omega = np.inf
    omega_ell = float(rng.uniform(0.0, 12.0))
    if allow_zero_ell and rng.random() < 0.1:
        omega_ell = 0.0
    return ModelParams(beta_omega=beta_omega, omega_ell=omega_ell)


def pauli_op(atom: int, axis: int) -> np.ndarray:
    """sigma_axis acting on one atom: sigma (x) 1 for atom 1, 1 (x) sigma for atom 2."""
    if atom not in (1, 2):
        raise ValueError(f"atom index must be 1 or 2, got {atom}")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {axis}")
    s = SIGMA[axis - 1]
    return np.kron(s, np.eye(2)) if atom == 1 else np.kron(np.eye(2), s)


def hamiltonian(n) -> np.ndarray:
    """Free two-atom Hamiltonian (1/2)(n.sigma (x) 1 + 1 (x) n.sigma), in
    units of omega."""
    h1 = sum(n[i] * SIGMA[i] for i in range(3))
    return 0.5 * (np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1))


def tau_reference(rho: np.ndarray) -> float:
    """sum_i Tr(rho sigma_i (x) sigma_i), the three Pauli correlators that
    dynamics.tau reads off the SWAP trace."""
    return float(sum(np.trace(rho @ np.kron(s, s)).real for s in SIGMA))


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


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_l_reference(rho: np.ndarray) -> np.ndarray:
    """Concurrence's l_1 >= .. >= l_4 by the SVD route: the singular values
    of sqrt(rho~) sqrt(rho), each root from its own eigh, with
    rho~ = (s2 x s2) rho* (s2 x s2)."""
    rho = np.asarray(rho, dtype=complex)
    flip = np.kron(SIGMA[1], SIGMA[1])
    return np.linalg.svd(_psd_sqrt(flip @ rho.conj() @ flip) @ _psd_sqrt(rho),
                         compute_uv=False)


def concurrence_reference(rho: np.ndarray) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4} from wootters_l_reference."""
    lam = wootters_l_reference(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def mp_concurrence(rho) -> float:
    """Wootters concurrence of the mpmath matrix rho at the working precision:
    the l_k as the square roots of the eigenvalues of X^dag X,
    X = sqrt(rho~) sqrt(rho), with sqrt(rho) from the clipped eigenvalues of
    rho's Hermitian part."""
    w, q = mp.eighe((rho + rho.H) / 2)
    root = q * mp.diag([mp.sqrt(max(x, 0)) for x in w]) * q.H
    flip = mp.matrix(np.kron(SIGMA[1], SIGMA[1]).real.tolist())
    X = flip * root.conjugate() * flip * root
    lam = sorted((mp.sqrt(max(x, 0)) for x in mp.eighe(X.H * X)[0]), reverse=True)
    return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


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


def kossakowski_blocks(coeffs: KossakowskiCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """(C11, C12): A 1 - iB eps.e3 + C e3 e3^T and the primed analogue at
    the axis e3, for any coefficients (sympy symbols too)."""
    eye, eps_e3, e3_e3 = np.eye(3), _EPSILON[:, :, 2], np.diag([0.0, 0.0, 1.0])
    return (coeffs.A * eye - 1j * coeffs.B * eps_e3 + coeffs.C * e3_e3,
            coeffs.Ap * eye - 1j * coeffs.Bp * eps_e3 + coeffs.Cp * e3_e3)


def coefficient_rates(coeffs: KossakowskiCoefficients) -> np.ndarray:
    """K's six eigenvalues as sums of the coefficients, for any real A, B, C,
    A', B', C' (sympy symbols too), also where K is not positive
    semidefinite.  For the collective (s = +1) and then the relative (s = -1)
    channel, with a_s = A + s A', b_s = B + s B' and c_s = C + s C': a_s + b_s
    (lowering along the axis), a_s - b_s (raising) and a_s + c_s (dephasing).
    At a ModelParams' coefficients they equal kossakowski_eigenvalues(params)
    in exact arithmetic (tests/test_exact.py); in floating point the sums
    cancel, and a_- + c_- is rounding noise, not 0."""
    rates = []
    for s in (1.0, -1.0):
        a, b, c = coeffs.A + s * coeffs.Ap, coeffs.B + s * coeffs.Bp, coeffs.C + s * coeffs.Cp
        rates += [a + b, a - b, a + c]
    return np.array(rates)


def polyval_rates(params: ModelParams) -> np.ndarray:
    """kossakowski_eigenvalues(params) as the library took them with numpy,
    the series of 1 - S by np.polyval: the bits its plain-Python Horner loop
    must give."""
    bw, x = params.beta_omega, params.omega_ell
    down = -1.0 / (TWO_PI * math.expm1(-bw))
    up = down * math.exp(-bw)
    rel = (x - math.sin(x)) / x if x >= 1.0 else x * x * np.polyval(_ONE_MINUS_SINC_SERIES, x * x)
    return np.array([down * (2.0 - rel), up * (2.0 - rel), 1.0 / (math.pi * bw),
                     down * rel, up * rel, 0.0])


def mp_rates(params: ModelParams) -> list:
    """kossakowski_eigenvalues(params) in 40-digit mpmath, from the same
    factored forms: 1 - S is (x^2/6) 1F2(1; 2, 5/2; -x^2/4), which keeps all
    its digits at every x = omega ell (1 - sin(x)/x loses them for small x)."""
    with mp.workdps(40):
        x = mp.mpf(params.omega_ell)
        rel = x**2 / 6 * mp.hyp1f2(1, 2, 2.5, -x**2 / 4)
        if math.isinf(params.beta_omega):
            down, up, two_g0 = 1 / (2 * mp.pi), mp.mpf(0), mp.mpf(0)
        else:
            b = mp.mpf(params.beta_omega)
            down = -1 / (2 * mp.pi * mp.expm1(-b))
            up, two_g0 = down * mp.exp(-b), 1 / (mp.pi * b)
        return [down * (2 - rel), up * (2 - rel), two_g0, down * rel, up * rel, mp.mpf(0)]


def kossakowski_from_coefficients(coeffs: KossakowskiCoefficients) -> KossakowskiMatrix:
    """The blocks of kossakowski_blocks, with |K|_2 from the coefficient
    sums of its eigenvalues."""
    c11, c12 = kossakowski_blocks(coeffs)
    norm = float(np.abs(coefficient_rates(coeffs)).max())
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
    """Evaluate the thermal spectra g11 and g12 at frequency z (units of omega).

    Zero temperature gives g11(z) = z/2pi for z > 0 and 0 for z <= 0.
    The cross spectrum carries the sinc(omega_ell z) suppression factor.
    """
    if not math.isfinite(z):
        raise ValueError(f"frequency must be finite, got {z}")
    if math.isinf(params.beta_omega):
        g11 = z / TWO_PI if z > 0 else 0.0
    else:
        g11 = _bose_weighted(params.beta_omega, z) / TWO_PI
    g12 = g11 * _sinc(params.omega_ell * z)
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

    C^(ab)_ij = sum_{xi in {+,-,0}} g_ab(xi) sum_k psi^(xi)_ki psi^(-xi)_kj, with
    the frequencies xi omega in units of omega
    """
    psi = psi_tensors(n)
    pairs = (
        (psi.psi_plus, psi.psi_minus, 1.0),
        (psi.psi_minus, psi.psi_plus, -1.0),
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
# the generator as one contraction, and the Choi matrix of its map (dynamics)
# ---------------------------------------------------------------------------

# the Paulis sigma_i (x) 1, then 1 (x) sigma_i, in kossakowski_6x6's order, and the
# 36 terms of dissipator_reference's double sum on vec(rho): _TERMS[a, b] vec(rho)
# is vec(2 P_b rho P_a - P_a P_b rho - rho P_a P_b)
_PAULIS = np.array([pauli_op(atom, axis) for atom in (1, 2) for axis in (1, 2, 3)])
_EYE4 = np.eye(4)
_TERMS = np.array([[2.0 * np.kron(pa.T, pb) - np.kron(_EYE4, pa @ pb)
                    - np.kron((pa @ pb).T, _EYE4) for pb in _PAULIS] for pa in _PAULIS])


def superoperator_reference(K: KossakowskiMatrix, h: np.ndarray | None = None) -> np.ndarray:
    """The 16x16 generator (1/2) sum_ab K_ab _TERMS[a, b] over the 6x6 form of
    K; a Hamiltonian h adds -i[h, .], -i (kron(1, h) - kron(h^T, 1)).  K may be
    one that no ModelParams gives, such as the infinite-temperature limit."""
    M = 0.5 * np.tensordot(kossakowski_6x6(K), _TERMS, axes=2)
    if h is not None:
        M = M - 1j * (np.kron(_EYE4, h) - np.kron(h.T, _EYE4))
    return M


def generator_with_hamiltonian(params: ModelParams) -> np.ndarray:
    """The reference generator with the free Hamiltonian at e3: K's dissipator
    plus -i[H_S, .], which the library leaves out since it commutes with the
    dissipator.  Its exponential is the library's followed by one local
    unitary on both atoms."""
    K = kossakowski_from_coefficients(kossakowski_coefficients(params))
    return superoperator_reference(K, hamiltonian((0.0, 0.0, 1.0)))


def corner_generators(seed, count):
    """(label, M) for `count` seeded random_params, with the free
    Hamiltonian (the reference generator) on every other one; asserts that
    beta = inf, ell = 0 and include_hs all occur."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    for k in range(count):
        p = random_params(rng)
        include_hs = k % 2 == 1
        seen |= {"beta_inf"} if math.isinf(p.beta_omega) else set()
        seen |= {"ell_0"} if p.omega_ell == 0 else set()
        seen |= {"include_hs"} if include_hs else set()
        out.append((f"{p} include_hs={include_hs}",
                    generator_with_hamiltonian(p) if include_hs
                    else build_superoperator(p)))
    assert seen == {"beta_inf", "ell_0", "include_hs"}
    return out


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
# the stationary projector and the long-time evolution (asymptotic)
# ---------------------------------------------------------------------------

# |Re eigenvalue| below this fraction of the largest counts as zero in spectral_gap
_GAP_REL_TOL = 1e-10

# singular values of M below this fraction of the largest span its null space
_NULLSPACE_REL_TOL = 1e-10

# the long-time evolution runs to T = _HORIZON / spectral gap, where every
# decaying mode is down by e^-200
_HORIZON = 200.0

# the projector's mask for M - i[H_S, .], which turns |a><b| (entry a + 4b of
# vec) unless m_a = m_b; the dissipator has no non-decaying mode outside its
# null space
_AT_REST = np.array([1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1], dtype=float)


def spectral_gap(M: np.ndarray) -> float:
    """Smallest nonzero |Re eigenvalue| of the generator (relaxation rate)."""
    re = np.abs(np.linalg.eigvals(M).real)
    scale = re.max()
    if scale == 0:
        raise ValueError("generator has no decaying modes")
    nonzero = re[re > _GAP_REL_TOL * scale]
    if nonzero.size == 0:
        raise ValueError("generator has no decaying modes")
    return float(nonzero.min())


def stationary_projector(M: np.ndarray) -> np.ndarray:
    """P = R (L^dag R)^{-1} L^dag from one SVD M = U diag(s) V^dag (Albert &
    Jiang, PRA 89, 022118, 2014), so that rho_inf = unvec(P vec(rho0)).

    The right null vectors R (stationary states) are the conjugated rows of
    V^dag, and the left null vectors L (conserved quantities) the matching
    columns of U, whose singular values are at most _NULLSPACE_REL_TOL *
    s_max.  The rank of P (its trace) is the dimension of the stationary
    manifold.  Near the ell -> 0+ crossover the slow mode's singular value
    reaches the threshold, and the rank decision fails there.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (16, 16):
        raise ValueError(f"expected a 16x16 generator, got shape {M.shape}")
    u, svals, vh = np.linalg.svd(M)
    null = svals <= _NULLSPACE_REL_TOL * svals[0]
    if not null.any():
        raise ValueError("empty null space: generator is not trace preserving")
    R = vh[null].conj().T
    Ldag = u[:, null].conj().T
    return R @ np.linalg.solve(Ldag @ R, Ldag)


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
    drho = dissipator_reference(K, rho0)
    return float(np.real(chi.conj() @ partial_transpose(drho) @ chi))


def min_q_rate(state: ProductState, K: KossakowskiMatrix):
    """Minimize q_rate over normalized probes chi with q_probe(chi, rho0) = 0.

    The constraint set is the orthogonal complement of the product vector
    carried by PT(rho0), so the exact minimum is the smallest eigenvalue
    of the compressed rate matrix.

    Returns (minimum rate, minimizing probe vector).
    """
    k1, k2 = map(np.array, state.kets())
    rho0 = np.array(state.density())
    rate_matrix = partial_transpose(dissipator_reference(K, rho0))
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
    phi, psi = map(np.array, state.kets())
    u = np.array(bloch_ket(-np.array(state.bloch1))).conj() @ _SIGMAS @ phi
    v = psi.conj() @ _SIGMAS @ np.array(bloch_ket(-np.array(state.bloch2)))
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


# ---------------------------------------------------------------------------
# the six fixed dissipators by kron, the reference for spectral.DISSIPATORS
# ---------------------------------------------------------------------------

def dissipator_kron(L: np.ndarray) -> np.ndarray:
    """Superoperator of D[L] rho = L rho L^dag - (1/2){L^dag L, rho}."""
    LdL = L.conj().T @ L
    eye = np.eye(4)
    return np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)


def dissipators_kron() -> np.ndarray:
    """The six fixed dissipators of the generator at e3, built from sigma-
    and the complex Pauli sigma_z: for s = +1, then s = -1, D[L] with L =
    sigma- (x) 1 + s 1 (x) sigma-, D[L^dag] and (1/2) D[Z] with Z = sigma3
    (x) 1 + s 1 (x) sigma3."""
    minus, z = np.array([[0.0, 0.0], [1.0, 0.0]]), SIGMA[2].real
    built = []
    for s in (1.0, -1.0):
        L = np.kron(minus, np.eye(2)) + s * np.kron(np.eye(2), minus)
        Z = np.kron(z, np.eye(2)) + s * np.kron(np.eye(2), z)
        built += [dissipator_kron(L), dissipator_kron(L.T), 0.5 * dissipator_kron(Z)]
    return np.array(built)


_DISSIPATORS_KRON = dissipators_kron()


def dissipators_dense() -> np.ndarray:
    """spectral.DISSIPATORS expanded to the six dense 16x16 dissipators,
    with +0.0 off the table."""
    dense = np.zeros((6, 16, 16))
    for coeffs, entries in DISSIPATORS:
        for i, j in entries:
            dense[:, i, j] = coeffs
    return dense


# ---------------------------------------------------------------------------
# the small-time oracle on the general route, and in numpy (generation)
# ---------------------------------------------------------------------------

# vec indices (a + 4b of |a><b|) of the charge-0 sector Q0 in the order of
# spectral.generator_q0, and the kron-built dissipators restricted to it
Q0 = (0, 5, 6, 9, 10, 15)
DISSIPATORS_Q0 = _DISSIPATORS_KRON[:, Q0][:, :, Q0]


def oracle_step(params: ModelParams) -> float:
    """small_time_ppt_oracle's step: _ORACLE_DT, or _THETA_T / |M_q0|_1 where that is shorter."""
    M = np.tensordot(kossakowski_eigenvalues(params), DISSIPATORS_Q0, axes=1)
    return min(_ORACLE_DT, _THETA_T / float(np.abs(M).sum(axis=0).max()))


def taylor_action_numpy(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """generation.taylor_action on arrays: the same degree rule and Horner
    steps, each a numpy matrix-vector product."""
    norm = np.abs(A).sum(axis=0).max()
    m, bound = 1, norm * norm / 2.0
    while m < 3 or bound > 2.0**-53:
        m += 1
        bound *= norm / (m + 1)
    y = v
    for j in range(m, 0, -1):
        y = v + (A @ y) / j
    return y


def small_time_ppt_oracle_numpy(params: ModelParams) -> bool:
    """generation.small_time_ppt_oracle as it was in numpy, before its kernel
    became plain Python: M_q0 as one contraction of the rates with
    DISSIPATORS_Q0, exp(step M_q0) v by taylor_action_numpy.  It steps by 0
    where |M_q0|_1 overflows, and the library raises there."""
    M = np.tensordot(kossakowski_eigenvalues(params), DISSIPATORS_Q0, axes=1)
    dt = min(_ORACLE_DT, _THETA_T / float(np.abs(M).sum(axis=0).max()))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        v = taylor_action_numpy(dt * M, np.array(_CANONICAL_Q0))
    if not np.isfinite(v).all():
        raise PositivityError(f"evolved state is not finite at t={dt}")
    r00, r11, c21, c12, r22, r33 = v.tolist()
    tr = (r00 + r11) + (r22 + r33)
    if not 0 < tr < math.inf:
        raise PositivityError(f"evolved state has trace {tr} at t={dt}")
    r00, r11, r22, r33, c = r00 / tr, r11 / tr, r22 / tr, r33 / tr, 0.5 * (c21 + c12) / tr
    check_state(min(r00, r33, (r11 + r22) / 2 - math.hypot((r11 - r22) / 2, c)),
                abs(c12 - c21), tr, dt)
    return min(r11, r22, (r00 + r33) / 2 - math.hypot((r00 - r33) / 2, c)) < -_ORACLE_NEG_TOL


def q0_row_mp(M: list, v0: list, t: float) -> list:
    """[trace, min_eig, min_eig_pt, concurrence, tau] of an evolve row, for
    the state exp(t M) v0 / trace, in 40-digit mpmath: M is the float rows
    of a generator's Q0 block, v0 the Q0 entries of a state, the exponential
    is mp.expm and every column the general route on the 4x4 state, its
    eigenvalues (mp.eighe), its partial transpose's, mp_concurrence and the
    three Pauli correlators; the trace is 1."""
    with mp.workdps(40):
        v = mp.expm(mp.mpf(t) * mp.matrix(M)) * mp.matrix(v0)
        rho = mp.zeros(4, 4)
        for k, x in zip(Q0, v):
            rho[k % 4, k // 4] = x
        rho /= sum(rho[i, i] for i in range(4))
        pt = mp.matrix(4, 4)
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            pt[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
        tau = sum(mp.re(sum((rho * mp.matrix(np.kron(s, s).tolist()))[i, i] for i in range(4)))
                  for s in SIGMA)
        return [mp.mpf(1), min(mp.eighe(rho)[0]), min(mp.eighe(pt)[0]), mp_concurrence(rho), tau]


def small_time_ppt_reference(M: np.ndarray, rho0: np.ndarray, dt: float) -> bool:
    """Evolve any state rho0 under any 16x16 generator M by dt (dynamics.evolve,
    with its guards) and report min_eig_pt < -_ORACLE_NEG_TOL: the route the
    library's small_time_ppt_oracle is checked against."""
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    return min_eig_pt(evolve(M, rho0, dt)) < -_ORACLE_NEG_TOL


# ---------------------------------------------------------------------------
# the asymptotic report on numpy arrays (asymptotic, entanglement, cli), as
# the library ran it before it became plain Python
# ---------------------------------------------------------------------------



def product_density_numpy(b1, b2) -> np.ndarray:
    """|phi> (x) |psi> of the unit Bloch vectors b1 and b2, by np.kron and np.outer."""
    k = np.kron(np.array(bloch_ket(b1)), np.array(bloch_ket(b2)))
    return np.outer(k, k.conj())


def local_frame_numpy(n) -> np.ndarray:
    """V = U (x) U of the frame U = local_frame(n), by np.kron."""
    U = np.array(local_frame(n))
    return np.kron(U, U)


def asymptotic_state_numpy(M: np.ndarray, rho0: np.ndarray, params: ModelParams):
    """asymptotic.asymptotic_state on arrays, under the 16x16 generator M:
    the closed form with c = <S|rho0|--> as singlet.conj() @ rho0[:, 3], and
    the same guard, residual |M vec(rho_inf)|_max against 1e-12 |M|_1 and
    tau kept to 1e-12 at ell = 0."""
    R = temperature_ratio(params)
    if params.omega_ell > 0:
        g = np.array([1.0 - R, 1.0 + R]) / 2.0
        rho_inf, dim = np.diag(np.kron(g, g)).astype(complex), 1
    else:
        tau0 = tau(rho0)
        p_s = (1.0 - tau0) / 4.0
        t = (1.0 - p_s) / (3.0 + R * R)
        t0 = t * (1.0 - R * R)
        rho_inf = np.diag([t * (1.0 - R) ** 2, 0.0, 0.0, t * (1.0 + R) ** 2]).astype(complex)
        rho_inf[1:3, 1:3] = np.array([[p_s + t0, t0 - p_s], [t0 - p_s, p_s + t0]]) / 2.0
        dim = 2
        if math.isinf(params.beta_omega):
            singlet = np.array(singlet_ket())
            c = singlet.conj() @ rho0[:, 3]
            rho_inf[:, 3] += c * singlet
            rho_inf[3, :] += np.conj(c) * singlet.conj()
            dim = 4
    residual = np.abs(M @ vec(rho_inf)).max()
    scale = np.abs(M).sum(axis=0).max()
    if not residual <= 1e-12 * scale:
        raise ConvergenceError(f"the predicted state is not stationary: residual "
                               f"{residual:.3e} exceeds 1e-12 |M|_1")
    if params.omega_ell == 0 and not abs(tau(rho_inf) - tau0) <= 1e-12:
        raise ConvergenceError(f"the predicted state has tau {tau(rho_inf)!r}, "
                               f"the initial state {tau0!r}")
    return rho_inf, dim


def asymptotic_report_numpy(doc: dict):
    """(exit code, standard error, report) of `asymptotic` on the config doc
    by the array routes: V from np.kron, a product or matrix state turned
    by V^dag rho0 V, the generator from the kron-built dissipators, the
    stationary state of asymptotic_state_numpy and V rho_inf V^dag.  The
    config is parsed by cli.parse_config, and a report that fails its guard
    gives exit code 5; rho_infinity is the 4x4 array."""
    config = cli.parse_config(doc)
    params, (kind, *values) = config.params, config.state
    V = local_frame_numpy(config.n)
    if kind == "matrix":
        rho0 = V.conj().T @ np.array(values[0]) @ V
    elif kind == "singlet":
        singlet = np.array(singlet_ket())
        rho0 = np.outer(singlet, singlet.conj())
    elif kind == "canonical":
        rho0 = product_density_numpy((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    else:
        rho0 = V.conj().T @ product_density_numpy(*values) @ V
    M = np.tensordot(kossakowski_eigenvalues(params), _DISSIPATORS_KRON, axes=1)
    try:
        rho_inf, dim = asymptotic_state_numpy(M, rho0, params)
        if config.include_hs and dim == 4:
            c = np.array(singlet_ket()).conj() @ rho0[:, 3]
            if 2.0 * abs(c) > cli._CONV_TOL:
                raise ConvergenceError(
                    f"the singlet/ground coherence |c| = {abs(c):.3e} turns forever under "
                    f"the free Hamiltonian: the state has no limit")
            rho_inf[1:3, 3] = rho_inf[3, 1:3] = 0.0
            dim = 2
    except ConvergenceError as exc:
        return 5, f"error: {exc}\n", None
    return 0, "", {"stationary_dim": dim, "rho_infinity": V @ rho_inf @ V.conj().T,
                   "concurrence": concurrence(rho_inf), "tau": tau(rho_inf),
                   "threshold_tau": threshold_tau(temperature_ratio(params))}
