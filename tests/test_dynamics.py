"""Operator algebra, dissipator, superoperator and time evolution."""

import hashlib
import math
import time

import numpy as np
import pytest

from thermalpair import (
    CrossCheckError,
    ModelParams,
    PositivityError,
    ProductState,
    bloch_ket,
    build_superoperator,
    canonical_state,
    evolve,
    evolve_traj,
    local_frame,
    singlet_density,
    tau,
    unvec,
    validate_density_matrix,
    vec,
)
from thermalpair import dynamics, spectral, trajectory

from util import (SIGMA, build_kossakowski_spectral, choi_matrix, corner_generators,
                  dissipator_reference, dissipators_dense, dissipators_kron,
                  generator_with_hamiltonian,
                  hamiltonian, pauli_op,
                  random_bloch, random_density, random_params, random_product_state,
                  random_unit_complex, superoperator_reference, tau_reference)

E3 = np.array([0.0, 0.0, 1.0])
P_L0 = ModelParams(beta_omega=1.0, omega_ell=0.0)
K_L0 = build_kossakowski_spectral(P_L0, E3)
M_L0 = build_superoperator(P_L0)


def ket(index):
    v = np.zeros(4, dtype=complex)
    v[index] = 1.0
    return v


# ------------------------------------------------------------- pauli algebra

def test_pauli_op_values():
    np.testing.assert_array_equal(pauli_op(1, 3), np.kron(SIGMA[2], np.eye(2)))
    np.testing.assert_array_equal(pauli_op(2, 1), np.kron(np.eye(2), SIGMA[0]))


def test_pauli_ops_commute_across_atoms():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            a, b = pauli_op(1, i), pauli_op(2, j)
            np.testing.assert_allclose(a @ b - b @ a, 0, atol=1e-16)


def test_pauli_op_rejects_bad_indices():
    with pytest.raises(ValueError):
        pauli_op(3, 1)
    with pytest.raises(ValueError):
        pauli_op(1, 0)


# ---------------------------------------------------------------- dissipator

def test_singlet_is_dark_state_at_zero_separation():
    for beta in (0.3, 1.0, math.inf):
        K = build_kossakowski_spectral(ModelParams(beta_omega=beta, omega_ell=0.0), E3)
        drho = dissipator_reference(K, np.array(singlet_density()))
        assert np.abs(drho).max() < 1e-14


def test_dissipator_is_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(21)
    for _ in range(50):
        K = build_kossakowski_spectral(random_params(rng), E3)
        rho = random_density(rng)
        drho = dissipator_reference(K, rho)
        assert abs(np.trace(drho)) < 1e-13
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


def test_thermal_excitation_from_double_ground():
    # from |--><--| single quanta flow into |+-> and |-+> at finite T; the
    # doubly excited population grows only at second order in time
    rho_gg = np.outer(ket(3), ket(3).conj())
    drho = dissipator_reference(K_L0, rho_gg)
    assert drho[1, 1].real > 0.0
    assert drho[2, 2].real > 0.0
    assert abs(drho[0, 0]) < 1e-15
    rho_t = evolve(M_L0, rho_gg, 0.5)
    assert rho_t[0, 0].real > 0.0


# -------------------------------------------------------------- superoperator

def test_superoperator_matches_dissipator():
    # the closed-form eigenvalues on fixed dissipators against the explicit
    # sum over K's entries; the reference generator with the free
    # Hamiltonian differs from M by exactly its commutator.  The fixed
    # dissipators, expanded from spectral's table, are bit for bit those
    # built by kron from the complex Pauli sigma_z, but for the sign of a
    # zero: the kron leaves -0.0 at 176 entries, the table +0.0, which M
    # holds off its 64 entries
    built, dense = dissipators_kron(), dissipators_dense()
    assert np.array_equal(dense, built)
    assert dense.tobytes() == (built + 0.0).tobytes()
    rng = np.random.default_rng(22)
    corners = set()
    for _ in range(100):
        p = random_params(rng)
        if math.isinf(p.beta_omega):
            corners.add("beta=inf")
        if p.omega_ell == 0:
            corners.add("ell=0")
        rho = random_density(rng)
        expected = dissipator_reference(build_kossakowski_spectral(p, E3), rho)
        M = build_superoperator(p)
        assert np.abs(unvec(M @ vec(rho)) - expected).max() < 1e-13
        h = hamiltonian(E3)
        expected = -1j * (h @ rho - rho @ h)
        M_h = generator_with_hamiltonian(p)
        assert np.abs(unvec((M_h - M) @ vec(rho)) - expected).max() < 1e-13
    assert corners == {"beta=inf", "ell=0"}


def test_superoperator_reference_is_the_dissipator_on_the_matrix_units():
    # the reference generator is one contraction of K's 6x6 form with the
    # 36 vec-level terms; column k must be dissipator_reference, the sum over
    # K's entries with no vec, applied to the k-th matrix unit, plus -i[h, .]
    # when a Hamiltonian is given.  K comes from the frequency sum at a random
    # axis, so that every entry of its blocks is nonzero
    rng = np.random.default_rng(26)
    corners = [(math.inf, 0.0), (math.inf, 3.0), (1.0, 0.0), (1.0, 1e-8), (0.3, 1e-300),
               (1e-20, 0.0), (1.5e-154, 2.0), (1e-3, 1e-4), (700.0, 5.0), (1e4, 0.0)]
    draws = [random_params(rng) for _ in range(20)]
    for p in [ModelParams(beta_omega=bw, omega_ell=wl) for bw, wl in corners] + draws:
        K = build_kossakowski_spectral(p, random_bloch(rng))
        for h in (None, hamiltonian(random_bloch(rng))):
            M = superoperator_reference(K, h)
            for k in range(16):
                unit = unvec(np.eye(16)[k])
                expected = dissipator_reference(K, unit)
                if h is not None:
                    expected = expected - 1j * (h @ unit - unit @ h)
                assert np.abs(M[:, k] - vec(expected)).max() <= 1e-15 * np.abs(M).max(), (p, k)


def test_superoperator_conserves_charge_at_e3():
    # at n = e3 every channel keeps the charge q = m_a - m_b of |a><b|
    # (m = 1, 0, 0, -1), so M is exactly 0 between different charges; the
    # free Hamiltonian's -i[H_S, .] is exactly -i omega q on the diagonal,
    # so it commutes with M exactly and the generator can leave it out
    m = np.array([1.0, 0.0, 0.0, -1.0])
    q = vec(m[:, None] - m[None, :]).real
    rng = np.random.default_rng(30)
    draws = [P_L0, ModelParams(beta_omega=math.inf, omega_ell=0.0)]
    draws += [random_params(rng) for _ in range(20)]
    for p in draws:
        M = build_superoperator(p)
        assert np.all(M[q[:, None] != q[None, :]] == 0), p
        h = hamiltonian(E3)
        L_h = -1j * (np.kron(np.eye(4), h) - np.kron(h.T, np.eye(4)))
        np.testing.assert_array_equal(L_h, np.diag(-1j * q))
        np.testing.assert_array_equal(M @ L_h, L_h @ M)


def test_local_frame_takes_the_axis_to_e3():
    # V is unitary, takes the canonical state at n to |-> (x) |+> and leaves
    # the singlet as it is
    rng = np.random.default_rng(44)
    for n in [E3, -E3] + [random_bloch(rng) for _ in range(50)]:
        V = np.kron(local_frame(n), local_frame(n))
        np.testing.assert_allclose(V.conj().T @ V, np.eye(4), rtol=0, atol=1e-15)
        rho = np.array(ProductState(-n, n).density())
        np.testing.assert_allclose(V.conj().T @ rho @ V, np.array(canonical_state().density()),
                                   rtol=0, atol=1e-15)
        singlet = np.array(singlet_density())
        np.testing.assert_allclose(V.conj().T @ singlet @ V, singlet, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [[0.0, 0.0, 2.0], [math.nan, 0.0, 0.0], [0.0, 1.0]])
def test_local_frame_rejects_a_non_unit_axis(n):
    with pytest.raises(ValueError):
        local_frame(n)


def test_bloch_ket_is_accurate_near_the_poles():
    # the ket's Bloch vector <k|sigma_i|k> gives back b to rounding at every
    # distance from the poles, and the poles themselves exactly
    np.testing.assert_array_equal(bloch_ket(E3), [1.0, 0.0])
    np.testing.assert_array_equal(bloch_ket(-E3), [0.0, 1.0])
    for eps in 10.0 ** -np.arange(1, 17):
        for sign in (1.0, -1.0):
            b = np.array([eps, -2.0 * eps, sign])
            b /= np.linalg.norm(b)
            k = np.array(bloch_ket(b))
            bloch = [np.real(k.conj() @ s @ k) for s in SIGMA]
            assert np.abs(bloch - b).max() <= 1e-15, (b, bloch)
            assert abs(np.linalg.norm(k) - 1.0) <= 1e-15


def test_superoperator_spectrum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_params(rng)
        M = build_superoperator(p)
        ev = np.linalg.eigvals(M)
        assert np.abs(ev).min() < 1e-10 * max(np.abs(ev).max(), 1.0)  # stationary state
        assert ev.real.max() <= 1e-12 * max(np.abs(ev).max(), 1.0)   # contraction


def test_superoperator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(24)
    # left action on the trace functional vanishes
    assert np.abs(vec(np.eye(4)).conj() @ M_L0).max() < 1e-13
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        image = unvec(M_L0 @ vec(h))
        np.testing.assert_allclose(image, image.conj().T, atol=1e-12)


def test_superoperator_with_hamiltonian():
    # the reference generator with the free Hamiltonian evolves a state as
    # M does, followed by exp(-i H_S t), the same turn on both atoms
    p = ModelParams(beta_omega=0.91, omega_ell=0.52)
    K = build_kossakowski_spectral(p, E3)
    M = build_superoperator(p)
    M_h = generator_with_hamiltonian(p)
    h = hamiltonian(E3)
    rng = np.random.default_rng(25)
    for _ in range(20):
        rho = random_density(rng)
        expected = dissipator_reference(K, rho) - 1j * (h @ rho - rho @ h)
        assert np.abs(unvec(M_h @ vec(rho)) - expected).max() < 1e-13
        t = float(rng.uniform(0.0, 10.0))
        U = np.diag(np.exp(-1j * t * np.diag(h)))  # h is diagonal at e3
        turned = U @ evolve(M, rho, t) @ U.conj().T
        assert np.abs(evolve(M_h, rho, t) - turned).max() < 1e-13
    ev = np.linalg.eigvals(M_h)
    assert ev.real.max() <= 1e-12 * np.abs(ev).max()


# -------------------------------------------------------------------- evolve

def test_evolve_identity_at_zero_time():
    rho0 = np.array(canonical_state().density())
    np.testing.assert_array_equal(evolve(M_L0, rho0, 0.0), rho0)


def test_evolve_semigroup_law():
    rng = np.random.default_rng(26)
    for _ in range(10):
        rho0 = random_density(rng)
        t1, t2 = rng.uniform(0.1, 5.0, size=2)
        via_steps = evolve(M_L0, evolve(M_L0, rho0, t1), t2)
        direct = evolve(M_L0, rho0, t1 + t2)
        assert np.abs(via_steps - direct).max() < 1e-10


def test_evolve_keeps_singlet_stationary():
    for t in (0.5, 5.0, 50.0):
        rho_t = evolve(M_L0, np.array(singlet_density()), t)
        assert np.abs(rho_t - np.array(singlet_density())).max() < 1e-12


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(M_L0, np.array(singlet_density()), -1.0)


def test_evolve_flags_positivity_violation():
    # reversed generator drives a pure product state out of the state space
    with pytest.raises(PositivityError):
        evolve(-M_L0, np.array(canonical_state().density()), 5.0)


def test_evolve_flags_nonpositive_trace():
    # exp(i pi) = -1 maps rho0 to -rho0, a finite result of trace -1
    with pytest.raises(PositivityError, match="trace"):
        evolve(1j * math.pi * np.eye(16), np.array(singlet_density()), 1.0)


def test_evolve_reports_a_repaired_trace_deviation_on_one_stderr_line(capsys):
    # at t = 1e5 the matrix exponential's 25 squarings leave a trace
    # deviation of 5e-9, above 1e-10, which evolve repairs and reports
    p = ModelParams(beta_omega=0.001, omega_ell=1.0)
    M = build_superoperator(p)
    evolve(M, np.array(canonical_state().density()), 1e5)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("evolve deviations at t=100000:")


def test_positivity_preserved_forward():
    rng = np.random.default_rng(27)
    for _ in range(20):
        p = random_params(rng)
        M = build_superoperator(p)
        rho0 = random_density(rng)
        t = float(rng.uniform(0.0, 50.0))
        rho_t = evolve(M, rho0, t)
        assert np.linalg.eigvalsh(rho_t).min() >= -1e-10
        assert abs(np.trace(rho_t).real - 1.0) < 1e-12


# ------------------------------------------- matrix exponential and RK45

def test_expm_matches_scipy():
    from scipy.linalg import expm as scipy_expm  # reference route, tests only

    eps = np.finfo(float).eps
    for label, M in corner_generators(41, 120):
        for t in (1e-6, 0.3, 5.0, 400.0, 1e5):
            ref = scipy_expm(t * M)
            diff = np.abs(dynamics.expm(t * M) - ref).max()
            # 1e-10, or the rounding of the entries of t M where that is larger
            # (1-norm above ~5e5, undamped include_hs oscillations at t = 1e5):
            # there both routes are ~1e-10 away from a 40-digit reference
            tol = max(1e-10, eps * np.abs(t * M).sum(axis=0).max())
            assert diff <= tol * max(1.0, np.abs(ref).max()), (label, t, diff)


def test_expm_closed_forms():
    np.testing.assert_allclose(dynamics.expm(np.zeros((16, 16), dtype=complex)),
                               np.eye(16), rtol=0, atol=1e-15)
    d = np.array([-300.0, -2.0, 0.0, 1e-9, 1.5j, 3.0 - 40.0j])
    np.testing.assert_allclose(dynamics.expm(np.diag(d)), np.diag(np.exp(d)),
                               rtol=1e-13, atol=1e-300)
    # nilpotent, N^4 = 0: exp(N) = I + N + N^2/2 + N^3/6
    N = np.triu(np.full((4, 4), 7.0), 1)
    np.testing.assert_allclose(dynamics.expm(N), np.eye(4) + N + N @ N / 2 + N @ N @ N / 6,
                               rtol=1e-14)


GRIDS = {
    "uniform": np.linspace(0.0, 40.0, 41),
    "log": np.geomspace(1e-4, 100.0, 30),
    "log_from_zero": np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 25)]),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_solve_ivp_matches_expm(grid):
    rng = np.random.default_rng(42)
    for label, M in corner_generators(41, 40):
        times = GRIDS[grid]
        y0 = vec(random_density(rng))
        ys = np.array(list(dynamics.solve_ivp(M, y0, times))).T
        assert ys.shape == (16, len(times))
        if times[0] == 0:
            np.testing.assert_array_equal(ys[:, 0], y0)
        ref = np.array([dynamics.expm(t * M) @ y0 for t in times]).T
        assert np.abs(ys - ref).max() <= trajectory.RK_AGREE_TOL, label


# ---------------------------------------------------------------- trajectory

def test_evolve_traj_trivial_grid():
    rho0 = np.array(canonical_state().density())
    states = list(evolve_traj(M_L0, rho0, [0.0]))
    assert len(states) == 1
    np.testing.assert_array_equal(states[0], rho0)


def test_evolve_traj_agrees_with_rk_and_conserves():
    rng = np.random.default_rng(28)
    rho0 = random_density(rng)
    times = np.linspace(0.0, 40.0, 21)
    states = evolve_traj(M_L0, rho0, times)  # raises if expm/RK45 disagree > 1e-8
    tau0 = tau(rho0)
    for rho in states:
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert abs(tau(rho) - tau0) < 1e-9  # collective generator conserves tau


def test_solve_ivp_at_extreme_scales():
    # rates of 1e300 over times of 1e-300: dy/dt overflows the first-step
    # estimate, and the step size starts from 10 ulp(0) instead
    y0 = vec(np.array(canonical_state().density()))
    times = np.array([0.0, 1e-300, 3e-300])
    ys = np.array(list(dynamics.solve_ivp(1e300 * M_L0, y0, times))).T
    ref = np.array([dynamics.expm(t * M_L0) @ y0 for t in (0.0, 1.0, 3.0)]).T
    assert np.abs(ys - ref).max() <= trajectory.RK_AGREE_TOL


def test_evolve_traj_guard_fires_on_disagreement(monkeypatch):
    real = dynamics.solve_ivp

    def perturbed(*args):
        return (y + 1e-6 for y in real(*args))

    monkeypatch.setattr(dynamics, "solve_ivp", perturbed)
    with pytest.raises(CrossCheckError, match="disagree"):
        list(evolve_traj(M_L0, np.array(canonical_state().density()), [0.0, 1.0, 2.0]))


def test_evolve_traj_guard_fires_on_failed_integration(monkeypatch):
    # the RK45 route alone sees a generator with a NaN entry
    real = dynamics.solve_ivp

    def failed(M, *args):
        M = M.copy()
        M[3, 5] = np.nan
        return real(M, *args)

    monkeypatch.setattr(dynamics, "solve_ivp", failed)
    with pytest.raises(CrossCheckError, match="integration failed"):
        list(evolve_traj(M_L0, np.array(canonical_state().density()), [0.0, 1.0, 2.0]))


def test_solve_ivp_fails_on_nan_generator():
    M = M_L0.copy()
    M[3, 5] = np.nan
    start = time.perf_counter()
    with pytest.raises(CrossCheckError, match="integration failed"):
        list(dynamics.solve_ivp(M, vec(np.array(singlet_density())), np.array([0.0, 1.0, 2.0])))
    assert time.perf_counter() - start < 5.0


# ------------------------------------------------ the shared RK45 step control

@pytest.mark.parametrize("err,message", [
    (2.0, r"step size \S+ at t=0$"),
    (math.nan, r"non-finite solution at t=0$"),
], ids=["rejected", "non-finite"])
def test_dormand_prince_fails_from_the_first_step(err, message):
    # stages whose error estimate never passes: the sample at t = 0 is y
    # itself, and the next() past it raises, after the rejections shrink h
    # below 10 ulp(0) or at once on a non-finite estimate
    y = [1.0]
    steps = trajectory.dormand_prince(lambda y, k1, step: (y, k1, err), y, [-1.0], 1.0, 1.0,
                                      [0.0, 1.0])
    assert next(steps) is y
    with pytest.raises(CrossCheckError, match="^RK45 cross-check integration failed: " + message):
        next(steps)


def test_solve_q0_lands_on_every_sample():
    # y' = -y from y0: y0 itself at t = 0, then exp(-t) y0 at each sample,
    # which a step that overshot or stopped short of a sample would miss
    M = [[-1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    y0 = [1.0, 0.5, -0.25, 0.125, 2.0, 0.0]
    times = [0.0, 1e-3, 0.7, 0.70001, 3.0, 10.0]
    ys = trajectory.solve_q0(M, y0, times)
    assert next(ys) is y0
    for t, y in zip(times[1:], ys):
        assert max(abs(a - math.exp(-t) * b) for a, b in zip(y, y0)) <= 1e-10, t
    assert next(ys, None) is None


def test_rk45_kernels_take_pinned_steps(monkeypatch):
    # one fixed problem per kernel: the count of right-hand-side products and
    # the bytes of the last sample, so a change to the step control or to
    # either kernel's stages shows
    class Counted:
        """M, counting its products."""

        def __init__(self, M):
            self.M, self.products = M, 0

        def __matmul__(self, y):
            self.products += 1
            return self.M @ y

    params = ModelParams(beta_omega=2.0, omega_ell=0.7)
    M = Counted(build_superoperator(params))
    y0 = vec(np.array(ProductState((0.6, 0.8, 0.0), (0.0, 0.0, -1.0)).density()))
    *_, last = dynamics.solve_ivp(M, y0, np.linspace(0.0, 5.0, 6))
    assert M.products == 589
    assert hashlib.sha256(last.tobytes()).hexdigest() == (
        "a39669a3fa0e7299daa94ccb55555d9d2e9d4bb684197d0eabe142cca3339b47")

    products, matvec = [], trajectory._matvec

    def counting(A, y):
        products.append(y)
        return matvec(A, y)

    monkeypatch.setattr(trajectory, "_matvec", counting)
    *_, last = trajectory.solve_q0(spectral.generator_q0(params), [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                                   [0.0, 1.0, 2.5, 5.0])
    assert len(products) == 631
    assert [x.hex() for x in last] == [
        "0x1.e96c9cff9265dp-7", "0x1.89ef9306797bbp-3", "-0x1.6d1d1e536b9abp-3",
        "-0x1.6d1d1e536b9abp-3", "0x1.43a7646337cadp-2", "0x1.e8156d318ee44p-2"]


def test_evolve_traj_rejects_bad_grid():
    rho0 = np.array(singlet_density())
    with pytest.raises(ValueError):
        list(evolve_traj(M_L0, rho0, [0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        list(evolve_traj(M_L0, rho0, [-1.0, 1.0]))


# -------------------------------------------------------- CP witness (Choi)

def test_choi_matrix_is_positive():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_params(rng)
        M = build_superoperator(p)
        choi = choi_matrix(M, 0.1)
        np.testing.assert_allclose(choi, choi.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(choi).min() >= -1e-10


# ----------------------------------------------------------------- tau, misc

def test_tau_is_the_pauli_sum():
    # the four entries of the SWAP trace against the three Pauli correlators,
    # on full-rank, pure and product states
    rng = np.random.default_rng(48)
    for _ in range(100):
        ket = random_unit_complex(rng)
        for rho in (random_density(rng), np.array(random_product_state(rng).density()),
                    np.outer(ket, ket.conj())):
            assert abs(tau(rho) - tau_reference(rho)) <= 1e-15


def test_tau_reference_values():
    assert tau(singlet_density()) == pytest.approx(-3.0, abs=1e-14)
    rho_mp = np.outer(np.kron([0, 1], [1, 0]), np.kron([0, 1], [1, 0]))
    assert tau(rho_mp.astype(complex)) == pytest.approx(-1.0, abs=1e-14)
    assert tau(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.0, abs=1e-14)


def test_validate_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(4, dtype=complex))  # trace 4
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        validate_density_matrix(bad)  # not Hermitian
    neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(neg)
