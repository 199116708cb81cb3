"""Operator algebra, dissipator, superoperator and time evolution."""

import math
import time

import numpy as np
import pytest

from thermalpair import (
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
from thermalpair import dynamics
from thermalpair.dynamics import SIGMA

from util import (build_kossakowski_spectral, choi_matrix, dissipator_apply,
                  dissipator_reference, hamiltonian, pauli_op, random_bloch, random_density,
                  random_params)

E3 = np.array([0.0, 0.0, 1.0])
P_L0 = ModelParams(omega=1.0, beta=1.0, ell=0.0)
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
        K = build_kossakowski_spectral(ModelParams(omega=1.0, beta=beta, ell=0.0), E3)
        drho = dissipator_apply(K, singlet_density())
        assert np.abs(drho).max() < 1e-14


def test_dissipator_is_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(21)
    for _ in range(50):
        K = build_kossakowski_spectral(random_params(rng), E3)
        rho = random_density(rng)
        drho = dissipator_apply(K, rho)
        assert abs(np.trace(drho)) < 1e-13
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


def test_thermal_excitation_from_double_ground():
    # from |--><--| single quanta flow into |+-> and |-+> at finite T; the
    # doubly excited population grows only at second order in time
    rho_gg = np.outer(ket(3), ket(3).conj())
    drho = dissipator_apply(K_L0, rho_gg)
    assert drho[1, 1].real > 0.0
    assert drho[2, 2].real > 0.0
    assert abs(drho[0, 0]) < 1e-15
    rho_t = evolve(M_L0, rho_gg, 0.5)
    assert rho_t[0, 0].real > 0.0


def test_dissipator_rejects_wrong_shape():
    with pytest.raises(ValueError):
        dissipator_apply(K_L0, np.eye(3, dtype=complex))


# -------------------------------------------------------------- superoperator

def test_superoperator_matches_dissipator():
    # the closed-form eigenvalues on fixed dissipators against the explicit
    # sum over K's entries, plus the commutator with the free Hamiltonian
    rng = np.random.default_rng(22)
    corners = set()
    for _ in range(100):
        p = random_params(rng)
        if math.isinf(p.beta):
            corners.add("beta=inf")
        if p.ell == 0:
            corners.add("ell=0")
        rho = random_density(rng)
        expected = dissipator_reference(build_kossakowski_spectral(p, E3), rho)
        assert np.abs(unvec(build_superoperator(p) @ vec(rho)) - expected).max() < 1e-13
        h = hamiltonian(p, E3)
        expected -= 1j * (h @ rho - rho @ h)
        M_h = build_superoperator(p, include_hs=True)
        assert np.abs(unvec(M_h @ vec(rho)) - expected).max() < 1e-13
    assert corners == {"beta=inf", "ell=0"}


def test_superoperator_conserves_charge_at_e3():
    # at n = e3 every channel keeps the charge q = m_a - m_b of |a><b|
    # (m = 1, 0, 0, -1), so M is exactly 0 between different charges, and
    # the free Hamiltonian adds exactly -i omega q to the diagonal
    m = np.array([1.0, 0.0, 0.0, -1.0])
    q = vec(m[:, None] - m[None, :]).real
    rng = np.random.default_rng(30)
    draws = [P_L0, ModelParams(omega=1.0, beta=math.inf, ell=0.0)]
    draws += [random_params(rng) for _ in range(20)]
    for p in draws:
        M = build_superoperator(p)
        assert np.all(M[q[:, None] != q[None, :]] == 0), p
        diff = build_superoperator(p, include_hs=True) - M
        np.testing.assert_array_equal(diff, np.diag(-1j * p.omega * q))


def test_local_frame_takes_the_axis_to_e3():
    # V is unitary, takes the canonical state at n to |-> (x) |+> and leaves
    # the singlet as it is
    rng = np.random.default_rng(44)
    for n in [E3, -E3] + [random_bloch(rng) for _ in range(50)]:
        V = local_frame(n)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(4), rtol=0, atol=1e-15)
        rho = ProductState(-n, n).density()
        np.testing.assert_allclose(V.conj().T @ rho @ V, canonical_state().density(),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(V.conj().T @ singlet_density() @ V, singlet_density(),
                                   rtol=0, atol=1e-15)


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
            k = bloch_ket(b)
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
    p = ModelParams(omega=1.3, beta=0.7, ell=0.4)
    K = build_kossakowski_spectral(p, E3)
    M = build_superoperator(p, include_hs=True)
    h = hamiltonian(p, E3)
    rng = np.random.default_rng(25)
    for _ in range(20):
        rho = random_density(rng)
        expected = dissipator_reference(K, rho) - 1j * (h @ rho - rho @ h)
        assert np.abs(unvec(M @ vec(rho)) - expected).max() < 1e-13
    ev = np.linalg.eigvals(M)
    assert ev.real.max() <= 1e-12 * np.abs(ev).max()


# -------------------------------------------------------------------- evolve

def test_evolve_identity_at_zero_time():
    rho0 = canonical_state().density()
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
        rho_t = evolve(M_L0, singlet_density(), t)
        assert np.abs(rho_t - singlet_density()).max() < 1e-12


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(M_L0, singlet_density(), -1.0)


def test_evolve_flags_positivity_violation():
    # reversed generator drives a pure product state out of the state space
    with pytest.raises(PositivityError):
        evolve(-M_L0, canonical_state().density(), 5.0)


def test_evolve_flags_nonpositive_trace():
    # exp(i pi) = -1 maps rho0 to -rho0, a finite result of trace -1
    with pytest.raises(PositivityError, match="trace"):
        evolve(1j * math.pi * np.eye(16), singlet_density(), 1.0)


def test_evolve_reports_a_repaired_trace_deviation_on_one_stderr_line(capsys):
    # at t = 1e5 the matrix exponential's 25 squarings leave a trace
    # deviation of 5e-9, above 1e-10, which evolve repairs and reports
    p = ModelParams(omega=1.0, beta=0.001, ell=1.0)
    M = build_superoperator(p)
    evolve(M, canonical_state().density(), 1e5)
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
        t = float(rng.uniform(0.0, 50.0 / p.omega))
        rho_t = evolve(M, rho0, t)
        assert np.linalg.eigvalsh(rho_t).min() >= -1e-10
        assert abs(np.trace(rho_t).real - 1.0) < 1e-12


# ------------------------------------------- matrix exponential and RK45

def _corner_generators(seed, count):
    """(label, M) for `count` seeded random_params, include_hs on every
    other one; asserts that beta = inf, ell = 0 and include_hs all occur."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    for k in range(count):
        p = random_params(rng)
        include_hs = k % 2 == 1
        seen |= {"beta_inf"} if math.isinf(p.beta) else set()
        seen |= {"ell_0"} if p.ell == 0 else set()
        seen |= {"include_hs"} if include_hs else set()
        out.append((f"{p} include_hs={include_hs}",
                    build_superoperator(p, include_hs)))
    assert seen == {"beta_inf", "ell_0", "include_hs"}
    return out


def test_expm_matches_scipy():
    from scipy.linalg import expm as scipy_expm  # reference route, tests only

    for label, M in _corner_generators(41, 120):
        for t in (1e-6, 0.3, 5.0, 400.0, 1e5):
            ref = scipy_expm(t * M)
            diff = np.abs(dynamics.expm(t * M) - ref).max()
            # 1e-10, or the rounding of the entries of t M where that is larger
            # (1-norm above ~5e5, undamped include_hs oscillations at t = 1e5):
            # there both routes are ~1e-10 away from a 40-digit reference
            tol = max(1e-10, np.finfo(float).eps * np.abs(t * M).sum(axis=0).max())
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
    for label, M in _corner_generators(41, 40):
        times = GRIDS[grid]
        y0 = vec(random_density(rng))
        ys = dynamics.solve_ivp(M, y0, times)
        assert ys.shape == (16, len(times))
        if times[0] == 0:
            np.testing.assert_array_equal(ys[:, 0], y0)
        ref = np.array([dynamics.expm(t * M) @ y0 for t in times]).T
        assert np.abs(ys - ref).max() <= dynamics._RK_AGREE_TOL, label


# ---------------------------------------------------------------- trajectory

def test_evolve_traj_trivial_grid():
    rho0 = canonical_state().density()
    states = evolve_traj(M_L0, rho0, [0.0])
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
    y0 = vec(canonical_state().density())
    times = np.array([0.0, 1e-300, 3e-300])
    ys = dynamics.solve_ivp(1e300 * M_L0, y0, times)
    ref = np.array([dynamics.expm(t * M_L0) @ y0 for t in (0.0, 1.0, 3.0)]).T
    assert np.abs(ys - ref).max() <= dynamics._RK_AGREE_TOL


def test_evolve_traj_guard_fires_on_disagreement(monkeypatch):
    real = dynamics.solve_ivp

    def perturbed(*args):
        return real(*args) + 1e-6

    monkeypatch.setattr(dynamics, "solve_ivp", perturbed)
    with pytest.raises(RuntimeError, match="disagree"):
        evolve_traj(M_L0, canonical_state().density(), [0.0, 1.0, 2.0])


def test_evolve_traj_guard_fires_on_failed_integration(monkeypatch):
    # the RK45 route alone sees a generator with a NaN entry
    real = dynamics.solve_ivp

    def failed(M, *args):
        M = M.copy()
        M[3, 5] = np.nan
        return real(M, *args)

    monkeypatch.setattr(dynamics, "solve_ivp", failed)
    with pytest.raises(RuntimeError, match="integration failed"):
        evolve_traj(M_L0, canonical_state().density(), [0.0, 1.0, 2.0])


def test_solve_ivp_fails_on_nan_generator():
    M = M_L0.copy()
    M[3, 5] = np.nan
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="integration failed"):
        dynamics.solve_ivp(M, vec(singlet_density()), np.array([0.0, 1.0, 2.0]))
    assert time.perf_counter() - start < 5.0


def test_evolve_traj_rejects_bad_grid():
    rho0 = singlet_density()
    with pytest.raises(ValueError):
        evolve_traj(M_L0, rho0, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_traj(M_L0, rho0, [-1.0, 1.0])


# -------------------------------------------------------- CP witness (Choi)

def test_choi_matrix_is_positive():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_params(rng)
        M = build_superoperator(p)
        choi = choi_matrix(M, 0.1 / p.omega)
        np.testing.assert_allclose(choi, choi.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(choi).min() >= -1e-10


# ----------------------------------------------------------------- tau, misc

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
