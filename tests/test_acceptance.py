"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import math

import numpy as np

from thermalpair import (
    ModelParams,
    build_superoperator,
    canonical_state,
    concurrence,
    criterion_rs,
    evolve,
    evolve_traj,
    generation_test,
    kossakowski_coefficients,
    min_eig_pt,
    tau,
    temperature_ratio,
    threshold_tau,
    trace_norm,
    unvec,
    vec,
)
from thermalpair.spectral import KossakowskiCoefficients

from util import (_HORIZON, asymptotic_concurrence, build_kossakowski_spectral, choi_matrix,
                  dissipator_reference, equilibrium_closed_form, generation_discriminant,
                  kossakowski_6x6, kossakowski_from_coefficients, random_density, random_params,
                  random_rotation, small_time_ppt_reference, spectral_gap,
                  stationary_projector)

E3 = np.array([0.0, 0.0, 1.0])
BETA_OMEGA_GRID = np.linspace(0.1, 10.0, 40)
OMEGA_ELL_GRID = np.linspace(0.0, 3.0 * math.pi, 40)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_reduction_sign_match():
    """Discriminant sign equals sign of R^2 + S^2 - 1 on the 40x40 grid, for
    the general product-state discriminant at the canonical state and for
    the library's closed form of it."""
    state = canonical_state()
    mismatches = 0
    checked = 0
    for bw in BETA_OMEGA_GRID:
        for wl in OMEGA_ELL_GRID:
            p = ModelParams(beta_omega=bw, omega_ell=wl)
            coeffs = kossakowski_coefficients(p)
            verdict = generation_discriminant(state, kossakowski_from_coefficients(coeffs))
            margin, _ = generation_test(coeffs)
            _, _, rs = criterion_rs(p)
            if abs(rs) <= 1e-10:
                continue
            checked += 1
            if np.sign(verdict.margin) != np.sign(rs) or np.sign(margin) != np.sign(rs):
                mismatches += 1
    _report(1, "generation criterion reduction", mismatches == 0,
            f"{mismatches} sign mismatches on {checked} grid points")


def test_criterion_2_small_time_oracle_equivalence():
    """Small-time PPT oracle (omega*dt = 1e-3) agrees wherever |rs| > 1e-3."""
    state = canonical_state()
    rho0 = np.array(state.density())
    mismatches = 0
    checked = 0
    for bw in BETA_OMEGA_GRID:
        for wl in OMEGA_ELL_GRID:
            p = ModelParams(beta_omega=bw, omega_ell=wl)
            _, _, rs = criterion_rs(p)
            if abs(rs) <= 1e-3:
                continue
            checked += 1
            M = build_superoperator(p)
            oracle = small_time_ppt_reference(M, rho0, 1e-3)
            if oracle != (rs > 0):
                mismatches += 1
    _report(2, "oracle equivalence", mismatches == 0,
            f"{mismatches} disagreements on {checked} grid points")


def test_criterion_3_zero_separation_robustness():
    """ell = 0 generates at every finite temperature; R = 0 limit does not."""
    ok = True
    details = []
    for bw in (0.01, 0.1, 1.0, 10.0):
        p = ModelParams(beta_omega=bw, omega_ell=0.0)
        _, label = generation_test(kossakowski_coefficients(p))
        if label != "true":
            ok = False
            details.append(f"beta*omega={bw} verdict {label}")
    # synthetic infinite-temperature limit: rate-scaled coefficients with B = 0
    coeffs = KossakowskiCoefficients(A=1.0, B=0.0, C=0.0, Ap=1.0, Bp=0.0, Cp=0.0)
    K = kossakowski_from_coefficients(coeffs)
    margin, label = generation_test(coeffs)
    if not (margin <= 1e-12 * K.norm ** 2 and label != "true"):
        ok = False
        details.append(f"R=0 margin {margin}")
    _report(3, "ell = 0 robustness", ok, "; ".join(details) or
            "generated at beta*omega in {0.01, 0.1, 1, 10}; R=0 margin <= 0")


def test_criterion_4_complete_positivity():
    """Kossakowski PSD on 1000 draws; Choi of exp(0.1 M) PSD on 50."""
    rng = np.random.default_rng(101)
    worst_rel, worst_herm = math.inf, 0.0
    for _ in range(1000):
        m = kossakowski_6x6(kossakowski_from_coefficients(kossakowski_coefficients(
            random_params(rng))))
        worst_herm = max(worst_herm, np.abs(m - m.conj().T).max() / max(np.abs(m).max(), 1.0))
        worst_rel = min(worst_rel, np.linalg.eigvalsh(m).min() / np.linalg.norm(m, 2))
    psd_ok = worst_rel >= -1e-12 and worst_herm <= 1e-12

    worst_choi = math.inf
    for _ in range(50):
        p = random_params(rng)
        M = build_superoperator(p)
        worst_choi = min(worst_choi, np.linalg.eigvalsh(choi_matrix(M, 0.1)).min())
    choi_ok = worst_choi >= -1e-10
    _report(4, "complete positivity", psd_ok and choi_ok,
            f"worst relative Kossakowski eig {worst_rel:.2e}, worst Choi eig {worst_choi:.2e}")


def test_criterion_5_asymptotic_concurrence():
    """Closed-form equilibrium concurrence matches the linear-in-tau formula."""
    worst = 0.0
    region_ok = True
    for R in np.round(np.arange(0.0, 1.0001, 0.1), 10):
        thr = threshold_tau(R)
        for t in np.round(np.arange(-3.0, 1.0001, 0.5), 10):
            closed = asymptotic_concurrence(R, t)
            numeric = concurrence(equilibrium_closed_form(R, t))
            worst = max(worst, abs(numeric - closed))
            if (closed > 0) != (t < thr):
                region_ok = False
    end_1 = abs(asymptotic_concurrence(0.4, -3.0) - 1.0)
    end_2 = abs(asymptotic_concurrence(1.0, -1.0) - 0.5)
    ok = worst < 1e-10 and region_ok and end_1 < 1e-12 and end_2 < 1e-12
    _report(5, "asymptotic concurrence", ok,
            f"worst grid deviation {worst:.2e}, endpoints {end_1:.1e}/{end_2:.1e}, "
            f"positive region {'matches' if region_ok else 'MISMATCH'}")


def test_criterion_6_stationarity_and_convergence():
    """||L[rho_inf]|| < 1e-12 on the grid; 100 random states converge."""
    worst_resid = 0.0
    for R in np.round(np.arange(0.0, 1.0001, 0.1), 10):
        if R == 0.0:
            coeffs = KossakowskiCoefficients(A=1.0, B=0.0, C=0.0, Ap=1.0, Bp=0.0, Cp=0.0)
            K = kossakowski_from_coefficients(coeffs)
        else:
            beta = math.inf if R == 1.0 else 2.0 * math.atanh(R)
            K = build_kossakowski_spectral(ModelParams(beta_omega=beta, omega_ell=0.0), E3)
        for t in np.round(np.arange(-3.0, 1.0001, 0.5), 10):
            resid = np.abs(dissipator_reference(K, equilibrium_closed_form(R, t))).max()
            worst_resid = max(worst_resid, resid)
    stat_ok = worst_resid < 1e-12

    p = ModelParams(beta_omega=1.0, omega_ell=0.0)
    M = build_superoperator(p)
    R = temperature_ratio(p)
    T = _HORIZON / spectral_gap(M)
    from scipy.linalg import expm
    E = expm(T * M)
    rng = np.random.default_rng(102)
    worst_dist = 0.0
    for _ in range(100):
        rho0 = random_density(rng)
        rho_T = unvec(E @ vec(rho0))
        rho_T = 0.5 * (rho_T + rho_T.conj().T)
        predicted = equilibrium_closed_form(R, tau(rho0))
        worst_dist = max(worst_dist, trace_norm(rho_T - predicted))
    conv_ok = worst_dist < 1e-8
    _report(6, "stationarity and convergence", stat_ok and conv_ok,
            f"worst generator residual {worst_resid:.2e}, worst trace-norm distance {worst_dist:.2e}")


def test_criterion_7_conservation_laws():
    """tau constant to 1e-9, trace to 1e-12, positivity to -1e-10 on trajectories."""
    p = ModelParams(beta_omega=1.0, omega_ell=0.0)
    M = build_superoperator(p)
    rng = np.random.default_rng(103)
    times = np.linspace(0.0, 50.0, 26)
    worst_tau = worst_trace = 0.0
    worst_eig = math.inf
    for _ in range(5):
        rho0 = random_density(rng)
        states = evolve_traj(M, rho0, times)  # includes the RK45 cross-check
        tau0 = tau(rho0)
        for rho in states:
            worst_tau = max(worst_tau, abs(tau(rho) - tau0))
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_eig = min(worst_eig, np.linalg.eigvalsh(rho).min())
    ok = worst_tau < 1e-9 and worst_trace < 1e-12 and worst_eig >= -1e-10
    _report(7, "conservation", ok,
            f"tau drift {worst_tau:.2e}, trace drift {worst_trace:.2e}, min eig {worst_eig:.2e}")


def test_criterion_8_finite_separation_separability():
    """The unique stationary state at ell > 0 is separable (PPT, zero concurrence)."""
    ok = True
    details = []
    rho0 = np.array(canonical_state().density())
    for wl in (0.5, 1.0, 2.0, 5.0):
        for bw in (0.5, 1.0, 2.0):
            p = ModelParams(beta_omega=bw, omega_ell=wl)
            M = build_superoperator(p)
            P = stationary_projector(M)
            dim = round(np.trace(P).real)
            rho_inf = unvec(P @ vec(rho0))
            me = min_eig_pt(rho_inf)
            cc = concurrence(rho_inf)
            if dim != 1 or me < -1e-12 or cc >= 1e-10:
                ok = False
                details.append(f"(wl={wl}, bw={bw}): dim {dim}, PT {me:.2e}, C {cc:.2e}")
    _report(8, "ell > 0 separability", ok,
            "; ".join(details) or "12 parameter points, all PPT with zero concurrence")


def test_criterion_9_cross_construction():
    """Frequency-sum and closed-form constructions agree to 1e-13 on 1000 draws:
    the frequency sum at the axis O e3, for a random rotation O, and the
    closed form at e3 turned by O."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        O = random_rotation(rng)
        O2 = np.kron(np.eye(2), O)
        diff = np.abs(kossakowski_6x6(build_kossakowski_spectral(p, O @ E3))
                      - O2 @ kossakowski_6x6(kossakowski_from_coefficients(
                          kossakowski_coefficients(p))) @ O2.T).max()
        worst = max(worst, diff)
    _report(9, "cross-construction equivalence", worst < 1e-13,
            f"worst entrywise difference {worst:.2e}")
