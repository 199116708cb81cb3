"""Output checks from closed forms, in numpy only.

Nothing here imports thermalpair: the checks recompute what they compare
against from the config, so a library bug cannot pass its own test.  Each
check returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

PHASE_HEADER = "beta_omega,omega_ell,R,S,rs_margin,discriminant_margin,generated,oracle_generated"
EVOLVE_HEADER = "t,trace,min_eig,min_eig_pt,concurrence,tau"

# |R^2 + S^2 - 1| outside which the verdict must follow its sign
VERDICT_BAND = 1e-6
# the CLI's own discriminant/oracle agreement band
ORACLE_BAND = 1e-3
# Wootters concurrence takes square roots of eigenvalues, so rounding of
# order 1e-16 in a state with near-zero eigenvalues (beta*omega > ~20)
# moves it by ~1e-8
CONCURRENCE_TOL = 1e-7

_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_SIGMA_SIGMA = [np.kron(s, s) for s in _SIGMA]


def _tau(rho: np.ndarray) -> float:
    return float(sum(np.trace(rho @ ss).real for ss in _SIGMA_SIGMA))


def _min_eig_pt(rho: np.ndarray) -> float:
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T)).min())


def _ket(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    theta, phi = math.acos(max(-1.0, min(1.0, b[2]))), math.atan2(b[1], b[0])
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


def initial_density(cfg: dict) -> np.ndarray:
    """rho0 of a config, built independently of the library."""
    raw = cfg.get("initial_state", {"named": "canonical"})
    tag, value = next(iter(raw.items()))
    if tag == "matrix":
        return np.array([complex(re, im) for re, im in value]).reshape(4, 4)
    if tag == "named" and value == "singlet":
        k = np.array([0, 1, -1, 0]) / math.sqrt(2)
        return np.outer(k, k)
    if tag == "named":
        n = np.asarray(cfg.get("n", [0.0, 0.0, 1.0]))
        value = {"bloch1": -n, "bloch2": n}
    k = np.kron(_ket(value["bloch1"]), _ket(value["bloch2"]))
    return np.outer(k, k.conj())


def _r_closed(cfg: dict) -> float:
    beta = cfg.get("beta", 1.0)
    return 1.0 if beta == "inf" else math.tanh(beta * cfg.get("omega", 1.0) / 2)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_phase_diagram(cfg: dict, out: bytes, summary: bytes | None) -> str | None:
    lines = out.decode().splitlines()
    if not lines or lines[0] != PHASE_HEADER:
        return "phase-diagram header mismatch"
    bw_axis = np.linspace(*cfg["sweep"]["beta_omega"][:2], int(cfg["sweep"]["beta_omega"][2]))
    wl_axis = np.linspace(*cfg["sweep"]["omega_ell"][:2], int(cfg["sweep"]["omega_ell"][2]))
    if len(lines) - 1 != len(bw_axis) * len(wl_axis):
        return f"phase-diagram has {len(lines) - 1} rows, expected {len(bw_axis) * len(wl_axis)}"
    grid = ((bw, wl) for bw in bw_axis for wl in wl_axis)
    for row, (bw, wl) in zip(lines[1:], grid):
        f = row.split(",")
        x = [float(v) for v in f[:6]]
        R, S = math.tanh(bw / 2), (math.sin(wl) / wl if wl else 1.0)
        margin = R * R + S * S - 1
        if not (_close(x[0], bw) and _close(x[1], wl)):
            return f"grid point ({x[0]}, {x[1]}) expected ({bw}, {wl})"
        if not (_close(x[2], R) and _close(x[3], S) and _close(x[4], margin)):
            return f"R, S or rs_margin wrong at ({bw}, {wl})"
        if abs(margin) > VERDICT_BAND and f[6] != ("true" if margin > 0 else "false"):
            return f"generated={f[6]} but R^2+S^2-1={margin:.3g} at ({bw}, {wl})"
        if abs(margin) > ORACLE_BAND and f[7] != ("true" if margin > 0 else "false"):
            return f"oracle_generated={f[7]} but R^2+S^2-1={margin:.3g} at ({bw}, {wl})"
    return None


def check_evolve(cfg: dict, out: bytes, summary: bytes | None) -> str | None:
    lines = out.decode().splitlines()
    if not lines or lines[0] != EVOLVE_HEADER:
        return "evolve header mismatch"
    grid = cfg["time_grid"]
    times = (np.asarray(grid["times"]) if "times" in grid
             else np.linspace(0.0, grid["t_max"], grid["n_samples"]))
    if len(lines) - 1 != len(times):
        return f"evolve has {len(lines) - 1} rows, expected {len(times)}"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    t, trace, min_eig, _, conc, tau = rows.T
    if not all(_close(a, b) for a, b in zip(t, times)):
        return "evolve time column differs from the grid"
    if np.abs(trace - 1).max() > 1e-10:
        return f"trace off by {np.abs(trace - 1).max():.3g}"
    if min_eig.min() < -1e-8:
        return f"min_eig {min_eig.min():.3g} below -1e-8"
    # the trace is only held to 1e-10, so a pure singlet may read 1 + 1e-12
    if conc.min() < 0 or conc.max() > 1 + 1e-10:
        return f"concurrence outside [0, 1]: [{conc.min():.3g}, {conc.max():.3g}]"
    if cfg.get("ell", 0.0) == 0:
        tau0 = _tau(initial_density(cfg))
        if np.abs(tau - tau0).max() > 1e-8:
            return f"tau drifts by {np.abs(tau - tau0).max():.3g} at ell = 0"
    try:
        doc = json.loads(summary)
    except (TypeError, ValueError):
        return "evolve summary missing or not JSON"
    if not _close(doc.get("final_time", math.nan), float(times[-1])):
        return "evolve summary final_time wrong"
    return None


def check_asymptotic(cfg: dict, out: bytes, summary: bytes | None) -> str | None:
    try:
        doc = json.loads(out)
        rho = np.array([complex(re, im) for re, im in doc["rho_infinity"]]).reshape(4, 4)
        conc, tau, thr = float(doc["concurrence"]), float(doc["tau"]), float(doc["threshold_tau"])
    except (ValueError, KeyError, TypeError):
        return "asymptotic report malformed"
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        return "rho_infinity not Hermitian"
    if abs(np.trace(rho) - 1) > 1e-10:
        return f"rho_infinity trace {np.trace(rho).real!r}"
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-8:
        return "rho_infinity not PSD"
    R = _r_closed(cfg)
    r2 = R * R
    if not _close(thr, (5 * r2 - 3) / (3 - r2)):
        return f"threshold_tau {thr!r} differs from (5R^2-3)/(3-R^2)"
    if cfg.get("ell", 0.0) == 0:
        tau0 = _tau(initial_density(cfg))
        expect = max(0.0, (3 - r2) / (2 * (3 + r2)) * ((5 * r2 - 3) / (3 - r2) - tau0))
        if abs(conc - expect) > CONCURRENCE_TOL or abs(tau - tau0) > 1e-9:
            return f"ell = 0: concurrence {conc!r} or tau {tau!r}, expected {expect!r}, {tau0!r}"
    elif conc > CONCURRENCE_TOL or _min_eig_pt(rho) < -1e-10:
        return f"ell > 0 but concurrence {conc!r} or partial transpose not PSD"
    return None


CHECKS = {"phase-diagram": check_phase_diagram, "evolve": check_evolve,
          "asymptotic": check_asymptotic}
