"""Seeded input generators, one per workload.

Every generator returns the ops of one pass, which a run replays a fixed
number of times.  The benchmark writes every config to disk before timing
starts, and the program sees only those files.

Categorical shares (state kind, include_hs, parameter corner, grid kind)
are exact counts shuffled by the seed, and continuous sizes are
stratified, so two seeds differ in which inputs they draw but not in how
much work a pass holds.  That keeps runs comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WHY = {
    "sweep": "phase-diagram grids of 64 to 1024 points: "
             "per-point K, M, discriminant, oracle and an unemitted null space; "
             "the size mix shows how a batched sweep scales",
    "trajectory": "evolve with uniform and log-spaced grids: expm samples and the RK45 "
                  "guard dominate, M assembly is ~3%, so it bypasses a faster sweep "
                  "and tests expm at t <= 400",
    "asymptotic": "asymptotic reports over the corners that finish today (ell > 0, "
                  "ell = 0 at finite beta, beta = inf at ell > 0): null space, gap and "
                  "a long-horizon expm at large norm",
    "asymptotic-corners": "asymptotic with the crossover 0 < omega*ell <= 1e-3 and "
                          "beta = inf at ell = 0 added; today these refuse with exit 5 "
                          "or raise, so fail_share shows the asymptotic-projector fix",
}

SUBCOMMAND = {"sweep": "phase-diagram", "trajectory": "evolve",
              "asymptotic": "asymptotic", "asymptotic-corners": "asymptotic"}

# Replays of the pass in one run.  Each op is timed once per replay and its
# fastest time kept, which drops the host's short slow spells from ops that
# are about as short as they are (asymptotic ~7 ms, trajectory ~0.1 s).  A
# sweep op lasts 0.2 to 2 s and averages over those spells anyway;
# replaying it would cut the ops a pass holds and pull the tail percentile
# down towards the median.
REPLAYS = {"sweep": 1, "trajectory": 3, "asymptotic": 3, "asymptotic-corners": 3}
# op runs per second of measured time on a 2-core x86 machine (Python
# 3.11, numpy/scipy on one BLAS thread); a pass holds OPS_PER_S * seconds
# / (runs per op) ops, so the same seed and --seconds give the same ops at
# any commit and on any machine
OPS_PER_S = {"sweep": 2.0, "trajectory": 7.0, "asymptotic": 120.0,
             "asymptotic-corners": 120.0}

STATE_KINDS = ("canonical", "singlet", "product", "mixed")


@dataclass
class Op:
    """One generated CLI call: its config and the work it represents."""

    config: dict
    units: int          # grid points, emitted samples or reports


def _exact_labels(rng, n: int, shares: dict) -> list:
    """n labels with the given shares as exact (rounded) counts, shuffled.

    Rounding may leave the counts one short or over; the first label pads
    or the last is cut."""
    labels = []
    for label, share in shares.items():
        labels += [label] * int(round(share * n))
    labels = (labels + [next(iter(shares))] * n)[:n]
    return [labels[i] for i in rng.permutation(n)]


def _stratified(rng, n: int) -> np.ndarray:
    """n values in [0, 1), one per stratum of width 1/n, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _unit_vector(rng) -> list:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _initial_state(rng, kind: str) -> dict:
    if kind in ("canonical", "singlet"):
        return {"named": kind}
    if kind == "product":
        return {"product": {"bloch1": _unit_vector(rng), "bloch2": _unit_vector(rng)}}
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    return {"matrix": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]}


def _model(rng, beta_omega, omega_ell) -> dict:
    """omega, beta, ell and n for dimensionless beta*omega and omega*ell."""
    omega = _log_uniform(rng, 0.25, 4.0)
    beta = "inf" if beta_omega == "inf" else beta_omega / omega
    return {"omega": omega, "beta": beta, "ell": omega_ell / omega, "n": _unit_vector(rng)}


def pass_ops(workload: str, seconds: float, runs_per_op: int) -> int:
    """Ops in one pass of a run of `seconds` that runs each op `runs_per_op` times."""
    return max(2, round(OPS_PER_S[workload] * seconds / runs_per_op))


def sweep_ops(rng, n: int) -> list:
    """Grids with seed-drawn axis lengths in [8, 40].

    Point counts sit at fixed quantiles of p(c) ~ 1/c^3 on [64, 1024], so
    most ops are small enough for a pass to hold many of them, and the
    largest are nine times the smallest.  The seed draws one axis among
    those that allow the count; the other follows from it.
    """
    lo, hi = 64.0 ** -2, 1024.0 ** -2
    targets = [int(round((lo - (k + 0.5) / n * (lo - hi)) ** -0.5)) for k in range(n)]
    hs = _exact_labels(rng, n, {True: 0.25, False: 0.75})
    ops = []
    for k, target in enumerate(rng.permutation(targets)):
        a = int(rng.integers(max(8, -(-target // 40)), min(40, target // 8) + 1))
        b = int(np.clip(round(target / a), 8, 40))
        n_bw, n_wl = (a, b) if rng.random() < 0.5 else (b, a)
        cfg = {"omega": _log_uniform(rng, 0.25, 4.0), "n": _unit_vector(rng),
               "include_hs": hs[k],
               "sweep": {"beta_omega": [rng.uniform(0.05, 0.5), rng.uniform(5.0, 20.0), n_bw],
                         "omega_ell": [0.0, rng.uniform(6.0, 12.0), n_wl]}}
        ops.append(Op(cfg, n_bw * n_wl))
    return ops


def trajectory_ops(rng, n: int) -> list:
    samples = 51 + np.floor(_stratified(rng, n) * 351).astype(int)
    t_max = 20.0 + _stratified(rng, n) * 380.0
    log_grid = _exact_labels(rng, n, {True: 0.3, False: 0.7})
    inf_beta = _exact_labels(rng, n, {True: 0.1, False: 0.9})
    ell_zero = _exact_labels(rng, n, {True: 0.2, False: 0.8})
    kinds = _exact_labels(rng, n, {k: 0.25 for k in STATE_KINDS})
    hs = _exact_labels(rng, n, {True: 0.25, False: 0.75})
    ops = []
    for k in range(n):
        bw = "inf" if inf_beta[k] else _log_uniform(rng, 0.05, 50.0)
        wl = 0.0 if ell_zero[k] else float(rng.uniform(0.0, 12.0))
        cfg = _model(rng, bw, wl)
        cfg["include_hs"] = hs[k]
        cfg["initial_state"] = _initial_state(rng, kinds[k])
        if log_grid[k]:
            times = np.geomspace(1e-3 * t_max[k], t_max[k], samples[k])
            cfg["time_grid"] = {"times": times.tolist()}
        else:
            cfg["time_grid"] = {"t_max": float(t_max[k]), "n_samples": int(samples[k])}
        ops.append(Op(cfg, int(samples[k])))
    return ops


# parameter corners of the asymptotic workloads and their weights
ASYMPTOTIC_CORNERS = {"generic": 0.40, "ell0": 0.30, "inf_ellpos": 0.075}
ALL_CORNERS = {"generic": 0.40, "ell0": 0.30, "inf_ellpos": 0.075, "inf_ell0": 0.075,
               "crossover": 0.15}


def _corner_point(rng, corner: str):
    """(beta*omega, omega*ell) for one parameter corner."""
    bw = "inf" if corner.startswith("inf") else _log_uniform(rng, 0.05, 50.0)
    if corner in ("ell0", "inf_ell0"):
        return bw, 0.0
    if corner == "crossover":
        return bw, _log_uniform(rng, 1e-8, 1e-3)
    return bw, float(rng.uniform(1e-3, 12.0))


def asymptotic_ops(rng, n: int, corners: dict) -> list:
    total = sum(corners.values())
    which = _exact_labels(rng, n, {c: w / total for c, w in corners.items()})
    kinds = _exact_labels(rng, n, {k: 0.25 for k in STATE_KINDS})
    hs = _exact_labels(rng, n, {True: 0.25, False: 0.75})
    ops = []
    for k in range(n):
        cfg = _model(rng, *_corner_point(rng, which[k]))
        cfg["include_hs"] = hs[k]
        cfg["initial_state"] = _initial_state(rng, kinds[k])
        ops.append(Op(cfg, 1))
    return ops


def generate(workload: str, seed: int, n: int) -> list:
    """The n ops of a workload's pass; the same seed gives the same ops."""
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return sweep_ops(rng, n)
    if workload == "trajectory":
        return trajectory_ops(rng, n)
    if workload == "asymptotic":
        return asymptotic_ops(rng, n, ASYMPTOTIC_CORNERS)
    return asymptotic_ops(rng, n, ALL_CORNERS)


# smallest input of each subcommand, for the cold-start set-up time
SMALLEST = {
    "phase-diagram": {"sweep": {"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}},
    "evolve": {"ell": 0.5, "time_grid": {"t_max": 1.0, "n_samples": 2}},
    "asymptotic": {"ell": 0.5},
}
