"""Command-line front end: coefficients, phase diagrams, trajectories, equilibria.

All inputs come from a single JSON config (path argument or standard
input); all dimensionful outputs are reported in units of omega, so CSV
and JSON carry only dimensionless groups (beta*omega, omega*ell, omega*t,
rates over omega).  Standard output carries data only; diagnostics go to
standard error.  Identical configs produce byte-identical output: floats
are printed with 17 significant digits and orderings are fixed.

The library runs at the axis e3; the axis n enters only here, as the
local frame V = dynamics.local_frame(n): the initial state goes in as
V^dag rho0 V and asymptotic's rho_infinity comes back as V rho V^dag.
No other output changes under V, and the phase diagram ignores n.

The phase diagram starts from the canonical state |-> (x) |+>: at each
grid point it evaluates the generation discriminant in closed form from
K's coefficients (`entanglement.generation_test`) and checks the verdict
against the small-time oracle, which evolves that state.

Exit codes: 0 ok, 2 config validation failure, 3 discriminant/oracle
disagreement (implementation bug guard), 4 positivity failure (a
Kossakowski matrix that is not positive semidefinite, or an evolved state
that fails a positivity check), 5 asymptotic convergence-check failure.

In-process use: ``main(argv)`` may be called any number of times in one
process.  It returns the exit code, except that a usage error (an unknown
subcommand or option) raises ``SystemExit(2)`` from argparse.  Its argument
parser is built once, when this module is imported, and no state is kept
from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import asymptotic, dynamics, entanglement
from .spectral import ModelParams, kossakowski_coefficients

PHASE_HEADER = "beta_omega,omega_ell,R,S,rs_margin,discriminant_margin,generated,oracle_generated"
EVOLVE_HEADER = "t,trace,min_eig,min_eig_pt,concurrence,tau"


# count caps: a time grid's samples and a sweep's grid points
MAX_SAMPLES = 100_000
MAX_SWEEP_POINTS = 1_000_000
# cap on the work of evolve's RK45 cross-check, (t_max / omega) |M|_1 of the
# generator at e3 that it integrates, so the same at every axis n: the
# explicit integrator's step count grows with it.  Work 1.91e5 (beta 0.001,
# ell 1, t_max 100) took 2.5 to 3.9 s on a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4), about 1.3 to 2 s of run time per 1e5 of work
MAX_RK_WORK = 2e5
# below this beta*omega the thermal factor coth(beta*omega/2) overflows the
# Kossakowski coefficients
MIN_BETA_OMEGA = 1e-300
# phase-diagram guard: the small-time oracle evolves by _ORACLE_DT / omega and
# must agree with the discriminant wherever |rs_margin| > _ORACLE_BAND
_ORACLE_DT = 1e-3
_ORACLE_BAND = 1e-3


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class SweepSpec:
    beta_omega: np.ndarray
    omega_ell: np.ndarray


@dataclass
class RunConfig:
    params: ModelParams
    frame: np.ndarray                      # V = dynamics.local_frame(n)
    rho0: np.ndarray                       # V^dag (the initial state) V
    times: np.ndarray | None = None        # units 1/omega
    sweep: SweepSpec | None = None
    include_hs: bool = False


@dataclass
class SweepRecord:
    """One phase-diagram grid point (canonical initial state)."""

    beta_omega: float
    omega_ell: float
    R: float
    S: float
    rs_margin: float
    discriminant_margin: float
    generated: str                      # "true" | "false" | "boundary"
    oracle_generated: bool


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _number(value, what: str, integral: bool = False):
    """A finite number (an integral one when integral is set), or ConfigError.

    Numeric strings are accepted; bools, other strings and non-finite
    values are not.
    """
    _require(not isinstance(value, bool), f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    _require(math.isfinite(x), f"{what} must be finite, got {value!r}")
    if integral:
        _require(x.is_integer(), f"{what} must be an integer, got {value!r}")
        return int(x)
    return x


def _parse_axis(raw) -> np.ndarray:
    _require(isinstance(raw, (list, tuple)) and len(raw) == 3,
             "n must be a 3-vector")
    return np.asarray([_number(x, "n entry") for x in raw])


def _parse_complex_matrix(entries) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == 16,
             "matrix initial state needs 16 complex entries (row-major)")
    vals = []
    for e in entries:
        _require(isinstance(e, (list, tuple)) and len(e) == 2,
                 "complex entries must be [re, im] pairs")
        vals.append(complex(_number(e[0], "matrix entry"), _number(e[1], "matrix entry")))
    return np.array(vals, dtype=complex).reshape(4, 4)


def _parse_initial_state(raw, frame) -> np.ndarray:
    """V^dag rho0 V for the initial state rho0, validated in the lab frame;
    the named states are built in the frame, where the canonical one is
    |-> (x) |+> and the singlet is the same."""
    if raw is None:
        raw = {"named": "canonical"}
    _require(isinstance(raw, dict) and len(raw) == 1,
             "initial_state must be one of {named|product|matrix}")
    tag, value = next(iter(raw.items()))
    if tag == "named":
        if value == "singlet":
            return dynamics.singlet_density()
        if value == "canonical":
            return entanglement.canonical_state().density()
        raise ConfigError(f"unknown named state {value!r} (singlet|canonical)")
    if tag == "product":
        _require(isinstance(value, dict) and set(value) == {"bloch1", "bloch2"},
                 "product initial state needs bloch1 and bloch2")
        try:
            rho = entanglement.ProductState(_parse_axis(value["bloch1"]),
                                            _parse_axis(value["bloch2"])).density()
        except ValueError as exc:
            raise ConfigError(f"invalid product state: {exc}") from None
    elif tag == "matrix":
        try:
            rho = dynamics.validate_density_matrix(_parse_complex_matrix(value))
        except ValueError as exc:
            raise ConfigError(f"matrix initial state invalid: {exc}") from None
    else:
        raise ConfigError(f"unknown initial_state tag {tag!r}")
    return frame.conj().T @ rho @ frame


def _parse_time_grid(raw) -> np.ndarray:
    if isinstance(raw, list):
        raw = {"times": raw}
    _require(isinstance(raw, dict), "time_grid must be an object or a list of times")
    if "times" in raw:
        _require(set(raw) == {"times"}, "time_grid times takes no other key")
        _require(isinstance(raw["times"], list), "time_grid times must be a list")
        _require(len(raw["times"]) <= MAX_SAMPLES,
                 f"time_grid has more than {MAX_SAMPLES} times")
        times = np.asarray([_number(t, "time_grid time") for t in raw["times"]], dtype=float)
        _require(len(times) > 0, "time_grid must be nonempty")
        _require(times[0] >= 0 and np.all(np.diff(times) > 0),
                 "time_grid must be sorted, strictly increasing and nonnegative")
        return times
    _require(set(raw) <= {"t_max", "n_samples"} and "t_max" in raw,
             "time_grid needs t_max (and optional n_samples) or times")
    t_max = _number(raw["t_max"], "time_grid t_max")
    n_samples = _number(raw.get("n_samples", 101), "time_grid n_samples", integral=True)
    _require(t_max > 0 and n_samples >= 2, "need t_max > 0 and n_samples >= 2")
    _require(n_samples <= MAX_SAMPLES, f"time_grid n_samples exceeds {MAX_SAMPLES}")
    times = np.linspace(0.0, t_max, n_samples)
    _require(np.all(np.diff(times) > 0), f"time_grid t_max {t_max!r} is too small "
             f"for {n_samples} distinct samples")
    return times


def _parse_sweep(raw) -> SweepSpec:
    _require(isinstance(raw, dict) and set(raw) == {"beta_omega", "omega_ell"},
             "sweep needs beta_omega and omega_ell ranges")

    def axis(spec, name, positive):
        _require(isinstance(spec, (list, tuple)) and len(spec) == 3,
                 f"sweep.{name} must be [min, max, steps]")
        lo = _number(spec[0], f"sweep.{name} minimum")
        hi = _number(spec[1], f"sweep.{name} maximum")
        steps = _number(spec[2], f"sweep.{name} steps", integral=True)
        _require(steps >= 1 and hi >= lo, f"sweep.{name} range is empty")
        _require(lo >= MIN_BETA_OMEGA if positive else lo >= 0,
                 f"sweep.{name} minimum out of range")
        return lo, hi, steps

    beta_omega = axis(raw["beta_omega"], "beta_omega", True)
    omega_ell = axis(raw["omega_ell"], "omega_ell", False)
    _require(beta_omega[2] * omega_ell[2] <= MAX_SWEEP_POINTS,
             f"sweep has more than {MAX_SWEEP_POINTS} grid points")
    return SweepSpec(beta_omega=np.linspace(*beta_omega), omega_ell=np.linspace(*omega_ell))


def _check_omega_scales(omega: float, beta_omega: float, times, sweep):
    """The quantities derived from omega fit a float, or ConfigError: the
    sample times in units of 1/omega and a sweep's largest beta and ell
    must be finite, and the discriminant's scale
    (omega coth(beta*omega/2))^2, taken at beta*omega and at a sweep's
    smallest beta_omega, must be a finite, normal number."""
    if times is not None:
        with np.errstate(over="ignore", under="ignore"):
            t = times / omega
        _require(np.all(np.isfinite(t)) and np.all(np.diff(t) > 0),
                 f"time_grid in units of 1/omega is not finite and strictly increasing "
                 f"at omega {omega!r}")
    if sweep is not None:
        with np.errstate(over="ignore", under="ignore"):
            largest = np.array([sweep.beta_omega[-1], sweep.omega_ell[-1]]) / omega
        _require(np.all(np.isfinite(largest)),
                 f"sweep beta_omega / omega or omega_ell / omega is not finite "
                 f"at omega {omega!r}")
    for bw in (beta_omega,) if sweep is None else (beta_omega, float(sweep.beta_omega[0])):
        scale = omega / math.tanh(bw / 2.0)
        _require(sys.float_info.min <= scale * scale < math.inf,
                 f"omega {omega!r} out of range: (omega coth(beta*omega/2))^2 at "
                 f"beta*omega {bw!r} is not a finite normal float")


def parse_config(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    known = {"omega", "beta", "ell", "n", "initial_state", "time_grid",
             "sweep", "include_hs"}
    unknown = set(doc) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    omega = _number(doc.get("omega", 1.0), "omega")
    beta = doc.get("beta", 1.0)
    beta = math.inf if beta == "inf" else _number(beta, "beta")
    ell = _number(doc.get("ell", 0.0), "ell")
    try:
        params = ModelParams(omega=omega, beta=beta, ell=ell)
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
    try:
        frame = dynamics.local_frame(_parse_axis(doc.get("n", [0.0, 0.0, 1.0])))
    except ValueError as exc:
        raise ConfigError(f"invalid axis n: {exc}") from None
    _require(beta * omega >= MIN_BETA_OMEGA, f"beta*omega must be at least {MIN_BETA_OMEGA}")

    include_hs = doc.get("include_hs", False)
    _require(isinstance(include_hs, bool), "include_hs must be a boolean")

    rho0 = _parse_initial_state(doc.get("initial_state"), frame)
    times = _parse_time_grid(doc["time_grid"]) if "time_grid" in doc else None
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else None
    _check_omega_scales(omega, beta * omega, times, sweep)
    return RunConfig(params=params, frame=frame, rho0=rho0, times=times, sweep=sweep,
                     include_hs=include_hs)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def load_config(path: str | None) -> RunConfig:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


def _complex_pairs(rho: np.ndarray) -> list:
    """Row-major [re, im] pairs of a matrix."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(rho).reshape(-1)]


def _write_out(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_coefficients(config: RunConfig, out_path: str | None) -> int:
    """Kossakowski coefficients (in units of omega) plus R and S."""
    w = config.params.omega
    c = kossakowski_coefficients(config.params)
    R, S, _ = entanglement.criterion_rs(config.params)
    doc = {"A": c.A / w, "B": c.B / w, "C": c.C / w,
           "A'": c.Ap / w, "B'": c.Bp / w, "C'": c.Cp / w, "R": R, "S": S}
    _write_out(json.dumps(doc, indent=2) + "\n", out_path)
    return 0


def _sweep_point(omega, rho0, beta_omega, omega_ell, include_hs) -> SweepRecord:
    params = ModelParams(omega=omega, beta=beta_omega / omega, ell=omega_ell / omega)
    M = dynamics.build_superoperator(params, include_hs)
    margin, label = entanglement.generation_test(kossakowski_coefficients(params))
    R, S, rs_margin = entanglement.criterion_rs(params)
    oracle = entanglement.small_time_ppt_oracle(M, rho0, _ORACLE_DT / omega)
    return SweepRecord(beta_omega=beta_omega, omega_ell=omega_ell,
                       R=R, S=S, rs_margin=rs_margin,
                       discriminant_margin=margin / omega**2,
                       generated=label, oracle_generated=oracle)


def cmd_phase_diagram(config: RunConfig, out_path: str | None) -> int:
    """Sweep the (beta*omega, omega*ell) grid with the canonical initial state."""
    if config.sweep is None:
        raise ConfigError("phase-diagram requires a sweep section")
    rho0 = entanglement.canonical_state().density()
    records = [_sweep_point(config.params.omega, rho0, bw, wl, config.include_hs)
               for bw in config.sweep.beta_omega for wl in config.sweep.omega_ell]

    mismatches = [r for r in records
                  if abs(r.rs_margin) > _ORACLE_BAND
                  and (r.generated == "true") != r.oracle_generated]
    if mismatches:
        r = mismatches[0]
        print(f"error: discriminant and small-time oracle disagree at "
              f"beta_omega={r.beta_omega}, omega_ell={r.omega_ell} "
              f"(rs_margin={r.rs_margin}, oracle={r.oracle_generated}); "
              f"{len(mismatches)} point(s) total", file=sys.stderr)
        return 3

    lines = [PHASE_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.beta_omega), _fmt(r.omega_ell), _fmt(r.R), _fmt(r.S),
            _fmt(r.rs_margin), _fmt(r.discriminant_margin), r.generated,
            "true" if r.oracle_generated else "false",
        ]))
    _write_out("\n".join(lines) + "\n", out_path)
    return 0


def cmd_evolve(config: RunConfig, out_path: str | None) -> int:
    """Trajectory dump: per-sample trace, spectra and entanglement scalars."""
    if config.times is None:
        raise ConfigError("evolve requires a time_grid section")
    params = config.params
    M = dynamics.build_superoperator(params, config.include_hs)
    with np.errstate(over="ignore"):  # an overflow to inf fails the cap below
        work = config.times[-1] / params.omega * np.abs(M).sum(axis=0).max()
    if work > MAX_RK_WORK:
        raise ConfigError(f"time_grid t_max {float(config.times[-1])!r} is too long for the "
                          f"RK45 cross-check: (t_max/omega) |M|_1 = {work:.3g} exceeds "
                          f"MAX_RK_WORK = {MAX_RK_WORK:.0e}")
    states = dynamics.evolve_traj(M, config.rho0, config.times / params.omega)
    rho_inf, _ = asymptotic.asymptotic_state(M, config.rho0, params, check=False)

    lines = [EVOLVE_HEADER]
    for t_dimless, rho in zip(config.times, states):
        lines.append(",".join([
            _fmt(t_dimless),
            _fmt(np.trace(rho).real),
            _fmt(np.linalg.eigvalsh(rho).min()),
            _fmt(entanglement.min_eig_pt(rho)),
            _fmt(entanglement.concurrence(rho)),
            _fmt(dynamics.tau(rho)),
        ]))
    _write_out("\n".join(lines) + "\n", out_path)

    dist = dynamics.trace_norm(states[-1] - rho_inf)
    summary = {"final_time": float(config.times[-1]),
               "trace_distance_to_asymptotic": dist,
               "asymptotic_concurrence": entanglement.concurrence(rho_inf)}
    if out_path is None:
        print(json.dumps(summary), file=sys.stderr)
    else:
        with open(out_path + ".summary.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_asymptotic(config: RunConfig, out_path: str | None) -> int:
    """Stationary-state report for the configured parameters and initial state."""
    params = config.params
    M = dynamics.build_superoperator(params, config.include_hs)
    rho_inf, dim = asymptotic.asymptotic_state(M, config.rho0, params, check=True)
    R, _, _ = entanglement.criterion_rs(params)
    doc = {"stationary_dim": dim,
           "rho_infinity": _complex_pairs(config.frame @ rho_inf @ config.frame.conj().T),
           "concurrence": entanglement.concurrence(rho_inf),
           "tau": dynamics.tau(rho_inf),
           "threshold_tau": asymptotic.threshold_tau(R)}
    _write_out(json.dumps(doc, indent=2) + "\n", out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalpair",
        description="Two two-level atoms in a common thermal field bath: "
                    "dissipative dynamics and entanglement generation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("coefficients", "Kossakowski coefficients as JSON"),
                        ("phase-diagram", "generation phase diagram as CSV"),
                        ("evolve", "trajectory dump as CSV"),
                        ("asymptotic", "stationary-state report as JSON")):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", default=None,
                       help="JSON config path (default: standard input)")
        p.add_argument("--out", default=None,
                       help="output path (default: standard output)")
    return parser


# built once and reused by every call: parsing leaves it unchanged, while a
# parser built per call leaves its reference cycles to the garbage collector
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "coefficients":
            return cmd_coefficients(config, args.out)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(config, args.out)
        if args.command == "evolve":
            return cmd_evolve(config, args.out)
        if args.command == "asymptotic":
            return cmd_asymptotic(config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dynamics.PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except asymptotic.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
