"""Command-line front end: coefficients, phase diagrams, trajectories, equilibria.

All inputs come from a single JSON config (path argument or standard
input).  omega is the unit: parse_config forms beta*omega and omega*ell
once, the library runs at omega = 1, and CSV and JSON carry only
dimensionless groups (beta*omega, omega*ell, omega*t, rates over omega),
so configs with the same two products give the same bytes.  Standard
output carries data only; diagnostics go to standard error.  Identical
configs produce byte-identical output: floats are printed with 17
significant digits and orderings are fixed.

The library runs at the axis e3; the axis n enters only here, as the
local frame V = U (x) U, U = entanglement.local_frame(n), and by one
route each way: every initial state goes in as V^dag rho0 V in
`RunConfig.initial_state`, and asymptotic's rho_infinity comes back as
V rho V^dag in `cmd_asymptotic`, both by `entanglement.turn`.  No other
output changes under V, and the phase diagram ignores n.

include_hs changes only `asymptotic`: at beta = inf and ell = 0 the free
Hamiltonian turns the conserved coherence c = <S|rho0|--> forever, so the
report drops c when 2|c| <= _CONV_TOL and refuses the state otherwise;
`evolve`'s summary takes the limit of its own trajectory, which keeps c.

The phase diagram starts from the canonical state |-> (x) |+>: at each
grid point it evaluates the generation discriminant in closed form from
K's coefficients (`generation.generation_test`) and checks the verdict
against the small-time oracle.  That evolves the state by its own step and
Taylor series in the charge-0 sector Q0 (`spectral.generator_q0`), where
it is an X-state: its spectrum is r00, r33, (r11 + r22)/2 +-
hypot((r11 - r22)/2, c), its partial transpose's r11, r22, (r00 + r33)/2 +-
hypot((r00 - r33)/2, c).  `evolve` runs a state that the frame leaves in
that sector with real entries there too (`trajectory.evolve_q0`), and any
other by `dynamics.evolve_traj`, formatting each row as its state arrives
and keeping only the text: no list of states or RK45 samples is held.

`phase-diagram` and `coefficients` run in plain Python on `spectral` and
`generation`, and `asymptotic` and the `evolve` of a state in Q0 on
`asymptotic` and `entanglement` too: the closed-form stationary state, its
guard, the frame and the concurrence of an X-state are plain arithmetic on
4x4 nested lists.  The parser checks the
axis n, the state and the grids and keeps n and the state as given, the
same at every n; `RunConfig.initial_state` builds the state in the frame
when `evolve` or `asymptotic` calls it.  So only the `evolve` of a state
off Q0 (which takes `np.array`s of those lists), a matrix state (which
the parser validates with numpy, as given) and, in `asymptotic`,
the state at beta = inf and ell = 0 with c != 0, which is not an X-state,
load numpy.

Exit codes: 0 ok, 2 config validation failure or an unwritable output
path, 3 an implementation-bug guard (discriminant/oracle disagreement, or
a failed or disagreeing RK45 cross-check in `evolve`), 4 an evolved state
that fails a positivity check, 5 convergence-check failure (the closed-form
stationary state of `asymptotic` or of `evolve`'s summary fails its
residual or tau guard, or the state has no limit).  `evolve` checks each
sample with the exponential's guards, then with the RK45 cross-check, and
stops at the first failure, so the earlier sample's failure sets the code;
it writes its text only after every guard has passed, so exits 3, 4 and 5
leave no output.  `main` maps each failure to its code in `_EXIT_CODES`.

In-process use: ``main(argv)`` may be called any number of times in one
process.  It returns the exit code, except that a usage error (no or an
unknown subcommand, an unknown option, an option without its path, a stray
argument) writes a usage line and an error line and raises
``SystemExit(2)``, and -h prints the help and raises ``SystemExit(0)``.
`_read_argv` reads the one grammar SUB [--config PATH] [--out PATH] by
hand: argparse's import and parser build, with dataclasses', took about
a fifth of a cold phase diagram.  No state is kept from one call to the
next, and no call leaves reference cycles to the garbage collector: the
JSON reports are indented by `_json`, not by json.dumps's indenting
encoder, whose closures form a cycle per call.
"""

from __future__ import annotations

import json
import math
import sys

from . import generation
from .spectral import MIN_BETA_OMEGA, ModelParams, kossakowski_coefficients, temperature_ratio

PHASE_HEADER = "beta_omega,omega_ell,R,S,rs_margin,discriminant_margin,generated,oracle_generated"
EVOLVE_HEADER = "t,trace,min_eig,min_eig_pt,concurrence,tau"


# count caps: a time grid's samples and a sweep's grid points
MAX_SAMPLES = 100_000
MAX_SWEEP_POINTS = 1_000_000
# cap on the work of evolve's RK45 cross-check, t_max |M|_1 of the dissipator
# at e3 that it integrates, in units of omega, so the same at every n: the
# explicit integrator's step count grows with it.  Work 1.91e5 (beta*omega
# 0.001, omega*ell 1, t_max 100) took 2.6 to 4.4 s for a product state and
# 1.3 to 1.4 s for a named one on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4),
# about 1.4 to 2.3 s and 0.7 s of run time per 1e5 of work
MAX_RK_WORK = 2e5
# phase-diagram guard: the small-time oracle must agree with the discriminant
# wherever |rs_margin| > _ORACLE_BAND
_ORACLE_BAND = 1e-3
# include_hs in asymptotic: a coherence c with 2|c| above this turns forever
_CONV_TOL = 1e-8


class ConfigError(ValueError):
    """Invalid run configuration."""


class RunConfig:
    """A validated config: the model params, the unit axis n, the initial
    state as (kind, *values), the times omega*t or None, the sweep as its
    beta*omega and omega*ell grids or None, and include_hs, which
    cmd_asymptotic alone reads.  The axis n and the initial state are kept
    as given, a matrix state as a 4x4 nested list, and the state is turned
    into the frame of n only by `initial_state`."""

    __slots__ = ("params", "n", "state", "times", "sweep", "include_hs")

    def __init__(self, params, n, state, times, sweep, include_hs):
        self.params, self.n, self.state = params, n, state
        self.times, self.sweep, self.include_hs = times, sweep, include_hs

    def initial_state(self) -> tuple:
        """(U, V^dag rho0 V) as nested lists: the frame U =
        entanglement.local_frame(n) of V = U (x) U and the initial state rho0
        turned into it, a matrix by `entanglement.turn` and a product state
        from its turned kets; the named states are built in the frame, where
        the canonical one is |-> (x) |+> and the singlet is the same."""
        from . import entanglement
        kind, *values = self.state
        U = entanglement.local_frame(self.n)
        if kind == "matrix":
            return U, entanglement.turn(entanglement.dagger(U), values[0])
        if kind == "singlet":
            return U, entanglement.singlet_density()
        if kind == "canonical":
            return U, entanglement.canonical_state().density()
        return U, entanglement.ProductState(*values).density(U)


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


def _parse_axis(raw, name: str = "n") -> tuple:
    """The three numbers of the axis n or a Bloch vector; errors name it."""
    _require(isinstance(raw, (list, tuple)) and len(raw) == 3, f"{name} must be a 3-vector")
    return tuple(_number(x, f"{name} entry") for x in raw)


def _parse_complex_matrix(entries) -> list:
    """The 16 row-major [re, im] pairs as a 4x4 nested list of complex."""
    _require(isinstance(entries, list) and len(entries) == 16,
             "matrix initial state needs 16 complex entries (row-major)")
    vals = []
    for e in entries:
        _require(isinstance(e, (list, tuple)) and len(e) == 2,
                 "complex entries must be [re, im] pairs")
        vals.append(complex(_number(e[0], "matrix entry"), _number(e[1], "matrix entry")))
    return [vals[k:k + 4] for k in range(0, 16, 4)]


def _parse_initial_state(raw) -> tuple:
    """(kind, *values) of the initial state, for RunConfig.initial_state: the
    named state, the two unit Bloch vectors of a product state, or a matrix
    state rho0 as a 4x4 nested list, validated as given, at the axis n, by
    checks that its turn to the frame leaves as they are."""
    if raw is None:
        raw = {"named": "canonical"}
    _require(isinstance(raw, dict) and len(raw) == 1,
             "initial_state must be one of {named|product|matrix}")
    tag, value = next(iter(raw.items()))
    if tag == "named":
        _require(value in ("singlet", "canonical"),
                 f"unknown named state {value!r} (singlet|canonical)")
        return (value,)
    if tag == "product":
        _require(isinstance(value, dict) and set(value) == {"bloch1", "bloch2"},
                 "product initial state needs bloch1 and bloch2")
        blochs = {name: _parse_axis(value[name], name) for name in ("bloch1", "bloch2")}
        try:
            for name, b in blochs.items():
                generation.check_unit(b, name)
        except ValueError as exc:
            raise ConfigError(f"invalid product state: {exc}") from None
        return ("product", *blochs.values())
    _require(tag == "matrix", f"unknown initial_state tag {tag!r}")
    rho = _parse_complex_matrix(value)
    from .entanglement import validate_density_matrix
    try:
        validate_density_matrix(rho)
    except ValueError as exc:
        raise ConfigError(f"matrix initial state invalid: {exc}") from None
    return ("matrix", rho)


def _linspace(lo: float, hi: float, num: int) -> list:
    """np.linspace(lo, hi, num) for num >= 1 in the same float steps, as a list."""
    div, delta = num - 1, hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0:  # numpy scales by delta after dividing, for subnormal steps
        out = [k / div * delta + lo for k in range(num)]
    else:
        out = [k * step + lo for k in range(num)]
    out[-1] = hi
    return out


def _increasing(xs: list) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def _parse_time_grid(raw) -> list:
    if isinstance(raw, list):
        raw = {"times": raw}
    _require(isinstance(raw, dict), "time_grid must be an object or a list of times")
    if "times" in raw:
        _require(set(raw) == {"times"}, "time_grid times takes no other key")
        _require(isinstance(raw["times"], list), "time_grid times must be a list")
        _require(len(raw["times"]) <= MAX_SAMPLES,
                 f"time_grid has more than {MAX_SAMPLES} times")
        times = [_number(t, "time_grid time") for t in raw["times"]]
        _require(len(times) > 0, "time_grid must be nonempty")
        _require(times[0] >= 0 and _increasing(times),
                 "time_grid must be sorted, strictly increasing and nonnegative")
        return times
    _require(set(raw) <= {"t_max", "n_samples"} and "t_max" in raw,
             "time_grid needs t_max (and optional n_samples) or times")
    t_max = _number(raw["t_max"], "time_grid t_max")
    n_samples = _number(raw.get("n_samples", 101), "time_grid n_samples", integral=True)
    _require(t_max > 0 and n_samples >= 2, "need t_max > 0 and n_samples >= 2")
    _require(n_samples <= MAX_SAMPLES, f"time_grid n_samples exceeds {MAX_SAMPLES}")
    times = _linspace(0.0, t_max, n_samples)
    _require(_increasing(times), f"time_grid t_max {t_max!r} is too small "
             f"for {n_samples} distinct samples")
    return times


def _parse_sweep(raw) -> tuple:
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
    return _linspace(*beta_omega), _linspace(*omega_ell)


def parse_config(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    known = {"omega", "beta", "ell", "n", "initial_state", "time_grid",
             "sweep", "include_hs"}
    unknown = set(doc) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    omega = _number(doc.get("omega", 1.0), "omega")
    _require(omega > 0, f"omega must be > 0, got {omega!r}")
    beta = doc.get("beta", 1.0)
    beta = math.inf if beta == "inf" else _number(beta, "beta")
    ell = _number(doc.get("ell", 0.0), "ell")
    # the only use of omega: the model in its units
    beta_omega, omega_ell = beta * omega, omega * ell
    _require(math.isfinite(beta_omega) or beta == math.inf,
             f"beta*omega = {beta_omega!r} is not finite")
    _require(math.isfinite(omega_ell), f"omega*ell = {omega_ell!r} is not finite")
    try:
        params = ModelParams(beta_omega=beta_omega, omega_ell=omega_ell)
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
    n = _parse_axis(doc.get("n", [0.0, 0.0, 1.0]))
    try:
        generation.check_unit(n)
    except ValueError as exc:
        raise ConfigError(f"invalid axis n: {exc}") from None

    include_hs = doc.get("include_hs", False)
    _require(isinstance(include_hs, bool), "include_hs must be a boolean")

    state = _parse_initial_state(doc.get("initial_state"))
    times = _parse_time_grid(doc["time_grid"]) if "time_grid" in doc else None
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else None
    return RunConfig(params=params, n=n, state=state, times=times, sweep=sweep,
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


def _json(x, indent: str = "") -> str:
    """json.dumps(x, indent=2) for the dicts, lists and scalars of a report,
    from json.dumps of each key and scalar: the indenting encoder's nested
    closures leave a reference cycle per call, which only the cyclic
    garbage collector frees, so reports would pile up garbage between its
    runs."""
    if not isinstance(x, (dict, list)) or not x:
        return json.dumps(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in x.items()]
    else:
        items = [_json(v, inner) for v in x]
    brackets = "{}" if isinstance(x, dict) else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_out(text: str, out_path: str | None, rest=()):
    """Write text, then each chunk of rest as it is made, to out_path or to
    standard output (flushed); a failed write raises ConfigError."""
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.writelines(rest)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
                fh.writelines(rest)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_coefficients(config: RunConfig, out_path: str | None) -> int:
    """Kossakowski coefficients (in units of omega) plus R and S."""
    c = kossakowski_coefficients(config.params)
    R, S, _ = generation.criterion_rs(config.params)
    doc = {"A": c.A, "B": c.B, "C": c.C, "A'": c.Ap, "B'": c.Bp, "C'": c.Cp, "R": R, "S": S}
    _write_out(_json(doc) + "\n", out_path)
    return 0


def cmd_phase_diagram(config: RunConfig, out_path: str | None) -> int:
    """Sweep the (beta*omega, omega*ell) grid with the canonical initial state,
    writing each row as its point is computed (a failure at the first leaves
    no output)."""
    if config.sweep is None:
        raise ConfigError("phase-diagram requires a sweep section")
    first, count = None, 0

    def points():
        nonlocal first, count
        # as Python floats, whose overflow to inf (2 pi beta*omega) warns nothing
        beta_omegas, omega_ells = config.sweep
        for bw in beta_omegas:
            for wl in omega_ells:
                params = ModelParams(beta_omega=bw, omega_ell=wl)
                coeffs = kossakowski_coefficients(params)
                margin, label = generation.generation_test(coeffs)
                R, S, rs_margin = generation.criterion_rs(params)
                oracle = generation.small_time_ppt_oracle(params)
                if abs(rs_margin) > _ORACLE_BAND and (label == "true") != oracle:
                    first = first or (f"beta_omega={bw}, omega_ell={wl} "
                                      f"(rs_margin={rs_margin}, oracle={oracle})")
                    count += 1
                yield ",".join([_fmt(bw), _fmt(wl), _fmt(R), _fmt(S), _fmt(rs_margin),
                                _fmt(margin), label,
                                "true" if oracle else "false"]) + "\n"

    rows = points()
    _write_out(PHASE_HEADER + "\n" + next(rows), out_path, rows)
    if count:
        print(f"error: discriminant and small-time oracle disagree at {first}; "
              f"{count} point(s) total", file=sys.stderr)
        return 3
    return 0


def cmd_evolve(config: RunConfig, out_path: str | None) -> int:
    """Trajectory dump: per-sample trace, spectra and entanglement scalars.

    Each row is formatted as its state arrives, and only the text is kept;
    it is written once the trajectory and the asymptotic state have passed
    their guards, so exit 3, 4 or 5 leaves no output."""
    if config.times is None:
        raise ConfigError("evolve requires a time_grid section")
    from . import asymptotic, entanglement, trajectory
    params, (_, rho0) = config.params, config.initial_state()
    work = trajectory.work(params, config.times[-1])
    if work > MAX_RK_WORK:
        raise ConfigError(f"time_grid t_max {float(config.times[-1])!r} is too long for the "
                          f"RK45 cross-check: t_max |M|_1 = {work:.3g} exceeds "
                          f"MAX_RK_WORK = {MAX_RK_WORK:.0e}")
    if trajectory.in_q0(rho0):
        states = trajectory.evolve_q0(params, rho0, config.times)
        columns, distance = trajectory.x_columns, trajectory.x_distance
    else:
        from . import dynamics
        states, columns, distance = dynamics.dense_route(params, rho0, config.times)
    rows = []
    for t_dimless, state in zip(config.times, states):
        rows.append(",".join(map(_fmt, (t_dimless, *columns(state)))) + "\n")
    rho_inf, _ = asymptotic.asymptotic_state(params, rho0)
    _write_out(EVOLVE_HEADER + "\n", out_path, rows)

    summary = {"final_time": float(config.times[-1]),
               "trace_distance_to_asymptotic": distance(state, rho_inf),
               "asymptotic_concurrence": entanglement.concurrence(rho_inf)}
    if out_path is None:
        print(json.dumps(summary), file=sys.stderr)
    else:
        _write_out(_json(summary) + "\n", out_path + ".summary.json")
    return 0


def cmd_asymptotic(config: RunConfig, out_path: str | None) -> int:
    """Stationary-state report for the configured parameters and initial state."""
    from . import asymptotic, entanglement
    params, (U, rho0) = config.params, config.initial_state()
    rho_inf, dim = asymptotic.asymptotic_state(params, rho0)
    if config.include_hs and dim == 4:
        c = math.sqrt(2.0) * abs(rho_inf[1][3])  # |<S|rho0|-->|
        if 2.0 * c > _CONV_TOL:
            raise generation.ConvergenceError(
                f"the singlet/ground coherence |c| = {c:.3e} turns forever under the "
                f"free Hamiltonian: the state has no limit")
        rho_inf[1][3] = rho_inf[2][3] = rho_inf[3][1] = rho_inf[3][2] = 0j
        dim = 2
    doc = {"stationary_dim": dim,
           "rho_infinity": [[z.real, z.imag] for row in entanglement.turn(U, rho_inf)
                            for z in row],
           "concurrence": entanglement.concurrence(rho_inf),
           "tau": asymptotic.tau(rho_inf),
           "threshold_tau": asymptotic.threshold_tau(temperature_ratio(params))}
    _write_out(_json(doc) + "\n", out_path)
    return 0


# each subcommand's function and help text
_COMMANDS = {
    "coefficients": (cmd_coefficients, "Kossakowski coefficients as JSON"),
    "phase-diagram": (cmd_phase_diagram, "generation phase diagram as CSV"),
    "evolve": (cmd_evolve, "trajectory dump as CSV"),
    "asymptotic": (cmd_asymptotic, "stationary-state report as JSON"),
}
# the exit code of each failure that main reports in one line
_EXIT_CODES = {ConfigError: 2, generation.CrossCheckError: 3, generation.PositivityError: 4,
               generation.ConvergenceError: 5}


_USAGE = f"usage: thermalpair [-h] {{{','.join(_COMMANDS)}}} [--config PATH] [--out PATH]\n"
_HELP = (_USAGE + "".join(f"  {name:15}{text}\n" for name, (_, text) in _COMMANDS.items())
         + "  --config PATH  JSON config path, - for standard input (the default)\n"
         "  --out PATH     output path (default: standard output)\n")


def _usage(ok: bool, message: str):
    """Unless ok, write the usage line and an error line and raise SystemExit(2)."""
    if not ok:
        sys.stderr.write(f"{_USAGE}thermalpair: error: {message}\n")
        raise SystemExit(2)


def _read_argv(argv) -> tuple:
    """(subcommand function, config path, out path) of argv, SUB [--config PATH] [--out
    PATH] with the options in either order, each also as --opt=PATH; an
    absent path is None.  A PATH after a separate option may not start with
    "-", except "-" itself.  -h or --help prints the help and raises
    SystemExit(0), and a usage error raises SystemExit(2)."""
    command, paths, tokens = None, {"--config": None, "--out": None}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        option, eq, value = token.partition("=")
        if command is None:
            _usage(token in _COMMANDS, f"argument command: invalid choice: {token!r}")
            command = token
        elif option in paths:
            if not eq:
                value = next(tokens, "--")  # a missing path reads as an option
                _usage(value == "-" or not value.startswith("-"),
                       f"argument {option}: expected one argument")
            paths[option] = value
        else:
            _usage(False, f"unrecognized arguments: {token}")
    _usage(command is not None, "the following arguments are required: command")
    return _COMMANDS[command][0], paths["--config"], paths["--out"]


def main(argv=None) -> int:
    command, config_path, out_path = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        return command(load_config(config_path), out_path)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
