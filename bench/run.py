"""End-to-end and per-layer benchmark of the thermalpair CLI.

Drives `thermalpair.cli.main([...])` in-process as a closed loop: one
client, one process, no threads.  Only the subcommand name, `--config` and
`--out` are passed; everything else, `include_hs` included, goes in through
the generated config files, which are written before timing starts.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a source checkout: the package is imported from
`src/`.  Working files (configs, outputs, spans, results.json) go to
`.bench_work/<workload>-trace<0|1>/`.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

A run generates one stratified pass of ops from its seed, sized from
`--seconds`, and replays it a fixed number of times, so every run of a
seed times the same inputs the same number of times, on any machine and
at any commit.

With `--trace 0` the metrics are the end-to-end ones: cold-CLI set-up
time and peak RSS; the median and tail op latency, work per second and the
failed share are printed beside them (see NOT_GATED).  Op times are each
op's fastest over the replays.  With `--trace 1` each op runs once untraced
and once with spans around the package's functions; the metrics are
per-op calls and self time per function, guard shares, start-up import
cost and the tracing overhead.

BLAS libraries are held to one thread (unless the environment already
sets a count): their helper threads would compete with the loop for the
machine's cores, and the loop is meant to be one client in one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 9
IMPORT_REPS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# End-to-end metrics, in the order printed.  Those in NOT_GATED are printed
# and kept in results.json but left out of the JSON result and
# BENCHMARK.json.  fail_share is 0 on every listed workload.  The op times
# follow the speed of the host: on a shared 2-vCPU x86 VM it drifts by up
# to +-20% over minutes, and over ten runs of a workload the IQR/median of
# op_ms.p50, op_ms.tail and work_per_s was 0.07 to 0.26, even with each
# op's fastest of three replays.  That is as wide as the largest bound a
# gate may have, so they are reported, not gated.
END_TO_END = (("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.tail", "ms"),
              ("work_per_s", "1/s"), ("fail_share", "share"), ("peak_rss_mb", "MB"))
NOT_GATED = ("op_ms.p50", "op_ms.tail", "work_per_s", "fail_share")
WORK_UNIT = {"phase-diagram": "grid points", "evolve": "samples", "asymptotic": "reports"}


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "loadavg": os.getloadavg()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start_s(sub: str, cfg_path: Path, out_path: Path, reps: int, checker, cfg) -> float:
    """Median wall time of a fresh `python -m thermalpair` on one config."""
    times = []
    for _ in range(reps):
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "thermalpair", sub, "--config",
                               str(cfg_path), "--out", str(out_path)],
                              cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold {sub} exited {proc.returncode}: {proc.stderr.decode()}")
        summary = Path(str(out_path) + ".summary.json")
        reason = checker(cfg, out_path.read_bytes(),
                         summary.read_bytes() if summary.exists() else None)
        if reason:
            raise RuntimeError(f"cold {sub} output fails its check: {reason}")
    return statistics.median(times)


def import_cost(reps: int):
    """Median ms to import thermalpair.cli in a fresh interpreter, and the
    number of scipy subpackages that import loads."""
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            "import thermalpair.cli\n"
            "dt = time.perf_counter() - t\n"
            "subs = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')\n"
            "        and hasattr(sys.modules[m], '__path__') and m.count('.') == 1}\n"
            "print(dt * 1e3, len(subs))\n")
    runs = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, check=True, timeout=120).stdout.split()
        runs.append((float(out[0]), int(out[1])))
    return statistics.median(r[0] for r in runs), runs[-1][1]


class OpRunner:
    """Runs one CLI op, classifies its outcome and checks its output."""

    def __init__(self, cli, checker, sub: str, out_path: Path):
        self.cli, self.checker, self.sub = cli, checker, sub
        self.out = out_path
        self.summary = Path(str(out_path) + ".summary.json")
        self.failures = Counter()
        self.first_error = {}
        self.digests = {}
        self.attempted = 0

    def _fail(self, cls: str, message: str):
        self.failures[cls] += 1
        self.first_error.setdefault(cls, message)

    def run(self, index: int, cfg: dict, cfg_path: Path):
        """(wall seconds of one cli.main call, whether it succeeded); failures
        are counted, not raised."""
        self.out.unlink(missing_ok=True)
        self.summary.unlink(missing_ok=True)
        argv = [self.sub, "--config", str(cfg_path), "--out", str(self.out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the run must go on; the failure is counted
                code = "exception"
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
        self.attempted += 1
        if code != 0:
            self._fail(str(code), f"op {index}: {err.getvalue().strip()[-400:]}")
            return dt, False
        out = self.out.read_bytes() if self.out.exists() else b""
        summary = self.summary.read_bytes() if self.summary.exists() else None
        try:
            reason = self.checker(cfg, out, summary)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unparseable output: {exc!r}"
        digest = hashlib.sha256(out + (summary or b"")).hexdigest()
        if reason is None and self.digests.setdefault(index, digest) != digest:
            reason = "output bytes differ from an earlier replay"
        if reason:
            self._fail("check", f"op {index}: {reason}")
        return dt, reason is None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def tail_ms(samples):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer), as (ms, percentile,
    sample count)."""
    n = len(samples)
    q = (n - 10) / n if n > 10 else 1.0
    return 1e3 * sorted(samples)[max(0, n - 11)], 100.0 * q, n


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    import check
    import tracing
    import workloads

    facts = machine_facts()
    sub = workloads.SUBCOMMAND[name]
    checker = check.CHECKS[sub]
    work = WORK / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)

    # a traced run times each op once untraced and once traced
    replays = 1 if smoke or trace else workloads.REPLAYS[name]
    ops = workloads.generate(name, seed, 2 if smoke else
                             workloads.pass_ops(name, seconds, 2 if trace else replays))
    paths = [work / "cfg" / f"{i:05d}.json" for i in range(len(ops))]
    for op, path in zip(ops, paths):
        path.write_text(json.dumps(op.config), encoding="utf-8")
    smallest = workloads.SMALLEST[sub]
    smallest_path = work / "cfg" / "smallest.json"
    smallest_path.write_text(json.dumps(smallest), encoding="utf-8")

    metrics, info = {}, {}
    if trace:
        import_ms, scipy_subs = import_cost(1 if smoke else IMPORT_REPS)
        metrics["startup.import_ms"] = (import_ms, "ms")
        metrics["startup.scipy_modules"] = (scipy_subs, "count")
    else:
        setup = cold_start_s(sub, smallest_path, work / "setup.out",
                             1 if smoke else SETUP_REPS, checker, smallest)
        metrics["setup_s"] = (setup, "s")

    from thermalpair import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"thermalpair imported from {cli.__file__}, not {SRC}")
    runner = OpRunner(cli, checker, sub, work / "out")
    runner.run(-1, smallest, smallest_path)  # warm-up: first-use costs stay out of timing
    if runner.failed:
        raise RuntimeError(f"warm-up op failed: {runner.first_error}")
    runner.attempted = 0

    tracer = tracing.Tracer()
    best = [math.inf] * len(ops)   # each op's fastest untraced time
    done = [True] * len(ops)       # whether each op succeeded on every replay
    traced = []
    for _ in range(replays):
        for i, (op, path) in enumerate(zip(ops, paths)):
            dt, ok = runner.run(i, op.config, path)
            best[i] = min(best[i], dt)
            done[i] &= ok
            if trace:
                tracer.op = i
                tracer.install()
                try:
                    traced.append(runner.run(i, op.config, path)[0])
                finally:
                    tracer.uninstall()

    if trace:
        metrics.update(tracer.summarize(len(traced), sub))
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(best),
                                     "ratio")
        tracer.write(work / "spans.jsonl")
        info["absent"] = tracer.absent
    else:
        tail, pct, count = tail_ms(best)
        metrics["op_ms.p50"] = (1e3 * statistics.median(best), "ms")
        metrics["op_ms.tail"] = (tail, "ms")
        metrics["work_per_s"] = (sum(op.units for op, ok in zip(ops, done) if ok) / sum(best),
                                 "1/s")
        info["tail"] = {"percentile": pct, "samples": count}
        info["work_unit"] = WORK_UNIT[sub]
    metrics["fail_share"] = (runner.failed / runner.attempted, "share")
    if not trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
    info["failures"] = {c: runner.failures.get(c, 0)
                        for c in ("2", "3", "4", "5", "exception", "check")} | dict(runner.failures)
    info["first_error"] = runner.first_error
    info["replays"] = replays
    info["ops_per_pass"] = len(ops)
    all_digests = "".join(runner.digests[i] for i in sorted(runner.digests))
    info["outputs_sha256"] = hashlib.sha256(all_digests.encode()).hexdigest()

    result = {"correct": runner.failures["check"] == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if k not in NOT_GATED}}
    (work / "results.json").write_text(json.dumps(
        {"workload": name, "why": workloads.WHY[name], "seed": seed, "seconds": seconds,
         "trace": trace, "machine": facts, "info": info,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "op_sha256": runner.digests, "result": result}, indent=2), encoding="utf-8")

    print(f"workload {name} (seed {seed}, trace {int(trace)}): {workloads.WHY[name]}")
    print(f"machine: {json.dumps(facts)}")
    for key, (value, unit) in metrics.items():
        note = "  (printed, not gated)" if key in NOT_GATED else ""
        print(f"  {key:<48} {value:>14.6g} {unit}{note}")
    if not trace:
        print(f"  op_ms.tail is p{info['tail']['percentile']:.2f} of "
              f"{info['tail']['samples']} ops; work_per_s counts {info['work_unit']}")
    print(f"  failures by class: {info['failures']}")
    for cls, msg in runner.first_error.items():
        print(f"  first {cls} failure: {msg.splitlines()[-1] if msg else ''}")
    if trace and tracer.absent:
        print(f"  absent (not traced): {', '.join(tracer.absent)}")
    print(f"  {replays} replays x {len(ops)} ops; outputs sha256 {info['outputs_sha256']}")
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Tiny run of every workload in both modes: every end-to-end metric is
    printed by name and unit, the JSON result holds exactly the metrics of
    BENCHMARK.json with their units, and every output passes its check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads
    problems = []
    for name in workloads.WHY:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run_workload(name, seed=0, seconds=0, trace=trace, smoke=True)
            lines = buf.getvalue().splitlines()
            last = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            printed = {(p[0], p[2]) for p in map(str.split, lines) if len(p) >= 3}
            for key, unit in END_TO_END if not trace else ():
                if (key, unit) not in printed:
                    problems.append(f"{name}: {key} not printed with unit {unit}")
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if not last["correct"]:
                problems.append(f"{name} trace={int(trace)}: an output failed its check")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"correct={last['correct']}, failed={last['failed']}/{last['attempted']}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks names, units and outputs")
    args = parser.parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported; children inherit it
        os.environ.setdefault(var, "1")
    if not (SRC / "thermalpair" / "__init__.py").is_file():
        print(f"error: no thermalpair sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WHY:
        parser.error(f"--workload must be one of {', '.join(workloads.WHY)}")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
