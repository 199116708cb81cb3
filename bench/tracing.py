"""Spans around the package's module functions, recorded from outside.

The tracer wraps each named function on every thermalpair module namespace
that binds it (so `cli.build_kossakowski_closed`, the `spectral` original
and calls through `dynamics.expm` all land in one span name), keeps spans
in memory and restores the originals on uninstall.  A name the package no
longer has is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = (
    "spectral.build_kossakowski_closed",
    "dynamics.build_superoperator", "dynamics.evolve", "dynamics.evolve_traj",
    "dynamics.expm", "dynamics.solve_ivp", "dynamics.tau", "dynamics.trace_norm",
    "entanglement.generation_test", "entanglement.small_time_ppt_oracle",
    "entanglement.min_eig_pt", "entanglement.concurrence",
    "asymptotic.stationary_basis", "asymptotic.spectral_gap",
    "asymptotic.asymptotic_state", "asymptotic.asymptotic_concurrence",
    "cli.parse_config", "cli.main",
)

# children of asymptotic_state that only check its prediction
CONVERGENCE_CHILDREN = ("asymptotic.spectral_gap", "dynamics.evolve", "dynamics.trace_norm")
# phase-diagram work whose result is never emitted
UNEMITTED = ("asymptotic.stationary_basis", "asymptotic.asymptotic_concurrence")


class Tracer:
    """Span recorder; a span is [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []
        self.absent = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "thermalpair" or key.startswith("thermalpair.")]
        self.absent = []
        for name in TRACED:
            mod_name, attr = name.split(".")
            orig = getattr(sys.modules.get("thermalpair." + mod_name), attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summarize(self, n_ops: int, subcommand: str) -> dict:
        """Per-op calls and self time of each traced name, and guard shares.

        Shares are over the wall time of the traced `cli.main` spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls, self_s = defaultdict(int), defaultdict(float)
        total = defaultdict(float)
        base = convergence = unemitted = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            dt = t1 - t0
            calls[name] += 1
            self_s[name] += dt - child_time[i]
            total[name] += dt
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent < 0 and name == "cli.main":
                base += dt
            if name in CONVERGENCE_CHILDREN and parent_name == "asymptotic.asymptotic_state":
                convergence += dt
            if name in UNEMITTED and parent_name == "cli.main" and subcommand == "phase-diagram":
                unemitted += dt
        metrics = {}
        for name in TRACED:
            metrics[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
            metrics[f"{name}.self_ms"] = (1e3 * self_s[name] / n_ops, "ms/op")
        base = base or float("inf")
        metrics["guard.rk45_share"] = (total["dynamics.solve_ivp"] / base, "share")
        metrics["guard.oracle_share"] = (total["entanglement.small_time_ppt_oracle"] / base,
                                         "share")
        metrics["guard.convergence_share"] = (convergence / base, "share")
        metrics["sweep.unemitted_share"] = (unemitted / base, "share")
        return metrics
