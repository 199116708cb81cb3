"""End-to-end CLI contract: config handling, formats, determinism, exit codes."""

import errno
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from thermalpair import asymptotic, cli, dynamics, entanglement, generation, spectral, trajectory

from util import equilibrium_closed_form


def run_cli(*args, config=None, tmp_path=None, stdin=None):
    cmd = [sys.executable, "-m", "thermalpair", *args]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        cmd += ["--config", str(path)]
    return subprocess.run(cmd, capture_output=True, text=True, input=stdin)


# ------------------------------------------------------------- coefficients

def test_coefficients_values(tmp_path):
    res = run_cli("coefficients", config={"omega": 1.0, "beta": 1.0, "ell": 0.0},
                  tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert list(doc) == ["A", "B", "C", "A'", "B'", "C'", "R", "S"]
    assert doc["A"] == pytest.approx(0.17220194120854396829, abs=1e-15)
    assert doc["B"] == pytest.approx(0.079577471545947667884, abs=1e-16)
    assert doc["C"] == pytest.approx(-0.013046998116648632524, abs=1e-15)
    assert doc["A'"] == doc["A"] and doc["B'"] == doc["B"] and doc["C'"] == doc["C"]
    assert doc["R"] == pytest.approx(0.4621171572600097585, abs=1e-15)
    assert doc["S"] == 1.0


def test_coefficients_zero_temperature(tmp_path):
    res = run_cli("coefficients", config={"omega": 1.0, "beta": "inf", "ell": 0.7},
                  tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["A"] == doc["B"]
    assert doc["R"] == 1.0


def test_coefficients_are_reported_in_units_of_omega(tmp_path):
    # same dimensionless groups (beta*omega, omega*ell): identical output
    a = run_cli("coefficients", config={"omega": 1.0, "beta": 1.0, "ell": 3.0},
                tmp_path=tmp_path)
    b = run_cli("coefficients", config={"omega": 2.0, "beta": 0.5, "ell": 1.5},
                tmp_path=tmp_path)
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout) == pytest.approx(json.loads(b.stdout), rel=1e-13)


def test_coefficients_reads_stdin():
    res = run_cli("coefficients", stdin=json.dumps({"omega": 1.0, "beta": 1.0, "ell": 0.0}))
    assert res.returncode == 0
    assert json.loads(res.stdout)["S"] == 1.0


# ------------------------------------------------------------ config errors

# diag 0.25 with every off-diagonal entry 4.5e-13 i: the largest entry of its
# anti-Hermitian part is 9e-13 as given, and about three times that in the
# frame of e3 at n = e1, which is the array every subcommand reads; its
# Frobenius norm, 3.1e-12 in every frame, is what the parser bounds
TURNED_OFF_HERMITIAN = {
    "n": [1, 0, 0], "ell": 0.5,
    "initial_state": {"matrix": [[0.25, 0.0] if k % 5 == 0 else [0.0, 4.5e-13]
                                 for k in range(16)]}}
# a config that every subcommand runs
EVERY_SUBCOMMAND = {"ell": 0.5, "time_grid": [0.0, 1.0],
                    "sweep": {"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}}
SUBCOMMANDS = ("coefficients", "phase-diagram", "evolve", "asymptotic")


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    res = run_cli("coefficients", "--config", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error" in res.stderr


@pytest.mark.parametrize("config", [
    {"omega": -1.0},
    {"omega": 1.0, "beta": 0.0},
    {"omega": 1.0, "ell": -2.0},
    {"omega": 1.0, "n": [1, 1, 0]},
    {"omega": 1.0, "mystery_knob": 3},
    {"omega": 1.0, "initial_state": {"named": "ghz"}},
    {"omega": 1.0, "initial_state": {"matrix": [[1.0, 0.0]] * 15}},
    # json.dumps writes nan and inf as the NaN and Infinity constants
    {"tolerances": {"positivity": "abc"}},
    {"beta": math.nan},
    {"omega": True},
    {"time_grid": {"t_max": "x"}},
    {"time_grid": {"t_max": math.inf}},
    {"time_grid": {"t_max": 5, "n_samples": 2.7}},
    {"sweep": {"beta_omega": [0.5, math.inf, 3], "omega_ell": [0.0, 1.0, 2]}},
    {"sweep": {"beta_omega": [0.5, 1.0, "a"], "omega_ell": [0.0, 1.0, 2]}},
    {"omega": 10**400},
    {"time_grid": {"t_max": 5, "n_samples": 10**15}},
    {"sweep": {"beta_omega": [0.5, 1.0, 10**15], "omega_ell": [0.0, 1.0, 2]}},
    {"sweep": {"beta_omega": [0.5, 1.0, 2000], "omega_ell": [0.0, 1.0, 2000]}},
    {"tolerances": {"__class__": 1.0}},
    {"beta": 5e-324},
    {"time_grid": {"t_max": 5e-324}},
    {"sweep": {"beta_omega": [2.2e-311, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}},
    # the products omega forms: beta*omega below the floor (here 1e-300),
    # or beta*omega or omega*ell overflowing a float
    {"omega": 1e-300, "sweep": {"beta_omega": [1, 1, 1], "omega_ell": [0, 1, 2]}},
    {"beta": math.nextafter(cli.MIN_BETA_OMEGA, 0.0)},
    {"omega": 1e-10, "beta": 1e-145},
    {"sweep": {"beta_omega": [math.nextafter(cli.MIN_BETA_OMEGA, 0.0), 1.0, 2],
               "omega_ell": [0.0, 0.0, 1]}},
    {"omega": 1e300, "beta": 1e10},
    {"omega": 1e300, "ell": 1e10},
    {"omega": 1e300, "beta": "inf", "ell": 1e10},
    {"omega": 0.0},
    # guard thresholds are module constants, not config
    {"tolerances": {"positivity": 1e-8}},
    # |n| overflows a float: no numpy overflow warning before the error line
    {"n": [1e200, 1e200, 0]},
    {"initial_state": {"product": {"bloch1": [1e200, 1e200, 0], "bloch2": [0, 0, 1]}}},
    # a list of times takes no other key
    {"ell": 0.5, "time_grid": {"times": [0, 1], "t_max": 5, "bogus": 1}},
    # Hermitian to 1e-12 in its largest entry as given, but not once turned
    # to the frame of e3
    TURNED_OFF_HERMITIAN,
    # rho - rho^dag overflows: no numpy overflow warning before the error line
    {"initial_state": {"matrix": [[1.7e308, 0.0] if k == 1 else [-1.7e308, 0.0] if k == 4
                                  else [0.25 * (k % 5 == 0), 0.0] for k in range(16)]}},
    # include_hs changes nothing, but a value that is not a boolean is refused
    {"include_hs": 1},
])
def test_invalid_config_exits_2(tmp_path, config):
    res = run_cli("coefficients", config=config, tmp_path=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_initial_state_is_validated_as_the_library_reads_it(tmp_path, capsys, sub):
    # the parser checks the state as given by norms that the turn to the
    # frame keeps, so evolve_traj and asymptotic_state meet no state that
    # fails them
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**EVERY_SUBCOMMAND, **TURNED_OFF_HERMITIAN}), encoding="utf-8")
    assert cli.main([sub, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix initial state invalid: density matrix is not Hermitian\n"


# Hermitian as given, with 1e200 at |++><--| and its mirror, so an
# eigenvalue of -1e200: turned to the frame of n = (0.6, 0, 0.8) by a numpy
# kron, the rounding of 1e200 left it off Hermitian instead
HUGE_COHERENCE = {"matrix": [[0.25, 0.0] if k % 5 == 0 else [1e200, 0.0] if k in (3, 12)
                             else [0.0, 0.0] for k in range(16)]}


def test_matrix_state_is_validated_as_given(tmp_path, capsys):
    # the same message at every axis: the check sees the input, not the
    # rounding of its turn to the frame
    errors = set()
    for n in ([0, 0, 1], [0.6, 0, 0.8]):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": n, "initial_state": HUGE_COHERENCE}), encoding="utf-8")
        assert cli.main(["coefficients", "--config", str(path)]) == 2
        errors.add(capsys.readouterr().err)
    assert errors == {"error: matrix initial state invalid: density matrix has negative "
                      "eigenvalue -1e+200\n"}


def test_parsed_state_is_the_same_at_every_axis():
    # a state enters the frame of n only in RunConfig.initial_state, so the
    # parser keeps it as given: a matrix as the nested list of its entries
    rng = np.random.default_rng(35)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    matrix = {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
    for state in ({"named": "singlet"}, {"named": "canonical"}, PRODUCT, matrix):
        parsed = [cli.parse_config({"n": n, "initial_state": state}).state
                  for n in ([0, 0, 1], [0.6, 0, 0.8], [0, -1, 0], [2 / 3, -1 / 3, 2 / 3])]
        assert all(p == parsed[0] for p in parsed), state
    assert parsed[0] == ("matrix", rho.tolist())


@pytest.mark.parametrize("sub,out", [(sub, "missing/x.json") for sub in SUBCOMMANDS]
                         + [("evolve", "x.json")],
                         ids=[*SUBCOMMANDS, "evolve-summary"])
def test_unwritable_out_exits_2(tmp_path, capsys, sub, out):
    # a missing directory, or a directory where evolve's summary goes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EVERY_SUBCOMMAND), encoding="utf-8")
    (tmp_path / "x.json.summary.json").mkdir()
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1


class _FailingStdout:
    """Standard output whose write, or whose flush of accepted writes,
    raises exc, as a full disk or a closed pipe does."""

    def __init__(self, fails_on: str, exc: OSError):
        self.fails_on, self.exc = fails_on, exc

    def write(self, text):
        if self.fails_on == "write":
            raise self.exc
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        raise self.exc


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@pytest.mark.parametrize("fails_on,exc", [
    ("write", OSError(errno.ENOSPC, "No space left on device")),
    ("flush", BrokenPipeError(errno.EPIPE, "Broken pipe")),
], ids=["full-disk", "closed-pipe"])
def test_failed_write_to_stdout_exits_2(tmp_path, capsys, monkeypatch, sub, fails_on, exc):
    # standard output fails as an --out file does: one error line, exit 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EVERY_SUBCOMMAND), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", _FailingStdout(fails_on, exc))
    assert cli.main([sub, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {exc}\n"


@pytest.mark.parametrize("sub,target", [("phase-diagram", "closed-pipe"),
                                        ("asymptotic", "full-disk")])
def test_failed_write_to_stdout_leaves_no_traceback(tmp_path, sub, target):
    # the process ends with the one error line, and its exit flush adds nothing
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": {"beta_omega": [0.5, 4.0, 30],
                                          "omega_ell": [0.0, 2.0, 20]}}), encoding="utf-8")
    if target == "full-disk":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full on this platform")
        stdout, message = open("/dev/full", "w"), "[Errno 28] No space left on device"
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout, message = os.fdopen(write_end, "w"), "[Errno 32] Broken pipe"
    with stdout:
        res = subprocess.run([sys.executable, "-m", "thermalpair", sub, "--config", str(path)],
                             stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write output: {message}\n"


def test_beta_omega_floor_is_accepted(tmp_path):
    # at the floor, coth(beta*omega/2)^2 = (A/B)^2 is still a finite float
    res = run_cli("coefficients", config={"beta": cli.MIN_BETA_OMEGA}, tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert all(math.isfinite(v) for v in doc.values())
    assert math.isfinite((doc["A"] / doc["B"]) ** 2)


@pytest.mark.parametrize("sub,config,code", [
    # t_max |M|_1 overflows: the RK45 work cap rejects it without a numpy warning
    ("evolve", {"time_grid": {"times": [0, 1e308]}}, 2),
], ids=["evolve-rk-work-overflow"])
def test_numerical_failure_exits_with_its_code(tmp_path, sub, config, code):
    res = run_cli(sub, config=config, tmp_path=tmp_path)
    assert res.returncode == code
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("sweep,code,stderr", [
    # below beta*omega ~ 0.007 the oracle shortens its step to stay in the
    # Taylor series, which returns a real state: no ComplexWarning
    ({"beta_omega": [0.001, 0.05, 30], "omega_ell": [0.0, 1e-4, 30]}, 0, ""),
    # coth(beta*omega/2) ~ 1e38: squaring exp(1e-3 M) would lose the state to
    # underflow, and the shortened step keeps it
    ({"beta_omega": [1e-38, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}, 0, ""),
    # coth ~ 1e50: squaring exp(1e-3 M) would overflow, and the shortened
    # step never squares
    ({"beta_omega": [1e-50, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}, 0, ""),
    # beta*omega down to 1e-20 at and near ell = 0, with no deviation line
    ({"beta_omega": [1e-20, 1e-3, 30], "omega_ell": [0.0, 1e-4, 30]}, 0, ""),
], ids=["expm-branch", "sweep-overflow", "sweep-expm-overflow", "tiny-beta-omega"])
def test_phase_diagram_stderr(tmp_path, sweep, code, stderr):
    # the CSV is written exactly when the sweep exits 0
    out = tmp_path / "grid.csv"
    res = run_cli("phase-diagram", "--out", str(out), config={"sweep": sweep}, tmp_path=tmp_path)
    assert res.returncode == code
    assert res.stderr == stderr
    assert out.exists() == (code == 0)


def test_oracle_disagreement_exits_3_after_every_row(tmp_path, monkeypatch, capsys):
    # rows are written as each point is computed, so a disagreement leaves
    # the whole CSV, and the error names the first point and the count
    monkeypatch.setattr(generation, "small_time_ppt_oracle", lambda params: False)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    assert cli.main(["phase-diagram", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert captured.err.startswith("error: discriminant and small-time oracle disagree at "
                                   "beta_omega=1.0, omega_ell=0.5 (rs_margin=")
    assert captured.err.endswith(", oracle=False); 1 point(s) total\n")


@pytest.mark.parametrize("sub,config", [
    # a loose convergence threshold let a state 0.707 from the evolved one pass
    ("asymptotic", {"beta": "inf", "ell": 0, "include_hs": True,
                    "initial_state": {"product": {"bloch1": [1, 0, 0], "bloch2": [-1, 0, 0]}},
                    "tolerances": {"convergence": 1e300}}),
    # a long oracle step and a wide band let generated contradict the oracle
    ("phase-diagram", {"sweep": {"beta_omega": [0.5, 5, 4], "omega_ell": [0, 3, 4]},
                       "tolerances": {"oracle_dt": 1e3, "oracle_band": 1e300}}),
], ids=["asymptotic-convergence", "phase-diagram-oracle"])
def test_config_cannot_loosen_a_guard(tmp_path, sub, config):
    res = run_cli(sub, config=config, tmp_path=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: unknown config keys: ['tolerances']\n"


def test_rk45_work_over_cap_exits_2_before_integrating(tmp_path):
    # t_max |M|_1 = 1.9e6: at the 0.7 s per 1e5 of work measured for
    # cli.MAX_RK_WORK on a named state, the RK45 cross-check would take 13 s
    config = {"beta": 0.001, "ell": 1, "time_grid": {"t_max": 1000, "n_samples": 3}}
    start = time.perf_counter()
    res = run_cli("evolve", config=config, tmp_path=tmp_path)
    assert time.perf_counter() - start < 1.0
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "MAX_RK_WORK" in res.stderr and "Traceback" not in res.stderr


def test_rk45_work_cap_gives_the_same_verdict_at_every_axis(tmp_path, capsys):
    # the cap reads |M|_1 of the generator at e3 that RK45 integrates: here
    # t_max |M|_1 = 2.2e5, just over the cap, at every axis n.  The
    # generator turned to n = e1 has |M|_1 = 0.77 times that, so a cap read
    # off it would let this grid run at e1 and reject it at e3.
    config = {"beta": "inf", "ell": 5.0, "time_grid": {"t_max": 1.58e5, "n_samples": 3}}
    results = []
    for n in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "n": n}), encoding="utf-8")
        results.append((cli.main(["evolve", "--config", str(path)]), capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 2 and "MAX_RK_WORK" in results[0][1]


def test_rk45_work_cap_gives_the_same_verdict_with_and_without_include_hs(tmp_path, monkeypatch,
                                                                       capsys):
    # RK45 integrates the dissipator alone, so the cap reads its |M|_1 = 1.809
    # here, t_max |M|_1 = 3.62e5, and include_hs, which changes nothing,
    # leaves the figure as it is; a generator with the free Hamiltonian has
    # |M|_1 = 2.049 and would give another.  Nothing is integrated.
    def forbidden(*args):
        raise AssertionError("the RK45 work cap let an over-cap grid integrate")

    monkeypatch.setattr(dynamics, "evolve_traj", forbidden)
    monkeypatch.setattr(trajectory, "evolve_q0", forbidden)
    config = {"beta": 10, "ell": 1, "time_grid": {"t_max": 2e5, "n_samples": 3}}
    results = []
    for include_hs in (False, True):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "include_hs": include_hs}), encoding="utf-8")
        results.append((cli.main(["evolve", "--config", str(path)]), capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 2 and "= 3.62e+05 exceeds MAX_RK_WORK" in results[0][1]


def _disagreeing(solve_ivp):
    return lambda *args: (y + 1e-6 for y in solve_ivp(*args))


def _failing(solve_ivp):
    # the RK45 route alone sees a generator with a NaN entry
    def failed(M, *args):
        M = M.copy()
        M[3, 5] = np.nan
        return solve_ivp(M, *args)
    return failed


@pytest.mark.parametrize("fault,message", [
    (_disagreeing, "matrix-exponential and RK45 trajectories disagree: 1.000e-06 > 1.0e-08\n"),
    (_failing, "RK45 cross-check integration failed: "),
], ids=["disagreement", "integration-failure"])
def test_a_failed_rk45_cross_check_exits_3(tmp_path, monkeypatch, capsys, fault, message):
    # the cross-check guards the implementation, as the phase diagram's oracle
    # does: one error line, no traceback and no output
    # (a product state, which takes dynamics.evolve_traj; the named states'
    # route is the next test's)
    monkeypatch.setattr(dynamics, "solve_ivp", fault(dynamics.solve_ivp))
    path, out = tmp_path / "config.json", tmp_path / "traj.csv"
    path.write_text(json.dumps({"time_grid": {"t_max": 1.0, "n_samples": 3},
                                "initial_state": PRODUCT}), encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


def _disagreeing_q0(solve_q0):
    return lambda *args: ([x + 1e-6 for x in y] for y in solve_q0(*args))


def _failing_q0(solve_q0):
    # the RK45 route alone sees a Q0 block with a NaN entry
    def failed(M, *args):
        return solve_q0([[math.nan] * 6] + M[1:], *args)
    return failed


@pytest.mark.parametrize("fault,message", [
    (_disagreeing_q0, "matrix-exponential and RK45 trajectories disagree: 1.000e-06 > 1.0e-08\n"),
    (_failing_q0, "RK45 cross-check integration failed: "),
], ids=["disagreement", "integration-failure"])
@pytest.mark.parametrize("state", ["canonical", "singlet"])
def test_a_failed_rk45_cross_check_of_a_named_state_exits_3(tmp_path, monkeypatch, capsys,
                                                            fault, message, state):
    # the named states' RK45 on Q0 (trajectory.solve_q0) guards as the dense one
    # does, with the same messages
    monkeypatch.setattr(trajectory, "solve_q0", fault(trajectory.solve_q0))
    path, out = tmp_path / "config.json", tmp_path / "traj.csv"
    path.write_text(json.dumps({"time_grid": {"t_max": 1.0, "n_samples": 3},
                                "initial_state": {"named": state}}), encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("bad_time,code", [(0.5, 4), (1.0, 3)])
def test_the_first_sample_that_fails_a_guard_sets_the_exit_code(tmp_path, monkeypatch, capsys,
                                                                 bad_time, code):
    # at each sample evolve_traj's guards run before RK45 advances to it: a
    # positivity failure at the RK45 route's first failing sample exits 4,
    # one at a later sample never runs, and the failed integration exits 3
    real_check = dynamics.check_trace

    def check_trace(finite, tr, t):
        if t == bad_time:
            raise generation.PositivityError(f"evolved state is not finite at t={t}")
        return real_check(finite, tr, t)

    monkeypatch.setattr(dynamics, "check_trace", check_trace)
    monkeypatch.setattr(dynamics, "solve_ivp", _failing(dynamics.solve_ivp))
    path, out = tmp_path / "config.json", tmp_path / "traj.csv"
    path.write_text(json.dumps({"time_grid": {"t_max": 1.0, "n_samples": 3},
                                "initial_state": PRODUCT}), encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and captured.err.count("\n") == 1
    assert captured.err.startswith("error: evolved state is not finite at t=0.5\n" if code == 4
                                   else "error: RK45 cross-check integration failed: ")


@pytest.mark.parametrize("bad_time,code", [(0.5, 4), (1.0, 3)])
def test_the_first_sample_of_a_named_state_that_fails_a_guard_sets_the_exit_code(
        tmp_path, monkeypatch, capsys, bad_time, code):
    # the same order on Q0: generation.checked_q0 guards each sample before
    # trajectory.solve_q0 advances to it
    real_checked = generation.checked_q0

    def checked(v, t):
        if t == bad_time:
            raise generation.PositivityError(f"evolved state is not finite at t={t}")
        return real_checked(v, t)

    monkeypatch.setattr(generation, "checked_q0", checked)
    monkeypatch.setattr(trajectory, "solve_q0", _failing_q0(trajectory.solve_q0))
    path, out = tmp_path / "config.json", tmp_path / "traj.csv"
    path.write_text(json.dumps({"time_grid": {"t_max": 1.0, "n_samples": 3}}), encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and captured.err.count("\n") == 1
    assert captured.err.startswith("error: evolved state is not finite at t=0.5\n" if code == 4
                                   else "error: RK45 cross-check integration failed: ")


def _memory_slope(tmp_path, state) -> float:
    """The traced peak of an evolve of state, in bytes per sample."""
    path, out = tmp_path / "config.json", tmp_path / "traj.csv"

    def traced_peak(n_samples):
        path.write_text(json.dumps({"beta": 2, "ell": 0.7, "initial_state": state,
                                    "time_grid": {"t_max": 5.0, "n_samples": n_samples}}),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(50)  # imports and first-call allocations stay out of the slope
    return (traced_peak(5000) - traced_peak(500)) / 4500


def test_trajectory_memory_grows_by_its_text_alone(tmp_path):
    # evolve keeps each row's text and the last state: the list of states
    # (a 4x4 complex array, about 0.37 KB a sample) and the RK45 array (0.26
    # KB) are gone, so the traced peak grows by the rows' strings and the
    # time grid, about 0.24 KB a sample (a product state, on
    # dynamics.evolve_traj)
    slope = _memory_slope(tmp_path, PRODUCT)
    assert slope < 400, f"{slope:.0f} B per sample"


def test_named_trajectory_memory_grows_by_its_text_alone(tmp_path):
    # the same bound on the named states' route, trajectory.evolve_q0
    slope = _memory_slope(tmp_path, {"named": "canonical"})
    assert slope < 400, f"{slope:.0f} B per sample"


@pytest.mark.parametrize("text", [
    b'{"omega": ' + b"1" * 5000 + b"}",   # beyond the interpreter's integer digit limit
    b"[" * 100000 + b"]" * 100000,        # nesting beyond the recursion limit
    b'{"omega": "\xff"}',                 # not UTF-8
], ids=["digits", "nesting", "encoding"])
def test_unparsable_config_exits_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    res = run_cli("coefficients", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_nonpositive_matrix_initial_state_exits_2(tmp_path):
    entries = [[x, 0.0] for x in np.diag([0.7, 0.5, -0.1, -0.1]).reshape(-1)]
    res = run_cli("evolve", config={"initial_state": {"matrix": entries},
                                    "time_grid": {"t_max": 1.0, "n_samples": 3}},
                  tmp_path=tmp_path)
    assert res.returncode == 2


def test_missing_sweep_exits_2(tmp_path):
    res = run_cli("phase-diagram", config={"omega": 1.0}, tmp_path=tmp_path)
    assert res.returncode == 2


# ------------------------------------------------------------ phase diagram

SWEEP = {"omega": 1.0,
         "sweep": {"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.5, 3.0, 2]}}


def test_phase_diagram_rows(tmp_path):
    res = run_cli("phase-diagram", config=SWEEP, tmp_path=tmp_path)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "beta_omega,omega_ell,R,S,rs_margin,discriminant_margin,generated,oracle_generated"
    assert len(lines) == 3
    row_gen = lines[1].split(",")
    row_not = lines[2].split(",")
    assert float(row_gen[1]) == 0.5 and row_gen[6] == "true" and row_gen[7] == "true"
    assert float(row_not[1]) == 3.0 and row_not[6] == "false" and row_not[7] == "false"


def test_phase_diagram_internal_consistency(tmp_path):
    config = {"omega": 1.0,
              "sweep": {"beta_omega": [0.5, 4.0, 3], "omega_ell": [0.0, 6.0, 4]}}
    res = run_cli("phase-diagram", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
    assert len(rows) == 12
    expected_order = [(bw, wl) for bw in np.linspace(0.5, 4.0, 3)
                      for wl in np.linspace(0.0, 6.0, 4)]
    for row, (bw, wl) in zip(rows, expected_order):
        assert float(row[0]) == pytest.approx(bw, abs=1e-15)
        assert float(row[1]) == pytest.approx(wl, abs=1e-15)
        R, S, rs = float(row[2]), float(row[3]), float(row[4])
        assert rs == pytest.approx(R * R + S * S - 1.0, abs=1e-15)


def test_phase_diagram_deterministic(tmp_path):
    config = {"omega": 1.0,
              "sweep": {"beta_omega": [0.2, 6.0, 4], "omega_ell": [0.0, 5.0, 3]}}
    first = run_cli("phase-diagram", config=config, tmp_path=tmp_path)
    second = run_cli("phase-diagram", config=config, tmp_path=tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_phase_diagram_out_file_matches_stdout(tmp_path):
    out = tmp_path / "grid.csv"
    res_file = run_cli("phase-diagram", "--out", str(out), config=SWEEP, tmp_path=tmp_path)
    res_std = run_cli("phase-diagram", config=SWEEP, tmp_path=tmp_path)
    assert res_file.returncode == 0
    assert out.read_text(encoding="utf-8") == res_std.stdout


def test_phase_diagram_verdicts_insensitive_to_hamiltonian_flag(tmp_path):
    # the free Hamiltonian is local and commutes with the dissipator, so the
    # sweep never builds it: the CSV is the same byte for byte
    plain = run_cli("phase-diagram", config=SWEEP, tmp_path=tmp_path)
    with_h = run_cli("phase-diagram", config={**SWEEP, "include_hs": True}, tmp_path=tmp_path)
    assert plain.returncode == with_h.returncode == 0
    assert plain.stdout == with_h.stdout
    assert len(plain.stdout.splitlines()) == 3


# ------------------------------------------------------------------- evolve

def test_evolve_canonical_reaches_asymptotic_concurrence(tmp_path):
    out = tmp_path / "traj.csv"
    config = {"omega": 1.0, "beta": 1.0, "ell": 0.0,
              "initial_state": {"named": "canonical"},
              "time_grid": {"t_max": 200.0, "n_samples": 41}}
    res = run_cli("evolve", "--out", str(out), config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,trace,min_eig,min_eig_pt,concurrence,tau"
    first = lines[1].split(",")
    final = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(-1.0, abs=1e-12)  # tau of |-,+>
    assert float(final[4]) == pytest.approx(0.13290729341780352129, abs=1e-6)
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(cells[5]) == pytest.approx(-1.0, abs=1e-9)  # tau conserved
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["trace_distance_to_asymptotic"] < 1e-6
    assert summary["final_time"] == 200.0


def test_evolve_singlet_concurrence_constant(tmp_path):
    config = {"omega": 1.0, "beta": 0.7, "ell": 0.0,
              "initial_state": {"named": "singlet"},
              "time_grid": {"t_max": 20.0, "n_samples": 11}}
    res = run_cli("evolve", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    for line in res.stdout.splitlines()[1:]:
        assert float(line.split(",")[4]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_explicit_time_list(tmp_path):
    config = {"omega": 2.0, "beta": 0.5, "ell": 0.0,
              "time_grid": [0.0, 1.0, 2.0]}
    res = run_cli("evolve", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    times = [float(line.split(",")[0]) for line in res.stdout.splitlines()[1:]]
    assert times == [0.0, 1.0, 2.0]  # reported in units of 1/omega


# --------------------------------------------------------------- asymptotic

def test_asymptotic_zero_temperature_canonical(tmp_path):
    config = {"omega": 1.0, "beta": "inf", "ell": 0.0,
              "initial_state": {"named": "canonical"}}
    res = run_cli("asymptotic", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["concurrence"] == pytest.approx(0.5, abs=1e-8)
    assert doc["tau"] == pytest.approx(-1.0, abs=1e-8)
    assert doc["threshold_tau"] == pytest.approx(1.0, abs=1e-12)
    assert len(doc["rho_infinity"]) == 16
    rho = np.array([complex(re, im) for re, im in doc["rho_infinity"]]).reshape(4, 4)
    assert abs(np.trace(rho) - 1.0) < 1e-10


def test_asymptotic_singlet(tmp_path):
    config = {"omega": 1.0, "beta": 1.0, "ell": 0.0,
              "initial_state": {"named": "singlet"}}
    res = run_cli("asymptotic", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["stationary_dim"] == 2
    assert doc["concurrence"] == pytest.approx(1.0, abs=1e-10)
    assert doc["tau"] == pytest.approx(-3.0, abs=1e-10)


def test_asymptotic_finite_separation_is_separable(tmp_path):
    config = {"omega": 1.0, "beta": 1.0, "ell": 2.0}
    res = run_cli("asymptotic", config=config, tmp_path=tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["stationary_dim"] == 1
    assert doc["concurrence"] < 1e-10


# |+x>|-x> at zero temperature and ell = 0: it carries a singlet/ground
# coherence, which the dissipator conserves
COHERENT = {"omega": 1.0, "beta": "inf", "ell": 0.0,
            "initial_state": {"product": {"bloch1": [1, 0, 0], "bloch2": [-1, 0, 0]}}}


def test_asymptotic_and_evolve_agree_on_conserved_coherence(tmp_path):
    res = run_cli("asymptotic", config=COHERENT, tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["stationary_dim"] == 4
    # evolve's summary takes the same limit, which keeps the coherence
    # whatever include_hs says; the state without it is 0.7071 away
    out = tmp_path / "traj.csv"
    summaries = []
    for include_hs in (False, True):
        res = run_cli("evolve", "--out", str(out),
                      config={**COHERENT, "include_hs": include_hs,
                              "time_grid": {"t_max": 200.0, "n_samples": 3}},
                      tmp_path=tmp_path)
        assert res.returncode == 0, res.stderr
        summaries.append(json.loads((tmp_path / "traj.csv.summary.json").read_text(
            encoding="utf-8")))
        assert summaries[-1]["trace_distance_to_asymptotic"] < 1e-8
    assert summaries[0] == summaries[1]
    assert summaries[0]["asymptotic_concurrence"] == report["concurrence"]


def test_asymptotic_state_at_an_axis_is_the_closed_form_equilibrium(tmp_path):
    # rho_infinity is reported in the lab frame: the canonical state along n
    # has tau = -1 and relaxes to the ell = 0 equilibrium along n
    n = [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]
    res = run_cli("asymptotic", config={"beta": 1.0, "ell": 0.0, "n": n}, tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    rho = np.array([complex(*z) for z in json.loads(res.stdout)["rho_infinity"]]).reshape(4, 4)
    expected = equilibrium_closed_form(math.tanh(0.5), -1.0, n)
    np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@pytest.mark.parametrize("config", [
    COHERENT,
    {"beta": 2.0, "ell": 0.7, "n": [0.6, 0.0, 0.8],
     "initial_state": {"product": {"bloch1": [0.6, 0.8, 0.0], "bloch2": [0, 0, -1]}}},
], ids=["dark-corner", "generic"])
def test_include_hs_changes_nothing(tmp_path, capsys, config, sub):
    # the free Hamiltonian commutes with the dissipator and only turns both
    # atoms by one local unitary, so no subcommand reads the key: true, false
    # or left out give the same bytes, standard error and exit code, also
    # where the dissipator conserves the singlet/ground coherence
    path = tmp_path / "config.json"
    results = []
    for extra in ({}, {"include_hs": False}, {"include_hs": True}):
        path.write_text(json.dumps({**EVERY_SUBCOMMAND, **config, **extra}), encoding="utf-8")
        results.append((cli.main([sub, "--config", str(path)]), *capsys.readouterr()))
    assert results[0][0] == 0 and results[0][1]
    assert results[1] == results[0] and results[2] == results[0]


def _bench_check():
    spec = importlib.util.spec_from_file_location(
        "bench_check", Path(__file__).resolve().parents[1] / "bench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ell -> 0+: the slow relative mode still decays, so the state is the product
# Gibbs state g (x) g, turned to the axis n
CROSSOVER = {"beta": 1, "ell": 1e-6, "n": [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]}


def test_crossover_asymptotic_is_the_product_gibbs_state(tmp_path):
    res = run_cli("asymptotic", config=CROSSOVER, tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["stationary_dim"] == 1
    R = math.tanh(0.5)
    g = np.diag([(1.0 - R) / 2.0, (1.0 + R) / 2.0])
    V = np.kron(*[entanglement.local_frame(CROSSOVER["n"])] * 2)
    rho = np.array([complex(*z) for z in doc["rho_infinity"]]).reshape(4, 4)
    np.testing.assert_allclose(rho, V @ np.kron(g, g) @ V.conj().T, rtol=0, atol=1e-12)
    assert _bench_check().check_asymptotic(CROSSOVER, res.stdout.encode(), None) is None


def test_crossover_evolve_settles_on_a_separable_state(tmp_path):
    # evolve's summary takes the same product state, which has no concurrence
    out = tmp_path / "traj.csv"
    res = run_cli("evolve", "--out", str(out),
                  config={**CROSSOVER, "time_grid": {"t_max": 10.0, "n_samples": 3}},
                  tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["asymptotic_concurrence"] == 0


def test_asymptotic_convergence_failure_exits_5(tmp_path, monkeypatch, capsys):
    # the Gibbs state of beta*omega = 1 under the generator of beta*omega = 2,
    # put in place of the one the guard reads: the prediction fails the
    # convergence check, which main reports as exit 5 in one line
    M_2 = spectral.generator(spectral.ModelParams(beta_omega=2.0, omega_ell=2.0))
    monkeypatch.setattr(asymptotic, "generator", lambda params: M_2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"beta": 1.0, "ell": 2.0}), encoding="utf-8")
    assert cli.main(["asymptotic", "--config", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the predicted state is not stationary: residual ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# --------------------------------------------------------- in-process calls

def _cyclic_garbage(call) -> int:
    """Objects in reference cycles that one call of call() leaves, found by a
    full collection with the collector off during the call; a first call
    warms caches and lazy imports."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_cli_op_leaves_no_cyclic_garbage(tmp_path):
    # main reads its arguments by hand, so an op leaves at most what the
    # standard library's indented JSON encoder leaves: its nested closures
    # form cycles (an empty document leaves one object fewer)
    sweep, point = tmp_path / "sweep.json", tmp_path / "point.json"
    sweep.write_text(json.dumps(
        {"sweep": {"beta_omega": [0.5, 4.0, 3], "omega_ell": [0.0, 2.0, 3]}}), encoding="utf-8")
    point.write_text(json.dumps(
        {"beta": 1.0, "ell": 2.0, "time_grid": {"t_max": 1.0, "n_samples": 3}}), encoding="utf-8")

    def run(sub, path):
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    allowance = _cyclic_garbage(lambda: json.dumps({"key": 0.0}, indent=2))
    assert _cyclic_garbage(lambda: run("phase-diagram", sweep)) == 0
    for sub in ("asymptotic", "evolve", "coefficients"):
        left = _cyclic_garbage(lambda: run(sub, point))
        assert left <= allowance, f"{sub} left {left} cyclic objects, allowance {allowance}"


def test_parser_reuse_keeps_calls_independent(tmp_path, capsys):
    path, out = tmp_path / "sweep.json", tmp_path / "grid.csv"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    argv = ["phase-diagram", "--config", str(path)]

    # an --out from one call does not carry over to the next
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert expected.encode("utf-8") == out.read_bytes()

    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------ command line

@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["evolve", "-h"],
                                  ["phase-diagram", "--config", "missing.json", "--help"]])
def test_help_lists_the_subcommands_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: thermalpair ") and err == ""
    for sub, (_, text) in cli._COMMANDS.items():
        assert f"  {sub}" in out and text in out, sub
    assert set(cli._COMMANDS) == set(SUBCOMMANDS)


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["--config", "c.json", "evolve"], "argument command: invalid choice: '--config'"),
    (["evolve", "--bogus"], "unrecognized arguments: --bogus"),
    (["evolve", "--conf=c.json"], "unrecognized arguments: --conf=c.json"),
    (["evolve", "--config"], "argument --config: expected one argument"),
    (["evolve", "--out", "--config", "c.json"], "argument --out: expected one argument"),
    (["evolve", "stray"], "unrecognized arguments: stray"),
    (["evolve", "--config", "c.json", "asymptotic"], "unrecognized arguments: asymptotic"),
], ids=["no-subcommand", "unknown-subcommand", "option-first", "unknown-option",
        "abbreviated-option", "missing-value", "option-as-value", "stray-positional",
        "second-subcommand"])
def test_usage_error_writes_usage_and_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: thermalpair ")
    assert error == f"thermalpair: error: {message}"


def test_options_run_in_either_order_joined_and_from_stdin(tmp_path, monkeypatch, capsys):
    path, out = tmp_path / "sweep.json", tmp_path / "grid.csv"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    assert cli.main(["phase-diagram", "--config", str(path)]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    for options in (["--config", str(path), "--out", str(out)],
                    ["--out", str(out), "--config", str(path)],
                    [f"--config={path}", f"--out={out}"],
                    [f"--out={out}", "--config", "-"],
                    ["--out", str(out)]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SWEEP)))
        out.unlink(missing_ok=True)
        assert cli.main(["phase-diagram", *options]) == 0, options
        assert out.read_bytes() == expected, options
    assert capsys.readouterr() == ("", "")


# ------------------------------------------------------------------ startup

def test_phase_diagram_takes_no_svd(tmp_path, monkeypatch):
    # the boundary band is sized from K's closed-form eigenvalues, so the
    # sweep path needs neither an SVD nor a matrix norm, also at ell = 0; the
    # oracle applies exp(dt M) to the state by its own Taylor series of
    # matrix-vector products and forms no matrix exponential
    def forbidden(*args, **kwargs):
        raise AssertionError("the phase diagram called an SVD, a matrix norm, a linear "
                             "solve or a matrix exponential")

    for module, name in ((np.linalg, "svd"), (np.linalg, "norm"), (np.linalg, "solve"),
                         (dynamics, "expm")):
        monkeypatch.setattr(module, name, forbidden)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"sweep": {"beta_omega": [0.5, 4.0, 3], "omega_ell": [0.0, 2.0, 3]}}), encoding="utf-8")
    assert cli.main(["phase-diagram", "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 0


def test_phase_diagram_dense_factorizations(tmp_path, monkeypatch):
    # work counter: the oracle takes its spectra in closed form, so a sweep
    # makes no eigvalsh, eigh, svd or solve call at any beta*omega and
    # omega*ell corner; it applies exp(dt M) by one call of its Taylor series
    # per grid point, also below beta*omega of about 0.007, where |1e-3 M_q0|_1
    # exceeds generation._THETA_T and the oracle shortens its step, so no
    # point forms a matrix exponential either
    calls = Counter()
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np.linalg, "svd"),
                         (np.linalg, "solve"), (dynamics, "expm"),
                         (generation, "taylor_action")):
        def counting(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    def sweep(config):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        calls.clear()
        assert cli.main(["phase-diagram", "--config", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 0
        return dict(calls)

    for omega, omega_ell in ((1.0, [0.0, 0.0, 1]), (0.25, [1e-8, 1e-3, 5]),
                             (4.0, [0.0, 12.0, 7])):
        assert sweep({"omega": omega, "sweep": {"beta_omega": [0.05, 50.0, 6],
                                                "omega_ell": omega_ell}}) == {
            "taylor_action": 6 * omega_ell[2]}

    beta_omega, omega_ell = np.linspace(0.001, 0.05, 30), np.linspace(0.0, 1e-4, 30)
    capped_points = 0
    for bw in beta_omega:
        for wl in omega_ell:
            M = np.array(spectral.generator_q0(spectral.ModelParams(beta_omega=bw,
                                                                      omega_ell=wl)))
            capped_points += np.abs(1e-3 * M).sum(axis=0).max() > generation._THETA_T
    assert 0 < capped_points < 900
    assert sweep({"sweep": {"beta_omega": [0.001, 0.05, 30],
                            "omega_ell": [0.0, 1e-4, 30]}}) == {"taylor_action": 900}
    assert sweep({"sweep": {"beta_omega": [1e-20, 1e-3, 30],
                            "omega_ell": [0.0, 1e-4, 30]}}) == {"taylor_action": 900}


def test_trajectory_and_asymptotic_dense_factorizations(tmp_path, monkeypatch):
    # work counter: evolve and asymptotic reach LAPACK only through eigvalsh.
    # The exponential takes no linear solve, and concurrence and trace_norm
    # take no SVD and no eigh.  concurrence takes its closed form on an
    # X-state, and otherwise one eigvalsh, of the dilation in _wootters_l.
    # evolve of a state off Q0 multiplies by one expm per run of equal
    # positive steps and never takes the Taylor series of Q0; a state in Q0
    # with real entries takes that series and neither expm nor eigvalsh;
    # asymptotic takes none
    calls = Counter()
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np.linalg, "svd"),
                         (np.linalg, "solve"), (dynamics, "expm"),
                         (entanglement, "concurrence"), (generation, "taylor_action")):
        def counting(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            if sys._getframe(1).f_code is entanglement._wootters_l.__code__:
                calls[f"{_name} in _wootters_l"] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    def dilations(doc, dense=False):
        """{subcommand: dilation eigvalsh calls} for evolve and asymptotic on
        doc, whose state evolves densely or on Q0."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        found = {}
        for sub, concurrences in (("evolve", 21 + 1), ("asymptotic", 1)):
            calls.clear()
            assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            assert calls["svd"] == calls["solve"] == calls["eigh"] == 0, (sub, calls)
            assert calls["concurrence"] == concurrences, (sub, calls)
            assert calls["expm"] == (runs if sub == "evolve" and dense else 0), (sub, calls)
            assert (calls["taylor_action"] > 0) == (sub == "evolve" and not dense), (sub, calls)
            assert dense or calls["eigvalsh"] == 0, (sub, calls)
            found[sub] = calls["eigvalsh in _wootters_l"]
        return found

    # these states, their trajectories and their limits are X-states: the
    # product state and the named ones in Q0, the matrix state with its
    # |++><--| coherence off Q0; the 21-sample grid starts at t = 0, so it
    # has 20 positive steps, all equal in floats: one run
    grid = {"t_max": 400, "n_samples": 21}
    times = cli.parse_config({"time_grid": grid}).times
    steps = [b - a for a, b in zip(times, times[1:])]
    runs = 1 + sum(b != a for a, b in zip(steps, steps[1:]))
    assert (len(steps), runs) == (20, 1)
    up_down = {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0, -1]}}
    for state in (up_down, {"named": "canonical"}, {"named": "singlet"}, X_MATRIX):
        assert dilations({"beta": 0.5, "ell": 0.5, "initial_state": state, "time_grid": grid},
                         dense=state is X_MATRIX) == {"evolve": 0, "asymptotic": 0}, state
    # at beta = inf and ell = 0 the coherence c = <S|rho|--> is conserved, so
    # a matrix state with c != 0 keeps entries off the X at every sample and
    # in the limit: one dilation per concurrence
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    rho[1, 3] = rho[3, 1] = 0.05
    matrix = {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
    assert dilations({"beta": "inf", "ell": 0.0, "initial_state": matrix, "time_grid": grid},
                     dense=True) == {"evolve": 21 + 1, "asymptotic": 1}


def test_a_matrix_initial_state_is_validated_once(tmp_path, monkeypatch):
    # work counter: the config parser validates a matrix state where it enters
    # (as given), and neither RunConfig.initial_state, evolve_traj nor
    # asymptotic_state validates it again
    calls = []
    validate = entanglement.validate_density_matrix

    def counting(rho):
        calls.append(rho)
        return validate(rho)

    monkeypatch.setattr(entanglement, "validate_density_matrix", counting)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    rho[1, 2], rho[2, 1] = 0.05 - 0.02j, 0.05 + 0.02j
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "beta": 0.5, "ell": 0.5, "n": [1, 0, 0],
        "initial_state": {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]},
        "time_grid": {"t_max": 10, "n_samples": 5}}), encoding="utf-8")
    for sub in ("evolve", "asymptotic"):
        calls.clear()
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1, sub


def test_phase_diagram_builds_the_canonical_kets_once(tmp_path, monkeypatch):
    # the discriminant at |-+> is a closed form in K's coefficients, so no
    # grid point rebuilds the state's kets: the count does not grow with the grid
    calls = []
    bloch_ket = entanglement.bloch_ket

    def counting(b):
        calls.append(b)
        return bloch_ket(b)

    monkeypatch.setattr(entanglement, "bloch_ket", counting)
    counts = []
    for sweep in ({"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.5, 0.5, 1]},
                  {"beta_omega": [0.5, 4.0, 4], "omega_ell": [0.0, 2.0, 4]}):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": sweep}), encoding="utf-8")
        calls.clear()
        assert cli.main(["phase-diagram", "--config", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_phase_diagram_reads_k_once_per_point(tmp_path, monkeypatch):
    # one kossakowski_coefficients call per grid point, shared by the
    # generator and the discriminant, under every name the package binds it
    calls = []
    real = spectral.kossakowski_coefficients

    def counting(params):
        calls.append(params)
        return real(params)

    for module in (cli, dynamics, entanglement, asymptotic, spectral):
        if hasattr(module, "kossakowski_coefficients"):
            monkeypatch.setattr(module, "kossakowski_coefficients", counting)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"sweep": {"beta_omega": [0.5, 4.0, 4], "omega_ell": [0.0, 2.0, 4]}}), encoding="utf-8")
    assert cli.main(["phase-diagram", "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 16


def test_no_subcommand_imports_scipy(tmp_path):
    # the package runs on numpy alone; scipy is a test-side reference, and
    # loading it would add its import to every subcommand's cold start
    sweep, point = tmp_path / "sweep.json", tmp_path / "point.json"
    sweep.write_text(json.dumps(
        {"sweep": {"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.5, 0.5, 1]}}), encoding="utf-8")
    point.write_text(json.dumps(
        {"beta": 1.0, "ell": 2.0, "time_grid": {"t_max": 1.0, "n_samples": 3}}),
        encoding="utf-8")
    code = (
        "import sys\n"
        "from thermalpair import cli\n"
        "for sub, cfg in (('phase-diagram', sys.argv[1]), ('asymptotic', sys.argv[2]),\n"
        "                 ('evolve', sys.argv[2]), ('coefficients', sys.argv[2])):\n"
        "    assert cli.main([sub, '--config', cfg, '--out', cfg + '.out']) == 0, sub\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    res = subprocess.run([sys.executable, "-c", code, str(sweep), str(point)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("extra", [
    {"n": [0.6, 0.0, 0.8], "include_hs": True, "initial_state": {"named": "singlet"}},
    {"n": [0.0, -1.0, 0.0], "include_hs": False, "beta": "inf",
     "initial_state": {"product": {"bloch1": [0.6, 0.8, 0.0], "bloch2": [0, 0, -1]}}},
    {"n": [0, 0, 1], "ell": 3.0, "initial_state": {"named": "canonical"}},
], ids=["singlet", "product-zero-temperature", "canonical"])
def test_phase_diagram_and_coefficients_import_no_numpy(tmp_path, extra):
    # both are plain-Python float arithmetic on K's rates: a fresh
    # `python -m thermalpair` runs them on configs that carry n, include_hs
    # and a named or product state, and no module imports numpy on the way
    # (asymptotic's runs are the next two tests)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**extra, "sweep": {"beta_omega": [0.5, 4.0, 3],
                                                   "omega_ell": [0.0, 2.0, 3]}}),
                    encoding="utf-8")
    for sub in ("phase-diagram", "coefficients"):
        imported = _imported_modules(sub, path, tmp_path)
        assert "thermalpair.cli" in imported and "numpy" not in imported, sub


def _imported_modules(sub: str, path, tmp_path) -> set:
    """The modules a fresh `python -m thermalpair sub` imports on the config
    at path, which must exit 0, compiling the package from source as the
    benchmark does."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-m", "thermalpair", sub,
                          "--config", str(path), "--out", str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 0, (sub, res.stderr)
    return {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


def test_cold_runs_import_no_dataclasses_or_argparse(tmp_path):
    # main reads its arguments by hand and the record classes declare
    # __slots__: dataclasses would load inspect, ast, dis and tokenize, and
    # argparse gettext and locale, into every cold run
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EVERY_SUBCOMMAND), encoding="utf-8")
    for sub in SUBCOMMANDS:  # evolve of the canonical state, by default
        imported = _imported_modules(sub, path, tmp_path)
        assert "thermalpair.cli" in imported, sub
        loaded = imported & {"dataclasses", "inspect", "argparse", "gettext", "locale"}
        assert not loaded, (sub, sorted(loaded))


PRODUCT = {"product": {"bloch1": [0.6, 0.8, 0.0], "bloch2": [0, 0, -1]}}
# an X-state off Q0: the maximally mixed state with a |++><--| coherence
X_MATRIX = {"matrix": [[0.25, 0.0] if k % 5 == 0 else [0.1, 0.0] if k in (3, 12)
                       else [0.0, 0.0] for k in range(16)]}


@pytest.mark.parametrize("config", [
    {"ell": 0.5},
    {"n": [0.6, 0.0, 0.8], "include_hs": True, "initial_state": {"named": "singlet"}},
    {"n": [0.0, -1.0, 0.0], "beta": 2.0, "initial_state": {"named": "canonical"}},
    {"n": [2 / 3, -1 / 3, 2 / 3], "ell": 1e-6, "initial_state": PRODUCT},
    {"n": [0.0, 0.6, -0.8], "ell": 3.0, "beta": "inf", "include_hs": True,
     "initial_state": PRODUCT},
    {"n": [1, 0, 0], "ell": 0.0, "beta": 0.5, "initial_state": PRODUCT},
    # the coherence <S|rho0|--> of these is 0, so the limit is an X-state
    {"ell": 0.0, "beta": "inf", "initial_state": {"named": "canonical"}},
    {"ell": 0.0, "beta": "inf", "include_hs": True,
     "initial_state": {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0, -1]}}},
], ids=["setup", "singlet-hs", "canonical-e2", "product-crossover", "product-inf-hs",
        "product-ell0", "canonical-inf-ell0", "product-inf-ell0-hs"])
def test_asymptotic_imports_no_numpy(tmp_path, config):
    # the report is plain-Python arithmetic on the closed form, its guard,
    # the frame and the X-state concurrence: a fresh run on a named or
    # product state loads no numpy, at any axis, with or without include_hs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    imported = _imported_modules("asymptotic", path, tmp_path)
    assert "thermalpair.asymptotic" in imported and "numpy" not in imported


@pytest.mark.parametrize("config", [
    {"ell": 0.5, "initial_state": {"matrix": [[0.25, 0.0] if k % 5 == 0 else [0.0, 0.0]
                                              for k in range(16)]}},
    {"ell": 0.0, "beta": "inf", "initial_state": PRODUCT},
], ids=["matrix", "coherence-inf-ell0"])
def test_asymptotic_loads_numpy_where_it_must(tmp_path, config):
    # the parser validates a matrix state with numpy, and at beta = inf and
    # ell = 0 a coherence c = <S|rho0|--> != 0 leaves the limit off the X,
    # so its concurrence takes the dilation's eigvalsh; neither loads the
    # trajectory modules
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    imported = _imported_modules("asymptotic", path, tmp_path)
    assert "numpy" in imported
    assert not imported & {"thermalpair.dynamics", "thermalpair.trajectory"}


@pytest.mark.parametrize("config", [
    {"ell": 0.5, "time_grid": {"t_max": 1.0, "n_samples": 2}},
    {"beta": 2.0, "ell": 0.7, "time_grid": [0.0, 0.5, 3.0],
     "initial_state": {"named": "singlet"}},
    {"n": [0.6, 0.0, 0.8], "ell": 3.0, "time_grid": {"t_max": 5.0, "n_samples": 11},
     "initial_state": {"named": "canonical"}},
    {"n": [0.0, -1.0, 0.0], "include_hs": True, "time_grid": {"t_max": 5.0},
     "initial_state": {"named": "singlet"}},
    {"beta": "inf", "ell": 0.0, "time_grid": {"t_max": 20.0, "n_samples": 5},
     "initial_state": {"named": "canonical"}},
    {"beta": "inf", "ell": 0.0, "n": [2 / 3, -1 / 3, 2 / 3], "include_hs": True,
     "time_grid": {"t_max": 20.0, "n_samples": 5}, "initial_state": {"named": "singlet"}},
    {"ell": 0.5, "time_grid": {"t_max": 1.0, "n_samples": 2},
     "initial_state": {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0, -1]}}},
], ids=["setup", "singlet-e3", "canonical-tilted", "singlet-hs", "canonical-inf-ell0",
        "singlet-inf-ell0-hs", "product-x-state"])
def test_evolve_imports_no_numpy(tmp_path, config):
    # the trajectory of a state in Q0 with real entries, a named state at any
    # axis or a product of the kets of +-n at n = e3, is plain Python on Q0,
    # with closed-form columns and summary: a fresh run loads no numpy, also
    # at beta = inf and ell = 0, with or without include_hs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    imported = _imported_modules("evolve", path, tmp_path)
    assert "thermalpair.generation" in imported and "numpy" not in imported
    assert "thermalpair.dynamics" not in imported


@pytest.mark.parametrize("state", [PRODUCT, X_MATRIX], ids=["product", "matrix"])
def test_evolve_loads_numpy_where_it_must(tmp_path, state):
    # a state off Q0 evolves by dynamics.evolve_traj, also where it is an
    # X-state
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ell": 0.5, "initial_state": state,
                                "time_grid": {"t_max": 1.0, "n_samples": 2}}), encoding="utf-8")
    imported = _imported_modules("evolve", path, tmp_path)
    assert "numpy" in imported and "thermalpair.dynamics" in imported


@pytest.mark.parametrize("extra,message", [
    ({"beta": 1e-200}, "error: invalid model parameters: beta_omega must be at least "
                       "1.5e-154 (or inf), got 1e-200\n"),
    ({"ell": -1}, "error: invalid model parameters: omega_ell must be finite and >= 0, "
                  "got -1.0\n"),
    ({"n": [1, 1, 0]}, "error: invalid axis n: axis must be a unit vector, |n| = "),
    ({"initial_state": {"product": {"bloch1": [0, 0, 1], "bloch2": [0, 0.5, 0]}}},
     "error: invalid product state: bloch2 must be a unit vector, |bloch2| = 0.5\n"),
    ({"initial_state": {"product": {"bloch1": [1, 0], "bloch2": [0, 0, 1]}}},
     "error: bloch1 must be a 3-vector\n"),
    ({"initial_state": {"product": {"bloch1": [1, 0, 0], "bloch2": [0, "up", 1]}}},
     "error: bloch2 entry must be a number, got 'up'\n"),
    ({"initial_state": {"matrix": [[1.5, 0.0] if k == 0 else [-0.5, 0.0] if k == 5
                                   else [0.0, 0.0] for k in range(16)]}},
     "error: matrix initial state invalid: density matrix has negative eigenvalue "),
], ids=["beta-too-small", "ell-negative", "axis", "bloch-vector", "bloch-vector-length",
         "bloch-vector-entry", "matrix-not-psd"])
def test_phase_diagram_still_validates_the_axis_and_the_state(tmp_path, extra, message):
    # the phase diagram reads neither, nor the model parameters beside its
    # sweep, but the parser checks them in plain Python, and a matrix state
    # with numpy, as given and turned to the frame; each library check's
    # ValueError reaches standard error as one line under its own prefix
    res = run_cli("phase-diagram", config={**SWEEP, **extra}, tmp_path=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(message) and res.stderr.count("\n") == 1


def test_reports_are_json_dumps_without_its_reference_cycles(tmp_path):
    # the JSON reports carry json.dumps(doc, indent=2) byte for byte, but
    # its indenting encoder leaves a reference cycle per call, which only
    # the cyclic collector frees: no report leaves one
    for doc in ({"A": 0.1, "rho": [[1e-300, -0.0], [math.nan, -math.inf]], "dim": 4},
                {"empty": {}, "none": [], "flags": [True, False, None], "s": "é\""},
                [], {}, [[1, [2, {"k": [3.5]}]]], 2.5):
        assert cli._json(doc) == json.dumps(doc, indent=2), doc
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**EVERY_SUBCOMMAND, "initial_state": {
        "product": {"bloch1": [1, 0, 0], "bloch2": [0, 0.6, 0.8]}}}), encoding="utf-8")
    for sub in SUBCOMMANDS:
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        gc.disable()
        try:
            assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            assert gc.collect() == 0, sub
        finally:
            gc.enable()
