"""End-to-end CLI contract: config handling, formats, determinism, exit codes."""

import argparse
import gc
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from thermalpair import cli, dynamics, spectral

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
    # omega at the ends of the float range: times / omega overflows or
    # underflows, and (omega coth(beta*omega/2))^2 is not a finite normal float
    {"omega": 1e-300, "beta": 1e300, "time_grid": {"t_max": 1e10, "n_samples": 2}},
    {"omega": 1e300, "beta": 1e-300, "ell": 0.5, "time_grid": {"times": [1e-25, 2e-25]}},
    {"omega": 1e300, "sweep": {"beta_omega": [1, 1, 1], "omega_ell": [0, 1, 2]}},
    {"omega": 1e-300, "sweep": {"beta_omega": [1, 1, 1], "omega_ell": [0, 1, 2]}},
    {"omega": 1e300, "beta": 1e-308, "ell": 0.5},
    {"omega": 1e300, "beta": 1e-310, "ell": 0.5},
    # guard thresholds are module constants, not config
    {"tolerances": {"positivity": 1e-8}},
    # |n| overflows a float: no numpy overflow warning before the error line
    {"n": [1e200, 1e200, 0]},
    {"initial_state": {"product": {"bloch1": [1e200, 1e200, 0], "bloch2": [0, 0, 1]}}},
    # a sweep's beta = beta_omega / omega or ell = omega_ell / omega overflows
    {"omega": 0.25, "sweep": {"beta_omega": [1, 1, 1], "omega_ell": [0, 1e308, 2]}},
    {"omega": 0.25, "sweep": {"beta_omega": [1e308, 1e308, 1], "omega_ell": [0, 1, 2]}},
    # a list of times takes no other key
    {"ell": 0.5, "time_grid": {"times": [0, 1], "t_max": 5, "bogus": 1}},
])
def test_invalid_config_exits_2(tmp_path, config):
    res = run_cli("coefficients", config=config, tmp_path=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("sub,config,code", [
    # coth(beta*omega/2) ~ 1e38: the evolved oracle state overflows
    ("phase-diagram", {"sweep": {"beta_omega": [1e-38, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}},
     4),
    # coth ~ 1e50: the squarings of the oracle's matrix exponential overflow
    ("phase-diagram", {"sweep": {"beta_omega": [1e-50, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}},
     4),
    # ell -> 0+ at zero temperature: the asymptotic state behind the summary fails
    ("evolve", {"beta": "inf", "ell": 6e-8, "time_grid": [0.0, 1.0]}, 5),
    ("asymptotic", {"ell": 1e-7}, 5),
    # (t_max/omega) |M|_1 overflows: the RK45 work cap rejects it without a numpy warning
    ("evolve", {"time_grid": {"times": [0, 1e308]}}, 2),
], ids=["sweep-overflow", "sweep-expm-overflow", "evolve-crossover", "asymptotic-crossover",
        "evolve-rk-work-overflow"])
def test_numerical_failure_exits_with_its_code(tmp_path, sub, config, code):
    res = run_cli(sub, config=config, tmp_path=tmp_path)
    assert res.returncode == code
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


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
    # (t_max/omega) |M|_1 = 1.9e6: at the 1.3 to 2 s per 1e5 of work measured
    # for cli.MAX_RK_WORK, the RK45 cross-check would take 25 to 40 s
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
    # (t_max/omega) |M|_1 = 2.2e5, just over the cap, at every axis n.  The
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


@pytest.mark.parametrize("sub", ["phase-diagram", "evolve", "asymptotic"])
def test_non_psd_kossakowski_matrix_exits_4(tmp_path, monkeypatch, capsys, sub):
    # at ell = 0 the primed coefficients equal the unprimed ones; scaled by
    # 1.5 they give the relative channel the rates -0.5 times those of the
    # single-atom block
    def corrupted(params):
        c = spectral.kossakowski_coefficients(params)
        return spectral.KossakowskiCoefficients(A=c.A, B=c.B, C=c.C, Ap=1.5 * c.Ap,
                                                Bp=1.5 * c.Bp, Cp=1.5 * c.Cp)

    monkeypatch.setattr(dynamics, "kossakowski_coefficients", corrupted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ell": 0.0, "time_grid": {"t_max": 1.0, "n_samples": 3},
                                "sweep": {"beta_omega": [1.0, 1.0, 1],
                                          "omega_ell": [0.0, 0.0, 1]}}), encoding="utf-8")
    assert cli.main([sub, "--config", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Kossakowski matrix is not positive semidefinite")
    assert err.count("\n") == 1


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
    # the free Hamiltonian is local: discriminant and oracle columns unchanged
    plain = run_cli("phase-diagram", config=SWEEP, tmp_path=tmp_path)
    with_h = run_cli("phase-diagram", config={**SWEEP, "include_hs": True}, tmp_path=tmp_path)
    assert plain.returncode == with_h.returncode == 0
    for a, b in zip(plain.stdout.splitlines()[1:], with_h.stdout.splitlines()[1:]):
        assert a.split(",")[6:8] == b.split(",")[6:8]


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
    assert json.loads(res.stdout)["stationary_dim"] == 4
    out = tmp_path / "traj.csv"
    res = run_cli("evolve", "--out", str(out),
                  config={**COHERENT, "time_grid": {"t_max": 200.0, "n_samples": 3}},
                  tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["trace_distance_to_asymptotic"] < 1e-8


def test_asymptotic_state_at_an_axis_is_the_closed_form_equilibrium(tmp_path):
    # rho_infinity is reported in the lab frame: the canonical state along n
    # has tau = -1 and relaxes to the ell = 0 equilibrium along n
    n = [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]
    res = run_cli("asymptotic", config={"beta": 1.0, "ell": 0.0, "n": n}, tmp_path=tmp_path)
    assert res.returncode == 0, res.stderr
    rho = np.array([complex(*z) for z in json.loads(res.stdout)["rho_infinity"]]).reshape(4, 4)
    expected = equilibrium_closed_form(math.tanh(0.5), -1.0, n)
    np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-12)


def test_asymptotic_convergence_failure_exits_5(tmp_path):
    # with the free Hamiltonian the singlet/ground coherence rotates at omega
    # and never settles, so the prediction fails the convergence check
    res = run_cli("asymptotic", config={**COHERENT, "include_hs": True}, tmp_path=tmp_path)
    assert res.returncode == 5
    assert res.stdout == ""
    assert "error: " in res.stderr and "Traceback" not in res.stderr


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
    # main parses with one parser built at import, so an op leaves at most
    # what the standard library's indented JSON encoder leaves: its nested
    # closures form cycles (an empty document leaves one object fewer)
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


def test_parser_reuse_keeps_calls_independent(tmp_path, monkeypatch, capsys):
    path, out = tmp_path / "sweep.json", tmp_path / "grid.csv"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["phase-diagram", "--config", str(path)]

    # an --out from one call does not carry over to the next
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert expected.encode("utf-8") == out.read_bytes()

    # a usage error leaves the parser as it was
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected

    assert built == [], f"main constructed argument parsers: {built}"


# ------------------------------------------------------------------ startup

def test_phase_diagram_takes_no_svd(tmp_path, monkeypatch):
    # the boundary band is sized from K's closed-form eigenvalues, so the
    # sweep path needs neither an SVD nor a matrix norm, also at ell = 0; the
    # oracle's step has |dt M|_1 <= dynamics._THETA_T, so it applies exp(dt M)
    # to the state by a Taylor series and forms no Pade exponential, whose
    # LU solve would be the only one in the sweep
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


def test_phase_diagram_builds_the_canonical_kets_once(tmp_path, monkeypatch):
    # the discriminant at |-+> is a closed form in K's coefficients, so no
    # grid point rebuilds the state's kets: the count does not grow with the grid
    calls = []
    bloch_ket = dynamics.bloch_ket

    def counting(b):
        calls.append(b)
        return bloch_ket(b)

    monkeypatch.setattr(dynamics, "bloch_ket", counting)
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
