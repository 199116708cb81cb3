"""Accuracy ledger: what `coefficients`, `phase-diagram` and `asymptotic`
emit, against 40-digit mpmath from the same config.

Each config of a fixed seeded sample runs through `cli.main` in-process,
and every float column it writes is compared with the exact value of the
same quantity, computed in mpmath at 40 digits from the config's floats:
beta*omega and omega*ell as the CLI prints them, the axis n and the Bloch
vectors normalized exactly, and a matrix state as given.  The references
are the physics, not the package's formulas: K's coefficients from
coth and sinc, the stationary state as its projections (the product Gibbs
state for ell > 0; at ell = 0 the singlet population p_S = <S|rho0|S> and
the triplet family of module `asymptotic`, plus c = <S|rho0|--> at
beta = inf), turned back to the axis n by the exact frame, and the
concurrence by Yu & Eberly's X-state form, or p_S for the state with
c != 0 (its spin flip lives on span{|S>, |++>}).

The error of a column is |got - exact| in units of eps * scale, where the
scale is max(1, |exact|), except for the columns that cancel large terms:
C = g0 - A and C' = g0 - A S against max(1, A), and the discriminant
margin (2A')^2 - (2A - 2B)(2A + 2B) against max(1, (2A)^2).  BUDGETS holds
each column's bound in those units: the worst error measured on this
sample, rounded up, with one more for a libm that rounds its last bit
the other way.  A change that must widen a budget explains why.
"""

import json
import math
import random
import re
import sys
from pathlib import Path

import mpmath as mp
import pytest

from thermalpair import cli

EPS = sys.float_info.epsilon
README = Path(__file__).resolve().parents[1] / "README.md"

# beta*omega from the CLI's floor to zero temperature, past expm1's overflow;
# omega*ell from 0 through both sides of the sinc series' switch at 1
CORNER_BETA_OMEGA = (1.5e-154, 1e-7, 1e-3, 0.3, 1.0, 2.0, 24.0, 50.0, 700.0, 1e300, math.inf)
CORNER_OMEGA_ELL = (0.0, 1e-300, 1e-8, 1e-3, 0.5, 1.0, 3.0, math.pi, 12.0)

# each column's worst error on this sample when the ledger was written, in
# eps * scale, rounded up, plus one (CHANGES.md lists the worsts and their
# configs; `python tests/test_accuracy_ledger.py` prints them)
BUDGETS = {
    "A": 2, "B": 1, "C": 3, "A'": 3, "B'": 1, "C'": 3, "R": 2, "S": 2,
    "rs_margin": 3, "discriminant_margin": 4,
    "rho_infinity": 4, "concurrence": 3, "tau": 4, "threshold_tau": 3,
}


def _params_sample() -> list:
    """(beta*omega, omega*ell) pairs: every corner pair, then seeded draws."""
    rng = random.Random(20261022)
    pairs = [(bw, wl) for bw in CORNER_BETA_OMEGA for wl in CORNER_OMEGA_ELL]
    for _ in range(60):
        bw = 10.0 ** rng.uniform(-8.0, 3.0)
        wl = rng.choice((0.0, 10.0 ** rng.uniform(-8.0, 0.0), rng.uniform(0.0, 20.0)))
        pairs.append((bw, wl))
    return pairs


def _unit(rng) -> list:
    """A unit 3-vector as floats: a pole, or a seeded direction."""
    if rng.random() < 0.2:
        return [0.0, 0.0, rng.choice((1.0, -1.0))]
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _matrix_state(rng) -> list:
    """A seeded full-rank state G G^dag / tr, Hermitian in its floats, as
    the config's 16 [re, im] pairs."""
    G = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)] for _ in range(4)]
    rho = [[sum(G[i][k] * G[j][k].conjugate() for k in range(4)) for j in range(4)]
           for i in range(4)]
    tr = sum(rho[i][i].real for i in range(4))
    rho = [[z / tr for z in row] for row in rho]
    for i in range(4):
        rho[i][i] = complex(rho[i][i].real)
        for j in range(i):
            rho[i][j] = rho[j][i].conjugate()
    return [[z.real, z.imag] for row in rho for z in row]


def _state_sample() -> list:
    """(beta*omega, omega*ell, n, initial_state) of the asymptotic sample:
    each params pair with a state of each kind in turn at a seeded axis,
    then product and matrix states with c != 0 at beta = inf and ell = 0."""
    rng = random.Random(40)
    out = []
    for k, (bw, wl) in enumerate(_params_sample()):
        kind = ("canonical", "singlet", "product", "matrix")[k % 4]
        if kind == "product":
            state = {"product": {"bloch1": _unit(rng), "bloch2": _unit(rng)}}
        elif kind == "matrix":
            state = {"matrix": _matrix_state(rng)}
        else:
            state = {"named": kind}
        out.append((bw, wl, _unit(rng), state))
    for k in range(20):
        state = ({"product": {"bloch1": _unit(rng), "bloch2": _unit(rng)}} if k % 2
                 else {"matrix": _matrix_state(rng)})
        out.append((math.inf, 0.0, _unit(rng), state))
    return out


def _run(tmp_path, sub: str, doc: dict) -> str:
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([sub, "--config", str(config), "--out", str(out)]) == 0, doc
    return out.read_text(encoding="utf-8")


def _beta(bw: float):
    return "inf" if math.isinf(bw) else bw


# -- 40-digit references -------------------------------------------------

def _mp_model(bw: float, wl: float) -> dict:
    """R, S, A, B, g0 of the model at the floats bw and wl, in mpmath."""
    x = mp.mpf(wl)
    S = mp.sin(x) / x if wl else mp.mpf(1)
    if math.isinf(bw):
        R, g0 = mp.mpf(1), mp.mpf(0)
    else:
        b = mp.mpf(bw)
        R, g0 = mp.tanh(b / 2), 1 / (2 * mp.pi * b)
    B = 1 / (4 * mp.pi)
    return {"R": R, "S": S, "A": B / R, "B": B, "g0": g0}


def _mp_ket(b) -> list:
    """The qubit ket of the Bloch direction b, normalized exactly, with
    entanglement.bloch_ket's phase: (cos(th/2), e^{i ph} sin(th/2)), ph = 0
    on the poles."""
    b = [mp.mpf(x) for x in b]
    norm = mp.sqrt(sum(x * x for x in b))
    cos_th = b[2] / norm
    phase = mp.expjpi(mp.atan2(b[1], b[0]) / mp.pi) if (b[0] or b[1]) else mp.mpc(1)
    return [mp.sqrt((1 + cos_th) / 2), phase * mp.sqrt((1 - cos_th) / 2)]


def _mp_frame(n) -> mp.matrix:
    """V = U (x) U, U = [|n>, |-n>], as a 4x4 mp.matrix."""
    a, b = _mp_ket(n)
    U = [[a, -mp.conj(b)], [b, mp.conj(a)]]
    return mp.matrix([[U[i][k] * U[j][l] for k in (0, 1) for l in (0, 1)]
                      for i in (0, 1) for j in (0, 1)])


def _mp_initial_state(state, V) -> mp.matrix:
    """rho0 in the frame of e3, V^dag rho0 V for a state given at n."""
    (tag, value), = state.items()
    if tag == "named":
        ket = mp.matrix([0, 0, 1, 0]) if value == "canonical" else \
            mp.matrix([0, 1, -1, 0]) / mp.sqrt(2)
        return ket * ket.H
    if tag == "product":
        k1, k2 = _mp_ket(value["bloch1"]), _mp_ket(value["bloch2"])
        ket = V.H * mp.matrix([x * y for x in k1 for y in k2])
        return ket * ket.H
    rho = mp.matrix(4, 4)
    for k, (re, im) in enumerate(value):
        rho[k // 4, k % 4] = mp.mpc(re, im)
    return V.H * rho * V


def _mp_asymptotic(bw: float, wl: float, n, state) -> dict:
    """The asymptotic report's floats, exactly: rho_infinity at the axis n,
    its concurrence and tau, and threshold_tau."""
    m = _mp_model(bw, wl)
    R = m["R"]
    V = _mp_frame(n)
    rho0 = _mp_initial_state(state, V)
    singlet = mp.matrix([0, 1, -1, 0]) / mp.sqrt(2)
    p_s = mp.re((singlet.H * rho0 * singlet)[0])
    rho = mp.matrix(4, 4)
    if wl > 0:
        g = [(1 - R) / 2, (1 + R) / 2]
        for i in range(4):
            rho[i, i] = g[i // 2] * g[i % 2]
    else:
        t = (1 - p_s) / (3 + R * R)
        rho[0, 0], rho[3, 3] = t * (1 - R) ** 2, t * (1 + R) ** 2
        t0 = t * (1 - R * R)  # |T0><T0| weight, split over the 2x2 block
        rho[1, 1] = rho[2, 2] = (p_s + t0) / 2
        rho[1, 2] = rho[2, 1] = (t0 - p_s) / 2
    c = mp.mpc(0)
    if wl == 0 and math.isinf(bw):
        c = (singlet.H * rho0 * mp.matrix([0, 0, 0, 1]))[0]  # <S|rho0|-->
        rho[1, 3], rho[2, 3] = c / mp.sqrt(2), -c / mp.sqrt(2)
        rho[3, 1], rho[3, 2] = mp.conj(rho[1, 3]), mp.conj(rho[2, 3])
    if c:
        conc = p_s
    else:
        conc = 2 * max(0, abs(rho[1, 2]) - mp.sqrt(rho[0, 0] * rho[3, 3]),
                       abs(rho[0, 3]) - mp.sqrt(rho[1, 1] * rho[2, 2]))
    tau = mp.re((rho[0, 0] + rho[3, 3]) - (rho[1, 1] + rho[2, 2]) + 2 * (rho[1, 2] + rho[2, 1]))
    at_n = V * rho * V.H
    return {"rho_infinity": [part for i in range(4) for j in range(4)
                             for part in (mp.re(at_n[i, j]), mp.im(at_n[i, j]))],
            "concurrence": mp.re(conc), "tau": tau,
            "threshold_tau": (5 * R * R - 3) / (3 - R * R)}


# -- the ledger ----------------------------------------------------------

def _error(got: float, exact, scale=None) -> float:
    """|got - exact| in units of eps * max(1, scale or |exact|)."""
    scale = abs(exact) if scale is None else scale
    return float(abs(mp.mpf(got) - exact) / (EPS * max(1, scale)))


def _worst(errors: dict, column: str, err: float, where):
    if err > errors.get(column, (-1.0, None))[0]:
        errors[column] = (err, where)


def coefficient_errors(tmp_path) -> dict:
    """{column: (worst error, its (beta*omega, omega*ell))} of `coefficients`."""
    errors = {}
    for bw, wl in _params_sample():
        got = json.loads(_run(tmp_path, "coefficients", {"beta": _beta(bw), "ell": wl}))
        with mp.workdps(40):
            m = _mp_model(bw, wl)
            A, B, S, g0 = m["A"], m["B"], m["S"], m["g0"]
            exact = {"A": A, "B": B, "C": g0 - A, "A'": A * S, "B'": B * S, "C'": g0 - A * S,
                     "R": m["R"], "S": S}
            for column, value in exact.items():
                scale = max(1, A) if column in ("C", "C'") else None
                _worst(errors, column, _error(got[column], value, scale), (bw, wl))
    return errors


def phase_diagram_errors(tmp_path) -> dict:
    """{column: (worst error, its (beta*omega, omega*ell))} of the phase
    diagram's R, S, rs_margin and discriminant_margin, one point a run."""
    errors = {}
    for bw, wl in _params_sample():
        if math.isinf(bw):
            continue  # a sweep's range is finite
        text = _run(tmp_path, "phase-diagram",
                    {"sweep": {"beta_omega": [bw, bw, 1], "omega_ell": [wl, wl, 1]}})
        row = text.splitlines()[1].split(",")
        bw_out, wl_out = float(row[0]), float(row[1])
        assert (bw_out, wl_out) == (bw, wl)
        with mp.workdps(40):
            m = _mp_model(bw_out, wl_out)
            R, S, A = m["R"], m["S"], m["A"]
            exact = {"R": R, "S": S, "rs_margin": R * R + S * S - 1,
                     "discriminant_margin": 4 * A * A * (R * R + S * S - 1)}
            for column, value, got in zip(exact, exact.values(), row[2:6]):
                scale = (2 * A) ** 2 if column == "discriminant_margin" else None
                _worst(errors, column, _error(float(got), value, scale), (bw, wl))
    return errors


def asymptotic_errors(tmp_path) -> dict:
    """{column: (worst error, its config)} of the asymptotic report, the
    worst entry of rho_infinity as its one column."""
    errors = {}
    for bw, wl, n, state in _state_sample():
        doc = {"beta": _beta(bw), "ell": wl, "n": n, "initial_state": state}
        got = json.loads(_run(tmp_path, "asymptotic", doc))
        with mp.workdps(40):
            exact = _mp_asymptotic(bw, wl, n, state)
            rho = [part for pair in got["rho_infinity"] for part in pair]
            err = max(_error(g, e) for g, e in zip(rho, exact["rho_infinity"]))
            _worst(errors, "rho_infinity", err, doc)
            for column in ("concurrence", "tau", "threshold_tau"):
                _worst(errors, column, _error(got[column], exact[column]), doc)
    return errors


def _over_budget(errors: dict) -> dict:
    return {column: (err, where) for column, (err, where) in errors.items()
            if not err <= BUDGETS[column]}


@pytest.fixture(scope="module")
def worsts(tmp_path_factory) -> dict:
    """{subcommand: its columns' worst errors}, measured once for the
    module's tests."""
    tmp = tmp_path_factory.mktemp("ledger")
    return {"coefficients": coefficient_errors(tmp), "phase-diagram": phase_diagram_errors(tmp),
            "asymptotic": asymptotic_errors(tmp)}


def test_coefficients_are_within_their_budgets(worsts):
    errors = worsts["coefficients"]
    assert set(errors) == {"A", "B", "C", "A'", "B'", "C'", "R", "S"}
    assert not _over_budget(errors), _over_budget(errors)


def test_phase_diagram_columns_are_within_their_budgets(worsts):
    errors = worsts["phase-diagram"]
    assert set(errors) == {"R", "S", "rs_margin", "discriminant_margin"}
    assert not _over_budget(errors), _over_budget(errors)


def test_asymptotic_report_is_within_its_budgets(worsts):
    errors = worsts["asymptotic"]
    assert set(errors) == {"rho_infinity", "concurrence", "tau", "threshold_tau"}
    assert not _over_budget(errors), _over_budget(errors)


def test_the_readme_states_the_worst_errors(worsts):
    # the README's accuracy notes name the discriminant margin's worst
    # error, rho_infinity's and the largest of the other columns', each to
    # one decimal, as this ledger measures them
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.search(r"The worst errors are ([\d.]+) `eps` \(the discriminant margin\), "
                       r"([\d.]+) `eps` \(`rho_infinity`\) and at most ([\d.]+) `eps` "
                       r"elsewhere\.", text)
    assert stated, "the README no longer states the ledger's worst errors"
    errors = {}
    for measured in worsts.values():
        for column, (err, _) in measured.items():
            errors[column] = max(err, errors.get(column, err))
    margin, rho = errors.pop("discriminant_margin"), errors.pop("rho_infinity")
    assert [f"{err:.1f}" for err in (margin, rho, max(errors.values()))] == list(stated.groups())


def test_discriminant_margin_at_the_high_temperature_corner(tmp_path):
    # beta*omega = 1e-7, ell = 0: the margin is 4 A^2 R^2 = 4 B^2 = 1/(4 pi^2)
    # exactly, and the float difference of two terms near (2A)^2 = 1.0e13
    # keeps it to eps (2A)^2, about 2e-3
    text = _run(tmp_path, "phase-diagram",
                {"sweep": {"beta_omega": [1e-7, 1e-7, 1], "omega_ell": [0.0, 0.0, 1]}})
    margin = float(text.splitlines()[1].split(",")[5])
    assert margin == 0.025390625
    with mp.workdps(40):
        A = _mp_model(1e-7, 0.0)["A"]
        assert _error(margin, 1 / (4 * mp.pi ** 2), (2 * A) ** 2) <= BUDGETS["discriminant_margin"]


if __name__ == "__main__":
    # print each column's worst error and config: python tests/test_accuracy_ledger.py
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for measure in (coefficient_errors, phase_diagram_errors, asymptotic_errors):
            for column, (err, where) in measure(Path(tmp)).items():
                print(f"{measure.__name__[:-7]:12} {column:20} {err:8.3f}  {where}")
