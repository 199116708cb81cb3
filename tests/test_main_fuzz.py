"""Seeded property tests: every subcommand of cli.main, on fuzzed configs,
and cli.main on fuzzed command lines, ends with a documented exit code and
never with a traceback."""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from thermalpair import cli

EXIT_CODES = {0, 2, 3, 4, 5}

def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v] if norm > 0.1 else [0.0, 0.0, 1.0]


unit = st.one_of(st.sampled_from([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]]),
                 st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(_unit))


def _density_pairs(entries):
    """Row-major [re, im] pairs of the state G G^dagger / tr from 32 reals."""
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = g @ g.conj().T + 1e-3 * np.eye(4)
    rho = rho / np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return {"matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}


# values no parser accepts where a number, a vector or an object belongs
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=6), st.integers(-5, 0),
              st.floats(-1e3, 0.0), st.sampled_from(["inf", "-inf", "nan", "1e400", ""])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)

# The RK45 guard of evolve takes a number of steps that grows with
# omega * t_max / (beta * omega): t_max and beta*omega are bounded so that
# an example runs in milliseconds.  omega*ell covers the corners 0 and
# 0 < omega*ell << 1; beta*omega covers "inf" and large values.  omega is
# log-uniform over [1e-300, 1e300], so beta and ell are quotients near the
# ends of the float range; a missing beta leaves beta*omega = omega, which
# may fall below cli.MIN_BETA_OMEGA.
beta_omega = st.one_of(st.just("inf"), st.floats(0.05, 50.0), st.sampled_from([1e3, 1e6]))
omega_ell = st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 1e-7, 1e-3]))
axis = st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.integers(1, 4)).map(
    lambda a: [min(a[0], a[1]), max(a[0], a[1]), a[2]])
time_grid = st.one_of(
    st.fixed_dictionaries({"t_max": st.floats(0.0, 5.0)},
                          optional={"n_samples": st.integers(1, 12)}),
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6, unique=True).map(sorted),
)
OPTIONAL = {
    "n": unit,
    "include_hs": st.booleans(),
    "initial_state": st.one_of(
        st.fixed_dictionaries({"named": st.sampled_from(["singlet", "canonical", "ghz"])}),
        st.fixed_dictionaries({"product": st.fixed_dictionaries(
            {"bloch1": unit, "bloch2": unit})}),
        st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).map(_density_pairs),
    ),
}


@st.composite
def configs(draw):
    """A config that every subcommand accepts, or one with a key of the
    wrong kind or a missing key."""
    omega = draw(st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x))
    bw = draw(beta_omega)
    doc = {"omega": omega, "beta": bw if bw == "inf" else bw / omega,
           "ell": draw(omega_ell) / omega, "time_grid": draw(time_grid),
           "sweep": {"beta_omega": draw(axis), "omega_ell": draw(axis)}}
    doc.update({key: draw(value) for key, value in OPTIONAL.items() if draw(st.booleans())})
    fault = draw(st.sampled_from([None, None, None, "junk", "missing"]))
    if fault == "junk":
        doc[draw(st.sampled_from(sorted(doc) + ["mystery"]))] = draw(junk)
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.sampled_from(["coefficients", "phase-diagram", "evolve", "asymptotic"]), configs())
def test_main_exits_with_a_documented_code(sub, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = [sub, "--config", str(cfg), "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert "error: " in err.getvalue(), err.getvalue()


# a token is a subcommand, one of the two options, help, a bogus option,
# "-" or a path relative to the temporary directory the test runs in, alone
# or joined to an option by "="
SUBCOMMAND = st.sampled_from(["coefficients", "phase-diagram", "evolve", "asymptotic"])
PATHS = ["config.json", "out.csv", "missing.json", ".", "-"]
argv_token = st.one_of(
    SUBCOMMAND, st.sampled_from(["--config", "--out", "-h", "--bogus", *PATHS]),
    st.tuples(st.sampled_from(["--config", "--out", "--bogus"]),
              st.sampled_from([*PATHS, ""])).map("=".join),
)


@st.composite
def argvs(draw):
    """Mostly a subcommand and option-path pairs, else any token in their place."""
    argv = [draw(SUBCOMMAND if draw(st.integers(0, 3)) else argv_token)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)):
            argv += [draw(st.sampled_from(["--config", "--out"])), draw(st.sampled_from(PATHS))]
        else:
            argv.append(draw(argv_token))
    return argv


# a config every subcommand runs in milliseconds
SMALL = {"ell": 0.5, "time_grid": [0.0, 1.0],
         "sweep": {"beta_omega": [1.0, 1.0, 1], "omega_ell": [0.0, 0.0, 1]}}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(argvs())
def test_main_reads_any_argv_without_a_traceback(argv):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(SMALL), encoding="utf-8")
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        try:
            os.chdir(tmp)
            sys.stdin = io.StringIO(json.dumps(SMALL))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            stream = out if exc.code == 0 else err
            assert stream.getvalue().startswith("usage: thermalpair "), (argv, stream.getvalue())
            return
        finally:
            sys.stdin = stdin
            os.chdir(here)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
