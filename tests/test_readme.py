"""The README's Python example runs and prints what its comments promise."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    verdict, asymptotic, lab = (line.split() for line in out.getvalue().splitlines())

    # the example's model: beta*omega = 1 and ell = 0, so S = 1
    R2 = math.tanh(0.5) ** 2
    label, rs_margin = verdict
    assert label == "true" and float(rs_margin) > 0
    assert float(rs_margin) == pytest.approx(R2, rel=1e-14)
    expected = 2.0 * R2 / (3.0 + R2)
    dim, c = asymptotic
    assert int(dim) == 2
    assert float(c) == pytest.approx(expected, abs=1e-12)
    assert float(lab[0]) == pytest.approx(expected, abs=1e-12)
