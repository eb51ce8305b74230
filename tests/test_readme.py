"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_prints_the_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    measures, kind, delta_b = out.getvalue().splitlines()
    assert [float(x) for x in measures.split()] == pytest.approx(
        [2.0, 1.0, 1.0], abs=1e-6)
    assert kind == "Kind.NEITHER"
    assert float(delta_b) == pytest.approx(2.0, abs=1e-6)
