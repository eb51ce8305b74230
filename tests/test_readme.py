"""The README's library and optimizer examples run as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(heading: str) -> str:
    """The first python block under `heading`."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def _run(heading: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_example(heading), str(README), "exec"), {})
    return out.getvalue()


def test_library_example_prints_the_documented_values():
    measures, kind, delta_b = _run("Library example").splitlines()
    assert [float(x) for x in measures.split()] == pytest.approx(
        [2.0, 1.0, 1.0], abs=1e-6)
    assert kind == "Kind.NEITHER"
    assert float(delta_b) == pytest.approx(2.0, abs=1e-6)


def test_optimizer_example_prints_the_documented_value():
    source = _example("Optimizer")
    # The block ends with the line it prints, as a comment.
    documented = source.rstrip().splitlines()[-1].lstrip("# ")
    printed, = _run("Optimizer").splitlines()
    assert printed == documented
    found, best = (float(x) for x in printed.split())
    assert found == pytest.approx(best, abs=1e-6)
