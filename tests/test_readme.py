"""The README's library quick start runs as printed."""

import contextlib
import io
import math
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_source():
    """The first python block under the "## Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_prints_a_geodesic_transfer():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(quick_start_source(), str(README), "exec"), {})
    s0, s, eta = (float(x) for x in printed.getvalue().split())
    assert s0 == pytest.approx(math.pi, rel=1e-12)
    assert s == pytest.approx(math.pi, rel=1e-9)
    assert eta == pytest.approx(1.0, abs=1e-9)
