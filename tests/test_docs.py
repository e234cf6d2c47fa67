"""The public surface the docs promise: every export resolves, the
README's library tour runs and every demo prints its golden output."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

import k3bps

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in k3bps.__all__ if not hasattr(k3bps, name)]
    assert missing == []
    assert len(set(k3bps.__all__)) == len(k3bps.__all__)


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(tour, str(README), "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_golden_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    golden = Path(__file__).parent / "golden" / "demos" / f"{demo.stem}.txt"
    assert out.getvalue() == golden.read_text(encoding="utf-8")
