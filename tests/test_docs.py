"""The public surface the docs promise: every export resolves and the
README's library tour runs."""

import re
from pathlib import Path

import k3bps

README = Path(__file__).parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in k3bps.__all__ if not hasattr(k3bps, name)]
    assert missing == []
    assert len(set(k3bps.__all__)) == len(k3bps.__all__)


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(tour, str(README), "exec"), {})
