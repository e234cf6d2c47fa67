"""A mutation gate for `k3bps check`.

Each mutant is one (module, old text, new text) triple applied to a copy of
the package under ``tmp_path``.  The default-bounds suite run on the copy
must exit 1 with the named check failing, and the mutant must change the
named direct value, so that the gate never counts a mutant that changes
nothing as caught.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import k3bps
import k3bps.rational

SOURCE = Path(k3bps.__file__).parent

# (module, old text, new text, failing check, direct value)
MUTANTS = {
    "quotient-sign": (
        "series.py",
        "acc -= c * out[n - k]",
        "acc += c * out[n - k]",
        "footnote-series",
        "k3bps.ratfn_expand(k3bps.RationalFunction((0, 1), (1, 2, 1)), 6)",
    ),
    "pspread-sign": (
        "rational.py",
        "out[power :: 2 * power] = [-c for c in p[1::2]]",
        "out[power :: 2 * power] = [c for c in p[1::2]]",
        "mnop-grid",
        "k3bps.rational._pspread((1, 2, 3), -1, 2)",
    ),
    "mobius-6": (
        "bps.py",
        "mu = [0] + [mobius(k) for k in range(1, d_max + 1)]",
        "mu = [0] + [mobius(k) * (-1 if k == 6 else 1) for k in range(1, d_max + 1)]",
        "aspinwall-morrison",
        "k3bps.bps_from_gw(k3bps.gw_from_bps(k3bps.BpsTable({(0, 1): 1}), 6, 6), 6)",
    ),
    "cover-weight": (
        "pairs.py",
        "Fraction(1, k),",
        "Fraction(1, k * k),",
        "mnop-grid",
        "k3bps.multiple_cover(k3bps.HodgeLabel(2, 1), k3bps.bps_grid_from_kkv(1))",
    ),
}

PROBE = """
import json, sys
import k3bps, k3bps.rational
try:
    value = repr(eval(sys.argv[1]))
except Exception as error:
    value = f"raised {type(error).__name__}"
print(json.dumps({"file": k3bps.__file__, "value": value}))
"""


def _mutated_copy(root: Path, module: str, old: str, new: str) -> Path:
    """A copy of the package under root with the one occurrence of old in
    module replaced by new."""
    package = root / "k3bps"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"the mutant's old text must occur once in {module}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return package


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "KKV_LOG"}
    env.update(PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_check_catches_mutant(tmp_path, name):
    module, old, new, check, expression = MUTANTS[name]
    package = _mutated_copy(tmp_path, module, old, new)

    probe = _run(tmp_path, "-c", PROBE, expression)
    assert probe.returncode == 0, probe.stderr
    seen = json.loads(probe.stdout)
    assert Path(seen["file"]).parent == package
    assert seen["value"] != repr(eval(expression)), "the mutant changed no direct value"

    result = _run(tmp_path, "-m", "k3bps", "check", "--format", "json")
    assert result.returncode == 1, result.stderr
    failing = [c["name"] for c in json.loads(result.stdout)["checks"] if not c["ok"]]
    assert check in failing, failing
