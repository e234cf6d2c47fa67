"""Golden output of every command in every format it supports.

Each case pins stdout, byte for byte (csv rows end in \\r\\n), and the exit
code.  The wall time of each check (``seconds``) is dropped from the
``check`` JSON.  After a deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import k3bps.bps as bps
from k3bps.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
ALL = ("json", "csv", "pretty")
NO_CSV = ("json", "pretty")
COMMANDS = [
    ("table", ["table", "--hmax", "3", "--gmax", "2"], ALL, 0),
    ("yau-zaslow", ["yau-zaslow", "--hmax", "5"], ALL, 0),
    ("gw", ["gw", "--h", "1", "--dmax", "2", "--umax", "6"], ALL, 0),
    ("gw-single-state", ["gw", "--single-state", "--dmax", "3", "--umax", "4"], ALL, 0),
    ("pairs", ["pairs", "--d", "2", "--h", "1", "--qmax", "6"], ALL, 0),
    ("mnop-check", ["mnop-check", "--d", "2", "--h", "1", "--umax", "6"], NO_CSV, 0),
    ("nl-demo", ["nl-demo", "--seed", "3", "--mmax", "2", "--hmax", "1", "--umax", "4"], NO_CSV, 0),
    (
        "nl-demo-triangular",
        ["nl-demo", "--seed", "3", "--mmax", "2", "--hmax", "1", "--umax", "4", "--triangular"],
        NO_CSV,
        0,
    ),
    ("check", ["check"], NO_CSV, 0),
    ("check-quick", ["check", "--quick"], NO_CSV, 0),
    # --quick lowers the MNOP sweep to (2, 2) before the grid-column bound applies
    (
        "check-quick-dmax12-hmax3",
        ["check", "--quick", "--dmax", "12", "--hmax", "3"],
        ("pretty",),
        0,
    ),
    ("check-quick-inject-fault", ["check", "--quick", "--inject-fault"], NO_CSV, 1),
]
CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt], code)
    for name, argv, formats, code in COMMANDS
    for fmt in formats
]


def run(argv: list[str]) -> tuple[int, str]:
    # the check JSON reports this cache's counts, which a warm cache would change
    bps.sine_bracket.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "check" and argv[-1] == "json":
        payload = json.loads(text)
        for check in payload["checks"]:
            del check["seconds"]
        text = json.dumps(payload, indent=2) + "\n"
    return code, text


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden(name, argv, code):
    assert run(argv) == (code, (GOLDEN / f"{name}.txt").read_bytes().decode())


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv, code in CASES:
        got, text = run(argv)
        assert got == code, f"{name}: exit code {got}, expected {code}"
        (GOLDEN / f"{name}.txt").write_bytes(text.encode())
