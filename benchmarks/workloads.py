"""The benchmark's workloads: seeded inputs, the timed tasks, and their checks.

Each workload is built in the set-up phase, which generates its inputs from
the seed and does no ``k3bps`` computation, so every ``lru_cache`` in the
package is cold when the timed phase starts, as on each CLI invocation.
``run`` then executes the tasks back to back and verifies every output
against exact references; a wrong or raising output is a failed task and
never stops the round.

Calls go through the ``k3bps`` module attributes at call time, so the
wrappers that a traced round installs see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import k3bps
import k3bps.cli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# n_{g,h} for g, h <= 4, from the KKV paper's table.
KKV_TABLE = (
    (1,),
    (24, -2),
    (324, -54, 3),
    (3200, -800, 88, -4),
    (25650, -8550, 1401, -126, 5),
)

# Sizes per scale.  "full" is what the benchmark measures; "toy" keeps the
# same code paths small enough for the benchmark's own tests.
SIZES = {
    "full": {
        "kkv-grid": {"h": 80},
        "mnop-sweep": {"d_max": 3, "h_max": 4, "u_orders": list(range(8, 31, 2))},
        "check-suite": {"argv": []},
    },
    "toy": {
        "kkv-grid": {"h": 12},
        "mnop-sweep": {"d_max": 2, "h_max": 2, "u_orders": [8, 10]},
        "check-suite": {"argv": ["--quick"]},
    },
}


@dataclass
class Outcome:
    """One task: whether its output verified, its latency, and why it failed."""

    ok: bool
    seconds: float
    error: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def series_text(series) -> str:
    """Canonical text of a u-series: its truncation order and nonzero terms."""
    terms = ";".join(f"{d}:{Fraction(c)}" for d, c in series.items() if c)
    return f"O({series.truncation_order})|{terms}"


def grid_text(grid) -> str:
    return "|".join(
        ",".join(str(v) for v in grid.column(h)) for h in range(grid.h_max + 1)
    )


def checks_text(checks: list) -> str:
    return "|".join(f"{c['name']}:{c['ok']}:{c['detail']}" for c in checks)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _timed(task) -> Outcome:
    """Run one task; any exception it raises is recorded as a failure."""
    start = perf_counter()
    try:
        error = task()
    except Exception as exc:  # a raising output is a failed task, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(not error, perf_counter() - start, error or "")


class KkvGrid:
    """One ``bps_grid_from_kkv(H)`` at a large fixed H.

    The input has one size parameter, so the seed does not change it: varying
    H would vary the work from seed to seed.
    """

    name = "kkv-grid"

    def __init__(self, seed: int, size: dict, reference: dict) -> None:
        self.h = size["h"]
        self.expected = reference["kkv-grid"][str(self.h)]

    def sizes(self) -> dict:
        return {"H": self.h}

    def run(self) -> list[Outcome]:
        return [_timed(self._task)]

    def _task(self) -> str:
        grid = k3bps.bps_grid_from_kkv(self.h)
        if grid.h_max != self.h:
            return f"grid stops at h={grid.h_max}, asked for {self.h}"
        for h, column in enumerate(KKV_TABLE):
            if grid.column(h) != column:
                return f"column h={h} is {grid.column(h)}, expected {column}"
        yz = k3bps.yau_zaslow_series(self.h)
        for h in range(self.h + 1):
            if grid.value(0, h) != yz.coefficient(h):
                return f"genus 0 at h={h} differs from the Yau-Zaslow series"
        if digest(grid_text(grid)) != self.expected:
            return "grid digest differs from the reference"
        return ""


class MnopSweep:
    """``mnop_check`` at every class d <= 3, h <= 4 and even u-order 8..30.

    The tasks run in seeded order against one shared ``PairsLedger``, so pairs
    functions computed for one u-order are reused for the others, while the
    ``sine_bracket`` cache, keyed by the u-order, keeps missing.
    """

    name = "mnop-sweep"

    def __init__(self, seed: int, size: dict, reference: dict) -> None:
        self.d_max = size["d_max"]
        self.h_max = size["h_max"]
        self.u_orders = size["u_orders"]
        self.tasks = [
            (d, h, u)
            for d in range(1, self.d_max + 1)
            for h in range(self.h_max + 1)
            for u in self.u_orders
        ]
        random.Random(seed).shuffle(self.tasks)
        self.column = max(self.d_max**2 * (self.h_max - 1) + 1, self.h_max)
        self.expected = reference["mnop-sweep"]

    def sizes(self) -> dict:
        return {
            "d_max": self.d_max,
            "h_max": self.h_max,
            "u_orders": [self.u_orders[0], self.u_orders[-1]],
            "grid_column": self.column,
            "tasks": len(self.tasks),
        }

    def run(self) -> list[Outcome]:
        try:
            grid = k3bps.bps_grid_from_kkv(self.column)
            ledger = k3bps.PairsLedger(grid)
        except Exception as exc:  # every task needs the grid
            return [Outcome(False, 0.0, f"grid: {exc!r}") for _ in self.tasks]
        return [_timed(lambda t=t: self._task(grid, ledger, *t)) for t in self.tasks]

    def _task(self, grid, ledger, d: int, h: int, u: int) -> str:
        report = k3bps.mnop_check(k3bps.HodgeLabel(d, h), grid, u, ledger)
        if not report.equal:
            return f"(d={d}, h={h}, u={u}): sides differ at {report.first_mismatch}"
        if digest(series_text(report.lhs)) != self.expected.get(f"{d},{h},{u}"):
            return f"(d={d}, h={h}, u={u}): GW series digest differs from the reference"
        return ""


class CheckSuite:
    """``k3bps check --format json`` at the default full bounds."""

    name = "check-suite"

    def __init__(self, seed: int, size: dict, reference: dict) -> None:
        self.argv = ["check", "--format", "json", "--seed", str(seed)] + size["argv"]
        self.bounds = "quick" if "--quick" in size["argv"] else "full"
        self.expected = reference["check-suite"][self.bounds]

    def sizes(self) -> dict:
        return {"bounds": self.bounds, "argv": self.argv}

    def run(self) -> list[Outcome]:
        return [_timed(self._task)]

    def _task(self) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = k3bps.cli.main(self.argv)
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out.getvalue())
        passed = sum(1 for c in payload["checks"] if c["ok"])
        if not payload["ok"] or passed != len(self.expected["names"]):
            return f"{passed} checks passed, expected {len(self.expected['names'])}"
        if [c["name"] for c in payload["checks"]] != self.expected["names"]:
            return "check names differ from the reference"
        if digest(checks_text(payload["checks"])) != self.expected["digest"]:
            return "check outcomes differ from the reference"
        return ""


WORKLOADS = {w.name: w for w in (KkvGrid, MnopSweep, CheckSuite)}


def make(name: str, seed: int, scale: str = "full"):
    """Build a workload's inputs; no ``k3bps`` computation happens here."""
    return WORKLOADS[name](seed, SIZES[scale][name], load_reference())
