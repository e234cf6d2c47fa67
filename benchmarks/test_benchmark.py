"""The benchmark's own tests, at toy sizes.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import k3bps  # noqa: E402
import workloads  # noqa: E402
from k3bps.checks import CheckResult  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_follows_its_own_rules():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_plain_run_prints_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_runs_print_every_layer_metric_and_repeat_counts(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    printed = {n: m["unit"] for n, m in first["metrics"].items()}
    assert printed == declared("per_layer")
    counts = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {n: second["metrics"][n]["value"] for n in counts}


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("kkv-grid", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def toy(name: str):
    return workloads.make(name, seed=3, scale="toy")


def test_verifier_counts_an_altered_mnop_series_as_failed(monkeypatch):
    real = k3bps.mnop_check
    altered = []

    def corrupting(label, grid, u_order, ledger=None):
        report = real(label, grid, u_order, ledger)
        if not altered:  # both sides moved together, so report.equal stays true
            altered.append(label)
            shifted = report.lhs + Fraction(1, 7)
            report = dataclasses.replace(report, lhs=shifted, rhs=shifted)
        return report

    monkeypatch.setattr(k3bps, "mnop_check", corrupting)
    outcomes = toy("mnop-sweep").run()
    assert [o.ok for o in outcomes].count(False) == 1
    assert "digest" in next(o.error for o in outcomes if not o.ok)


def test_verifier_counts_a_raising_task_as_failed_and_keeps_going(monkeypatch):
    real = k3bps.mnop_check
    calls = []

    def raising(label, grid, u_order, ledger=None):
        calls.append(label)
        if len(calls) == 2:
            raise TypeError("injected")
        return real(label, grid, u_order, ledger)

    monkeypatch.setattr(k3bps, "mnop_check", raising)
    outcomes = toy("mnop-sweep").run()
    assert len(outcomes) == len(calls) > 2
    assert [o.ok for o in outcomes] == [i != 1 for i in range(len(outcomes))]


def test_verifier_counts_an_altered_grid_entry_as_failed(monkeypatch):
    real = k3bps.bps_grid_from_kkv

    def corrupting(h_max):
        columns = [list(real(h_max).column(h)) for h in range(h_max + 1)]
        columns[h_max][1] += 1  # off the diagonal and outside the 5x5 table
        return k3bps.KkvBpsGrid(columns)

    monkeypatch.setattr(k3bps, "bps_grid_from_kkv", corrupting)
    (outcome,) = toy("kkv-grid").run()
    assert not outcome.ok and "digest" in outcome.error


def test_verifier_counts_an_altered_check_detail_as_failed(monkeypatch):
    def altered():
        return CheckResult("footnote-series", True, "altered detail")

    monkeypatch.setattr(k3bps.checks, "check_footnote_series", altered)
    (outcome,) = toy("check-suite").run()
    assert not outcome.ok and "differ" in outcome.error
