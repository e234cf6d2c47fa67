"""The k3bps benchmark: time to a verified exact answer, end to end and per layer.

    python3 benchmarks/run.py --workload kkv-grid --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client, one process and thread.  The run
repeats rounds until ``--seconds`` are used (at least three plain rounds,
or one plain and one traced with ``--trace 1``).  Each round is a fresh
interpreter (``worker.py``), so the package's caches start cold, as on each
CLI invocation.  Plain rounds draw their inputs from a seed sequence made
from ``--seed``; traced rounds all reuse the first, so their counts repeat
exactly.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, each a median over the plain rounds; with ``--trace 1`` it carries
the per-layer metrics, each a median over the traced rounds, plus
``trace.overhead_s``, the traced minus the plain median wall time.  Lines
before it, each starting with ``#``, record the environment and the round
counts.  The exit code is 0 only if every round ran; a task whose output
fails verification is counted in ``failed`` and does not stop the run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kkv-grid", "mnop-sweep", "check-suite")
MIN_PLAIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, scale: str, traced: bool, timeout: float) -> dict:
    """Run one round in a fresh interpreter and return its measurements."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - spawned
    result["round_s"] = time.monotonic() - spawned
    return result


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(plain: list[dict]) -> dict:
    """Each metric is taken per round, then the median over the rounds."""

    def median(per_round) -> float:
        return statistics.median(per_round(r) for r in plain)

    return {
        "wall_s": (median(lambda r: r["wall_s"]), "s"),
        "task_p50_ms": (median(lambda r: percentile(r["task_s"], 50)) * 1000, "ms"),
        "task_p90_ms": (median(lambda r: percentile(r["task_s"], 90)) * 1000, "ms"),
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "peak_rss_mib": (median(lambda r: r["peak_rss_mib"]), "MiB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        # Counts repeat exactly from round to round: keep them whole numbers.
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = (median(r["layers"][name][0] for r in traced), unit)
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "k3bps").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes exist for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "k3bps" / "__init__.py").is_file():
        print(f"error: no k3bps sources under {SRC}", file=sys.stderr)
        return 2

    seeds = Random(args.seed)
    first_seed = seeds.randrange(2**31)
    kinds = (False, True) if args.trace else (False,)
    rounds: dict[bool, list[dict]] = {False: [], True: []}
    begin = time.monotonic()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        round_seed = first_seed if args.trace or i == 0 else seeds.randrange(2**31)
        remaining = RUN_LIMIT_S - (time.monotonic() - begin)
        try:
            result = run_round(args.workload, round_seed, args.scale, traced, remaining)
        except RoundFailed as exc:
            print(f"error: {args.workload} round {i}: {exc}", file=sys.stderr)
            return 1
        rounds[traced].append(result)
        for error in result["errors"]:
            print(f"failed task: {error}", file=sys.stderr)

        upcoming = kinds[(i + 1) % len(kinds)]
        expected_end = time.monotonic() - begin + (rounds[upcoming] or rounds[traced])[-1]["round_s"]
        enough = len(rounds[False]) >= (1 if args.trace else MIN_PLAIN_ROUNDS) and all(
            rounds[k] for k in kinds
        )
        if enough and expected_end > min(args.seconds, RUN_LIMIT_S):
            break

    everything = rounds[False] + rounds[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    plain_tasks = sum(len(r["task_s"]) for r in rounds[False])
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "first_round_seed": first_seed,
        "scale": args.scale,
        "sizes": everything[0]["sizes"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
        "source_digest": source_digest(),
    }
    print("# env " + json.dumps(env))
    print(
        f"# rounds plain={len(rounds[False])} traced={len(rounds[True])}"
        f" task_samples={plain_tasks} failed_frac={failed / attempted:.6g}"
    )
    metrics = per_layer(rounds[False], rounds[True]) if args.trace else end_to_end(rounds[False])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
