"""One benchmark round, run by ``run.py`` in a fresh interpreter.

    python3 benchmarks/worker.py --workload NAME --seed N [--trace] [--scale toy]

Set-up imports ``k3bps`` from this checkout's ``src/`` and generates the
seeded inputs, then stamps ``time.monotonic()`` (one clock for every process
on Linux) so the parent can measure set-up from the moment it spawned this
process.  The timed phase runs the workload's tasks; with ``--trace`` the
per-layer wrappers are installed first.  The last line of standard output is
one JSON object with the round's measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_k3bps():
    """Import the package from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import k3bps
        import k3bps.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import k3bps from {SRC}: {exc}")
    if SRC.resolve() not in Path(k3bps.__file__).resolve().parents:
        raise SystemExit(f"k3bps was imported from {k3bps.__file__}, not from {SRC}")
    return k3bps


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import_k3bps()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.scale)
    setup_done = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    outcomes = workload.run()
    wall = time.perf_counter() - start

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "task_s": [o.seconds for o in outcomes],
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "errors": [o.error for o in outcomes if not o.ok][:5],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": workload.sizes(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
