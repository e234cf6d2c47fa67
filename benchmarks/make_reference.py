"""Regenerate ``reference.json``, the digests every benchmark run verifies against.

    python3 benchmarks/make_reference.py

Run it only on code whose outputs are known to be right: the digests pin
the exact results of the kkv-grid grids, of the mnop-sweep Gromov-Witten
side series, and of the check-suite check names, outcomes and details.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import k3bps  # noqa: E402
import k3bps.cli  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    SIZES,
    checks_text,
    digest,
    grid_text,
    series_text,
)


def check_payload(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = k3bps.cli.main(argv)
    payload = json.loads(out.getvalue())
    if code != 0 or not payload["ok"]:
        raise SystemExit(f"k3bps {' '.join(argv)} failed; refusing to record it")
    return payload


def main() -> int:
    reference: dict = {"kkv-grid": {}, "mnop-sweep": {}, "check-suite": {}}
    for scale in SIZES.values():
        h = scale["kkv-grid"]["h"]
        reference["kkv-grid"][str(h)] = digest(grid_text(k3bps.bps_grid_from_kkv(h)))

    sweep = SIZES["full"]["mnop-sweep"]
    column = sweep["d_max"] ** 2 * (sweep["h_max"] - 1) + 1
    grid = k3bps.bps_grid_from_kkv(column)
    ledger = k3bps.PairsLedger(grid)
    for d in range(1, sweep["d_max"] + 1):
        for h in range(sweep["h_max"] + 1):
            for u in sweep["u_orders"]:
                report = k3bps.mnop_check(k3bps.HodgeLabel(d, h), grid, u, ledger)
                if not report.equal:
                    raise SystemExit(f"MNOP identity fails at (d={d}, h={h}, u={u})")
                reference["mnop-sweep"][f"{d},{h},{u}"] = digest(series_text(report.lhs))

    for bounds, extra in (("full", []), ("quick", ["--quick"])):
        texts = set()
        for seed in ("0", "1"):  # the recorded outcomes must not depend on the seed
            payload = check_payload(["check", "--format", "json", "--seed", seed] + extra)
            texts.add(checks_text(payload["checks"]))
        if len(texts) != 1:
            raise SystemExit(f"check details depend on the seed at {bounds} bounds")
        reference["check-suite"][bounds] = {
            "names": [c["name"] for c in payload["checks"]],
            "digest": digest(texts.pop()),
        }

    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
