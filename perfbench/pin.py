#!/usr/bin/env python3
"""Regenerate references.json from the CLI at this checkout.

    python3 perfbench/pin.py

Pins each workload's numeric report payload: the exhaustive workloads
once, the sampled ones at every seed in PINNED_SEEDS.  Only rerun it when
a change is meant to alter the reports; a change that only makes the
program faster must reproduce the pinned payloads as they are.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import ROOT, SRC, Launcher
from workloads import REFERENCES, WORKLOADS, failed_comparisons, pinned_payload

PINNED_SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fqdyn.theory import poly_avg_k

    refs: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        launch = Launcher(Path(tmp), deadline=float("inf"))
        for w in WORKLOADS.values():
            seeds = [0] if w.samples is None else list(PINNED_SEEDS)
            entry: dict = {"pinned": {}}
            for seed in seeds:
                launch.deadline = perf_counter() + 600
                r = launch(w.argv(seed))
                report = json.loads(r.stdout)["report"]
                key = "*" if w.samples is None else str(seed)
                entry["pinned"][key] = pinned_payload(report)
                if r.exit_code or failed_comparisons(report):
                    entry.setdefault("observations", {})[key] = {
                        "exit_code": r.exit_code,
                        "failed_comparisons": failed_comparisons(report),
                    }
                print(f"{w.name} seed {seed}: exit {r.exit_code}", file=sys.stderr)
            if w.samples is not None and w.family == "poly":
                entry["expected_avg_k"] = {
                    str(k): {"num": str(v.numerator), "den": str(v.denominator)}
                    for k in range(1, w.d + 1)
                    for v in [poly_avg_k(w.q, w.d, k)]
                }
            refs[w.name] = entry
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
