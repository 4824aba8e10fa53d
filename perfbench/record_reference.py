#!/usr/bin/env python3
"""Record the reference values every benchmark item is checked against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every item of each workload's instance universe once with the current
sources and writes ``perfbench/reference/<workload>.json``.  Run it only on
the commit whose values are the reference; later commits are checked against
the files it wrote.  It refuses to write a file if any recorded item fails
its own check (a verdict false or a bound below a lower bound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS

os.environ.update(BLAS_THREADS)
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import items  # noqa: E402  (imports numpy and tsa: after the thread setting and the path)


def record(workload) -> int:
    entries = {}
    bad = 0
    t0 = time.perf_counter()
    for n in workload.sizes:
        for seed in range(workload.universe):
            item = items.Item(f"n{n}m{n}_s{seed}", n, seed, items.make_instance(workload, n, seed))
            values = items.run_item(workload, item)
            ref = dict(values["quantities"])
            if workload.kind == "bounds":
                ref["LB"] = items.static_lower_bound(item)
            problems = items.check(values, ref)
            if problems:
                bad += 1
                print(f"{workload.name} {item.key}: {'; '.join(problems)}", file=sys.stderr)
            entries[item.key] = ref
    out = {"workload": workload.name, "source_sha256": items.source_digest(ROOT),
           "items": entries}
    if bad:
        return bad
    items.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(items.REFERENCE_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload.name}: {len(entries)} items in {time.perf_counter() - t0:.1f} s")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    failed = sum(record(WORKLOADS[name]) for name in (args.workload or WORKLOADS))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
