#!/usr/bin/env python3
"""The repository's benchmark.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process, one closed-loop caller: each item starts when the previous one
has returned.  ``--trace 0`` times the workload with nothing wrapped and
prints the end-to-end metrics; ``--trace 1`` runs a fixed list of items
untraced, then again with every layer's public functions wrapped, and prints
the per-layer metrics.  Every item is checked against the reference in
``perfbench/reference``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs every workload at its smallest length in both modes and
checks that every metric is printed with its unit and that nothing failed.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from workloads import BLAS_THREADS, END_TO_END, EXACT_REPEAT, PER_LAYER, WORKLOADS

os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6          # fresh processes that repeat the set-up; setup_s is the median
SMOKE_SECONDS = 1


def setup(workload, seed: int):
    """Import tsa, generate the inputs and warm up.  Returns (items module,
    cycles, seconds taken)."""
    t0 = time.perf_counter()
    import items
    cycles = items.make_cycles(workload, seed)
    items.warm_up(workload)
    return items, cycles, time.perf_counter() - t0


def run_cycles(items, workload, cycles, seconds=None, count=None, tracer=None):
    """Whole cycles in a closed loop: ``count`` of them, or until the cycle
    boundary nearest to ``seconds``.  Returns ([(item, seconds, values,
    error)], wall seconds)."""
    results = []
    t0 = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for item in cycles[done % len(cycles)]:
            if tracer is not None:
                tracer.item = item.key
            start = time.perf_counter()
            try:
                values, error = items.run_item(workload, item), None
            except Exception as exc:  # a raising item is counted as failed; the run goes on
                values, error = None, f"{type(exc).__name__}: {exc}"
            results.append((item, time.perf_counter() - start, values, error))
        done += 1
        now = time.perf_counter()
        if count is not None:
            if done >= count:
                break
        elif now - t0 + (now - cycle_start) / 2 >= seconds:
            break
    return results, time.perf_counter() - t0


def check_results(items, workload, results) -> list:
    reference = items.load_reference(workload)
    failures = []
    for item, _, values, error in results:
        if error is not None:
            problems = [error]
        elif item.key not in reference:
            problems = ["no reference value"]
        else:
            problems = items.check(values, reference[item.key])
        if problems:
            failures.append(f"{item.key}: {'; '.join(problems)}")
    return failures


def setup_samples(workload, seed: int, count: int) -> list:
    """Set-up seconds of ``count`` fresh processes, one after the other."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def machine(workload, seed: int, results) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS, "workload": workload.name, "seed": seed,
            "instances": sorted({item.key for item, *_ in results})}


def tail(times: list):
    """(value, percentile) at the highest percentile with ten items beyond it;
    None unless that percentile lies above the median."""
    n = len(times)
    if n < 21:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds, items, cycles, setup_s):
    # Half the set-up probes run before the timed phase and half after, so
    # their median spans the run rather than one moment of the host's load.
    samples = [setup_s] + setup_samples(workload, seed, SETUP_PROBES // 2)
    with HostSpeed() as host:
        results, wall = run_cycles(items, workload, cycles, seconds=seconds)
    slowdown = host.slowdown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples += setup_samples(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    times = [t for _, t, _, _ in results]
    # The median over the largest size only: the table workloads' item times
    # cluster by size and by whether UB_OA stops early, and the median of all
    # of them falls between clusters, where host noise moves it by 40%.
    largest = [t for item, t, _, _ in results if item.n == max(workload.sizes)]
    metrics = {
        "setup_s": statistics.median(samples),
        "items_per_s": len(results) / wall * slowdown,
        "item_p50_s": statistics.median(largest) / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    failures = check_results(items, workload, results)
    print(f"machine {json.dumps(machine(workload, seed, results), sort_keys=True)}")
    print(f"{workload.name}: {len(results)} items in {wall:.3f} s; set-up samples "
          + " ".join(f"{s:.4f}" for s in samples))
    for name, unit, *_ in END_TO_END:
        print(f"  {name} = {metrics[name]!r} {unit}")
    print(f"  host slowdown = {slowdown!r} (median of {len(host.samples)} kernel samples); "
          f"measured items_per_s = {len(results) / wall!r} 1/s, "
          f"item_p50_s = {statistics.median(largest)!r} s")
    print(f"  measured median of all {len(times)} items = {statistics.median(times)!r} s")
    t = tail(times)
    if t is None:
        print(f"  item_tail_s omitted: {len(times)} items, a tail above the median needs 21")
    else:
        print(f"  item_tail_s = {t[0]!r} s measured (p{t[1]:.1f} of {len(times)} items, "
              f"10 beyond it)")
    print(f"  failed_frac = {len(failures) / len(results)!r} frac "
          f"({len(failures)} failed of {len(results)} attempted)")
    return len(results), failures, [], metrics


def count_drift(workload, seed: int, count: int, items, results, metrics) -> list:
    """Compare the exact-repeat counts with the previous traced run of the
    same sources, seed and length in this checkout; record them if none."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload.name}-seed{seed}-cycles{count}.json"
    record = {"source_sha256": items.source_digest(ROOT),
              "items": [item.key for item, *_ in results],
              "counts": {name: metrics[name] for name in EXACT_REPEAT}}
    previous = None
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if {k: previous.get(k) for k in ("source_sha256", "items")} != \
                {k: record[k] for k in ("source_sha256", "items")}:
            previous = None
    if previous is None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
        print(f"  exact-repeat counts recorded in {path.relative_to(ROOT)}")
        return []
    drift = [f"{name} was {previous['counts'][name]}, now {record['counts'][name]}"
             for name in EXACT_REPEAT if previous["counts"][name] != record["counts"][name]]
    print(f"  exact-repeat counts {'DRIFTED: ' + '; '.join(drift) if drift else 'repeat'}")
    return drift


def traced(workload, seed, seconds, items, cycles):
    from tracer import Tracer

    count = max(1, round(seconds / workload.nominal_cycle_s))
    untraced, wall_untraced = run_cycles(items, workload, cycles, count=count)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        results, wall = run_cycles(items, workload, cycles, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.items_per_s"] = len(results) / wall
    metrics["trace.untraced_items_per_s"] = len(untraced) / wall_untraced
    metrics["trace.overhead_frac"] = (1.0 - metrics["trace.items_per_s"]
                                      / metrics["trace.untraced_items_per_s"])
    failures = check_results(items, workload, untraced + results)
    print(f"machine {json.dumps(machine(workload, seed, results), sort_keys=True)}")
    print(f"{workload.name} traced: {count} cycles, {len(results)} items; untraced "
          f"{wall_untraced:.3f} s, traced {wall:.3f} s; tracing overhead "
          f"{metrics['trace.untraced_items_per_s'] - metrics['trace.items_per_s']!r} items/s "
          f"({100 * metrics['trace.overhead_frac']:.1f}%)")
    for name, unit, _ in PER_LAYER:
        print(f"  {name} = {metrics[name]!r} {unit}")
    drift = count_drift(workload, seed, count, items, results, metrics)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans, t0)
    print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return len(untraced) + len(results), failures, drift, metrics


def smoke() -> int:
    """Every workload at its smallest length, untraced and traced."""
    problems = []
    tables = {0: {n: u for n, u, *_ in END_TO_END}, 1: {n: u for n, u, *_ in PER_LAYER}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != tables[trace]:
                problems.append(f"{where}: metrics {units} differ from {tables[trace]}")
            printed = lines[:-1]
            for metric, unit in tables[trace].items():
                if not any(line.strip().startswith(f"{metric} = ") and line.split()[-1] == unit
                           for line in printed):
                    problems.append(f"{where}: {metric} not printed with unit {unit}")
            if trace == 0:
                for metric in ("item_tail_s", "failed_frac = 0.0 frac"):
                    if not any(line.strip().startswith(metric) for line in printed):
                        problems.append(f"{where}: no '{metric}' line")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            print(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
    problems += benchmark_json_problems()
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def benchmark_json_problems() -> list:
    """BENCHMARK.json must list the metrics and workloads this benchmark prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [[m["name"], m["unit"], m["better"], m["bound"]] for m in spec["end_to_end"]] != \
            [list(m) for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    if [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] != \
            [list(m) for m in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from workloads.PER_LAYER")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="any integer >= 0")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tsa" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/tsa; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        ap.error("--workload is required, --seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    items, cycles, setup_s = setup(workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        attempted, failures, drift, metrics = traced(workload, args.seed, args.seconds, items,
                                                     cycles)
    else:
        attempted, failures, drift, metrics = end_to_end(workload, args.seed, args.seconds,
                                                         items, cycles, setup_s)
    for line in failures:
        print(f"FAILED {line}")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": not failures and not drift, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit, *_ in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
