"""Command-line harness: instance generation, solvers, simulation, gap reports
and the experiment tables.

Exit codes: 0 success, 2 configuration error, 3 refusal (a size limit, or a
quantity the choice models do not support), 4 time limit.
Every artifact is deterministic given the config (seeded RNG, fixed float
formatting); per-instance seeds derive as seed + index.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import gap_report, reports_to_csv, ub_fa, ub_oa, lp_relaxation_onesided
from .errors import ParseError, SizeRefusalError, TimeLimitError, UnsupportedOracleError
from .exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                    opt_one_sided_static)
from .fullystatic import approx_fully_static
from .greedy import (GreedyOneSidedPolicy, SamplingConfig, cointoss_fully_adaptive,
                     sampling_side_selector)
from .instances import (CardinalityProfile, _integer, _number, generate_random_instance,
                        instance_from_dict, instance_to_dict, load_instance, save_instance,
                        tight_instance)
from .policies import dump_trace, monte_carlo, simulate_once
from .util import Deadline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_TIME = 4


@dataclass
class ExperimentConfig:
    sizes: list = field(default_factory=lambda: [[2, 2], [3, 3]])
    seeds: int = 20
    seed: int = 0
    mode: str = "unconstrained"
    k_customer: object = None
    k_supplier: object = None
    initiating: str = "C"
    time_limit: object = None
    jobs: int = 1
    out: str = "."

    def validate(self):
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        for s in self.sizes:
            if len(s) != 2 or s[0] < 1 or s[1] < 1:
                raise ValueError(f"bad size entry {s}")

    def profile(self) -> CardinalityProfile:
        return CardinalityProfile(self.mode, self.k_customer, self.k_supplier, self.initiating)


def _check_config_field(key, val, where):
    """Refuse a wrong JSON type as instance files do; the profile fields are
    checked by ``CardinalityProfile``."""
    if key == "sizes":
        if not isinstance(val, list) or not all(isinstance(s, list) and len(s) == 2 for s in val):
            raise ParseError(f"{where}: expected a list of [n, m] pairs, got {json.dumps(val)}")
        for s in val:
            for x in s:
                _integer(x, where)
    elif key in ("seeds", "seed") or (key == "jobs" and val is not None):
        _integer(val, where)
    elif key == "time_limit" and val is not None:
        _number(val, where)
    elif key == "out":
        _integer(val, where, str, "a string")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParseError(f"{args.config}: expected a JSON object")
        # A field is known where the subcommand has its flag (generate has no
        # --time-limit or --jobs).
        known = {k for k in cfg.__dict__ if hasattr(args, k)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)} for {args.command}")
        for k, val in data.items():
            _check_config_field(k, val, f"{args.config}: {k}")
            setattr(cfg, k, val)
    for k in cfg.__dict__:
        val = getattr(args, k, None)
        if val is not None:
            setattr(cfg, k, val)
    cfg.validate()
    return cfg


def _parse_sizes(text: str):
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if "x" in part:
            a, b = part.split("x")
            sizes.append([int(a), int(b)])
        else:
            sizes.append([int(part), int(part)])
    return sizes


def _instances_of(cfg: ExperimentConfig):
    out = []
    for (n, m) in cfg.sizes:
        for k in range(cfg.seeds):
            seed = cfg.seed + k
            label = f"n{n}m{m}_s{seed}"
            out.append((label, n, m, seed))
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    if args.n is not None and not args.kind:
        raise ValueError("--n applies only with --kind")
    cfg = _load_config(args)
    os.makedirs(cfg.out, exist_ok=True)
    if args.kind:
        n = 2 if args.n is None else args.n
        inst = tight_instance(args.kind, n)
        path = os.path.join(cfg.out, f"{args.kind}_n{n}.json")
        save_instance(inst, path)
        print(path)
        return EXIT_OK
    for label, n, m, seed in _instances_of(cfg):
        inst = generate_random_instance(n, m, seed, cfg.profile())
        path = os.path.join(cfg.out, f"{label}.json")
        save_instance(inst, path)
        print(path)
    return EXIT_OK


_SOLVERS = ("fs", "os", "oa", "fa", "alg_fs", "ub_oa", "ub_fa", "rel2")


def _solve_one(inst, what, seed: int):
    values = {}
    if "fs" in what:
        values["OPT_FS"] = opt_fully_static(inst)[0]
    if "os" in what:
        values["OPT_OS"] = max(opt_one_sided_static(inst, "C"),
                               opt_one_sided_static(inst, "S"))
    if "oa" in what:
        values["OPT_OA"] = max(opt_one_sided_adaptive(inst, "C").value,
                               opt_one_sided_adaptive(inst, "S").value)
    if "fa" in what:
        values["OPT_FA"] = opt_fully_adaptive(inst).value
    if "alg_fs" in what:
        values["ALG_FS"] = approx_fully_static(inst, rng=np.random.default_rng([seed, 3])).value
    if "ub_oa" in what:
        values["UB_OA"] = ub_oa(inst)
    if "ub_fa" in what:
        values["UB_FA"] = ub_fa(inst)
    if "rel2" in what:
        values["REL2"] = max(lp_relaxation_onesided(inst, "C").value,
                             lp_relaxation_onesided(inst, "S").value)
    return values


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    what = args.what.split(",") if args.what else ["fs", "os", "oa", "fa"]
    bad = [w for w in what if w not in _SOLVERS]
    if bad:
        raise ValueError(f"unknown solver(s) {bad}; choose from {_SOLVERS}")
    with Deadline(args.time_limit or None):
        values = _solve_one(inst, what, args.seed or 0)
    print(json.dumps({k: round(v, 12) for k, v in sorted(values.items())}, sort_keys=True))
    return EXIT_OK


def _build_policy(inst, name: str, seed: int):
    if name == "greedy-c":
        return GreedyOneSidedPolicy(inst, "C")
    if name == "greedy-s":
        return GreedyOneSidedPolicy(inst, "S")
    if name == "greedy-c-random-order":
        order = list(np.random.default_rng([seed, 11]).permutation(inst.n))
        return GreedyOneSidedPolicy(inst, "C", order=[int(x) for x in order])
    if name == "cointoss":
        return cointoss_fully_adaptive(inst, seed)
    if name == "sampling":
        return sampling_side_selector(inst, SamplingConfig(runs_override=100), seed)
    raise ValueError(f"unknown policy {name!r}")


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    with Deadline(args.time_limit or None):
        policy = _build_policy(inst, args.policy, args.seed or 0)
        res = monte_carlo(inst, policy, args.runs, args.seed or 0)
    if args.trace:
        rng = np.random.default_rng([args.seed or 0, 0])
        _, trace = simulate_once(inst, policy, rng)
        with open(args.trace, "w", encoding="utf-8") as fh:
            dump_trace(trace, fh)
    out = {"mean": res.mean, "ci_half_width": res.half_width,
           "runs": res.runs, "seed": res.seed, "policy": args.policy}
    if hasattr(policy, "metadata"):
        out["metadata"] = {k: (v if not isinstance(v, float) else round(v, 12))
                           for k, v in sorted(policy.metadata.items())}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _gap_one(task):
    label, payload, seed, deadline = task
    with deadline:
        return gap_report(instance_from_dict(payload), label, seed=seed)


def _generated(cfg: ExperimentConfig):
    """(label, instance, seed) for each configured random instance, made on demand."""
    for label, n, m, seed in _instances_of(cfg):
        yield label, generate_random_instance(n, m, seed, cfg.profile()), seed


def _run_reports(items, jobs: int, deadline: Deadline):
    """(reports, timed_out): one gap report per (label, instance, seed) item, in
    order, up to the first that hit ``deadline``.  Every task carries the
    ``deadline`` and enters it (its monotonic start holds in worker processes
    too); with ``jobs`` > 1 the first timeout cancels the tasks not yet started."""
    tasks = ((label, instance_to_dict(inst), seed, deadline) for label, inst, seed in items)
    reports = []
    try:
        if jobs and jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                try:
                    reports.extend(pool.map(_gap_one, tasks))
                except TimeLimitError:
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            for task in tasks:
                reports.append(_gap_one(task))
    except TimeLimitError:
        return reports, True
    return reports, False


def cmd_gaps(args) -> int:
    cfg = _load_config(args)
    deadline = Deadline(cfg.time_limit or None)
    if args.instance:  # every file is read before anything is written
        items = [(os.path.splitext(os.path.basename(path))[0], load_instance(path), cfg.seed + k)
                 for k, path in enumerate(args.instance)]
    else:
        items = _generated(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    reports, timed_out = _run_reports(items, cfg.jobs, deadline)
    path = os.path.join(cfg.out, "gaps.csv")
    with open(path, "w", encoding="utf-8") as fh:
        reports_to_csv(reports, fh)
    print(path)
    return EXIT_TIME if timed_out else EXIT_OK


def _summary_rows(reports_by_size, names):
    rows = []
    for size_label, reports in reports_by_size:
        cells = [size_label]
        for name in names:
            vals = [r.ratios[name] for r in reports if r.ratios.get(name) is not None]
            if vals:
                cells += [format(min(vals), ".6f"), format(sum(vals) / len(vals), ".6f"),
                          format(max(vals), ".6f")]
            else:
                cells += ["", "", ""]
        rows.append(cells)
    return rows


def cmd_tables(args) -> int:
    cfg = _load_config(args)
    deadline = Deadline(cfg.time_limit or None)
    os.makedirs(cfg.out, exist_ok=True)
    reports, timed_out = _run_reports(_generated(cfg), cfg.jobs, deadline)
    with open(os.path.join(cfg.out, "instances.csv"), "w", encoding="utf-8") as fh:
        reports_to_csv(reports, fh)
    # _instances_of lists cfg.seeds instances per size, size by size.
    by_size = [(f"{n}x{m}", reports[k * cfg.seeds:(k + 1) * cfg.seeds])
               for k, (n, m) in enumerate(cfg.sizes)]
    by_size = [(size, reps) for size, reps in by_size if reps]

    tables = {
        "table_fullystatic.csv": ["ALG_FS/OPT_FS"],
        "table_gaps.csv": ["OPT_OS/OPT_FS", "OPT_OA/ALG_OS", "UB_OA/ALG_OS",
                           "OPT_FA/OPT_OA", "UB_FA/ALG_OA"],
        "table_adaptive.csv": ["ALG_OA/OPT_OA", "ALG_OA/UB_OA",
                               "ALG_FA/OPT_FA", "ALG_FA/UB_FA"],
    }
    for fname, names in tables.items():
        with open(os.path.join(cfg.out, fname), "w", encoding="utf-8") as fh:
            header = ["size"]
            for name in names:
                header += [f"{name} min", f"{name} mean", f"{name} max"]
            fh.write(",".join(header) + "\n")
            for row in _summary_rows(by_size, names):
                fh.write(",".join(row) + "\n")
        print(os.path.join(cfg.out, fname))
    return EXIT_TIME if timed_out else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tsa", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, reports=True):
        sp.add_argument("--config", help="JSON config file; flags override fields")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--sizes", type=_parse_sizes, default=None,
                        help="comma list, e.g. 2,3 or 2x3,4x4")
        sp.add_argument("--seeds", type=int, default=None, help="instances per size")
        if reports:  # generate writes instances only: no solver to time or spread
            sp.add_argument("--jobs", type=int, default=None)
            sp.add_argument("--time-limit", dest="time_limit", type=float, default=None)
        sp.add_argument("--mode", choices=["unconstrained", "one-way", "two-way"], default=None)
        sp.add_argument("--k-customer", dest="k_customer", type=int, default=None)
        sp.add_argument("--k-supplier", dest="k_supplier", type=int, default=None)
        sp.add_argument("--initiating", choices=["C", "S"], default=None)

    g = sub.add_parser("generate", help="write instance JSON files")
    common(g, reports=False)
    g.add_argument("--kind", choices=["prop1", "lemma3", "lemma6", "thm3"],
                   help="emit a tight construction instead of random instances")
    g.add_argument("--n", type=int, default=None, help="size parameter for --kind (default 2)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run exact solvers and bounds on one instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--what", default=None, help=f"comma list from {_SOLVERS}")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    s.set_defaults(func=cmd_solve)

    sim = sub.add_parser("simulate", help="Monte Carlo a policy on an instance")
    sim.add_argument("--instance", required=True)
    sim.add_argument("--policy", default="greedy-c",
                     choices=["greedy-c", "greedy-s", "greedy-c-random-order",
                              "cointoss", "sampling"])
    sim.add_argument("--runs", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trace", default=None, help="write one run's trace (JSON lines)")
    sim.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    sim.set_defaults(func=cmd_simulate)

    gp = sub.add_parser("gaps", help="gap report CSV for instances")
    common(gp)
    gp.add_argument("--instance", nargs="*", default=None, help="instance files (else generated)")
    gp.set_defaults(func=cmd_gaps)

    t = sub.add_parser("tables", help="experiment tables with min/mean/max per ratio")
    common(t)
    t.set_defaults(func=cmd_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeRefusalError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except UnsupportedOracleError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except TimeLimitError as exc:
        print(f"time limit: {exc}", file=sys.stderr)
        return EXIT_TIME


if __name__ == "__main__":
    sys.exit(main())
