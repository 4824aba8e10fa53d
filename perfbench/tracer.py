"""Spans around calls into ``tsa``'s public functions, installed from outside.

Each wrapped function is replaced in every ``tsa`` namespace that binds it,
since callers look it up there (``tsa.bounds`` calls its own imported name
``opt_fully_adaptive``; ``maximize_concave`` calls ``tsa.lp.solve_lp``).
Methods are replaced on their class.  A span records its name, start, end,
parent span and item id.  Self time is a call's duration minus the time of
the wrapped calls it made.  The most frequent calls (choice-model
evaluation, single-agent oracles, greedy actions: millions per 10x10 report)
are counted and timed but keep no span of their own.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from workloads import PER_LAYER

FUNCTIONS = (
    ("exact", ("opt_fully_adaptive", "opt_one_sided_adaptive", "opt_one_sided_static",
               "opt_fully_static")),
    ("oracles", ("best_weighted_assortment", "constrained_demand")),
    ("lp", ("solve_lp", "maximize_concave")),
    ("policies", ("simulate_once", "monte_carlo", "exact_value_one_sided_static",
                  "exact_value_edges", "exact_value_static")),
    ("greedy", ("exact_greedy_value", "sampling_side_selector", "cointoss_exact_value",
                "cointoss_fully_adaptive")),
    ("fullystatic", ("approx_fully_static", "partition_edges", "highvalue_subproblem",
                     "lowlow_lp", "independent_rounding", "dependent_rounding")),
    ("bounds", ("gap_report", "alg_one_sided_static_value", "alg_one_sided_adaptive_value",
                "alg_fully_adaptive_value", "lp_relaxation_onesided",
                "independent_objective_from_tau", "ub_oa", "ub_fa")),
)
METHODS = (
    ("instances", "MNL", ("prob", "demand")),
    ("greedy", "GreedyOneSidedPolicy", ("action",)),
    ("greedy", "CommittedPolicy", ("action",)),
)
NO_SPAN = {"instances.MNL.prob", "instances.MNL.demand", "greedy.GreedyOneSidedPolicy.action",
           "greedy.CommittedPolicy.action", "oracles.best_weighted_assortment",
           "oracles.constrained_demand"}

# Per-layer metric -> the wrapped names whose self time (or calls, or whole
# duration) it adds up.
SELF_S = {
    "exact.fa_self_s": ("exact.opt_fully_adaptive",),
    "exact.oa_self_s": ("exact.opt_one_sided_adaptive",),
    "exact.static_self_s": ("exact.opt_one_sided_static", "exact.opt_fully_static"),
    "oracles.assortment_self_s": ("oracles.best_weighted_assortment",),
    "oracles.constrained_demand_self_s": ("oracles.constrained_demand",),
    "lp.solve_self_s": ("lp.solve_lp",),
    "lp.fw_self_s": ("lp.maximize_concave",),
    "bounds.gap_report_self_s": ("bounds.gap_report", "bounds.alg_one_sided_static_value",
                                 "bounds.alg_one_sided_adaptive_value",
                                 "bounds.alg_fully_adaptive_value"),
    "policies.sim_self_s": ("policies.simulate_once", "policies.monte_carlo"),
    "policies.exact_eval_self_s": ("policies.exact_value_one_sided_static",
                                   "policies.exact_value_edges", "policies.exact_value_static"),
    "greedy.policy_action_self_s": ("greedy.GreedyOneSidedPolicy.action",
                                    "greedy.CommittedPolicy.action"),
    "greedy.exact_value_self_s": ("greedy.exact_greedy_value",),
    "greedy.selector_self_s": ("greedy.sampling_side_selector",),
    "greedy.cointoss_self_s": ("greedy.cointoss_exact_value", "greedy.cointoss_fully_adaptive"),
    "instances.demand_self_s": ("instances.MNL.demand",),
    "instances.prob_self_s": ("instances.MNL.prob",),
    "fullystatic.approx_self_s": ("fullystatic.approx_fully_static", "fullystatic.partition_edges",
                                  "fullystatic.highvalue_subproblem",
                                  "fullystatic.independent_rounding",
                                  "fullystatic.dependent_rounding"),
    "fullystatic.lowlow_lp_self_s": ("fullystatic.lowlow_lp",),
}
TOTAL_S = {
    "bounds.ub_oa_s": ("bounds.ub_oa",),
    "bounds.ub_fa_s": ("bounds.ub_fa",),
    "bounds.relaxation_s": ("bounds.lp_relaxation_onesided", "bounds.independent_objective_from_tau"),
}
CALLS = {
    "oracles.assortment_calls": ("oracles.best_weighted_assortment",),
    "oracles.constrained_demand_calls": ("oracles.constrained_demand",),
    "lp.solve_calls": ("lp.solve_lp",),
    "lp.fw_calls": ("lp.maximize_concave",),
    "policies.sim_runs": ("policies.simulate_once",),
    "greedy.policy_action_calls": ("greedy.GreedyOneSidedPolicy.action",),
    "instances.demand_calls": ("instances.MNL.demand",),
    "instances.prob_calls": ("instances.MNL.prob",),
    "fullystatic.rounding_calls": ("fullystatic.independent_rounding",
                                   "fullystatic.dependent_rounding"),
}
# Rate -> (count, wrapped names whose whole duration is the denominator).
RATES = {
    "exact.fa_states_per_s": ("exact.fa_states", ("exact.opt_fully_adaptive",)),
    "exact.oa_states_per_s": ("exact.oa_states", ("exact.opt_one_sided_adaptive",)),
    "policies.sim_runs_per_s": ("policies.sim_runs", ("policies.simulate_once",)),
}


def _is_budgeted(model, theta, budget=None, ground=None) -> bool:
    """The budgeted MNL path of ``best_weighted_assortment``: an MNL model whose
    budget is smaller than its number of positive candidates."""
    if budget is None or not hasattr(model, "weights"):
        return False
    w = model.weights
    options = range(len(w)) if ground is None else ground
    return budget < sum(1 for j in options if w[j] > 0 and theta[j] > 0)


def _count_budgeted(counts, args, kwargs, result):
    counts["oracles.assortment_budgeted_calls"] += _is_budgeted(*args, **kwargs)


def _add(metric, of_result):
    def inspect(counts, args, kwargs, result):
        counts[metric] += of_result(result)
    return inspect


# Counts read from a call's inputs or result, by wrapped name.
INSPECT = {
    "exact.opt_fully_adaptive": _add("exact.fa_states", lambda r: r.states_expanded),
    "exact.opt_one_sided_adaptive": _add("exact.oa_states", lambda r: r.states_expanded),
    "lp.maximize_concave": _add("lp.fw_iterations", lambda r: r.iterations),
    "bounds.gap_report": _add("bounds.unavailable",
                              lambda r: sum(v is None for v in r.quantities.values())),
    "oracles.best_weighted_assortment": _count_budgeted,
}


class Tracer:
    """Installs the wrappers, keeps spans and per-name totals in memory."""

    def __init__(self):
        self.item = None
        self.spans = []                      # (name, start, end, parent index, item)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [[0.0, -1]]            # per open call: [child seconds, span index]
        self._undo = []

    def _wrap(self, fn, name):
        stack, spans, counts = self._stack, self.spans, self.counts
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        keep = name not in NO_SPAN
        inspect = INSPECT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if keep:
                    spans[frame[1]] = (name, start, end, parent[1], self.item)
            if inspect is not None:
                inspect(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("tsa.") and m]
        for short, names in FUNCTIONS:
            home = sys.modules[f"tsa.{short}"]
            for attr in names:
                fn = getattr(home, attr)
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        for short, cls_name, attrs in METHODS:
            cls = getattr(sys.modules[f"tsa.{short}"], cls_name)
            for attr in attrs:
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, f"{short}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        out = {name: 0 for name, _, _ in PER_LAYER}
        for metric, names in SELF_S.items():
            out[metric] = sum(self.self_s[n] for n in names)
        for metric, names in TOTAL_S.items():
            out[metric] = sum(self.total_s[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls[n] for n in names)
        out.update(self.counts)
        for metric, (count, names) in RATES.items():
            seconds = sum(self.total_s[n] for n in names)
            out[metric] = out[count] / seconds if seconds > 0 else 0.0
        return out

    def write_spans(self, path, t0: float) -> None:
        """One JSON array per span: [name, start_s, end_s, parent index, item]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, item]))
                fh.write("\n")
