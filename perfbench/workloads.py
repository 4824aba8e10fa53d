"""Workload and metric tables of the benchmark.

This module imports neither numpy nor ``tsa``: the launcher reads it before
the set-up timer starts.  Each workload is a single process with one
closed-loop caller that sends its next item when the previous one returns.

A workload's instances are the instance seeds 0..universe-1 of each size, the
seeds ``tsa tables --seeds <universe>`` would use.  The run seed orders them.
Items run in cycles and a run ends only at a cycle boundary.  The table
workloads' cycle is their whole universe: a report's cost there depends on
whether UB_OA's Frank-Wolfe converges early (a 2x2 report takes 0.03 s or
0.35 s), so a run that drew its instances from the seed would measure the draw
more than the code.  Every seed runs the same instances in its own order.  The
10x10 and 12x12 items vary by about 5% between instances, so there a cycle is
one item and the seed picks which instances run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# One BLAS and OpenMP thread, set before numpy is first imported: numpy links
# threaded OpenBLAS and every item is single-threaded Python.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "gap_report" (tsa tables / tsa gaps) or "bounds" (tsa solve)
    sizes: Tuple[int, ...]       # n = m of the items in one round, in CLI order
    budget: Optional[int]        # two-way budget on both sides, or None
    universe: int                # instance seeds 0..universe-1 per size, each with a reference
    cycle: int                   # rounds per cycle; a run ends only at a cycle boundary
    nominal_cycle_s: float       # cycle time at the reference commit; sets the traced run's length
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("tables_mnl", "gap_report", (2, 3, 4), None, 14, 14, 10.2,
             "tsa tables --sizes 2,3,4 traffic: fully adaptive DP, UB_OA Frank-Wolfe and static "
             "enumeration dominate; the budgeted oracle never runs"),
    Workload("tables_budgeted", "gap_report", (2, 3, 4), 2, 6, 6, 9.6,
             "the same pipeline under two-way budgets of 2: budgeted MNL oracle in the DPs, "
             "budgeted demand tables and dependent rounding"),
    Workload("gaps_large", "gap_report", (10,), None, 24, 1, 17.5,
             "tsa gaps --sizes 10 traffic: every exact solver refuses, Monte Carlo of greedy and "
             "coin-toss is ~90% of the time"),
    Workload("bounds_lp", "bounds", (12,), None, 32, 1, 7.7,
             "tsa solve --what ub_oa,ub_fa at 12x12: the only workload where the simplex and "
             "Frank-Wolfe (lp layer) do most of the work"),
)}


# (name, unit, better[, bound]) -- the printed metrics.  BENCHMARK.json lists
# the same names and units; the smoke mode checks that both agree.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("exact.fa_self_s", "s", "lower"),
    ("exact.fa_states", "count", "lower"),
    ("exact.fa_states_per_s", "1/s", "higher"),
    ("exact.oa_self_s", "s", "lower"),
    ("exact.oa_states", "count", "lower"),
    ("exact.oa_states_per_s", "1/s", "higher"),
    ("exact.static_self_s", "s", "lower"),
    ("oracles.assortment_calls", "count", "lower"),
    ("oracles.assortment_budgeted_calls", "count", "lower"),
    ("oracles.assortment_self_s", "s", "lower"),
    ("oracles.constrained_demand_calls", "count", "lower"),
    ("oracles.constrained_demand_self_s", "s", "lower"),
    ("lp.solve_calls", "count", "lower"),
    ("lp.solve_self_s", "s", "lower"),
    ("lp.fw_calls", "count", "lower"),
    ("lp.fw_iterations", "count", "lower"),
    ("lp.fw_self_s", "s", "lower"),
    ("bounds.ub_oa_s", "s", "lower"),
    ("bounds.ub_fa_s", "s", "lower"),
    ("bounds.relaxation_s", "s", "lower"),
    ("bounds.gap_report_self_s", "s", "lower"),
    ("bounds.unavailable", "count", "lower"),
    ("policies.sim_runs", "count", "lower"),
    ("policies.sim_self_s", "s", "lower"),
    ("policies.sim_runs_per_s", "1/s", "higher"),
    ("policies.exact_eval_self_s", "s", "lower"),
    ("greedy.policy_action_calls", "count", "lower"),
    ("greedy.policy_action_self_s", "s", "lower"),
    ("greedy.exact_value_self_s", "s", "lower"),
    ("greedy.selector_self_s", "s", "lower"),
    ("greedy.cointoss_self_s", "s", "lower"),
    ("instances.demand_calls", "count", "lower"),
    ("instances.demand_self_s", "s", "lower"),
    ("instances.prob_calls", "count", "lower"),
    ("instances.prob_self_s", "s", "lower"),
    ("fullystatic.approx_self_s", "s", "lower"),
    ("fullystatic.lowlow_lp_self_s", "s", "lower"),
    ("fullystatic.rounding_calls", "count", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Counts that two traced runs of one commit, seed and length must repeat
# exactly; a difference is a benchmark failure, not noise.
EXACT_REPEAT = ("exact.fa_states", "exact.oa_states", "lp.fw_iterations", "lp.solve_calls",
                "policies.sim_runs", "oracles.assortment_calls")
