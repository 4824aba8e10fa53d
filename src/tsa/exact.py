"""Exact optimal values for the four policy classes on small instances.

Fully adaptive and one-sided adaptive optima come from one dynamic program
over backlog profiles (states packed into integers); a one-sided adaptive
policy is a fully adaptive one in which only the initiating side moves.
One-sided static and fully static optima come from exhaustive, vectorized
enumeration.  Every solver refuses instances above its size cap instead of
approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import SizeRefusalError
from .instances import (UNBOUNDED, Instance, demand_table, is_mnl, mask_of,
                        prob_table)
from .oracles import mnl_best
from .policies import PolicyAction, one_sided_values, static_values


@dataclass(frozen=True)
class SolveCaps:
    """Hard size caps for the exact solvers (configurable, safe defaults)."""

    fa_max_agents: int = 8
    oa_max_side: int = 8
    os_max_side: int = 4
    fs_max_edges: int = 20


DEFAULT_CAPS = SolveCaps()


@dataclass
class DpValue:
    value: float
    states_expanded: int
    optimal_first_action: Optional[PolicyAction]


_THETA_TOL = 1e-12


def _budget_masks(count: int, budget) -> list:
    """All assortment bitmasks over ``count`` options with |S| <= budget, ordered
    by cardinality then lexicographically by option ids."""
    kmax = count if budget is UNBOUNDED else min(budget, count)
    masks = [0]
    for k in range(1, kmax + 1):
        for combo in combinations(range(count), k):
            masks.append(mask_of(combo))
    return masks


def _enumeration_oracle(phi: np.ndarray, masks, items, budget):
    """Max over assortment masks of sum_j phi[mask, j] * theta_j for
    (theta, weight, option) triples; returns (value, chosen triples).  The
    budget is already applied by ``masks``."""
    theta = [0.0] * phi.shape[1]
    for th, _, j in items:
        theta[j] = th
    best_val, best_mask = 0.0, 0
    for mask in masks:
        row = phi[mask]
        val = 0.0
        mm = mask
        while mm:
            low = mm & -mm
            j = low.bit_length() - 1
            val += row[j] * theta[j]
            mm ^= low
        if val > best_val + _THETA_TOL:
            best_val, best_mask = val, mask
    return best_val, [t for t in items if best_mask >> t[2] & 1]


def _agent_oracle(model, n_opts: int, budget):
    """(weights, usable options, oracle) for one agent: an MNL agent skips its
    zero-weight options and runs ``mnl_best``; any other model enumerates its
    budget-feasible assortments.  The oracle maps (triples, budget) to
    (value, chosen triples)."""
    if is_mnl(model):
        w = model.weights
        return w, [j for j in range(n_opts) if w[j] > 0.0], mnl_best
    oracle = partial(_enumeration_oracle, prob_table(model, n_opts), _budget_masks(n_opts, budget))
    return [0.0] * n_opts, list(range(n_opts)), oracle


# ---------------------------------------------------------------------------
# Adaptive DP (fully adaptive, and one-sided adaptive as a side moving first)


def _adaptive_dp(instance: Instance, first, deadline) -> DpValue:
    """Value-to-go recursion on packed (done agents, backlog profile) states.

    With ``first=None`` any unprocessed agent may move (fully adaptive).  With
    ``first`` a side, only that side moves; once all of it is done, responder j
    is worth F_j[backlog_j] (``demand_table``), and those terminal states are
    not memoized."""
    n, m = instance.n, instance.m
    if n == 0 or m == 0:
        return DpValue(0.0, 0, None)
    total = n + m

    # Agent layout: 0..n-1 customers, n..n+m-1 suppliers.  Each agent owns a
    # slot of (opp+1) bits: opp backlog bits plus a done flag on top.
    opp_count = [m] * n + [n] * m
    offsets, pos = [], 0
    for a in range(total):
        offsets.append(pos)
        pos += opp_count[a] + 1
    done_bit = [offsets[a] + opp_count[a] for a in range(total)]
    slot_mask = [((1 << (opp_count[a] + 1)) - 1) << offsets[a] for a in range(total)]
    opp_global = [[n + l for l in range(m)] if a < n else list(range(n)) for a in range(total)]
    agents = [("C", i) for i in range(n)] + [("S", j) for j in range(m)]
    local_id = [idx for _, idx in agents]  # index within own side
    budgets = [instance.budget(*agent) for agent in agents]
    movers = [a for a in range(total) if first in (None, agents[a][0])]
    movers_done = sum(1 << done_bit[a] for a in movers)
    oracles = [_agent_oracle(instance.model(*agents[a]), opp_count[a], budgets[a])
               if a in movers else None for a in range(total)]
    # Responders: (slot offset, backlog mask, F table).
    responders = [(offsets[a], (1 << opp_count[a]) - 1,
                   demand_table(instance.model(*agents[a]), opp_count[a], budgets[a]))
                  for a in range(total) if a not in movers]

    memo = {}
    counter = [0]

    def agent_value(key: int, a: int):
        base = (key & ~slot_mask[a]) | (1 << done_bit[a])
        v_out = value(base)
        backlog = (key >> offsets[a]) & ((1 << opp_count[a]) - 1)
        w, usable, oracle = oracles[a]
        items = []
        for l in usable:
            o = opp_global[a][l]
            if backlog >> l & 1:
                items.append((1.0, w[l], l))
            elif not key >> done_bit[o] & 1:
                th = value(base | (1 << (offsets[o] + local_id[a]))) - v_out
                if th > _THETA_TOL:
                    items.append((th, w[l], l))
        val, chosen = oracle(items, budgets[a])
        return v_out + val, chosen

    def value(key: int) -> float:
        if responders and key & movers_done == movers_done:
            val = 0.0
            for off, mask, F in responders:
                val += F[(key >> off) & mask]
            return val
        v = memo.get(key)
        if v is not None:
            return v
        counter[0] += 1
        if deadline is not None and counter[0] % 4096 == 0:
            deadline.check()
        best = 0.0
        for a in movers:
            if key >> done_bit[a] & 1:
                continue
            cand = agent_value(key, a)[0]
            if cand > best:
                best = cand
        memo[key] = best
        return best

    opt = value(0)
    # First action: the best root move; a later agent wins only by more than 1e-12.
    best, action = 0.0, None
    for a in movers:
        cand, chosen = agent_value(0, a)
        if action is None or cand > best + 1e-12:
            best, action = cand, PolicyAction(agents[a], frozenset(j for _, _, j in chosen))
    return DpValue(opt, len(memo), action)


def opt_fully_adaptive(instance: Instance, caps: SolveCaps = DEFAULT_CAPS,
                       deadline=None) -> DpValue:
    """Exact OPT over fully adaptive policies."""
    total = instance.n + instance.m
    if total > caps.fa_max_agents:
        raise SizeRefusalError(f"fully adaptive DP refuses n+m={total} > {caps.fa_max_agents}")
    return _adaptive_dp(instance, None, deadline)


def opt_one_sided_adaptive(instance: Instance, side: str,
                           caps: SolveCaps = DEFAULT_CAPS, deadline=None) -> DpValue:
    """Exact OPT over policies that adaptively process ``side`` first; each
    responder then sees its backlog (budget-constrained best subset if capped)."""
    ninit = instance.side_size(side)
    if ninit > caps.oa_max_side:
        raise SizeRefusalError(f"one-sided adaptive DP refuses side size {ninit} > {caps.oa_max_side}")
    if instance.side_size("S" if side == "C" else "C") > 16 and \
            not all(is_mnl(instance.model(side, i)) for i in range(ninit)):
        raise SizeRefusalError("assortment enumeration refuses responding side > 16 for non-MNL models")
    return _adaptive_dp(instance, side, deadline)


# ---------------------------------------------------------------------------
# One-sided static enumeration


def opt_one_sided_static(instance: Instance, side: str,
                         caps: SolveCaps = DEFAULT_CAPS) -> float:
    """Exact OPT over one-sided static policies initiating on ``side``: brute
    force over all assortment families, with exact backlog expectations."""
    ninit = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    nresp = instance.side_size(resp_side)
    if max(instance.n, instance.m) > caps.os_max_side:
        raise SizeRefusalError(
            f"one-sided static enumeration refuses sides ({instance.n},{instance.m}) > {caps.os_max_side}")
    if ninit == 0 or nresp == 0:
        return 0.0

    probs = [prob_table(instance.model(side, i), nresp)[_budget_masks(nresp, instance.budget(side, i))]
             for i in range(ninit)]
    return float(one_sided_values(instance, side, probs).max())


# ---------------------------------------------------------------------------
# Fully static enumeration


def opt_fully_static(instance: Instance, caps: SolveCaps = DEFAULT_CAPS):
    """Exact OPT over mutual-display edge sets; returns (value, edge list)."""
    n, m = instance.n, instance.m
    nm = n * m
    if nm > caps.fs_max_edges:
        raise SizeRefusalError(f"fully static brute force refuses n*m={nm} > {caps.fs_max_edges}")
    if nm == 0:
        return 0.0, []

    patterns = 1 << nm
    grid = ((np.arange(patterns)[:, None] >> np.arange(nm)) & 1).astype(bool)
    grid = grid.reshape(patterns, n, m)

    feasible = np.ones(patterns, dtype=bool)
    for i, k in enumerate(instance.k_customer):
        if k is not UNBOUNDED:
            feasible &= grid[:, i, :].sum(axis=1) <= k
    for j, k in enumerate(instance.k_supplier):
        if k is not UNBOUNDED:
            feasible &= grid[:, :, j].sum(axis=1) <= k

    vals = np.full(patterns, -np.inf)
    vals[feasible] = static_values(instance, grid[feasible])
    best = int(vals.argmax())
    edges = [(e // m, e % m) for e in range(nm) if best >> e & 1]
    return float(vals[best]), edges
