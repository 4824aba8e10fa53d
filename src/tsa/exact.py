"""Exact optimal values for the four policy classes on small instances.

Fully adaptive and one-sided adaptive optima come from one dynamic program
over backlog profiles (states packed into int64 keys, valued layer by layer
with numpy); a one-sided adaptive policy is a fully adaptive one in which only
the initiating side moves.
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
    """(weights, usable options, oracle, row oracle) for one agent: an MNL
    agent skips its zero-weight options and runs ``mnl_best``; any other model
    enumerates its budget-feasible assortments.  The oracle maps (triples,
    budget) to (value, chosen triples); the row oracle maps (theta, item)
    arrays over the usable options to the oracle's value on each row, bit for
    bit."""
    if is_mnl(model):
        w = model.weights
        usable = [j for j in range(n_opts) if w[j] > 0.0]
        return w, usable, mnl_best, partial(_mnl_rows, np.array([w[j] for j in usable]), budget)
    w, usable = [0.0] * n_opts, list(range(n_opts))
    oracle = partial(_enumeration_oracle, prob_table(model, n_opts), _budget_masks(n_opts, budget))
    return w, usable, oracle, partial(_scalar_rows, oracle, [(w[l], l) for l in usable], budget)


def _scalar_rows(oracle, options, budget, theta, item):
    """The scalar oracle on each row's (theta, weight, option) triples."""
    return np.array([oracle([(t, *o) for t, o, i in zip(ts, options, its) if i], budget)[0]
                     for ts, its in zip(theta.tolist(), item.tolist())])


def _mnl_rows(w, budget, theta, item):
    """``mnl_best`` on every row at once: the prefix rule on rows with at most
    ``budget`` items, Dinkelbach on the rest."""
    if budget is UNBOUNDED or budget >= theta.shape[1]:
        return _mnl_prefix_rows(w, theta, item)
    few = item.sum(axis=1) <= budget
    val = np.empty(len(theta))
    val[few] = _mnl_prefix_rows(w, theta[few], item[few])
    val[~few] = _dinkelbach_rows(w, budget, theta[~few], item[~few])
    return val


# The two rules below repeat ``mnl_best``'s floating-point operations in its
# order, so the DP's values equal the scalar oracle's bit for bit.


def _mnl_prefix_rows(w, theta, item):
    """The theta-ordered prefixes: a stable descending sort (ties keep option
    order, non-items last at -inf), sums in that order with the denominator
    from 1.0, and a longer prefix winning only by more than 1e-12."""
    theta = np.where(item, theta, -np.inf)
    order = np.argsort(-theta, axis=1, kind="stable")
    theta, w = np.take_along_axis(theta, order, 1), w[order]
    best, num, den = np.zeros(len(theta)), np.zeros(len(theta)), np.ones(len(theta))
    for k in range(theta.shape[1]):
        num = num + theta[:, k] * w[:, k]
        den = den + w[:, k]
        val = num / den  # -inf once past the items
        best = np.where(val > best + _THETA_TOL, val, best)
    return best


def _dinkelbach_rows(w, budget, theta, item):
    """Under a binding budget: from z = 0, keep the ``budget`` items of
    theta > z with the largest w (theta - z) (stable), and move z to their
    ratio while it rises by more than 1e-12."""
    z, live = np.zeros(len(theta)), np.arange(len(theta))
    while live.size:
        t, zl = theta[live], z[live, None]
        key = np.where(item[live] & (t > zl), w * (zl - t), np.inf)
        top = np.argsort(key, axis=1, kind="stable")[:, :budget]
        ok = np.take_along_axis(key, top, 1) < np.inf
        tw = np.where(ok, np.take_along_axis(t, top, 1) * w[top], 0.0)
        wt = np.where(ok, w[top], 0.0)
        num, den = np.zeros(len(live)), np.zeros(len(live))
        for k in range(top.shape[1]):
            num, den = num + tw[:, k], den + wt[:, k]
        ratio = num / (1.0 + den)
        up = ratio > zl[:, 0] + _THETA_TOL
        z[live[up]] = ratio[up]
        live = live[up]
    return z


# ---------------------------------------------------------------------------
# Adaptive DP (fully adaptive, and one-sided adaptive as a side moving first)

_KEY_BITS = 63  # the widest key a non-negative int64 holds


def _adaptive_dp(instance: Instance, first, deadline) -> DpValue:
    """Value-to-go DP on packed (done agents, backlog profile) states, by layers.

    With ``first=None`` any unprocessed agent may move (fully adaptive).  With
    ``first`` a side, only that side moves; once all of it is done, responder j
    is worth F_j[backlog_j] (``demand_table``), and those terminal states are
    not counted.  Layer d holds the sorted int64 keys of the states with d
    movers done.  Which states are reachable does not depend on values, so a
    forward pass enumerates the layers; a backward pass then fills each layer
    from the next, one row oracle call per (layer, mover), and frees the next.
    The root's first action comes from the scalar oracles."""
    n, m = instance.n, instance.m
    if n == 0 or m == 0:
        return DpValue(0.0, 0, None)
    agents = [("C", i) for i in range(n)] + [("S", j) for j in range(m)]
    opp_count = [m] * n + [n] * m
    movers = [a for a in range(n + m) if first in (None, agents[a][0])]

    # Key layout, agent by agent: its backlog bits (bit l: opponent l chose
    # it) then its done flag.  One-sided movers never gain a backlog and
    # responders never move, so those bits are left out.
    offsets, done, own, pos = [], [], [], 0
    for a in range(n + m):
        offsets.append(pos)
        if first is None or a not in movers:
            own.append(((1 << opp_count[a]) - 1) << pos)
            pos += opp_count[a]
        else:
            own.append(0)
        done.append(1 << pos if a in movers else 0)
        pos += a in movers
    if pos > _KEY_BITS:
        raise SizeRefusalError(f"adaptive DP refuses a {pos}-bit state key > {_KEY_BITS} bits")

    budgets = [instance.budget(*agent) for agent in agents]
    # Per mover: its scalar oracle (w, usable, oracle), and its row oracle with,
    # over the usable options, the opponent's done flag, the bit the choice
    # sets in the opponent's backlog, and the own backlog bit (a match if set).
    scalar, plans = {}, {}
    for a in movers:
        w, usable, oracle, rows_oracle = _agent_oracle(instance.model(*agents[a]), opp_count[a],
                                                       budgets[a])
        opps = [l + n if a < n else l for l in usable]
        scalar[a] = (w, usable, oracle)
        plans[a] = (rows_oracle, np.array([done[o] for o in opps], dtype=np.int64),
                    np.array([1 << (offsets[o] + agents[a][1]) for o in opps], dtype=np.int64),
                    np.array([own[a] and 1 << (offsets[a] + l) for l in usable], dtype=np.int64))

    layers = [np.zeros(1, dtype=np.int64)]
    for _ in movers:
        keys, parts = layers[-1], []
        for a in movers:
            if deadline is not None:
                deadline.check()
            _, opp_done, kid, _ = plans[a]
            rows = keys[keys & done[a] == 0]
            base = (rows & ~own[a]) | done[a]
            parts += [base, (base[:, None] | kid)[(rows[:, None] & opp_done) == 0]]
        keys = np.concatenate(parts)
        del parts  # sort in place without the pieces
        # Stable sort: the default SIMD int64 sort maps about 0.25 MB more of numpy.
        keys.sort(kind="stable")
        layers.append(keys[np.concatenate(([True], keys[1:] != keys[:-1]))])
    states = sum(map(len, layers))

    if first is None:
        values = np.zeros(1)  # everyone done
    else:
        keys, values = layers[-1], 0.0
        states -= len(keys)
        for a in range(n + m):
            if a not in movers:
                F = demand_table(instance.model(*agents[a]), opp_count[a], budgets[a])
                values = values + F[(keys & own[a]) >> offsets[a]]

    for d in range(len(movers) - 1, 0, -1):
        keys, nxt = layers[d], layers[d + 1]
        best = np.zeros(len(keys))
        for a in movers:
            if deadline is not None:
                deadline.check()
            rows_oracle, opp_done, kid, match = plans[a]
            sel = np.flatnonzero(keys & done[a] == 0)
            rows = keys[sel]
            base = (rows & ~own[a]) | done[a]
            v_out = values[np.searchsorted(nxt, base)]
            matched = (rows[:, None] & match) != 0
            open_ = (rows[:, None] & opp_done) == 0
            th = np.zeros(open_.shape)
            th[open_] = values[np.searchsorted(nxt, (base[:, None] | kid)[open_])]
            th -= v_out[:, None]
            cand = v_out + rows_oracle(np.where(matched, 1.0, th),
                                       matched | (open_ & (th > _THETA_TOL)))
            best[sel] = np.where(cand > best[sel], cand, best[sel])
        values = best
        layers.pop()

    # Root (key 0): the best move wins; a later agent wins only by more than
    # 1e-12 for the first action.
    nxt = layers[1]
    opt, best, action = 0.0, 0.0, None
    for a in movers:
        w, usable, oracle = scalar[a]
        v_out = values[np.searchsorted(nxt, done[a])]
        items = []
        for l, bit in zip(usable, plans[a][2].tolist()):
            th = values[np.searchsorted(nxt, done[a] | bit)] - v_out
            if th > _THETA_TOL:
                items.append((th, w[l], l))
        val, chosen = oracle(items, budgets[a])
        cand = v_out + val
        opt = max(opt, cand)
        if action is None or cand > best + 1e-12:
            best, action = cand, PolicyAction(agents[a], frozenset(j for _, _, j in chosen))
    return DpValue(float(opt), states, action)


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
