"""Exact optimal values for the four policy classes on small instances.

Fully adaptive and one-sided adaptive optima come from one dynamic program
over backlog profiles (states packed into int64 keys, valued layer by layer
with numpy); a one-sided adaptive policy is a fully adaptive one in which only
the initiating side moves.
One-sided static and fully static optima come from exhaustive, vectorized
enumeration.  Every solver refuses instances above its size cap instead of
approximating.  The single-agent rules they apply (oracles, demand and choice
tables, row oracles) live in ``tsa.oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeRefusalError
from .instances import UNBOUNDED, Instance
from .oracles import (_TOL, _agent_oracle, _budget_masks, best_weighted_assortment,
                      demand_table, prob_table)
from .policies import PolicyAction, one_sided_values, static_values
from .util import check_deadline


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


# ---------------------------------------------------------------------------
# Adaptive DP (fully adaptive, and one-sided adaptive as a side moving first)

_KEY_BITS = 63  # the widest key a non-negative int64 holds


def _adaptive_dp(instance: Instance, first) -> DpValue:
    """Value-to-go DP on packed (done agents, backlog profile) states, by layers.

    With ``first=None`` any unprocessed agent may move (fully adaptive).  With
    ``first`` a side, only that side moves; once all of it is done, responder j
    is worth F_j[backlog_j] (``demand_table``), and those terminal states are
    not counted.  Layer d holds the sorted int64 keys of the states with d
    movers done.  Which states are reachable does not depend on values, so a
    forward pass enumerates the layers; a backward pass then fills each layer
    from the next, one row oracle call per (layer, mover), and frees the next.
    The root's first action comes from ``best_weighted_assortment``."""
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
    # Per mover: its usable options and row oracle, and over the usable
    # options the opponent's done flag, the bit the choice sets in the
    # opponent's backlog, and the own backlog bit (a match if set).
    plans = {}
    for a in movers:
        usable, rows_oracle = _agent_oracle(instance.model(*agents[a]), opp_count[a], budgets[a])
        opps = [l + n if a < n else l for l in usable]
        plans[a] = (usable, rows_oracle, np.array([done[o] for o in opps], dtype=np.int64),
                    np.array([1 << (offsets[o] + agents[a][1]) for o in opps], dtype=np.int64),
                    np.array([own[a] and 1 << (offsets[a] + l) for l in usable], dtype=np.int64))

    layers = [np.zeros(1, dtype=np.int64)]
    for _ in movers:
        keys, parts = layers[-1], []
        for a in movers:
            check_deadline()
            _, _, opp_done, kid, _ = plans[a]
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
            check_deadline()
            _, rows_oracle, opp_done, kid, match = plans[a]
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
                                       matched | (open_ & (th > _TOL)))
            best[sel] = np.where(cand > best[sel], cand, best[sel])
        values = best
        layers.pop()

    # Root (key 0): each mover's display is the oracle's on its usable
    # options' gains above 1e-12 (others at 0).  The best move wins; a later
    # agent wins only by more than 1e-12 for the first action.
    nxt = layers[1]
    opt, best, action = 0.0, 0.0, None
    for a in movers:
        usable, _, _, kid, _ = plans[a]
        v_out = values[np.searchsorted(nxt, done[a])]
        gain = values[np.searchsorted(nxt, done[a] | kid)] - v_out
        theta = np.zeros(opp_count[a])
        theta[usable] = np.where(gain > _TOL, gain, 0.0)
        res = best_weighted_assortment(instance.model(*agents[a]), theta.tolist(), budgets[a])
        cand = v_out + res.value
        opt = max(opt, cand)
        if action is None or cand > best + _TOL:
            best, action = cand, PolicyAction(agents[a], res.assortment)
    return DpValue(float(opt), states, action)


def opt_fully_adaptive(instance: Instance, caps: SolveCaps = DEFAULT_CAPS) -> DpValue:
    """Exact OPT over fully adaptive policies."""
    total = instance.n + instance.m
    if total > caps.fa_max_agents:
        raise SizeRefusalError(f"fully adaptive DP refuses n+m={total} > {caps.fa_max_agents}")
    return _adaptive_dp(instance, None)


def opt_one_sided_adaptive(instance: Instance, side: str,
                           caps: SolveCaps = DEFAULT_CAPS) -> DpValue:
    """Exact OPT over policies that adaptively process ``side`` first; each
    responder then sees its backlog (budget-constrained best subset if capped)."""
    ninit = instance.side_size(side)
    if ninit > caps.oa_max_side:
        raise SizeRefusalError(f"one-sided adaptive DP refuses side size {ninit} > {caps.oa_max_side}")
    return _adaptive_dp(instance, side)


# ---------------------------------------------------------------------------
# One-sided static enumeration


# Entries of the combination tensor ``opt_one_sided_static`` values at once
# (8 MB of float64); the first initiator's candidates are blocked to fit.
_OS_BLOCK = 1 << 20


def opt_one_sided_static(instance: Instance, side: str,
                         caps: SolveCaps = DEFAULT_CAPS) -> float:
    """Exact OPT over one-sided static policies initiating on ``side``: brute
    force over all assortment families, with exact backlog expectations,
    valued in blocks of about ``_OS_BLOCK`` combinations."""
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
    step = max(1, _OS_BLOCK // int(np.prod([len(q) for q in probs[1:]])))
    return float(max(one_sided_values(instance, side, [probs[0][lo:lo + step]] + probs[1:]).max()
                     for lo in range(0, len(probs[0]), step)))


# ---------------------------------------------------------------------------
# Fully static enumeration


# Patterns ``opt_fully_static`` values at once: bounds its (patterns, n, m)
# temporaries, and the deadline is polled once per block.
_FS_BLOCK = 1 << 12


def opt_fully_static(instance: Instance, caps: SolveCaps = DEFAULT_CAPS):
    """Exact OPT over mutual-display edge sets; returns (value, edge list).
    Patterns are valued in blocks of ``_FS_BLOCK``, keeping the first maximum;
    the deadline is polled before each block."""
    n, m = instance.n, instance.m
    nm = n * m
    if nm > caps.fs_max_edges:
        raise SizeRefusalError(f"fully static brute force refuses n*m={nm} > {caps.fs_max_edges}")
    if nm == 0:
        return 0.0, []

    best_val, best = -np.inf, 0
    for lo in range(0, 1 << nm, _FS_BLOCK):
        check_deadline()
        codes = np.arange(lo, min(lo + _FS_BLOCK, 1 << nm))
        grid = ((codes[:, None] >> np.arange(nm)) & 1).astype(bool).reshape(-1, n, m)
        feasible = np.ones(len(codes), dtype=bool)
        for i, k in enumerate(instance.k_customer):
            if k is not UNBOUNDED:
                feasible &= grid[:, i, :].sum(axis=1) <= k
        for j, k in enumerate(instance.k_supplier):
            if k is not UNBOUNDED:
                feasible &= grid[:, :, j].sum(axis=1) <= k
        vals = np.full(len(codes), -np.inf)
        vals[feasible] = static_values(instance, grid[feasible])
        top = int(vals.argmax())
        if vals[top] > best_val:
            best_val, best = vals[top], int(codes[top])
    edges = [(e // m, e % m) for e in range(nm) if best >> e & 1]
    return float(best_val), edges
