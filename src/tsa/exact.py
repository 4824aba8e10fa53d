"""Exact optimal values for the four policy classes on small instances.

Fully adaptive and one-sided adaptive optima come from one dynamic program
over backlog profiles (states packed into int64 keys, valued layer by layer
with numpy); a one-sided adaptive policy is a fully adaptive one in which only
the initiating side moves.
One-sided static and fully static optima come from exhaustive, vectorized
enumeration.  The fully static one reads each agent's display as an option
mask of the edge pattern, keeps the patterns whose mask popcounts fit the
budgets, and looks the choice probabilities up in per-agent ``prob_table``s.
Every solver counts its states or enumerated patterns before it builds
anything, and refuses past a fixed limit instead of approximating.
The single-agent rules they apply (oracles, demand and choice tables, row
oracles) live in ``tsa.oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod
from typing import Optional

import numpy as np

from .errors import refuse_past
from .instances import UNBOUNDED, Instance
from .oracles import (_TOL, _agent_oracle, _budget_counts, best_weighted_assortment, demand_tables,
                      prob_table)
from .policies import PolicyAction, one_sided_values, pair_sum
from .util import check_deadline


@dataclass(frozen=True)
class SolveCaps:
    """No field: every solver refuses by the size of its own work.  Kept only
    because ``perfbench/items.py`` still passes one to ``gap_report``; it goes
    with that call."""


@dataclass
class DpValue:
    value: float
    states_expanded: int
    optimal_first_action: Optional[PolicyAction]


# ---------------------------------------------------------------------------
# Adaptive DP (fully adaptive, and one-sided adaptive as a side moving first)

_KEY_BITS = 63  # the widest key a non-negative int64 holds
_MAX_STATES = 1 << 24  # 8^8, the one-sided 8x6 DP: about 23 s and 0.85 GB on one Xeon core
# The static optima's assortment families or edge sets; 5x5 is 2^25 for both:
# OPT_OS about 0.5 s a side, OPT_FS about 3.3 s on one Xeon core.
_MAX_ENUMERATION = 1 << 25


# The one budget of kept plans, in predicted states (terminal ones included):
# a DP predicted to have at most this many keeps its plan, and the least
# recently used plans go until the kept ones predict at most this in all.
# Fully adaptive 5x5 (588,449 states) fits, with a 33.7 MB plan; at 57 bytes
# a predicted state or less, the kept plans stay under about 60 MB.
_PLAN_STATES = 1 << 20
_PLANS: dict = {}


@dataclass
class _Plan:
    """The part of an adaptive DP that no weight changes, for one shape.
    ``layers`` are the sorted keys of layers 0..movers-1 (the last layer is
    dropped once valued), ``states`` the count reported, ``count`` the
    predicted count it is budgeted by, and ``lookups`` maps
    (layer d, mover a) to the positions in layer d + 1 of a's moves from its
    rows (staying out, then each open choice), and (last layer, responder) to
    the responder's demand-table indices, in the narrowest unsigned dtypes."""
    layers: list
    states: int
    count: int
    lookups: dict


def _children(nxt, rows, own: int, done: int, kid, open_):
    """Positions in ``nxt`` of the rows' moves by one mover: staying out, then
    each open choice."""
    base = (rows & ~own) | done
    return np.searchsorted(nxt, base), np.searchsorted(nxt, (base[:, None] | kid)[open_])


def _forward_layers(movers, done, own, moves) -> list:
    """The sorted keys of the states with 0, 1, ... movers done.  Its own
    function, so the last layer's candidate keys are freed before valuing."""
    layers = [np.zeros(1, dtype=np.int64)]
    for _ in movers:
        keys, parts = layers[-1], []
        for a in movers:
            check_deadline()
            opp_done, kid, _ = moves[a]
            rows = keys[keys & done[a] == 0]
            base = (rows & ~own[a]) | done[a]
            parts += [base, (base[:, None] | kid)[(rows[:, None] & opp_done) == 0]]
        keys = np.concatenate(parts)
        del parts  # sort in place without the pieces
        # Stable sort: the default SIMD int64 sort maps about 0.25 MB more of numpy.
        keys.sort(kind="stable")
        layers.append(keys[np.concatenate(([True], keys[1:] != keys[:-1]))])
    return layers


def _adaptive_dp(instance: Instance, first) -> DpValue:
    """Value-to-go DP on packed (done agents, backlog profile) states, by layers.

    With ``first=None`` any unprocessed agent may move (fully adaptive).  With
    ``first`` a side, only that side moves; once all of it is done, responder j
    is worth F_j[backlog_j] (``demand_table``), and those terminal states are
    not counted.  Layer d holds the sorted int64 keys of the states with d
    movers done.  Which states are reachable does not depend on values, so a
    forward pass enumerates the layers; a backward pass then fills each layer
    from the next, one row oracle call per (layer, mover).  The root's first
    action comes from ``best_weighted_assortment``.

    The layers, the child positions and the state count depend only on the
    shape (n, m, ``first``, each mover's usable options), so they form a
    ``_Plan``.  A shape of at most ``_PLAN_STATES`` predicted states keeps its
    plan once a solve completes, within that budget of kept states, and later
    markets of that shape skip the forward pass and the ``searchsorted``
    calls; the masks are recomputed from the keys, and the valuation is the
    same.  A larger shape keeps nothing and frees each layer once valued."""
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
    refuse_past("adaptive DP", pos, _KEY_BITS, "-bit state key")
    # The states, terminal ones included, before any is built: each done mover
    # chose an undone opponent or none (fewer if an option is unusable).
    count = ((n + m - len(movers) + 2) ** len(movers) if first else
             sum(comb(n, a) * comb(m, b) * (m - b + 1) ** a * (n - a + 1) ** b
                 for a in range(n + 1) for b in range(m + 1)))
    refuse_past("adaptive DP", count, _MAX_STATES, "states")

    budgets = [instance.budget(*agent) for agent in agents]
    # Per mover: its usable options and row oracle, and over the usable
    # options the opponent's done flag, the bit the choice sets in the
    # opponent's backlog, and the own backlog bit (a match if set).
    oracles, moves = {}, {}
    for a in movers:
        oracles[a] = _agent_oracle(instance.model(*agents[a]), opp_count[a], budgets[a])
        usable = oracles[a][0]
        opps = [l + n if a < n else l for l in usable]
        moves[a] = (np.array([done[o] for o in opps], dtype=np.int64),
                    np.array([1 << (offsets[o] + agents[a][1]) for o in opps], dtype=np.int64),
                    np.array([own[a] and 1 << (offsets[a] + l) for l in usable], dtype=np.int64))

    shape = (n, m, first, tuple(tuple(oracles[a][0]) for a in movers))
    plan = _PLANS.get(shape)
    if plan is None:
        layers = _forward_layers(movers, done, own, moves)
        plan = _Plan(layers, sum(map(len, layers)) - (len(layers[-1]) if first else 0), count, {})
    layers, keep = plan.layers, count <= _PLAN_STATES

    def lookup(key, build):
        """``plan.lookups[key]``, else ``build()``'s arrays, stored if kept."""
        found = plan.lookups.get(key)
        if found is None:
            found = build()
            if keep:
                plan.lookups[key] = found = [p.astype(np.min_scalar_type(int(p.max(initial=0))))
                                             for p in found]
        return found

    if first is None:
        values = np.zeros(1)  # everyone done
    else:
        values, last = 0.0, len(movers)
        responders = [a for a in range(n + m) if a not in movers]
        for a, F in zip(responders, demand_tables(instance, first)):
            values = values + F[lookup((last, a),
                                       lambda: [(layers[last] & own[a]) >> offsets[a]])[0]]

    for d in range(len(movers) - 1, 0, -1):
        keys = layers[d]
        best = np.zeros(len(keys))
        for a in movers:
            check_deadline()
            opp_done, kid, match = moves[a]
            sel = np.flatnonzero(keys & done[a] == 0)
            rows = keys[sel]
            open_ = (rows[:, None] & opp_done) == 0
            out, kids = lookup((d, a), lambda: _children(layers[d + 1], rows, own[a], done[a],
                                                         kid, open_))
            v_out = values[out]
            matched = (rows[:, None] & match) != 0
            th = np.zeros(open_.shape)
            th[open_] = values[kids]
            del out, kids  # large DPs hold no positions through the oracle call
            th -= v_out[:, None]
            cand = v_out + oracles[a][1](np.where(matched, 1.0, th),
                                         matched | (open_ & (th > _TOL)))
            best[sel] = np.where(cand > best[sel], cand, best[sel])
        values = best
        if not keep:
            layers.pop()

    # Root (key 0): each mover's display is the oracle's on its usable
    # options' gains above 1e-12 (others at 0).  The best move wins; a later
    # agent wins only by more than 1e-12 for the first action.
    opt, best, action = 0.0, 0.0, None
    for a in movers:
        usable, kid = oracles[a][0], moves[a][1]
        out, kids = lookup((0, a), lambda: _children(layers[1], layers[0], own[a], done[a], kid,
                                                     np.ones((1, len(kid)), dtype=bool)))
        v_out = values[out[0]]
        gain = values[kids] - v_out
        theta = np.zeros(opp_count[a])
        theta[usable] = np.where(gain > _TOL, gain, 0.0)
        res = best_weighted_assortment(instance.model(*agents[a]), theta.tolist(), budgets[a])
        cand = v_out + res.value
        opt = max(opt, cand)
        if action is None or cand > best + _TOL:
            best, action = cand, PolicyAction(agents[a], res.assortment)
    if keep:  # the solve completed: keep the plan, without its last layer
        del layers[len(movers):]
        _PLANS.pop(shape, None)
        _PLANS[shape] = plan
        while sum(p.count for p in _PLANS.values()) > _PLAN_STATES:
            del _PLANS[next(iter(_PLANS))]
    return DpValue(float(opt), plan.states, action)


def opt_fully_adaptive(instance: Instance) -> DpValue:
    """Exact OPT over fully adaptive policies."""
    return _adaptive_dp(instance, None)


def opt_one_sided_adaptive(instance: Instance, side: str) -> DpValue:
    """Exact OPT over policies that adaptively process ``side`` first; each
    responder then sees its backlog (budget-constrained best subset if capped)."""
    return _adaptive_dp(instance, side)


# ---------------------------------------------------------------------------
# One-sided static enumeration


# Entries of the combination tensor ``opt_one_sided_static`` values at once
# (8 MB of float64).
_OS_BLOCK = 1 << 20


def opt_one_sided_static(instance: Instance, side: str) -> float:
    """Exact OPT over one-sided static policies initiating on ``side``: brute
    force over all assortment families, with exact backlog expectations,
    valued in blocks of at most ``_OS_BLOCK`` combinations.  Refuses more than
    ``_MAX_ENUMERATION`` families before any table is built."""
    resp_side = "S" if side == "C" else "C"
    ninit, nresp = instance.side_size(side), instance.side_size(resp_side)
    budgets = [instance.budget(side, i) for i in range(ninit)]
    # Initiator i's candidates: the sets of at most K_i responders.
    count = prod(sum(_budget_counts(nresp, k)) for k in budgets)
    refuse_past("one-sided static enumeration", count, _MAX_ENUMERATION, "assortment families")
    if ninit == 0 or nresp == 0:
        return 0.0

    probs = [prob_table(instance.model(side, i), nresp, k) for i, k in enumerate(budgets)]
    tables = demand_tables(instance, side)
    # Blocks over the shortest prefix of initiators whose remaining
    # combinations fit: the ones before initiator p take one candidate each,
    # and p's candidates go in slices of ``step``.
    sizes = [len(q) for q in probs]
    p = next(p for p in range(ninit) if prod(sizes[p + 1:]) <= _OS_BLOCK)
    step = _OS_BLOCK // prod(sizes[p + 1:])
    return float(max(
        one_sided_values(tables, [q[c:c + 1] for q, c in zip(probs, head)]
                         + [probs[p][lo:lo + step]] + probs[p + 1:]).max()
        for head in product(*map(range, sizes[:p])) for lo in range(0, sizes[p], step)))


# ---------------------------------------------------------------------------
# Fully static enumeration


# Patterns ``opt_fully_static`` values at once (a power of two): bounds its
# (n, m, patterns) buffers, and the deadline is polled once per block.
_FS_BLOCK = 1 << 12


def _fs_masks(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """Each agent's display under the edge patterns ``codes`` (bit i*m + j is
    edge (i, j)) as an option mask: customer i in row i, supplier j in row n + j."""
    rows = codes >> (m * np.arange(n))[:, None] & ((1 << m) - 1)
    cols = sum((row >> np.arange(m)[:, None] & 1) << i for i, row in enumerate(rows))
    return np.concatenate([rows, cols])


def opt_fully_static(instance: Instance):
    """Exact OPT over mutual-display edge sets; returns (value, edge list).

    Patterns are enumerated in blocks of ``_FS_BLOCK``, keeping the first
    maximum; the deadline is polled before each block.  Only the feasible
    patterns (popcounts of the agents' masks within their budgets) are valued:
    each agent's probabilities at its mask are gathered from its ``prob_table``
    into reused buffers and added by ``pair_sum``.  Refuses more than
    ``_MAX_ENUMERATION`` edge sets before any table is built."""
    n, m = instance.n, instance.m
    nm = n * m
    refuse_past("fully static enumeration", 1 << nm, _MAX_ENUMERATION, "edge sets")
    if nm == 0:
        return 0.0, []

    # Agents in mask-row order: customers, then suppliers; phi(j, S_t) is
    # tables[a][j, mask of S_t], from tables indexed by every mask and filled
    # within the budget (the budgets drop the other patterns).
    budgets = instance.k_customer + instance.k_supplier
    tables = [prob_table(model, width, k, by_mask=True).T.copy() for model, width, k in
              zip(instance.customer_models + instance.supplier_models, [m] * n + [n] * m, budgets)]
    capped = [a for a in range(n + m) if budgets[a] is not UNBOUNDED]
    # A block is its base code plus offsets 0..size-1 in lower bits, so an
    # agent's mask is the base's OR the offset's, and their popcounts add.
    size = min(_FS_BLOCK, 1 << nm)
    masks = _fs_masks(np.arange(size), n, m)
    counts = sum(masks[capped] >> b & 1 for b in range(max(n, m)))

    best_val, best = -np.inf, 0
    for lo in range(0, 1 << nm, size):
        check_deadline()
        base = _fs_masks(np.array([lo]), n, m)[:, 0]
        feasible = np.ones(size, dtype=bool)
        for a, count in zip(capped, counts):
            feasible &= count <= budgets[a] - int(base[a]).bit_count()
        idx = np.flatnonzero(feasible)
        if not len(idx):
            continue
        if lo == 0:
            # Buffers reused by every block (fresh ones would cost more in page
            # faults than the gathers), sized by block 0: its base adds no edge,
            # so no block has more feasible patterns.
            pc_buf, ps_buf = np.empty(nm * len(idx)), np.empty(n * len(idx))
        pc = pc_buf[:nm * len(idx)].reshape(n, m, -1)
        ps = ps_buf[:n * len(idx)].reshape(n, -1)
        # The masks are in range; "clip" writes to ``out`` without a buffered check.
        for i in range(n):
            np.take(tables[i], masks[i].take(idx) | base[i], axis=1, out=pc[i], mode="clip")
        for j in range(m):
            np.take(tables[n + j], masks[n + j].take(idx) | base[n + j], axis=1, out=ps, mode="clip")
            pc[:, j] *= ps
        vals = pair_sum(pc)
        top = int(vals.argmax())
        if vals[top] > best_val:
            best_val, best = vals[top], lo + int(idx[top])
    edges = [(e // m, e % m) for e in range(nm) if best >> e & 1]
    return float(best_val), edges
