"""Test-only reference for the adaptive DP: the top-down recursion with a dict
memo that ``tsa.exact._adaptive_dp`` computes layer by layer.  It visits the
same states and does the same arithmetic per state, so values, state counts
and first actions must agree exactly."""

from tsa.exact import DpValue
from tsa.instances import is_mnl
from tsa.oracles import _TOL as _THETA_TOL
from tsa.oracles import best_weighted_assortment, demand_table
from tsa.policies import PolicyAction


def recursive_adaptive_dp(instance, first) -> DpValue:
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
    models = [instance.model(*agent) for agent in agents]
    # Options a mover may show: an MNL agent's positive-weight ones, else all.
    usable = [[l for l in range(opp_count[a]) if not is_mnl(models[a]) or models[a].weights[l] > 0]
              for a in range(total)]
    # Responders: (slot offset, backlog mask, F table).
    responders = [(offsets[a], (1 << opp_count[a]) - 1,
                   demand_table(models[a], opp_count[a], budgets[a]))
                  for a in range(total) if a not in movers]

    memo = {}

    def agent_value(key: int, a: int):
        base = (key & ~slot_mask[a]) | (1 << done_bit[a])
        v_out = value(base)
        backlog = (key >> offsets[a]) & ((1 << opp_count[a]) - 1)
        theta = [0.0] * opp_count[a]
        for l in usable[a]:
            o = opp_global[a][l]
            if backlog >> l & 1:
                theta[l] = 1.0
            elif not key >> done_bit[o] & 1:
                th = value(base | (1 << (offsets[o] + local_id[a]))) - v_out
                if th > _THETA_TOL:
                    theta[l] = th
        res = best_weighted_assortment(models[a], theta, budgets[a])
        return v_out + res.value, res.assortment

    def value(key: int) -> float:
        if responders and key & movers_done == movers_done:
            val = 0.0
            for off, mask, F in responders:
                val += F[(key >> off) & mask]
            return val
        v = memo.get(key)
        if v is not None:
            return v
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
            best, action = cand, PolicyAction(agents[a], chosen)
    return DpValue(opt, len(memo), action)
