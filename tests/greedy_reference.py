"""Test-only reference for greedy's exact value: the recursion over the
initiating side's choice tree that ``tsa.greedy.exact_greedy_value`` computes
in blocks of histories.  It values each history with one scalar oracle call
and sums the responders' demand at the leaves, so the two agree up to the
order of floating-point sums."""

from typing import Optional, Sequence

from tsa.errors import SizeRefusalError
from tsa.greedy import _MAX_HISTORIES
from tsa.instances import Instance
from tsa.oracles import best_weighted_assortment, demand_table
from tsa.util import check_deadline


def recursive_greedy_value(instance: Instance, side: str, order: Optional[Sequence[int]] = None) -> float:
    """Exact expected matches of greedy on ``side`` by expanding the initiating
    side's choice tree; responders contribute their backlog demand in closed form.
    The deadline is polled once per state valued.  Refused, like the block
    walk, when the tree's predicted histories, one per node above the leaves,
    exceed ``_MAX_HISTORIES``."""
    ninit = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    nresp = instance.side_size(resp_side)
    # Depth t of the tree has at most (nresp + 1)^t nodes: each earlier
    # initiator picked one of nresp responders or none.
    histories = sum((nresp + 1) ** t for t in range(ninit))
    if histories > _MAX_HISTORIES:
        raise SizeRefusalError(f"exact greedy evaluation refuses {histories} histories > {_MAX_HISTORIES}")
    if ninit == 0 or nresp == 0:
        return 0.0
    order = list(order) if order is not None else list(range(ninit))
    if sorted(order) != list(range(ninit)):
        raise ValueError("order must permute the initiating side")

    F = [demand_table(instance.model(resp_side, j), ninit, instance.budget(resp_side, j))
         for j in range(nresp)]
    models = [instance.model(side, i) for i in range(ninit)]
    budgets = [instance.budget(side, i) for i in range(ninit)]

    # (t, masks) fixes the whole history, the responder each earlier
    # initiator picked, so no state is reached twice and nothing is memoized.
    def value(t: int, masks: tuple) -> float:
        if t == ninit:
            return sum(F[j][masks[j]] for j in range(nresp))
        check_deadline()
        i = order[t]
        bit = 1 << i
        theta = [max(F[j][masks[j] | bit] - F[j][masks[j]], 0.0) for j in range(nresp)]
        res = best_weighted_assortment(models[i], theta, budgets[i])
        s = res.assortment
        out_p = 1.0
        total = 0.0
        for j in sorted(s):
            p = models[i].prob(j, s)
            out_p -= p
            if p > 0.0:
                grown = list(masks)
                grown[j] |= bit
                total += p * value(t + 1, tuple(grown))
        if out_p > 1e-15:
            total += out_p * value(t + 1, masks)
        return total

    # Dropping the name breaks the closure's reference to itself, so what it
    # holds is freed on return rather than by the cyclic collector.
    result = value(0, tuple([0] * nresp))
    del value
    return result
