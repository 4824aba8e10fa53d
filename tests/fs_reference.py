"""Test-only references for the fully static values.

``fs_reference`` is the enumeration ``tsa.exact.opt_fully_static`` made before
it valued patterns from per-agent probability tables.  Each block of
``_FS_BLOCK`` edge patterns is expanded into a boolean grid, the infeasible
patterns are set to -inf, and the rest are valued pair by pair through
``_choice_probs``.  The first maximum is kept, so values and edge lists must
agree exactly.

``_choice_probs`` is the rule ``tsa.policies.static_values`` followed before
it read each display as one mask: it renumbers (agent, display) keys a few
options at a time and calls ``model.prob`` once per distinct pair."""

import numpy as np

from tsa.instances import UNBOUNDED, Instance
from tsa.policies import pair_sum

_FS_BLOCK = 1 << 12


def _choice_probs(models, display: np.ndarray):
    """(table, row) for one side's displays display[t, a, :]: table[r, j] is
    phi_a(j, S) for the r-th distinct (agent a, display S), and row[t, a] is
    its row.  ``model.prob`` runs once per distinct pair."""
    batch, count, width = display.shape
    row = np.broadcast_to(np.arange(count), (batch, count))
    distinct = count
    room = max(row.size, 1 << 16)  # the largest key space tabulated at once
    lo = 0
    while lo < width:
        # Append the next options' bits to the row ids, as many as keep the
        # keys within ``room``, and renumber the keys that occur through a
        # table: no sort, and any number of options.
        step = min(width - lo, max(1, (room // max(distinct, 1)).bit_length() - 1))
        key = (row << step) | (display[:, :, lo:lo + step] @ (1 << np.arange(step)))
        seen = np.zeros(distinct << step, dtype=bool)
        seen[key] = True
        row = (np.cumsum(seen) - 1)[key]
        distinct = int(seen.sum())
        lo += step
    example = np.empty(distinct, dtype=np.int64)  # any (t, a) with that row
    example[row.ravel()] = np.arange(row.size)
    t, agents = np.divmod(example, count)
    table = np.zeros((distinct, width))
    for r, (a, flags) in enumerate(zip(agents.tolist(), display[t, agents].tolist())):
        shown = frozenset(j for j, on in enumerate(flags) if on)
        for j in shown:
            table[r, j] = models[a].prob(j, shown)
    return table, row


def static_values_reference(instance: Instance, xc, xs=None) -> np.ndarray:
    """``tsa.policies.static_values`` on ``_choice_probs``' tables: the same
    pairs, gathered by row and added by ``pair_sum``."""
    xc = np.asarray(xc, dtype=bool)
    xs = xc.transpose(0, 2, 1) if xs is None else np.asarray(xs, dtype=bool)
    pc, rc = _choice_probs(instance.customer_models, xc)
    ps, rs = _choice_probs(instance.supplier_models, xs)
    i, j = np.nonzero((xc & xs.transpose(0, 2, 1)).any(axis=0))
    return pair_sum(pc[rc.T[i], j[:, None]] * ps[rs.T[j], i[:, None]])


def _static_values(instance: Instance, grid) -> np.ndarray:
    """Expected matches of mutual displays grid[t, i, j], adding
    phi_i(j, S_i) * phi_j(i, C_j) one pair after another, in row-major order
    over the pairs shown in any pattern."""
    pc, rc = _choice_probs(instance.customer_models, grid)
    ps, rs = _choice_probs(instance.supplier_models, grid.transpose(0, 2, 1))
    values = np.zeros(len(grid))
    for i, j in np.argwhere(grid.any(axis=0)).tolist():
        values += pc[rc[:, i], j] * ps[rs[:, j], i]
    return values


def fs_reference(instance: Instance):
    """Exact OPT over mutual-display edge sets; returns (value, edge list)."""
    n, m = instance.n, instance.m
    nm = n * m
    if nm == 0:
        return 0.0, []

    best_val, best = -np.inf, 0
    for lo in range(0, 1 << nm, _FS_BLOCK):
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
        vals[feasible] = _static_values(instance, grid[feasible])
        top = int(vals.argmax())
        if vals[top] > best_val:
            best_val, best = vals[top], int(codes[top])
    edges = [(e // m, e % m) for e in range(nm) if best >> e & 1]
    return float(best_val), edges
