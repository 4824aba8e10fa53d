"""Test-only reference for OPT_FS: the enumeration ``tsa.exact.opt_fully_static``
made before it valued patterns from per-agent probability tables.  Each block
of ``_FS_BLOCK`` edge patterns is expanded into a boolean grid, the infeasible
patterns are set to -inf, and the rest are valued pair by pair through
``_choice_probs``.  The first maximum is kept, so values and edge lists must
agree exactly."""

import numpy as np

from tsa.errors import SizeRefusalError
from tsa.exact import DEFAULT_CAPS, SolveCaps
from tsa.instances import UNBOUNDED, Instance
from tsa.policies import _choice_probs

_FS_BLOCK = 1 << 12


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


def fs_reference(instance: Instance, caps: SolveCaps = DEFAULT_CAPS):
    """Exact OPT over mutual-display edge sets; returns (value, edge list)."""
    n, m = instance.n, instance.m
    nm = n * m
    if nm > caps.fs_max_edges:
        raise SizeRefusalError(f"fully static brute force refuses n*m={nm} > {caps.fs_max_edges}")
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
