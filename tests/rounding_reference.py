"""Test-only reference for dependent rounding: the walk over a dict of tagged
vertices ``("r", i)`` / ``("c", j)`` that ``tsa.fullystatic.dependent_rounding``
does over index lists.  It finds the same path or cycle at every step, makes
the same draw and does the same arithmetic, so edge sets and generator states
must agree exactly."""

from typing import Optional, Sequence

import numpy as np

from tsa.instances import UNBOUNDED


def dependent_rounding(y: np.ndarray, rng, row_caps: Optional[Sequence] = None,
                       col_caps: Optional[Sequence] = None) -> frozenset:
    """Bipartite dependent rounding: marginals preserved exactly, per-vertex
    degrees never exceed the ceiling of their fractional degree (hence caps
    with feasible fractional input are hard), negatively correlated within
    each row and column."""
    y = np.array(y, dtype=float)
    n, m = y.shape
    eps = 1e-12
    if row_caps is not None:
        for i in range(n):
            if row_caps[i] is not UNBOUNDED and y[i].sum() > row_caps[i] + 1e-9:
                raise ValueError(f"fractional row {i} exceeds its cap")
    if col_caps is not None:
        for j in range(m):
            if col_caps[j] is not UNBOUNDED and y[:, j].sum() > col_caps[j] + 1e-9:
                raise ValueError(f"fractional column {j} exceeds its cap")

    def fractional_edges():
        return [(i, j) for i in range(n) for j in range(m) if eps < y[i, j] < 1.0 - eps]

    while True:
        frac = fractional_edges()
        if not frac:
            break
        adj = {}
        for (i, j) in frac:
            adj.setdefault(("r", i), []).append(("c", j))
            adj.setdefault(("c", j), []).append(("r", i))
        start = None
        for vtx, nbrs in sorted(adj.items()):
            if len(nbrs) == 1:
                start = vtx
                break
        if start is None:
            start = sorted(adj)[0]
        # Walk without reusing edges until stuck (maximal path) or a vertex repeats (cycle).
        path_vertices = [start]
        path_edges = []
        used = set()
        seen_at = {start: 0}
        cycle = None
        cur = start
        while True:
            nxt = None
            for cand in adj.get(cur, []):
                e = (cur, cand) if cur[0] == "r" else (cand, cur)
                key = (e[0][1], e[1][1])
                if key not in used:
                    nxt = cand
                    used.add(key)
                    break
            if nxt is None:
                break
            path_edges.append((cur, nxt))
            if nxt in seen_at:
                k = seen_at[nxt]
                cycle = path_edges[k:]
                break
            path_vertices.append(nxt)
            seen_at[nxt] = len(path_vertices) - 1
            cur = nxt
        chain = cycle if cycle is not None else path_edges
        eidx = []
        for (a, b) in chain:
            (i, j) = (a[1], b[1]) if a[0] == "r" else (b[1], a[1])
            eidx.append((i, j))
        A = eidx[0::2]
        B = eidx[1::2]
        up = min(min(1.0 - y[i, j] for (i, j) in A), min((y[i, j] for (i, j) in B), default=np.inf))
        down = min(min(y[i, j] for (i, j) in A), min((1.0 - y[i, j] for (i, j) in B), default=np.inf))
        if up <= eps and down <= eps:
            break
        if rng.random() < down / (up + down):
            delta_a, delta_b = up, -up
        else:
            delta_a, delta_b = -down, down
        for (i, j) in A:
            y[i, j] += delta_a
        for (i, j) in B:
            y[i, j] += delta_b
        y = np.clip(y, 0.0, 1.0)
        y[np.abs(y) < eps] = 0.0
        y[np.abs(y - 1.0) < eps] = 1.0

    return frozenset((i, j) for i in range(n) for j in range(m) if y[i, j] > 0.5)
