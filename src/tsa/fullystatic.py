"""Constant-factor approximation for the fully static MNL problem.

Edges are partitioned by weight level at a threshold alpha (``DEFAULT_ALPHA``):
high supplier weight, high customer weight, and low-low.  The low-low block is
handled by an LP relaxation plus randomized rounding (independent, or dependent
with degree caps under budgets); the high blocks by a single-assignment
subproblem with a concave per-agent objective.  The returned solution is the
best realized candidate, valued exactly.  Every agent's budget binds where it
has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .instances import UNBOUNDED, Instance
from .lp import LpProblem, solve_lp
from .policies import static_values
from .util import check_deadline

# Threshold minimizing the combined regime loss, ~0.7574.
DEFAULT_ALPHA = 0.7574
# Roundings of the low-low LP; the best realized one is kept.
_TRIALS = 16


@dataclass
class FsSolution:
    edges: frozenset
    value: float
    regime: str


def _edges(mask: np.ndarray) -> list:
    """The (i, j) where ``mask`` holds, row-major, as tuples of Python ints."""
    return list(map(tuple, np.argwhere(mask).tolist()))


def partition_edges(instance: Instance):
    """(E1, E2, E3): w_ji >= alpha; v_ij >= alpha and w_ji < alpha; the rest."""
    v, w = instance.require_mnl_weights("fully static approximation")
    high_w, high_v = w.T >= DEFAULT_ALPHA, v >= DEFAULT_ALPHA
    return _edges(high_w), _edges(high_v & ~high_w), _edges(~(high_w | high_v))


# ---------------------------------------------------------------------------
# Low-low LP and rounding


def lowlow_lp(instance: Instance, edges: Optional[Iterable[Tuple[int, int]]] = None):
    """LP relaxation max sum v_ij w_ji y_ij with per-pair load constraints and
    a row per budgeted agent; returns (dense y, z_LP)."""
    v, w = instance.require_mnl_weights("fully static approximation")
    n, m = instance.n, instance.m
    i, j = (np.array(sorted(edges), dtype=int).T.reshape(2, -1) if edges is not None
            else np.divmod(np.arange(n * m), m))
    if i.size == 0:
        return np.zeros((n, m)), 0.0

    # Per edge, in edge order: its customer row, then its supplier row; budget rows last.
    eye = np.eye(i.size)
    rows = [np.stack([(i[:, None] == i) * v[i, j] + eye, (j[:, None] == j) * w[j, i] + eye],
                     axis=1).reshape(-1, i.size)]
    rhs = [np.ones(2 * i.size)]
    for agent, caps in ((i, instance.k_customer), (j, instance.k_supplier)):
        own = [a for a, k in enumerate(caps) if k is not UNBOUNDED]
        rows.append(agent == np.array(own, dtype=int)[:, None])
        rhs.append([float(caps[a]) for a in own])
    sol = solve_lp(LpProblem(v[i, j] * w[j, i], np.concatenate(rows), np.concatenate(rhs)))
    if sol.status != "optimal":
        raise RuntimeError(f"low-low LP came back {sol.status}")
    y = np.zeros((n, m))
    y[i, j] = np.clip(sol.x, 0.0, 1.0)
    return y, float(sol.value)


def independent_rounding(y: np.ndarray, rng) -> frozenset:
    """x_ij ~ Bernoulli(y_ij), independently."""
    return frozenset(_edges(rng.random(y.shape) < y))


def dependent_rounding(y: np.ndarray, rng, row_caps: Optional[Sequence] = None,
                       col_caps: Optional[Sequence] = None) -> frozenset:
    """Bipartite dependent rounding: marginals preserved exactly, per-vertex
    degrees never exceed the ceiling of their fractional degree (hence caps
    with feasible fractional input are hard), negatively correlated within
    each row and column."""
    y = np.asarray(y, dtype=float)
    n, m = y.shape
    eps = 1e-12
    for caps, lines, what in ((row_caps, y, "row"), (col_caps, y.T, "column")):
        for a, k in enumerate(() if caps is None else caps):
            if k is not UNBOUNDED and lines[a].sum() > k + 1e-9:
                raise ValueError(f"fractional {what} {a} exceeds its cap")

    # Built once: vertex v < m is column v, vertex m + i is row i, each with
    # the far ends of its fractional edges.  A step edits only its chain, and
    # an edge that stops being fractional leaves both its ends.
    adj = [set() for _ in range(n + m)]
    for i, j in _edges((y > eps) & (y < 1.0 - eps)):
        adj[j].add(m + i)
        adj[m + i].add(j)
    x = y.tolist()
    while True:
        degree = list(map(len, adj))
        if not any(degree):
            break
        # Start at the first leaf, else at the first vertex with an edge; take
        # the lowest far end but the one just left (the chain's vertices are
        # distinct) until stuck (a maximal path) or back at a visited vertex
        # (a cycle, walked alone).
        v = degree.index(1) if 1 in degree else next(v for v, d in enumerate(degree) if d)
        at, chain, prev = {v: 0}, [], -1
        while (u := min((u for u in adj[v] if u != prev), default=None)) is not None:
            chain.append((u - m, v) if v < m else (v - m, u))
            prev, v = v, u
            if v in at:
                chain = chain[at[v]:]
                break
            at[v] = len(chain)
        A = chain[0::2]
        B = chain[1::2]
        up = min(min(1.0 - x[i][j] for (i, j) in A), min((x[i][j] for (i, j) in B), default=np.inf))
        down = min(min(x[i][j] for (i, j) in A), min((1.0 - x[i][j] for (i, j) in B), default=np.inf))
        if up <= eps and down <= eps:
            break
        delta = up if rng.random() < down / (up + down) else -down
        for edges, d in ((A, delta), (B, -delta)):
            for i, j in edges:
                t = min(max(x[i][j] + d, 0.0), 1.0)
                x[i][j] = t = 0.0 if abs(t) < eps else 1.0 if abs(t - 1.0) < eps else t
                if not eps < t < 1.0 - eps:
                    adj[j].discard(m + i)
                    adj[m + i].discard(j)

    return frozenset(_edges(np.array(x) > 0.5))


# ---------------------------------------------------------------------------
# High-value subproblem


def highvalue_subproblem(instance: Instance, edges: Iterable[Tuple[int, int]], side: str = "C"):
    """Maximize sum over ``side`` agents of F(total attached weight), F(z) =
    z/(1+z), where each opposite agent is assigned to at most one ``side``
    agent and side budgets bind.  Returns (edges, value).

    side="C": objective over customers with weights v_ij (high-w regime);
    side="S": objective over suppliers with weights w_ji (high-v regime).

    Greedy: each step takes the feasible edge with the largest gain
    F(z + weight) - F(z), the first in sorted edge order on ties, until no
    gain exceeds 1e-15.
    """
    v, w = instance.require_mnl_weights("fully static approximation")
    edge_list = sorted(set(edges))
    if not edge_list:
        return frozenset(), 0.0
    i, j = np.array(edge_list).T
    if side == "C":
        agent, resource, weight, caps = i, j, v[i, j], instance.k_customer
    else:
        agent, resource, weight, caps = j, i, w[j, i], instance.k_supplier
    room = np.array([np.inf if k is UNBOUNDED else k for k in caps], dtype=float)
    load = np.zeros(len(caps))
    feasible = np.ones(len(edge_list), dtype=bool)
    chosen = []
    while True:
        z = load[agent]
        gain = np.where(feasible, (z + weight) / (1.0 + z + weight) - z / (1.0 + z), -np.inf)
        e = int(gain.argmax())
        if gain[e] <= 1e-15:
            break
        chosen.append(edge_list[e])
        a = agent[e]
        load[a] += weight[e]
        room[a] -= 1
        feasible &= (resource != resource[e]) & (room[agent] > 0)
    return frozenset(chosen), float((load / (1.0 + load)).sum())


# ---------------------------------------------------------------------------
# Combined algorithm


def approx_fully_static(instance: Instance, rng=None) -> FsSolution:
    """Partition-based approximation: solve each regime, keep the candidate with
    the highest realized exact value, the first on ties (edges outside the
    chosen regime are off).  The deadline is polled by the low-low LP's
    simplex and before each rounding."""
    rng = rng if rng is not None else np.random.default_rng(0)
    e1, e2, e3 = partition_edges(instance)
    candidates = []  # (regime, edges)
    for regime, edges, side in (("high-w", e1, "C"), ("high-v", e2, "S")):
        if edges:
            candidates.append((regime, highvalue_subproblem(instance, edges, side)[0]))
    if e3:
        y, _ = lowlow_lp(instance, e3)
        for _ in range(_TRIALS):
            check_deadline()
            if instance.constrained:
                x = dependent_rounding(y, rng, instance.k_customer, instance.k_supplier)
            else:
                x = independent_rounding(y, rng)
            candidates.append(("low-low", x))
    if not candidates:
        return FsSolution(frozenset(), 0.0, "empty")

    display = np.zeros((len(candidates), instance.n, instance.m), dtype=bool)
    for t, (_, edges) in enumerate(candidates):
        for i, j in edges:
            display[t, i, j] = True
    values = static_values(instance, display)
    best = int(values.argmax())
    return FsSolution(candidates[best][1], float(values[best]), candidates[best][0])
