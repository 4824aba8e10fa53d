"""Dense linear programming and concave maximization, self-contained.

``solve_lp`` maximizes c.x subject to A x <= b, x >= 0 with a two-phase
tableau simplex.  The tableau is dense and column-major, and a pivot updates
only the columns where the normalized pivot row is nonzero, each one
contiguous in memory.  The entering column has the most negative reduced cost
(Dantzig); the leaving row comes from Bland's ratio test.  After a run of
degenerate pivots it enters by Bland's rule until the objective improves, which
keeps Bland's anti-cycling guarantee.  ``add_equality`` appends a
block of equality rows, each as a <= row followed by its >= row (the row
negated).  The simplex serves UB_FA, the one-sided relaxation (REL2) and the
low-low LP, whose builders make each row family in one array expression.
``maximize_concave`` runs Frank-Wolfe with the simplex as linear oracle and
reports a certified upper bound (best iterate value plus duality gap).  It is
the LP-backed reference the tests compare UB_OA against; UB_OA itself uses the
closed-form oracle of its MNL load blocks (``bounds._block_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .util import check_deadline

PIVOT_TOL = 1e-9
RHS_TOL = 1e-8


@dataclass
class LpProblem:
    """max c.x  s.t.  A x <= b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2:
            self.A = self.A.reshape(-1, self.c.size)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape != (self.b.size, self.c.size):
            raise ValueError(f"inconsistent LP shapes A{self.A.shape}, b{self.b.shape}, c{self.c.shape}")
        if not (np.isfinite(self.c).all() and np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("LP data must be finite")

    def add_equality(self, rows: np.ndarray, rhs) -> None:
        """Append rows x == rhs for one row or a block (rows (k, n), rhs (k,)):
        row r becomes the pair rows[r].x <= rhs[r], -rows[r].x <= -rhs[r]."""
        rows = np.asarray(rows, dtype=float).reshape(-1, self.c.size)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        self.A = np.vstack([self.A, np.stack([rows, -rows], axis=1).reshape(-1, self.c.size)])
        self.b = np.concatenate([self.b, np.stack([rhs, -rhs], axis=1).ravel()])


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    dual: Optional[np.ndarray] = None
    cs_residual: Optional[float] = None
    pivots: int = 0  # simplex pivots over both phases


def _bland_enter(obj_row: np.ndarray, allowed: int) -> int:
    """Lowest-index column with a negative reduced cost, or -1."""
    cols = np.flatnonzero(obj_row[:allowed] < -PIVOT_TOL)
    return int(cols[0]) if cols.size else -1


def _bland_leave(T: np.ndarray, basis: np.ndarray, col: int) -> int:
    """Ratio-test row for ``col``; ratios within PIVOT_TOL tie and go to the
    lowest basic index, scanned in row order.  -1 when ``col`` is unbounded."""
    a = T[:-1, col]
    rows = np.flatnonzero(a > PIVOT_TOL)
    if rows.size == 0:
        return -1
    ratios = T[rows, -1] / a[rows]
    near = ratios <= ratios.min() + PIVOT_TOL
    if np.count_nonzero(near) == 1:
        return int(rows[np.argmax(near)])
    best, best_ratio = -1, None
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if best == -1 or ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best]):
            best, best_ratio = i, ratio
    return best


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the column-major tableau ``T`` on (row, col), updating only the
    columns where the normalized pivot row is nonzero (rows of ``T.T``)."""
    T[row] /= T[row, col]
    piv = T[row]
    nz = piv.nonzero()[0]  # flatnonzero would copy the strided row first
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T.T[nz] -= np.outer(piv[nz], colvals)
    basis[row] = col


def _set_objective(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Rewrite the last tableau row as reduced costs for ``cost`` under ``basis``.
    The product runs on a row-major copy: its rounding depends on the layout,
    and the tests pin the row-major one."""
    cb = cost[basis]
    T[-1, :] = cb @ np.ascontiguousarray(T[:-1, :])
    T[-1, :-1] -= cost


# Consecutive degenerate pivots after which the simplex enters by Bland's rule.
DEGENERATE_RUN = 50


def _dantzig_enter(obj_row: np.ndarray, allowed: int) -> int:
    """Column with the most negative reduced cost (lowest index on ties), or -1."""
    col = int(np.argmin(obj_row[:allowed]))
    return col if obj_row[col] < -PIVOT_TOL else -1


def _run(T: np.ndarray, basis: np.ndarray, allowed: int):
    """Pivot to optimality; returns (status, pivots).  Dantzig entering, and
    Bland's after ``DEGENERATE_RUN`` pivots in a row that leave the objective
    unchanged, until one improves it.  The deadline is polled after every
    pivot (one clock read against a pivot's rank-1 update)."""
    pivots = degenerate = 0
    while True:
        enter = _bland_enter if degenerate >= DEGENERATE_RUN else _dantzig_enter
        col = enter(T[-1], allowed)
        if col < 0:
            return "optimal", pivots
        row = _bland_leave(T, basis, col)
        if row < 0:
            return "unbounded", pivots
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        pivots += 1
        degenerate = degenerate + 1 if T[-1, -1] <= before + PIVOT_TOL else 0
        check_deadline()


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex; returns statuses instead of raising on infeasible/unbounded."""
    nrows, ncols = problem.A.shape
    if nrows == 0:
        if (problem.c > PIVOT_TOL).any():
            return LpSolution("unbounded")
        x = np.zeros(ncols)
        return LpSolution("optimal", x, 0.0, np.zeros(0), 0.0)

    A = problem.A.copy()
    b = problem.b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    slack = np.where(neg, -1.0, 1.0)

    art = np.flatnonzero(neg)
    total = ncols + nrows + art.size
    T = np.zeros((nrows + 1, total + 1), order="F")
    T[:-1, :ncols] = A
    T[:-1, ncols:ncols + nrows] = np.diag(slack)
    basis = np.arange(ncols, ncols + nrows)
    basis[art] = ncols + nrows + np.arange(art.size)
    T[art, basis[art]] = 1.0
    T[:-1, -1] = b

    pivots = 0
    if art.size:
        cost1 = np.zeros(total)
        cost1[ncols + nrows:] = -1.0
        _set_objective(T, basis, cost1)
        status, pivots = _run(T, basis, total)
        if status != "optimal":  # -sum(artificials) <= 0 bounds phase 1
            raise RuntimeError(f"simplex phase 1 came back {status}")
        if T[-1, -1] < -RHS_TOL:
            return LpSolution("infeasible", pivots=pivots)
        # Drive leftover artificials out of the basis, each through its first
        # usable column.  One always exists, so no row is redundant: pivots
        # keep artificial r's column the exact negation of slack r's, so the
        # row where r is basic holds -1 in slack r's column.
        for i in np.flatnonzero(basis >= ncols + nrows):
            _pivot(T, basis, i, np.flatnonzero(np.abs(T[i, :ncols + nrows]) > PIVOT_TOL)[0])
            pivots += 1
        T = np.delete(T, np.s_[ncols + nrows:-1], axis=1)  # stays column-major

    total = T.shape[1] - 1
    cost2 = np.zeros(total)
    cost2[:ncols] = problem.c
    _set_objective(T, basis, cost2)
    status, phase2 = _run(T, basis, total)
    pivots += phase2
    if status == "unbounded":
        return LpSolution("unbounded", pivots=pivots)

    x = np.zeros(total)
    x[basis] = T[:-1, -1]
    xsol = x[:ncols]
    value = float(problem.c @ xsol)
    # Duals are the reduced costs of the slack columns in the final tableau.
    dual = T[-1, ncols:ncols + nrows].copy()
    slack_residual = problem.b - problem.A @ xsol
    cs = float(abs(dual @ slack_residual)) + float(abs((dual @ problem.A - problem.c) @ xsol))
    return LpSolution("optimal", xsol, value, dual, cs, pivots)


# ---------------------------------------------------------------------------
# Frank-Wolfe


@dataclass
class ConcaveResult:
    status: str
    point: Optional[np.ndarray] = None
    value: Optional[float] = None
    certified_upper: Optional[float] = None
    iterations: int = 0
    gap: Optional[float] = None
    bound_history: list = None  # best certified bound after each iteration


def maximize_concave(f: Callable[[np.ndarray], float],
                     grad: Callable[[np.ndarray], np.ndarray],
                     feasible: LpProblem,
                     iters: int = 500,
                     gap_tol: float = 1e-6,
                     check_gradient: bool = True) -> ConcaveResult:
    """Frank-Wolfe over {x >= 0 : A x <= b} for concave smooth f.

    certified_upper = min_k [f(x_k) + gap_k] is a valid bound on the optimum
    because concavity gives f* <= f(x) + grad(x).(s* - x) <= f(x) + gap(x).
    """
    start = solve_lp(LpProblem(np.zeros_like(feasible.c), feasible.A, feasible.b))
    if start.status != "optimal":
        return ConcaveResult("infeasible")
    x = start.x

    if check_gradient:
        g = grad(x)
        h = 1e-6
        for j in range(min(3, x.size)):
            e = np.zeros_like(x)
            e[j] = h
            fd = (f(x + e) - f(x - e)) / (2 * h)
            scale = max(1.0, abs(fd), abs(g[j]))
            if abs(fd - g[j]) / scale > 1e-4:
                raise ValueError(f"gradient oracle inconsistent with f at coordinate {j}")

    best_x, best_val = x, f(x)
    certified = np.inf
    gap = np.inf
    history = []
    it = 0
    for it in range(1, iters + 1):
        g = grad(x)
        lin = solve_lp(LpProblem(g, feasible.A, feasible.b))
        if lin.status == "unbounded":
            raise ValueError("Frank-Wolfe needs a bounded feasible region")
        s = lin.x
        d = s - x
        gap = float(g @ d)
        fx = f(x)
        certified = min(certified, fx + max(gap, 0.0))
        history.append(certified)
        if fx > best_val:
            best_x, best_val = x, fx
        if gap <= gap_tol:
            break
        # Exact-enough line search: f concave along the segment, so ternary search.
        lo, hi = 0.0, 1.0
        for _ in range(40):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if f(x + m1 * d) < f(x + m2 * d):
                lo = m1
            else:
                hi = m2
        step = (lo + hi) / 2
        if step <= 0:
            step = 2.0 / (it + 2.0)
        x = x + step * d

    fx = f(x)
    if fx > best_val:
        best_x, best_val = x, fx
    certified = min(certified, best_val + max(gap, 0.0)) if np.isfinite(certified) else best_val
    return ConcaveResult("optimal", best_x, float(best_val), float(max(certified, best_val)),
                         iterations=it, gap=float(gap), bound_history=history)
