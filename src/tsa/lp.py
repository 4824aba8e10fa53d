"""Dense linear programming and concave maximization, self-contained.

``solve_lp`` maximizes c.x subject to A x <= b, x >= 0 for b >= 0 with a
tableau simplex from the slack basis, which b >= 0 makes feasible; it raises
ValueError on any b < 0 and returns "optimal" or "unbounded".  The tableau is
dense and column-major, and a pivot updates only the columns where the
normalized pivot row is nonzero, each one contiguous in memory.  The entering
column has the most negative reduced cost (Dantzig); the leaving row comes from
a ratio test that skips entries tiny beside the column's largest, ties the rows
within Harris's bound and breaks the tie by Bland's lowest basic index.  After
a run of degenerate pivots it enters by Bland's rule until the objective
improves, which keeps Bland's anti-cycling guarantee.
``add_equality`` appends a block of equality rows, each as a <= row followed by
its >= row (the row negated); ``solve_lp`` takes them with right-hand side 0.
The simplex serves the one-sided relaxation (REL2) and the low-low LP, whose
rounding needs its vertex; their builders make each row family in one array
expression, and both have b >= 0.
``solve_packing`` maximizes c.x subject to A x <= b, x >= 0
for A, b, c >= 0 by a primal-dual interior point (Mehrotra's predictor-corrector
on the normal equations, whose matrix A^T D A ``LpProblem.normal_matrix``
supplies) and returns a dual certificate, a bound that holds whether or not it
converged; it serves UB_FA.
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

    def normal_matrix(self, rows: np.ndarray, cols: np.ndarray) -> Callable:
        """d -> A_K^T diag(d) A_K, the normal matrix of ``solve_packing``, for
        A_K the rows and columns (boolean masks) its presolve keeps and d over
        the kept rows.  Formed here as the dense product; a problem whose A has
        structure overrides it."""
        A = self.A[np.ix_(rows, cols)]
        AT = np.ascontiguousarray(A.T)
        return lambda d: (AT * d) @ A


@dataclass
class LpSolution:
    status: str  # "optimal" | "unbounded"
    x: Optional[np.ndarray] = None
    value: Optional[float] = None
    dual: Optional[np.ndarray] = None
    cs_residual: Optional[float] = None
    pivots: int = 0  # simplex pivots
    iterations: int = 0  # interior-point iterations (solve_packing)


def _bland_enter(obj_row: np.ndarray) -> int:
    """Lowest-index column with a negative reduced cost, or -1."""
    cols = np.flatnonzero(obj_row < -PIVOT_TOL)
    return int(cols[0]) if cols.size else -1


def _bland_leave(T: np.ndarray, basis: np.ndarray, col: int) -> int:
    """Ratio-test row for ``col``, or -1 when ``col`` is unbounded.  Entries
    up to PIVOT_TOL times the column's largest (at least 1) are rounding, not
    pivots.  Rows whose ratio is within Harris's bound min_i (b_i + PIVOT_TOL)
    / a_i tie, so no basic value falls below -PIVOT_TOL, and the tie goes to
    the lowest basic index."""
    a = T[:-1, col]
    rows = np.flatnonzero(a > PIVOT_TOL * max(1.0, float(a.max())))
    if rows.size == 0:
        return -1
    a, b = a[rows], T[rows, -1]
    tied = rows[b / a <= np.min((b + PIVOT_TOL) / a)]
    return int(tied[np.argmin(basis[tied])])


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


def _dantzig_enter(obj_row: np.ndarray) -> int:
    """Column with the most negative reduced cost (lowest index on ties), or -1."""
    col = int(np.argmin(obj_row))
    return col if obj_row[col] < -PIVOT_TOL else -1


def _run(T: np.ndarray, basis: np.ndarray):
    """Pivot to optimality; returns (status, pivots).  Dantzig entering, and
    Bland's after ``DEGENERATE_RUN`` pivots in a row that leave the objective
    unchanged, until one improves it.  The deadline is polled after every
    pivot (one clock read against a pivot's rank-1 update)."""
    pivots = degenerate = 0
    while True:
        enter = _bland_enter if degenerate >= DEGENERATE_RUN else _dantzig_enter
        col = enter(T[-1, :-1])
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
    """The simplex from the slack basis, which is feasible because b >= 0.
    Raises ValueError on any b < 0; returns "optimal" or "unbounded"."""
    if (problem.b < 0).any():
        raise ValueError("solve_lp needs b >= 0: it starts from the slack basis")
    nrows, ncols = problem.A.shape
    if nrows == 0:
        if (problem.c > PIVOT_TOL).any():
            return LpSolution("unbounded")
        x = np.zeros(ncols)
        return LpSolution("optimal", x, 0.0, np.zeros(0), 0.0)

    total = ncols + nrows
    T = np.zeros((nrows + 1, total + 1), order="F")
    T[:-1, :ncols] = problem.A
    T[:-1, ncols:-1] = np.eye(nrows)
    T[:-1, -1] = problem.b
    basis = np.arange(ncols, total)
    cost = np.zeros(total)
    cost[:ncols] = problem.c
    _set_objective(T, basis, cost)
    status, pivots = _run(T, basis)
    if status == "unbounded":
        return LpSolution("unbounded", pivots=pivots)

    x = np.zeros(total)
    x[basis] = T[:-1, -1]
    xsol = x[:ncols]
    value = float(problem.c @ xsol)
    # Duals are the reduced costs of the slack columns in the final tableau.
    dual = T[-1, ncols:-1].copy()
    slack_residual = problem.b - problem.A @ xsol
    cs = float(abs(dual @ slack_residual)) + float(abs((dual @ problem.A - problem.c) @ xsol))
    return LpSolution("optimal", xsol, value, dual, cs, pivots)


# ---------------------------------------------------------------------------
# Packing LPs by a primal-dual interior point

# Stop once the certified gap is at most this times max(1, bound).
PACKING_GAP = 1e-11
# Iterations after which the interior point returns its best certificate.
PACKING_MAX_ITERATIONS = 100
# It also stops once x.z + s.y is this fraction of the target gap.
PACKING_ROUNDING = 1e-3
# Added to M's diagonal, times its largest entry, when rounding leaves M singular.
PACKING_RIDGE = 1e-13
STEP_FRACTION = 0.99  # of the distance to the boundary


def _step(u: np.ndarray, du: np.ndarray, fraction: float = 1.0) -> float:
    """min(1, fraction * the largest step that keeps u + step * du >= 0), for u > 0."""
    t = -float((du / u).min())
    return 1.0 if t <= fraction else fraction / t


def solve_packing(problem: LpProblem) -> LpSolution:
    """max c.x  s.t.  A x <= b, x >= 0 for A, b, c >= 0, by Mehrotra's
    predictor-corrector from a strictly feasible start.

    Presolve drops the columns with c_j = 0 and those that meet a row with
    b_k = 0 (both are 0 at an optimum), then the rows left all zero.  Each
    iteration solves the normal equations M dx = r, with
    M = X^-1 Z + A^T (Y S^-1) A, for the affine and the centring-corrector
    directions, and takes separate primal and dual steps.  A^T (Y S^-1) A comes
    from ``problem.normal_matrix``: the dense product for a plain
    ``LpProblem``, UB_FA's customer and supplier blocks for its LP.  The returned
    ``value`` is the certificate b.y / min_j (A^T y)_j / c_j over the columns
    with c_j > 0, for y = ``dual``: an upper bound whether or not the solve
    converged.  It stops once that bound is within ``PACKING_GAP`` *
    max(1, bound) of the best primal point scaled into the region (``x``),
    once x.z + s.y is ``PACKING_ROUNDING`` of that target, or after
    ``PACKING_MAX_ITERATIONS``.  The deadline is polled once an iteration."""
    A, b, c = problem.A, problem.b, problem.c
    if (A < 0).any() or (b < 0).any() or (c < 0).any():
        raise ValueError("solve_packing needs A >= 0, b >= 0 and c >= 0")
    nrows, ncols = A.shape
    if not (c > 0).any():
        return LpSolution("optimal", np.zeros(ncols), 0.0, np.zeros(nrows))
    cols = (c > 0) & ~(A[b == 0] > 0).any(axis=0)
    rows = (A[:, cols] > 0).any(axis=1)
    if not (A[:, cols] > 0).any(axis=0).all():  # a column no row limits
        return LpSolution("unbounded")
    x, y = np.zeros(ncols), np.zeros(nrows)
    rho, iterations = 1.0, 0
    if cols.any():
        Ar = A[np.ix_(rows, cols)]
        x[cols], y[rows], iterations = _packing_ipm(Ar, b[rows], c[cols],
                                                    problem.normal_matrix(rows, cols))
        rho = float(np.min((Ar.T @ y[rows]) / c[cols]))
    # Rows with b_k = 0 cost nothing in b.y: weight them to cover the columns
    # presolve fixed at 0, at the same ratio rho as the kept columns.
    zero = b == 0
    if zero.any():
        Az = A[zero]
        y[zero] = rho * np.max(np.where(Az > 0, c / np.where(Az > 0, Az, 1.0), 0.0), axis=1)
    # Every y >= 0 certifies a packing LP: divided by this ratio it is dual feasible.
    pos = c > 0
    value = float(b @ y) / float(np.min((A.T @ y)[pos] / c[pos]))
    return LpSolution("optimal", x, value, y, iterations=iterations)


def _packing_ipm(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 normal: Callable[[np.ndarray], np.ndarray]):
    """(x, y, iterations) for A > 0 somewhere in every row and column, b > 0
    and c > 0, with ``normal(d)`` = A^T diag(d) A.  x is the best primal point
    scaled into the region, y the dual with the lowest certificate."""
    q = c.size
    AT = np.ascontiguousarray(A.T)
    x = np.full(q, 0.5 * np.min(b / A.sum(axis=1)))
    y = np.full(b.size, 2.0 * np.max(c / A.sum(axis=0)))
    # u = (x, s) and v = (z, y) pair up elementwise: x with z, s with y.
    u = np.concatenate([x, b - A @ x])
    v = np.concatenate([AT @ y - c, y])
    best_upper, best_lower = np.inf, -np.inf
    best_x = best_y = None
    iterations = 0
    while True:
        x, y = u[:q], v[q:]
        Aty, Ax = AT @ y, A @ x
        upper = float(b @ y) / float((Aty / c).min())
        scale = max(1.0, float((Ax / b).max()))
        lower = float(c @ x) / scale
        if upper < best_upper:
            best_upper, best_y = upper, y.copy()
        if lower > best_lower:
            best_lower, best_x = lower, x / scale
        uv = u * v
        complementarity = float(uv.sum())  # x.z + s.y
        tol = PACKING_GAP * max(1.0, best_upper)
        # Once x.z + s.y is far below the target, what is left of the
        # certified gap is rounding, and further steps do not close it.
        if (best_upper - best_lower <= tol or complementarity <= PACKING_ROUNDING * tol
                or iterations == PACKING_MAX_ITERATIONS):
            return best_x, best_y, iterations
        check_deadline()
        iterations += 1

        h = v / u
        M = normal(h[q:])
        M.flat[::q + 1] += h[:q]
        mu = complementarity / uv.size
        # The steps keep A x + s = b and A^T y - z = c only up to rounding;
        # each direction also takes back what has drifted.
        r_p = b - Ax - u[q:]
        drift = c - Aty + v[:q] + AT @ (h[q:] * r_p)

        def direction(g):
            """The Newton step (du, dv) that moves u * v by g * u and takes back the drift."""
            dx = np.linalg.solve(M, g[:q] - AT @ g[q:] + drift)
            du = np.concatenate([dx, r_p - A @ dx])
            return du, g - h * du

        try:
            du, dv = direction(-v)
        except np.linalg.LinAlgError:  # rounding left M singular: regularize it
            M.flat[::q + 1] += PACKING_RIDGE * M.diagonal().max()
            du, dv = direction(-v)
        mu_aff = float((u + _step(u, du) * du) @ (v + _step(v, dv) * dv)) / uv.size
        du, dv = direction(((mu_aff / mu) ** 3 * mu - uv - du * dv) / u)
        u = u + _step(u, du, STEP_FRACTION) * du
        v = v + _step(v, dv, STEP_FRACTION) * dv


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
    """Frank-Wolfe over {x >= 0 : A x <= b} for concave smooth f, from the
    origin (b >= 0, as ``solve_lp`` needs).

    certified_upper = min_k [f(x_k) + gap_k] is a valid bound on the optimum
    because concavity gives f* <= f(x) + grad(x).(s* - x) <= f(x) + gap(x).
    """
    x = np.zeros_like(feasible.c)

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
