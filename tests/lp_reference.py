"""Test-only reference for the simplex: the two-phase tableau solve that
``tsa.lp.solve_lp`` ran before its pivots skipped the pivot row's zero
columns.  The tableau is row-major and every pivot subtracts the rank-1 term
from all of it; the entering and leaving rules are ``tsa.lp``'s own.  Status,
pivot count, value, solution and duals must agree byte for byte."""

import numpy as np

from tsa.lp import (DEGENERATE_RUN, PIVOT_TOL, RHS_TOL, LpProblem, LpSolution,
                    _bland_enter, _bland_leave, _dantzig_enter)
from tsa.util import check_deadline


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, piv)
    T[row] = piv
    basis[row] = col


def _set_objective(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    """Rewrite the last tableau row as reduced costs for ``cost`` under ``basis``."""
    cb = cost[basis]
    T[-1, :] = cb @ T[:-1, :]
    T[-1, :-1] -= cost


def _run(T: np.ndarray, basis: np.ndarray, allowed: int):
    """``tsa.lp._run`` on the reference pivot."""
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
    T = np.zeros((nrows + 1, total + 1))
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
        # np.delete keeps the tableau C-contiguous, which the rounding of
        # ``cb @ T`` in phase 2 depends on; a fancy-indexed copy would not be.
        T = np.delete(T, np.s_[ncols + nrows:-1], axis=1)

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
