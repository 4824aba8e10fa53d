"""Test-only reference for UB_OA: plain Frank-Wolfe over the same load polytope,
oracle, line search and certificate as ``tsa.bounds._ub_oa_oriented``, which
adds away and pairwise steps.  Both certificates are valid upper bounds, so the
reference checks how tight the new bound is and that the two never disagree by
more than the gap either one reached.  ``run_to_end`` runs one orientation's
stepper to completion, the run ``ub_oa`` may stop early."""

import numpy as np

from tsa.bounds import _block_oracle, _line_search


def run_to_end(stepper):
    """What an ``_ub_oa_oriented`` stepper returns once it stops by itself:
    (certified bound, iterations, final gap)."""
    while True:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value


def plain_fw_ub_oa_oriented(v: np.ndarray, w: np.ndarray, iters: int = 1000):
    """(certified bound, iterations, final gap) of plain Frank-Wolfe from y = 0
    that keeps only the loads z: the gradient in y is v_ij w_ji / (1+z_j)^2,
    ``_block_oracle`` is the linear oracle and ``_line_search`` the step.  The
    certificate is min_k f(y_k) + gap_k."""
    n, m = v.shape
    if n == 0 or m == 0:
        return 0.0, 0, 0.0
    coef = v * w.T  # coefficient of y_ij inside z_j
    z = np.zeros(m)
    best, certified, gap, it = 0.0, np.inf, np.inf, 0
    for it in range(1, iters + 1):
        zd = (coef * _block_oracle(coef / (1.0 + z) ** 2, v)).sum(axis=0) - z
        gap = float((zd / (1.0 + z) ** 2).sum())
        fz = float((z / (1.0 + z)).sum())
        certified = min(certified, fz + max(gap, 0.0))
        best = max(best, fz)
        if gap <= 1e-6:
            break
        z = z + _line_search(z, zd) * zd
    best = max(best, float((z / (1.0 + z)).sum()))
    certified = min(certified, best + max(gap, 0.0)) if np.isfinite(certified) else best
    return float(max(certified, best)), it, gap
