"""Computable upper bounds and the consolidated per-instance gap report.

The one-sided relaxation couples a distribution over assortments for each
initiating agent with a distribution over backlog sets for each responder
through flow-consistency rows; its optimum upper-bounds the one-sided
adaptive optimum.  UB_OA is a concave program solved by block-wise pairwise
Frank-Wolfe whose linear oracle is closed form: the load polytope is a product
of MNL blocks, each block's LP is solved by its best revenue-ordered prefix, and
each block keeps an active set of such prefixes to step away from.  Its two
orientations advance in turn, and one whose running certificate falls below the
other's best value is stopped: its final bound could only be lower, so the max
is the same float as when both run to the end.  UB_FA is a packing LP, solved
by the interior point ``lp.solve_packing``, whose normal matrix it builds from
the LP's customer and supplier blocks; the bound it reports is the dual
certificate b.y / min_j (A^T y)_j, valid for any y >= 0.  Both need MNL
weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import SizeRefusalError, UnsupportedOracleError, refuse_past
from .exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                    opt_one_sided_static)
from .fullystatic import approx_fully_static
from .greedy import GreedyOneSidedPolicy, exact_greedy_value, sampling_side_selector
from .instances import Instance
from .lp import LpProblem, solve_lp, solve_packing
from .oracles import _budget_counts, _budget_masks, demand_tables, prob_rows, prob_table
from .policies import (exact_value_one_sided_static, monte_carlo, one_sided_values,
                       simulate_once)
from .util import check_deadline

# The relaxation LP's columns (9x9 has 9,216; 10x10 20,480), Frank-Wolfe
# iterations per UB_OA orientation, the side selector's sampling runs per side,
# and Monte Carlo runs per policy.
_MAX_LP_COLUMNS = 1 << 14
_UB_OA_ITERS = 1000
_SELECTOR_RUNS = 100
_MC_RUNS = 10_000


@dataclass
class RelaxationSolution:
    side: str
    lam: Dict[Tuple[int, frozenset], float]
    tau: Dict[Tuple[int, frozenset], float]
    value: float


def lp_relaxation_onesided(instance: Instance, side: str = "C") -> RelaxationSolution:
    """Exact optimum of the one-sided relaxation by explicit subset enumeration,
    under the instance's budgets.  Refuses more than ``_MAX_LP_COLUMNS``
    columns before any table is built.

    Columns lam[j, C] (responder j, initiator subset C), then tau[i, S]
    (initiator i, assortment S within its budget), masks ascending per agent.
    Rows: each lam[j] and each tau[i] sums to at most 1, then per (i, j),
    i-major, the equality sum_{C ∋ i} lam[j, C] = sum_{S ∋ j} phi_i(j, S) tau[i, S]
    as a pair of rows with right-hand side 0, so the origin is feasible.  The
    sums lose nothing to ``<= 1``: lam[j, {}] and tau[i, {}] earn 0 and enter no
    flow row, so a row's slack moves onto them at no cost, and each is read
    back as 1 minus the rest of its agent's distribution."""
    ninit = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    nresp = instance.side_size(resp_side)
    init_budget = [instance.budget(side, i) for i in range(ninit)]
    columns = (nresp << ninit) + sum(sum(_budget_counts(nresp, k)) for k in init_budget)
    refuse_past("relaxation LP", columns, _MAX_LP_COLUMNS, "columns")
    if ninit == 0 or nresp == 0:
        return RelaxationSolution(side, {}, {}, 0.0)

    f = demand_tables(instance, side)
    # tau's columns and their rows phi_i(., S), agent by agent.
    masks = [sorted(_budget_masks(nresp, k)) for k in init_budget]
    phi = np.concatenate([prob_table(instance.model(side, i), nresp, k)
                          for i, k in enumerate(init_budget)])
    lam_j, lam_c = np.divmod(np.arange(nresp << ninit), 1 << ninit)
    tau_i, tau_s = np.repeat(np.arange(ninit), [len(s) for s in masks]), np.concatenate(masks)
    nl, nt = lam_j.size, tau_i.size
    i, j = np.arange(ninit)[:, None, None], np.arange(nresp)[:, None]
    sums = np.block([[lam_j == j, np.zeros((nresp, nt))], [np.zeros((ninit, nl)), tau_i == i[:, 0]]])
    flow = np.hstack([((lam_j == j) & (lam_c >> i & 1 == 1)).reshape(-1, nl),
                      np.where((tau_i == i) & (tau_s >> j & 1 == 1), -phi.T, 0.0).reshape(-1, nt)])
    problem = LpProblem(np.concatenate([f.ravel(), np.zeros(nt)]), sums, np.ones(nresp + ninit))
    problem.add_equality(flow, np.zeros(ninit * nresp))

    sol = solve_lp(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"relaxation LP came back {sol.status}")
    # The empty sets, one per sum row in row order, take what their rows leave.
    x, empty = sol.x.copy(), np.flatnonzero(np.concatenate([lam_c, tau_s]) == 0)
    x[empty] = 0.0
    x[empty] = 1.0 - sums @ x

    def support(agents, masks, x, width):
        keep = x > 1e-12
        return {(a, frozenset(b for b in range(width) if mask >> b & 1)): p
                for a, mask, p in zip(agents[keep].tolist(), masks[keep].tolist(), x[keep].tolist())}

    return RelaxationSolution(side, support(lam_j, lam_c, x[:nl], ninit),
                              support(tau_i, tau_s, x[nl:], nresp), float(sol.value))


def independent_objective_from_tau(instance: Instance, relax: RelaxationSolution) -> float:
    """Objective of the product (independent) backlog distribution built from the
    relaxation's tau marginals; correlation gap says it loses at most 1-1/e."""
    side, resp_side = relax.side, "S" if relax.side == "C" else "C"
    x = np.zeros((instance.side_size(side), instance.side_size(resp_side)))
    for (i, s), p in relax.tau.items():
        x[i] += p * prob_rows(instance.model(side, i), x.shape[1], [s])[0]
    return one_sided_values(demand_tables(instance, side), x[:, None, :]).item()


# ---------------------------------------------------------------------------
# Concave and LP upper bounds (MNL only)


def _block_oracle(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Linear oracle of the load polytope, one MNL block per row:
    argmax_y sum_ij g_ij y_ij  s.t.  y_ij + sum_l v_il y_il <= 1, y >= 0.

    Each block's optimum is its best revenue-ordered prefix S: options sorted
    by g_ij / v_ij, value sum_S g / (1 + V(S)), or the empty set when no prefix
    is positive (Talluri & van Ryzin 2004).  Its vertex is y_ij = 1/(1+V(S))
    for j in S."""
    n, m = g.shape
    take = g > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(take, g / v, -np.inf)  # v = 0 < g: ratio +inf, in every S
    flat = np.argsort(-ratio, axis=1, kind="stable") + np.arange(0, n * m, m)[:, None]
    cum_v = np.where(take, v, 0.0).ravel()[flat].cumsum(axis=1)
    prefix = np.where(take, g, 0.0).ravel()[flat].cumsum(axis=1) / (1.0 + cum_v)
    k = prefix.argmax(axis=1)
    rows = np.arange(n)
    level = np.where(prefix[rows, k] > 0, 1.0 / (1.0 + cum_v[rows, k]), 0.0)
    y = np.zeros(n * m)
    y[flat] = (np.arange(m) <= k[:, None]) * level[:, None]
    return y.reshape(n, m)


def _line_search(z: np.ndarray, zd: np.ndarray) -> float:
    """argmax over t in [0, 1] of sum_j (z_j + t zd_j)/(1 + z_j + t zd_j).

    The function is concave in t, so its slope sum_j zd_j/(1 + z_j + t zd_j)^2
    decreases; Newton on the slope, kept inside a bisection bracket."""
    # np.add.reduce is ndarray.sum without its Python wrapper: the same sums.
    base, sq, total = 1.0 + z, zd * zd, np.add.reduce
    if total(zd / (base + zd) ** 2) >= 0.0:
        return 1.0
    lo, hi, t = 0.0, 1.0, 0.0
    for _ in range(60):
        d = base + t * zd
        slope = total(zd / d ** 2)
        if slope > 0.0:
            lo = t
        elif slope < 0.0:
            hi = t
        else:
            return t
        nxt = t + slope / (2.0 * total(sq / d ** 3))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-15:
            return nxt
        t = nxt
    return t


def _move_weight(block: dict, key: bytes, image: np.ndarray, t: float, away=None) -> None:
    """Step ``t`` of a block's active set towards vertex ``key``: from every
    vertex in proportion (``away`` None, t in [0, 1]) or from vertex ``away``
    (t in [0, 1] of its weight).  Vertices left without weight are dropped."""
    if away is None:
        step = t
        for atom in block.values():
            atom[1] *= 1.0 - t
    else:
        step = t * block[away][1]
        block[away][1] = 0.0 if t >= 1.0 else block[away][1] - step
    block.setdefault(key, [image, 0.0])[1] += step
    for k in [k for k, atom in block.items() if atom[1] <= 0.0]:
        del block[k]


def _ub_oa_oriented(v: np.ndarray, w: np.ndarray):
    """Stepper of the oriented concave program max f = sum_j z_j/(1+z_j),
    z_j = sum_i v_ij w_ji y_ij, over the load polytope: it yields the running
    (certificate, best value) before each step and returns (certified bound,
    iterations, final gap) when it stops.

    Block-wise pairwise Frank-Wolfe from y = 0, kept in load space: the
    gradient in y is v_ij w_ji / (1+z_j)^2, and each initiator block i holds an
    active set of vertices (revenue-ordered prefixes S from ``_block_oracle``)
    by their load images coef_i 1_S / (1+V_i(S)) and weights.  Each iteration
    takes the global oracle, gap and certificate min_k f(y_k) + gap_k (valid
    under any exact oracle because f is concave), stops at a gap of 1e-6, and
    steps along the oracle's direction with ``_line_search``.  It then sweeps
    the blocks: block i steps towards its oracle vertex s_i, either from y_i
    (step in [0, 1]) or from its active vertex a_i of least gradient (step in
    [0, weight of a_i]), whichever has the larger directional derivative.  The
    plain oracle step keeps blocks that share loads moving together; without it
    a 10x10 market stalls at a gap near 1.4e-6."""
    n, m = v.shape
    if n == 0 or m == 0:
        return 0.0, 0, 0.0
    coef = v * w.T  # coefficient of y_ij inside z_j
    empty = bytes(m)
    active = [{empty: [np.zeros(m), 1.0]} for _ in range(n)]  # support -> [load image, weight]
    load = np.zeros((n, m))  # each block's share of z
    z = np.zeros(m)
    grad = 1.0 / (1.0 + z) ** 2  # kept current with z
    best, certified, gap, it = 0.0, np.inf, np.inf, 0
    for it in range(1, _UB_OA_ITERS + 1):
        check_deadline()
        s = _block_oracle(coef * grad, v)
        image = coef * s
        zd = image.sum(axis=0) - z
        gap = float(zd @ grad)
        fz = float((z / (1.0 + z)).sum())
        certified = min(certified, fz + max(gap, 0.0))
        best = max(best, fz)
        if gap <= 1e-6:
            break
        yield certified, best
        keys = [row.tobytes() for row in s > 0]
        t = _line_search(z, zd)
        z = z + t * zd
        grad = 1.0 / (1.0 + z) ** 2
        load += t * (image - load)
        for i in range(n):
            _move_weight(active[i], keys[i], image[i], t)
        for i in range(n):
            block = active[i]
            lo, away = min((float(atom[0] @ grad), k) for k, atom in block.items())
            if lo < float(load[i] @ grad):  # pairwise: weight moves from a_i to s_i
                dz = block[away][1] * (image[i] - block[away][0])
            else:
                away, dz = None, image[i] - load[i]
            if not float(dz @ grad) > 0.0:
                continue
            t = _line_search(z, dz)
            z = z + t * dz
            grad = 1.0 / (1.0 + z) ** 2
            load[i] += t * dz
            _move_weight(block, keys[i], image[i], t, away)
    best = max(best, float((z / (1.0 + z)).sum()))
    certified = min(certified, best + max(gap, 0.0)) if np.isfinite(certified) else best
    return float(max(certified, best)), it, gap


def ub_oa(instance: Instance) -> float:
    """Upper bound on the one-sided adaptive optimum: max of both orientations.

    The two steppers advance in turn, one iteration each.  One whose
    certificate falls more than 1e-9 below the other's best value is stopped:
    its final bound is at most that certificate (up to rounding near 1e-15) and
    the other's is at least its best, so the max is the survivor's final bound,
    the float both full runs give."""
    v, w = instance.require_mnl_weights("this bound")
    runs = {0: _ub_oa_oriented(v, w), 1: _ub_oa_oriented(w, v)}
    floor = [0.0, 0.0]  # each run's best value so far, then its final bound
    while runs:
        for k in list(runs):
            try:
                certified, floor[k] = next(runs[k])
                if certified >= floor[1 - k] - 1e-9:
                    continue
            except StopIteration as stop:
                floor[k] = stop.value[0]
            del runs[k]
    return max(floor)


@dataclass
class _UbFaLp(LpProblem):
    """UB_FA's LP with its weights v (n x m) and w (m x n), from which
    ``solve_packing`` builds its normal matrix."""

    v: np.ndarray
    w: np.ndarray

    def normal_matrix(self, rows: np.ndarray, cols: np.ndarray):
        """d -> A^T diag(d) A from the customer and supplier blocks.  With
        d_C, d_S the customer and supplier rows' entries of d (n x m), a = d_C v
        and b = d_S w^T, entry ((i, j), (i', j')) is [i = i'] (sum_l a_il v_il
        + a_ij + a_ij') + [j = j'] (sum_k b_kj w_jk + b_ij + b_i'j), plus
        d_C + d_S on the diagonal: O(nm(n+m)) work in place of the dense
        product's O(n^3 m^3).  The rows presolve drops meet no kept column, so
        they enter with d = 0 and the kept columns are read off the result."""
        (n, m), v, w = self.v.shape, self.v, self.w
        q, col = n * m, np.arange(n * m).reshape(n, m)
        # Where in M each term lands: the customer blocks by (i, j, j'), the
        # supplier blocks by (j, i, i'), then the diagonal.
        at = np.concatenate([(col[:, :, None] * q + col[:, None, :]).ravel(),
                             (col.T[:, :, None] * q + col.T[:, None, :]).ravel(), col.ravel() * (q + 1)])
        full = np.zeros(2 * q)

        def build(d):
            full[rows] = d
            dc, ds = full[0::2].reshape(n, m), full[1::2].reshape(n, m)
            a, bt = dc * v, ds.T * w
            customer = (a * v).sum(axis=1)[:, None, None] + a[:, :, None] + a[:, None, :]
            supplier = (bt * w).sum(axis=1)[:, None, None] + bt[:, :, None] + bt[:, None, :]
            terms = np.concatenate([customer.ravel(), supplier.ravel(), (dc + ds).ravel()])
            M = np.bincount(at, terms, q * q).reshape(q, q)
            return M if cols.all() else M[np.ix_(cols, cols)]

        return build


def ub_fa(instance: Instance) -> float:
    """LP upper bound on the fully adaptive optimum:
    max sum x_ij s.t. x_ij <= v_ij (1 - sum_l x_il), x_ij <= w_ji (1 - sum_k x_kj).
    The value is ``solve_packing``'s dual certificate, a bound on the LP optimum
    by construction, solved to a certified gap of 1e-11 * max(1, value).  The
    interior point's normal matrix comes from the LP's customer and supplier
    blocks (``_UbFaLp.normal_matrix``)."""
    v, w = instance.require_mnl_weights("this bound")
    n, m = instance.n, instance.m
    if n == 0 or m == 0:
        return 0.0
    # Per edge (i, j), row-major (column i*m + j): its customer row, then its supplier row.
    i, j = np.divmod(np.arange(n * m), m)
    eye = np.eye(n * m)
    rows = np.stack([v.ravel()[:, None] * (i[:, None] == i) + eye,
                     w.T.ravel()[:, None] * (j[:, None] == j) + eye], axis=1)
    rhs = np.stack([v.ravel(), w.T.ravel()], axis=1)
    sol = solve_packing(_UbFaLp(np.ones(n * m), rows.reshape(-1, n * m), rhs.ravel(), v, w))
    if sol.status != "optimal":
        raise RuntimeError(f"UB_FA LP came back {sol.status}")
    return float(sol.value)


# ---------------------------------------------------------------------------
# Gap report


def _better_side(value):
    """A one-sided class's optimum: the better of its two orientations, side C
    first (its refusal is the one raised)."""
    return lambda instance, seed: max(value(instance, "C"), value(instance, "S"))


# How each quantity ``tsa solve`` offers follows from (instance, seed), in solve
# order.  Each solver is named inside a lambda, so it is looked up in this
# module when called: whatever rebinds the name (a tracer, a test) sees the call.
QUANTITIES = {
    "OPT_FS": lambda inst, seed: opt_fully_static(inst)[0],
    "OPT_OS": _better_side(lambda inst, side: opt_one_sided_static(inst, side)),
    "OPT_OA": _better_side(lambda inst, side: opt_one_sided_adaptive(inst, side).value),
    "OPT_FA": lambda inst, seed: opt_fully_adaptive(inst).value,
    "ALG_FS": lambda inst, seed: approx_fully_static(inst, rng=np.random.default_rng([seed, 3])).value,
    "UB_OA": lambda inst, seed: ub_oa(inst),
    "UB_FA": lambda inst, seed: ub_fa(inst),
    "REL2": _better_side(lambda inst, side: lp_relaxation_onesided(inst, side).value),
}

RATIO_DEFS = [
    ("OPT_OS/OPT_FS", "OPT_OS", "OPT_FS"),
    ("OPT_OA/ALG_OS", "OPT_OA", "ALG_OS"),
    ("UB_OA/ALG_OS", "UB_OA", "ALG_OS"),
    ("OPT_FA/OPT_OA", "OPT_FA", "OPT_OA"),
    ("UB_FA/ALG_OA", "UB_FA", "ALG_OA"),
    ("ALG_FS/OPT_FS", "ALG_FS", "OPT_FS"),
    ("ALG_OA/OPT_OA", "ALG_OA", "OPT_OA"),
    ("ALG_FA/OPT_FA", "ALG_FA", "OPT_FA"),
    ("ALG_OA/UB_OA", "ALG_OA", "UB_OA"),
    ("ALG_FA/UB_FA", "ALG_FA", "UB_FA"),
]

QUANTITY_ORDER = ["OPT_FS", "OPT_OS", "OPT_OA", "OPT_FA", "ALG_FS", "ALG_OS",
                  "ALG_OA", "ALG_FA", "REL2", "UB_OA", "UB_FA"]

VERDICT_ORDER = ["nesting_chain", "fa_le_2oa", "oa_le_ee1_os", "ub_oa_valid",
                 "ub_fa_valid", "rel2_ge_opt_c_oa", "correlation_gap"]


@dataclass
class GapReport:
    label: str
    quantities: Dict[str, Optional[float]] = field(default_factory=dict)
    ratios: Dict[str, Optional[float]] = field(default_factory=dict)
    verdicts: Dict[str, Optional[bool]] = field(default_factory=dict)


def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (SizeRefusalError, UnsupportedOracleError):
        return None


def alg_one_sided_static_value(instance: Instance, seed: int = 0) -> float:
    """Static assortments harvested from one greedy run per side; best exact
    value.  The deadline is polled before each run and inside the exact
    evaluation."""
    best = 0.0
    for k, side in enumerate(("C", "S")):
        check_deadline()
        pol = GreedyOneSidedPolicy(instance, side)
        rng = np.random.default_rng([seed, 7, k])
        _, trace = simulate_once(instance, pol, rng)
        # Greedy moves the initiators first, in id order.
        assorts = [frozenset(rec["assortment"]) for rec in trace[:instance.side_size(side)]]
        best = max(best, exact_value_one_sided_static(instance, side, assorts))
    return best


def _greedy_value(instance: Instance, side: str, seed: int):
    """Greedy's value on ``side`` and its CI half-width: exact, with half-width
    None, unless ``exact_greedy_value`` refuses the walk's predicted histories,
    then the mean of ``_MC_RUNS`` runs on streams (seed, r)."""
    try:
        return exact_greedy_value(instance, side), None
    except SizeRefusalError:
        res = monte_carlo(instance, GreedyOneSidedPolicy(instance, side), _MC_RUNS, seed)
    return res.mean, res.half_width


def alg_one_sided_adaptive_value(instance: Instance, seed: int = 0):
    """Value of the sampling side-selector's committed greedy: ``_greedy_value``
    of its side, with ``ci_half_width`` in the metadata when sampled."""
    policy = sampling_side_selector(instance, _SELECTOR_RUNS, seed)
    value, half = _greedy_value(instance, policy.metadata["side"], seed)
    return value, policy.metadata if half is None else {**policy.metadata, "ci_half_width": half}


def alg_fully_adaptive_value(instance: Instance, seed: int = 0, oa=None):
    """Expected value of the coin-toss policy: the average of ``_greedy_value``
    over side C on ``seed`` and side S on ``seed + 1``.  ``oa``, the result of
    ``alg_one_sided_adaptive_value`` with the same seed, stands in for its side
    where that is the same number: an exact value, or side C's estimate."""
    known = {}
    if oa is not None and ("ci_half_width" not in oa[1] or oa[1]["side"] == "C"):
        known[oa[1]["side"]] = oa[0]
    return 0.5 * sum(known[side] if side in known else _greedy_value(instance, side, seed + k)[0]
                     for k, side in enumerate(("C", "S")))


def gap_report(instance: Instance, label: str = "instance", caps=None,
               seed: int = 0) -> GapReport:
    """Compute every size-feasible optimum, algorithm value and bound, then the
    ratio table and theorem-bound verdicts; unavailable entries stay None.
    Past the active deadline the first poll raises ``TimeLimitError``.
    ``caps`` is unread: ``perfbench/items.py`` still passes a field-less
    ``SolveCaps`` here, and the parameter goes with that call."""
    q: Dict[str, Optional[float]] = {k: None for k in QUANTITY_ORDER}
    for name in ("OPT_FS", "OPT_OS", "OPT_FA", "UB_OA", "UB_FA", "ALG_FS"):
        q[name] = _try(QUANTITIES[name], instance, seed)
    # OPT_OA and REL2 side by side: side C's results feed two verdicts.
    oa_c = _try(opt_one_sided_adaptive, instance, "C")
    oa_s = _try(opt_one_sided_adaptive, instance, "S")
    if oa_c is not None and oa_s is not None:
        q["OPT_OA"] = max(oa_c.value, oa_s.value)
    rel = _try(lp_relaxation_onesided, instance, "C")
    rel_s = _try(lp_relaxation_onesided, instance, "S")
    if rel is not None and rel_s is not None:
        q["REL2"] = max(rel.value, rel_s.value)
    q["ALG_OS"] = _try(alg_one_sided_static_value, instance, seed)
    oa_alg = _try(alg_one_sided_adaptive_value, instance, seed)
    q["ALG_OA"] = oa_alg[0] if oa_alg is not None else None
    q["ALG_FA"] = _try(alg_fully_adaptive_value, instance, seed, oa_alg)

    ratios: Dict[str, Optional[float]] = {}
    for name, num, den in RATIO_DEFS:
        if q.get(num) is not None and q.get(den) is not None and q[den] > 1e-12:
            ratios[name] = q[num] / q[den]
        else:
            ratios[name] = None

    tol = 1e-9
    ee1 = math.e / (math.e - 1.0)
    verdicts: Dict[str, Optional[bool]] = {k: None for k in VERDICT_ORDER}
    if all(q[k] is not None for k in ("OPT_FS", "OPT_OS", "OPT_OA", "OPT_FA")):
        verdicts["nesting_chain"] = (q["OPT_FS"] <= q["OPT_OS"] + tol
                                     and q["OPT_OS"] <= q["OPT_OA"] + tol
                                     and q["OPT_OA"] <= q["OPT_FA"] + tol)
    if q["OPT_FA"] is not None and q["OPT_OA"] is not None:
        verdicts["fa_le_2oa"] = q["OPT_FA"] <= 2.0 * q["OPT_OA"] + tol
    if q["OPT_OA"] is not None and q["OPT_OS"] is not None:
        # The e/(e-1) gap holds unconstrained and for MNL under budgets; general
        # choice models under two-way budgets are only guaranteed (e/(e-1))^2.
        factor = ee1 if (not instance.constrained or instance.mnl_weights() is not None) \
            else ee1 ** 2
        verdicts["oa_le_ee1_os"] = q["OPT_OA"] <= factor * q["OPT_OS"] + tol
    if q["UB_OA"] is not None and q["OPT_OA"] is not None:
        verdicts["ub_oa_valid"] = q["UB_OA"] >= q["OPT_OA"] - 1e-6
    if q["UB_FA"] is not None and q["OPT_FA"] is not None:
        verdicts["ub_fa_valid"] = q["UB_FA"] >= q["OPT_FA"] - 1e-6
    if rel is not None and oa_c is not None:
        verdicts["rel2_ge_opt_c_oa"] = rel.value >= oa_c.value - 1e-6
    if rel is not None and (not instance.constrained or instance.mnl_weights() is not None):
        # The correlation-gap factor needs submodular responder objectives,
        # which budgeted demand guarantees only for MNL.
        ind = independent_objective_from_tau(instance, rel)
        verdicts["correlation_gap"] = ind >= (1.0 - 1.0 / math.e) * rel.value - tol

    return GapReport(label, q, ratios, verdicts)


def reports_to_csv(reports, fh) -> None:
    """One row per instance; empty cells mark unavailable quantities.  A label
    holding a comma, a double quote or a newline is quoted."""
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(["label"] + QUANTITY_ORDER + [r[0] for r in RATIO_DEFS] + VERDICT_ORDER)
    for rep in reports:
        numbers = ([rep.quantities.get(k) for k in QUANTITY_ORDER]
                   + [rep.ratios.get(r) for r, _, _ in RATIO_DEFS])
        verdicts = [rep.verdicts.get(k) for k in VERDICT_ORDER]
        out.writerow([rep.label] + ["" if x is None else format(x, ".9g") for x in numbers]
                     + ["" if x is None else ("pass" if x else "FAIL") for x in verdicts])
