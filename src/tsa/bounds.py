"""Computable upper bounds and the consolidated per-instance gap report.

The one-sided relaxation couples a distribution over assortments for each
initiating agent with a distribution over backlog sets for each responder
through flow-consistency rows; its optimum upper-bounds the one-sided
adaptive optimum.  UB_OA is a concave program solved by block-wise pairwise
Frank-Wolfe whose linear oracle is closed form: the load polytope is a product
of MNL blocks, each block's LP is solved by its best revenue-ordered prefix, and
each block keeps an active set of such prefixes to step away from.  UB_FA is a
packing LP.  Both need MNL weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import SizeRefusalError, UnsupportedOracleError
from .exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                    opt_one_sided_static)
from .fullystatic import approx_fully_static
from .greedy import (MAX_EXACT_SIDE, GreedyOneSidedPolicy, SamplingConfig,
                     cointoss_exact_value, exact_greedy_value, sampling_side_selector)
from .instances import UNBOUNDED, Instance
from .lp import LpProblem, solve_lp
from .oracles import demand_table, prob_rows, prob_table
from .policies import (exact_value_one_sided_static, monte_carlo, one_sided_values,
                       simulate_once)
from .util import check_deadline

# The largest side the relaxation enumerates the subsets of, Frank-Wolfe
# iterations per UB_OA orientation, the side selector's sampling runs per side,
# and Monte Carlo runs per policy.
_RELAXATION_MAX_SIDE = 6
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
    under the instance's budgets.

    Columns lam[j, C] (responder j, initiator subset C), then tau[i, S]
    (initiator i, assortment S within its budget), masks ascending per agent.
    Equality rows: each lam[j] and each tau[i] sums to 1, then per (i, j),
    i-major, sum_{C ∋ i} lam[j, C] = sum_{S ∋ j} phi_i(j, S) tau[i, S]."""
    ninit = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    nresp = instance.side_size(resp_side)
    if max(ninit, nresp) > _RELAXATION_MAX_SIDE:
        raise SizeRefusalError(f"relaxation enumerates subsets; refuses sides > {_RELAXATION_MAX_SIDE}")
    if ninit == 0 or nresp == 0:
        return RelaxationSolution(side, {}, {}, 0.0)

    init_budget = [instance.budget(side, i) for i in range(ninit)]
    f = np.stack([demand_table(instance.model(resp_side, j), ninit, instance.budget(resp_side, j))
                  for j in range(nresp)])
    phi = np.stack([prob_table(instance.model(side, i), nresp) for i in range(ninit)])
    lam_j, lam_c = np.divmod(np.arange(nresp << ninit), 1 << ninit)
    caps = np.array([nresp if k is UNBOUNDED else k for k in init_budget])
    sizes = np.array([bin(s).count("1") for s in range(1 << nresp)])
    tau_i, tau_s = np.nonzero(sizes <= caps[:, None])
    nl, nt = lam_j.size, tau_i.size
    i, j = np.arange(ninit)[:, None, None], np.arange(nresp)[:, None]
    lam = np.concatenate([lam_j == j, np.zeros((ninit, nl)),
                          ((lam_j == j) & (lam_c >> i & 1 == 1)).reshape(-1, nl)])
    tau = np.concatenate([np.zeros((nresp, nt)), tau_i == i[:, 0],
                          np.where((tau_i == i) & (tau_s >> j & 1 == 1), -phi[tau_i, tau_s].T,
                                   0.0).reshape(-1, nt)])
    problem = LpProblem(np.concatenate([f.ravel(), np.zeros(nt)]), np.zeros((0, nl + nt)), np.zeros(0))
    problem.add_equality(np.hstack([lam, tau]), np.repeat([1.0, 0.0], [nresp + ninit, ninit * nresp]))

    sol = solve_lp(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"relaxation LP came back {sol.status}")

    def support(agents, masks, x, width):
        keep = x > 1e-12
        return {(a, frozenset(b for b in range(width) if mask >> b & 1)): p
                for a, mask, p in zip(agents[keep].tolist(), masks[keep].tolist(), x[keep].tolist())}

    return RelaxationSolution(side, support(lam_j, lam_c, sol.x[:nl], ninit),
                              support(tau_i, tau_s, sol.x[nl:], nresp), float(sol.value))


def independent_objective_from_tau(instance: Instance, relax: RelaxationSolution) -> float:
    """Objective of the product (independent) backlog distribution built from the
    relaxation's tau marginals; correlation gap says it loses at most 1-1/e."""
    side = relax.side
    x = np.zeros((instance.side_size(side), instance.side_size("S" if side == "C" else "C")))
    for (i, s), p in relax.tau.items():
        x[i] += p * prob_rows(instance.model(side, i), x.shape[1], [s])[0]
    return one_sided_values(instance, side, x[:, None, :]).item()


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
    if (zd / (1.0 + z + zd) ** 2).sum() >= 0.0:
        return 1.0
    lo, hi, t = 0.0, 1.0, 0.0
    for _ in range(60):
        d = 1.0 + z + t * zd
        slope = (zd / d ** 2).sum()
        if slope > 0.0:
            lo = t
        elif slope < 0.0:
            hi = t
        else:
            return t
        nxt = t + slope / (2.0 * (zd * zd / d ** 3).sum())
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
    """(certified bound, iterations, final gap) on the oriented concave program
    max f = sum_j z_j/(1+z_j), z_j = sum_i v_ij w_ji y_ij, over the load polytope.

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
    best, certified, gap, it = 0.0, np.inf, np.inf, 0
    for it in range(1, _UB_OA_ITERS + 1):
        check_deadline()
        grad = 1.0 / (1.0 + z) ** 2
        s = _block_oracle(coef * grad, v)
        image = coef * s
        zd = image.sum(axis=0) - z
        gap = float(zd @ grad)
        fz = float((z / (1.0 + z)).sum())
        certified = min(certified, fz + max(gap, 0.0))
        best = max(best, fz)
        if gap <= 1e-6:
            break
        keys = [row.tobytes() for row in s > 0]
        t = _line_search(z, zd)
        z = z + t * zd
        load += t * (image - load)
        for i in range(n):
            _move_weight(active[i], keys[i], image[i], t)
        for i in range(n):
            block = active[i]
            grad = 1.0 / (1.0 + z) ** 2
            lo, away = min((float(atom[0] @ grad), k) for k, atom in block.items())
            if lo < float(load[i] @ grad):  # pairwise: weight moves from a_i to s_i
                dz = block[away][1] * (image[i] - block[away][0])
            else:
                away, dz = None, image[i] - load[i]
            if not float(dz @ grad) > 0.0:
                continue
            t = _line_search(z, dz)
            z = z + t * dz
            load[i] += t * dz
            _move_weight(block, keys[i], image[i], t, away)
    best = max(best, float((z / (1.0 + z)).sum()))
    certified = min(certified, best + max(gap, 0.0)) if np.isfinite(certified) else best
    return float(max(certified, best)), it, gap


def ub_oa(instance: Instance) -> float:
    """Upper bound on the one-sided adaptive optimum: max of both orientations."""
    v, w = instance.require_mnl_weights("this bound")
    return max(_ub_oa_oriented(v, w)[0], _ub_oa_oriented(w, v)[0])


def ub_fa(instance: Instance) -> float:
    """LP upper bound on the fully adaptive optimum:
    max sum x_ij s.t. x_ij <= v_ij (1 - sum_l x_il), x_ij <= w_ji (1 - sum_k x_kj)."""
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
    sol = solve_lp(LpProblem(np.ones(n * m), rows.reshape(-1, n * m), rhs.ravel()))
    if sol.status != "optimal":
        raise RuntimeError(f"UB_FA LP came back {sol.status}")
    return float(sol.value)


# ---------------------------------------------------------------------------
# Gap report


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


def alg_one_sided_adaptive_value(instance: Instance, seed: int = 0):
    """Value of the sampling side-selector's committed greedy: exact when the
    initiating side is small enough, else Monte Carlo."""
    policy = sampling_side_selector(instance, SamplingConfig(runs_override=_SELECTOR_RUNS), seed)
    side = policy.metadata["side"]
    if instance.side_size(side) <= MAX_EXACT_SIDE:
        return exact_greedy_value(instance, side), policy.metadata
    res = monte_carlo(instance, policy, _MC_RUNS, seed)
    return res.mean, {**policy.metadata, "ci_half_width": res.half_width}


def alg_fully_adaptive_value(instance: Instance, seed: int = 0, oa=None):
    """Expected value of the coin-toss policy: exact average of both sides when
    both are small enough, else Monte Carlo per side (side k on streams
    (seed + k, r)).  ``oa``, the result of ``alg_one_sided_adaptive_value``
    with the same seed, stands in for its side where that is the same number:
    an exact greedy value, or side C's Monte Carlo on streams (seed, r)."""
    small = max(instance.n, instance.m) <= MAX_EXACT_SIDE
    shared = oa is not None and (small or (oa[1]["side"] == "C" and instance.n > MAX_EXACT_SIDE))
    known = {oa[1]["side"]: oa[0]} if shared else {}
    if small:
        return cointoss_exact_value(instance, known)
    vals = [known[side] if side in known else
            monte_carlo(instance, GreedyOneSidedPolicy(instance, side), _MC_RUNS, seed + k).mean
            for k, side in enumerate(("C", "S"))]
    return 0.5 * sum(vals)


def gap_report(instance: Instance, label: str = "instance", caps=None,
               seed: int = 0) -> GapReport:
    """Compute every size-feasible optimum, algorithm value and bound, then the
    ratio table and theorem-bound verdicts; unavailable entries stay None.
    Past the active deadline the first poll raises ``TimeLimitError``.
    ``caps`` is unread: ``perfbench/items.py`` still passes a field-less
    ``SolveCaps`` here, and the parameter goes with that call."""
    q: Dict[str, Optional[float]] = {k: None for k in QUANTITY_ORDER}

    fs = _try(opt_fully_static, instance)
    q["OPT_FS"] = fs[0] if fs is not None else None
    os_c = _try(opt_one_sided_static, instance, "C")
    os_s = _try(opt_one_sided_static, instance, "S")
    if os_c is not None and os_s is not None:
        q["OPT_OS"] = max(os_c, os_s)
    oa_c = _try(opt_one_sided_adaptive, instance, "C")
    oa_s = _try(opt_one_sided_adaptive, instance, "S")
    oa_c_val = oa_c.value if oa_c is not None else None
    if oa_c is not None and oa_s is not None:
        q["OPT_OA"] = max(oa_c.value, oa_s.value)
    fa = _try(opt_fully_adaptive, instance)
    q["OPT_FA"] = fa.value if fa is not None else None

    rel_c = _try(lp_relaxation_onesided, instance, "C")
    rel_s = _try(lp_relaxation_onesided, instance, "S")
    rel = rel_c
    if rel_c is not None and rel_s is not None:
        q["REL2"] = max(rel_c.value, rel_s.value)
    q["UB_OA"] = _try(ub_oa, instance)
    q["UB_FA"] = _try(ub_fa, instance)

    sol = _try(approx_fully_static, instance, rng=np.random.default_rng([seed, 3]))
    q["ALG_FS"] = sol.value if sol is not None else None
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
    if rel is not None and oa_c_val is not None:
        verdicts["rel2_ge_opt_c_oa"] = rel.value >= oa_c_val - 1e-6
    if rel is not None and (not instance.constrained or instance.mnl_weights() is not None):
        # The correlation-gap factor needs submodular responder objectives,
        # which budgeted demand guarantees only for MNL.
        ind = independent_objective_from_tau(instance, rel)
        verdicts["correlation_gap"] = ind >= (1.0 - 1.0 / math.e) * rel.value - tol

    return GapReport(label, q, ratios, verdicts)


def reports_to_csv(reports, fh) -> None:
    """One row per instance; empty cells mark unavailable quantities."""
    header = (["label"] + QUANTITY_ORDER + [r[0] for r in RATIO_DEFS] + VERDICT_ORDER)
    fh.write(",".join(header) + "\n")
    for rep in reports:
        cells = [rep.label]
        for k in QUANTITY_ORDER:
            x = rep.quantities.get(k)
            cells.append("" if x is None else format(x, ".9g"))
        for name, _, _ in RATIO_DEFS:
            x = rep.ratios.get(name)
            cells.append("" if x is None else format(x, ".9g"))
        for k in VERDICT_ORDER:
            x = rep.verdicts.get(k)
            cells.append("" if x is None else ("pass" if x else "FAIL"))
        fh.write(",".join(cells) + "\n")
