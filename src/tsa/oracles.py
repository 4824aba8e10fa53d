"""Every single-agent rule: the weighted assortment oracle, constrained demand,
their tables over subsets, and their row form for the exact DPs.

The weighted problem is max over S (|S| <= budget) of sum_{j in S} theta_j *
phi(j, S).  A responder shows, and is worth, ``constrained_demand`` of its
backlog B: under budget K the best subset of at most K members of B and its
demand f^K(B), with no budget B and its demand.  MNL has one exact oracle,
``mnl_best``: the best theta-ordered prefix when unconstrained, and under a
cardinality budget Dinkelbach's iteration on the ratio z, each step keeping
the K largest positive w_j (theta_j - z) (Rusmevichientong, Shen & Shmoys
2010).  Every other model is solved by exhaustive enumeration.  Each table
and enumeration counts the (set, option) entries it evaluates before it
starts, and refuses past ``_MAX_ENTRIES`` rather than approximate silently.
The row oracles apply the same rules to many theta vectors at once, bit for
bit: the adaptive DPs value a layer with them, and greedy's batched kernel
shows its displays with the prefix rule.  ``kept_sums`` applies the budgeted
MNL responder rule to backlog bitmasks, for the demand tables and the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import refuse_past
from .instances import UNBOUNDED, ChoiceSpec, Instance, is_mnl

# (set, option) entries of a table or enumeration: n sum_{k<=K} C(n, k) for a
# probability table (16 options unbudgeted), 2^n for a demand table (20),
# sum_k k C(n, k) for an enumeration.
_MAX_ENTRIES = 1 << 20
_TOL = 1e-12  # a larger set, or a later option, wins only by more than this
_THETA = itemgetter(0)


@dataclass(frozen=True)
class OracleResult:
    assortment: frozenset
    value: float


def _weighted_value(model: ChoiceSpec, theta: Sequence[float], s: frozenset) -> float:
    return sum(theta[j] * model.prob(j, s) for j in sorted(s))


def _budget_counts(count: int, budget) -> list:
    """The number of assortments of each size 0..min(budget, count) over
    ``count`` options: the sets ``_budget_masks`` lists, by size."""
    kmax = count if budget is UNBOUNDED else min(budget, count)
    return [comb(count, k) for k in range(kmax + 1)]


def _enumerate_best(model: ChoiceSpec, theta, candidates, budget) -> OracleResult:
    """Exhaustive search; ties broken by smallest cardinality then lexicographic."""
    sizes = _budget_counts(len(candidates), budget)
    refuse_past("oracle enumeration", sum(k * c for k, c in enumerate(sizes)), _MAX_ENTRIES, "entries")
    best_set, best_val = frozenset(), 0.0
    for k in range(1, len(sizes)):
        for combo in combinations(candidates, k):
            s = frozenset(combo)
            val = _weighted_value(model, theta, s)
            if val > best_val + _TOL:
                best_set, best_val = s, val
    return OracleResult(best_set, best_val)


def mnl_best(items, budget=UNBOUNDED):
    """Exact MNL weighted assortment over (theta, weight, option) triples with
    theta > 0 and weight > 0, in ascending option order; returns (value,
    chosen triples).  A larger set wins only by more than ``_TOL``."""
    if budget is UNBOUNDED or budget >= len(items):
        # Theta-ordered prefixes contain an optimum for unconstrained MNL.
        ranked = sorted(items, key=_THETA, reverse=True)  # stable: ties keep option order
        best, size, num, den, k = 0.0, 0, 0.0, 1.0, 0
        for theta, w, _ in ranked:
            num += theta * w
            den += w
            k += 1
            val = num / den
            if val > best + _TOL:
                best, size = val, k
        return best, ranked[:size]
    # Dinkelbach: the set reaching ratio z' > z keeps the K largest positive
    # w_j (theta_j - z); the ratio rises until it stops improving.
    z, chosen = 0.0, []
    while True:
        top = sorted((t for t in items if t[0] > z), key=lambda t: t[1] * (z - t[0]))[:budget]
        ratio = sum(t[0] * t[1] for t in top) / (1.0 + sum(t[1] for t in top))
        if ratio <= z + _TOL:
            return z, chosen
        z, chosen = ratio, top


def best_weighted_assortment(model: ChoiceSpec, theta: Sequence[float],
                             budget=UNBOUNDED) -> OracleResult:
    """Maximize sum_{j in S} theta_j * phi(j, S) over assortments S, |S| <= budget."""
    options = range(model.num_options)
    if any(theta[j] < -_TOL for j in options):
        raise ValueError("theta must be componentwise nonnegative")
    if not is_mnl(model):
        return _enumerate_best(model, theta, options, budget)
    w = model.weights
    value, chosen = mnl_best([(theta[j], w[j], j) for j in options if w[j] > 0 and theta[j] > 0],
                             budget)
    return OracleResult(frozenset(j for _, _, j in chosen), value)


def constrained_demand(model: ChoiceSpec, ground: Iterable[int], budget=UNBOUNDED) -> OracleResult:
    """f^K(ground): the best demand over sub-assortments of ``ground`` of size
    <= K, and the set a responder with budget K shows from its backlog
    ``ground``; with no budget, ``ground`` itself.  MNL demand only grows with
    the set, so an MNL ground within the budget is shown whole."""
    ground = frozenset(ground)
    if budget is not UNBOUNDED and budget < 1:
        raise ValueError("budget must be >= 1 or unbounded")
    if budget is UNBOUNDED or (is_mnl(model) and len(ground) <= budget):
        return OracleResult(ground, model.demand(ground))
    if is_mnl(model):
        # Optimal set keeps the K largest positive weights (Lemma: f^K = W/(1+W)).
        ranked = sorted((j for j in ground if model.weights[j] > 0),
                        key=lambda j: (-model.weights[j], j))[:budget]
        s = frozenset(ranked)
        w = sum(model.weights[j] for j in s)
        return OracleResult(s, w / (1.0 + w))
    return _enumerate_best(model, [1.0] * model.num_options, sorted(ground), budget)


def kept_sums(weights: np.ndarray, budgets: Sequence, masks: np.ndarray) -> np.ndarray:
    """``constrained_demand``'s MNL weight sum W (worth W / (1 + W)) of each
    backlog masks[..., j], a bitmask over the options of responder j, whose
    weights are row j of ``weights`` (r, n) and budget budgets[j]: members
    are walked in (-weight, option) order, each kept while fewer than K are,
    and the kept weights add in option order (a zero weight ranks last and
    adds nothing).  Masks past 63 bits are Python ints (object dtype)."""
    n = weights.shape[1]
    keep = np.array([n if k is UNBOUNDED else k for k in budgets])
    bits = np.array([1 << b for b in range(n)], dtype=masks.dtype)
    count, kept = np.zeros(masks.shape, dtype=np.int32), np.zeros_like(masks)
    for bit in bits[np.argsort(-weights, axis=1, kind="stable")].T:
        has = masks & bit != 0
        count += has
        kept |= bit * (has & (count <= keep))
    total = np.zeros(masks.shape)
    for bit, w in zip(bits, weights.T):
        total += (kept & bit != 0) * w
    return total


# ---------------------------------------------------------------------------
# Tables over every subset of a small option universe, indexed by bitmask


def _mask_options(mask: int):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def demand_table(model: ChoiceSpec, n_opts: int, budget=UNBOUNDED) -> np.ndarray:
    """``constrained_demand``'s value on every subset, indexed by bitmask: for
    MNL under a budget, ``kept_sums`` of every mask."""
    size = 1 << n_opts
    refuse_past("demand_table", size, _MAX_ENTRIES, "entries")
    if is_mnl(model):
        if budget is UNBOUNDED:
            # A mask's weight sum is that of the mask without its lowest bit
            # b, plus weight b: the masks whose lowest bit is b, from the
            # highest b down, each add onto masks already summed.
            weights, w = model.weights, np.zeros(size)
            for b in reversed(range(n_opts)):
                w[1 << b::2 << b] = w[::2 << b] + weights[b]
        else:
            w = kept_sums(np.array([model.weights]), [budget], np.arange(size, dtype=np.int32)[:, None])[:, 0]
        return w / (1.0 + w)
    out = np.zeros(size)
    for mask in range(1, size):
        out[mask] = constrained_demand(model, _mask_options(mask), budget).value
    return out


def demand_tables(instance: Instance, side: str) -> np.ndarray:
    """Row j: the ``demand_table`` of responder j over initiating ``side``."""
    resp, ninit = "S" if side == "C" else "C", instance.side_size(side)
    return np.array([demand_table(instance.model(resp, j), ninit, instance.budget(resp, j))
                     for j in range(instance.side_size(resp))])


def prob_table(model: ChoiceSpec, n_opts: int, budget=UNBOUNDED, by_mask=False) -> np.ndarray:
    """phi(option, S) for every set S of at most ``budget`` options, one row per
    set in ascending mask order (with no budget, row k is mask k): shape
    (sets, n); outside prob implied.  With ``by_mask`` row k is mask k for
    all 2^n masks, the sets over the budget left at 0: a budgeted model need
    not tabulate them."""
    sets = 1 << n_opts if by_mask else sum(_budget_counts(n_opts, budget))
    refuse_past("prob_table", n_opts * sets, _MAX_ENTRIES, "entries")
    masks = sorted(_budget_masks(n_opts, budget))
    rows = np.array(masks) if by_mask else np.arange(len(masks))
    out = np.zeros((sets, n_opts))
    for lo in range(0, len(masks), 1024):  # all 2^16 sets at once would take about 50 MB
        out[rows[lo:lo + 1024]] = prob_rows(model, n_opts, [frozenset(_mask_options(k))
                                                            for k in masks[lo:lo + 1024]])
    return out


def prob_rows(model: ChoiceSpec, n_opts: int, displays) -> np.ndarray:
    """phi(j, S), one row per assortment S in ``displays``: each S goes to
    ``model.prob`` as given, as a sum over a set follows its iteration order."""
    out = np.zeros((len(displays), n_opts))
    for r, s in enumerate(displays):
        for j in s:
            out[r, j] = model.prob(j, s)
    return out


def _budget_masks(count: int, budget) -> list:
    """All assortment bitmasks over ``count`` options with |S| <= budget, ordered
    by cardinality then lexicographically by option ids."""
    kmax = count if budget is UNBOUNDED else min(budget, count)
    masks = [0]
    for k in range(1, kmax + 1):
        masks += [sum(1 << j for j in combo) for combo in combinations(range(count), k)]
    return masks


# ---------------------------------------------------------------------------
# Row oracles: the weighted oracle on one theta vector per row


def _agent_oracle(model, n_opts: int, budget):
    """(usable options, row oracle) for one agent: an MNL agent skips its
    zero-weight options and runs ``mnl_best``'s rules; any other model
    enumerates its budget-feasible assortments (tabulated by mask, so only
    those need be in a ``Tabular`` model).  The row oracle maps (theta,
    item) arrays over the usable options to ``best_weighted_assortment``'s
    value on each row, non-items at theta 0, bit for bit."""
    if is_mnl(model):
        w = model.weights
        usable = [j for j in range(n_opts) if w[j] > 0.0]
        return usable, partial(_mnl_rows, np.array([w[j] for j in usable]), budget)
    return list(range(n_opts)), partial(_enumeration_rows, prob_table(model, n_opts, budget, by_mask=True),
                                        _budget_masks(n_opts, budget))


def _enumeration_rows(phi: np.ndarray, masks, theta, item):
    """``_enumerate_best`` on every row at once: each assortment mask in turn
    (the budget is already applied by ``masks``) sums phi[mask, j] * theta_j
    over its options in ascending order, and a later mask wins only by more
    than 1e-12."""
    theta = np.where(item, theta, 0.0)
    best = np.zeros(len(theta))
    for mask in masks:
        val = 0.0
        for j in _mask_options(mask):
            val = val + phi[mask, j] * theta[:, j]
        best = np.where(val > best + _TOL, val, best)
    return best


def _mnl_rows(w, budget, theta, item):
    """``mnl_best`` on every row at once: the prefix rule on rows with at most
    ``budget`` items, Dinkelbach on the rest."""
    if budget is UNBOUNDED or budget >= theta.shape[1]:
        return _mnl_prefix_rows(w, theta, item)[0]
    few = item.sum(axis=1) <= budget
    val = np.empty(len(theta))
    val[few] = _mnl_prefix_rows(w, theta[few], item[few])[0]
    val[~few] = _dinkelbach_rows(w, budget, theta[~few], item[~few])
    return val


# The two rules below repeat ``mnl_best``'s floating-point operations in its
# order, so their values equal the scalar oracle's bit for bit.


def _mnl_prefix_rows(w, theta, item):
    """The theta-ordered prefixes: a stable descending sort (ties keep option
    order, non-items last at -inf), sums in that order with the denominator
    from 1.0, and a longer prefix winning only by more than 1e-12.  Returns
    each row's (value, prefix length, sort order): the chosen options are
    ``order[:length]``."""
    theta = np.where(item, theta, -np.inf)
    order = np.argsort(-theta, axis=1, kind="stable")
    theta, w = np.take_along_axis(theta, order, 1), w[order]
    best, num, den = np.zeros(len(theta)), np.zeros(len(theta)), np.ones(len(theta))
    size = np.zeros(len(theta), dtype=np.int64)
    with np.errstate(invalid="ignore"):  # -inf * 0 on a zero-weight non-item: NaN never wins
        for k in range(theta.shape[1]):
            num = num + theta[:, k] * w[:, k]
            den = den + w[:, k]
            val = num / den  # -inf (or NaN) once past the items
            better = val > best + _TOL
            best = np.where(better, val, best)
            size = np.where(better, k + 1, size)
    return best, size, order


def _dinkelbach_rows(w, budget, theta, item):
    """Under a binding budget: from z = 0, keep the ``budget`` items of
    theta > z with the largest w (theta - z) (stable), and move z to their
    ratio while it rises by more than 1e-12."""
    z, live = np.zeros(len(theta)), np.arange(len(theta))
    while live.size:
        t, zl = theta[live], z[live, None]
        key = np.where(item[live] & (t > zl), w * (zl - t), np.inf)
        top = np.argsort(key, axis=1, kind="stable")[:, :budget]
        ok = np.take_along_axis(key, top, 1) < np.inf
        tw = np.where(ok, np.take_along_axis(t, top, 1) * w[top], 0.0)
        wt = np.where(ok, w[top], 0.0)
        num, den = np.zeros(len(live)), np.zeros(len(live))
        for k in range(top.shape[1]):
            num, den = num + tw[:, k], den + wt[:, k]
        ratio = num / (1.0 + den)
        up = ratio > zl[:, 0] + _TOL
        z[live[up]] = ratio[up]
        live = live[up]
    return z
