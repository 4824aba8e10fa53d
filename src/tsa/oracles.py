"""Single-agent weighted assortment oracles and constrained demand functions.

The weighted problem is max over S (|S| <= budget) of sum_{j in S} theta_j *
phi(j, S).  MNL has one exact oracle, ``mnl_best``, shared with the exact DPs:
the best theta-ordered prefix when unconstrained, and under a cardinality
budget Dinkelbach's iteration on the ratio z, each step keeping the K largest
positive w_j (theta_j - z) (Rusmevichientong, Shen & Shmoys 2010).  Every other
model is solved by exhaustive enumeration up to universe size 20; beyond that
the oracle refuses rather than approximate silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import UnsupportedOracleError
from .instances import UNBOUNDED, ChoiceSpec, is_mnl

ENUMERATION_LIMIT = 20
_TOL = 1e-12
_THETA = itemgetter(0)


@dataclass(frozen=True)
class OracleResult:
    assortment: frozenset
    value: float


def _weighted_value(model: ChoiceSpec, theta: Sequence[float], s: frozenset) -> float:
    return sum(theta[j] * model.prob(j, s) for j in s)


def _enumerate_best(model: ChoiceSpec, theta, candidates, budget) -> OracleResult:
    """Exhaustive search; ties broken by smallest cardinality then lexicographic."""
    best_set, best_val = frozenset(), 0.0
    kmax = len(candidates) if budget is UNBOUNDED else min(budget, len(candidates))
    for k in range(1, kmax + 1):
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
                             budget=UNBOUNDED, ground: Optional[Iterable[int]] = None) -> OracleResult:
    """Maximize sum_{j in S} theta_j * phi(j, S) over S subseteq ground, |S| <= budget."""
    ground = sorted(ground) if ground is not None else list(range(model.num_options))
    if any(theta[j] < -_TOL for j in ground):
        raise ValueError("theta must be componentwise nonnegative")
    if not is_mnl(model):
        if len(ground) > ENUMERATION_LIMIT:
            raise UnsupportedOracleError(
                f"no exact oracle for {type(model).__name__} with {len(ground)} options")
        return _enumerate_best(model, theta, ground, budget)
    w = model.weights
    value, chosen = mnl_best([(theta[j], w[j], j) for j in ground if w[j] > 0 and theta[j] > 0],
                             budget)
    return OracleResult(frozenset(j for _, _, j in chosen), value)


def constrained_demand(model: ChoiceSpec, ground: Iterable[int], budget=UNBOUNDED) -> OracleResult:
    """f^K(ground): best demand over sub-assortments of ``ground`` of size <= K."""
    ground = frozenset(ground)
    if budget is not UNBOUNDED and budget < 1:
        raise ValueError("budget must be >= 1 or unbounded")
    if budget is UNBOUNDED:
        return OracleResult(ground, model.demand(ground))
    if is_mnl(model):
        # Optimal set keeps the K largest positive weights (Lemma: f^K = W/(1+W)).
        ranked = sorted((j for j in ground if model.weights[j] > 0),
                        key=lambda j: (-model.weights[j], j))[:budget]
        s = frozenset(ranked)
        w = sum(model.weights[j] for j in s)
        return OracleResult(s, w / (1.0 + w))
    if len(ground) > ENUMERATION_LIMIT:
        raise UnsupportedOracleError(
            f"no exact constrained demand for {type(model).__name__} with {len(ground)} options")
    theta = [1.0] * model.num_options
    return _enumerate_best(model, theta, sorted(ground), budget)
