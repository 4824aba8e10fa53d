"""Adaptive approximation policies: arbitrary-order greedy, the sampling
side-selector, and the coin-toss fully-adaptive policy.

Greedy processes the initiating side in a fixed order; each step shows the
assortment maximizing the sum over displayed responders of (marginal backlog
demand) * (choice probability), via the single-agent weighted oracle.  The
guarantee does not depend on the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolationError, SizeRefusalError
from .instances import UNBOUNDED, Instance, Tabular, is_mnl
from .oracles import (_mnl_prefix_rows, best_weighted_assortment, constrained_demand,
                      demand_table, prob_table)
from .policies import PolicyAction, PolicyState, monte_carlo
from .util import check_deadline


class GreedyOneSidedPolicy:
    """Arbitrary-order greedy for one initiating side.

    Marginals use the responding side's demand functions (budget-constrained
    demand when the responder carries a budget); the displayed assortment
    respects the initiating agent's budget.  Each responder then shows
    ``constrained_demand``'s set of its backlog: the backlog itself with no
    budget, else its best subset within the budget.
    """

    def __init__(self, instance: Instance, side: str, order: Optional[Sequence[int]] = None):
        self.instance = instance
        self.side = side
        self.resp_side = "S" if side == "C" else "C"
        ninit = instance.side_size(side)
        self.order = list(order) if order is not None else list(range(ninit))
        if sorted(self.order) != list(range(ninit)):
            raise ValueError("order must permute the initiating side")
        self.tag = "C-OA" if side == "C" else "S-OA"

    def _marginals(self, state: PolicyState, nresp: int, initiator: int):
        inst = self.instance
        theta = [0.0] * nresp
        for j in range(nresp):
            model = inst.model(self.resp_side, j)
            k = inst.budget(self.resp_side, j)
            backlog = frozenset(state.backlogs[self.resp_side, j])
            base = constrained_demand(model, backlog, k).value
            grown = constrained_demand(model, backlog | {initiator}, k).value
            theta[j] = max(grown - base, 0.0)
        return theta

    def action(self, state: PolicyState) -> PolicyAction:
        inst = self.instance
        nresp = inst.side_size(self.resp_side)
        for a in self.order:
            if (self.side, a) not in state.chosen:
                theta = self._marginals(state, nresp, a)
                res = best_weighted_assortment(inst.model(self.side, a), theta,
                                               inst.budget(self.side, a))
                return PolicyAction((self.side, a), res.assortment)
        for b in range(nresp):
            agent = (self.resp_side, b)
            if agent not in state.chosen:
                shown = constrained_demand(inst.model(*agent), state.backlogs[agent], inst.budget(*agent))
                return PolicyAction(agent, shown.assortment)
        raise ContractViolationError("all agents processed")

    def batch_matches(self, uniforms: np.ndarray) -> np.ndarray:
        """Matches of one run per row of ``uniforms`` (runs, n + m): the draws
        a run makes in processing order, one per initiator in ``order`` and
        then one per responder.  MNL markets only, with or without budgets.

        A run's display depends only on its history, the responder each
        earlier initiator picked, so each step computes one display per
        distinct history (``_display_probs``, the rule ``exact_greedy_value``
        weighs by probability, summed into ``_sample_choice``'s cumulative
        probabilities) and each run compares its draw with its history's row;
        runs that pick alike move on to the same child history.  A history
        carries each responder's backlog weight sum W, worth W / (1 + W); a
        pick moves the picked responder's sum to its grown value.  With no
        budget, a grown sum is the backlog's plus the initiator's weight: the
        additions a run makes on the scalar path, in processing order.  Under
        budgets a history also carries each backlog's members, and a sum is
        ``constrained_demand``'s: the K largest-weight members (ties to the
        lower id), added in id order.

        Weight sums run in processing order (an unbudgeted backlog) or in id
        order (a budgeted backlog, a display), where the scalar path sums a
        set in its iteration order: the same for ids below 8 (in ascending
        processing order, for an unbudgeted backlog), else equal up to the
        last bit of a sum of three or more weights.  A responder matches with
        W / (1 + W), where the scalar path adds its shown members' choice
        probabilities in id order: equal up to the last bit."""
        v, w = self.instance.require_mnl_weights("batched greedy")
        resp_w = w if self.side == "C" else v  # resp_w[j, i]
        nresp, ninit = resp_w.shape
        runs = len(uniforms)
        if not (ninit and nresp):
            return np.zeros(runs, dtype=np.int64)
        hist = np.zeros(runs, dtype=np.int64)  # each run's history
        sums = np.zeros((1, nresp))  # per history: each responder's backlog weight sum
        budgeted = self.instance.constrained
        if budgeted:
            member = np.zeros((1, nresp, ninit), dtype=bool)  # per history: the backlogs
            by_weight = np.argsort(-resp_w, axis=1, kind="stable")[None]  # ties to the lower id
            budgets = [self.instance.budget(self.resp_side, j) for j in range(nresp)]
            keep = np.array([[ninit if k is UNBOUNDED else k] for k in budgets])
        for t, i in enumerate(self.order):
            if budgeted:
                grown = _kept_sums(resp_w, by_weight, keep, member | (np.arange(ninit) == i))
            else:
                grown = sums + resp_w[:, i]
            theta = np.maximum(grown / (1.0 + grown) - sums / (1.0 + sums), 0.0)
            probs = _display_probs(self.instance.model(self.side, i), self.instance.budget(self.side, i), theta)
            # _sample_choice: the first option, in ascending id order, whose
            # cumulative choice probability exceeds the draw.  The rows do not
            # decrease, so that is the count of entries at most the draw, and
            # nresp when there is none.
            pick = (np.cumsum(probs, axis=1)[hist] <= uniforms[:, t, None]).sum(axis=1)
            child, hist = np.unique(hist * (nresp + 1) + pick, return_inverse=True)
            parent, pick = np.divmod(child, nresp + 1)
            chose = np.flatnonzero(pick < nresp)
            sums = sums[parent]
            sums[chose, pick[chose]] = grown[parent[chose], pick[chose]]
            if budgeted:
                member = member[parent]
                member[chose, pick[chose], i] = True
        # Each responder shows its best backlog subset, all of whom chose it,
        # so any choice is a match: it matches with its demand W / (1 + W).
        return (uniforms[:, ninit:] < (sums / (1.0 + sums))[hist]).sum(axis=1)


def _kept_sums(resp_w, by_weight, keep, member) -> np.ndarray:
    """``constrained_demand``'s MNL weight sum per (history, responder j) of
    backlogs ``member`` (histories, responders, initiators): the weights of
    the keep[j] members first in ``by_weight`` order, which a member is when
    at most keep[j] members come up to it there, added in id order one column
    at a time (``np.sum`` would add pairwise)."""
    ranked = np.take_along_axis(member, by_weight, axis=2)
    kept = np.zeros_like(member)
    np.put_along_axis(kept, by_weight, ranked & (np.cumsum(ranked, axis=2, dtype=np.int32) <= keep), axis=2)
    total = np.zeros(member.shape[:2])
    for i in range(member.shape[2]):
        total = total + np.where(kept[:, :, i], resp_w[:, i], 0.0)
    return total


def _display_probs(model, budget, theta: np.ndarray) -> np.ndarray:
    """Each row's choice probabilities, in responder id order, of one
    initiator's display (``best_weighted_assortment``) at marginals ``theta``."""
    if budget is UNBOUNDED and is_mnl(model):
        # mnl_best's display on every row at once: the best theta-ordered
        # prefix of the options with theta > 0 and w > 0.
        w = np.array(model.weights)
        _, size, order = _mnl_prefix_rows(w, theta, (theta > 0.0) & (w > 0.0))
        shown = np.zeros(theta.shape, dtype=bool)
        shown[np.arange(len(theta))[:, None], order] = np.arange(theta.shape[1]) < size[:, None]
        shown_w = np.where(shown, w, 0.0)
        return shown_w / (1.0 + np.cumsum(shown_w, axis=1)[:, -1:])
    probs = np.zeros(theta.shape)
    for r, row in enumerate(theta.tolist()):
        s = best_weighted_assortment(model, row, budget).assortment
        for j in s:
            probs[r, j] = model.prob(j, s)
    return probs


# The largest initiating side whose greedy value is computed exactly.
MAX_EXACT_SIDE = 8
_BLOCK = 1024  # the most histories valued by one display call


def exact_greedy_value(instance: Instance, side: str, order: Optional[Sequence[int]] = None) -> float:
    """Exact expected matches of greedy on ``side``: the sum, over steps and
    histories, of a history's probability times the step's expected marginal
    gain sum_j p_j (F_j[mask_j + i] - F_j[mask_j]), with F_j responder j's
    demand table and p the display's choice probabilities (``_display_probs``,
    the rule ``batch_matches`` samples from).

    A history, the responder each earlier initiator picked, is a row of
    backlog masks, and no two share one; they are expanded depth first in
    blocks of at most ``_BLOCK`` rows, and the deadline is polled once per
    block.  A pick of probability 0, or an outside option of at most 1e-15,
    starts no child history."""
    ninit = instance.side_size(side)
    if ninit > MAX_EXACT_SIDE:
        raise SizeRefusalError(f"exact greedy evaluation refuses initiating side {ninit} > {MAX_EXACT_SIDE}")
    policy = GreedyOneSidedPolicy(instance, side, order)
    nresp = instance.side_size(policy.resp_side)
    if ninit == 0 or nresp == 0:
        return 0.0
    F = np.array([demand_table(instance.model(policy.resp_side, j), ninit, instance.budget(policy.resp_side, j))
                  for j in range(nresp)])
    ids, total, stack = np.arange(nresp), 0.0, [(0, np.zeros((1, nresp), dtype=np.int64), np.ones(1))]
    while stack:
        check_deadline()
        t, masks, reach = stack.pop()
        i = policy.order[t]
        gain = F[ids, masks | 1 << i] - F[ids, masks]
        probs = _display_probs(instance.model(side, i), instance.budget(side, i), np.maximum(gain, 0.0))
        total += reach @ (probs * gain).sum(axis=1)
        if t + 1 == ninit:
            continue
        out = 1.0 - probs.sum(axis=1)
        row, pick = np.nonzero(probs > 0.0)
        stay = np.flatnonzero(out > 1e-15)
        child = np.concatenate([masks[row], masks[stay]])
        child[np.arange(len(row)), pick] |= 1 << i
        reach = np.concatenate([reach[row] * probs[row, pick], reach[stay] * out[stay]])
        stack += [(t + 1, child[k:k + _BLOCK], reach[k:k + _BLOCK]) for k in range(0, len(child), _BLOCK)]
    return float(total)


# ---------------------------------------------------------------------------
# Sampling machinery


@dataclass(frozen=True)
class SamplingConfig:
    """Accuracy targets for the side-selection estimates; runs_override skips
    the phi_min-based count (labelled heuristic-T in metadata)."""

    epsilon: float = 0.1
    delta: float = 0.1
    runs_override: Optional[int] = None

    def __post_init__(self):
        # epsilon = 1 is admitted as the degenerate zero-accuracy boundary.
        if not (0 < self.epsilon <= 1 and 0 < self.delta < 1):
            raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
        if self.runs_override is not None and self.runs_override < 1:
            raise ValueError("runs_override must be >= 1")


def phi_min(instance: Instance) -> Optional[float]:
    """Smallest nonzero max-assortment choice probability across agents and
    options; None when no pair has positive probability."""
    best = None
    for side, count, opp in (("C", instance.n, instance.m), ("S", instance.m, instance.n)):
        for a in range(count):
            model = instance.model(side, a)
            for p in _max_choice_probs(model, opp):
                if p > 0.0:
                    best = p if best is None else min(best, p)
    return best


def _max_choice_probs(model, n_opts: int):
    """max_S phi(j, S) per option j."""
    if is_mnl(model):
        return [w / (1.0 + w) for w in model.weights]
    if isinstance(model, Tabular):
        out = [0.0] * n_opts
        for s, (probs, _) in model.rows.items():
            for j, p in probs.items():
                out[j] = max(out[j], p)
        return out
    if n_opts <= 16:
        table = prob_table(model, n_opts)
        return list(table.max(axis=0))
    # Weak-substitutable variants peak at singletons.
    return [model.prob(j, frozenset({j})) for j in range(n_opts)]


def sample_count(cfg: SamplingConfig, phi_min_value: float) -> int:
    """T = ceil(3 / (eps^2 * phi_min) * ln(2/delta)) independent greedy runs."""
    if phi_min_value is None or phi_min_value <= 0:
        raise ValueError("sample_count needs phi_min > 0; use runs_override instead")
    return math.ceil(3.0 / (cfg.epsilon ** 2 * phi_min_value) * math.log(2.0 / cfg.delta))


_RUNS_CAP = 100_000


def effective_runs(instance: Instance, cfg: SamplingConfig):
    """(runs, heuristic_flag): derived T when available and practical, else the
    override (default 100)."""
    if cfg.runs_override is not None:
        return cfg.runs_override, True
    pm = phi_min(instance)
    if pm is None or pm <= 0:
        return 100, True
    t = sample_count(cfg, pm)
    if t > _RUNS_CAP:
        return 100, True
    return t, False


class CommittedPolicy:
    """Wraps a committed one-sided greedy run with selection metadata."""

    def __init__(self, inner, tag: str, metadata: dict):
        self._inner = inner
        self.tag = tag
        self.metadata = metadata

    def action(self, state: PolicyState) -> PolicyAction:
        return self._inner.action(state)

    def batch_matches(self, uniforms: np.ndarray) -> np.ndarray:
        return self._inner.batch_matches(uniforms)


def sampling_side_selector(instance: Instance, cfg: SamplingConfig = SamplingConfig(),
                           seed: int = 0) -> CommittedPolicy:
    """Estimate each side's greedy value with T independent runs (side k's run
    r on stream (seed, k, r)), then commit deterministically to the higher
    estimate and run greedy there."""
    runs, heuristic = effective_runs(instance, cfg)
    estimates = {}
    for k, side in enumerate(("C", "S")):
        pol = GreedyOneSidedPolicy(instance, side)
        estimates[side] = monte_carlo(instance, pol, runs, (seed, k)).mean
    side = "C" if estimates["C"] >= estimates["S"] else "S"
    meta = {"runs": runs, "heuristic_T": heuristic,
            "estimate_C": estimates["C"], "estimate_S": estimates["S"],
            "side": side, "seed": seed}
    return CommittedPolicy(GreedyOneSidedPolicy(instance, side),
                           "C-OA" if side == "C" else "S-OA", meta)


def cointoss_fully_adaptive(instance: Instance, seed: int = 0) -> CommittedPolicy:
    """Fair-coin side selection followed by greedy on the drawn side; the coin
    is the policy's auxiliary random input, realized from the seed."""
    coin = np.random.default_rng([seed, 0xC0]).random()
    side = "C" if coin < 0.5 else "S"
    meta = {"side": side, "coin": coin, "seed": seed}
    return CommittedPolicy(GreedyOneSidedPolicy(instance, side), "FA", meta)


def cointoss_exact_value(instance: Instance, known: Optional[dict] = None) -> float:
    """Exact expected value of the coin-toss policy: the average of the two
    sides' exact greedy values.  ``known`` maps a side to its exact greedy
    value when the caller already has it."""
    vc, vs = (known[side] if known and side in known else
              exact_greedy_value(instance, side)
              for side in ("C", "S"))
    return 0.5 * (vc + vs)
