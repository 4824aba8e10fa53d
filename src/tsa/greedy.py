"""Adaptive approximation policies: arbitrary-order greedy, the sampling
side-selector, and the coin-toss fully-adaptive policy.

Greedy processes the initiating side in a fixed order; each step shows the
assortment maximizing the sum over displayed responders of (marginal backlog
demand) * (choice probability), via the single-agent weighted oracle.  The
guarantee does not depend on the order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolationError, refuse_past
from .instances import UNBOUNDED, Instance, is_mnl
from .oracles import (_mnl_prefix_rows, best_weighted_assortment, constrained_demand,
                      demand_tables, kept_sums, prob_rows)
from .policies import PolicyAction, PolicyState, monte_carlo
from .util import check_deadline


# The most (history, responder) or (run, responder) entries the batched
# kernel holds in one temporary.
_ENTRIES = 1 << 13


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

    def batch_matches(self, draws) -> np.ndarray:
        """Matches of ``len(draws)`` runs, where each ``next(draws)`` gives
        every run's next draw (``policies.Streams``): one per initiator in
        ``order``, then one per responder.  MNL markets only, with or without
        budgets.

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
        budgets a history also carries each backlog as a mask of initiators
        (Python ints past 63 initiators), and a sum is ``kept_sums``' of the
        grown mask: the K largest-weight members (ties to the lower id), added
        in id order.  Displays are valued, and draws compared,
        in blocks of ``_ENTRIES`` entries; the deadline is polled once per
        step.

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
        runs = len(draws)
        if not (ninit and nresp):
            return np.zeros(runs, dtype=np.int64)
        hist = np.zeros(runs, dtype=np.int64)  # each run's history
        order, start = np.arange(runs), [0, runs]  # history h's runs: order[start[h]:start[h + 1]]
        # Per responder j, j's backlog weight sum in each history: one array
        # per responder lets a step re-index them one at a time.
        sums = [np.zeros(1) for _ in range(nresp)]
        budgeted = self.instance.constrained
        if budgeted:
            masks = np.zeros((1, nresp), dtype=np.int64 if ninit < 64 else object)  # per history
            budgets = [self.instance.budget(self.resp_side, j) for j in range(nresp)]
        rows = max(1, _ENTRIES // nresp)
        for i in self.order:
            check_deadline()
            model, budget = self.instance.model(self.side, i), self.instance.budget(self.side, i)
            u, pick = next(draws), np.empty(runs, dtype=np.int64)
            if budgeted:
                kept = np.empty((len(masks), nresp))  # per history: each responder's grown sum
            for a in range(0, len(sums[0]), rows):
                block = slice(a, a + rows)
                base = np.stack([col[block] for col in sums], axis=1)
                if budgeted:
                    grown = kept[block] = kept_sums(resp_w, budgets, masks[block] | 1 << i)
                else:
                    grown = base + resp_w[:, i]
                theta = np.maximum(grown / (1.0 + grown) - base / (1.0 + base), 0.0)
                # Each temporary goes once used: beside a pass's per-run
                # arrays, a step holds one sums table and one block.
                del base, grown
                cum = np.cumsum(_display_probs(model, budget, theta), axis=1)
                del theta
                # _sample_choice: the first option, in ascending id order,
                # whose cumulative choice probability exceeds the draw.  The
                # rows do not decrease, so that is the count of entries at
                # most the draw, and nresp when there is none.
                stop = start[min(a + rows, len(sums[0]))]
                for b in range(start[a], stop, rows):
                    r = order[b:min(b + rows, stop)]
                    pick[r] = (cum[hist[r] - a] <= u[r, None]).sum(axis=1)
                del cum
            del u
            child, hist, order, start = _group(hist * (nresp + 1) + pick)
            parent, pick = np.divmod(child, nresp + 1)
            del child
            chose = np.flatnonzero(pick < nresp)
            pick = pick[chose]
            if budgeted:
                grown = kept[parent[chose], pick]
                del kept
                masks = masks[parent]
                masks[chose, pick] |= 1 << i
            for j in range(nresp):
                at = pick == j
                sums[j] = sums[j][parent]
                if budgeted:
                    sums[j][chose[at]] = grown[at]
                else:
                    sums[j][chose[at]] += resp_w[j, i]
            del parent, chose, pick
        # Each responder shows its best backlog subset, all of whom chose it,
        # so any choice is a match: it matches with its demand W / (1 + W).
        matches = np.zeros(runs, dtype=np.int64)
        for col in sums:
            matches += next(draws) < (col / (1.0 + col))[hist]
        return matches


def _group(key):
    """``np.unique(key, return_inverse=True)`` and each distinct key's
    positions: those of the k-th distinct key are order[start[k]:start[k + 1]]."""
    order = np.argsort(key)
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    start = np.append(np.flatnonzero(first), len(key))
    return key[first], inverse, order, start


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
    return prob_rows(model, theta.shape[1],
                     [best_weighted_assortment(model, row, budget).assortment for row in theta.tolist()])


_MAX_HISTORIES = 1 << 24  # the most predicted histories the exact walk admits
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
    starts no child history.  The walk is refused (``SizeRefusalError``),
    before any table is built, when its predicted histories, the sum over
    t < initiators of (responders + 1)^t, exceed ``_MAX_HISTORIES`` = 2^24:
    8x8 and 8x9 are walked, 8x10 and 9x9 refused."""
    policy = GreedyOneSidedPolicy(instance, side, order)
    ninit, nresp = instance.side_size(side), instance.side_size(policy.resp_side)
    histories = sum((nresp + 1) ** t for t in range(ninit))
    refuse_past("exact greedy evaluation", histories, _MAX_HISTORIES, "histories")
    if ninit == 0 or nresp == 0:
        return 0.0
    F = demand_tables(instance, side)
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


class CommittedPolicy:
    """Wraps a committed one-sided greedy run with selection metadata."""

    def __init__(self, inner, tag: str, metadata: dict):
        self._inner = inner
        self.tag = tag
        self.metadata = metadata

    def action(self, state: PolicyState) -> PolicyAction:
        return self._inner.action(state)

    def batch_matches(self, draws) -> np.ndarray:
        return self._inner.batch_matches(draws)


def sampling_side_selector(instance: Instance, runs: int, seed: int = 0) -> CommittedPolicy:
    """Estimate each side's greedy value with ``runs`` independent runs (side
    k's run r on stream (seed, k, r)), then commit deterministically to the
    higher estimate and run greedy there."""
    estimates = {}
    for k, side in enumerate(("C", "S")):
        pol = GreedyOneSidedPolicy(instance, side)
        estimates[side] = monte_carlo(instance, pol, runs, (seed, k)).mean
    side = "C" if estimates["C"] >= estimates["S"] else "S"
    meta = {"runs": runs, "estimate_C": estimates["C"], "estimate_S": estimates["S"],
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


def cointoss_exact_value(instance: Instance) -> float:
    """Exact expected value of the coin-toss policy: the average of the two
    sides' exact greedy values, refused where either side's walk is."""
    return 0.5 * (exact_greedy_value(instance, "C") + exact_greedy_value(instance, "S"))
