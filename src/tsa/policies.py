"""Policy abstraction, stochastic simulation, and exact expected-match evaluation.

A policy is a deterministic map from the visible state to the next action
(agent to process, assortment to display); randomized behaviour is realized by
policies that consumed auxiliary randomness at construction time.  A match is
a mutual selection: i chose j and j chose i, in either processing order.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ContractViolationError, refuse_past
from .instances import UNBOUNDED, Instance
from .oracles import _mask_options, demand_tables, prob_rows
from .util import check_deadline

Agent = Tuple[str, int]  # ("C", i) or ("S", j)


@dataclass
class PolicyAction:
    agent: Agent
    assortment: frozenset


@dataclass
class PolicyState:
    """``chosen`` maps each agent that has moved to its choice, None for the
    outside option; ``backlogs`` maps an agent to the opposite-side ids that
    chose it.  ``PolicyState(instance)`` is the state before any move."""

    instance: Instance
    chosen: dict = field(default_factory=dict)
    backlogs: dict = field(default_factory=lambda: defaultdict(set))
    matches: int = 0

    def done(self) -> bool:
        return len(self.chosen) == self.instance.n + self.instance.m


@dataclass
class SimulationResult:
    mean: float
    half_width: float
    runs: int
    seed: int | tuple


def _sample_choice(model, assortment: frozenset, rng) -> Optional[int]:
    """Draw one choice from S u {outside}; options scanned in ascending id order."""
    u = rng.random()
    acc = 0.0
    for j in sorted(assortment):
        acc += model.prob(j, assortment)
        if u < acc:
            return j
    return None


def _apply_choice(state: PolicyState, agent: Agent, choice: Optional[int]) -> None:
    state.chosen[agent] = choice
    if choice is None:
        return
    side, idx = agent
    other: Agent = ("S" if side == "C" else "C", choice)
    if state.chosen.get(other) == idx:
        state.matches += 1
    state.backlogs[other].add(idx)


def _validate_action(state: PolicyState, action: PolicyAction, tag: str = "FA") -> None:
    agent, s = action.agent, action.assortment
    side, idx = agent
    inst = state.instance
    if side not in ("C", "S") or not (0 <= idx < inst.side_size(side)):
        raise ContractViolationError(f"unknown agent {agent}")
    if agent in state.chosen:
        raise ContractViolationError(f"agent {agent} already processed")
    _check_assortment(inst, agent, s)
    if tag and tag[0] in ("C", "S") and tag[1] == "-":
        first = tag[0]
        if side != first:
            done_first = sum(1 for a in state.chosen if a[0] == first)
            if done_first < inst.side_size(first):
                raise ContractViolationError(
                    f"{tag} policy processed {agent} before finishing side {first}")


def _check_assortment(instance: Instance, agent: Agent, s) -> None:
    """Refuse an option outside the opposite side, or a size over the agent's budget."""
    opposite = instance.m if agent[0] == "C" else instance.n
    if any(not (0 <= j < opposite) for j in s):
        raise ContractViolationError(f"assortment {sorted(s)} of {agent} outside opposite side")
    k = instance.budget(*agent)
    if k is not UNBOUNDED and len(s) > k:
        raise ContractViolationError(f"assortment of size {len(s)} exceeds budget {k} for {agent}")


def simulate_once(instance: Instance, policy, rng) -> Tuple[int, list]:
    """Run the policy once; returns (matches, trace records)."""
    state = PolicyState(instance)
    trace = []
    tag = getattr(policy, "tag", "FA")
    while not state.done():
        action = policy.action(state)
        _validate_action(state, action, tag)
        side, idx = action.agent
        model = instance.model(side, idx)
        choice = _sample_choice(model, action.assortment, rng)
        _apply_choice(state, action.agent, choice)
        trace.append({"step": len(trace), "agent": list(action.agent),
                      "assortment": sorted(action.assortment),
                      "choice": choice})
    return state.matches, trace


def dump_trace(trace: list, fh) -> None:
    """One JSON record per action, newline separated."""
    for rec in trace:
        fh.write(json.dumps(rec, sort_keys=True))
        fh.write("\n")


# The most runs a batched Monte Carlo hands its kernel in one call, a pass:
# an estimate of up to 16,384 runs (the pipelines' 10,000 among them) is one
# pass, whose runs share each history's display.  A pass keeps 40 bytes a run
# (a stream's PCG state and a run's history) besides its per-history tables:
# a 10,000-run estimate on a random 10x10 market peaks at 1.9 MB
# (tracemalloc), and a longer simulation runs pass after pass.
_PASS = 1 << 14
# Streams seeded at once: SeedSequence hashing takes about 420 bytes a stream
# in temporaries, which a block bounds; the deadline is polled per block.
_SEED_BLOCK = 2000

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_M32 = 0xFFFFFFFF
_S16, _S32, _LOW32, _ONE = np.uint32(16), np.uint64(32), np.uint64(_M32), np.uint64(1)


def _seed_words(x: int) -> list:
    """SeedSequence's 32-bit entropy words of one seed entry, low word first."""
    if x < 0:
        raise ValueError(f"expected non-negative seed entries, got {x}")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _pcg_step(hi, lo, inc_hi, inc_lo) -> None:
    """state * multiplier + inc mod 2**128, in place on the state's (high,
    low) uint64 halves, with three stream-length temporaries.  The 128-bit
    product of the low halves comes from their 32-bit pieces a1:a0 and b1:b0:
    a1 b1 2^64 + (a0 b1 + a1 b0) 2^32 + a0 b0."""
    mhi, mlo = _PCG_MULT
    b0, b1 = mlo & _LOW32, mlo >> _S32
    a1 = lo >> _S32
    hi *= mlo
    hi += lo * mhi
    hi += a1 * b1
    lo &= _LOW32  # a0
    mid = lo * b1  # a0 * b1
    hi += mid >> _S32
    mid &= _LOW32
    a1 *= b0
    hi += a1 >> _S32
    a1 &= _LOW32
    mid += a1
    lo *= b0  # a0 * b0
    mid += lo >> _S32
    hi += mid >> _S32
    lo &= _LOW32
    mid <<= _S32
    lo |= mid
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo  # the carry out of the low half


def _seed_streams(prefix: list, lo: int, hi: int) -> np.ndarray:
    """Rows (state high, state low, increment high, increment low) of the
    PCG64 generator of ``np.random.default_rng(prefix + [r])``, column r - lo
    for lo <= r < hi < 2**32: numpy's SeedSequence hashing and PCG64 seeding,
    carried out for all streams at once."""
    count = hi - lo
    entropy = [np.full(count, w, dtype=np.uint32) for x in prefix for w in _seed_words(x)]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> _S16)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> _S16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, uint64), then PCG64's seeding: two steps around
    # adding the seed to the state.
    const, words = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        words.append((value ^ (value >> _S16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * k] | (words[2 * k + 1] << _S32) for k in range(4))
    inc_hi, inc_lo = (seq_hi << _ONE) | (seq_lo >> np.uint64(63)), (seq_lo << _ONE) | _ONE
    state_lo = inc_lo + seed_lo
    state_hi = inc_hi + seed_hi + (state_lo < inc_lo)
    _pcg_step(state_hi, state_lo, inc_hi, inc_lo)
    return np.array([state_hi, state_lo, inc_hi, inc_lo])


class Streams:
    """The draws of ``np.random.default_rng(prefix + [r]).random()`` for
    lo <= r < hi, one draw of every stream at a time: ``len`` is the number
    of streams and ``next`` returns each stream's next value (PCG64's XSL-RR
    output as Generator's 53-bit double).  Only the generators' states are
    kept, 32 bytes a stream; they are seeded ``_SEED_BLOCK`` at a time, with
    the deadline polled before each block."""

    def __init__(self, prefix: list, lo: int, hi: int):
        self._state = np.empty((4, hi - lo), dtype=np.uint64)
        for a in range(lo, hi, _SEED_BLOCK):
            check_deadline()
            b = min(a + _SEED_BLOCK, hi)
            self._state[:, a - lo:b - lo] = _seed_streams(prefix, a, b)

    def __len__(self) -> int:
        return self._state.shape[1]

    def __next__(self) -> np.ndarray:
        hi, lo = self._state[:2]
        _pcg_step(*self._state)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        left = np.uint64(64) - rot
        left &= np.uint64(63)
        np.left_shift(x, left, out=left)
        x >>= rot
        x |= left
        x >>= np.uint64(11)
        return x * (1.0 / 9007199254740992.0)


def monte_carlo(instance: Instance, policy, runs: int, seed: int | tuple) -> SimulationResult:
    """Mean matches with a normal-approximation 95% CI; run r uses stream
    (*seed, r) for a tuple ``seed`` and (seed, r) for an int.  A policy with a
    ``batch_matches`` kernel gets up to ``_PASS`` runs' ``Streams`` per call
    on MNL markets, budgeted or not, with the same streams and results
    (greedy's kernel computes one display per distinct history, not one per
    run); any other policy or market runs ``simulate_once`` per run.  The
    deadline is polled before each run, or per seeding block and per kernel
    step."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    prefix = list(seed) if isinstance(seed, tuple) else [seed]
    total = 0
    total_sq = 0
    if hasattr(policy, "batch_matches") and instance.mnl_weights() is not None:
        for lo in range(0, runs, _PASS):
            matches = policy.batch_matches(Streams(prefix, lo, min(lo + _PASS, runs)))
            total += int(matches.sum())
            total_sq += int((matches * matches).sum())
            del matches  # freed before the next pass starts
    else:
        for r in range(runs):
            check_deadline()
            rng = np.random.default_rng(prefix + [r])
            matches, _ = simulate_once(instance, policy, rng)
            total += matches
            total_sq += matches * matches
    mean = total / runs
    var = max(total_sq / runs - mean * mean, 0.0)
    half = 1.96 * math.sqrt(var / runs) if runs > 1 else 0.0
    return SimulationResult(mean, half, runs, seed)


# ---------------------------------------------------------------------------
# Exact evaluators


def static_values(instance: Instance, xc, xs=None) -> np.ndarray:
    """Expected matches of a batch of fully static displays: xc[t, i, j] marks
    that customer i shows supplier j, xs[t, j, i] that supplier j shows
    customer i (the transpose of xc when omitted: a mutual display).  Choices
    are independent, so a pair contributes phi_i(j, S_i) * phi_j(i, C_j), which
    is zero unless both show each other."""
    xc = np.asarray(xc, dtype=bool)
    xs = xc.transpose(0, 2, 1) if xs is None else np.asarray(xs, dtype=bool)
    pc, ps = _side_probs(instance.customer_models, xc), _side_probs(instance.supplier_models, xs)
    i, j = np.nonzero((xc & xs.transpose(0, 2, 1)).any(axis=0))
    return pair_sum((pc[:, i, j] * ps[:, j, i]).T)


def _side_probs(models, display: np.ndarray) -> np.ndarray:
    """phi_a(j, S) for one side's displays display[t, a, :], in that shape.
    Each display is an option mask held as a Python int (any width), and each
    agent's distinct masks go through ``prob_rows`` once."""
    out = np.zeros(display.shape)
    keys = (display @ (1 << np.arange(display.shape[2], dtype=object))).T.tolist()
    for a, model in enumerate(models):
        row = {k: r for r, k in enumerate(dict.fromkeys(keys[a]))}  # distinct masks, first seen first
        found = prob_rows(model, display.shape[2], [frozenset(_mask_options(k)) for k in row])
        out[:, a] = found[[row[k] for k in keys[a]]]
    return out


def pair_sum(products) -> np.ndarray:
    """Fully static values from pair products: products[..., t] is
    phi_i(j, S_i) * phi_j(i, C_j) for a pair (i, j) in pattern t, the pairs on
    the leading axes.  Each value adds them one pair after another in
    row-major order, so pairs that cannot match add an exact 0.0."""
    products = np.ascontiguousarray(products)
    products = products.reshape(math.prod(products.shape[:-1]), products.shape[-1])
    if products.shape[1] == 1:  # numpy sums a lone column pairwise, not in order
        return reduce(np.add, products, np.zeros(1))
    return np.add.reduce(products, axis=0)


def exact_value_static(instance: Instance, customer_assortments, supplier_assortments) -> float:
    """Expected matches of a fully static display; choices are independent so
    only mutually displayed pairs can match."""
    xc = np.zeros((1, instance.n, instance.m), dtype=bool)
    xs = np.zeros((1, instance.m, instance.n), dtype=bool)
    for side, assortments, x in (("C", customer_assortments, xc), ("S", supplier_assortments, xs)):
        assortments = [frozenset(s) for s in assortments]
        if len(assortments) != x.shape[1]:
            raise ValueError(f"need one assortment per agent of side {side}")
        for a, s in enumerate(assortments):
            _check_assortment(instance, (side, a), s)
            x[0, a, sorted(s)] = True
    return float(static_values(instance, xc, xs)[0])


def exact_value_edges(instance: Instance, edges: Iterable[Tuple[int, int]]) -> float:
    """Static value of a mutual edge set: each endpoint displays the other."""
    edges = set(edges)
    s_list = [frozenset(j for (i2, j) in edges if i2 == i) for i in range(instance.n)]
    c_list = [frozenset(i for (i, j2) in edges if j2 == j) for j in range(instance.m)]
    return exact_value_static(instance, s_list, c_list)


# Demand-table entries (responders x 2^initiators) ``exact_value_one_sided_static``
# contracts.  18x18 has 4,718,592; 19x16 and 20x8 reach the limit.  An entry
# costs about 0.05 us for an unbudgeted MNL responder (19x16 in 0.41 s) and
# about 0.2 us under two-way (2, 2) budgets (19x16 in 1.8 s, 14x14 in 0.03 s)
# on one Xeon core.
_MAX_STATIC_EVALUATION = 1 << 23


def exact_value_one_sided_static(instance: Instance, side: str, assortments) -> float:
    """Exact expectation when ``side`` is shown static assortments first and each
    responder then shows ``constrained_demand``'s set of its backlog: the
    backlog itself with no budget, else its best subset within the budget."""
    init_n = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    resp_n = instance.side_size(resp_side)
    refuse_past("one-sided static evaluation", resp_n << init_n, _MAX_STATIC_EVALUATION,
                "demand-table entries")
    assortments = [frozenset(s) for s in assortments]
    if len(assortments) != init_n:
        raise ValueError("need one assortment per initiating agent")
    for a, s in enumerate(assortments):
        _check_assortment(instance, (side, a), s)
    probs = [prob_rows(instance.model(side, i), resp_n, [s]) for i, s in enumerate(assortments)]
    return one_sided_values(demand_tables(instance, side), probs).item()


def one_sided_values(tables, probs) -> np.ndarray:
    """Expected matches of one-sided static displays, for every combination of
    candidates: probs[i][c, j] is the probability that initiating agent i,
    shown its c-th candidate, picks responder j, and tables[j] is responder
    j's ``demand_table`` over the initiators (budget-constrained when it
    carries a budget).  Choices are independent, so responder j is worth
    E[F_j(B_j)] over its random backlog B_j (the multilinear extension of
    F_j).  Shape (len(probs[0]), ..., len(probs[-1])).  The deadline is
    polled once per responder."""
    n = len(probs)
    probs = [np.asarray(q, dtype=float) for q in probs]
    values = np.zeros(tuple(len(q) for q in probs))
    for j, f in enumerate(tables):
        check_deadline()
        # Axis i of the table is bit i of the backlog mask.  Each contraction
        # takes the leading axis and appends initiator i's candidate axis.
        f = f.reshape((2,) * n, order="F")
        for q in probs:
            f = np.tensordot(f, np.stack([1.0 - q[:, j], q[:, j]]), axes=(0, 0))
        values += f
    return values
