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
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ContractViolationError, SizeRefusalError
from .instances import UNBOUNDED, Instance
from .oracles import demand_table
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
    opposite = inst.m if side == "C" else inst.n
    if any(not (0 <= j < opposite) for j in s):
        raise ContractViolationError(f"assortment {sorted(s)} outside opposite side")
    k = inst.budget(side, idx)
    if k is not UNBOUNDED and len(s) > k:
        raise ContractViolationError(f"assortment of size {len(s)} exceeds budget {k} for {agent}")
    if tag and tag[0] in ("C", "S") and tag[1] == "-":
        first = tag[0]
        if side != first:
            done_first = sum(1 for a in state.chosen if a[0] == first)
            if done_first < inst.side_size(first):
                raise ContractViolationError(
                    f"{tag} policy processed {agent} before finishing side {first}")


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


# Runs a batched Monte Carlo hands its kernel at once; the deadline is checked
# between chunks.  Greedy's kernel shares one display among a chunk's runs with
# the same history, so larger chunks share more, but drawing a chunk's streams
# takes about 420 bytes a run.  A `tsa gaps --sizes 10` report process peaks at
# 43.1 MB (ru_maxrss) with 2,000 runs a chunk, against 42.2 MB with 1,000 and
# 45.4 MB with 5,000.
_CHUNK = 2000

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


def _add128(ahi, alo, bhi, blo):
    low = alo + blo
    return ahi + bhi + (low < alo), low


def _pcg_step(hi, lo, inc):
    """state * multiplier + inc mod 2**128, on (high, low) uint64 halves."""
    mhi, mlo = _PCG_MULT
    a0, a1 = lo & _LOW32, lo >> _S32
    b0, b1 = mlo & _LOW32, mlo >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    low = (p00 & _LOW32) | (mid << _S32)
    high = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + hi * mlo + lo * mhi
    return _add128(high, low, *inc)


def _stream_uniforms(prefix: list, lo: int, hi: int, draws: int) -> np.ndarray:
    """Row r - lo holds the first ``draws`` values of
    ``np.random.default_rng(prefix + [r]).random()``, for lo <= r < hi < 2**32:
    numpy's SeedSequence hashing, PCG64 seeding and XSL-RR output and
    Generator's 53-bit doubles, carried out for all streams at once."""
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
    inc = ((seq_hi << _ONE) | (seq_lo >> np.uint64(63)), (seq_lo << _ONE) | _ONE)
    state = _pcg_step(*_add128(*inc, seed_hi, seed_lo), inc)
    out = np.empty((count, draws))
    for d in range(draws):
        state = _pcg_step(*state, inc)
        x, rot = state[0] ^ state[1], state[0] >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, d] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out


def monte_carlo(instance: Instance, policy, runs: int, seed: int | tuple) -> SimulationResult:
    """Mean matches with a normal-approximation 95% CI; run r uses stream
    (*seed, r) for a tuple ``seed`` and (seed, r) for an int.  A policy with a
    ``batch_matches`` kernel gets ``_CHUNK`` runs' draws at a time on MNL
    markets, budgeted or not, with the same streams and results (greedy's
    kernel computes one display per distinct history, not one per run); any
    other policy or market runs ``simulate_once`` per run.  The deadline is
    polled before each run or chunk."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    prefix = list(seed) if isinstance(seed, tuple) else [seed]
    total = 0
    total_sq = 0
    if hasattr(policy, "batch_matches") and instance.mnl_weights() is not None:
        # A run draws exactly one uniform per agent, in processing order.
        draws = instance.n + instance.m
        for lo in range(0, runs, _CHUNK):
            check_deadline()
            uniforms = _stream_uniforms(prefix, lo, min(lo + _CHUNK, runs), draws)
            matches = policy.batch_matches(uniforms)
            total += int(matches.sum())
            total_sq += int((matches * matches).sum())
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
    pc, rc = _choice_probs(instance.customer_models, xc)
    ps, rs = _choice_probs(instance.supplier_models, xs)
    values = np.zeros(len(xc))
    for i, j in np.argwhere((xc & xs.transpose(0, 2, 1)).any(axis=0)).tolist():
        values += pc[rc[:, i], j] * ps[rs[:, j], i]
    return values


def _choice_probs(models, display: np.ndarray):
    """(table, row) for one side's displays display[t, a, :]: table[r, j] is
    phi_a(j, S) for the r-th distinct (agent a, display S), and row[t, a] is
    its row.  ``model.prob`` runs once per distinct pair."""
    batch, count, width = display.shape
    row = np.broadcast_to(np.arange(count), (batch, count))
    distinct = count
    room = max(row.size, 1 << 16)  # the largest key space tabulated at once
    lo = 0
    while lo < width:
        # Append the next options' bits to the row ids, as many as keep the
        # keys within ``room``, and renumber the keys that occur through a
        # table: no sort, and any number of options.
        step = min(width - lo, max(1, (room // max(distinct, 1)).bit_length() - 1))
        key = (row << step) | (display[:, :, lo:lo + step] @ (1 << np.arange(step)))
        seen = np.zeros(distinct << step, dtype=bool)
        seen[key] = True
        row = (np.cumsum(seen) - 1)[key]
        distinct = int(seen.sum())
        lo += step
    example = np.empty(distinct, dtype=np.int64)  # any (t, a) with that row
    example[row.ravel()] = np.arange(row.size)
    t, agents = np.divmod(example, count)
    table = np.zeros((distinct, width))
    for r, (a, flags) in enumerate(zip(agents.tolist(), display[t, agents].tolist())):
        shown = frozenset(j for j, on in enumerate(flags) if on)
        for j in shown:
            table[r, j] = models[a].prob(j, shown)
    return table, row


def exact_value_static(instance: Instance, customer_assortments, supplier_assortments) -> float:
    """Expected matches of a fully static display; choices are independent so
    only mutually displayed pairs can match."""
    xc = np.zeros((1, instance.n, instance.m), dtype=bool)
    xs = np.zeros((1, instance.m, instance.n), dtype=bool)
    for side, name, assortments, x in (("C", "customer", customer_assortments, xc),
                                       ("S", "supplier", supplier_assortments, xs)):
        for a, s in enumerate(assortments):
            s = frozenset(s)
            k = instance.budget(side, a)
            if k is not UNBOUNDED and len(s) > k:
                raise ContractViolationError(f"{name} {a} assortment exceeds budget")
            x[0, a, sorted(s)] = True
    return float(static_values(instance, xc, xs)[0])


def exact_value_edges(instance: Instance, edges: Iterable[Tuple[int, int]]) -> float:
    """Static value of a mutual edge set: each endpoint displays the other."""
    edges = set(edges)
    s_list = [frozenset(j for (i2, j) in edges if i2 == i) for i in range(instance.n)]
    c_list = [frozenset(i for (i, j2) in edges if j2 == j) for j in range(instance.m)]
    return exact_value_static(instance, s_list, c_list)


# The largest initiating side ``exact_value_one_sided_static`` values.
_MAX_STATIC_INITIATING = 18


def exact_value_one_sided_static(instance: Instance, side: str, assortments) -> float:
    """Exact expectation when ``side`` is shown static assortments first and each
    responder then shows ``constrained_demand``'s set of its backlog: the
    backlog itself with no budget, else its best subset within the budget."""
    init_n = instance.side_size(side)
    resp_side = "S" if side == "C" else "C"
    resp_n = instance.side_size(resp_side)
    if init_n > _MAX_STATIC_INITIATING:
        raise SizeRefusalError(f"one-sided static evaluation refuses initiating side {init_n} > "
                               f"{_MAX_STATIC_INITIATING}")
    assortments = [frozenset(s) for s in assortments]
    if len(assortments) != init_n:
        raise ValueError("need one assortment per initiating agent")
    for a, s in enumerate(assortments):
        k = instance.budget(side, a)
        if k is not UNBOUNDED and len(s) > k:
            raise ContractViolationError(f"initiating agent {a} assortment exceeds budget")
    probs = [[[instance.model(side, i).prob(j, s) for j in range(resp_n)]]
             for i, s in enumerate(assortments)]
    return one_sided_values(instance, side, probs).item()


def one_sided_values(instance: Instance, side: str, probs) -> np.ndarray:
    """Expected matches of one-sided static displays initiating on ``side``, for
    every combination of candidates: probs[i][c, j] is the probability that
    initiating agent i, shown its c-th candidate, picks responder j.  Choices
    are independent, so responder j is worth E[F_j(B_j)] over its random
    backlog B_j (the multilinear extension of F_j), where F_j is its demand,
    budget-constrained when it carries a budget.  Shape (len(probs[0]), ...,
    len(probs[-1])).  The deadline is polled once per responder."""
    resp_side = "S" if side == "C" else "C"
    n = len(probs)
    probs = [np.asarray(q, dtype=float) for q in probs]
    values = np.zeros(tuple(len(q) for q in probs))
    for j in range(instance.side_size(resp_side)):
        check_deadline()
        budget = instance.budget(resp_side, j)
        # Axis i of the table is bit i of the backlog mask.  Each contraction
        # takes the leading axis and appends initiator i's candidate axis.
        f = demand_table(instance.model(resp_side, j), n, budget).reshape((2,) * n, order="F")
        for q in probs:
            f = np.tensordot(f, np.stack([1.0 - q[:, j], q[:, j]]), axes=(0, 0))
        values += f
    return values
