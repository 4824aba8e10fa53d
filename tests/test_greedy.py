import gc
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import independent_model, nonmonotone_market
from greedy_reference import recursive_greedy_value
from helpers import Draws, exact_value_deterministic_adaptive, phi_min, sample_count, stream_uniforms
from tsa.exact import opt_fully_adaptive, opt_one_sided_adaptive
from tsa.greedy import (GreedyOneSidedPolicy, cointoss_exact_value, cointoss_fully_adaptive,
                        exact_greedy_value, sampling_side_selector)
from tsa.bounds import _SELECTOR_RUNS, alg_one_sided_adaptive_value
from tsa.errors import SizeRefusalError, TimeLimitError
from tsa.instances import (MNL, CardinalityProfile, Instance, Mixture,
                           generate_random_instance, tight_instance)
from tsa import policies
from tsa.policies import _PASS, _SEED_BLOCK, monte_carlo, simulate_once
from tsa.util import Deadline


def test_greedy_1x1(unit_1x1):
    assert exact_greedy_value(unit_1x1, "C") == pytest.approx(0.25)


def test_greedy_prop1_closed_form():
    for n in (2, 3, 4):
        inst = tight_instance("prop1", n)
        assert exact_greedy_value(inst, "C") == pytest.approx(1 - (1 - 1 / n) ** n)


def test_greedy_zero_demand_suppliers_shows_empty():
    inst = Instance(2, 2, (MNL((1.0, 1.0)),) * 2, (MNL((0.0, 0.0)),) * 2)
    pol = GreedyOneSidedPolicy(inst, "C")
    from tsa.policies import PolicyState

    action = pol.action(PolicyState(inst))
    assert action.assortment == frozenset()
    assert exact_greedy_value(inst, "C") == 0.0


def test_greedy_policy_matches_exact_evaluator():
    for inst in [generate_random_instance(2, 2, seed=seed) for seed in range(4)] + [nonmonotone_market()]:
        tree = exact_value_deterministic_adaptive(inst, GreedyOneSidedPolicy(inst, "C"))
        fast = exact_greedy_value(inst, "C")
        assert tree == pytest.approx(fast, abs=1e-12)


def test_greedy_order_independent_when_responder_demand_modular():
    # Independent-demand suppliers make every marginal order-free.
    probs = [[0.3, 0.2, 0.15], [0.1, 0.25, 0.2], [0.2, 0.1, 0.3]]
    inst = Instance(3, 3,
                    tuple(MNL((0.8, 1.1, 0.5)) for _ in range(3)),
                    tuple(independent_model(p) for p in probs))
    vals = {exact_greedy_value(inst, "C", order=list(perm))
            for perm in itertools.permutations(range(3))}
    assert max(vals) - min(vals) <= 1e-9


def test_theorem4_half_of_opt():
    for seed in range(8):
        for (n, m) in ((2, 2), (3, 3), (2, 4)):
            inst = generate_random_instance(n, m, seed=seed)
            for side in ("C", "S"):
                g = exact_greedy_value(inst, side)
                oa = opt_one_sided_adaptive(inst, side).value
                assert g >= 0.5 * oa - 1e-9


def test_theorem5_quarter_of_opt_fa():
    for seed in range(8):
        inst = generate_random_instance(3, 3, seed=seed)
        fa = opt_fully_adaptive(inst).value
        assert cointoss_exact_value(inst) >= 0.25 * fa - 1e-9


def test_lemma3_supplier_greedy_beats_beta_sum():
    inst = tight_instance("lemma3", 2)
    beta = [1 - math.exp(-1.0), 2 * (1 - math.exp(-0.5))]
    assert exact_greedy_value(inst, "S") >= sum(beta) - 1e-9


def test_phi_min_examples():
    inst = Instance(2, 2, (MNL((1.0, 1.0)),) * 2, (MNL((1.0, 1.0)),) * 2)
    assert phi_min(inst) == pytest.approx(0.5)
    inst2 = Instance(1, 2, (MNL((0.25, 1.0)),), (MNL((1.0,)), MNL((1.0,))))
    assert phi_min(inst2) == pytest.approx(0.2)
    zero = Instance(1, 1, (MNL((0.0,)),), (MNL((0.0,)),))
    assert phi_min(zero) is None


def test_sample_count_examples():
    assert sample_count(1.0, 2 / math.e, 1.0) == 3
    assert sample_count(0.1, 0.05, 0.5) == 2214
    t1 = sample_count(0.2, 0.1, 0.5)
    t2 = sample_count(0.1, 0.1, 0.5)
    assert t1 * 4 - 4 <= t2 <= t1 * 4 + 4


def test_sample_count_needs_positive_phi_min():
    with pytest.raises(ValueError):
        sample_count(0.1, 0.1, 0.0)


def test_selector_picks_better_side_on_prop1():
    inst = tight_instance("prop1", 2)
    pol = sampling_side_selector(inst, 300, seed=5)
    assert pol.metadata["side"] == "C"  # 0.75 beats 0.5
    assert pol.metadata["runs"] == 300


def test_selector_derived_runs_and_determinism():
    inst = Instance(1, 1, (MNL((3.0,)),), (MNL((3.0,)),))
    runs = sample_count(0.5, 0.5, phi_min(inst))
    a = sampling_side_selector(inst, runs, seed=2)
    b = sampling_side_selector(inst, runs, seed=2)
    assert a.metadata == b.metadata
    assert a.metadata["runs"] == runs


def test_selector_symmetric_instance_value_identical():
    inst = Instance(2, 2, (MNL((1.0, 1.0)),) * 2, (MNL((1.0, 1.0)),) * 2)
    assert exact_greedy_value(inst, "C") == pytest.approx(exact_greedy_value(inst, "S"))


def test_cointoss_exact_values(unit_1x1):
    assert cointoss_exact_value(unit_1x1) == pytest.approx(0.25)
    assert cointoss_exact_value(tight_instance("prop1", 2)) == pytest.approx(0.625)


def test_cointoss_seed_determinism():
    inst = generate_random_instance(2, 2, seed=0)
    a = cointoss_fully_adaptive(inst, seed=4)
    b = cointoss_fully_adaptive(inst, seed=4)
    assert a.metadata == b.metadata
    sides = {cointoss_fully_adaptive(inst, seed=s).metadata["side"] for s in range(30)}
    assert sides == {"C", "S"}


def test_constrained_greedy_half_of_constrained_opt():
    for seed in range(4):
        for k in (1, 2):
            base = generate_random_instance(3, 3, seed=seed)
            inst = Instance(3, 3, base.customer_models, base.supplier_models,
                            (k,) * 3, (k,) * 3)
            g = exact_greedy_value(inst, "C")
            oa = opt_one_sided_adaptive(inst, "C").value
            assert g >= 0.5 * oa - 1e-9


def test_greedy_respects_initiating_budget():
    base = generate_random_instance(3, 3, seed=1)
    inst = Instance(3, 3, base.customer_models, base.supplier_models,
                    (1,) * 3, (None,) * 3)
    pol = GreedyOneSidedPolicy(inst, "C")
    res = monte_carlo(inst, pol, runs=20, seed=0)  # contract checks run inside
    assert 0.0 <= res.mean <= 3.0


class _ScalarOnly:
    """The wrapped policy without its batched kernel: ``monte_carlo`` runs
    ``simulate_once`` per run, the reference the kernel must reproduce."""

    def __init__(self, policy):
        self.policy, self.tag = policy, policy.tag

    def action(self, state):
        return self.policy.action(state)


def _counting_kernel(policy):
    """Record the pass sizes ``monte_carlo`` hands to ``policy.batch_matches``."""
    calls = []
    kernel = policy.batch_matches
    policy.batch_matches = lambda draws: calls.append(len(draws)) or kernel(draws)
    return calls


def _zero_weight_instance():
    rng = np.random.default_rng(8)
    v = rng.lognormal(size=(4, 6)) * (rng.random((4, 6)) < 0.6)
    w = rng.lognormal(size=(6, 4)) * (rng.random((6, 4)) < 0.6)
    v[0] = 0.0  # a customer who picks no supplier
    w[:, 1] = 0.0  # a customer no supplier picks
    return Instance(4, 6, tuple(MNL(tuple(r)) for r in v), tuple(MNL(tuple(r)) for r in w))


# Markets whose runs share most histories (one responder, two, or one
# initiator) next to ones where they seldom do; then budgeted markets, where
# a responder keeps its top K and a budgeted initiator shows at most K.
@pytest.mark.parametrize("inst", [generate_random_instance(3, 3, seed=0),
                                  generate_random_instance(2, 5, seed=1),
                                  generate_random_instance(10, 9, seed=2),
                                  _zero_weight_instance(),
                                  generate_random_instance(12, 1, seed=3),
                                  generate_random_instance(10, 2, seed=4),
                                  generate_random_instance(1, 10, seed=5),
                                  generate_random_instance(1, 1, seed=0, profile=CardinalityProfile("two-way", 1, 1)),
                                  generate_random_instance(3, 3, seed=1, profile=CardinalityProfile("one-way", 2)),
                                  generate_random_instance(3, 3, seed=2, profile=CardinalityProfile("two-way", 1, 1)),
                                  generate_random_instance(10, 9, seed=3, profile=CardinalityProfile("two-way", 2, 2)),
                                  generate_random_instance(12, 1, seed=4, profile=CardinalityProfile("two-way", 3, 1)),
                                  generate_random_instance(12, 1, seed=5, profile=CardinalityProfile("one-way", 2))],
                         ids=["3x3", "2x5", "10x9", "zero-weights", "12x1", "10x2", "1x10", "1x1-k1,1",
                              "3x3-k2,-", "3x3-k1,1", "10x9-k2,2", "12x1-k3,1", "12x1-k2,-"])
def test_batched_monte_carlo_matches_scalar(inst):
    for k, side in enumerate(("C", "S")):
        ninit = inst.side_size(side)
        shuffled = [int(a) for a in np.random.default_rng(k).permutation(ninit)]
        for order, seed, runs in ((None, 3, 300), (shuffled, (3, k), 300),
                                  (None, (7, 1, k), 2037)):
            pol = GreedyOneSidedPolicy(inst, side, order)
            calls = _counting_kernel(pol)
            batched = monte_carlo(inst, pol, runs, seed)
            scalar = monte_carlo(inst, _ScalarOnly(pol), runs, seed)
            assert calls == [runs]
            assert (batched.mean, batched.half_width) == (scalar.mean, scalar.half_width)
    # The committed policies forward to the kernel.
    pol = cointoss_fully_adaptive(inst, seed=1)
    calls = _counting_kernel(pol)
    assert monte_carlo(inst, pol, 200, 5) == monte_carlo(inst, _ScalarOnly(pol), 200, 5)
    assert calls == [200]


def test_batch_matches_do_not_depend_on_chunking():
    """Merging the runs that share a history changes no run's matches: any
    split of the runs, down to one run per call, gives the same matches."""
    for inst in (generate_random_instance(6, 4, seed=6), generate_random_instance(10, 2, seed=7),
                 generate_random_instance(6, 4, seed=8, profile=CardinalityProfile("two-way", 2, 1))):
        for side in ("C", "S"):
            pol = GreedyOneSidedPolicy(inst, side)
            uniforms = stream_uniforms([9], 0, 500, inst.n + inst.m)
            whole = pol.batch_matches(Draws(uniforms))
            for k in (1, 2, 137, 250, 499):
                parts = np.concatenate([pol.batch_matches(Draws(uniforms[:k])),
                                        pol.batch_matches(Draws(uniforms[k:]))])
                assert np.array_equal(parts, whole)
            assert np.array_equal([pol.batch_matches(Draws(u[None]))[0] for u in uniforms[:40]], whole[:40])


def test_non_mnl_markets_run_the_scalar_path():
    base = generate_random_instance(3, 3, seed=4)
    mixture = Instance(3, 3, base.customer_models,
                       base.supplier_models[:2] + (Mixture((MNL((1.0, 0.5, 2.0)),
                                                            MNL((0.3, 2.0, 1.0))), (0.5, 0.5)),))
    pol = GreedyOneSidedPolicy(mixture, "C")
    calls = _counting_kernel(pol)
    assert monte_carlo(mixture, pol, 50, 1) == monte_carlo(mixture, _ScalarOnly(pol), 50, 1)
    assert calls == []


def test_batch_matches_applies_budgets():
    """The kernel keeps each responder's top K and shows a budgeted
    initiator at most K, run for run as ``simulate_once`` does, called
    directly, through a committed policy or from ``monte_carlo``.  A
    budget-blind kernel averages 1.206 matches on this market, against
    1.121."""
    inst = generate_random_instance(4, 4, seed=0, profile=CardinalityProfile("two-way", 1, 1))
    uniforms = stream_uniforms([5], 0, 2000, inst.n + inst.m)
    for pol in (GreedyOneSidedPolicy(inst, "C"), cointoss_fully_adaptive(inst, seed=0)):
        scalar = [simulate_once(inst, pol, np.random.default_rng([5, r]))[0] for r in range(2000)]
        assert pol.batch_matches(Draws(uniforms)).tolist() == scalar
    base = generate_random_instance(3, 3, seed=4)
    budgeted = Instance(3, 3, base.customer_models, base.supplier_models,
                        (2,) * 3, (None,) * 3)
    pol = GreedyOneSidedPolicy(budgeted, "C")
    calls = _counting_kernel(pol)
    assert monte_carlo(budgeted, pol, 50, 1) == monte_carlo(budgeted, _ScalarOnly(pol), 50, 1)
    assert calls == [50]


def test_batch_matches_applies_budgets_past_63_initiators():
    """A budgeted side of 66 initiators, whose backlog masks do not fit in
    int64, stays on the kernel and matches ``simulate_once`` run for run, as
    does the other side, of 66 responders."""
    inst = generate_random_instance(66, 1, seed=3, profile=CardinalityProfile("two-way", 1, 1))
    uniforms = stream_uniforms([4], 0, 300, inst.n + inst.m)
    for side in ("C", "S"):
        pol = GreedyOneSidedPolicy(inst, side)
        scalar = [simulate_once(inst, pol, np.random.default_rng([4, r]))[0] for r in range(300)]
        assert pol.batch_matches(Draws(uniforms)).tolist() == scalar
        calls = _counting_kernel(pol)
        assert monte_carlo(inst, pol, 300, 4).mean == sum(scalar) / 300
        assert calls == [300]


def test_stream_uniforms_reproduce_default_rng():
    for prefix in ([0], [5], [5, 1], [7, 0, 9], [2 ** 32], [123, 2 ** 64 + 5]):
        for lo, hi in ((0, 40), (4090, 4110), (1, _SEED_BLOCK + 3)):  # the last spans two seeding blocks
            expected = [np.random.default_rng(prefix + [r]).random(13) for r in range(lo, hi)]
            assert np.array_equal(stream_uniforms(prefix, lo, hi, 13), expected)
    with pytest.raises(ValueError):
        stream_uniforms([-1], 0, 2, 3)


def test_batched_monte_carlo_stops_within_a_chunk():
    inst = generate_random_instance(10, 10, seed=0)
    pol = GreedyOneSidedPolicy(inst, "C")
    start = time.monotonic()
    monte_carlo(inst, pol, 2000, 0)
    chunk = time.monotonic() - start
    start = time.monotonic()
    with pytest.raises(TimeLimitError), Deadline(0.01):
        monte_carlo(inst, pol, 2_000_000, 0)
    # The limit plus the seeding block or kernel step that was running, with
    # room for timing noise; without the polls all 2,000,000 runs would run.
    assert time.monotonic() - start < 0.01 + 3 * chunk


def test_exact_greedy_evaluators_stop_at_deadline():
    # Side C's walk (7,174,453 predicted histories) takes about 0.35 s, far
    # past the limit, and the selector commits to side C, so all three
    # evaluators reach it.
    inst = generate_random_instance(15, 2, seed=2)
    assert sampling_side_selector(inst, _SELECTOR_RUNS).metadata["side"] == "C"
    for value in (lambda: exact_greedy_value(inst, "C"),
                  lambda: cointoss_exact_value(inst),
                  lambda: alg_one_sided_adaptive_value(inst, 0)):
        start = time.monotonic()
        with pytest.raises(TimeLimitError), Deadline(0.05):
            value()
        assert time.monotonic() - start < 1.0


def test_exact_greedy_value_leaves_no_cyclic_garbage():
    """With the cyclic collector off, the call leaves nothing for it to find:
    every array and block of the walk is freed by reference counting when the
    call returns."""
    inst = generate_random_instance(4, 4, seed=1)
    expected = exact_greedy_value(inst, "C")
    gc.collect()
    gc.disable()
    try:
        assert exact_greedy_value(inst, "C") == expected
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0


def _greedy_corpus():
    """Random markets under four budget profiles, the tight constructions and
    a market with a Mixture agent on each side, which take the scalar display."""
    for n, m in [(k, k) for k in range(1, 8)] + [(2, 5), (5, 2), (3, 9), (2, 25)]:
        base = generate_random_instance(n, m, seed=n * 10 + m)
        for kc, ks in ((None, None), (2, 2), (1, None), (1, 3)):
            yield Instance(n, m, base.customer_models, base.supplier_models, (kc,) * n, (ks,) * m)
    for kind in ("prop1", "lemma3", "lemma6", "thm3"):
        for n in (2, 3):
            yield tight_instance(kind, n)
    base = generate_random_instance(3, 3, seed=4)
    mix = Mixture((MNL((1.0, 0.5, 2.0)), MNL((0.3, 2.0, 1.0))), (0.5, 0.5))
    yield Instance(3, 3, base.customer_models[:2] + (mix,), base.supplier_models[:2] + (mix,))


def test_exact_greedy_value_matches_recursion():
    """The block walk against the recursion it replaced
    (tests/greedy_reference.py), on both sides in shuffled orders.  Both
    refuse a side by the same predicted history count: 3x9's side S (87,381
    histories) is valued, 2x25's (423,644,304,721) refused, under every
    budget profile."""
    rng = np.random.default_rng(16)
    refused = []
    for inst in _greedy_corpus():
        for side in ("C", "S"):
            order = [int(a) for a in rng.permutation(inst.side_size(side))]
            try:
                expected = recursive_greedy_value(inst, side, order)
            except SizeRefusalError as exc:
                with pytest.raises(SizeRefusalError) as walk:
                    exact_greedy_value(inst, side, order)
                assert str(walk.value) == str(exc)
                refused.append((inst.n, inst.m, side))
                continue
            assert exact_greedy_value(inst, side, order) == pytest.approx(expected, rel=0, abs=1e-12)
    assert refused == [(2, 25, "S")] * 4


def test_exact_greedy_value_refuses_predicted_histories(monkeypatch):
    """The walk is refused by its predicted histories, the sum over t below
    the initiator count of (responders + 1)^t, before any demand table is
    built: 8x10's side C (21,435,888) is past 2^24, 8x9's (11,111,111) is not."""
    import tsa.greedy

    def no_tables(instance, side):
        raise LookupError("demand tables built")

    monkeypatch.setattr(tsa.greedy, "demand_tables", no_tables)
    with pytest.raises(SizeRefusalError, match="^exact greedy evaluation refuses 21435888 histories > 16777216$"):
        exact_greedy_value(generate_random_instance(8, 10, seed=0), "C")
    with pytest.raises(LookupError, match="demand tables built"):
        exact_greedy_value(generate_random_instance(8, 9, seed=0), "C")


def test_exact_greedy_value_walks_in_blocks():
    """Histories are valued a block at a time: the walk peaks near 2 MB on a
    random 8x9 market, where its last layer alone could hold 10^7 histories."""
    inst = generate_random_instance(8, 9, seed=0)
    tracemalloc.start()
    try:
        exact_greedy_value(inst, "C")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_monte_carlo_runs_in_bounded_memory(monkeypatch):
    """A pass keeps 32 bytes of stream state and 8 of history a run, plus
    its per-history tables, re-indexed one responder at a time: a 10,000-run
    estimate on a random 10x10 market peaks near 1.9 MB (2,000-run chunks,
    each drawn as a whole (runs, draws) matrix, read 1.7 MB).  Passes run one
    after another: five passes on a 3x3 market peak as one does, give or
    take the interpreter's own allocations, where a second pass held at once
    would add over 600 KB; and splitting the runs into passes changes no
    result."""
    inst = generate_random_instance(10, 10, seed=0)
    assert _traced_peak(lambda: monte_carlo(inst, GreedyOneSidedPolicy(inst, "C"), 10_000, 0)) < 2.5 * 2 ** 20
    small = generate_random_instance(3, 3, seed=1)
    pol = GreedyOneSidedPolicy(small, "C")
    monte_carlo(small, pol, 100, 0)
    one = _traced_peak(lambda: monte_carlo(small, pol, _PASS, 0))
    five = _traced_peak(lambda: monte_carlo(small, pol, 5 * _PASS, 0))
    assert five <= one + 2 ** 16
    calls = _counting_kernel(pol)
    passes = monte_carlo(small, pol, 5 * _PASS + 37, 0)
    assert calls == [_PASS] * 5 + [37]
    monkeypatch.setattr(policies, "_PASS", 6 * _PASS)
    assert monte_carlo(small, pol, 5 * _PASS + 37, 0) == passes
    assert calls[6:] == [5 * _PASS + 37]


def test_budgeted_monte_carlo_runs_in_bounded_memory():
    """Under budgets a history also carries one backlog mask per responder
    (8 bytes, not a row of member flags per initiator) and each responder's
    grown sum for the step, which goes before the masks are re-indexed: a
    10,000-run estimate on a random 10x10 market under two-way budgets
    (2, 2) peaks near 2.8 MB, where (history, responder, initiator) member
    flags peaked near 3.4 MB."""
    inst = generate_random_instance(10, 10, seed=0, profile=CardinalityProfile("two-way", 2, 2))
    pol = GreedyOneSidedPolicy(inst, "C")
    monte_carlo(inst, pol, 100, 0)
    assert _traced_peak(lambda: monte_carlo(inst, pol, 10_000, 0)) < 3.1 * 2 ** 20
