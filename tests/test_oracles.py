import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import independent_model
from helpers import counterexample_constrained_demand_model, demand, is_submodular, reaches
from tsa.errors import SizeRefusalError
from tsa.instances import MNL, UNBOUNDED, BetaUniform, Mixture, UniformNoOutside
from tsa.oracles import (_budget_masks, _enumeration_rows, _mask_options, _mnl_prefix_rows,
                         _mnl_rows, best_weighted_assortment, constrained_demand, demand_table,
                         kept_sums, mnl_best, prob_table)


def brute_force_weighted(model, theta, budget=None):
    n = model.num_options
    best = 0.0
    kmax = n if budget is None else min(budget, n)
    for k in range(1, kmax + 1):
        for combo in combinations(range(n), k):
            s = frozenset(combo)
            best = max(best, sum(theta[j] * model.prob(j, s) for j in s))
    return best


def mnl_demand_table_by_mask(weights) -> np.ndarray:
    """MNL demand on every subset, indexed by bitmask, one mask at a time: a
    mask's weight sum is that of the mask without its lowest bit, plus that
    bit's weight."""
    w = np.zeros(1 << len(weights))
    for mask in range(1, len(w)):
        low = mask & -mask
        w[mask] = w[mask ^ low] + weights[low.bit_length() - 1]
    return w / (1.0 + w)


def test_mnl_demand_table_matches_mask_loop():
    """The strided sums make the per-mask loop's additions in its order, so
    the tables agree bit for bit, zero weights included."""
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        for zeros in (0.0, 0.3):
            weights = tuple(float(x) for x in rng.lognormal(size=n) * (rng.random(n) >= zeros))
            assert np.array_equal(demand_table(MNL(weights), n), mnl_demand_table_by_mask(weights))


def test_budgeted_mnl_demand_table_matches_mask_loop():
    """Under a budget each mask sums its kept weights in ascending option order,
    as ``constrained_demand`` sums a frozenset of options below 8, so up to 8
    options the tables agree bit for bit: zero weights, ties and budgets at or
    past the option count included."""
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for budget in (1, 2, 3, 4):
            for weights in (rng.lognormal(size=n), rng.lognormal(size=n) * (rng.random(n) >= 0.3),
                            rng.integers(0, 3, size=n) * 0.5):
                model = MNL(tuple(float(x) for x in weights))
                loop = [constrained_demand(model, _mask_options(mask), budget).value
                        for mask in range(1 << n)]
                assert np.array_equal(demand_table(model, n, budget), loop), (n, budget, weights)


def test_kept_sums_match_constrained_demand():
    """Each backlog's kept sum is the weight of ``constrained_demand``'s set,
    added in ascending option order, bit for bit: several responders with
    their own weights and budgets (no budget included) at once, zero weights
    and ties, and masks of 70 options held as Python ints."""
    rng = np.random.default_rng(5)
    for n, dtype in ((6, np.int64), (12, np.int64), (70, object)):
        weights = rng.lognormal(size=(4, n)) * (rng.random((4, n)) >= 0.3)
        weights[1] = rng.integers(0, 3, size=n) * 0.5
        budgets = [1, 2, UNBOUNDED, n // 3]
        members = rng.random((25, 4, n)) < 0.4
        masks = np.array([[sum(1 << i for i in np.flatnonzero(row).tolist()) for row in h] for h in members],
                         dtype=dtype)
        sums = kept_sums(weights, budgets, masks)
        for h, j in np.ndindex(masks.shape):
            model = MNL(tuple(float(x) for x in weights[j]))
            kept = constrained_demand(model, _mask_options(int(masks[h, j])), budgets[j]).assortment
            assert sums[h, j] == sum(model.weights[i] for i in sorted(kept)), (n, h, j)


def test_unconstrained_examples():
    res = best_weighted_assortment(MNL((1.0, 1.0)), [1.0, 0.0])
    assert res.assortment == {0} and res.value == pytest.approx(0.5)
    res = best_weighted_assortment(MNL((1.0, 1.0)), [0.0, 0.0])
    assert res.assortment == frozenset() and res.value == 0.0
    res = best_weighted_assortment(MNL((1.0, 1.0)), [1.0, 1.0])
    assert res.assortment == {0, 1} and res.value == pytest.approx(2.0 / 3.0)


def test_oracle_result_recomputes():
    model = MNL((0.3, 2.0, 1.1))
    theta = [0.2, 0.9, 0.4]
    res = best_weighted_assortment(model, theta)
    recomputed = sum(theta[j] * model.prob(j, res.assortment) for j in res.assortment)
    assert res.value == pytest.approx(recomputed, abs=1e-9)


def test_negative_theta_rejected():
    with pytest.raises(ValueError):
        best_weighted_assortment(MNL((1.0,)), [-0.1])


def test_non_mnl_large_universe_refused():
    with pytest.raises(SizeRefusalError):
        best_weighted_assortment(BetaUniform(25), [1.0] * 25)


def test_entry_counts_at_their_limits(monkeypatch):
    """Each table and enumeration counts its (set, option) entries and refuses
    past 2^20 before it starts: prob_table n sum_{k<=K} C(n, k) admits 16
    options unbudgeted and 17 under a budget of 7 (not 8), demand_table 2^n
    admits 20, and an unbudgeted enumeration, sum_k k C(n, k) = n 2^(n-1),
    admits 16."""
    for n in (16, 17):
        assert reaches(monkeypatch, "tsa.oracles.prob_rows",
                       lambda: prob_table(BetaUniform(n), n)) == (n == 16)
        assert reaches(monkeypatch, "tsa.oracles._weighted_value",
                       lambda: best_weighted_assortment(BetaUniform(n), [1.0] * n)) == (n == 16)
    for budget in (7, 8):
        assert reaches(monkeypatch, "tsa.oracles.prob_rows",
                       lambda: prob_table(BetaUniform(17), 17, budget)) == (budget == 7)
    for n in (20, 21):
        assert reaches(monkeypatch, "tsa.oracles.constrained_demand",
                       lambda: demand_table(BetaUniform(n), n)) == (n == 20)
    with pytest.raises(SizeRefusalError, match="^prob_table refuses 2228224 entries > 1048576$"):
        prob_table(BetaUniform(17), 17)
    with pytest.raises(SizeRefusalError, match="^prob_table refuses 1114112 entries > 1048576$"):
        prob_table(BetaUniform(17), 17, 8)
    with pytest.raises(SizeRefusalError, match="^demand_table refuses 2097152 entries > 1048576$"):
        demand_table(MNL((1.0,) * 21), 21)
    with pytest.raises(SizeRefusalError, match="^oracle enumeration refuses 1114112 entries"):
        constrained_demand(BetaUniform(17), range(17), 17)


def test_budgeted_prob_table_holds_only_the_feasible_rows():
    """Under a budget the table holds one row per set of at most K options, in
    ascending mask order, each equal to the full table's row for that mask."""
    model = BetaUniform(5)
    full = prob_table(model, 5)
    for budget in (0, 1, 2, 4):
        masks = sorted(_budget_masks(5, budget))
        np.testing.assert_array_equal(prob_table(model, 5, budget), full[masks])
    assert prob_table(BetaUniform(17), 17, 1).shape == (18, 17)


def test_budget_admits_a_larger_enumeration():
    """Under budget 2, 25 options are 25 + 2 C(25, 2) = 625 entries; every pair
    is worth beta(2) on all-ones theta, more than a singleton."""
    res = best_weighted_assortment(BetaUniform(25), [1.0] * 25, 2)
    assert res.value == BetaUniform.beta(2) == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-15)
    assert res.assortment == frozenset({0, 1})
    assert constrained_demand(BetaUniform(25), range(25), 2).value == res.value


@given(st.integers(1, 10), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_mnl_matches_brute_force(n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    model = MNL(tuple(rng.random(n) * 3))
    theta = list(rng.random(n))
    assert best_weighted_assortment(model, theta).value == pytest.approx(
        brute_force_weighted(model, theta), abs=1e-9)
    for k in range(1, n + 1):
        assert best_weighted_assortment(model, theta, budget=k).value == pytest.approx(
            brute_force_weighted(model, theta, budget=k), abs=1e-9)
    # Zero weights and zero thetas; the returned set respects the budget and
    # re-values to the reported value.
    weights = rng.random(n) * 3
    weights[rng.random(n) < 0.3] = 0.0
    theta = [0.0 if drop else t for t, drop in zip(theta, rng.random(n) < 0.3)]
    model = MNL(tuple(weights))
    for k in [None] + list(range(1, n + 1)):
        res = best_weighted_assortment(model, theta, budget=k)
        assert res.value == pytest.approx(brute_force_weighted(model, theta, budget=k), abs=1e-9)
        assert k is None or len(res.assortment) <= k
        recomputed = sum(theta[j] * model.prob(j, res.assortment) for j in res.assortment)
        assert abs(res.value - recomputed) <= 1e-12


def test_constrained_demand_top_two():
    res = constrained_demand(MNL((3.0, 2.0, 1.0)), {0, 1, 2}, 2)
    assert res.assortment == {0, 1}
    assert res.value == pytest.approx(5.0 / 6.0)


def test_constrained_demand_unbounded_is_demand():
    model = MNL((0.4, 1.2, 0.7))
    ground = frozenset({0, 2})
    assert constrained_demand(model, ground).value == pytest.approx(demand(model, ground))


def test_counterexample_values():
    model = counterexample_constrained_demand_model()
    expect = {frozenset({0, 1}): 1.0 / 3.0,
              frozenset({0, 1, 2}): 0.5,
              frozenset({0, 1, 3}): 0.5,
              frozenset({0, 1, 2, 3}): 0.75}
    for ground, val in expect.items():
        assert constrained_demand(model, ground, 2).value == pytest.approx(val, abs=1e-12)


def test_counterexample_not_submodular_with_witness():
    model = counterexample_constrained_demand_model()
    ok, witness = is_submodular(lambda s: constrained_demand(model, s, 2).value, range(4))
    assert not ok
    element, small, big = witness
    assert element == 3 and small == {0, 1} and big == {0, 1, 2}


def test_mnl_demand_is_submodular():
    model = MNL((0.5, 1.5, 2.5, 0.1))
    ok, _ = is_submodular(lambda s: demand(model, s), range(4))
    assert ok


@given(st.integers(0, 500), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_constrained_mnl_demand_is_submodular(seed, budget):
    import numpy as np

    rng = np.random.default_rng(seed)
    model = MNL(tuple(rng.random(5) * 4))
    ok, witness = is_submodular(lambda s: constrained_demand(model, s, budget).value, range(5))
    assert ok, witness


@given(st.integers(0, 500), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_constrained_demand_monotone(seed, budget):
    import numpy as np

    rng = np.random.default_rng(seed)
    model = counterexample_constrained_demand_model() if seed % 3 == 0 else \
        MNL(tuple(rng.random(4) * 3))
    n = model.num_options
    for small in range(1 << n):
        for j in range(n):
            if small >> j & 1:
                continue
            s = frozenset(k for k in range(n) if small >> k & 1)
            assert (constrained_demand(model, s | {j}, budget).value
                    >= constrained_demand(model, s, budget).value - 1e-12)


def test_mnl_constrained_demand_closed_form():
    import numpy as np

    rng = np.random.default_rng(5)
    weights = tuple(rng.random(6) * 2)
    model = MNL(weights)
    ground = frozenset({0, 2, 3, 5})
    for k in (1, 2, 3):
        top = sorted((weights[j] for j in ground), reverse=True)[:k]
        w = sum(top)
        assert constrained_demand(model, ground, k).value == pytest.approx(w / (1 + w))


def test_uniform_oracle_enumeration():
    model = UniformNoOutside(4)
    res = best_weighted_assortment(model, [0.1, 0.9, 0.5, 0.2])
    assert res.assortment == {1}
    assert res.value == pytest.approx(0.9)


def test_tie_break_smallest_then_lex():
    # Both singletons are optimal; smallest cardinality then lexicographic.
    res = best_weighted_assortment(UniformNoOutside(2), [0.7, 0.7])
    assert res.assortment == {0}


def test_row_oracles_match_mnl_best_bit_for_bit():
    """The row form of the MNL oracle, which the adaptive DPs and greedy's
    batched kernel use, against ``mnl_best`` row by row: thetas with ties and
    zeros, weights with zeros, items masked off, every budget.  Values must be
    equal with ==, and the prefix rule's length and order must list
    ``mnl_best``'s chosen options, in its order."""
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = 1 + trial % 8
        w = np.where(rng.random(n) < 0.2, 0.0, rng.choice([0.5, 1.0, rng.random() * 3], n))
        tied = rng.choice([0.0, 0.25, 0.5, 0.5 + 1e-13, 1.0], (40, n))  # 1e-13: wins by < _TOL
        theta = np.where(rng.random((40, n)) < 0.5, tied, rng.random((40, n)))
        item = (rng.random((40, n)) < 0.8) & (theta > 0) & (w > 0)
        triples = [[(th, w[j], j) for j, (th, i) in enumerate(zip(ts, its)) if i]
                   for ts, its in zip(theta.tolist(), item.tolist())]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for budget in list(range(1, n + 1)) + [UNBOUNDED]:
                got = _mnl_rows(w, budget, theta, item)
                assert got.tolist() == [mnl_best(t, budget)[0] for t in triples], (trial, budget)
            best, size, order = _mnl_prefix_rows(w, theta, item)
        for r, t in enumerate(triples):
            value, chosen = mnl_best(t)
            assert best[r] == value, (trial, r)
            assert order[r, :size[r]].tolist() == [j for _, _, j in chosen], (trial, r)


def test_enumeration_rows_match_the_oracle_bit_for_bit():
    """The row form of the enumeration oracle, which the adaptive DPs use for
    every non-MNL mover, against ``best_weighted_assortment`` row by row, a
    non-item's theta read as 0: Tabular, Mixture, UniformNoOutside with a
    support and BetaUniform agents, thetas with ties and zeros, items masked
    off, budgets 1, 2 and none, 1-7 options and, few rows each, 9-11 options,
    where a set of option ids no longer iterates in ascending order.  Values
    must be equal with ==."""
    rng = np.random.default_rng(17)
    cases = [(1 + t % 7, t % 4, 30) for t in range(24)]
    cases += [(n, kind, 8) for n in (9, 10, 11) for kind in (1, 2, 3)]
    for n, kind, rows in cases:
        model = [independent_model(list(rng.random(n) / (n + 1))),
                 Mixture((MNL(tuple(rng.random(n) * 2)), BetaUniform(n)), (0.3, 0.7)),
                 UniformNoOutside(n, support=tuple(j for j in range(n) if rng.random() < 0.6)),
                 BetaUniform(n)][kind]
        tied = rng.choice([0.0, 0.25, 0.5, 0.5 + 1e-13, 1.0], (rows, n))  # 1e-13: wins by < _TOL
        theta = np.where(rng.random((rows, n)) < 0.5, tied, rng.random((rows, n)))
        item = rng.random((rows, n)) < 0.8
        for budget in (1, 2, UNBOUNDED):
            got = _enumeration_rows(prob_table(model, n), _budget_masks(n, budget), theta, item)
            want = [best_weighted_assortment(model, np.where(its, ts, 0.0).tolist(), budget).value
                    for ts, its in zip(theta, item)]
            assert got.tolist() == want, (n, kind, budget)
