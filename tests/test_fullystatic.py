import math
from itertools import combinations

import numpy as np
import pytest

from conftest import low_value_instance
from helpers import exact_highvalue_subproblem
from tsa import fullystatic
from tsa.errors import SizeRefusalError, TimeLimitError, UnsupportedOracleError
from tsa.exact import opt_fully_static
from tsa.fullystatic import (DEFAULT_ALPHA, approx_fully_static, dependent_rounding,
                             highvalue_subproblem, independent_rounding,
                             lowlow_lp, partition_edges)
from tsa.instances import (MNL, CardinalityProfile, Instance, UniformNoOutside,
                           generate_random_instance)
from tsa.policies import exact_value_edges, static_values
from tsa.util import Deadline


def brute_force_restricted(instance, edges):
    """Exact optimum over subsets of a restricted edge set."""
    edges = sorted(edges)
    best = 0.0
    for k in range(len(edges) + 1):
        for combo in combinations(edges, k):
            best = max(best, exact_value_edges(instance, combo))
    return best


def test_lowlow_lp_1x1():
    inst = Instance(1, 1, (MNL((0.5,)),), (MNL((0.5,)),))
    y, z = lowlow_lp(inst)
    assert y[0, 0] == pytest.approx(2.0 / 3.0)
    assert z == pytest.approx(1.0 / 6.0)


def test_lowlow_lp_zero_weights():
    inst = Instance(2, 2, (MNL((0.0, 0.0)),) * 2, (MNL((0.0, 0.0)),) * 2)
    _, z = lowlow_lp(inst)
    assert z == pytest.approx(0.0, abs=1e-12)


def test_lowlow_lp_upper_bounds_opt_fs():
    for seed in range(20):
        inst = low_value_instance(3, 3, seed)
        _, z = lowlow_lp(inst)
        opt, _ = opt_fully_static(inst)
        assert z >= opt - 1e-9


def test_lowlow_lp_requires_mnl():
    inst = Instance(1, 1, (MNL((1.0,)),), (UniformNoOutside(1),))
    with pytest.raises(UnsupportedOracleError):
        lowlow_lp(inst)


def test_independent_rounding_endpoints():
    rng = np.random.default_rng(0)
    assert independent_rounding(np.zeros((2, 3)), rng) == frozenset()
    assert len(independent_rounding(np.ones((2, 3)), rng)) == 6


def test_independent_rounding_marginals():
    y = np.array([[0.3, 0.7], [0.5, 0.1]])
    hits = np.zeros((2, 2))
    draws = 100_000
    rng = np.random.default_rng(1)
    for _ in range(draws):
        for (i, j) in independent_rounding(y, rng):
            hits[i, j] += 1
    assert (np.abs(hits / draws - y) < 0.01).all()


def test_dependent_rounding_integral_unchanged():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = dependent_rounding(y, np.random.default_rng(0))
    assert x == {(0, 0), (1, 1)}


def test_dependent_rounding_single_row_cap():
    counts = {0: 0, 1: 0}
    for r in range(20_000):
        x = dependent_rounding(np.array([[0.5, 0.5]]), np.random.default_rng(r),
                               row_caps=[1], col_caps=[None, None])
        assert len(x) == 1
        counts[next(iter(x))[1]] += 1
    for j in (0, 1):
        assert abs(counts[j] / 20_000 - 0.5) < 0.02


def test_dependent_rounding_caps_and_marginals():
    rng = np.random.default_rng(3)
    y = np.array([[0.4, 0.6, 0.5], [0.7, 0.2, 0.6], [0.3, 0.9, 0.3]])
    caps_r = [2, 2, 2]
    caps_c = [2, 2, 2]
    hits = np.zeros((3, 3))
    draws = 10_000
    for r in range(draws):
        x = dependent_rounding(y, np.random.default_rng([9, r]), caps_r, caps_c)
        deg_r = [0, 0, 0]
        deg_c = [0, 0, 0]
        for (i, j) in x:
            hits[i, j] += 1
            deg_r[i] += 1
            deg_c[j] += 1
        assert all(d <= 2 for d in deg_r)
        assert all(d <= 2 for d in deg_c)
    sigma = np.sqrt(y * (1 - y) / draws)
    assert (np.abs(hits / draws - y) <= 3 * sigma + 1e-9).all()


def test_dependent_rounding_negative_row_correlation():
    y = np.full((1, 4), 0.5)
    draws = 30_000
    samples = np.zeros((draws, 4))
    for r in range(draws):
        for (_, j) in dependent_rounding(y, np.random.default_rng([4, r])):
            samples[r, j] = 1.0
    cov = np.cov(samples.T)
    for a in range(4):
        for b in range(a + 1, 4):
            assert cov[a, b] <= 0.005


def test_dependent_rounding_matches_tagged_vertex_walk():
    """The graph edited in place against the tagged-vertex walk rebuilt every
    step (tests/rounding_reference.py): same edges and generator state, bit
    for bit.  Entries within 1e-12 of 0 or 1 are never on a walk, which only
    the reference snaps; two-way low-low LP solutions go up to 10x10."""
    from rounding_reference import dependent_rounding as reference

    def both(y, seed, caps=(None, None)):
        runs = []
        for rounding in (dependent_rounding, reference):
            rng = np.random.default_rng(seed)
            runs.append((sorted(rounding(y, rng, *caps)), rng.bit_generator.state))
        assert runs[0] == runs[1]

    for n in range(1, 9):
        for m in range(1, 9):
            for seed in range(4):
                g = np.random.default_rng([n, m, seed])
                y, r = g.random((n, m)), g.random((n, m))
                y[r < 0.2], y[r > 0.85] = 0.0, 1.0
                if n + m > 10:
                    y[(r > 0.2) & (r < 0.25)], y[(r > 0.8) & (r < 0.85)] = 1e-13, 1.0 - 1e-13
                both(y, seed)
    profile = CardinalityProfile("two-way", 2, 2)
    for seed in range(6):
        inst = generate_random_instance(4, 5, seed, profile)
        y, _ = lowlow_lp(inst)
        both(y, seed, (inst.k_customer, inst.k_supplier))
    for n, m in ((10, 10), (3, 8)):
        for seed in range(8):
            inst = generate_random_instance(n, m, seed, profile)
            y, _ = lowlow_lp(inst)
            both(y, seed, (inst.k_customer, inst.k_supplier))


def test_highvalue_subproblem_examples():
    inst = Instance(2, 1, (MNL((1.0,)), MNL((2.0,))), (MNL((1.0, 1.0)),))
    edges, val = exact_highvalue_subproblem(inst, [(0, 0), (1, 0)], side="C")
    assert edges == {(1, 0)}
    assert val == pytest.approx(2.0 / 3.0)
    assert highvalue_subproblem(inst, [], side="C")[1] == 0.0


def test_highvalue_greedy_at_least_half_of_exact():
    for seed in range(10):
        inst = generate_random_instance(3, 3, seed=seed)
        edges = [(i, j) for i in range(3) for j in range(3)]
        _, val_g = highvalue_subproblem(inst, edges, side="C")
        _, val_e = exact_highvalue_subproblem(inst, edges, side="C")
        assert val_g >= 0.5 * val_e - 1e-9
        assert val_g <= val_e + 1e-9


def test_highvalue_exact_refuses_large():
    inst = generate_random_instance(5, 5, seed=0)
    edges = [(i, j) for i in range(5) for j in range(5)]
    with pytest.raises(SizeRefusalError):
        exact_highvalue_subproblem(inst, edges, side="C")


def test_zc_upper_bounds_opt_fs():
    for seed in range(10):
        inst = generate_random_instance(3, 3, seed=seed)
        edges = [(i, j) for i in range(3) for j in range(3)]
        _, zc = exact_highvalue_subproblem(inst, edges, side="C")
        opt, _ = opt_fully_static(inst)
        assert zc >= opt - 1e-9


def test_partition_is_exact():
    inst = generate_random_instance(3, 3, seed=2)
    v, w = inst.mnl_weights()
    e1, e2, e3 = partition_edges(inst)
    assert len(e1) + len(e2) + len(e3) == 9
    for (i, j) in e1:
        assert w[j, i] >= DEFAULT_ALPHA
    for (i, j) in e2:
        assert v[i, j] >= DEFAULT_ALPHA and w[j, i] < DEFAULT_ALPHA
    for (i, j) in e3:
        assert v[i, j] < DEFAULT_ALPHA and w[j, i] < DEFAULT_ALPHA


def test_approx_fs_guarantee_and_value_consistency(monkeypatch):
    monkeypatch.setattr("tsa.fullystatic.highvalue_subproblem", exact_highvalue_subproblem)
    for seed in range(15):
        inst = generate_random_instance(3, 3, seed=seed)
        sol = approx_fully_static(inst, rng=np.random.default_rng(seed))
        opt, _ = opt_fully_static(inst)
        assert sol.value >= 0.067 * opt - 1e-9
        assert sol.value == pytest.approx(exact_value_edges(inst, sol.edges), abs=1e-9)
        assert sol.value <= opt + 1e-9


def test_approx_fs_all_high_w_degenerate_partition():
    rng = np.random.default_rng(0)
    v = rng.random((2, 2))
    w = rng.random((2, 2)) + DEFAULT_ALPHA  # every w above threshold
    inst = Instance(2, 2, tuple(MNL(tuple(v[i])) for i in range(2)),
                    tuple(MNL(tuple(w[j])) for j in range(2)))
    e1, e2, e3 = partition_edges(inst)
    assert not e2 and not e3
    sol = approx_fully_static(inst, rng=np.random.default_rng(1))
    assert sol.regime == "high-w"


def test_subadditivity_over_regimes():
    for seed in range(8):
        inst = generate_random_instance(3, 3, seed=seed)
        opt, _ = opt_fully_static(inst)
        parts = partition_edges(inst)
        total = sum(brute_force_restricted(inst, e) for e in parts if e)
        assert opt <= total + 1e-9


def test_lemma1_rounding_bound_small_battery():
    draws = 2000
    for seed in range(3):
        inst = low_value_instance(3, 3, seed)
        y, z = lowlow_lp(inst)
        rng = np.random.default_rng([seed, 1])
        xs = (rng.random((draws, 3, 3)) < y[None, :, :])
        vals = static_values(inst, xs)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert vals.mean() >= z / (2 + DEFAULT_ALPHA) ** 2 - 3 * se


def test_mnl_static_values_matches_scalar():
    inst = generate_random_instance(3, 3, seed=6)
    rng = np.random.default_rng(0)
    xs = (rng.random((5, 3, 3)) < 0.5).astype(float)
    batch = static_values(inst, xs)
    for t in range(5):
        edges = [(i, j) for i in range(3) for j in range(3) if xs[t, i, j]]
        assert batch[t] == pytest.approx(exact_value_edges(inst, edges), abs=1e-12)



def test_approx_fully_static_stops_at_deadline():
    # Unchecked, the low-low LP of this market runs for about 4 s.
    inst = generate_random_instance(40, 40, 0)
    with pytest.raises(TimeLimitError), Deadline(0.5):
        approx_fully_static(inst)


def test_approx_fully_static_polls_before_each_rounding(monkeypatch):
    """With the low-low LP stubbed to its own answer, only the dependent
    roundings are left to see an expired deadline."""
    inst = generate_random_instance(6, 6, 0, CardinalityProfile("two-way", 2, 2))
    e3 = partition_edges(inst)[2]
    assert e3
    answer = lowlow_lp(inst, e3)
    monkeypatch.setattr(fullystatic, "lowlow_lp", lambda *args: answer)
    with pytest.raises(TimeLimitError), Deadline(0):
        approx_fully_static(inst)
