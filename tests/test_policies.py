import io
import itertools
import json
import math

import numpy as np
import pytest

import tsa.policies

from conftest import independent_model, nonmonotone_market
from helpers import (OneSidedStaticPolicy, StaticPolicy, exact_value_deterministic_adaptive,
                     reaches)
from tsa.errors import ContractViolationError, SizeRefusalError
from tsa.greedy import GreedyOneSidedPolicy
from tsa.instances import (MNL, UNBOUNDED, BetaUniform, CardinalityProfile, Instance, Mixture,
                           UniformNoOutside, generate_random_instance, tight_instance)
from tsa.oracles import constrained_demand, demand_table
from tsa.policies import (PolicyAction, dump_trace, exact_value_edges,
                          exact_value_one_sided_static, exact_value_static,
                          monte_carlo, one_sided_values, pair_sum, simulate_once,
                          static_values)


def test_empty_instance_zero_matches():
    inst = Instance(0, 0, (), ())
    pol = StaticPolicy(inst, [], [])
    matches, trace = simulate_once(inst, pol, np.random.default_rng(0))
    assert matches == 0 and trace == []


def test_1x1_mutual_display_rate(unit_1x1):
    pol = StaticPolicy(unit_1x1, [{0}], [{0}])
    res = monte_carlo(unit_1x1, pol, runs=100_000, seed=42)
    assert abs(res.mean - 0.25) < 0.01


def test_prop1_show_supplier_to_all():
    n = 3
    inst = tight_instance("prop1", n)
    pol = OneSidedStaticPolicy(inst, "C", [{0}] * n)
    res = monte_carlo(inst, pol, runs=20_000, seed=1)
    expect = 1 - (1 - 1 / n) ** n
    assert abs(res.mean - expect) < 4 * 0.5 / math.sqrt(20_000) + 0.01


def test_contract_violations():
    inst = generate_random_instance(2, 2, seed=0)

    class BadRepeat:
        tag = "FA"

        def action(self, state):
            return PolicyAction(("C", 0), frozenset({0}))

    with pytest.raises(ContractViolationError):
        simulate_once(inst, BadRepeat(), np.random.default_rng(0))

    class BadAssortment:
        tag = "FA"

        def action(self, state):
            return PolicyAction(("C", 0), frozenset({7}))

    with pytest.raises(ContractViolationError):
        simulate_once(inst, BadAssortment(), np.random.default_rng(0))


def test_budget_violation_raises():
    inst = Instance(1, 2, (MNL((1.0, 1.0)),), (MNL((1.0,)), MNL((1.0,))), (1,), (None, None))
    pol = StaticPolicy(inst, [{0, 1}], [{0}, {0}])
    with pytest.raises(ContractViolationError):
        simulate_once(inst, pol, np.random.default_rng(0))


def test_monte_carlo_deterministic_and_repeatable(unit_1x1):
    pol = StaticPolicy(unit_1x1, [{0}], [{0}])
    a = monte_carlo(unit_1x1, pol, runs=500, seed=9)
    b = monte_carlo(unit_1x1, pol, runs=500, seed=9)
    assert a == b


def test_monte_carlo_zero_width_when_deterministic():
    # Customer never matches: supplier model gives it zero probability.
    inst = Instance(1, 1, (MNL((1.0,)),), (MNL((0.0,)),))
    pol = StaticPolicy(inst, [{0}], [{0}])
    res = monte_carlo(inst, pol, runs=200, seed=0)
    assert res.mean == 0.0 and res.half_width == 0.0


def test_exact_value_static_examples(unit_1x1):
    assert exact_value_static(unit_1x1, [{0}], [{0}]) == pytest.approx(0.25)
    inst = tight_instance("prop1", 2)
    assert exact_value_static(inst, [{0}, {0}], [{0, 1}]) == pytest.approx(0.5)
    assert exact_value_static(inst, [set(), set()], [set()]) == 0.0


def test_exact_value_static_side_symmetry():
    inst = generate_random_instance(2, 3, seed=4)
    s = [{0, 2}, {1}]
    c = [{0}, {1}, {0, 1}]
    swapped = inst.transpose()
    assert exact_value_static(inst, s, c) == pytest.approx(exact_value_static(swapped, c, s))


def test_exact_value_one_sided_static(unit_1x1):
    assert exact_value_one_sided_static(unit_1x1, "C", [{0}]) == pytest.approx(0.25)
    for n in (2, 4):
        inst = tight_instance("prop1", n)
        val = exact_value_one_sided_static(inst, "C", [{0}] * n)
        assert val == pytest.approx(1 - (1 - 1 / n) ** n)
        assert exact_value_one_sided_static(inst, "C", [set()] * n) == 0.0
    inst = nonmonotone_market()
    tree = exact_value_deterministic_adaptive(inst, OneSidedStaticPolicy(inst, "C", [{0}, {0}]))
    assert exact_value_one_sided_static(inst, "C", [{0}, {0}]) == pytest.approx(tree, abs=1e-12)
    assert tree == pytest.approx(0.8, abs=1e-12)


def test_exact_value_one_sided_static_size_refusal(monkeypatch):
    """The evaluator counts responders x 2^initiators demand-table entries and
    refuses past 2^23 before any table is built: 19x17 is refused, and 19x16
    (2^23) reaches its first table."""
    def fail(*args):
        raise AssertionError("a table was built")

    with monkeypatch.context() as patch:
        patch.setattr(tsa.policies, "prob_rows", fail)
        patch.setattr(tsa.policies, "demand_tables", fail)
        with pytest.raises(SizeRefusalError, match="^one-sided static evaluation refuses "
                                                   "8912896 demand-table entries > 8388608$"):
            exact_value_one_sided_static(generate_random_instance(19, 17, seed=0), "C", [set()] * 19)
    inst = generate_random_instance(19, 16, seed=0)
    assert reaches(monkeypatch, "tsa.policies.prob_rows",
                   lambda: exact_value_one_sided_static(inst, "C", [set()] * 19))


def brute_one_sided_values(instance, side, probs):
    """One-sided static values by enumerating every initiator's outcome (one
    responder, or none) and valuing each responder's explicit backlog."""
    resp = "S" if side == "C" else "C"
    nresp = instance.side_size(resp)

    def worth(j, backlog):
        model, k = instance.model(resp, j), instance.budget(resp, j)
        if k is UNBOUNDED:
            return model.demand(backlog)
        return constrained_demand(model, backlog, k).value

    values = np.zeros(tuple(len(q) for q in probs))
    for combo in itertools.product(*(range(len(q)) for q in probs)):
        rows = [q[c] for q, c in zip(probs, combo)]
        for outcome in itertools.product(range(nresp + 1), repeat=len(probs)):
            pr = math.prod(row[o] if o < nresp else 1.0 - row.sum() for row, o in zip(rows, outcome))
            backlogs = [frozenset(i for i, o in enumerate(outcome) if o == j) for j in range(nresp)]
            values[combo] += pr * sum(worth(j, b) for j, b in enumerate(backlogs))
    return values


def _candidate_probs(instance, side, rng):
    """Initiator i gets 1 + i % 3 random budget-feasible candidate displays;
    returns each initiator's (candidates, responders) choice probabilities."""
    nresp = instance.side_size("S" if side == "C" else "C")
    probs = []
    for i in range(instance.side_size(side)):
        model, k = instance.model(side, i), instance.budget(side, i)
        top = nresp if k is UNBOUNDED else min(k, nresp)
        rows = []
        for _ in range(1 + i % 3):
            s = frozenset(rng.choice(nresp, size=int(rng.integers(0, top + 1)), replace=False).tolist())
            rows.append([model.prob(j, s) if j in s else 0.0 for j in range(nresp)])
        probs.append(np.array(rows))
    return probs


def _with_budgets(inst, kc, ks):
    return Instance(inst.n, inst.m, inst.customer_models, inst.supplier_models,
                    (kc,) * inst.n, (ks,) * inst.m)


def test_one_sided_values_match_outcome_enumeration():
    rng = np.random.default_rng(7)
    mixed = generate_random_instance(3, 3, seed=2)
    mixture = Mixture((MNL((0.2, 1.5, 0.7)), MNL((2.0, 0.1, 0.0))), (0.4, 0.6))
    mixed = Instance(3, 3, mixed.customer_models, (mixture,) + mixed.supplier_models[1:])
    cases = [generate_random_instance(n, m, seed=40 + n + m) for n, m in ((2, 3), (3, 2), (3, 4), (4, 3))]
    cases += [_with_budgets(generate_random_instance(3, 4, seed=50), 1, 2),
              _with_budgets(generate_random_instance(4, 3, seed=51), 2, 1),
              mixed, _with_budgets(mixed, 2, 1), tight_instance("lemma3", 3),
              _with_budgets(tight_instance("lemma3", 3), 1, 2)]
    for inst in cases:
        for side in ("C", "S"):
            probs = _candidate_probs(inst, side, rng)
            resp = "S" if side == "C" else "C"
            tables = [demand_table(inst.model(resp, j), len(probs), inst.budget(resp, j))
                      for j in range(inst.side_size(resp))]
            got = one_sided_values(tables, probs)
            want = brute_one_sided_values(inst, side, probs)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_exact_adaptive_evaluator(unit_1x1):
    pol = GreedyOneSidedPolicy(unit_1x1, "C")
    assert exact_value_deterministic_adaptive(unit_1x1, pol) == pytest.approx(0.25)
    inst = Instance(0, 0, (), ())
    assert exact_value_deterministic_adaptive(inst, StaticPolicy(inst, [], [])) == 0.0
    prop = tight_instance("prop1", 3)
    val = exact_value_deterministic_adaptive(prop, GreedyOneSidedPolicy(prop, "C"))
    assert val == pytest.approx(19.0 / 27.0)


def test_exact_adaptive_size_refusal():
    inst = generate_random_instance(5, 5, seed=0)
    with pytest.raises(SizeRefusalError):
        exact_value_deterministic_adaptive(inst, GreedyOneSidedPolicy(inst, "C"))


def test_monte_carlo_matches_exact_within_4se():
    # The exact walk follows the policy's own actions, a path apart from the
    # batched kernel that monte_carlo runs on these MNL markets.
    for seed, profile in itertools.product(range(3), (CardinalityProfile(),
                                                      CardinalityProfile("two-way", 1, 1))):
        inst = generate_random_instance(2, 2, seed=seed, profile=profile)
        pol = GreedyOneSidedPolicy(inst, "C")
        exact = exact_value_deterministic_adaptive(inst, pol)
        res = monte_carlo(inst, pol, runs=4000, seed=seed)
        se = max(res.half_width / 1.96, 1e-3)
        assert abs(res.mean - exact) <= 4 * se


def test_matches_bounded_by_min_side():
    inst = generate_random_instance(3, 2, seed=8)
    pol = StaticPolicy(inst, [{0, 1}] * 3, [{0, 1, 2}] * 2)
    for r in range(50):
        matches, _ = simulate_once(inst, pol, np.random.default_rng([5, r]))
        assert matches <= 2


def test_trace_dump_format(unit_1x1):
    pol = StaticPolicy(unit_1x1, [{0}], [{0}])
    _, trace = simulate_once(unit_1x1, pol, np.random.default_rng(0))
    buf = io.StringIO()
    dump_trace(trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "agent", "assortment", "choice"}


def test_exact_value_edges_matches_static(unit_1x1):
    assert exact_value_edges(unit_1x1, [(0, 0)]) == pytest.approx(0.25)
    assert exact_value_edges(unit_1x1, []) == 0.0


def _mnl_static_closed_form(inst, xc, xs):
    """sum_ij xc_ij xs_ji v_ij w_ji / (V_i W_j), V_i and W_j the displayed
    weights plus the outside option."""
    v, w = inst.mnl_weights()
    big_v = 1.0 + (xc * v).sum(axis=2)
    big_w = 1.0 + (xs * w).sum(axis=2)
    num = xc * xs.transpose(0, 2, 1) * v * w.T
    return (num / (big_v[:, :, None] * big_w[:, None, :])).sum(axis=(1, 2))


def test_static_values_match_mnl_closed_form():
    rng = np.random.default_rng(17)
    # 3x40 and 40x3 need several bitmask passes per agent.
    for n, m in ((1, 1), (2, 3), (4, 4), (5, 2), (3, 40), (40, 3)):
        inst = generate_random_instance(n, m, seed=10 * n + m)
        for density in (0.2, 0.6):
            xc = rng.random((50, n, m)) < density
            xs = rng.random((50, m, n)) < density
            xc[25:] = xc[0]  # repeated displays share a row
            mutual = static_values(inst, xc)
            assert np.abs(mutual - _mnl_static_closed_form(inst, xc, xc.transpose(0, 2, 1))).max() \
                <= 1e-12
            one_way = static_values(inst, xc, xs)
            assert np.abs(one_way - _mnl_static_closed_form(inst, xc, xs)).max() <= 1e-12


def test_static_values_equal_renumbering_reference():
    """``static_values`` is ``==`` the (agent, display) renumbering it replaced
    (``fs_reference._choice_probs``): mutual and one-way displays, every model
    kind, empty batches, all-empty displays, and masks over 63 options wide."""
    from fs_reference import static_values_reference

    base = generate_random_instance(3, 4, seed=5)
    mixed = Instance(3, 4, (Mixture((base.customer_models[0], MNL((0.2, 1.5, 0.7, 3.0))), (0.3, 0.7)),
                            independent_model([0.1, 0.2, 0.3, 0.15]), BetaUniform(4)),
                     (UniformNoOutside(3, (0, 2)), independent_model([0.5, 0.2, 0.1]),
                      BetaUniform(3), Mixture((UniformNoOutside(3), MNL((1.0, 0.4, 2.0))), (0.5, 0.5))))
    wide = generate_random_instance(2, 70, seed=3)
    wide_mixed = Instance(2, 70, (Mixture(wide.customer_models, (0.4, 0.6)),
                                  UniformNoOutside(70, tuple(range(0, 70, 3)))), wide.supplier_models)
    rng = np.random.default_rng(31)
    for inst in (base, mixed, wide, wide_mixed):
        for batch in (0, 1, 2, 7, 60):
            xc = rng.random((batch, inst.n, inst.m)) < 0.5
            xs = rng.random((batch, inst.m, inst.n)) < 0.5
            xc[batch // 2:] = xc[:batch - batch // 2]  # repeated displays share a row
            for args in ((xc,), (xc, xs), (np.zeros_like(xc),), (xc, np.zeros_like(xs))):
                want = static_values_reference(inst, *args)
                assert want.shape == (batch,)
                assert np.array_equal(static_values(inst, *args), want)


def test_static_evaluators_refuse_options_outside_the_opposite_side():
    """An option id below 0 or past the opposite side is refused, not read as
    another option (numpy's negative indices) or left to an ``IndexError``."""
    inst = generate_random_instance(2, 3, seed=0)
    for bad in ({-1}, {3}):
        with pytest.raises(ContractViolationError):
            exact_value_static(inst, [bad, set()], [{0}, set(), {0}])
        with pytest.raises(ContractViolationError):
            exact_value_one_sided_static(inst, "C", [bad, {0}])
    with pytest.raises(ContractViolationError):
        exact_value_static(inst, [set(), set()], [set(), {2}, set()])
    with pytest.raises(ContractViolationError):
        exact_value_one_sided_static(inst, "S", [{-1}, set(), set()])
    for edge in ((0, 3), (2, 0)):
        with pytest.raises(ContractViolationError):
            exact_value_edges(inst, [edge])


def test_exact_value_static_refuses_lists_of_the_wrong_length():
    """A missing agent is refused, not valued as an empty display; an extra one
    is refused, not left to an ``IndexError``."""
    inst = generate_random_instance(2, 3, seed=0)
    customers, suppliers = [{0}, set()], [{0}, set(), set()]
    for bad_c, bad_s in (([{0}], suppliers), (customers + [set()], suppliers),
                         (customers, suppliers[:2]), (customers, suppliers + [set()])):
        with pytest.raises(ValueError, match="one assortment per agent"):
            exact_value_static(inst, bad_c, bad_s)
    assert exact_value_static(inst, customers, suppliers) > 0.0


def test_pair_sum_adds_pairs_in_row_major_order():
    """One pair after another, for any number of patterns: numpy's own sum of
    a lone column (a single pattern) adds pairwise, in another order."""
    rng = np.random.default_rng(23)
    for patterns in (1, 1, 1, 1, 2, 7):
        pc = rng.random((4, 5, patterns))
        ps = rng.random((5, 4, patterns)) * 10.0 ** rng.integers(-8, 2, (5, 4, patterns))
        want = np.zeros(patterns)
        for i in range(4):
            for j in range(5):
                want += pc[i, j] * ps[j, i]
        assert pair_sum(pc * ps.transpose(1, 0, 2)).tolist() == want.tolist()


def test_class_tag_ordering_enforced():
    inst = generate_random_instance(2, 2, seed=3)

    class MislabeledOneSided:
        tag = "C-OA"

        def action(self, state):
            # Touches a supplier before any customer: violates the declared class.
            return PolicyAction(("S", 0), frozenset({0}))

    with pytest.raises(ContractViolationError, match="before finishing"):
        simulate_once(inst, MislabeledOneSided(), np.random.default_rng(0))
