import math
import time
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from conftest import independent_model
import tsa.exact
from tsa.errors import SizeRefusalError
from tsa.exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.instances import (MNL, BetaUniform, CardinalityProfile, Instance, Mixture,
                           UniformNoOutside, generate_random_instance, tight_instance)
from tsa.policies import exact_value_edges

E_RATIO = math.e / (math.e - 1.0)


def test_opt_fa_1x1(unit_1x1):
    res = opt_fully_adaptive(unit_1x1)
    assert res.value == pytest.approx(0.25)
    assert res.optimal_first_action is not None
    assert res.states_expanded >= 1


def test_opt_fa_empty():
    assert opt_fully_adaptive(Instance(0, 0, (), ())).value == 0.0


def test_opt_fa_lemma6_closed_form():
    inst = tight_instance("lemma6", 3)
    expect = 2 * (1 - (1 - 1 / 3) ** 2)
    assert opt_fully_adaptive(inst).value == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(10.0 / 9.0)


def test_opt_oa_examples(unit_1x1):
    assert opt_one_sided_adaptive(unit_1x1, "C").value == pytest.approx(0.25)
    assert opt_one_sided_adaptive(unit_1x1, "S").value == pytest.approx(0.25)
    for n in (2, 3):
        inst = tight_instance("prop1", n)
        assert opt_one_sided_adaptive(inst, "C").value == pytest.approx(1 - (1 - 1 / n) ** n)
        assert opt_one_sided_adaptive(inst, "S").value == pytest.approx(1.0 / n)


def test_opt_oa_lemma3_lower_bound():
    inst = tight_instance("lemma3", 2)
    beta = [1 - math.exp(-1.0), 2 * (1 - math.exp(-0.5))]
    oa = max(opt_one_sided_adaptive(inst, "C").value,
             opt_one_sided_adaptive(inst, "S").value)
    assert oa >= beta[0] + beta[1] - 1e-9


def test_opt_os_examples(unit_1x1):
    assert opt_one_sided_static(unit_1x1, "C") == pytest.approx(0.25)
    inst = tight_instance("prop1", 2)
    assert max(opt_one_sided_static(inst, "C"),
               opt_one_sided_static(inst, "S")) == pytest.approx(0.75)
    l3 = tight_instance("lemma3", 2)
    assert max(opt_one_sided_static(l3, "C"),
               opt_one_sided_static(l3, "S")) == pytest.approx(2 * (1 - 1 / math.e), abs=1e-9)


def test_opt_fs_examples(unit_1x1):
    assert opt_fully_static(unit_1x1)[0] == pytest.approx(0.25)
    assert opt_fully_static(tight_instance("prop1", 3))[0] == pytest.approx(1.0 / 3.0)
    zero = Instance(2, 2, (MNL((0.0, 0.0)),) * 2, (MNL((0.0, 0.0)),) * 2)
    val, edges = opt_fully_static(zero)
    assert val == 0.0


def _brute_force_fully_static(inst):
    """Best budget-feasible mutual edge set by enumeration, each valued by the
    paper's sum over its edges of phi_i(j, S_i) * phi_j(i, C_j)."""
    phi = lru_cache(maxsize=None)(lambda side, a, j, shown: inst.model(side, a).prob(j, shown))
    best = -1.0
    for bits in product((False, True), repeat=inst.n * inst.m):
        edges = [(e // inst.m, e % inst.m) for e, on in enumerate(bits) if on]
        s = [frozenset(j for i2, j in edges if i2 == i) for i in range(inst.n)]
        c = [frozenset(i for i, j2 in edges if j2 == j) for j in range(inst.m)]
        if any(k is not None and len(x) > k for x, k in zip(s + c, inst.k_customer + inst.k_supplier)):
            continue
        best = max(best, sum(phi("C", i, j, s[i]) * phi("S", j, i, c[j]) for i, j in edges))
    return best


def test_opt_fs_matches_brute_force_for_general_models():
    # Both sides' budgets bind: OPT_FS is 0.2780, 0.2990 without the customer
    # budgets and 0.2931 without the supplier budgets.
    base = generate_random_instance(3, 3, seed=20)
    mixture = Instance(3, 3, tuple(Mixture((c,), (1.0,)) for c in base.customer_models),
                       tuple(Mixture((s,), (1.0,)) for s in base.supplier_models),
                       (1, 2, 1), (1, 1, 2))
    for inst in (tight_instance("thm3", 2), tight_instance("lemma3", 2), mixture):
        val, edges = opt_fully_static(inst)
        assert val == pytest.approx(_brute_force_fully_static(inst), abs=1e-12)
        assert exact_value_edges(inst, edges) == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("profile", [CardinalityProfile(), CardinalityProfile("two-way", 1, 2)])
def test_opt_fs_blocks_keep_the_first_maximum(monkeypatch, profile):
    """Blocks of 32 patterns (under budgets of 1, some hold no feasible
    pattern) give the value and edges of the default's single block."""
    inst = generate_random_instance(3, 4, seed=5, profile=profile)
    want = opt_fully_static(inst)
    monkeypatch.setattr("tsa.exact._FS_BLOCK", 32)
    assert opt_fully_static(inst) == want


# OPT_FS against the enumeration it replaced (tests/fs_reference.py): the same
# products added in the same order, so equal values and edge lists.


def _general_fs_markets():
    """The markets of ``test_opt_fs_matches_brute_force_for_general_models``,
    a BetaUniform/UniformNoOutside market and an all-zero-weight market."""
    base = generate_random_instance(3, 3, seed=20)
    mixture = Instance(3, 3, tuple(Mixture((c,), (1.0,)) for c in base.customer_models),
                       tuple(Mixture((s,), (1.0,)) for s in base.supplier_models),
                       (1, 2, 1), (1, 1, 2))
    uniform = Instance(2, 3, (BetaUniform(3), UniformNoOutside(3, (0, 2))),
                       (UniformNoOutside(2), BetaUniform(2), MNL((0.5, 2.0))), (2, None))
    zero = Instance(2, 2, (MNL((0.0, 0.0)),) * 2, (MNL((0.0, 0.0)),) * 2)
    return [tight_instance("thm3", 2), tight_instance("lemma3", 2), mixture, uniform, zero]


FS_REFERENCE_MARKETS = {
    "tables": lambda: [generate_random_instance(s, s, seed) for s in (2, 3, 4) for seed in range(14)],
    "tables-two-way": lambda: [generate_random_instance(s, s, seed, CardinalityProfile("two-way", 2, 2))
                               for s in (2, 3, 4) for seed in range(6)],
    "one-way": lambda: [generate_random_instance(3, 6, seed, CardinalityProfile("one-way", 2, None))
                        for seed in range(2)]
                       + [generate_random_instance(6, 3, seed, CardinalityProfile("one-way", None, 2, "S"))
                          for seed in range(2)],
    "wide": lambda: [generate_random_instance(2, 10, 0), generate_random_instance(4, 5, 0),
                     generate_random_instance(5, 4, 0, CardinalityProfile("two-way", 1, 3))],
    "general": _general_fs_markets,
}


@pytest.mark.parametrize("kind", FS_REFERENCE_MARKETS)
def test_opt_fs_matches_reference_bit_for_bit(kind):
    from fs_reference import fs_reference

    for inst in FS_REFERENCE_MARKETS[kind]():
        assert opt_fully_static(inst) == fs_reference(inst)


def test_opt_fs_side_over_16_options():
    """A side over 16 options has no ``prob_table``, so OPT_FS is refused
    although its 2^17 edge sets are within the enumeration limit."""
    with pytest.raises(SizeRefusalError, match="prob_table"):
        opt_fully_static(generate_random_instance(1, 17, seed=0))


def test_size_refusals():
    big = generate_random_instance(5, 6, seed=0)
    with pytest.raises(SizeRefusalError):
        opt_fully_adaptive(generate_random_instance(1, 16, seed=0))  # 4.4e7 states > 2^24
    with pytest.raises(SizeRefusalError):
        opt_one_sided_static(big, "C")  # 2^30 assortment families > 2^25
    with pytest.raises(SizeRefusalError):
        opt_fully_static(big)  # 2^30 edge sets > 2^25
    with pytest.raises(SizeRefusalError):
        opt_one_sided_adaptive(generate_random_instance(13, 2, seed=0), "C")  # 4^13 states
    # 9 initiators and 1 responder: 3^9 states.
    wide = generate_random_instance(9, 1, seed=0)
    assert opt_one_sided_adaptive(wide, "C").value > 0


@pytest.mark.parametrize("size,seeds", [(2, 6), (3, 4)])
def test_nesting_chain_and_theorem_bounds(size, seeds):
    for seed in range(seeds):
        inst = generate_random_instance(size, size, seed=100 + seed)
        fs, _ = opt_fully_static(inst)
        os_ = max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))
        oa = max(opt_one_sided_adaptive(inst, "C").value,
                 opt_one_sided_adaptive(inst, "S").value)
        fa = opt_fully_adaptive(inst).value
        assert fs <= os_ + 1e-9
        assert os_ <= oa + 1e-9
        assert oa <= fa + 1e-9
        assert fa <= 2 * oa + 1e-9
        assert oa <= E_RATIO * os_ + 1e-9


def test_independent_demand_gap_is_one():
    # Independent-demand agents: no adaptivity advantage, OPT_FS = OPT_FA.
    rng = np.random.default_rng(12)
    for _ in range(3):
        pc = rng.random(2) * 0.45
        ps = rng.random(2) * 0.45
        inst = Instance(2, 2,
                        tuple(independent_model(list(pc)) for _ in range(2)),
                        tuple(independent_model(list(ps)) for _ in range(2)))
        fs, _ = opt_fully_static(inst)
        fa = opt_fully_adaptive(inst).value
        assert fs == pytest.approx(fa, abs=1e-9)


def test_constrained_budgets_respected():
    inst = Instance(2, 2, (MNL((1.0, 1.0)),) * 2, (MNL((1.0, 1.0)),) * 2,
                    (1, 1), (1, 1))
    val, edges = opt_fully_static(inst)
    per_row = {}
    per_col = {}
    for (i, j) in edges:
        per_row[i] = per_row.get(i, 0) + 1
        per_col[j] = per_col.get(j, 0) + 1
    assert all(c <= 1 for c in per_row.values())
    assert all(c <= 1 for c in per_col.values())
    unconstrained, _ = opt_fully_static(Instance(2, 2, (MNL((1.0, 1.0)),) * 2,
                                                 (MNL((1.0, 1.0)),) * 2))
    assert val <= unconstrained + 1e-12


def test_first_action_is_sane():
    inst = tight_instance("prop1", 2)
    res = opt_one_sided_adaptive(inst, "C")
    agent, assortment = res.optimal_first_action.agent, res.optimal_first_action.assortment
    assert agent[0] == "C"
    assert assortment == {0}


# ---------------------------------------------------------------------------
# Independent brute-force oracles (naive recursions over explicit sets) used to
# cross-check the packed-state dynamic programs.


def _subsets(universe):
    universe = sorted(universe)
    for mask in range(1 << len(universe)):
        yield frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)


def naive_opt_fa(instance, respect_budgets=False):
    agents = [("C", i) for i in range(instance.n)] + [("S", j) for j in range(instance.m)]

    def feasible(agent, s):
        if not respect_budgets:
            return True
        k = instance.budget(*agent)
        return k is None or len(s) <= k

    def recurse(remaining, backlogs):
        if not remaining:
            return 0.0
        best = 0.0
        for agent in sorted(remaining):
            side, idx = agent
            model = instance.model(side, idx)
            opp_side = "S" if side == "C" else "C"
            for s in _subsets(range(instance.side_size(opp_side))):
                if not feasible(agent, s):
                    continue
                val = 0.0
                rest = remaining - {agent}
                out_p = 1.0
                for j in sorted(s):
                    p = model.prob(j, s)
                    out_p -= p
                    if p <= 0:
                        continue
                    other = (opp_side, j)
                    if other in backlogs.get(agent, frozenset()):
                        val += p * (1.0 + recurse(rest, backlogs))
                    elif other in rest:
                        nb = dict(backlogs)
                        nb[other] = nb.get(other, frozenset()) | {agent}
                        val += p * recurse(rest, nb)
                    else:
                        val += p * recurse(rest, backlogs)
                if out_p > 1e-15:
                    val += out_p * recurse(rest, backlogs)
                best = max(best, val)
        return best

    return recurse(frozenset(agents), {})


def naive_opt_oa(instance, side, respect_budgets=False):
    from tsa.oracles import constrained_demand

    resp_side = "S" if side == "C" else "C"
    nresp = instance.side_size(resp_side)

    def terminal(backlogs):
        total = 0.0
        for j in range(nresp):
            backlog = backlogs.get(j, frozenset())
            k = instance.budget(resp_side, j) if respect_budgets else None
            if k is None:
                total += instance.model(resp_side, j).demand(backlog)
            else:
                total += constrained_demand(instance.model(resp_side, j), backlog, k).value
        return total

    def recurse(remaining, backlogs):
        if not remaining:
            return terminal(backlogs)
        best = 0.0
        for i in sorted(remaining):
            model = instance.model(side, i)
            k_init = instance.budget(side, i) if respect_budgets else None
            for s in _subsets(range(nresp)):
                if k_init is not None and len(s) > k_init:
                    continue
                rest = remaining - {i}
                val = 0.0
                out_p = 1.0
                for j in sorted(s):
                    p = model.prob(j, s)
                    out_p -= p
                    if p <= 0:
                        continue
                    nb = dict(backlogs)
                    nb[j] = nb.get(j, frozenset()) | {i}
                    val += p * recurse(rest, nb)
                if out_p > 1e-15:
                    val += out_p * recurse(rest, backlogs)
                best = max(best, val)
        return best

    return recurse(frozenset(range(instance.side_size(side))), {})


def test_fa_dp_matches_naive_recursion():
    for seed in range(4):
        inst = generate_random_instance(2, 2, seed=300 + seed)
        assert opt_fully_adaptive(inst).value == pytest.approx(naive_opt_fa(inst), abs=1e-9)
    l6 = tight_instance("lemma6", 2)
    assert opt_fully_adaptive(l6).value == pytest.approx(naive_opt_fa(l6), abs=1e-9)


def test_constrained_dps_match_naive_recursion():
    for seed in range(3):
        for budget in (1, 2):
            base = generate_random_instance(2, 2, seed=330 + seed)
            inst = Instance(2, 2, base.customer_models, base.supplier_models,
                            (budget,) * 2, (budget,) * 2)
            assert opt_fully_adaptive(inst).value == pytest.approx(
                naive_opt_fa(inst, respect_budgets=True), abs=1e-9)
        base = generate_random_instance(2, 3, seed=340 + seed)
        inst = Instance(2, 3, base.customer_models, base.supplier_models,
                        (2,) * 2, (1,) * 3)
        for side in ("C", "S"):
            assert opt_one_sided_adaptive(inst, side).value == pytest.approx(
                naive_opt_oa(inst, side, respect_budgets=True), abs=1e-9)


def test_oa_dp_matches_naive_recursion():
    for seed in range(4):
        inst = generate_random_instance(2, 3, seed=310 + seed)
        for side in ("C", "S"):
            assert opt_one_sided_adaptive(inst, side).value == pytest.approx(
                naive_opt_oa(inst, side), abs=1e-9)


def test_os_enumeration_matches_direct_families():
    from itertools import product

    from tsa.policies import exact_value_one_sided_static

    for seed in range(3):
        inst = generate_random_instance(2, 2, seed=320 + seed)
        subsets = list(_subsets(range(2)))
        best = max(exact_value_one_sided_static(inst, "C", list(family))
                   for family in product(subsets, repeat=2))
        assert opt_one_sided_static(inst, "C") == pytest.approx(best, abs=1e-9)


def test_os_blocks_of_one_candidate_match_one_block(monkeypatch):
    from tsa import exact

    profiles = (CardinalityProfile(), CardinalityProfile("two-way", 1, 2))
    cases = [(generate_random_instance(3, m, seed, profile), side)
             for m in (3, 4) for seed in range(2) for profile in profiles for side in "CS"]
    whole = [opt_one_sided_static(inst, side) for inst, side in cases]
    monkeypatch.setattr(exact, "_OS_BLOCK", 1)
    assert [opt_one_sided_static(inst, side) for inst, side in cases] == whole


def naive_first_action_value(instance, action, side=None):
    """Expected matches of ``action`` at the root followed by optimal play, by
    memoized recursion over explicit sets.  ``side=None`` is the fully adaptive
    game; otherwise ``side`` initiates and each responder is then shown its
    backlog (its best budget-feasible subset when it has a budget)."""
    from functools import lru_cache

    from tsa.oracles import constrained_demand

    opposite = {"C": "S", "S": "C"}
    if side is None:
        movers = [("C", i) for i in range(instance.n)] + [("S", j) for j in range(instance.m)]
    else:
        movers = [(side, i) for i in range(instance.side_size(side))]

    def terminal(backlogs):
        if side is None:
            return 0.0
        resp = opposite[side]
        total = 0.0
        for j in range(instance.side_size(resp)):
            backlog = frozenset(i for (b, (_, i)) in backlogs if b == (resp, j))
            model, k = instance.model(resp, j), instance.budget(resp, j)
            total += model.demand(backlog) if k is None else constrained_demand(model, backlog, k).value
        return total

    def outcome(remaining, backlogs, agent, s):
        """Show ``s`` to ``agent``; ``backlogs`` holds (chosen, chooser) pairs."""
        model = instance.model(*agent)
        rest = remaining - {agent}
        val, out_p = 0.0, 1.0
        for j in sorted(s):
            p = model.prob(j, s)
            out_p -= p
            if p <= 0:
                continue
            other = (opposite[agent[0]], j)
            if (agent, other) in backlogs:
                val += p * (1.0 + play(rest, backlogs))
            elif other in rest or side is not None:
                val += p * play(rest, backlogs | {(other, agent)})
            else:
                val += p * play(rest, backlogs)
        if out_p > 1e-15:
            val += out_p * play(rest, backlogs)
        return val

    @lru_cache(maxsize=None)
    def play(remaining, backlogs):
        if not remaining:
            return terminal(backlogs)
        best = 0.0
        for agent in sorted(remaining):
            k = instance.budget(*agent)
            for s in _subsets(range(instance.side_size(opposite[agent[0]]))):
                if k is None or len(s) <= k:
                    best = max(best, outcome(remaining, backlogs, agent, s))
        return best

    return outcome(frozenset(movers), frozenset(), action.agent, action.assortment)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
@pytest.mark.parametrize("budget", [None, 1, 2])
def test_first_action_replay_attains_opt(n, m, budget):
    for seed in range(2):
        base = generate_random_instance(n, m, seed=350 + seed)
        inst = Instance(n, m, base.customer_models, base.supplier_models,
                        (budget,) * n, (budget,) * m)
        fa = opt_fully_adaptive(inst)
        assert naive_first_action_value(inst, fa.optimal_first_action) == pytest.approx(
            fa.value, abs=1e-9)
        for side in ("C", "S"):
            oa = opt_one_sided_adaptive(inst, side)
            assert oa.optimal_first_action.agent[0] == side
            assert naive_first_action_value(inst, oa.optimal_first_action, side) == pytest.approx(
                oa.value, abs=1e-9)


# ---------------------------------------------------------------------------
# The layered DP against the recursion it replaced (tests/dp_reference.py):
# same arithmetic per state, so equal values, state counts and first actions.


def _reference_market(n, m, seed, kind, budgets):
    """A random market whose agents are MNL (``mnl``), MNL with some weights
    exactly zero (``zero``), or (``general``) MNL plus, on each side with at
    most 5 options, a Tabular first agent and Mixture odd agents;
    ``budgets`` is (customer budget, supplier budget)."""
    base = generate_random_instance(n, m, seed=seed)
    rng = np.random.default_rng(seed)
    sides = [list(base.customer_models), list(base.supplier_models)]
    for models, opts in zip(sides, (m, n)):
        for a, model in enumerate(models):
            if kind == "zero":
                models[a] = MNL(tuple(0.0 if rng.random() < 0.4 else w for w in model.weights))
            elif kind == "general" and opts <= 5 and a == 0:
                models[a] = independent_model(list(rng.random(opts) / (opts + 1)))
            elif kind == "general" and opts <= 5 and a % 2:
                models[a] = Mixture((model, MNL(tuple(rng.random(opts) * 2))), (0.6, 0.4))
    return Instance(n, m, tuple(sides[0]), tuple(sides[1]), (budgets[0],) * n, (budgets[1],) * m)


@pytest.mark.parametrize("n,m", [(1, 4), (4, 1), (2, 5), (7, 2)])
@pytest.mark.parametrize("kind", ["mnl", "zero", "general"])
@pytest.mark.parametrize("budgets", [(None, None), (2, None), (None, 1), (2, 1)],
                         ids=["none", "one-way-C", "one-way-S", "two-way"])
def test_layered_dp_matches_recursion_bit_for_bit(n, m, kind, budgets):
    from dp_reference import recursive_adaptive_dp

    for seed in range(1 if n * m > 10 else 2):  # the recursion takes seconds at 7x2
        inst = _reference_market(n, m, 360 + seed, kind, budgets)
        runs = [(opt_fully_adaptive(inst), recursive_adaptive_dp(inst, None))]
        runs += [(opt_one_sided_adaptive(inst, side), recursive_adaptive_dp(inst, side))
                 for side in ("C", "S")]
        for got, ref in runs:
            assert got.value == ref.value
            assert got.states_expanded == ref.states_expanded
            assert got.optimal_first_action == ref.optimal_first_action


def test_key_width_refusal():
    """A state key past 63 bits is refused before any state is built."""
    with pytest.raises(SizeRefusalError, match="72-bit"):
        opt_one_sided_adaptive(generate_random_instance(8, 8, seed=0), "C")  # 8 + 8*8 bits
    with pytest.raises(SizeRefusalError, match="71-bit"):
        opt_fully_adaptive(generate_random_instance(5, 6, seed=0))
    # 3 initiators and 20 responders take 3 + 3*20 = 63 bits, the widest key
    # accepted (its top bit is set, and the values still agree); 2 initiators
    # and 31 responders take 64.
    from dp_reference import recursive_adaptive_dp

    inst = generate_random_instance(3, 20, seed=0)
    assert opt_one_sided_adaptive(inst, "C") == recursive_adaptive_dp(inst, "C")
    with pytest.raises(SizeRefusalError, match="64-bit"):
        opt_one_sided_adaptive(generate_random_instance(2, 31, seed=0), "C")


# ---------------------------------------------------------------------------
# The adaptive DPs refuse by their state count, known before any state is built.


def predicted_states(n, m, side):
    """States of the adaptive DP on an n x m market, terminal ones included,
    when every option is usable: each done mover chose an opponent still undone,
    or none.  ``side`` moves first; None is fully adaptive."""
    if side is not None:
        k, l = (n, m) if side == "C" else (m, n)
        return (l + 2) ** k
    return sum(math.comb(n, a) * math.comb(m, b) * (m - b + 1) ** a * (n - a + 1) ** b
               for a in range(n + 1) for b in range(m + 1))


def key_bits(n, m, side):
    if side is not None:
        k, l = (n, m) if side == "C" else (m, n)
        return k * (1 + l)
    return 2 * n * m + n + m


def _solve(inst, side):
    return opt_fully_adaptive(inst) if side is None else opt_one_sided_adaptive(inst, side)


def _reaches(monkeypatch, name, solve):
    """Whether ``solve()`` passes its size checks, seen from whether it calls
    ``tsa.exact.<name>``, which is patched to stop it there: nothing is solved."""
    class Admitted(Exception):
        pass

    def stop(*args):
        raise Admitted

    monkeypatch.setattr(tsa.exact, name, stop)
    try:
        solve()
    except Admitted:
        return True
    except SizeRefusalError:
        return False
    raise AssertionError(f"the solver ran without {name}")


def _admitted(monkeypatch, inst, side):
    """Whether the DP passes its size checks, seen from whether it reaches its
    first row oracle."""
    return _reaches(monkeypatch, "_agent_oracle", lambda: _solve(inst, side))


@pytest.mark.parametrize("kind", ["mnl", "zero", "general"])
@pytest.mark.parametrize("budgets", [(None, None), (2, 1)], ids=["none", "two-way"])
def test_predicted_states_match_the_dp(kind, budgets):
    """With every weight positive the count is the DP's ``states_expanded``, plus
    the (l + 1)^k terminal states it leaves out one-sided; with zero weights or
    non-MNL agents it is an upper bound."""
    for n in range(1, 6):
        for m in range(1, 6):
            inst = _reference_market(n, m, 2400 + 10 * n + m, kind, budgets)
            for side in (None, "C", "S"):
                if side is None and n * m == 25 and (kind, budgets) != ("mnl", (None, None)):
                    continue  # 2 s or more each; once is enough
                states = _solve(inst, side).states_expanded
                if side is not None:
                    k, l = (n, m) if side == "C" else (m, n)
                    states += (l + 1) ** k
                if kind == "mnl":
                    assert states == predicted_states(n, m, side), (n, m, side)
                else:
                    assert states <= predicted_states(n, m, side), (n, m, side)


def test_state_count_refusal_builds_nothing(monkeypatch):
    """21x2 one-sided has a 63-bit key, which passes, and 4^21 states; 13x2
    one-sided and fully adaptive 1x16 are the first shapes of their kind past
    2^24.  Each is refused before any row oracle exists."""
    def fail(*args):
        raise AssertionError("a DP started")

    monkeypatch.setattr(tsa.exact, "_agent_oracle", fail)
    for n, m, side in ((21, 2, "C"), (13, 2, "C"), (1, 16, None)):
        with pytest.raises(SizeRefusalError, match=f"refuses {predicted_states(n, m, side)} states"):
            _solve(generate_random_instance(n, m, seed=0), side)


def test_refusal_is_key_width_or_state_count(monkeypatch):
    """Up to 24x24, each DP refuses exactly when its key takes more than 63 bits
    or its count exceeds 2^24 (admitted: 12x2 one-sided at 4^12, 1x15 fully
    adaptive)."""
    for n in range(1, 25):
        for m in range(1, 25):
            inst = generate_random_instance(n, m, seed=0)
            for side in (None, "C", "S"):
                expect = key_bits(n, m, side) <= 63 and predicted_states(n, m, side) <= 1 << 24
                assert _admitted(monkeypatch, inst, side) == expect, (n, m, side)


def test_shapes_the_side_caps_admitted_stay_admitted(monkeypatch):
    """The side caps this count replaced admitted fully adaptive n + m <= 8 and
    one-sided k <= 8 initiators (with keys of k(1 + l) <= 63 bits).  The largest
    count among them is 2^24, the one-sided 8x6 DP's 8^8."""
    shapes = [(n, m, None) for n in range(1, 8) for m in range(1, 9 - n)]
    one_sided = [(k, l) for k in range(1, 9) for l in range(1, 63) if k * (1 + l) <= 63]
    shapes += [(k, l, "C") for k, l in one_sided] + [(l, k, "S") for k, l in one_sided]
    assert max(predicted_states(*shape) for shape in shapes) == predicted_states(8, 6, "C") == 1 << 24
    for n, m, side in shapes:
        assert _admitted(monkeypatch, generate_random_instance(n, m, seed=0), side)


def test_non_mnl_table_refusal():
    """A non-MNL initiator over 17 responders: its 18-bit key passes, and its
    choice-probability table is refused before any state is built."""
    uniform = Instance(1, 17, (UniformNoOutside(17),), (MNL((1.0,)),) * 17)
    with pytest.raises(SizeRefusalError, match="prob_table"):
        opt_one_sided_adaptive(uniform, "C")


# ---------------------------------------------------------------------------
# The static optima refuse by the size of their enumeration, known before any
# table is built.


def os_families(n, m, side, budget=None):
    """Assortment families OPT_OS initiating on ``side`` enumerates: each
    initiator shows one of the sets of at most ``budget`` responders."""
    k, l = (n, m) if side == "C" else (m, n)
    sets = sum(math.comb(l, size) for size in range(l + 1) if budget is None or size <= budget)
    return sets ** k


def test_static_refusal_builds_no_table(monkeypatch):
    """OPT_OS on 13x2 side C (4^13 families) and on either side of 5x6 (2^30),
    and OPT_FS on 5x6 (2^30 edge sets), are refused before any ``prob_table``."""
    def fail(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(tsa.exact, "prob_table", fail)
    for n, m, side in ((13, 2, "C"), (5, 6, "C"), (5, 6, "S")):
        with pytest.raises(SizeRefusalError, match=f"refuses {os_families(n, m, side)} assortment families"):
            opt_one_sided_static(generate_random_instance(n, m, seed=0), side)
    with pytest.raises(SizeRefusalError, match=f"refuses {1 << 30} edge sets"):
        opt_fully_static(generate_random_instance(5, 6, seed=0))


@pytest.mark.parametrize("budgets", [(None, None), (2, 1)], ids=["none", "two-way"])
def test_static_refusal_is_the_count(monkeypatch, budgets):
    """On every shape of at most 30 edges, each static optimum refuses exactly
    when its count exceeds 2^25 (admitted: OPT_OS on 12x2 side C at 4^12, OPT_FS
    on 5x5)."""
    for n in range(1, 31):
        for m in range(1, 30 // n + 1):
            inst = _reference_market(n, m, 0, "mnl", budgets)
            for side, budget in zip("CS", budgets):
                assert _reaches(monkeypatch, "prob_table", lambda: opt_one_sided_static(inst, side)) == (
                    os_families(n, m, side, budget) <= 1 << 25), (n, m, side)
            assert _reaches(monkeypatch, "prob_table", lambda: opt_fully_static(inst)) == (n * m <= 25)


def test_shapes_the_static_caps_admitted_stay_admitted(monkeypatch):
    """The caps this count replaced admitted OPT_OS on sides of at most 4 under
    any budgets (a budget only shrinks the count) and OPT_FS on n*m <= 20; the
    largest counts among them are 2^16 and 2^20.  OPT_FS on 1x17 to 1x20 and
    their transposes passes the count and is refused by ``prob_table``."""
    os_shapes = [(n, m, side) for n in range(1, 5) for m in range(1, 5) for side in "CS"]
    fs_shapes = [(n, m) for n in range(1, 21) for m in range(1, 20 // n + 1)]
    assert max(os_families(*shape) for shape in os_shapes) == 1 << 16
    for n, m, side in os_shapes:
        inst = generate_random_instance(n, m, seed=0)
        assert _reaches(monkeypatch, "prob_table", lambda: opt_one_sided_static(inst, side))
    for n, m in fs_shapes:
        inst = generate_random_instance(n, m, seed=0)
        assert _reaches(monkeypatch, "prob_table", lambda: opt_fully_static(inst))


def test_layered_dp_deadline():
    from tsa.errors import TimeLimitError
    from tsa.util import Deadline

    inst = generate_random_instance(5, 5, seed=0)
    start = time.monotonic()
    with pytest.raises(TimeLimitError), Deadline(0.05):
        opt_fully_adaptive(inst)
    assert time.monotonic() - start < 1.0
