import csv
import io
import math

import numpy as np
import pytest

import tsa.bounds

from helpers import distribution_residual, reaches
from tsa.bounds import (QUANTITY_ORDER, VERDICT_ORDER, _block_oracle, _ub_oa_oriented,
                        alg_one_sided_static_value, gap_report, independent_objective_from_tau,
                        lp_relaxation_onesided, reports_to_csv, ub_fa, ub_oa)
from tsa.errors import SizeRefusalError, TimeLimitError, UnsupportedOracleError
from tsa.exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.greedy import GreedyOneSidedPolicy, exact_greedy_value
from tsa.instances import (MNL, CardinalityProfile, Instance, generate_random_instance,
                           tight_instance)
from tsa.lp import LpProblem, maximize_concave, solve_lp
from tsa.policies import exact_value_one_sided_static, monte_carlo
from tsa.util import Deadline
from ub_oa_reference import plain_fw_ub_oa_oriented, run_to_end

E_RATIO = math.e / (math.e - 1.0)


def test_relaxation_1x1(unit_1x1):
    rel = lp_relaxation_onesided(unit_1x1, "C")
    assert rel.value == pytest.approx(0.25, abs=1e-9)
    assert rel.tau[(0, frozenset({0}))] == pytest.approx(1.0)
    assert rel.lam[(0, frozenset({0}))] == pytest.approx(0.5)
    assert distribution_residual(rel) <= 1e-8


def test_relaxation_upper_bounds_opt_oa():
    for seed in range(20):
        inst = generate_random_instance(3, 3, seed=seed)
        rel = lp_relaxation_onesided(inst, "C")
        oa = opt_one_sided_adaptive(inst, "C").value
        assert rel.value >= oa - 1e-6


def test_relaxation_within_correlation_gap_of_os():
    for seed in range(20):
        inst = generate_random_instance(3, 3, seed=seed)
        rel = lp_relaxation_onesided(inst, "C")
        os_c = opt_one_sided_static(inst, "C")
        assert rel.value <= E_RATIO * os_c + 1e-6


def test_correlation_gap_of_independent_distribution():
    for seed in range(10):
        inst = generate_random_instance(3, 3, seed=seed)
        rel = lp_relaxation_onesided(inst, "C")
        ind = independent_objective_from_tau(inst, rel)
        assert ind >= (1 - 1 / math.e) * rel.value - 1e-9


def test_relaxation_size_refusal(monkeypatch):
    """10x10 has 20,480 columns, past 2^14: refused before any table is built."""
    def fail(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(tsa.bounds, "demand_tables", fail)
    monkeypatch.setattr(tsa.bounds, "prob_table", fail)
    inst = generate_random_instance(10, 10, seed=0)
    with pytest.raises(SizeRefusalError, match="refuses 20480 columns"):
        lp_relaxation_onesided(inst, "C")


def test_budgeted_tables_admit_a_wide_budgeted_market():
    """On a 1x17 market under two-way budgets (1, 1), side C's initiator has
    18 displays, and its table holds only their rows: OPT_OS is the best of
    them valued one by one, and REL2 (52 columns) stays above OPT_OA.  OPT_FS
    indexes full tables by mask, so ``prob_table`` still refuses it."""
    inst = generate_random_instance(1, 17, seed=0, profile=CardinalityProfile("two-way", 1, 1))
    displays = [set()] + [{j} for j in range(17)]
    assert opt_one_sided_static(inst, "C") == max(
        exact_value_one_sided_static(inst, "C", [s]) for s in displays)
    assert lp_relaxation_onesided(inst, "C").value >= opt_one_sided_adaptive(inst, "C").value - 1e-9
    with pytest.raises(SizeRefusalError, match="^prob_table refuses 2228224 entries > 1048576$"):
        opt_fully_static(inst)


def rel2_columns(n, m, side, budgets):
    """Columns of the relaxation initiating on ``side``: lam per (responder,
    initiator subset), tau per (initiator, set of at most its budget of
    responders)."""
    k, l = (n, m) if side == "C" else (m, n)
    budget = budgets["CS".index(side)]
    sets = sum(math.comb(l, size) for size in range(l + 1) if budget is None or size <= budget)
    return l * 2 ** k + k * sets


def _budgeted(n, m, budgets):
    base = generate_random_instance(n, m, seed=0)
    return Instance(n, m, base.customer_models, base.supplier_models,
                    (budgets[0],) * n, (budgets[1],) * m)


@pytest.mark.parametrize("budgets", [(None, None), (2, 1)], ids=["none", "two-way"])
def test_relaxation_refusal_is_its_column_count(monkeypatch, budgets):
    """Up to 12x12, REL2 refuses exactly when its LP has more than 2^14
    columns (unbudgeted: 9x9, 10x9 and 11x7 admitted; 10x10, 13x2 and 15x1
    side C refused), before its first demand table."""
    for n in range(1, 13):
        for m in range(1, 13):
            inst = _budgeted(n, m, budgets)
            for side in "CS":
                assert reaches(monkeypatch, "tsa.bounds.demand_tables",
                               lambda: lp_relaxation_onesided(inst, side)) == (
                    rel2_columns(n, m, side, budgets) <= 1 << 14), (n, m, side)


@pytest.mark.parametrize("budgets", [(None, None), (2, 1)], ids=["none", "two-way"])
def test_relaxation_column_count_is_the_lp(monkeypatch, budgets):
    """The counted columns are those of the LP handed to the simplex."""
    columns = []

    def spy(problem):
        columns.append(problem.c.size)
        return solve_lp(problem)

    monkeypatch.setattr(tsa.bounds, "solve_lp", spy)
    for n in range(1, 5):
        for m in range(1, 5):
            for side in "CS":
                lp_relaxation_onesided(_budgeted(n, m, budgets), side)
                assert columns[-1] == rel2_columns(n, m, side, budgets), (n, m, side)


def test_constrained_relaxation_uses_fk():
    base = generate_random_instance(2, 2, seed=3)
    inst = Instance(2, 2, base.customer_models, base.supplier_models, (1, 1), (1, 1))
    rel = lp_relaxation_onesided(inst, "C")
    oa = opt_one_sided_adaptive(inst, "C").value
    assert rel.value >= oa - 1e-6
    for (_, s) in rel.tau:
        assert len(s) <= 1


def test_ub_oa_examples(unit_1x1):
    assert ub_oa(unit_1x1) >= 0.25 - 1e-9
    zero = Instance(1, 1, (MNL((0.0,)),), (MNL((0.0,)),))
    assert ub_oa(zero) == pytest.approx(0.0, abs=1e-9)


def test_ub_oa_upper_bounds_opt():
    for seed in range(8):
        inst = generate_random_instance(3, 3, seed=seed)
        oa = max(opt_one_sided_adaptive(inst, "C").value,
                 opt_one_sided_adaptive(inst, "S").value)
        assert ub_oa(inst) >= oa - 1e-6


def _mnl_market(v, w):
    return Instance(len(v), len(w), tuple(MNL(tuple(r)) for r in v), tuple(MNL(tuple(r)) for r in w))


def _stopping_markets():
    """Random shapes from 1x1 to 12x12 with 1xk and kx1, then markets whose
    suppliers mirror their customers (w = v, so both orientations are one
    program and tie), identical agents, and weights that are zero in part or
    in full."""
    for n, m, seeds in ((1, 1, 3), (1, 9, 3), (9, 1, 3), (2, 5, 3), (5, 2, 3), (3, 3, 6),
                        (4, 4, 6), (6, 10, 2), (10, 6, 2), (12, 12, 2)):
        for seed in range(seeds):
            yield generate_random_instance(n, m, seed=seed)
    rng = np.random.default_rng(36)
    for n, m in ((1, 1), (3, 3), (5, 5), (2, 6), (6, 2)):
        v = rng.uniform(0.1, 2.0, (n, m))
        if n == m:
            yield _mnl_market(v, v)
        yield _mnl_market(np.full((n, m), v[0, 0]), np.full((m, n), v[-1, -1]))
        yield _mnl_market(v * (rng.random((n, m)) < 0.5), rng.uniform(0.1, 2.0, (m, n)))
        yield _mnl_market(v, np.zeros((m, n)))


def test_ub_oa_equals_the_max_of_both_full_runs():
    """Stopping the orientation that cannot hold the max keeps the float the
    two full runs give, bit for bit."""
    for inst in _stopping_markets():
        v, w = inst.mnl_weights()
        full = max(run_to_end(_ub_oa_oriented(v, w))[0], run_to_end(_ub_oa_oriented(w, v))[0])
        assert ub_oa(inst) == full, (inst.n, inst.m, v.tolist(), w.tolist())


def test_ub_oa_stops_the_losing_orientation(monkeypatch):
    """ub_oa polls the deadline once an iteration: on 12x12 it makes fewer
    iterations than the two full runs together, while a market whose
    orientations tie (w = v) runs both to the end."""
    polls = []
    monkeypatch.setattr(tsa.bounds, "check_deadline", lambda: polls.append(1))
    tie = np.random.default_rng(7).uniform(0.1, 2.0, (6, 6))
    for inst, stops in [(generate_random_instance(12, 12, seed=s), True) for s in range(2)] + \
            [(_mnl_market(tie, tie), False)]:
        v, w = inst.mnl_weights()
        full = run_to_end(_ub_oa_oriented(v, w))[1] + run_to_end(_ub_oa_oriented(w, v))[1]
        polls.clear()
        ub_oa(inst)
        assert (len(polls) < full) if stops else (len(polls) == full), (len(polls), full)


def test_ub_fa_examples(unit_1x1):
    assert ub_fa(unit_1x1) == pytest.approx(0.5, abs=1e-9)
    zero = Instance(1, 1, (MNL((0.0,)),), (MNL((0.0,)),))
    assert ub_fa(zero) == pytest.approx(0.0, abs=1e-9)


def test_ub_fa_upper_bounds_opt():
    for seed in range(8):
        inst = generate_random_instance(3, 3, seed=seed)
        fa = opt_fully_adaptive(inst).value
        assert ub_fa(inst) >= fa - 1e-6


def test_bounds_require_mnl():
    inst = tight_instance("prop1", 2)
    with pytest.raises(UnsupportedOracleError):
        ub_oa(inst)
    with pytest.raises(UnsupportedOracleError):
        ub_fa(inst)


def test_gap_report_prop1_ratio():
    rep = gap_report(tight_instance("prop1", 4), "prop1-4")
    expect = 4 * (1 - (3 / 4) ** 4)
    assert rep.ratios["OPT_OS/OPT_FS"] == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(2.734375)


def test_gap_report_verdicts_pass_on_random_battery():
    for seed in range(4):
        rep = gap_report(generate_random_instance(2, 2, seed=seed), f"r{seed}")
        for name, verdict in rep.verdicts.items():
            assert verdict is not False, name


def test_gap_report_availability_mirrors_caps():
    rep = gap_report(generate_random_instance(5, 6, seed=0), "big")
    assert rep.quantities["OPT_FS"] is None     # 2^30 edge sets > 2^25
    assert rep.quantities["OPT_OS"] is None     # 2^30 assortment families > 2^25
    assert rep.quantities["OPT_FA"] is None     # a 71-bit state key
    assert rep.quantities["OPT_OA"] is not None  # 8^5 and 7^6 states
    assert rep.quantities["UB_FA"] is not None
    assert rep.ratios["OPT_FA/OPT_OA"] is None
    assert rep.verdicts["fa_le_2oa"] is None


def test_gap_report_5x5_has_every_verdict():
    """At 5x5 each exact optimum is within its limit (2^25 static patterns,
    588,449 fully adaptive states), so every quantity is reported and every
    verdict passes."""
    inst = generate_random_instance(5, 5, seed=0, profile=CardinalityProfile("two-way", 2, 2))
    rep = gap_report(inst, "5x5")
    assert all(rep.quantities[k] is not None for k in QUANTITY_ORDER)
    assert all(rep.verdicts[k] is True for k in VERDICT_ORDER)


def _count_greedy_values(monkeypatch):
    """Counts of exact greedy values returned (a refused walk is not one) and
    of the algorithm values' 10,000-run Monte Carlo estimates, wherever the
    report looks either up."""
    import tsa.bounds
    import tsa.greedy

    counts = {"exact": 0, "estimates": 0}
    exact, mc = tsa.greedy.exact_greedy_value, tsa.bounds.monte_carlo

    def counted_exact(*args, **kwargs):
        value = exact(*args, **kwargs)
        counts["exact"] += 1
        return value

    def counted_mc(instance, policy, runs, *args, **kwargs):
        counts["estimates"] += runs == tsa.bounds._MC_RUNS
        return mc(instance, policy, runs, *args, **kwargs)

    for module in (tsa.bounds, tsa.greedy):
        monkeypatch.setattr(module, "exact_greedy_value", counted_exact)
        monkeypatch.setattr(module, "monte_carlo", counted_mc)
    return counts


# Ids read shape-seed-reused-side: the greedy value ALG_FA takes from ALG_OA
# (its exact value, its side-C estimate, or none when it samples side S), then
# the selector's side.
@pytest.mark.parametrize("n, m, seed, exact, estimates, side", [
    pytest.param(3, 3, 0, 2, 0, "S", id="3-0-exact-S"),
    pytest.param(3, 3, 1, 2, 0, "C", id="3-1-exact-C"),
    pytest.param(10, 10, 31, 0, 2, "C", id="10-31-estimates-C"),
    pytest.param(4, 12, 0, 1, 2, "S", id="4x12-0-none-S"),
    pytest.param(12, 4, 0, 1, 1, "C", id="12x4-0-estimates-C"),
    pytest.param(8, 20, 0, 0, 3, "S", id="8x20-0-none-S"),
    pytest.param(9, 2, 0, 2, 0, "C", id="9x2-0-exact-C"),
])
def test_gap_report_values_each_greedy_once(monkeypatch, n, m, seed, exact, estimates, side):
    """ALG_FA averages greedy's value over both sides: exact unless
    ``exact_greedy_value`` refuses the side's predicted histories, then
    sampled on streams (seed + k, r), k the side's index.  It reuses ALG_OA's
    value for the side they share where that is the same number, and equals
    its value computed afresh.  8x20's side C (1.9e9 histories) is sampled
    and 9x2's (9,841) exact, though it has 9 initiators."""
    from tsa.bounds import _MC_RUNS, alg_fully_adaptive_value, alg_one_sided_adaptive_value

    inst = generate_random_instance(n, m, seed)
    counts = _count_greedy_values(monkeypatch)
    rep = gap_report(inst, "r", seed=seed)
    assert counts == {"exact": exact, "estimates": estimates}
    oa, meta = alg_one_sided_adaptive_value(inst, seed)
    assert meta["side"] == side
    assert rep.quantities["ALG_OA"] == oa
    assert rep.quantities["ALG_FA"] == alg_fully_adaptive_value(inst, seed)
    greedy = []
    for k, s in enumerate(("C", "S")):
        try:
            greedy.append(exact_greedy_value(inst, s))
        except SizeRefusalError:
            greedy.append(monte_carlo(inst, GreedyOneSidedPolicy(inst, s), _MC_RUNS, seed + k).mean)
    assert rep.quantities["ALG_FA"] == 0.5 * (greedy[0] + greedy[1])


def test_csv_quotes_labels_with_commas_and_quotes():
    """A label holding a comma or a double quote reads back as one cell, and
    every row keeps the header's length."""
    labels = ["a,b.json", 'say "hi"', "plain"]
    reps = [tsa.bounds.GapReport(label, {"OPT_FS": 1.5}, {}, {"nesting_chain": True}) for label in labels]
    buf = io.StringIO()
    reports_to_csv(reps, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [row[0] for row in rows[1:]] == labels
    assert all(len(row) == len(rows[0]) for row in rows)
    assert buf.getvalue().splitlines()[3].startswith("plain,")


def test_csv_round_trip_shape():
    reps = [gap_report(generate_random_instance(2, 2, seed=s), f"i{s}") for s in range(2)]
    buf = io.StringIO()
    reports_to_csv(reps, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "label"
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def _block_lp_value(g, v):
    """solve_lp on one load block: max g.y  s.t.  y_j + v.y <= 1, y >= 0."""
    m = g.size
    sol = solve_lp(LpProblem(g, np.eye(m) + v[None, :], np.ones(m)))
    assert sol.status == "optimal"
    return sol.value


def test_block_oracle_matches_simplex():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, m = rng.integers(1, 5), rng.integers(1, 7)
        v = rng.exponential(1.0, size=(n, m)) * (rng.random((n, m)) > 0.25)
        g = rng.normal(0.3, 1.0, size=(n, m)) * (rng.random((n, m)) > 0.2)
        y = _block_oracle(g, v)
        assert (y >= 0).all()
        assert (y + (v * y).sum(axis=1, keepdims=True) <= 1 + 1e-12).all()
        for i in range(n):
            assert float(g[i] @ y[i]) == pytest.approx(_block_lp_value(g[i], v[i]), abs=1e-12)


def _ub_oa_simplex(v, w, iters=300):
    """UB_OA of one orientation through lp.maximize_concave with the simplex as
    linear oracle: the bound's LP-backed reference."""
    n, m = v.shape
    coef = (v * w.T).ravel()

    def f(y):
        z = (coef * y).reshape(n, m).sum(axis=0)
        return float((z / (1.0 + z)).sum())

    def grad(y):
        z = (coef * y).reshape(n, m).sum(axis=0)
        return (coef.reshape(n, m) / (1.0 + z[None, :]) ** 2).ravel()

    rows = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            rows[i * m + j, i * m: (i + 1) * m] += v[i]
            rows[i * m + j, i * m + j] += 1.0
    res = maximize_concave(f, grad, LpProblem(np.zeros(n * m), rows, np.ones(n * m)),
                           iters=iters)
    return res.certified_upper


def test_ub_oa_between_opt_and_simplex_reference():
    for n, m in [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)]:
        for seed in range(3):
            inst = generate_random_instance(n, m, seed=seed)
            v, w = inst.mnl_weights()
            oa = max(opt_one_sided_adaptive(inst, "C").value,
                     opt_one_sided_adaptive(inst, "S").value)
            ref = max(_ub_oa_simplex(v, w), _ub_oa_simplex(w, v))
            ub = ub_oa(inst)
            assert ub >= oa - 1e-9, (n, m, seed)
            assert ub <= ref + 1e-6, (n, m, seed)


@pytest.mark.parametrize("n, seeds", [(2, range(14)), (3, range(14)), (4, range(14)),
                                      (12, range(2))])
def test_ub_oa_converges_and_is_no_looser_than_plain_frank_wolfe(n, seeds):
    """Every orientation reaches the 1e-6 gap before the 1000-iteration cap; the
    bound stays at most 1e-6 above plain Frank-Wolfe's certificate
    (tests/ub_oa_reference.py) and above the one-sided adaptive optimum."""
    for seed in seeds:
        inst = generate_random_instance(n, n, seed=seed)
        v, w = inst.mnl_weights()
        for a, b in ((v, w), (w, v)):
            bound, iterations, gap = run_to_end(_ub_oa_oriented(a, b))
            assert gap <= 1e-6 and iterations < 1000, (n, seed)
            assert bound <= plain_fw_ub_oa_oriented(a, b, 1000)[0] + 1e-6, (n, seed)
        if n <= 4:
            oa = max(opt_one_sided_adaptive(inst, side).value for side in "CS")
            assert ub_oa(inst) >= oa - 1e-9, (n, seed)


def test_alg_one_sided_static_value_polls_its_deadline():
    """An expired deadline stops ALG_OS before its harvesting runs, and the
    exact evaluation it calls before its first responder."""
    inst = generate_random_instance(4, 3, seed=2)
    with pytest.raises(TimeLimitError), Deadline(0):
        alg_one_sided_static_value(inst, 0)
    with pytest.raises(TimeLimitError), Deadline(0):
        exact_value_one_sided_static(inst, "C", [{0}] * 4)
    with Deadline(60):
        value = alg_one_sided_static_value(inst, 0)
    assert value == alg_one_sided_static_value(inst, 0)
