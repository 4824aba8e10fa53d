import io
import math

import numpy as np
import pytest

from helpers import distribution_residual
from tsa.bounds import (QUANTITY_ORDER, VERDICT_ORDER, _block_oracle, _ub_oa_oriented,
                        alg_one_sided_static_value, gap_report, independent_objective_from_tau,
                        lp_relaxation_onesided, reports_to_csv, ub_fa, ub_oa)
from tsa.errors import SizeRefusalError, TimeLimitError, UnsupportedOracleError
from tsa.exact import (opt_fully_adaptive, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.instances import (MNL, CardinalityProfile, Instance, generate_random_instance,
                           tight_instance)
from tsa.lp import LpProblem, maximize_concave, solve_lp
from tsa.policies import exact_value_one_sided_static
from tsa.util import Deadline
from ub_oa_reference import plain_fw_ub_oa_oriented

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


def test_relaxation_size_refusal():
    inst = generate_random_instance(7, 2, seed=0)
    with pytest.raises(SizeRefusalError):
        lp_relaxation_onesided(inst, "C")


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
    """Counts of exact greedy values and of the algorithm values' 10,000-run
    Monte Carlo estimates, wherever the report looks either up."""
    import tsa.bounds
    import tsa.greedy

    counts = {"exact": 0, "estimates": 0}
    exact, mc = tsa.greedy.exact_greedy_value, tsa.bounds.monte_carlo

    def counted_exact(*args, **kwargs):
        counts["exact"] += 1
        return exact(*args, **kwargs)

    def counted_mc(instance, policy, runs, *args, **kwargs):
        counts["estimates"] += runs == tsa.bounds._MC_RUNS
        return mc(instance, policy, runs, *args, **kwargs)

    for module in (tsa.bounds, tsa.greedy):
        monkeypatch.setattr(module, "exact_greedy_value", counted_exact)
        monkeypatch.setattr(module, "monte_carlo", counted_mc)
    return counts


@pytest.mark.parametrize("n, seed, kind, side", [(3, 0, "exact", "S"), (3, 1, "exact", "C"),
                                                 (10, 31, "estimates", "C")])
def test_gap_report_values_each_greedy_once(monkeypatch, n, seed, kind, side):
    """ALG_FA reuses ALG_OA's greedy value for the side they share: the exact
    value of the selector's side, or its side-C estimate on the same streams."""
    from tsa.bounds import alg_fully_adaptive_value, alg_one_sided_adaptive_value

    inst = generate_random_instance(n, n, seed)
    counts = _count_greedy_values(monkeypatch)
    rep = gap_report(inst, "r", seed=seed)
    assert counts[kind] == 2  # 3 when ALG_FA valued both sides afresh
    oa, meta = alg_one_sided_adaptive_value(inst, seed)
    assert meta["side"] == side
    assert rep.quantities["ALG_OA"] == oa
    assert rep.quantities["ALG_FA"] == alg_fully_adaptive_value(inst, seed)


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
            bound, iterations, gap = _ub_oa_oriented(a, b)
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
