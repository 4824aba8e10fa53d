"""Acceptance suite: every numbered criterion runs at its stated tolerance and
prints one PASS line (pytest -s shows them; any failure fails the test).

Corpora follow the experiment protocol: v ~ U[0,1], w ~ Exp(1), n = m, fixed
seeds, exact solvers wherever the size caps allow.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import low_value_instance
from helpers import (counterexample_constrained_demand_model, exact_highvalue_subproblem,
                     is_submodular)
from tsa.bounds import lp_relaxation_onesided, ub_fa, ub_oa
from tsa.exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.fullystatic import (DEFAULT_ALPHA, approx_fully_static,
                             dependent_rounding, lowlow_lp)
from tsa.greedy import exact_greedy_value, sampling_side_selector
from tsa.instances import (MNL, BetaUniform, Instance, generate_random_instance,
                           tight_instance)
from tsa.oracles import constrained_demand
from tsa.policies import static_values

E_RATIO = math.e / (math.e - 1.0)
TOL = 1e-9


def _passline(num, name, detail=""):
    print(f"[criterion {num}] {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="session")
def corpus_small():
    """50 instances at n=m in {2,3} plus 20 at n=m=4, with all four optima."""
    entries = []
    for size, count in ((2, 25), (3, 25), (4, 20)):
        for k in range(count):
            seed = 20_000 + size * 100 + k
            inst = generate_random_instance(size, size, seed)
            e = {"inst": inst, "size": size, "seed": seed}
            e["fs"] = opt_fully_static(inst)[0]
            e["os"] = max(opt_one_sided_static(inst, "C"),
                          opt_one_sided_static(inst, "S"))
            e["oa_C"] = opt_one_sided_adaptive(inst, "C").value
            e["oa_S"] = opt_one_sided_adaptive(inst, "S").value
            e["oa"] = max(e["oa_C"], e["oa_S"])
            e["fa"] = opt_fully_adaptive(inst).value
            entries.append(e)
    return entries


@pytest.fixture(scope="session")
def corpus_adaptive():
    """20 seeds per size n=m in {2,3,4,5}: adaptive optima and algorithm values
    (exact policy evaluation covers every size here; the Monte Carlo fallback
    only engages beyond the exact evaluator's cap)."""
    entries = []
    for size in (2, 3, 4, 5):
        for k in range(20):
            seed = 60_000 + size * 100 + k
            inst = generate_random_instance(size, size, seed)
            e = {"inst": inst, "size": size, "seed": seed}
            e["oa"] = max(opt_one_sided_adaptive(inst, "C").value,
                          opt_one_sided_adaptive(inst, "S").value)
            e["fa"] = opt_fully_adaptive(inst).value
            g_c = exact_greedy_value(inst, "C")
            g_s = exact_greedy_value(inst, "S")
            sel = sampling_side_selector(inst, 100, seed=seed)
            e["alg_oa"] = g_c if sel.metadata["side"] == "C" else g_s
            e["alg_fa"] = 0.5 * (g_c + g_s)
            entries.append(e)
    return entries


def test_criterion_1_nesting_and_theorem_bounds(corpus_small):
    for e in corpus_small:
        assert e["fs"] <= e["os"] + TOL, e["seed"]
        assert e["os"] <= e["oa"] + TOL, e["seed"]
        assert e["oa"] <= e["fa"] + TOL, e["seed"]
        assert e["fa"] <= 2.0 * e["oa"] + TOL, e["seed"]
        assert e["oa"] <= E_RATIO * e["os"] + TOL, e["seed"]
    _passline(1, "nesting chain and theorem bounds",
              f"({len(corpus_small)} instances)")


def test_criterion_2_greedy_guarantees(corpus_small):
    checked = 0
    for e in corpus_small:
        if e["inst"].n + e["inst"].m > 6:
            continue
        inst = e["inst"]
        g_c = exact_greedy_value(inst, "C")
        g_s = exact_greedy_value(inst, "S")
        assert g_c >= 0.5 * e["oa_C"] - TOL, e["seed"]
        assert g_s >= 0.5 * e["oa_S"] - TOL, e["seed"]
        assert 0.5 * (g_c + g_s) >= 0.25 * e["fa"] - TOL, e["seed"]
        checked += 1
    assert checked == 50
    _passline(2, "greedy 1/2 and coin-toss 1/4 guarantees", f"({checked} instances)")


def test_criterion_3_closed_form_instances():
    for n in (2, 3, 4):
        inst = tight_instance("prop1", n)
        assert opt_fully_static(inst)[0] == pytest.approx(1.0 / n, abs=TOL)
        os_val = max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))
        assert os_val == pytest.approx(1 - (1 - 1 / n) ** n, abs=TOL)
    l3 = tight_instance("lemma3", 2)
    os3 = max(opt_one_sided_static(l3, "C"), opt_one_sided_static(l3, "S"))
    assert os3 == pytest.approx(2 * (1 - 1 / math.e), abs=TOL)
    betas = BetaUniform.beta(1) + BetaUniform.beta(2)
    greedy_best = max(exact_greedy_value(l3, "C"), exact_greedy_value(l3, "S"))
    assert greedy_best >= betas - TOL
    l6 = tight_instance("lemma6", 3)
    assert opt_fully_adaptive(l6).value == pytest.approx(10.0 / 9.0, abs=TOL)
    _passline(3, "closed-form tight instances")


def test_criterion_4_submodularity_counterexample():
    model = counterexample_constrained_demand_model()
    values = {frozenset({0, 1}): 1 / 3, frozenset({0, 1, 2}): 1 / 2,
              frozenset({0, 1, 3}): 1 / 2, frozenset({0, 1, 2, 3}): 3 / 4}
    for ground, expect in values.items():
        assert constrained_demand(model, ground, 2).value == pytest.approx(expect, abs=1e-12)
    ok, witness = is_submodular(lambda s: constrained_demand(model, s, 2).value, range(4))
    assert not ok
    assert witness == (3, frozenset({0, 1}), frozenset({0, 1, 2}))
    _passline(4, "constrained-demand counterexample with documented witness")


def test_criterion_5_fully_static_approximation(monkeypatch):
    monkeypatch.setattr("tsa.fullystatic.highvalue_subproblem", exact_highvalue_subproblem)
    ratios = []
    slowest = 0.0
    for size in (2, 3, 4):
        for k in range(20):
            seed = 50_000 + size * 100 + k
            inst = generate_random_instance(size, size, seed)
            opt, _ = opt_fully_static(inst)
            t0 = time.perf_counter()
            sol = approx_fully_static(inst, rng=np.random.default_rng([seed, 5]))
            slowest = max(slowest, time.perf_counter() - t0)
            assert sol.value >= 0.067 * opt - TOL, seed
            ratios.append(sol.value / opt if opt > 1e-12 else 1.0)
    mean = sum(ratios) / len(ratios)
    assert min(ratios) >= 0.067
    assert mean >= 0.70, mean
    assert slowest < 1.0, slowest
    _passline(5, "fully-static approximation",
              f"(min ratio {min(ratios):.3f}, mean {mean:.3f}, slowest {slowest:.3f}s)")


def test_criterion_6_adaptive_algorithm_empirics(corpus_adaptive):
    oa_ratios = [e["alg_oa"] / e["oa"] for e in corpus_adaptive if e["oa"] > 1e-12]
    fa_ratios = [e["alg_fa"] / e["fa"] for e in corpus_adaptive if e["fa"] > 1e-12]
    oa_mean = sum(oa_ratios) / len(oa_ratios)
    fa_mean = sum(fa_ratios) / len(fa_ratios)
    assert oa_mean >= 0.95, oa_mean
    assert fa_mean >= 0.80, fa_mean
    _passline(6, "adaptive algorithm empirics",
              f"(ALG_OA/OPT_OA mean {oa_mean:.4f}, ALG_FA/OPT_FA mean {fa_mean:.4f})")


def test_criterion_7_bound_validity(corpus_small, corpus_adaptive):
    for e in corpus_small:
        inst = e["inst"]
        assert ub_oa(inst) >= e["oa"] - 1e-6, e["seed"]
        assert ub_fa(inst) >= e["fa"] - 1e-6, e["seed"]
        rel = lp_relaxation_onesided(inst, "C")
        assert rel.value >= e["oa_C"] - 1e-6, e["seed"]
    ratios = []
    for e in corpus_adaptive:
        u = ub_fa(e["inst"])
        if e["alg_oa"] > 1e-12:
            ratios.append(u / e["alg_oa"])
    assert min(ratios) >= 1.0 - 1e-9, min(ratios)
    assert max(ratios) <= 3.5, max(ratios)
    _passline(7, "bound validity and UB_FA/ALG_OA range",
              f"(UB_FA/ALG_OA in [{min(ratios):.2f}, {max(ratios):.2f}])")


def test_criterion_8_rounding_properties():
    draws = 10_000
    # Independent rounding objective against the LP bound (Lemma 1 regime).
    for k in range(10):
        inst = low_value_instance(4, 4, 80_000 + k)
        y, z = lowlow_lp(inst)
        rng = np.random.default_rng([80_100 + k])
        xs = rng.random((draws, 4, 4)) < y[None, :, :]
        vals = static_values(inst, xs)
        se = vals.std(ddof=1) / math.sqrt(draws)
        bound = z / (2 + DEFAULT_ALPHA) ** 2
        assert vals.mean() >= bound - 3 * se, (k, vals.mean(), bound)
    # Dependent rounding: marginals, caps, same-row covariance.
    for k in range(2):
        base = low_value_instance(3, 3, 81_000 + k)
        inst = Instance(3, 3, base.customer_models, base.supplier_models,
                        (2, 2, 2), (2, 2, 2))
        y, _ = lowlow_lp(inst)
        hits = np.zeros((3, 3))
        samples = np.zeros((draws, 3, 3))
        for r in range(draws):
            x = dependent_rounding(y, np.random.default_rng([81_500 + k, r]),
                                   inst.k_customer, inst.k_supplier)
            deg_r = [0, 0, 0]
            deg_c = [0, 0, 0]
            for (i, j) in x:
                hits[i, j] += 1
                samples[r, i, j] = 1.0
                deg_r[i] += 1
                deg_c[j] += 1
            assert max(deg_r) <= 2 and max(deg_c) <= 2
        freq = hits / draws
        sigma = np.sqrt(np.maximum(y * (1 - y), 1e-12) / draws)
        assert (np.abs(freq - y) <= 3 * sigma + 1e-9).all()
        for i in range(3):
            for a, b in combinations(range(3), 2):
                cov = np.cov(samples[:, i, a], samples[:, i, b])[0, 1]
                assert cov <= 0.005, (k, i, a, b, cov)
    _passline(8, "rounding properties (independent bound, dependent marginals/caps/correlation)")


def test_criterion_9_constrained_suite():
    # MNL constrained demand equals brute force for every ground set and budget.
    rng = np.random.default_rng(90_000)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        model = MNL(tuple(rng.random(m) * 3))
        for cmask in range(1 << m):
            ground = frozenset(j for j in range(m) if cmask >> j & 1)
            for budget in range(1, m + 1):
                fast = constrained_demand(model, ground, budget).value
                brute = 0.0
                for k in range(1, min(budget, len(ground)) + 1):
                    for combo in combinations(sorted(ground), k):
                        w = sum(model.weights[j] for j in combo)
                        brute = max(brute, w / (1 + w))
                assert fast == pytest.approx(brute, abs=TOL)
    # Constrained greedy achieves half of the constrained one-sided optimum.
    greedy_checked = 0
    for seed in range(5):
        for size in (2, 3):
            for budget in (1, 2):
                base = generate_random_instance(size, size, 91_000 + seed)
                inst = Instance(size, size, base.customer_models, base.supplier_models,
                                (budget,) * size, (budget,) * size)
                g = exact_greedy_value(inst, "C")
                oa = opt_one_sided_adaptive(inst, "C").value
                assert g >= 0.5 * oa - TOL, (seed, size, budget)
                greedy_checked += 1
    # Constrained adaptivity chain for MNL two-way instances.
    chain_checked = 0
    for seed in range(5):
        for size in (2, 3):
            for budget in (1, 2):
                base = generate_random_instance(size, size, 92_000 + seed)
                inst = Instance(size, size, base.customer_models, base.supplier_models,
                                (budget,) * size, (budget,) * size)
                os_val = max(opt_one_sided_static(inst, "C"),
                             opt_one_sided_static(inst, "S"))
                oa_val = max(opt_one_sided_adaptive(inst, "C").value,
                             opt_one_sided_adaptive(inst, "S").value)
                assert os_val <= oa_val + TOL
                assert oa_val <= E_RATIO * os_val + TOL, (seed, size, budget)
                chain_checked += 1
    _passline(9, "constrained suite",
              f"(20 oracle models, {greedy_checked} greedy checks, {chain_checked} chain checks)")
