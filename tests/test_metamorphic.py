"""Metamorphic properties of the exact optima: the value of a market does not
depend on which side is called "customers" or on how agents are numbered, and
the policy classes nest.  Transposition checks the one-sided adaptive DP with
each side moving first against the other.  Greedy's batched Monte Carlo
kernel, under any mix of budgets, repeats the scalar simulation run for run,
and OPT_FS repeats its reference enumeration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fs_reference import fs_reference
from helpers import Draws, stream_uniforms, transposed
from tsa.exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.greedy import GreedyOneSidedPolicy
from tsa.instances import MNL, UNBOUNDED, Instance
from tsa.policies import simulate_once

TOL = 1e-12
BUDGETS = st.sampled_from([UNBOUNDED, 1, 2])


@st.composite
def markets(draw, budgeted=None):
    """Random MNL markets up to 3x3, unbudgeted or with two-way per-agent
    budgets of 1, 2 or none (at least one budget set)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.random((n, m))
    w = -np.log1p(-rng.random((m, n)))
    kc, ks = (UNBOUNDED,) * n, (UNBOUNDED,) * m
    if budgeted is None:
        budgeted = draw(st.booleans())
    if budgeted:
        kc = tuple(draw(st.lists(BUDGETS, min_size=n, max_size=n)))
        ks = tuple(draw(st.lists(BUDGETS, min_size=m, max_size=m)))
        if all(k is UNBOUNDED for k in kc + ks):
            kc = (draw(st.sampled_from([1, 2])),) + kc[1:]
    return Instance(n, m, tuple(MNL(tuple(r)) for r in v),
                    tuple(MNL(tuple(r)) for r in w), kc, ks)


def relabel_customers(inst: Instance, perm) -> Instance:
    """New customer k is old customer perm[k]; supplier weights and customer
    budgets follow."""
    customers = tuple(inst.customer_models[p] for p in perm)
    suppliers = tuple(MNL(tuple(s.weights[p] for p in perm)) for s in inst.supplier_models)
    return Instance(inst.n, inst.m, customers, suppliers,
                    tuple(inst.k_customer[p] for p in perm), inst.k_supplier)


@given(markets())
@settings(max_examples=80, deadline=None)
def test_transpose_swaps_sides(inst):
    t = transposed(inst)
    assert abs(opt_fully_adaptive(inst).value - opt_fully_adaptive(t).value) <= TOL
    for side, other in (("C", "S"), ("S", "C")):
        assert abs(opt_one_sided_adaptive(inst, side).value
                   - opt_one_sided_adaptive(t, other).value) <= TOL
    assert abs(opt_fully_static(inst)[0] - opt_fully_static(t)[0]) <= TOL


@given(markets(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_relabelling_customers_keeps_adaptive_optima(inst, rnd):
    perm = list(range(inst.n))
    rnd.shuffle(perm)
    r = relabel_customers(inst, perm)
    assert abs(opt_fully_adaptive(inst).value - opt_fully_adaptive(r).value) <= TOL
    for side in ("C", "S"):
        assert abs(opt_one_sided_adaptive(inst, side).value
                   - opt_one_sided_adaptive(r, side).value) <= TOL


@given(markets(budgeted=True))
@settings(max_examples=80, deadline=None)
def test_nesting_chain_under_budgets(inst):
    fs = opt_fully_static(inst)[0]
    os_ = max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))
    oa = max(opt_one_sided_adaptive(inst, "C").value, opt_one_sided_adaptive(inst, "S").value)
    fa = opt_fully_adaptive(inst).value
    assert fs <= os_ + TOL
    assert os_ <= oa + TOL
    assert oa <= fa + TOL


@given(markets(budgeted=True))
@settings(max_examples=80, deadline=None)
def test_opt_fs_matches_reference_under_mixed_budgets(inst):
    """Markets of at most 3x3 (n*m <= 9) with per-agent budgets on either side:
    the mask enumeration repeats the grid enumeration's value and edges."""
    assert opt_fully_static(inst) == fs_reference(inst)


@given(markets(budgeted=True), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_batched_greedy_repeats_scalar_runs_under_budgets(inst, seed):
    for side in ("C", "S"):
        pol = GreedyOneSidedPolicy(inst, side)
        uniforms = stream_uniforms([seed], 0, 60, inst.n + inst.m)
        scalar = [simulate_once(inst, pol, np.random.default_rng([seed, r]))[0] for r in range(60)]
        assert pol.batch_matches(Draws(uniforms)).tolist() == scalar
