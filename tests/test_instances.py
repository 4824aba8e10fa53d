import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import choice_prob, counterexample_constrained_demand_model, demand
from tsa.cli import main
from tsa.errors import ChoiceModelError, ParseError
from tsa.instances import (MNL, BetaUniform, CardinalityProfile, Instance,
                           Mixture, Tabular, UniformNoOutside,
                           generate_random_instance, instance_from_dict, instance_to_dict,
                           load_instance, save_instance, tight_instance)


def test_mnl_single_option():
    m = MNL((1.0,))
    assert choice_prob(m, 0, {0}) == pytest.approx(0.5)
    assert choice_prob(m, None, {0}) == pytest.approx(0.5)


def test_empty_assortment_goes_outside():
    for model in (MNL((1.0, 2.0)), UniformNoOutside(2), BetaUniform(2)):
        assert choice_prob(model, None, set()) == 1.0
        assert demand(model, set()) == 0.0


def test_uniform_no_outside_quarter():
    u = UniformNoOutside(4)
    assert choice_prob(u, 2, {0, 1, 2, 3}) == pytest.approx(0.25)
    assert choice_prob(u, None, {0, 1, 2, 3}) == 0.0


def test_mnl_demand_two_units():
    assert demand(MNL((1.0, 1.0)), {0, 1}) == pytest.approx(2.0 / 3.0)


def test_beta_uniform_singleton():
    assert demand(BetaUniform(3), {0}) == pytest.approx(1.0 - math.exp(-1.0))


def test_unknown_option_rejected():
    with pytest.raises(ChoiceModelError):
        choice_prob(MNL((1.0,)), 3, {0})
    with pytest.raises(ChoiceModelError):
        demand(MNL((1.0,)), {0, 5})


def test_tabular_unlisted_assortment_is_error():
    t = Tabular(2, {frozenset({0}): ({0: 0.5}, 0.5)})
    assert choice_prob(t, 0, {0}) == 0.5
    with pytest.raises(ChoiceModelError):
        choice_prob(t, 0, {0, 1})


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["mnl", "uniform", "beta", "mixture"]))
    if kind == "mnl":
        w = draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n))
        return MNL(tuple(w))
    if kind == "uniform":
        return UniformNoOutside(n)
    if kind == "beta":
        return BetaUniform(n)
    k = draw(st.integers(2, 3))
    comps = tuple(MNL(tuple(draw(st.lists(st.floats(0, 5, allow_nan=False),
                                          min_size=n, max_size=n)))) for _ in range(k))
    probs = np.full(k, 1.0 / k)
    return Mixture(comps, tuple(probs))


@given(small_models(), st.integers(0, 31))
@settings(max_examples=150)
def test_normalization_property(model, mask):
    s = frozenset(j for j in range(model.num_options) if mask >> j & 1)
    total = choice_prob(model, None, s) + sum(choice_prob(model, j, s) for j in s)
    assert abs(total - 1.0) <= 1e-12
    for j in range(model.num_options):
        if j not in s:
            assert choice_prob(model, j, s) == 0.0


@given(small_models())
@settings(max_examples=60)
def test_demand_monotone_submodular_for_mnl_like(model):
    if not isinstance(model, (MNL, Mixture)):
        return
    n = model.num_options
    f = [demand(model, frozenset(j for j in range(n) if mask >> j & 1))
         for mask in range(1 << n)]
    for small in range(1 << n):
        for j in range(n):
            bit = 1 << j
            if small & bit:
                continue
            assert f[small | bit] >= f[small] - 1e-12  # monotone
            for k in range(n):
                kbit = 1 << k
                if k == j or small & kbit:
                    continue
                big = small | kbit
                assert f[small | bit] - f[small] >= f[big | bit] - f[big] - 1e-12


def test_generate_deterministic():
    a = generate_random_instance(2, 2, seed=0)
    b = generate_random_instance(2, 2, seed=0)
    assert a == b
    assert a != generate_random_instance(2, 2, seed=1)


def test_generate_supports():
    inst = generate_random_instance(5, 5, seed=3)
    v, w = inst.mnl_weights()
    assert ((v >= 0) & (v <= 1)).all()
    assert (w >= 0).all()


def test_exponential_mean_lln():
    inst = generate_random_instance(100, 1000, seed=7)
    _, w = inst.mnl_weights()
    assert w.size == 100_000
    assert abs(w.mean() - 1.0) < 0.02


def test_prop1_construction():
    inst = tight_instance("prop1", 2)
    assert (inst.n, inst.m) == (2, 1)
    assert choice_prob(inst.customer_models[0], 0, {0}) == pytest.approx(0.5)
    inst4 = tight_instance("prop1", 4)
    assert choice_prob(inst4.customer_models[1], 0, {0}) == pytest.approx(0.25)


def test_prop1_fully_static_closed_form():
    from tsa.exact import opt_fully_static

    for n in (2, 3, 4):
        val, _ = opt_fully_static(tight_instance("prop1", n))
        assert val == pytest.approx(1.0 / n, abs=1e-12)


def test_lemma3_construction():
    inst = tight_instance("lemma3", 3)
    beta3 = 3 * (1 - math.exp(-1.0 / 3.0))
    assert demand(inst.supplier_models[0], {0, 1, 2}) == pytest.approx(beta3)
    assert choice_prob(inst.customer_models[1], 2, {0, 2}) == pytest.approx(0.5)


def test_lemma6_zero_cross_selection():
    inst = tight_instance("lemma6", 3)
    # Sub-market A: supplier 0 with customers 1..2; sub-market B: customer 0
    # with suppliers 1..2.  Cross pairs never select each other.
    assert choice_prob(inst.customer_models[1], 2, {0, 1, 2}) == 0.0
    assert choice_prob(inst.customer_models[0], 0, {0, 1, 2}) == 0.0
    assert choice_prob(inst.customer_models[1], 0, {0, 1, 2}) == pytest.approx(1.0 / 3.0)
    assert choice_prob(inst.supplier_models[1], 0, {0, 1}) == pytest.approx(1.0 / 3.0)
    assert choice_prob(inst.supplier_models[1], 1, {0, 1}) == 0.0


def test_thm3_construction():
    inst = tight_instance("thm3", 2)
    assert (inst.n, inst.m) == (4, 4)
    s = 1.0 / math.sqrt(2)
    assert choice_prob(inst.customer_models[0], 0, {0}) == pytest.approx(s / (1 + s))
    assert choice_prob(inst.customer_models[0], 2, {2}) == 0.0
    assert choice_prob(inst.supplier_models[0], 3, {0, 3}) == 0.0
    assert choice_prob(inst.supplier_models[2], 2, {2, 3}) == pytest.approx(s / (1 + 2 * s))


def test_tight_instance_bad_kind():
    with pytest.raises(ValueError):
        tight_instance("nope", 3)


def test_counterexample_model_rows():
    model = counterexample_constrained_demand_model()
    assert choice_prob(model, 3, {0, 3}) == pytest.approx(0.5)
    assert demand(model, {0, 1}) == pytest.approx(1.0 / 3.0)


def test_save_load_round_trip(tmp_path):
    inst = generate_random_instance(3, 3, seed=11)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_save_load_special_models(tmp_path):
    for kind in ("prop1", "lemma3", "lemma6", "thm3"):
        inst = tight_instance(kind, 2)
        path = tmp_path / f"{kind}.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_load_rejects_negative_weight(tmp_path):
    d = instance_to_dict(generate_random_instance(2, 2, seed=0))
    d["customers"][0]["weights"][0] = -0.25
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError):
        load_instance(path)


def test_load_rejects_bad_probability_row(tmp_path):
    d = {
        "n": 1, "m": 1,
        "customers": [{"kind": "tabular", "num_options": 1,
                       "rows": [{"assortment": [0], "probs": {"0": 0.4, "outside": 0.5}}]}],
        "suppliers": [{"kind": "mnl", "weights": [1.0]}],
        "k_customer": [None], "k_supplier": [None],
    }
    path = tmp_path / "bad_row.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError, match="sums to"):
        load_instance(path)


def test_nan_probabilities_are_refused(tmp_path):
    """NaN fails every comparison, so it passed the sign and sum checks."""
    nan = float("nan")
    with pytest.raises(ChoiceModelError, match="non-finite"):
        Tabular(2, {frozenset({0}): ({0: nan}, 0.0), frozenset(): ({}, 1.0)})
    with pytest.raises(ChoiceModelError, match="non-finite"):
        Tabular(1, {frozenset({0}): ({0: 1.0}, nan)})
    with pytest.raises(ChoiceModelError, match="finite simplex"):
        Mixture((MNL((1, 1)), MNL((2, 0.5))), (nan, 0.5))
    tabular = {"kind": "tabular", "num_options": 1,
               "rows": [{"assortment": [0], "probs": {"0": nan, "outside": 0.0}}]}
    mixture = {"kind": "mixture", "components": [{"kind": "mnl", "weights": [1.0]}] * 2,
               "arrival_probs": [nan, 0.5]}
    for model in (tabular, mixture):
        d = {"n": 1, "m": 1, "customers": [model], "suppliers": [{"kind": "mnl", "weights": [1.0]}],
             "k_customer": [None], "k_supplier": [None]}
        with pytest.raises(ParseError, match=r"^customers\[0\]: .*finite"):
            instance_from_dict(d)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        assert main(["solve", "--instance", str(path), "--what", "fa"]) == 2


def test_load_rejects_unknown_fields(tmp_path):
    d = instance_to_dict(generate_random_instance(2, 2, seed=0))
    d["extra"] = 1
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError, match="unknown fields"):
        load_instance(path)


# (path into the instance dict, JSON value, field the error names): values
# that int()/float() would coerce into a different or a wrong instance.
BAD_FIELDS = [
    (("k_customer", 0), 1.5, "k_customer[0]"),
    (("k_customer", 0), True, "k_customer[0]"),
    (("k_supplier", 1), 0.9, "k_supplier[1]"),
    (("n",), 1.9, "n"),
    (("customers", 0, "weights", 1), "2", "customers[0].weights[1]"),
    (("suppliers", 1, "weights", 0), False, "suppliers[1].weights[0]"),
]


def _bad_instance_file(tmp_path, keys, value):
    d = instance_to_dict(generate_random_instance(1, 2, seed=0))
    target = d
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("keys, value, field", BAD_FIELDS)
def test_load_rejects_uncoerced_fields(tmp_path, keys, value, field):
    path = _bad_instance_file(tmp_path, keys, value)
    with pytest.raises(ParseError, match=f"^{re.escape(field)}: expected an? "):
        load_instance(path)


@pytest.mark.parametrize("keys, value, field", BAD_FIELDS)
def test_solve_exits_2_on_uncoerced_fields(tmp_path, capsys, keys, value, field):
    path = _bad_instance_file(tmp_path, keys, value)
    assert main(["solve", "--instance", str(path), "--what", "fs"]) == 2
    assert f"{field}: expected" in capsys.readouterr().err


def _tabular(*rows):
    return {"kind": "tabular", "num_options": 2,
            "rows": [{"assortment": a, "probs": p} for a, p in rows]}


# (customer model, the error): a model that lists a row, an option key or an
# id twice, where keeping either copy would load a different model.
MERGED_MODELS = [
    (_tabular(([0, 1], {"0": 0.2, "1": 0.3, "outside": 0.5}), ([1, 0], {"0": 0.5, "1": 0.5, "outside": 0.0})),
     "customers[0].rows[1]: assortment [0, 1] repeats rows[0]"),
    (_tabular(([0], {"0": 0.6, "outside": 0.4}), ([0, 0], {"0": 0.1, "outside": 0.9})),
     "customers[0].rows[1].assortment: lists an option id twice in [0, 0]"),
    (_tabular(([0, 1], {"0": 0.2, "1": 0.3, " +01": 0.3, "outside": 0.5})),
     'customers[0].rows[0].probs: key " +01" names no option of [0, 1]'),
    (_tabular(([0, 1], {"0": 0.5, "01": 0.1, "outside": 0.4})),
     'customers[0].rows[0].probs: key "01" names no option of [0, 1]'),
    ({"kind": "uniform_no_outside", "num_options": 2, "support": [1, 1]},
     "customers[0].support: lists an option id twice in [1, 1]"),
]


@pytest.mark.parametrize("model, error", MERGED_MODELS)
def test_load_refuses_repeated_rows_keys_and_ids(tmp_path, capsys, model, error):
    """A repeated tabular row, a probs key other than an offered option id's
    decimal form, or a support id listed twice is refused, naming the row or
    field, not merged."""
    d = {"n": 1, "m": 2, "customers": [model], "k_customer": [None], "k_supplier": [None, None],
         "suppliers": [{"kind": "mnl", "weights": [1.0]}, {"kind": "mnl", "weights": [2.0]}]}
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        instance_from_dict(d)
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(d))
    assert main(["solve", "--instance", str(path), "--what", "os"]) == 2
    assert error in capsys.readouterr().err


def test_load_refuses_a_key_repeated_in_one_object(tmp_path, capsys):
    """Plain ``json.load`` keeps the last of two equal keys, which loaded this
    row as 0.6/0.4 and solved it; the loader names the key instead."""
    path = tmp_path / "repeated.json"
    path.write_text('{"n": 1, "m": 1, "k_customer": [null], "k_supplier": [null],'
                    ' "customers": [{"kind": "tabular", "num_options": 1, "rows": ['
                    '{"assortment": [], "probs": {"outside": 1.0}},'
                    ' {"assortment": [0], "probs": {"0": 0.9, "0": 0.6, "outside": 0.4}}]}],'
                    ' "suppliers": [{"kind": "mnl", "weights": [1.0]}]}')
    with pytest.raises(ParseError, match=f'^{re.escape(str(path))}: key "0" repeats in one object$'):
        load_instance(path)
    assert main(["solve", "--instance", str(path), "--what", "os"]) == 2
    assert 'key "0" repeats' in capsys.readouterr().err


def test_load_reports_malformed_json_position(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text('{"n": 1,,}')
    with pytest.raises(ParseError, match="line 1"):
        load_instance(path)


def test_budget_validation():
    with pytest.raises(ValueError):
        Instance(1, 1, (MNL((1.0,)),), (MNL((1.0,)),), (0,), (None,))
    inst = Instance(1, 1, (MNL((1.0,)),), (MNL((1.0,)),), (2,), (None,))
    assert inst.constrained
    # isinstance(True, int) holds, but a bool is no budget.
    for kc, ks in (((True,), (None,)), ((None,), (True,))):
        with pytest.raises(ValueError):
            Instance(1, 1, (MNL((1.0,)),), (MNL((1.0,)),), kc, ks)


def test_cardinality_profile_modes():
    CardinalityProfile("two-way", 1, 2)
    with pytest.raises(ValueError):
        CardinalityProfile("one-way", 1, 2, initiating="C")
    CardinalityProfile("one-way", 1, None, initiating="C")
    with pytest.raises(ValueError):
        CardinalityProfile("unconstrained", 1, None)
    for args in (("two-way", True, True), ("two-way", 2, True), ("one-way", True, None)):
        with pytest.raises(ValueError):
            generate_random_instance(2, 2, 0, CardinalityProfile(*args))
    CardinalityProfile("one-way", None, 2, initiating="S")
    for mode, initiating in (("one-way", "X"), ("one-way", None), ("two-way", "c")):
        with pytest.raises(ValueError):
            CardinalityProfile(mode, None, 2, initiating=initiating)
    inst = generate_random_instance(2, 3, 0, CardinalityProfile("two-way", 1, 2))
    assert (inst.k_customer, inst.k_supplier) == ((1, 1), (2, 2, 2))


def test_model_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Instance(2, 1, (MNL((1.0,)),), (MNL((1.0, 1.0)),))
