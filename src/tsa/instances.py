"""Bipartite market instances and discrete choice models.

A market has ``n`` customers facing assortments of ``m`` suppliers and vice
versa.  Each agent carries a choice model: a map ``(option, assortment) ->
probability`` over the assortment plus an outside option.  Models are frozen
after construction and safe to share.  Instance files are checked, not
coerced: a size, budget or option id must be a JSON integer and a weight or
probability a JSON number.  What an agent shows or is worth (oracles, demand
tables) is in ``tsa.oracles``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ChoiceModelError, ParseError, UnsupportedOracleError

# Budget sentinel: an unbounded assortment-size budget.
UNBOUNDED = None

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class MNL:
    """Multinomial logit: pick j in S w.p. w_j / (1 + sum_{l in S} w_l), outside weight 1."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        for x in w:
            if not math.isfinite(x) or x < 0:
                raise ChoiceModelError(f"MNL weight must be finite and >= 0, got {x}")
        object.__setattr__(self, "weights", w)

    @property
    def num_options(self) -> int:
        return len(self.weights)

    def prob(self, option: Optional[int], assortment: frozenset) -> float:
        denom = 1.0 + sum(self.weights[j] for j in assortment)
        if option is None:
            return 1.0 / denom
        if option not in assortment:
            return 0.0
        return self.weights[option] / denom

    def demand(self, assortment: frozenset) -> float:
        w = sum(self.weights[j] for j in assortment)
        return w / (1.0 + w)


@dataclass(frozen=True)
class Tabular:
    """Explicit probability rows, one per tabulated assortment.

    ``rows`` maps an assortment to ``(option -> prob, outside_prob)``.  Querying
    an assortment that is not tabulated is an error; the table is the model.
    """

    num_options: int
    rows: Mapping[frozenset, tuple]

    def __post_init__(self):
        norm = {}
        for s, (probs, outside) in self.rows.items():
            s = frozenset(int(j) for j in s)
            if not all(0 <= j < self.num_options for j in s):
                raise ChoiceModelError(f"tabular assortment {sorted(s)} outside option universe")
            p = {int(j): float(q) for j, q in probs.items()}
            outside = float(outside)
            if any(j not in s for j in p):
                raise ChoiceModelError(f"tabular row {sorted(s)} assigns mass outside the assortment")
            if not all(math.isfinite(q) and q >= -_PROB_TOL for q in (*p.values(), outside)):
                raise ChoiceModelError(f"tabular row {sorted(s)} has a negative or non-finite probability")
            total = sum(p.values()) + outside
            if abs(total - 1.0) > _PROB_TOL:
                raise ChoiceModelError(f"tabular row {sorted(s)} sums to {total}, expected 1")
            norm[s] = (p, outside)
        object.__setattr__(self, "rows", norm)

    def _row(self, assortment: frozenset):
        try:
            return self.rows[assortment]
        except KeyError:
            raise ChoiceModelError(f"assortment {sorted(assortment)} not tabulated") from None

    def prob(self, option: Optional[int], assortment: frozenset) -> float:
        probs, outside = self._row(assortment)
        if option is None:
            return outside
        return probs.get(option, 0.0)

    def demand(self, assortment: frozenset) -> float:
        probs, _ = self._row(assortment)
        return sum(probs.values())


@dataclass(frozen=True)
class Mixture:
    """Mixture of choice models with fixed arrival probabilities."""

    components: tuple
    arrival_probs: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        probs = tuple(float(p) for p in self.arrival_probs)
        if len(comps) != len(probs) or not comps:
            raise ChoiceModelError("mixture needs matching, nonempty components/arrival_probs")
        if not all(math.isfinite(p) and p >= 0 for p in probs) or abs(sum(probs) - 1.0) > _PROB_TOL:
            raise ChoiceModelError("mixture arrival_probs must be a finite simplex vector")
        sizes = {c.num_options for c in comps}
        if len(sizes) != 1:
            raise ChoiceModelError("mixture components disagree on option universe size")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "arrival_probs", probs)

    @property
    def num_options(self) -> int:
        return self.components[0].num_options

    def prob(self, option: Optional[int], assortment: frozenset) -> float:
        return sum(p * c.prob(option, assortment) for c, p in zip(self.components, self.arrival_probs))

    def demand(self, assortment: frozenset) -> float:
        return sum(p * c.demand(assortment) for c, p in zip(self.components, self.arrival_probs))


@dataclass(frozen=True)
class UniformNoOutside:
    """Pick uniformly among the offered options inside ``support``; no outside mass
    unless the offered intersection is empty.  ``support=None`` means all options."""

    num_options: int
    support: Optional[tuple] = None

    def __post_init__(self):
        if self.support is not None:
            supp = tuple(sorted(int(j) for j in set(self.support)))
            if not all(0 <= j < self.num_options for j in supp):
                raise ChoiceModelError("uniform support outside option universe")
            object.__setattr__(self, "support", supp)

    def _active(self, assortment: frozenset) -> frozenset:
        if self.support is None:
            return assortment
        return assortment & frozenset(self.support)

    def prob(self, option: Optional[int], assortment: frozenset) -> float:
        active = self._active(assortment)
        if option is None:
            return 0.0 if active else 1.0
        if option in active:
            return 1.0 / len(active)
        return 0.0

    def demand(self, assortment: frozenset) -> float:
        return 1.0 if self._active(assortment) else 0.0


@dataclass(frozen=True)
class BetaUniform:
    """Uniform pick with size-dependent total demand beta_k = k * (1 - e^(-1/k))."""

    num_options: int

    @staticmethod
    def beta(k: int) -> float:
        if k == 0:
            return 0.0
        return k * (1.0 - math.exp(-1.0 / k))

    def prob(self, option: Optional[int], assortment: frozenset) -> float:
        k = len(assortment)
        if option is None:
            return 1.0 - self.beta(k)
        if option in assortment:
            return self.beta(k) / k
        return 0.0

    def demand(self, assortment: frozenset) -> float:
        return self.beta(len(assortment))


ChoiceSpec = Union[MNL, Tabular, Mixture, UniformNoOutside, BetaUniform]


def is_mnl(model: ChoiceSpec) -> bool:
    return isinstance(model, MNL)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class CardinalityProfile:
    """Budget configuration handed to generators.

    mode: "unconstrained", "one-way" (only the initiating side is budgeted) or
    "two-way".  Budgets are uniform per side here; instances store them
    per-agent.
    """

    mode: str = "unconstrained"
    k_customer: Optional[int] = UNBOUNDED
    k_supplier: Optional[int] = UNBOUNDED
    initiating: str = "C"

    def __post_init__(self):
        if self.mode not in ("unconstrained", "one-way", "two-way"):
            raise ValueError(f"unknown cardinality mode {self.mode!r}")
        if self.initiating not in ("C", "S"):
            raise ValueError(f"initiating side must be 'C' or 'S', got {self.initiating!r}")
        if self.mode == "unconstrained" and (self.k_customer is not UNBOUNDED or self.k_supplier is not UNBOUNDED):
            raise ValueError("unconstrained profile cannot carry budgets")
        if self.mode == "one-way":
            responding_k = self.k_supplier if self.initiating == "C" else self.k_customer
            if responding_k is not UNBOUNDED:
                raise ValueError("one-way profile forces the responding side's budget to unbounded")
        for k in (self.k_customer, self.k_supplier):
            if not _is_budget(k):
                raise ValueError(f"budget must be a positive integer or unbounded, got {k!r}")


def _is_budget(k) -> bool:
    """UNBOUNDED or a positive int; a bool is an int to Python but no budget."""
    return k is UNBOUNDED or (isinstance(k, int) and not isinstance(k, bool) and k >= 1)


@dataclass(frozen=True)
class Instance:
    """A two-sided market: customer models over suppliers and vice versa."""

    n: int
    m: int
    customer_models: tuple
    supplier_models: tuple
    k_customer: tuple = ()
    k_supplier: tuple = ()

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be >= 0")
        object.__setattr__(self, "customer_models", tuple(self.customer_models))
        object.__setattr__(self, "supplier_models", tuple(self.supplier_models))
        if len(self.customer_models) != self.n or len(self.supplier_models) != self.m:
            raise ValueError("model list lengths must equal n and m")
        kc = self.k_customer if self.k_customer else tuple([UNBOUNDED] * self.n)
        ks = self.k_supplier if self.k_supplier else tuple([UNBOUNDED] * self.m)
        kc, ks = tuple(kc), tuple(ks)
        if len(kc) != self.n or len(ks) != self.m:
            raise ValueError("budget list lengths must equal n and m")
        for k in kc + ks:
            if not _is_budget(k):
                raise ValueError(f"budget must be >= 1 or unbounded, got {k!r}")
        object.__setattr__(self, "k_customer", kc)
        object.__setattr__(self, "k_supplier", ks)
        for i, mod in enumerate(self.customer_models):
            if mod.num_options != self.m:
                raise ValueError(f"customer {i} model has {mod.num_options} options, expected m={self.m}")
        for j, mod in enumerate(self.supplier_models):
            if mod.num_options != self.n:
                raise ValueError(f"supplier {j} model has {mod.num_options} options, expected n={self.n}")

    def model(self, side: str, idx: int) -> ChoiceSpec:
        return self.customer_models[idx] if side == "C" else self.supplier_models[idx]

    def budget(self, side: str, idx: int):
        return self.k_customer[idx] if side == "C" else self.k_supplier[idx]

    def side_size(self, side: str) -> int:
        return self.n if side == "C" else self.m

    @property
    def constrained(self) -> bool:
        return any(k is not UNBOUNDED for k in self.k_customer + self.k_supplier)

    def mnl_weights(self):
        """(v, w) weight matrices when every agent is MNL, else None.

        v[i, j]: customer i's weight for supplier j; w[j, i]: supplier j's for customer i.
        """
        if all(is_mnl(c) for c in self.customer_models) and all(is_mnl(s) for s in self.supplier_models):
            v = np.array([c.weights for c in self.customer_models], dtype=float).reshape(self.n, self.m)
            w = np.array([s.weights for s in self.supplier_models], dtype=float).reshape(self.m, self.n)
            return v, w
        return None

    def require_mnl_weights(self, what: str):
        """``mnl_weights()``, or UnsupportedOracleError naming ``what``."""
        mw = self.mnl_weights()
        if mw is None:
            raise UnsupportedOracleError(f"{what} requires MNL models on both sides")
        return mw

    def transpose(self) -> "Instance":
        """Swap sides: suppliers become customers and vice versa."""
        return Instance(self.m, self.n, self.supplier_models, self.customer_models,
                        self.k_supplier, self.k_customer)


# ---------------------------------------------------------------------------
# Generators

# Random instances use a named, versioned bit generator (numpy's PCG64) so
# that runs are reproducible across platforms; Exp(1) supplier weights are
# drawn via the inverse CDF -log(1-u).
def generate_random_instance(n: int, m: int, seed: int,
                             profile: CardinalityProfile = CardinalityProfile()) -> Instance:
    """Random MNL market: v_ij ~ U[0,1], w_ji ~ Exp(1); deterministic per seed."""
    if n < 1 or m < 1:
        raise ValueError("generate_random_instance needs n, m >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.random((n, m))
    u = rng.random((m, n))
    w = -np.log1p(-u)
    customers = tuple(MNL(tuple(v[i])) for i in range(n))
    suppliers = tuple(MNL(tuple(w[j])) for j in range(m))
    return Instance(n, m, customers, suppliers,
                    (profile.k_customer,) * n, (profile.k_supplier,) * m)


def tight_instance(kind: str, n: int) -> Instance:
    """Hard constructions with known optimal values, keyed by family name."""
    if n < 2:
        raise ValueError("tight instances need n >= 2")
    if kind == "prop1":
        # n customers x 1 supplier; each customer picks the supplier w.p. 1/n,
        # the supplier picks uniformly with no outside option.
        customers = tuple(MNL((1.0 / (n - 1),)) for _ in range(n))
        suppliers = (UniformNoOutside(n),)
        return Instance(n, 1, customers, suppliers)
    if kind == "lemma3":
        customers = tuple(UniformNoOutside(n) for _ in range(n))
        suppliers = tuple(BetaUniform(n) for _ in range(n))
        return Instance(n, n, customers, suppliers)
    if kind == "lemma6":
        # Two disjoint sub-markets: supplier 0 with customers 1..n-1, and
        # customer 0 with suppliers 1..n-1; cross-selection probability is 0.
        hub_weights = tuple([1.0 / (n - 1)] + [0.0] * (n - 1))
        customers = [UniformNoOutside(n, support=tuple(range(1, n)))]
        customers += [MNL(hub_weights) for _ in range(n - 1)]
        suppliers = [UniformNoOutside(n, support=tuple(range(1, n)))]
        suppliers += [MNL(hub_weights) for _ in range(n - 1)]
        return Instance(n, n, tuple(customers), tuple(suppliers))
    if kind == "thm3":
        # Two inverted n x n blocks. Block 1: customers MNL(1/sqrt(n)) over
        # block-1 suppliers, suppliers uniform over block-1 customers.
        s = 1.0 / math.sqrt(n)
        block1 = tuple(range(n))
        block2 = tuple(range(n, 2 * n))
        w1 = tuple([s] * n + [0.0] * n)
        w2 = tuple([0.0] * n + [s] * n)
        customers = [MNL(w1) for _ in range(n)] + [UniformNoOutside(2 * n, support=block2) for _ in range(n)]
        suppliers = [UniformNoOutside(2 * n, support=block1) for _ in range(n)] + [MNL(w2) for _ in range(n)]
        return Instance(2 * n, 2 * n, tuple(customers), tuple(suppliers))
    raise ValueError(f"unknown tight instance kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization

_SCHEMA_TOP = {"n", "m", "customers", "suppliers", "k_customer", "k_supplier"}


def _model_to_dict(model: ChoiceSpec) -> dict:
    if isinstance(model, MNL):
        return {"kind": "mnl", "weights": list(model.weights)}
    if isinstance(model, Tabular):
        rows = []
        for s in sorted(model.rows, key=lambda x: (len(x), sorted(x))):
            probs, outside = model.rows[s]
            row = {str(j): probs[j] for j in sorted(probs)}
            row["outside"] = outside
            rows.append({"assortment": sorted(s), "probs": row})
        return {"kind": "tabular", "num_options": model.num_options, "rows": rows}
    if isinstance(model, Mixture):
        return {"kind": "mixture",
                "components": [_model_to_dict(c) for c in model.components],
                "arrival_probs": list(model.arrival_probs)}
    if isinstance(model, UniformNoOutside):
        d = {"kind": "uniform_no_outside", "num_options": model.num_options}
        if model.support is not None:
            d["support"] = list(model.support)
        return d
    if isinstance(model, BetaUniform):
        return {"kind": "beta_uniform", "num_options": model.num_options}
    raise TypeError(f"cannot serialize model {model!r}")


def _model_from_dict(d: dict, where: str) -> ChoiceSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError(f"{where}: model must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "mnl":
            _check_fields(d, {"kind", "weights"}, where)
            return MNL(tuple(_number(x, f"{where}.weights[{k}]") for k, x in enumerate(d["weights"])))
        if kind == "tabular":
            _check_fields(d, {"kind", "num_options", "rows"}, where)
            rows = {}
            for r, row in enumerate(d["rows"]):
                at = f"{where}.rows[{r}]"
                _check_fields(row, {"assortment", "probs"}, at)
                probs = {k: _number(p, f"{at}.probs.{k}") for k, p in dict(row["probs"]).items()}
                outside = probs.pop("outside", 0.0)
                s = _ids(row["assortment"], f"{at}.assortment")
                if s in rows:
                    raise ParseError(f"{at}: assortment {sorted(s)} repeats rows[{list(rows).index(s)}]")
                ids = {str(j): j for j in s}  # a key is an offered id's decimal form
                bad = sorted(map(json.dumps, probs.keys() - ids.keys()))
                if bad:
                    raise ParseError(f"{at}.probs: key {bad[0]} names no option of {sorted(s)}")
                rows[s] = ({ids[k]: p for k, p in probs.items()}, outside)
            return Tabular(_integer(d["num_options"], f"{where}.num_options"), rows)
        if kind == "mixture":
            _check_fields(d, {"kind", "components", "arrival_probs"}, where)
            comps = tuple(_model_from_dict(c, f"{where}.components[{k}]") for k, c in enumerate(d["components"]))
            return Mixture(comps, tuple(_number(p, f"{where}.arrival_probs[{k}]")
                                        for k, p in enumerate(d["arrival_probs"])))
        if kind == "uniform_no_outside":
            _check_fields(d, {"kind", "num_options", "support"}, where, optional={"support"})
            supp = _ids(d["support"], f"{where}.support") if "support" in d else None
            return UniformNoOutside(_integer(d["num_options"], f"{where}.num_options"), support=supp)
        if kind == "beta_uniform":
            _check_fields(d, {"kind", "num_options"}, where)
            return BetaUniform(_integer(d["num_options"], f"{where}.num_options"))
    except (ChoiceModelError, TypeError, KeyError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown model kind {kind!r}")


def _integer(x, where: str, types=int, what="an integer"):
    """``x`` as is if it is a JSON value of ``types``: a boolean, a float size or
    a string weight is refused, not coerced."""
    if isinstance(x, bool) or not isinstance(x, types):
        raise ParseError(f"{where}: expected {what}, got {json.dumps(x)}")
    return x


def _number(x, where: str):
    return _integer(x, where, (int, float), "a number")


def _ids(values, where: str) -> frozenset:
    """Option ids, each a JSON integer listed once: a repeat is refused, not merged."""
    ids = [_integer(j, where) for j in values]
    if len(set(ids)) < len(ids):
        raise ParseError(f"{where}: lists an option id twice in {json.dumps(ids)}")
    return frozenset(ids)


def _check_fields(d: dict, allowed: set, where: str, optional: set = frozenset()):
    unknown = set(d) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = allowed - set(d) - set(optional)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")


def instance_to_dict(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "customers": [_model_to_dict(c) for c in inst.customer_models],
        "suppliers": [_model_to_dict(s) for s in inst.supplier_models],
        "k_customer": [k for k in inst.k_customer],
        "k_supplier": [k for k in inst.k_supplier],
    }


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise ParseError("instance file must hold a JSON object")
    _check_fields(d, _SCHEMA_TOP, "instance")
    try:
        n, m = _integer(d["n"], "n"), _integer(d["m"], "m")
        customers = tuple(_model_from_dict(c, f"customers[{i}]") for i, c in enumerate(d["customers"]))
        suppliers = tuple(_model_from_dict(s, f"suppliers[{j}]") for j, s in enumerate(d["suppliers"]))
        kc, ks = (tuple(None if k is None else _integer(k, f"{field}[{a}]")
                        for a, k in enumerate(d[field])) for field in ("k_customer", "k_supplier"))
        return Instance(n, m, customers, suppliers, kc, ks)
    except ParseError:
        raise
    except (ValueError, ChoiceModelError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _unique_keys(pairs) -> dict:
    d = {}
    for key, val in pairs:
        if key in d:
            raise ParseError(f"key {json.dumps(key)} repeats in one object")
        d[key] = val
    return d


def load_json(path):
    """The JSON value in file ``path``.  A key listed twice in one object is
    refused, not overwritten (``json.load`` keeps the last copy)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


def load_instance(path) -> Instance:
    return instance_from_dict(load_json(path))
