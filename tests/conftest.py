import numpy as np
import pytest

from tsa.instances import MNL, Instance, Tabular


@pytest.fixture
def unit_1x1():
    """One customer, one supplier, unit MNL weights: everything equals 1/4."""
    return Instance(1, 1, (MNL((1.0,)),), (MNL((1.0,)),))


def independent_model(probs):
    """Tabular model with phi(j, S) = p_j whenever j in S (independent demand)."""
    n = len(probs)
    assert sum(probs) <= 1.0 + 1e-12
    rows = {}
    for mask in range(1 << n):
        s = frozenset(j for j in range(n) if mask >> j & 1)
        p = {j: probs[j] for j in s if probs[j] > 0}
        rows[s] = (p, 1.0 - sum(p.values()))
    return Tabular(n, rows)


def nonmonotone_market():
    """Two MNL(4.0) customers and one Tabular supplier of budget 2 whose demand
    is not monotone: {0} 0.5, {1} 0.9, {0, 1} 0.6.  Holding both customers,
    the supplier shows {1}."""
    supplier = Tabular(2, {frozenset(): ({}, 1.0), frozenset({0}): ({0: 0.5}, 0.5),
                           frozenset({1}): ({1: 0.9}, 0.1),
                           frozenset({0, 1}): ({0: 0.3, 1: 0.3}, 0.4)})
    return Instance(2, 1, (MNL((4.0,)),) * 2, (supplier,), (), (2,))


def low_value_instance(n, m, seed, alpha=0.7574):
    """Random MNL instance with every weight strictly below alpha."""
    rng = np.random.default_rng(seed)
    v = rng.random((n, m)) * (alpha * 0.95)
    w = rng.random((m, n)) * (alpha * 0.95)
    return Instance(n, m,
                    tuple(MNL(tuple(v[i])) for i in range(n)),
                    tuple(MNL(tuple(w[j])) for j in range(m)))


def budget_only_market(full: bool = False, side: str = "C") -> Instance:
    """One agent of budget 1 on ``side`` facing two MNL opponents, whose
    ``Tabular`` model lists only the displays its budget allows (with
    ``full``, the forbidden display {0, 1} too, at probabilities no solver
    may use)."""
    rows = {frozenset(): ({}, 1.0), frozenset({0}): ({0: 0.6}, 0.4),
            frozenset({1}): ({1: 0.3}, 0.7)}
    if full:
        rows[frozenset({0, 1})] = ({0: 0.1, 1: 0.8}, 0.1)
    agent, opponents = (Tabular(2, rows),), (MNL((1.0,)), MNL((2.0,)))
    if side == "C":
        return Instance(1, 2, agent, opponents, (1,), ())
    return Instance(2, 1, opponents, agent, (), (1,))
