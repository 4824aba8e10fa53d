"""Test-only code kept out of the package: range-checked choice probability
and demand, a submodularity checker, the exact evaluator of a deterministic
policy by its full choice tree, two fixed-assortment policies, the
distribution residual of a one-sided relaxation, UB_FA's LP as a dense
matrix, the exact optimum of a small LP in rational arithmetic, the exact high-value subproblem of the
fully static approximation, explicit draws for a
batched Monte Carlo kernel, a choice model whose constrained demand is not
submodular, a probe of whether a solver passes its size check, and the
paper's sample count T for the sampling side-selector.  No pipeline calls
them; the tests use them as independent checks."""

import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from tsa.errors import ChoiceModelError, ContractViolationError, SizeRefusalError
from tsa.instances import MNL, UNBOUNDED, ChoiceSpec, Instance, Mixture, Tabular, is_mnl
from tsa.lp import LpProblem
from tsa.oracles import _MAX_ENTRIES, constrained_demand, prob_table
from tsa.policies import PolicyAction, PolicyState, Streams, _apply_choice, _validate_action


def choice_prob(model: ChoiceSpec, option: Optional[int], assortment: Iterable[int]) -> float:
    """Probability that the agent picks ``option`` (None = outside) from ``assortment``."""
    s = frozenset(assortment)
    if not all(0 <= j < model.num_options for j in s):
        raise ChoiceModelError(f"assortment {sorted(s)} outside option universe of size {model.num_options}")
    if option is not None and not (0 <= option < model.num_options):
        raise ChoiceModelError(f"unknown option id {option}")
    return model.prob(option, s)


def demand(model: ChoiceSpec, assortment: Iterable[int]) -> float:
    """Probability the agent picks anything from ``assortment``."""
    s = frozenset(assortment)
    if not all(0 <= j < model.num_options for j in s):
        raise ChoiceModelError(f"assortment {sorted(s)} outside option universe of size {model.num_options}")
    return model.demand(s)


def is_submodular(values: Callable[[frozenset], float], universe: Iterable[int],
                  tol: float = 1e-12, rng=None, samples: int = 2000):
    """Check marginal-decrease inequalities for a set function on a small universe.

    Exhaustive for universes of size <= 12; sampled pair checks up to size 20.
    Returns (True, None) or (False, (element, smaller_set, larger_set)).
    """
    elems = sorted(universe)
    n = len(elems)
    if n > 20:
        raise ValueError("is_submodular limited to universes of size <= 20")

    def marginal(e, s: frozenset) -> float:
        return values(s | {e}) - values(s)

    if n <= 12:
        size = 1 << n
        cache = [values(frozenset(elems[i] for i in range(n) if mask >> i & 1))
                 for mask in range(size)]
        for small in range(size):
            comp = (size - 1) ^ small
            extra = 0
            while True:  # extra runs over subsets of the complement, ascending
                big = small | extra
                for i in range(n):
                    bit = 1 << i
                    if big & bit:
                        continue
                    d_small = cache[small | bit] - cache[small]
                    d_big = cache[big | bit] - cache[big]
                    if d_big > d_small + tol:
                        e = elems[i]
                        s_small = frozenset(elems[k] for k in range(n) if small >> k & 1)
                        s_big = frozenset(elems[k] for k in range(n) if big >> k & 1)
                        return False, (e, s_small, s_big)
                extra = (extra - comp) & comp
                if extra == 0:
                    break
        return True, None

    import random

    r = rng if rng is not None else random.Random(0)
    for _ in range(samples):
        small = frozenset(e for e in elems if r.random() < 0.5)
        big = small | frozenset(e for e in elems if r.random() < 0.5)
        rest = [e for e in elems if e not in big]
        if not rest:
            continue
        e = r.choice(rest)
        if marginal(e, big) > marginal(e, small) + tol:
            return False, (e, small, big)
    return True, None


def exact_value_deterministic_adaptive(instance: Instance, policy, max_agents: int = 8) -> float:
    """Exact expected matches of a deterministic policy by expanding the full
    choice tree; refuses instances with more than ``max_agents`` agents."""
    if instance.n + instance.m > max_agents:
        raise SizeRefusalError(f"exact adaptive evaluation refuses n+m > {max_agents}")

    tag = getattr(policy, "tag", "FA")

    def recurse(state: PolicyState, prob: float) -> float:
        if state.done():
            return prob * state.matches
        action = policy.action(state)
        _validate_action(state, action, tag)
        side, idx = action.agent
        model = instance.model(side, idx)
        total = 0.0
        options = sorted(action.assortment) + [None]
        for choice in options:
            p = model.prob(choice, action.assortment)
            if p <= 0.0:
                continue
            backlogs = defaultdict(set, {a: set(b) for a, b in state.backlogs.items()})
            child = PolicyState(instance, dict(state.chosen), backlogs, state.matches)
            _apply_choice(child, action.agent, choice)
            total += recurse(child, prob * p)
        return total

    return recurse(PolicyState(instance), 1.0)


class StaticPolicy:
    """Fully static policy: fixed assortments, processed in lexicographic order."""

    tag = "FS"

    def __init__(self, instance: Instance, customer_assortments, supplier_assortments):
        self.customer_assortments = [frozenset(s) for s in customer_assortments]
        self.supplier_assortments = [frozenset(c) for c in supplier_assortments]

    def action(self, state: PolicyState) -> PolicyAction:
        for i in range(state.instance.n):
            if ("C", i) not in state.chosen:
                return PolicyAction(("C", i), self.customer_assortments[i])
        for j in range(state.instance.m):
            if ("S", j) not in state.chosen:
                return PolicyAction(("S", j), self.supplier_assortments[j])
        raise ContractViolationError("all agents processed")


class OneSidedStaticPolicy:
    """Show fixed assortments to one side; each responder then shows
    ``constrained_demand``'s set of its backlog."""

    def __init__(self, instance: Instance, side: str, assortments):
        self.side = side
        self.assortments = [frozenset(s) for s in assortments]
        self.tag = "C-OS" if side == "C" else "S-OS"

    def action(self, state: PolicyState) -> PolicyAction:
        inst = state.instance
        init_n = inst.side_size(self.side)
        for a in range(init_n):
            if (self.side, a) not in state.chosen:
                return PolicyAction((self.side, a), self.assortments[a])
        resp = "S" if self.side == "C" else "C"
        for b in range(inst.side_size(resp)):
            agent = (resp, b)
            if agent not in state.chosen:
                shown = constrained_demand(inst.model(*agent), state.backlogs[agent], inst.budget(*agent))
                return PolicyAction(agent, shown.assortment)
        raise ContractViolationError("all agents processed")


def transposed(instance: Instance) -> Instance:
    """Swap sides: suppliers become customers and vice versa."""
    return Instance(instance.m, instance.n, instance.supplier_models, instance.customer_models,
                    instance.k_supplier, instance.k_customer)


def random_tabular(rng: np.random.Generator, num_options: int, alpha: float = 1.0) -> Tabular:
    """A Tabular model with a row for every assortment, each row drawn from
    Dirichlet(alpha) over the assortment's options and the outside option, so
    it is neither MNL nor, in general, regular."""
    rows = {}
    for mask in range(1 << num_options):
        s = [j for j in range(num_options) if mask >> j & 1]
        p = rng.dirichlet([alpha] * (len(s) + 1))
        rows[frozenset(s)] = ({j: float(q) for j, q in zip(s, p[:-1])}, float(p[-1]))
    return Tabular(num_options, rows)


def random_tabular_market(rng: np.random.Generator, alpha: float = 1.0) -> Instance:
    """A 2x2 to 3x3 market of ``random_tabular`` models, customers first."""
    n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    return Instance(n, m, tuple(random_tabular(rng, m, alpha) for _ in range(n)),
                    tuple(random_tabular(rng, n, alpha) for _ in range(m)))


def distribution_residual(relax) -> float:
    """Worst |sum - 1| over the per-agent distribution rows of a
    ``RelaxationSolution``."""
    worst = 0.0
    for agents, table in (("resp", relax.lam), ("init", relax.tau)):
        sums: Dict[int, float] = {}
        for (a, _), p in table.items():
            sums[a] = sums.get(a, 0.0) + p
        for s in sums.values():
            worst = max(worst, abs(s - 1.0))
    return worst


def ub_fa_lp(instance: Instance) -> LpProblem:
    """UB_FA's LP with every edge and its dense (2nm x nm) constraint matrix:
    per edge (i, j), row-major (column i*m + j), its customer row
    x_ij + v_ij sum_l x_il <= v_ij, then its supplier row
    x_ij + w_ji sum_k x_kj <= w_ji."""
    v, w = instance.require_mnl_weights("UB_FA")
    n, m = instance.n, instance.m
    i, j = np.divmod(np.arange(n * m), m)
    eye = np.eye(n * m)
    rows = np.stack([v.ravel()[:, None] * (i[:, None] == i) + eye,
                     w.T.ravel()[:, None] * (j[:, None] == j) + eye], axis=1)
    rhs = np.stack([v.ravel(), w.T.ravel()], axis=1)
    return LpProblem(np.ones(n * m), rows.reshape(-1, n * m), rhs.ravel())


def exact_lp_value(problem: LpProblem) -> Optional[Fraction]:
    """max c.x s.t. A x <= b, x >= 0 for b >= 0 in rational arithmetic, each
    float taken exactly: the simplex from the slack basis by Bland's rule,
    which cannot cycle.  None when unbounded.  For LPs of a few dozen rows."""
    m, n = problem.A.shape
    rows = [[Fraction(v) for v in problem.A[i]] + [Fraction(int(i == k)) for k in range(m)]
            + [Fraction(problem.b[i])] for i in range(m)]
    obj = [-Fraction(v) for v in problem.c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        col = next((j for j in range(n + m) if obj[j] < 0), None)
        if col is None:
            return obj[-1]
        ties = [(r[-1] / r[col], basis[i], i) for i, r in enumerate(rows) if r[col] > 0]
        if not ties:
            return None
        row = min(ties)[2]
        pivot = rows[row][col]
        rows[row] = [v / pivot for v in rows[row]]
        for r in rows[:row] + rows[row + 1:] + [obj]:
            f = r[col]
            if f:
                r[:] = [v - f * p for v, p in zip(r, rows[row])]
        basis[row] = col


def exact_highvalue_subproblem(instance: Instance, edges, side: str = "C"):
    """``tsa.fullystatic.highvalue_subproblem``'s problem solved exactly, by
    exhaustive search over each resource's assignment; refuses more than 20
    edges.  Returns (edges, value)."""
    v, w = instance.require_mnl_weights("fully static approximation")
    edge_list = sorted(set(edges))
    if not edge_list:
        return frozenset(), 0.0

    if side == "C":
        agent_of = {e: e[0] for e in edge_list}
        resource_of = {e: e[1] for e in edge_list}
        weight = {e: v[e[0], e[1]] for e in edge_list}
        caps = instance.k_customer
    else:
        agent_of = {e: e[1] for e in edge_list}
        resource_of = {e: e[0] for e in edge_list}
        weight = {e: w[e[1], e[0]] for e in edge_list}
        caps = instance.k_supplier

    def objective(chosen) -> float:
        load = {}
        for e in chosen:
            load[agent_of[e]] = load.get(agent_of[e], 0.0) + weight[e]
        return sum(z / (1.0 + z) for z in load.values())

    if len(edge_list) > 20:
        raise SizeRefusalError("exact subproblem mode refuses more than 20 edges")
    resources = sorted({resource_of[e] for e in edge_list})
    by_resource = {r: [e for e in edge_list if resource_of[e] == r] for r in resources}
    best = (0.0, frozenset())

    def recurse(pos: int, chosen: tuple, counts: dict):
        nonlocal best
        if pos == len(resources):
            val = objective(chosen)
            if val > best[0] + 1e-12:
                best = (val, frozenset(chosen))
            return
        recurse(pos + 1, chosen, counts)
        for e in by_resource[resources[pos]]:
            a = agent_of[e]
            if caps[a] is not UNBOUNDED and counts.get(a, 0) >= caps[a]:
                continue
            counts[a] = counts.get(a, 0) + 1
            recurse(pos + 1, chosen + (e,), counts)
            counts[a] -= 1

    recurse(0, (), {})
    return best[1], best[0]


def stream_uniforms(prefix: list, lo: int, hi: int, draws: int) -> np.ndarray:
    """Row r - lo holds the first ``draws`` values of stream r of
    ``Streams(prefix, lo, hi)``, which ``np.random.default_rng(prefix + [r])``
    also draws."""
    streams = Streams(prefix, lo, hi)
    return np.stack([next(streams) for _ in range(draws)], axis=1)


class Draws:
    """Explicit draws for a batched kernel in place of ``Streams``: row r of
    ``uniforms`` holds run r's draws in order, and each ``next`` hands out
    the next column."""

    def __init__(self, uniforms):
        uniforms = np.asarray(uniforms)
        self._runs, self._columns = len(uniforms), iter(uniforms.T)

    def __len__(self) -> int:
        return self._runs

    def __next__(self) -> np.ndarray:
        return next(self._columns)


def counterexample_constrained_demand_model() -> Mixture:
    """Four-option mixture whose size-2 constrained demand is not submodular.

    Component 1 behaves like an MNL with weights (1, 1, 0) on options 0..2 and
    an option 3 that captures all mass whenever it is offered (the limit of an
    unbounded weight, tabulated explicitly).  Component 2 is MNL (0, 0, 1, 0).
    Arrival probabilities are 1/2 each.
    """
    rows = {}
    base = (1.0, 1.0, 0.0)
    for mask in range(16):
        s = frozenset(j for j in range(4) if mask >> j & 1)
        if 3 in s:
            rows[s] = ({3: 1.0}, 0.0)
        else:
            tot = 1.0 + sum(base[j] for j in s)
            probs = {j: base[j] / tot for j in s if base[j] > 0}
            rows[s] = (probs, 1.0 - sum(probs.values()))
    limit = Tabular(4, rows)
    return Mixture((limit, MNL((0.0, 0.0, 1.0, 0.0))), (0.5, 0.5))


def reaches(monkeypatch, target: str, solve: Callable[[], object]) -> bool:
    """Whether ``solve()`` passes its size checks, seen from whether it calls
    ``target`` (a dotted name), which is patched to stop it there: nothing
    is solved."""
    class Admitted(Exception):
        pass

    def stop(*args, **kwargs):
        raise Admitted

    with monkeypatch.context() as patch:
        patch.setattr(target, stop)
        try:
            solve()
        except Admitted:
            return True
        except SizeRefusalError:
            return False
    raise AssertionError(f"{target} was never called")


def phi_min(instance: Instance) -> Optional[float]:
    """Smallest nonzero max-assortment choice probability across agents and
    options; None when no pair has positive probability."""
    best = None
    for side, count, opp in (("C", instance.n, instance.m), ("S", instance.m, instance.n)):
        for a in range(count):
            model = instance.model(side, a)
            for p in _max_phi(model, opp):
                if p > 0.0:
                    best = p if best is None else min(best, p)
    return best


def _max_phi(model, n_opts: int):
    """max_S phi(j, S) per option j."""
    if is_mnl(model):
        return [w / (1.0 + w) for w in model.weights]
    if isinstance(model, Tabular):
        out = [0.0] * n_opts
        for s, (probs, _) in model.rows.items():
            for j, p in probs.items():
                out[j] = max(out[j], p)
        return out
    if n_opts << n_opts <= _MAX_ENTRIES:  # within prob_table's count
        return list(prob_table(model, n_opts).max(axis=0))
    # Weak-substitutable variants peak at singletons.
    return [model.prob(j, frozenset({j})) for j in range(n_opts)]


def sample_count(epsilon: float, delta: float, phi_min: float) -> int:
    """The paper's T = ceil(3 / (eps^2 * phi_min) * ln(2/delta)) independent
    greedy runs per side for the sampling side-selector."""
    # epsilon = 1 is admitted as the degenerate zero-accuracy boundary.
    if not (0 < epsilon <= 1 and 0 < delta < 1):
        raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
    if phi_min is None or phi_min <= 0:
        raise ValueError("sample_count needs phi_min > 0")
    return math.ceil(3.0 / (epsilon ** 2 * phi_min) * math.log(2.0 / delta))
