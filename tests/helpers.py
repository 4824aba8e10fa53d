"""Test-only code kept out of the package: range-checked choice probability
and demand, a submodularity checker, the exact evaluator of a deterministic
policy by its full choice tree, two fixed-assortment policies, the
distribution residual of a one-sided relaxation, and the exact high-value
subproblem of the fully static approximation.  No pipeline calls them; the
tests use them as independent checks."""

from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional

from tsa.errors import ChoiceModelError, ContractViolationError, SizeRefusalError
from tsa.instances import UNBOUNDED, ChoiceSpec, Instance
from tsa.oracles import constrained_demand
from tsa.policies import PolicyAction, PolicyState, _apply_choice, _validate_action


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
