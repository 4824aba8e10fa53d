"""Inputs, item calls and value checks.  Importing this module imports ``tsa``.

An item is one ``gap_report`` (``tsa tables`` / ``tsa gaps``) or one
``ub_oa`` + ``ub_fa`` pair (``tsa solve --what ub_oa,ub_fa``).  Every item
calls the public functions the CLI calls, in the CLI's order, on an instance
that went through the same dict round trip the CLI gives it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tsa import bounds
from tsa.exact import SolveCaps
from tsa.fullystatic import approx_fully_static
from tsa.instances import (CardinalityProfile, Instance, generate_random_instance,
                           instance_from_dict, instance_to_dict)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT = ("OPT_FS", "OPT_OS", "OPT_OA", "OPT_FA", "ALG_FS", "ALG_OS", "ALG_OA", "ALG_FA")
# Upper bound -> the optimum it must stay above.
BOUNDS = {"UB_OA": "OPT_OA", "UB_FA": "OPT_FA", "REL2": "OPT_OA"}
EXACT_TOL = 1e-12      # relative to max(1, |reference|)
LOOSER_TOL = 1e-6      # an upper bound may loosen by at most this much
VALID_TOL = 1e-9       # an upper bound may undercut a lower bound by at most this much

# Tags the permutation stream so it never coincides with an instance stream.
_ORDER_TAG = 0x7B3C


@dataclass(frozen=True)
class Item:
    key: str
    n: int
    seed: int
    instance: Instance


def profile(workload) -> CardinalityProfile:
    if workload.budget is None:
        return CardinalityProfile()
    return CardinalityProfile("two-way", workload.budget, workload.budget)


def make_instance(workload, n: int, seed: int) -> Instance:
    """``generate_random_instance`` and the CLI's dict round trip."""
    inst = generate_random_instance(n, n, seed, profile(workload))
    return instance_from_dict(instance_to_dict(inst))


def make_cycles(workload, run_seed: int):
    """The items in cycles of ``workload.cycle`` rounds, one item per size in a
    round.  The run seed orders each size's universe of instance seeds, so the
    same run seed gives the same inputs."""
    rng = np.random.default_rng([_ORDER_TAG, run_seed])
    orders = [[int(s) for s in rng.permutation(workload.universe)] for _ in workload.sizes]
    rounds = [[Item(f"n{n}m{n}_s{order[r]}", n, order[r], make_instance(workload, n, order[r]))
               for n, order in zip(workload.sizes, orders)]
              for r in range(workload.universe)]
    return [[item for rnd in rounds[c:c + workload.cycle] for item in rnd]
            for c in range(0, workload.universe, workload.cycle)]


def run_item(workload, item: Item) -> dict:
    """The item's values: gap_report quantities and verdicts, or the two bounds."""
    if workload.kind == "gap_report":
        rep = bounds.gap_report(item.instance, item.key, SolveCaps(), item.seed)
        return {"quantities": rep.quantities, "verdicts": rep.verdicts}
    return {"quantities": {"UB_OA": bounds.ub_oa(item.instance),
                           "UB_FA": bounds.ub_fa(item.instance)}, "verdicts": {}}


def warm_up(workload) -> None:
    """One item on a 2x2 market of the workload's profile: loads the lazily
    imported modules and touches every code path of the item."""
    run_item(workload, Item("warm-up", 2, 0, make_instance(workload, 2, 0)))


def static_lower_bound(item: Item) -> float:
    """A certified lower bound on every optimum: the exact value of the fully
    static approximation's edge set.  The reference of a bounds item keeps it
    as ``LB``, to check the upper bounds where every optimum is refused."""
    return approx_fully_static(item.instance, rng=np.random.default_rng([item.seed, 3])).value


def load_reference(workload) -> dict:
    with open(REFERENCE_DIR / f"{workload.name}.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def check(values: dict, ref: dict) -> list:
    """Problems with one item's values against its reference; empty if none."""
    q = values["quantities"]
    problems = []
    for name in EXACT:
        if name not in ref:
            continue
        got, want = q.get(name), ref[name]
        if want is None:
            continue
        if got is None:
            problems.append(f"{name} missing, reference {want!r}")
        elif abs(got - want) > EXACT_TOL * max(1.0, abs(want)):
            problems.append(f"{name}={got!r} differs from reference {want!r}")
    static_lb = max((ref[k] for k in ("ALG_FS", "ALG_OS", "LB") if ref.get(k) is not None),
                    default=None)
    for name, opt in BOUNDS.items():
        if name not in ref or ref[name] is None:
            continue
        got = q.get(name)
        if got is None:
            problems.append(f"{name} missing, reference {ref[name]!r}")
            continue
        if got > ref[name] + LOOSER_TOL:
            problems.append(f"{name}={got!r} looser than reference {ref[name]!r}")
        lower = ref.get(opt) if ref.get(opt) is not None else static_lb
        if lower is not None and got < lower - VALID_TOL:
            problems.append(f"{name}={got!r} below lower bound {lower!r}")
    for name, ok in values["verdicts"].items():
        if ok is False:
            problems.append(f"verdict {name} failed")
    return problems


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, to tell commits apart."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "tsa").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
