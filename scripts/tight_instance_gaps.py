#!/usr/bin/env python3
"""Evaluate the hard constructions and print their adaptivity-gap numbers next
to the limits they approach as the market grows.  Each construction stops at
the first size an exact solver refuses.

prop1:  OPT_OS/OPT_FS grows like n * (1 - (1-1/n)^n)   (unbounded)
lemma3: OPT_OA/OPT_OS approaches e/(e-1) ~ 1.582
lemma6: OPT_FA/OPT_OA approaches 2
"""

import argparse
import math

from tsa.errors import SizeRefusalError
from tsa.exact import (opt_fully_adaptive, opt_fully_static, opt_one_sided_adaptive,
                       opt_one_sided_static)
from tsa.instances import tight_instance


def opt_os(inst):
    return max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))


def opt_oa(inst):
    return max(opt_one_sided_adaptive(inst, "C").value, opt_one_sided_adaptive(inst, "S").value)


ROWS = (
    ("prop1", "OPT_OS/OPT_FS", lambda inst: opt_os(inst) / opt_fully_static(inst)[0], "Omega(n)"),
    ("lemma3", "OPT_OA/OPT_OS", lambda inst: opt_oa(inst) / opt_os(inst), f"{math.e/(math.e-1):.6f}"),
    ("lemma6", "OPT_FA/OPT_OA", lambda inst: opt_fully_adaptive(inst).value / opt_oa(inst), "2.000000"),
)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-n", type=int, default=3)
    args = p.parse_args()

    print("kind     n   ratio                     value      limit")
    for kind, name, ratio, limit in ROWS:
        for n in range(2, args.max_n + 1):
            try:
                value = ratio(tight_instance(kind, n))
            except SizeRefusalError:
                break
            print(f"{kind:<8} {n}   {name}    {value:14.6f}      {limit}")


if __name__ == "__main__":
    main()
