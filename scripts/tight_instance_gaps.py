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

from tsa.bounds import QUANTITIES
from tsa.errors import SizeRefusalError
from tsa.instances import tight_instance

# (construction, numerator, denominator, limit); every quantity is an optimum,
# so the seed is not read.
ROWS = (
    ("prop1", "OPT_OS", "OPT_FS", "Omega(n)"),
    ("lemma3", "OPT_OA", "OPT_OS", f"{math.e/(math.e-1):.6f}"),
    ("lemma6", "OPT_FA", "OPT_OA", "2.000000"),
)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-n", type=int, default=3)
    args = p.parse_args()

    print("kind     n   ratio                     value      limit")
    for kind, num, den, limit in ROWS:
        for n in range(2, args.max_n + 1):
            inst = tight_instance(kind, n)
            try:
                value = QUANTITIES[num](inst, 0) / QUANTITIES[den](inst, 0)
            except SizeRefusalError:
                break
            print(f"{kind:<8} {n}   {num}/{den}    {value:14.6f}      {limit}")


if __name__ == "__main__":
    main()
