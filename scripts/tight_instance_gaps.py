#!/usr/bin/env python3
"""Evaluate the hard constructions and print their adaptivity-gap numbers next
to the limits they approach as the market grows.

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


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-n", type=int, default=3)
    args = p.parse_args()

    print("kind     n   ratio                     value      limit")
    for n in range(2, args.max_n + 1):
        inst = tight_instance("prop1", n)
        fs, _ = opt_fully_static(inst)
        os_ = max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))
        print(f"prop1    {n}   OPT_OS/OPT_FS    {os_/fs:14.6f}      Omega(n)")

    for n in range(2, args.max_n + 1):
        inst = tight_instance("lemma3", n)
        if n > 4:
            break
        os_ = max(opt_one_sided_static(inst, "C"), opt_one_sided_static(inst, "S"))
        oa = max(opt_one_sided_adaptive(inst, "C").value,
                 opt_one_sided_adaptive(inst, "S").value)
        print(f"lemma3   {n}   OPT_OA/OPT_OS    {oa/os_:14.6f}      {math.e/(math.e-1):.6f}")

    for n in range(2, args.max_n + 1):
        inst = tight_instance("lemma6", n)
        try:
            fa = opt_fully_adaptive(inst).value
        except SizeRefusalError:
            break
        oa = max(opt_one_sided_adaptive(inst, "C").value,
                 opt_one_sided_adaptive(inst, "S").value)
        print(f"lemma6   {n}   OPT_FA/OPT_OA    {fa/oa:14.6f}      2.000000")


if __name__ == "__main__":
    main()
