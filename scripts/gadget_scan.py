#!/usr/bin/env python3
"""Sweep random cylinder-determined trees through the tree-reduction oracle.

Each tree is determined at the scan depth and extended to the working depth,
so every scanned member survives and the brute-force recurrent set must equal
the member set exactly.
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from cantordyn.recurrence import gadget_recurrent_set
from cantordyn.systems import ClosedClass
from cantordyn.words import all_words, is_prefix_in


def cylinder_tree(kept, scan, depth):
    listed, kept = sorted(kept), frozenset(kept)

    def member(w):
        if len(w) <= scan:
            return is_prefix_in(w, listed)
        return w[:scan] in kept

    return ClosedClass(2, depth, member, name="random")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trees", type=int, default=25)
    ap.add_argument("--scan-depth", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    scan = args.scan_depth
    depth = 2 * scan + 1
    level = sorted(all_words(2, scan))
    t0 = time.monotonic()
    failures = 0
    for i in range(args.trees):
        kept = rng.sample(level, rng.randint(1, len(level)))
        recurrent = gadget_recurrent_set(cylinder_tree(kept, scan, depth), scan)
        ok = recurrent == set(kept)
        line = "ok " if ok else "FAIL"
        print(f"tree {i:3d}: members={len(kept):3d} recurrent={len(recurrent):3d}  {line}")
        failures += not ok
    dt = time.monotonic() - t0
    print(f"{args.trees} trees, {failures} failures, {dt:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
