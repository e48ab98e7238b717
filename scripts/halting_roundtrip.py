#!/usr/bin/env python3
"""Round-trip a random halting simulation through the coding systems:
build one class per bit, interleave them into a product, extract a minimal
subsystem greedily, and read every bit back off the surviving members."""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from cantordyn.minimal import (HaltingSim, build_bit_coder, decode_bit, decode_members,
                               minimal_subsystem, product_system)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bits", type=int, default=6)
    ap.add_argument("--coldepth", type=int,
                    help="depth per column (default: max(8, 2t + 1) for the largest "
                         "finite entry stage t)")
    ap.add_argument("--max-stage", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    bits = tuple((n, rng.choice([None, rng.randint(1, args.max_stage)]))
                 for n in range(args.bits))
    sim = HaltingSim(bits, stage_horizon=max(args.max_stage, 1))
    # a bit halting at stage t has column period 2t, as in decode-halting
    least = 2 * max((t for _, t in bits if t is not None), default=0) + 1
    if args.coldepth is None:
        args.coldepth = max(8, least)
    elif args.coldepth < least:
        ap.error(f"--coldepth must be at least 2t + 1 = {least} for the drawn entry stages")
    print("simulated:", {n: ("inf" if t is None else t) for n, t in bits})

    t0 = time.monotonic()
    parts = [build_bit_coder(n, sim, args.coldepth) for n, _ in bits]
    prod = product_system(parts)
    msys, chain = minimal_subsystem(prod, enum_len=len(parts) + 2)
    print(f"product depth {prod.depth}, pruned {len(chain.pruned_words())} cylinders, "
          f"{(time.monotonic() - t0) * 1000:.0f} ms")

    members = decode_members(msys)   # listed once, read for every bit
    for w in members[:4]:
        print("member columns:", " | ".join(w[n::len(parts)] for n in range(len(parts))))

    exact = True
    for n, t in bits:
        got = decode_bit(msys, n, members)
        want = t is not None
        exact = exact and got == want
        print(f"bit {n}: decoded={got} simulated={want}")
    print("round-trip exact" if exact else "MISMATCH")
    return 0 if exact else 1


if __name__ == "__main__":
    raise SystemExit(main())
