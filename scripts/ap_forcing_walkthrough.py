#!/usr/bin/env python3
"""Walk through the almost-periodic-point forcing on the golden-mean shift,
printing every stage of the interleaved schedule and the final certificate.
Exits 1 when the certificate or the sampled chain check fails, and 2 with one
``error:`` line when the construction runs out of depth: the requests are
fixed, so only ``--depth`` or ``--cmax`` can be at fault."""

import argparse
import sys
import time

sys.path.insert(0, "src")

from cantordyn.errors import CantorDynError
from cantordyn.maps import builtin_map
from cantordyn.refinement import OpenRequest, check_piecewise_samples, construct_ap_point
from cantordyn.systems import DynSystem, forbidden_window_class, verify_ap


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, default=64)
    ap.add_argument("--cmax", type=int, default=4)
    args = ap.parse_args()
    if args.cmax >= args.depth:   # row c needs a gap b >= 1 with c + b <= depth
        ap.error(f"--cmax must be below --depth {args.depth} to verify a gap bound")

    sys_ = DynSystem(forbidden_window_class(2, args.depth, ["11"]),
                     builtin_map("left-shift", 2, args.depth))
    requests = [OpenRequest.static("u0", ["0"]),
                OpenRequest.static("u1", ["01"]),
                OpenRequest.static("u2", ["10"]),
                OpenRequest.static("u3", ["00"]),
                OpenRequest("u4", ((0, "000"), (4, "010")))]

    t0 = time.monotonic()
    try:
        X, cert, log = construct_ap_point(sys_, requests, c_max=args.cmax)
    except CantorDynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    dt = time.monotonic() - t0

    for st in log.stages:
        if st.kind == "request":
            print(f"request {st.label:4s} -> {st.case:5s} "
                  f"(s={st.s}, chain bound {st.chain_bound})")
        else:
            print(f"periodicity i={st.cylinder} -> return bound {st.return_bound}, "
                  f"avoided {list(st.avoided)}")
    print(f"\npoint: {X.prefix}")
    for r in cert.rows:
        print(f"  cylinder length {r.c}: gap bound {r.b}")
    verified = verify_ap(X, cert)
    sound = check_piecewise_samples(log.chain, log.final.map, 200).ok
    print("verify_ap:", verified)
    print("chain: lookup", log.chain.l, "bound", log.chain.b, "sound:", sound)
    print(f"{dt:.2f}s")
    return 0 if verified and sound else 1


if __name__ == "__main__":
    raise SystemExit(main())
