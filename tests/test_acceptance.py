"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Time bounds are asserted with the stated budgets.
"""

import functools
import json
import random
import time

import pytest
from conftest import random_normalized_map

from cantordyn.avoidance import build_dodging_class, verify_not_ap
from cantordyn.cli import main
from cantordyn.maps import builtin_map
from cantordyn.minimal import (HaltingSim, ap_bound_from_minimal,
                               build_bit_coder, decode_bit, decode_members,
                               minimal_subsystem, product_system)
from cantordyn.recurrence import (audit_cover_stages, construct_recurrent_point,
                                  gadget_recurrent_equals_paths)
from cantordyn.refinement import (OpenRequest, Phi1Predicate, PiecewiseIterate,
                                  check_piecewise_samples, compose,
                                  construct_ap_point, least_element_forcing,
                                  meet_or_avoid, nbh_periodicity)
from cantordyn.search import iter_members
from cantordyn.systems import (ClosedClass, DynSystem, explicit_class,
                               forbidden_window_class, full_class, orbit_class,
                               verify_ap, verify_recurrence)
from cantordyn.words import all_words, periodic_word, rotations


def criterion(number, budget_s, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = time.monotonic()
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {desc}")
                raise
            dt = time.monotonic() - t0
            assert dt < budget_s, f"criterion {number} over budget: {dt:.1f}s >= {budget_s}s"
            print(f"ACCEPTANCE {number} PASS  {desc}  ({dt:.1f}s)")
        return wrapper
    return deco


@criterion(1, 10, "iterate calculus exact on 200 random normalized maps, depth 10")
def test_criterion_1_iterate_calculus():
    rng = random.Random(1001)
    depth = 10
    words = [w for n in range(depth + 1) for w in all_words(2, n)]
    for _ in range(200):
        m = random_normalized_map(2, depth, rng)
        orb = {w: m.orbit(w, depth) for w in words}
        for w in words:
            O = orb[w]
            for a in range(depth + 1):
                v = O[a]
                assert O[a:] == orb[v][: depth + 1 - a]
        # one-letter extensions carry full monotonicity by transitivity
        for w in words:
            fw = m.apply(w)
            if len(w) < depth:
                for a in "01":
                    assert m.apply(w + a).startswith(fw)
            assert len(fw) < len(w) or not w


@criterion(2, 30, "gadget brute-force oracle on 50 random trees + fixtures, scan depth 6")
def test_criterion_2_gadget_oracle():
    depth, scan = 13, 6
    rng = random.Random(2002)

    def cylinder_tree(kept):
        kept = frozenset(kept)

        def member(w):
            if len(w) <= scan:
                return any(v.startswith(w) for v in kept)
            return w[: scan] in kept

        return ClosedClass(2, depth, member, name="rand")

    level6 = sorted(all_words(2, scan))
    for _ in range(50):
        kept = rng.sample(level6, rng.randint(1, 64))
        assert gadget_recurrent_equals_paths(cylinder_tree(kept), scan)
    assert gadget_recurrent_equals_paths(explicit_class(2, depth, ["0" * depth]), scan)
    assert gadget_recurrent_equals_paths(full_class(2, depth), scan)
    stems = explicit_class(2, depth, ["0" * depth, "01", "0010", "1"])
    assert gadget_recurrent_equals_paths(stems, scan)


@criterion(3, 60, "recurrent-point construction at depth 16 with verified certs and stage audit")
def test_criterion_3_recurrent_point():
    for space in (full_class(2, 16), forbidden_window_class(2, 16, ["11"])):
        sys_ = DynSystem(space, builtin_map("left-shift", 2, 16))
        X, cert, stages = construct_recurrent_point(sys_, stages=3, c_max=4)
        assert X.system.space.member(X.prefix)
        assert {c for c, _, _ in cert.entries} == {1, 2, 3, 4}
        assert verify_recurrence(X, cert)
        assert audit_cover_stages(sys_, stages).ok


@criterion(4, 60, "minimal subsystems pass the minimality probe; S_2 stays itself with b <= 5")
def test_criterion_4_minimality():
    N = 16
    sh = builtin_map("left-shift", 2, N)
    fixtures = [DynSystem(full_class(2, N), sh),
                DynSystem(forbidden_window_class(2, N, ["11"]), sh),
                DynSystem(orbit_class("0011", 2, N), sh)]
    for sys_ in fixtures:
        msys, chain = minimal_subsystem(sys_)
        # every stage shrinks monotonically and keeps a full-depth member
        for st in chain.stages:
            assert iter_members(st.class_after, N, limit=1)
        reachable = set()
        for w in iter_members(msys.space, N):
            for u in msys.map.orbit(w, N):
                for t in range(1, 4):
                    if len(u) >= t:
                        reachable.add(u[:t])
        for tau in sorted(reachable):
            assert ap_bound_from_minimal(msys, tau) >= 1   # never NotMinimal
    s2sys = DynSystem(orbit_class("0011", 2, N), sh)
    s2_members = sorted(periodic_word(r, N) for r in rotations("0011"))
    msys, _ = minimal_subsystem(s2sys)
    assert iter_members(msys.space, N) == s2_members
    for tau in ("00", "01", "10", "11"):
        if any(tau in w for w in s2_members):
            assert ap_bound_from_minimal(msys, tau) <= 5


@criterion(5, 60, "8-bit halting simulation decoded exactly through the product system")
def test_criterion_5_halting_coding():
    bits = ((0, None), (1, 1), (2, 2), (3, None), (4, 3), (5, 1), (6, None), (7, 2))
    sim = HaltingSim(bits, stage_horizon=8)
    parts = [build_bit_coder(n, sim, 8) for n, _ in bits]
    msys, _ = minimal_subsystem(product_system(parts), enum_len=10)
    members = decode_members(msys)
    for n, t in bits:
        assert decode_bit(msys, n, members) == (t is not None)


@criterion(6, 60, "dodging lemma: orbit case, degenerate witness, full sigma chain")
def test_criterion_6_dodging():
    N = 40
    out = build_dodging_class(explicit_class(2, N, ["0" * N]))
    assert out.case == "orbit" and out.orbit_generator == "1"
    assert iter_members(out.orbit_class, N) == ["1" * N]

    out_full = build_dodging_class(full_class(2, N))
    assert out_full.case == "hat"
    assert iter_members(out_full.hat_class, N) == ["1" + "0" * (N - 1)]
    assert verify_not_ap(out_full.hat_class, 4)

    xstar = ("0" + "1" + "0" + "11" + "0" + "111" + "0" + "1111").ljust(N, "0")
    points = [xstar, "0" * N, "1" * N, "10" + "1" * (N - 2)]
    for gen in ("01", "001", "011", "0001", "0011", "0111"):
        points.append(periodic_word(gen, N))
    out2 = build_dodging_class(explicit_class(2, N, points), sigma_stages=4)
    assert out2.case == "hat" and out2.degenerate_probe is None
    sig = out2.sigma
    assert sig.check() == []
    assert len(sig.sigmas) == 4
    assert sig.cuts == tuple(2 * k + sum(len(s) for s in sig.sigmas[:k])
                             for k in range(1, 5))
    assert verify_not_ap(out2.hat_class, len(sig.sigmas))


@criterion(7, 60, "compose exact on 100 random certificate pairs; meet/avoid postconditions at depth 12")
def test_criterion_7_refinement_calculus():
    N = 12
    f = builtin_map("left-shift", 2, N)
    rng = random.Random(7007)
    for _ in range(100):
        l1, b1 = rng.randint(0, 2), rng.randint(1, 3)
        j1 = {w: rng.randint(1, b1) for w in all_words(2, l1)}
        inner = PiecewiseIterate(l1, b1, f, j1.__getitem__)
        g = inner.induced()
        l2, b2 = rng.randint(0, 2), rng.randint(1, 3)
        j2 = {w: rng.randint(1, b2) for w in all_words(2, l2)}
        outer = PiecewiseIterate(l2, b2, g, j2.__getitem__)
        h = compose(outer, inner)
        hi = h.induced()
        for n in range(h.l, N + 1):
            for w in all_words(2, n):
                assert hi.apply(w) == g.iterate(w, j2[w[: l2]])

    sys_ = DynSystem(full_class(2, N), f)
    # avoid case: D_0 forward invariant and orbit-avoiding, exhaustively
    r, case = meet_or_avoid(sys_, OpenRequest.static("u", ["10"]))
    assert case == "avoid"
    for n in range(N + 1):
        for w in all_words(2, n):
            if r.child.space.member(w):
                assert r.child.space.member(f.apply(w))
                assert all(not f.iterate(w, m).startswith("10")
                           for m in range(len(w) + 1))
    # meet case: every long-enough child word extends a request element
    r2, case2 = meet_or_avoid(sys_, OpenRequest.static("u", ["0", "1"]))
    assert case2 == "meet"
    s = r2.meta["s"]
    for n in range(s, N + 1):
        for w in all_words(2, n):
            if r2.child.space.member(w):
                assert w.startswith("0") or w.startswith("1")


@criterion(8, 60, "least-element forcing outcomes and neighborhood periodicity fixtures, exact")
def test_criterion_8_forcing():
    N = 12
    sh = builtin_map("left-shift", 2, N)
    full = DynSystem(full_class(2, N), sh)
    ones = DynSystem(explicit_class(2, N, ["1" * N]), sh)
    zeros = DynSystem(explicit_class(2, N, ["0" * N]), sh)

    phi_false = Phi1Predicate("never", lambda m, t, p: False)
    r, out = least_element_forcing(full, phi_false)
    assert out == ("empty", None)
    assert iter_members(r.child.space, 4) == iter_members(full.space, 4)

    phi_one = Phi1Predicate("prefix-one", lambda m, t, p: m == 0 and t.startswith("1"))
    r2, out2 = least_element_forcing(full, phi_one)
    assert out2 == ("empty", None)
    assert iter_members(r2.child.space, N) == ["0" * N]
    _, out2b = least_element_forcing(ones, phi_one)
    assert out2b == ("least", 0)

    phi_at = Phi1Predicate("one-at", lambda m, t, p: len(t) > m and t[m] == "1")
    _, out3 = least_element_forcing(zeros, phi_at)
    assert out3 == ("empty", None)
    r3, out3b = least_element_forcing(ones, phi_at)
    assert out3b == ("least", 0)

    res = nbh_periodicity(DynSystem(orbit_class("01", 2, N), sh), 2)
    assert res.avoided == ("00", "11") and res.b == 3
    res2 = nbh_periodicity(DynSystem(explicit_class(2, N, ["0" * N]), sh), 1)
    assert res2.avoided == ("1",) and res2.b == 1
    res3 = nbh_periodicity(full, 1)
    assert res3.avoided == ("1",) and res3.b == 1
    assert iter_members(res3.system.space, N) == ["0" * N]


@criterion(9, 120, "almost-periodic point at depth 64 with verified rows and sound chain certificate")
def test_criterion_9_ap_construction():
    N = 64
    sys_ = DynSystem(forbidden_window_class(2, N, ["11"]),
                     builtin_map("left-shift", 2, N))
    requests = [OpenRequest.static("u0", ["0"]),
                OpenRequest.static("u1", ["01"]),
                OpenRequest.static("u2", ["10"]),
                OpenRequest.static("u3", ["00"]),
                OpenRequest("u4", ((0, "000"), (4, "010")))]
    X, cert, log = construct_ap_point(sys_, requests, c_max=4)
    assert X.system.space.member(X.prefix)
    assert [r.c for r in cert.rows] == [1, 2, 3, 4]
    assert verify_ap(X, cert)
    cases = [st.case for st in log.stages if st.kind == "request"]
    assert len(cases) == 5 and "meet" in cases
    assert check_piecewise_samples(log.chain, log.final.map, samples=200, seed=9).ok
    # the composed chain stays below the product of its stage bounds
    bound = 1
    for st in log.stages:
        if st.kind == "request" and st.case == "meet":
            bound *= st.s + 1
    assert log.chain.b <= bound


@criterion(10, 120, "CLI determinism: byte-identical reports, exit codes track verification")
def test_criterion_10_cli_determinism(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"alphabet": 2, "depth": 16,
                                  "tree": {"kind": "forbidden_words", "words": ["11"]},
                                  "map": {"kind": "shift"}}))
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps({"alphabet": 2, "depth": 24,
                              "tree": {"kind": "explicit_nodes", "nodes": ["0" * 24]},
                              "map": {"kind": "shift"}}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"alphabet": 2, "depth": 13,
                                "tree": {"kind": "explicit_nodes",
                                         "nodes": ["0" * 13, "01", "1"]},
                                "map": {"kind": "shift"}}))
    reqs = tmp_path / "reqs.json"
    reqs.write_text(json.dumps([{"name": "u0", "words": ["1"]},
                                {"name": "u1", "words": ["0", "1"]}]))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"stage_horizon": 6,
                               "bits": [[0, None], [1, 1], [2, 2], [3, None]]}))
    jobs = [
        ["validate", str(golden)],
        ["orbit", str(golden), "--steps", "4"],
        ["recurrent", str(golden), "--stages", "3"],
        ["minimal", str(golden)],
        ["decode-halting", "--sim", str(sim), "--coldepth", "8"],
        ["dodge", str(p0)],
        ["meet-avoid", str(golden), "--requests", str(reqs)],
        ["force-least", str(golden), "--phi", "prefix-one"],
        ["ap-point", str(golden), "--requests", str(reqs), "--cmax", "2"],
        ["reduce-tree", str(tree), "--scan-depth", "5"],
    ]
    for idx, argv in enumerate(jobs):
        outs = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}{idx}.json"
            code = main(argv + ["--out", str(path)])
            assert code == 0, argv
            report = json.loads(path.read_text())
            assert report["verified"]
            report.pop("timing_ms")
            outs.append(json.dumps(report, sort_keys=True, indent=2))
        assert outs[0] == outs[1], argv
    # a failing verification is reflected in the exit code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": 2, "depth": 4,
                               "tree": {"kind": "explicit_nodes", "nodes": ["10"]},
                               "map": {"kind": "shift"}}))
    assert main(["validate", str(bad), "--out", str(tmp_path / "bad_out.json")]) == 1
