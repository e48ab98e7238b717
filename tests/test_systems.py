import random
import tracemalloc

import pytest
from conftest import (FIBONACCI, THUE_MORSE, fixed_point_factors, random_normalized_map,
                      word_sets_and_words)
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn.errors import DepthExceeded
from cantordyn.maps import CodedMap, builtin_map
from cantordyn.minimal import HaltingSim, build_bit_coder, product_system
from cantordyn.recurrence import construct_recurrent_point
from cantordyn.search import (OrbitAvoidance, avoidance_class, death_length,
                              find_member, iter_members, live_nodes)
from cantordyn.systems import (APCert, APRow, DynSystem, PointApprox, RecCert,
                               Report, cylinder_class, explicit_class,
                               forbidden_window_class, full_class, memo_class,
                               least_ap_row, orbit_class, stagewise_class,
                               validate_system, verify_ap, verify_recurrence)
from cantordyn.words import all_words, periodic_word, words_up_to


class TestClosedClasses:
    def test_full(self):
        c = full_class(2, 6)
        assert c.member("") and c.member("010101")

    def test_forbidden_windows(self):
        gm = forbidden_window_class(2, 8, ["11"])
        assert gm.member("01010010")
        assert not gm.member("0110")

    def test_explicit_prefix_closure(self):
        c = explicit_class(2, 4, ["0101"])
        assert c.member("01") and c.member("0101")
        assert not c.member("1")

    def test_stagewise_monotone(self):
        c = stagewise_class(2, 6, [(2, "1"), (4, "01")], stage_horizon=5)
        assert c.member("1", stage=1)
        assert not c.member("1", stage=2)
        assert c.member("01", stage=3)
        assert not c.member("010101")

    def test_orbit_class(self):
        c = orbit_class("01", 2, 8)
        assert iter_members(c, 8) == ["01010101", "10101010"]

    def test_depth_guard(self):
        c = full_class(2, 4)
        with pytest.raises(DepthExceeded):
            c.member("00000")


class TestValidateSystem:
    def test_full_shift_clean(self, full_shift12):
        assert validate_system(full_shift12).ok

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet mismatch between class and map"):
            DynSystem(full_class(3, 8), builtin_map("left-shift", 2, 8))

    def test_point_needs_full_depth(self, full_shift12):
        with pytest.raises(ValueError, match="point prefix must have full depth"):
            full_shift12.point("0" * 11)

    def test_zero_words_clean(self):
        sys_ = DynSystem(explicit_class(2, 8, ["0" * 8]),
                         builtin_map("left-shift", 2, 8))
        assert validate_system(sys_).ok

    def test_lambda_one_union_zeros(self):
        # {λ, "1"} plus all 0-words: shift maps "1" to λ, 0-words shrink
        nodes = ["1", "0" * 8]
        sys_ = DynSystem(explicit_class(2, 8, nodes), builtin_map("left-shift", 2, 8))
        assert validate_system(sys_).ok

    def test_detects_escape(self):
        # {λ,"1","10"} with shift: f("10") = "0" is not a member
        sys_ = DynSystem(explicit_class(2, 2, ["10"]), builtin_map("left-shift", 2, 2))
        rep = validate_system(sys_)
        assert not rep.ok
        assert any(c == "forward-invariance" for c, _, _ in rep.entries)

    def test_violations_in_length_lex_order(self):
        # a stagewise class the shift does not preserve: the report lists its
        # forward-invariance witnesses shortest first, then lexicographically
        space = stagewise_class(2, 10, [(2, "11"), (4, "101"), (1, "0000")], 5)
        rep = validate_system(DynSystem(space, builtin_map("left-shift", 2, 10)))
        assert {c for c, _, _ in rep.entries} == {"forward-invariance"}
        witnesses = [w for _, w, _ in rep.entries]
        assert len(witnesses) == 445
        assert witnesses[:4] == ["011", "0101", "0110", "0111"]
        assert witnesses == sorted(witnesses, key=lambda w: (len(w), w))


def orbit(X: PointApprox, steps: int) -> list[str]:
    return X.system.map.orbit(X.prefix, steps)


class TestOrbit:
    def test_shift_orbit(self, full_shift12):
        X = full_shift12.point(periodic_word("01", 12))
        orb = orbit(X, 2)
        assert orb == [periodic_word("01", 12), periodic_word("10", 11), periodic_word("01", 10)]

    def test_fixed_point(self, full_shift12):
        X = full_shift12.point("0" * 12)
        assert all(set(w) <= {"0"} for w in orbit(X, 5))

    def test_s2_alignment(self, full_shift12):
        X = full_shift12.point(periodic_word("0011", 12))
        assert orbit(X, 4)[4] == periodic_word("0011", 8)

    def test_prefix_coherence(self, full_shift12):
        X = full_shift12.point("011010110101")
        assert orbit(X, 9)[:5] == orbit(X, 4)


class TestRecurrenceCerts:
    def test_identity_cert(self):
        idm = builtin_map("identity", 2, 12)
        sys_ = DynSystem(full_class(2, 12), idm)
        X = sys_.point("011001100110")
        cert = RecCert(tuple((c, c + 1, 12) for c in range(1, 5)))
        assert verify_recurrence(X, cert)

    def test_shift_zero_word(self, full_shift12):
        X = full_shift12.point("0" * 12)
        cert = RecCert(tuple((c, 1, c + 2) for c in range(1, 5)))
        assert verify_recurrence(X, cert)

    def test_never_reenters_one(self, full_shift12):
        X = full_shift12.point("1" + "0" * 11)
        for n in range(1, 12):
            assert not verify_recurrence(X, RecCert(((1, n, 12),)))

    def test_rejects_l_not_above_c(self, full_shift12):
        X = full_shift12.point("0" * 12)
        assert not verify_recurrence(X, RecCert(((3, 1, 3),)))

    def test_rejects_a_zero_return_time(self, full_shift12):
        # f^0(X↾l) = X↾l extends X↾c for every row, so n = 0 proves nothing
        X, cert, _ = construct_recurrent_point(full_shift12, stages=3, c_max=2)
        assert verify_recurrence(X, cert)
        (c, _, l), *rest = cert.entries
        assert not verify_recurrence(X, RecCert(((c, 0, l), *rest)))


def reference_ap_row(X, c, b):
    """Row ``(c, b)`` witnessed directly on the orbit of ``X``, or None: the
    retry step that ``least_ap_row`` replaces, kept as its reference."""
    N = X.system.depth
    orb = X.system.map.orbit(X.prefix, N)
    target = X.prefix[:c]
    last = N - b - c
    if last < 0:
        return None
    wit = []
    for n in range(last + 1):
        found = None
        for k in range(b):
            it = orb[n + k]
            if len(it) >= c and it.startswith(target):
                found = k
                break
        if found is None:
            return None
        wit.append(found)
    return APRow(c, b, tuple(wit))


def reference_least_row(X, c):
    """The first row that ``reference_ap_row`` finds trying ``b = 1, 2, …``."""
    N = X.system.depth
    return next((row for b in range(1, N - c + 1)
                 if (row := reference_ap_row(X, c, b)) is not None), None)


def least_rows(X, cs):
    orb = X.system.map.orbit(X.prefix, X.system.depth)
    return [least_ap_row(X, orb, c) for c in cs]


class TestApCerts:
    def test_fixed_point_rows(self, full_shift12):
        X = full_shift12.point("0" * 12)
        rows = least_rows(X, range(1, 4))
        assert [r.b for r in rows] == [1, 1, 1]
        assert verify_ap(X, APCert(tuple(rows)))

    def test_two_cycle_rows(self, full_shift12):
        X = full_shift12.point(periodic_word("01", 12))
        rows = least_rows(X, (1, 2))
        assert [r.b for r in rows] == [2, 2]
        assert verify_ap(X, APCert(tuple(rows)))

    def test_half_half_gap(self, full_shift12):
        # the six starts in the ones wait forever; b = 6 leaves them undecided
        X = full_shift12.point("0" * 6 + "1" * 6)
        (row,) = least_rows(X, (1,))
        assert row == APRow(1, 6, (0,) * 6)
        for b in range(1, 6):
            bogus = APRow(1, b, tuple(0 for _ in range(12 - b - 1 + 1)))
            assert not verify_ap(X, APCert((bogus,)))

    def test_row_without_a_return_has_one_start(self, full_shift12):
        # "1" never comes back: only b = N - c leaves a single start, n = 0
        (row,) = least_rows(full_shift12.point("1" + "0" * 11), (1,))
        assert row == APRow(1, 11, (0,))

    def test_ap_implies_rp(self, full_shift12):
        # an almost periodic point is recurrent: the witness at start c + 1
        # gives a return time past the cylinder length
        X = full_shift12.point(periodic_word("0011", 12))
        ap = APCert(tuple(least_rows(X, (1, 2))))
        assert verify_ap(X, ap)
        rc = RecCert(tuple((r.c, r.c + 1 + r.witnesses[r.c + 1], 12) for r in ap.rows))
        assert verify_recurrence(X, rc)

    def test_rows_exist_only_below_depth(self, full_shift12):
        X = full_shift12.point(periodic_word("01", 12))
        orb = X.system.map.orbit(X.prefix, 12)
        for c in (0, 12):
            with pytest.raises(ValueError, match=f"cylinder length {c} must be in 1..11"):
                least_ap_row(X, orb, c)

    def test_rejects_a_witness_equal_to_the_bound(self, full_shift12):
        # the eleven starts of b = 1 wait 0 or 1, and k = 1 is no witness for b = 1
        X = full_shift12.point(periodic_word("01", 12))
        assert least_rows(X, (1,)) == [APRow(1, 2, (0, 1) * 5)]
        assert not verify_ap(X, APCert((APRow(1, 1, (0, 1) * 5 + (0,)),)))

    def test_rejects_a_wrong_witness_count_without_raising(self, full_shift12):
        X = full_shift12.point(periodic_word("01", 12))
        (row,) = least_rows(X, (1,))
        for witnesses in (row.witnesses[:-1], row.witnesses + (0,)):
            assert not verify_ap(X, APCert((row._replace(witnesses=witnesses),)))

    def test_rejects_an_empty_cylinder(self, full_shift12):
        # every iterate extends the empty word, so only the check on c refuses it
        X = full_shift12.point(periodic_word("01", 12))
        assert not verify_ap(X, APCert((APRow(0, 1, (0,) * 12),)))

    @pytest.mark.parametrize("rules", [FIBONACCI, THUE_MORSE], ids=["fibonacci", "thue-morse"])
    def test_every_cylinder_below_depth_has_a_row(self, rules):
        from cantordyn.refinement import construct_ap_point
        sys_ = DynSystem(explicit_class(2, 16, fixed_point_factors(rules, 16)),
                         builtin_map("left-shift", 2, 16))
        X, cert, _ = construct_ap_point(sys_, [], c_max=15)
        assert [(r.c, r.b) for r in cert.rows[-2:]] == [(14, 2), (15, 1)]
        assert all(verify_ap(X, APCert((row,))) for row in cert.rows)

    def test_rows_read_one_orbit(self, monkeypatch):
        # every row comes from the survivor's one orbit, not one orbit per tried b
        from cantordyn.refinement import construct_ap_point
        N = 128
        sys_ = DynSystem(explicit_class(2, N, fixed_point_factors(THUE_MORSE, N)),
                         builtin_map("left-shift", 2, N))
        orbit, calls = CodedMap.orbit, []

        def counted_orbit(self, word, steps):
            calls.append(word)
            return orbit(self, word, steps)

        monkeypatch.setattr(CodedMap, "orbit", counted_orbit)
        X, cert, _ = construct_ap_point(sys_, [], c_max=10)
        assert calls == [X.prefix]
        monkeypatch.undo()
        assert verify_ap(X, cert)


class TestSearch:
    def test_find_member_lex_least(self, golden12):
        assert find_member(golden12.space, 12) == "0" * 12

    def test_avoidance(self, full_shift12):
        av = OrbitAvoidance(full_shift12.map, ["1"])
        cls = avoidance_class(full_shift12.space, av, "no1")
        assert iter_members(cls, 12) == ["0" * 12]

    def test_death_length(self, golden12):
        av = OrbitAvoidance(golden12.map, ["0"])
        cls = avoidance_class(golden12.space, av, "no0")
        # within golden mean, words avoiding [0] forever are just λ and "1"
        assert death_length(cls, 12) == 2

    def test_generic_vs_suffix_agree(self, golden12):
        # prefix-map (normalized identity) exercises the generic path
        idm = builtin_map("identity", 2, 8)
        av = OrbitAvoidance(idm, ["01"])
        for w in all_words(2, 6):
            assert av.ok(w) == all(
                not idm.iterate(w, n).startswith("01") for n in range(len(w) + 1))

    def test_cylinder_compat(self, full_shift12):
        compat = cylinder_class(full_shift12.space, ["0011"], "compat")
        assert find_member(compat, 12) == "0011" + "0" * 8


@given(st.text(alphabet="01", min_size=12, max_size=12))
@settings(max_examples=40, deadline=None)
def test_search_row_matches_verify(word):
    sys_ = DynSystem(full_class(2, 12), builtin_map("left-shift", 2, 12))
    X = PointApprox(word, sys_)
    for c in (1, 2):
        row = least_rows(X, (c,))[0]
        assert verify_ap(X, APCert((row,)))
        # no smaller bound verifies with any witnesses
        assert row.b == 1 or reference_ap_row(X, c, row.b - 1) is None


@st.composite
def ap_points(draw):
    """A point of the full binary class under the left shift or a random
    normalized table, and any cylinder length below its depth."""
    depth = draw(st.integers(5, 8))
    if draw(st.booleans()):
        f = builtin_map("left-shift", 2, depth)
    else:
        f = random_normalized_map(2, depth, random.Random(draw(st.integers(0, 2 ** 32))))
    X = PointApprox(draw(st.text(alphabet="01", min_size=depth, max_size=depth)),
                    DynSystem(full_class(2, depth), f))
    return X, draw(st.integers(1, depth - 1))


@given(ap_points())
@settings(max_examples=150, deadline=None)
def test_least_ap_row_is_the_first_row_of_the_retry_loop(point):
    X, c = point
    row = least_rows(X, (c,))[0]
    assert row == reference_least_row(X, c)
    assert verify_ap(X, APCert((row,)))


# -- membership by child test, against the full-membership definitions ------

MEMBER_DEPTH = 8
HORIZON = 4
short_words = st.text(alphabet="01", max_size=4)


@st.composite
def base_classes(draw, depth=MEMBER_DEPTH):
    """A forbidden-window, explicit or stagewise class at ``depth``, with the
    full membership formula it had before classes were given by their child
    test: ``(cls, member(w), member_at(w, s))``."""
    kind = draw(st.sampled_from(["sft", "nodes", "stages"]))
    if kind == "sft":
        forb = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3),
                             min_size=1, max_size=4))
        lens = sorted({len(w) for w in forb})
        by_len = {t: {w for w in forb if len(w) == t} for t in lens}

        def ref(w):
            return not any(w[i:i + t] in by_len[t]
                           for t in lens for i in range(len(w) - t + 1))

        return forbidden_window_class(2, depth, forb), ref, None
    if kind == "nodes":
        nodes = draw(st.lists(st.text(alphabet="01", max_size=depth), max_size=4))
        return explicit_class(2, depth, nodes), lambda w: any(v.startswith(w) for v in nodes), None
    return draw(stagewise_classes(depth))


@st.composite
def stagewise_classes(draw, depth=MEMBER_DEPTH):
    """A stagewise class at ``depth`` with horizon ``HORIZON``, as drawn by
    :func:`base_classes`."""
    removals = draw(st.lists(st.tuples(st.integers(0, HORIZON + 1), short_words), max_size=4))

    def ref_at(w, s):
        return not any(st_ <= s and w.startswith(node) for st_, node in removals)

    return (stagewise_class(2, depth, removals, HORIZON),
            lambda w: ref_at(w, HORIZON), ref_at)


@st.composite
def scheduled_classes(draw):
    """A stagewise class, or a bit coder at depth 1–8 entering at any stage
    ``t`` of its horizon 1–8, or never; with its horizon."""
    if draw(st.booleans()):
        return draw(stagewise_classes())[0], HORIZON
    horizon = draw(st.integers(1, 8))
    t = draw(st.one_of(st.none(), st.integers(1, horizon)))
    sim = HaltingSim(((0, t),), stage_horizon=horizon)
    return build_bit_coder(0, sim, draw(st.integers(1, 8))), horizon


@given(scheduled_classes())
@settings(max_examples=100, deadline=None)
def test_schedule_is_monotone(case):
    """A member at stage ``s + 1`` is a member at stage ``s``, and at the
    horizon staged membership is membership."""
    cls, horizon = case
    for w in words_up_to(2, cls.depth):
        at = [cls.member(w, stage=s) for s in range(horizon + 1)]
        assert at == sorted(at, reverse=True), (w, at)
        assert at[-1] == cls.member(w), w


@st.composite
def restricted_classes(draw):
    """A base class, or its ``cylinder_class`` or ``avoidance_class``
    restriction, with the old ``base.member(w) and pred(w)`` reference."""
    cls, ref, ref_at = draw(base_classes())
    how = draw(st.sampled_from(["base", "cylinder", "avoid"]))
    if how == "cylinder":
        listed = draw(st.lists(st.text(alphabet="01", max_size=MEMBER_DEPTH), min_size=1,
                               max_size=3))

        def compatible(w):
            return any(v.startswith(w) or w.startswith(v) for v in listed)

        return cylinder_class(cls, listed, "cyl"), lambda w: ref(w) and compatible(w), None
    if how == "avoid":
        kind = draw(st.sampled_from(["left-shift", "identity", "column-shift"]))
        m = builtin_map(kind, 2, MEMBER_DEPTH, columns=2 if kind == "column-shift" else None)
        forb = draw(st.dictionaries(st.text(alphabet="01", min_size=1, max_size=3),
                                    st.integers(0, 3), min_size=1, max_size=3))
        av = OrbitAvoidance(m, forb)
        return avoidance_class(cls, av, "avoid"), lambda w: ref(w) and av.ok(w), None
    return cls, ref, ref_at


@st.composite
def product_classes(draw):
    """A 2- or 3-column product of base classes, against the conjunction of
    its columns' references."""
    parts = draw(st.lists(base_classes(depth=4), min_size=2, max_size=3))
    cols = len(parts)
    cls = product_system([p for p, _, _ in parts]).space

    def ref(w):
        return all(parts[n][1](w[n::cols]) for n in range(cols))

    return cls, ref, None


@given(st.one_of(restricted_classes(), product_classes()))
@settings(max_examples=150, deadline=None)
def test_member_matches_full_definition(case):
    cls, ref, ref_at = case
    want = [w for w in words_up_to(2, MEMBER_DEPTH) if ref(w)]
    assert [w for w in words_up_to(2, MEMBER_DEPTH) if cls.member(w)] == want
    assert sorted(live_nodes(cls, MEMBER_DEPTH), key=len) == want
    if ref_at is not None:
        for s in range(HORIZON + 1):
            for w in words_up_to(2, MEMBER_DEPTH):
                assert cls.member(w, stage=s) == ref_at(w, s), (w, s)


# -- prefix tests against listed words, against the sets and scans they replaced

@given(word_sets_and_words())
@settings(max_examples=300, deadline=None)
def test_listed_classes_match_closure_and_scan(case):
    """``explicit_class`` is the prefix closure of its nodes, and
    ``cylinder_class`` keeps the words comparable with a listed word."""
    words, w = case
    closure = {v[:i] for v in words for i in range(len(v) + 1)}
    explicit = explicit_class(3, 8, words)
    cyl = cylinder_class(full_class(3, 8), words, "cyl")
    for u in {w, w[:-1], w + "0", w + "2", ""}:
        assert explicit.member_step(u) == (u in closure), u
        assert explicit.member(u) == (u in closure), u
        assert cyl.member_step(u) == any(v.startswith(u) or u.startswith(v) for v in words), u


def test_explicit_class_memory_is_linear():
    """The Thue–Morse factors of length 512 are listed once, not with every
    prefix of every factor (169 MiB as a prefix-closure set)."""
    nodes = fixed_point_factors(THUE_MORSE, 512)
    tracemalloc.start()
    try:
        cls = explicit_class(2, 512, nodes)
        assert cls.member(nodes[0]) and not cls.member("000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_memo_of_a_memo_is_itself():
    base = forbidden_window_class(2, 8, ["11"])
    memo = memo_class(base)
    assert memo is not base and memo_class(memo) is memo


# -- validation against the listed loop ---------------------------------------

def listed_validate(sys_, cap):
    """``validate_system`` with forward invariance tested the listed way: the
    members up to the cap sorted by length, each image by ``member``."""
    rep = Report()
    for msg in sys_.map.check(cap):
        rep.add("map", "", msg)
    if not sys_.space.member(""):
        rep.add("nonempty", "", "root not a member")
    elif find_member(sys_.space, sys_.depth) is None:
        rep.add("nonempty", "", f"no member of length {sys_.depth}")
    for w in sorted(live_nodes(sys_.space, cap), key=len):
        fw = sys_.map.apply(w)
        if not sys_.space.member(fw):
            rep.add("forward-invariance", w, f"f({w!r}) = {fw!r} leaves the class")
    return rep


@st.composite
def validated_systems(draw):
    """A forbidden-window, explicit or stagewise class at depth ≤ 7 under the
    shift, the 2-column shift, a random normalized table, or such a table
    changed so that it breaks order."""
    depth = draw(st.integers(1, 7))
    cls, _, _ = draw(base_classes(depth=depth))
    kind = draw(st.sampled_from(["shift", "column-shift", "table", "broken"]))
    if kind == "shift":
        return DynSystem(cls, builtin_map("left-shift", 2, depth))
    if kind == "column-shift":
        return DynSystem(cls, builtin_map("column-shift", 2, depth, columns=2))
    m = random_normalized_map(2, depth, random.Random(draw(st.integers(0, 2 ** 31 - 1))))
    if kind == "broken":
        # flip the first letter of each nonempty image of an odd-length word,
        # so the letters that break order come before the parent's image ends
        table = {w: ("1" if fw[0] == "0" else "0") + fw[1:] if len(w) % 2 and fw else fw
                 for w, fw in ((w, m.apply(w)) for w in words_up_to(2, depth))}
        m = CodedMap.from_table(2, depth, table, name="broken")
    return DynSystem(cls, m)


@given(validated_systems(), st.one_of(st.none(), st.integers(0, 7)))
@settings(max_examples=400, deadline=None)
def test_validate_matches_listed_loop(sys_, max_len):
    cap = sys_.depth if max_len is None else min(max_len, sys_.depth)
    assert validate_system(sys_, max_len).entries == listed_validate(sys_, cap).entries
