import random

import pytest
from hypothesis import example, given, settings
from conftest import random_normalized_map, word_sets_and_words
from hypothesis import strategies as st

from cantordyn.errors import DepthExceeded, ModulusExhausted
from cantordyn.maps import CodedMap, builtin_map, normalize
from cantordyn.refinement import PiecewiseIterate
from cantordyn.words import (all_words, has_prefix_in, is_prefix_in, is_primitive, letters,
                             periodic_word, prefix_core, rotations, words_up_to)


def small_maps():
    return st.integers(min_value=0, max_value=2 ** 31 - 1).map(
        lambda seed: random_normalized_map(2, 6, random.Random(seed)))


binary_words6 = st.text(alphabet="01", max_size=6)


def test_words_helpers():
    assert list(all_words(2, 2)) == ["00", "01", "10", "11"]
    assert len(list(words_up_to(2, 3))) == 15
    assert is_prefix_in("", ["01"]) and is_prefix_in("01", ["01"])
    assert not is_prefix_in("10", ["1"])
    assert rotations("011") == ["011", "110", "101"]
    assert is_primitive("01") and not is_primitive("0101") and not is_primitive("")
    assert periodic_word("01", 5) == "01010"
    with pytest.raises(ValueError):
        letters(4)


@given(word_sets_and_words())
@example(([""], ""))
@example(([""], "01"))
@example((["0", "01", "01", "1", ""], "0"))
@settings(max_examples=300, deadline=None)
def test_core_predecessor_matches_length_scan(case):
    """The predecessor test on a sorted prefix-free core decides "a listed
    word is a prefix" as one lookup per listed length does, and its strict
    form (on the word minus its last letter) "a listed word is a proper
    prefix", which the empty word never has."""
    words, w = case
    core, store, lens = prefix_core(words), set(words), sorted({len(u) for u in words})
    assert core == sorted(core) and set(core) <= store
    assert not any(a != b and b.startswith(a) for a in core for b in core)
    assert has_prefix_in(w, core) == any(w[:t] in store for t in lens if t <= len(w))
    assert (bool(w) and has_prefix_in(w[:-1], core)) == any(
        w[:t] in store for t in lens if t < len(w))


@given(word_sets_and_words())
@example(([""], ""))
@example((["01", "0", "012"], "01"))
@example((["1", "10"], "0"))
@settings(max_examples=300, deadline=None)
def test_is_prefix_in_matches_extension_scan(case):
    """One bisection in the sorted list decides "a listed word extends
    ``w``" as a scan of every listed word does."""
    words, w = case
    listed = sorted(set(words))
    for u in {w, w[:-1], w + "0", ""}:
        assert is_prefix_in(u, listed) == any(v.startswith(u) for v in words)


class TestBuiltinMaps:
    def test_left_shift(self):
        sh = builtin_map("left-shift", 2, 8)
        assert sh.apply("101") == "01"
        assert sh.iterate("0110", 2) == "10"
        assert sh.iterate("0110", 0) == "0110"
        assert sh.iterate("0110", 5) == ""
        assert sh.check() == []

    def test_identity_is_normalized(self):
        idm = builtin_map("identity", 2, 8)
        assert idm.apply("101") == "10"
        assert idm.check() == []

    def test_column_shift(self):
        cs = builtin_map("column-shift", 2, 8, columns=2)
        # column 0 of "0110" is "01", column 1 is "10"; both shift by one
        out = cs.apply("0110")
        assert out == "10"
        assert out[0::2] == "0110"[0::2][1:]
        assert out[1::2] == "0110"[1::2][1:]
        assert cs.suffix_step == 2
        assert cs.check() == []

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            builtin_map("rotate", 2, 8)
        with pytest.raises(ValueError):
            builtin_map("left-shift", 2, 0)

    def test_depth_guard(self):
        sh = builtin_map("left-shift", 2, 4)
        with pytest.raises(DepthExceeded):
            sh.apply("00000")


class TestNormalize:
    def test_longest_prefix_rule(self):
        # raw table with f("01") = "0110"
        tbl = {"": "", "0": "01", "1": "01", "00": "0110", "01": "0110",
               "10": "0110", "11": "0110"}
        m = CodedMap.from_table(2, 2, tbl)
        mh = normalize(m)
        assert mh.apply("01") == "0"
        assert mh.apply("0") == ""

    def test_identity_table_drops_last(self):
        m = CodedMap(2, 6, lambda w: w, lambda l: l, name="id")
        mh = normalize(m)
        for w in all_words(2, 4):
            assert mh.apply(w) == w[:-1]
        assert mh.check() == []

    def test_shift_unchanged(self):
        sh = builtin_map("left-shift", 2, 6)
        assert normalize(sh) is sh

    @given(small_maps(), binary_words6)
    @settings(max_examples=60, deadline=None)
    def test_same_limit(self, m, w):
        # the normalized image is always a prefix of the raw image
        mh = normalize(m)
        assert m.apply(w).startswith(mh.apply(w))


def power(m, n):
    """``f^n`` packaged as a constant-exponent certificate's induced map."""
    return PiecewiseIterate(0, n, m, lambda w: n).induced()


class TestIterateMap:
    def test_shift_cubed_drops_three(self):
        sh = builtin_map("left-shift", 2, 8)
        m3 = power(sh, 3)
        for w in all_words(2, 8):
            assert m3.apply(w) == w[3:]
        assert m3.check() == []

    def test_identity_squared_drops_two(self):
        idm = builtin_map("identity", 2, 8)
        m2 = power(idm, 2)
        for w in all_words(2, 6):
            assert m2.apply(w) == w[:-2]

    def test_modulus_composition(self):
        sh = builtin_map("left-shift", 2, 8)
        m3 = power(sh, 3)
        assert m3.modulus(2) == 5
        with pytest.raises(ModulusExhausted):
            m3.modulus(7)


def least_witness(m, l):
    """The least ``n`` for which every input of length ``n`` has an image of
    at least ``l`` letters, by brute force, or ``depth + 1`` when no
    ``n ≤ depth`` does."""
    return next((n for n in range(m.depth + 1)
                 if all(len(m.apply(w)) >= l for w in all_words(m.k, n))), m.depth + 1)


@st.composite
def modulus_maps(draw):
    """A builtin map, a random normalized table (built by ``from_table``),
    or the normalization of an order-preserving table that does not shrink,
    over 2 or 3 letters at depth ≤ 6."""
    k, depth = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["left-shift", "identity", "column-shift", "table", "normalize"]))
    if kind in ("left-shift", "identity"):
        return builtin_map(kind, k, depth)
    if kind == "column-shift":
        return builtin_map(kind, k, depth, columns=draw(st.integers(1, 3)))
    m = random_normalized_map(k, depth, random.Random(draw(st.integers(0, 2 ** 31 - 1))))
    if kind == "table":
        return m
    # w ↦ w↾2 · f(w) keeps order, and a one-letter word maps to itself
    return normalize(CodedMap.from_table(k, depth, {w: w[:2] + m.apply(w)
                                                    for w in words_up_to(k, depth)}))


@given(modulus_maps())
@settings(max_examples=150, deadline=None)
def test_modulus_is_the_least_witness(m):
    assert m.check() == []
    for l in range(-1, m.depth + 3):
        want = least_witness(m, l) if l > 0 else 0
        if want > m.depth:
            with pytest.raises(ModulusExhausted, match=f"output length {l} "):
                m.modulus(l)
        else:
            assert m.modulus(l) == want


class TestIterateLaws:
    @given(small_maps(), binary_words6,
           st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_coherence(self, m, w, a, b):
        assert m.iterate(w, a + b) == m.iterate(m.iterate(w, a), b)

    @given(small_maps())
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, m):
        assert m.check() == []


@st.composite
def hit_maps(draw):
    """A random normalized table, a drop map of a random ``(l, b, j)``
    certificate over the left shift, or the left shift, all at depth 6."""
    kind = draw(st.sampled_from(["table", "drop", "shift"]))
    if kind == "table":
        return random_normalized_map(2, 6, random.Random(draw(st.integers(0, 2 ** 31 - 1))))
    if kind == "shift":
        return builtin_map("left-shift", 2, 6)
    l, b = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(1, b), min_size=2 ** l, max_size=2 ** l))
    return PiecewiseIterate(l, b, builtin_map("left-shift", 2, 6),
                            dict(zip(all_words(2, l), exps)).__getitem__).induced()


@st.composite
def hit_sets(draw):
    """Prefixes, of random lengths, of random words: λ among them at times."""
    words = draw(st.lists(st.text(alphabet="01", max_size=6), min_size=1, max_size=4))
    return tuple(w[:draw(st.integers(0, len(w)))] for w in words)


@given(hit_maps(), binary_words6, hit_sets(), st.integers(0, 8), st.integers(-1, 8))
@example(builtin_map("left-shift", 2, 6), "", ("",), 3, 5)          # λ, start > 0
@example(builtin_map("left-shift", 2, 6), "01", ("",), 3, 5)        # λ before start
@example(builtin_map("left-shift", 2, 6), "0101", ("01",), 1, 4)    # skips n = 0
@example(builtin_map("left-shift", 2, 6), "0101", ("01",), 3, 2)    # stop < start
@settings(max_examples=300, deadline=None)
def test_hit_time_is_least_hit_on_the_orbit(f, word, targets, start, stop):
    orbit = f.orbit(word, max(stop, 0))
    want = next((n for n in range(start, stop + 1) if orbit[n].startswith(targets)), None)
    assert f.hit_time(word, lambda u: u.startswith(targets), start, stop) == want


def test_random_maps_are_valid(rng):
    for _ in range(10):
        m = random_normalized_map(2, 6, rng)
        assert m.shrinking
        assert m.check() == []


# -- the table check, against three separate scans ---------------------------

def three_scan_check(m, cap):
    """``CodedMap.check`` as three separate scans: order on every one-letter
    extension, then shrinking, then each modulus at its witness length."""
    bad = []
    if m.apply("") != "":
        bad.append(f"f(λ) = {m.apply('')!r} != λ")
    for n in range(cap):
        for w in all_words(m.k, n):
            for a in letters(m.k):
                fw, fwa = m.apply(w), m.apply(w + a)
                if not fwa.startswith(fw):
                    bad.append(f"order violated: f({w!r})={fw!r} not a prefix of f({w + a!r})={fwa!r}")
    if m.shrinking:
        for n in range(1, cap + 1):
            for w in all_words(m.k, n):
                if len(m.apply(w)) >= n:
                    bad.append(f"shrink violated at {w!r}: |f| = {len(m.apply(w))}")
    for l in range(1, m.depth + 1):
        try:
            wit = m.modulus(l)
        except ModulusExhausted:
            continue
        if wit <= cap:
            for w in all_words(m.k, wit):
                if len(m.apply(w)) < l:
                    bad.append(f"modulus witness {wit} fails for l={l} at {w!r}")
                    break
    return bad


@st.composite
def faulty_maps(draw):
    """A random normalized table (k 2–3, depth ≤ 6), as built or with one
    fault: an image that breaks order, one that does not shrink, or a
    modulus witness that is too small."""
    k, depth = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    m = random_normalized_map(k, depth, random.Random(draw(st.integers(0, 2 ** 31 - 1))))
    table = {w: m.apply(w) for w in words_up_to(k, depth)}
    witness = {l: least_witness(m, l) for l in range(1, depth + 1)}
    fault = draw(st.sampled_from(["none", "order", "shrink", "modulus"]))
    w = draw(st.sampled_from(sorted(table)[1:]))
    if fault == "order":
        fw = table[w]
        table[w] = ("1" if fw[0] == "0" else "0") + fw[1:] if fw else "0"
    elif fault == "shrink":
        table[w] = (table[w] + "0" * len(w))[:len(w)]
    elif fault == "modulus":
        l = draw(st.integers(1, depth))
        witness[l] = draw(st.integers(0, witness[l] - 1))
    return CodedMap(k, depth, table.__getitem__, witness.__getitem__, shrinking=True,
                    name="faulty")


@given(faulty_maps(), st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=150, deadline=None)
def test_check_matches_three_scans(m, max_len):
    cap = m.depth if max_len is None else min(max_len, m.depth)
    assert m.check(max_len) == three_scan_check(m, cap)
