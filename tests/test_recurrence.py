import inspect
import random
from collections import Counter

import pytest
from conftest import FIBONACCI, THUE_MORSE, fixed_point_factors, random_normalized_map
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn import recurrence
from cantordyn.errors import HorizonExhausted
from cantordyn.maps import CodedMap, builtin_map
from cantordyn.recurrence import (CoverStage, _covered, _next_level, _StageState, _store_stage,
                                  audit_cover_stages, build_ternary_gadget,
                                  construct_recurrent_point, gadget_recurrent_equals_paths,
                                  gadget_recurrent_set, return_time)
from cantordyn.refinement import PiecewiseIterate
from cantordyn.search import iter_members
from cantordyn.systems import (ClosedClass, DynSystem, explicit_class,
                               full_class, forbidden_window_class, stagewise_class,
                               validate_system, verify_recurrence)
from cantordyn.words import all_words, words_up_to

DEPTH = 13  # 2 * scan_depth + 1 for scan depth 6


def zeros_tree(depth=DEPTH):
    return explicit_class(2, depth, ["0" * depth])


def cylinder_tree(kept6, depth=DEPTH, k=2, level=6):
    """Tree determined at ``level``: words live iff their prefix of that
    length is kept."""
    kept = frozenset(kept6)

    def member(w):
        if len(w) <= level:
            return any(v.startswith(w) for v in kept)
        return w[:level] in kept

    return ClosedClass(k, depth, member, name=f"cyl{level}")


class TestGadgetMap:
    def test_case_values_all_zero_tree(self):
        g = build_ternary_gadget(zeros_tree())
        f = g.map
        assert f.apply("20") == "0"
        assert f.apply("010") == "02"
        assert f.apply("000001") == "00000"

    def test_on_tree_drops_last(self):
        g = build_ternary_gadget(full_class(2, DEPTH))
        f = g.map
        for w in all_words(2, 5):
            assert f.apply(w) == w[:-1]

    def test_is_valid_system(self):
        g = build_ternary_gadget(zeros_tree())
        assert validate_system(g, max_len=7).ok

    def test_random_gadgets_are_systems(self):
        rng = random.Random(7)
        for _ in range(5):
            kept = rng.sample(sorted(all_words(2, 6)), rng.randint(1, 40))
            g = build_ternary_gadget(cylinder_tree(kept))
            assert validate_system(g, max_len=6).ok


class TestGadgetOracle:
    def test_all_zero_tree(self):
        assert gadget_recurrent_equals_paths(zeros_tree(), 6)

    def test_full_tree(self):
        assert gadget_recurrent_equals_paths(full_class(2, DEPTH), 6)

    def test_path_plus_finite_stems(self):
        t = explicit_class(2, DEPTH, ["0" * DEPTH, "01", "0010", "1"])
        assert gadget_recurrent_equals_paths(t, 6)

    def test_small_depths(self):
        # stems must be shorter than the scan depth: every scanned member of
        # the tree has to survive to the tree's own depth for the oracle
        for n in (3, 4, 5):
            t = explicit_class(2, 2 * n + 1, ["0" * (2 * n + 1), "01"[: n - 1]])
            assert gadget_recurrent_equals_paths(t, n)

    def test_recurrent_set_members_only(self):
        rs = gadget_recurrent_set(zeros_tree(), 6)
        assert rs == {"0" * 6}

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            gadget_recurrent_equals_paths(zeros_tree(8), 6)

    def test_random_cylinder_trees(self):
        rng = random.Random(11)
        for _ in range(8):
            kept = rng.sample(sorted(all_words(2, 6)), rng.randint(1, 50))
            assert gadget_recurrent_equals_paths(cylinder_tree(kept), 6)

    def test_scan_depth_eight(self):
        # the soundness claim reaches scan depth 8
        depth = 17
        tree = explicit_class(2, depth, ["0" * depth, "01" * 8 + "0", "110"])
        assert gadget_recurrent_equals_paths(tree, 8)


@given(st.integers(0, 4), st.integers(0, 2),
       st.sampled_from(["cylinder", "forbidden", "explicit", "stagewise", "full"]), st.data())
@settings(max_examples=150, deadline=None)
def test_gadget_set_matches_per_precision_reference(scan, extra, kind, data):
    """The class walk finds the set that testing every precision ``c ≤ scan``
    on the fully built orbit of each scan word finds.  Explicit trees take the
    benchmark's shape (kept scan words padded with zeros) plus stems that die
    before the working depth, and may be empty; stagewise trees may remove the
    root.  There the recurrent set need not be the path set, so only the
    reference decides.  At scan depth 0 the one scan word is always found."""
    depth = 2 * scan + 1 + extra
    level = sorted(all_words(2, scan))
    if kind == "full":
        tree = full_class(2, depth)
    elif kind == "stagewise":
        removals = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                                st.text(alphabet="01", max_size=scan + 1)),
                                      max_size=4))
        tree = stagewise_class(2, depth, removals, data.draw(st.integers(0, 2)))
    elif kind == "cylinder":
        kept = data.draw(st.lists(st.sampled_from(level), min_size=1, unique=True))
        tree = cylinder_tree(kept, depth, level=scan)
    elif kind == "explicit":
        kept = data.draw(st.lists(st.sampled_from(level), unique=True))
        stems = data.draw(st.lists(st.text(alphabet="01", max_size=depth - 1), max_size=3))
        tree = explicit_class(2, depth, [w + "0" * (depth - scan) for w in kept] + stems)
    else:
        words = data.draw(st.lists(st.text(alphabet="01", min_size=2,
                                           max_size=max(2, scan + 1)), max_size=3))
        tree = forbidden_window_class(2, depth, words)
    f = build_ternary_gadget(tree).map

    def certifies(w):
        pad = w + "0" * (depth - len(w))
        orb = f.orbit(pad, depth)
        return all(any(len(orb[n]) >= c and orb[n].startswith(pad[:c])
                       for n in range(c + 1, depth + 1))
                   for c in range(1, scan + 1))

    want = {w for w in all_words(3, scan) if certifies(w)}
    assert gadget_recurrent_set(tree, scan) == want
    assert scan or want == {""}


def _pi_memo_rule(tree):
    """The gadget rule as first written: ``pi_memo`` maps every prefix seen
    so far to the shortest off-tree prefix of it, filled by scanning back
    from the full length."""
    pi_memo = {"": None}

    def shortest_off_tree(w):
        n = len(w)
        while w[:n] not in pi_memo:
            n -= 1
        res = pi_memo[w[:n]]
        for m in range(n + 1, len(w) + 1):
            u = w[:m]
            if res is None and (u[-1] == "2" or not (
                    tree.member_step(u) if m > 1 else tree.member(u))):
                res = u
            pi_memo[u] = res
        return res

    def rule(w):
        if not w:
            return ""
        n = len(w) - 1
        p = shortest_off_tree(w)
        if p is None:
            return w[:n]
        if p == "2":
            return "0" * n
        if p[-1] == "2":
            rho, branch = p[:-2], p[-2]
        else:
            rho, branch = p[:-1], p[-1]
        succ = "1" if branch == "0" else "2"
        return (rho + succ + "0" * n)[:n]

    return rule


@st.composite
def small_trees(draw, depth=7):
    """Binary trees at ``depth``: cylinder, forbidden-window or explicit,
    including the empty node list and trees that die before ``depth``."""
    kind = draw(st.sampled_from(["cylinder", "forbidden", "explicit"]))
    if kind == "cylinder":
        level = draw(st.integers(1, depth))
        kept = draw(st.lists(st.text(alphabet="01", min_size=level, max_size=level),
                             max_size=6))
        return cylinder_tree(kept, depth, level=level)
    if kind == "forbidden":
        words = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=4), max_size=4))
        return forbidden_window_class(2, depth, words)
    nodes = draw(st.lists(st.text(alphabet="01", max_size=depth), max_size=5))
    return explicit_class(2, depth, nodes)


@given(small_trees(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gadget_map_matches_pi_memo_rule(tree, seed):
    """The off-tree-prefix memo gives the map the ``pi_memo`` rule gives, on
    every ternary word up to depth 7, each side asking in its own random
    order so that no memo state can matter.  The memo then holds every
    2-free word up to that depth with its shortest off-tree prefix, and no
    word containing a ``2``."""
    words = list(words_up_to(3, tree.depth))
    ref = _pi_memo_rule(tree)
    rnd = random.Random(seed)
    rnd.shuffle(words)
    want = {w: ref(w) for w in words}
    f, off = recurrence._gadget(tree)
    rnd.shuffle(words)
    assert {w: f.apply(w) for w in words} == want
    off_tree = {u: next((u[:m] for m in range(1, len(u) + 1) if not tree.member(u[:m])), "")
                for u in words_up_to(2, tree.depth)}
    assert inspect.getclosurevars(off).nonlocals["memo"] == off_tree


def test_gadget_scan_work_guard(monkeypatch):
    """A work guard in counts, not time: on a depth-17 tree shaped like the
    benchmark pool, the scan-depth-8 oracle walks one orbit per class of scan
    words sharing a shortest off-tree prefix, 1,442 map applications in all
    (7,678 with one orbit per scan word, about 17 per word one at a time), and
    asks the tree no word twice, the class walk included."""
    scan, depth = 8, 17
    kept = random.Random(8).sample(sorted(all_words(2, scan)), 2 ** scan // 4)
    prefixes = {w[:i] for w in kept for i in range(scan + 1)}
    asked = Counter()

    class CountedTree(ClosedClass):
        __slots__ = ()

        def member(self, word, stage=None):
            asked[word] += 1
            return super().member(word, stage)

        def member_step(self, word):
            asked[word] += 1
            return super().member_step(word)

    tree = CountedTree(2, depth, lambda w: w[:scan] in prefixes and "1" not in w[scan:])
    calls = 0
    apply = CodedMap.apply

    def counted_apply(m, word):
        nonlocal calls
        calls += 1
        return apply(m, word)

    monkeypatch.setattr(CodedMap, "apply", counted_apply)
    assert gadget_recurrent_set(tree, scan) == set(kept)
    assert calls <= 1_500
    assert max(asked.values()) == 1


class TestConstructRecurrentPoint:
    def test_identity_everyone_recurrent(self):
        idm = builtin_map("identity", 2, 12)
        sys_ = DynSystem(full_class(2, 12), idm)
        X, cert, stages = construct_recurrent_point(sys_, stages=3, c_max=4)
        assert verify_recurrence(X, cert)
        assert cert.entries == tuple((c, c + 1, 12) for c in range(1, 5))

    def test_full_shift_depth16(self):
        sys_ = DynSystem(full_class(2, 16), builtin_map("left-shift", 2, 16))
        X, cert, stages = construct_recurrent_point(sys_, stages=3, c_max=4)
        assert X.system.space.member(X.prefix)
        assert verify_recurrence(X, cert)
        assert audit_cover_stages(sys_, stages).ok

    def test_two_point_class(self):
        sys_ = DynSystem(explicit_class(2, 12, ["0" * 12, "1" * 12]),
                         builtin_map("left-shift", 2, 12))
        X, cert, _ = construct_recurrent_point(sys_, stages=3, c_max=3)
        assert X.prefix in ("0" * 12, "1" * 12)
        assert verify_recurrence(X, cert)

    def test_point_extends_final_stage(self, golden12):
        X, cert, stages = construct_recurrent_point(golden12, stages=3, c_max=3)
        assert any(X.prefix.startswith(tau) for tau in stages[-1].U)
        assert verify_recurrence(X, cert)

    def test_horizon_report(self):
        sys_ = DynSystem(full_class(2, 10), builtin_map("left-shift", 2, 10))
        with pytest.raises(HorizonExhausted) as ei:
            construct_recurrent_point(sys_, stages=6)
        assert "stage" in str(ei.value)

    def test_covering_scan_stops_at_member_cap(self, monkeypatch):
        # the full 3-shift has 3^s members of length s: the covering scan must
        # stop once it lists more than 2^18 of them (s = 12), long before s > 18,
        # and no level it builds may hold more than 2^18 + 1
        real = recurrence._next_level
        built = []

        def bounded(space, level, limit):
            out = real(space, level, limit)
            built.append(len(out))
            assert len(out) <= 2 ** 18 + 1, (len(level), len(out))
            return out

        monkeypatch.setattr(recurrence, "_next_level", bounded)
        sys_ = DynSystem(full_class(3, 16), builtin_map("left-shift", 3, 16))
        with pytest.raises(HorizonExhausted, match=r"more than 2\^18 members of length 12"):
            construct_recurrent_point(sys_, stages=3)
        assert built[-1] == 2 ** 18 + 1

    def test_deep_non_suffix_store_runs_out_of_budget(self, monkeypatch):
        # with no modulus witness within the depth the store walk goes to the
        # working depth; an explicit stack lets it reach its budget instead of
        # the recursion limit
        N = 1200
        pw = PiecewiseIterate(1, 2, builtin_map("left-shift", 2, N),
                              {"0": 1, "1": 2}.__getitem__).induced()
        f = CodedMap(2, N, pw.apply, lambda l: N + 1, shrinking=True)
        sys_ = DynSystem(forbidden_window_class(2, N, ["11"]), f)
        monkeypatch.setattr(recurrence, "_STORE_NODE_BUDGET", 5000)
        with pytest.raises(HorizonExhausted, match="store enumeration budget"):
            construct_recurrent_point(sys_, stages=2)

    def test_deep_non_suffix_store_stops_at_modulus(self, monkeypatch):
        # the store cap comes from the map's modulus, not the working depth,
        # so a small node budget is enough at depth 1200
        N = 1200
        f = PiecewiseIterate(1, 2, builtin_map("left-shift", 2, N),
                             {"0": 1, "1": 2}.__getitem__).induced()
        sys_ = DynSystem(forbidden_window_class(2, N, ["11"]), f)
        monkeypatch.setattr(recurrence, "_STORE_NODE_BUDGET", 5000)
        X, cert, stages = construct_recurrent_point(sys_, stages=2)
        assert verify_recurrence(X, cert)
        assert audit_cover_stages(sys_, stages).ok

    def test_suffix_return_times_make_no_apply_calls(self, monkeypatch):
        # a work guard that counts instead of timing: on a suffix map every
        # return time is read as an offset into the word
        calls = {"ret": 0, "open": 0, "apply_in_ret": 0}
        real_ret, real_apply = _StageState.returns_within, CodedMap.apply

        def ret(self, w, s):
            calls["ret"] += 1
            calls["open"] += 1
            try:
                return real_ret(self, w, s)
            finally:
                calls["open"] -= 1

        def apply(self, w):
            calls["apply_in_ret"] += calls["open"] > 0
            return real_apply(self, w)

        monkeypatch.setattr(_StageState, "returns_within", ret)
        monkeypatch.setattr(CodedMap, "apply", apply)
        sys_ = DynSystem(forbidden_window_class(2, 24, ["11"]), builtin_map("left-shift", 2, 24))
        _, _, stages = construct_recurrent_point(sys_, stages=4)
        assert [(len(st.U), len(st.V)) for st in stages] == [
            (1, 1), (2, 2), (6, 5), (62, 34), (1570, 377)]
        assert calls["ret"] > 0 and calls["apply_in_ret"] == 0

    def test_cover_stage_work_guard(self, monkeypatch):
        # a work guard that counts instead of timing, on the golden mean at
        # depth 24: the stage-4 store walk visits only words that can still
        # reach the stage-3 store (30,327 when it visited every word with no
        # stored prefix), so a node budget of 13,001, root included, holds;
        # it reads suffix-map return times along its path with no
        # _StageState.returns_within call, and the covering scan lists each
        # member length once, with no iter_members call (20 when it listed
        # each candidate s)
        stores, calls, in_store = [], Counter(), [False]
        real_ret, real_store = _StageState.returns_within, recurrence._store_stage

        def ret(self, w, s):
            calls["store ret" if in_store[0] else "ret"] += 1
            return real_ret(self, w, s)

        def store(*args):
            stores.append(args[0].i)
            in_store[0] = True
            try:
                return real_store(*args)
            finally:
                in_store[0] = False

        def members(*args, **kwargs):
            calls["iter_members"] += 1
            return iter_members(*args, **kwargs)

        monkeypatch.setattr(recurrence, "_STORE_NODE_BUDGET", 13_001)
        monkeypatch.setattr(recurrence, "_store_stage", store)
        monkeypatch.setattr(recurrence, "iter_members", members)
        monkeypatch.setattr(_StageState, "returns_within", ret)
        sys_ = DynSystem(forbidden_window_class(2, 24, ["11"]), builtin_map("left-shift", 2, 24))
        _, _, stages = construct_recurrent_point(sys_, stages=4)
        assert [(len(st.U), len(st.V)) for st in stages] == [
            (1, 1), (2, 2), (6, 5), (62, 34), (1570, 377)]
        assert stores == [1, 2, 3, 4]
        assert calls["store ret"] == 0 and calls["iter_members"] == 0

    @pytest.mark.parametrize("space, stages, want", [
        (forbidden_window_class(2, 16, ["101"]), 4, (8_323, 4_635)),
        (forbidden_window_class(2, 24, ["11"]), 4, (632, 311)),
        (explicit_class(2, 32, fixed_point_factors(THUE_MORSE, 32)), 5, None),
        (explicit_class(2, 32, fixed_point_factors(FIBONACCI, 32)), 5, None),
    ], ids=["no-101", "golden-mean", "thue-morse", "fibonacci"])
    def test_covering_frontier_work_guard(self, monkeypatch, space, stages, want):
        # a work guard that counts instead of timing: at each candidate bound
        # the covering scan starts past the members that extend words covered
        # at the bound before, so no stage tests more words than a scan from
        # the first member at every bound does
        calls = Counter()

        def covered(state, v, s):
            calls[state.i] += 1
            return _covered(state, v, s)

        monkeypatch.setattr(recurrence, "_covered", covered)
        sys_ = DynSystem(space, builtin_map("left-shift", 2, space.depth))
        _, _, records = construct_recurrent_point(sys_, stages=stages)
        full = _full_covering_scan_calls(sys_, records)
        assert all(calls[i] <= full[i] for i in full)
        if want is not None:
            assert (sum(full.values()), sum(calls.values())) == want


def _full_covering_scan_calls(sys_, records):
    """``_covered`` calls per stage of a covering scan that tests the members
    from the first at every candidate bound, up to the first uncovered one."""
    calls = Counter()
    for prev, rec in zip(records, records[1:]):
        state = _StageState(sys_.map, sys_.depth, rec.i, frozenset(prev.U))
        for s in range(max(1, rec.i - 1), rec.s + 1):
            for v in iter_members(sys_.space, s):
                calls[rec.i] += 1
                if not _covered(state, v, s):
                    break
    return calls


STORE_DEPTH = 7


@st.composite
def store_maps(draw):
    """Suffix maps, piecewise iterates of the shift (variable drop) and
    random normalized tables, at ``STORE_DEPTH``."""
    kind = draw(st.sampled_from(["shift", "column", "piecewise", "random"]))
    if kind == "shift":
        return builtin_map("left-shift", 2, STORE_DEPTH)
    if kind == "column":
        return builtin_map("column-shift", 2, STORE_DEPTH, columns=2)
    if kind == "piecewise":
        exps = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        return PiecewiseIterate(1, 3, builtin_map("left-shift", 2, STORE_DEPTH),
                                dict(zip("01", exps)).__getitem__).induced()
    return random_normalized_map(2, STORE_DEPTH, draw(st.randoms(use_true_random=False)))


@given(store_maps(), st.integers(1, 3), st.integers(1, STORE_DEPTH),
       st.sets(st.text(alphabet="01", max_size=3), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_store_is_minimal_qualifying_words(f, i, s, prev):
    """The stored words are the qualifying words up to the store's cap none
    of whose proper prefixes qualifies."""
    N, p = STORE_DEPTH, i - 1
    if f.suffix_step:
        cap = min(max(s * f.suffix_step + p, max(map(len, prev)) + 1, 1), N)
    else:
        cap = N

    def qualifies(w):
        return _qualifies_ref(f, N, p, s, prev, w)

    want = {w for w in words_up_to(2, cap)
            if qualifies(w) and not any(qualifies(w[:t]) for t in range(len(w)))}
    assert _store_stage(_StageState(f, N, i, frozenset(prev)), s, 2) == want


def _qualifies_ref(f, N, p, s, prev, w):
    """Reference stage qualification: a proper prefix in ``prev`` and a
    return to ``w↾p`` at some time ``n`` in ``[p, s]``, by iterating ``f``."""
    if not any(w[:t] in prev for t in range(len(w))):
        return False
    return p == 0 or (len(w) > p and any(f.iterate(w, n).startswith(w[:p])
                                         for n in range(p, min(s, N) + 1)))


PRUNE_DEPTH = 9


@st.composite
def prefix_free_stores(draw):
    """Nonempty prefix-free sets of binary words of at most 5 letters."""
    words = draw(st.sets(st.text(alphabet="01", max_size=5), min_size=1, max_size=6))
    return {w for w in words if not any(u != w and w.startswith(u) for u in words)}


@given(st.sampled_from(["shift", "column2", "column3", "piecewise"]), st.integers(1, 4),
       st.integers(1, PRUNE_DEPTH), prefix_free_stores(), st.data())
@settings(max_examples=120, deadline=None)
def test_pruned_store_is_minimal_qualifying_words(kind, i, s, prev, data):
    """With previous stores deep enough for the walk to prune subtrees that
    cannot reach them, the stored words are still the minimal qualifying
    words up to the working depth.  ``column-shift(3)`` adds a return time
    only at every third length, so most one-letter extensions add none."""
    N, p = PRUNE_DEPTH, i - 1
    if kind == "shift":
        f = builtin_map("left-shift", 2, N)
    elif kind.startswith("column"):
        f = builtin_map("column-shift", 2, N, columns=int(kind[-1]))
    else:
        exps = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        f = PiecewiseIterate(1, 3, builtin_map("left-shift", 2, N),
                             dict(zip("01", exps)).__getitem__).induced()
    memo = {}

    def qualifies(w):
        if w not in memo:
            memo[w] = _qualifies_ref(f, N, p, s, prev, w)
        return memo[w]

    want = {w for w in words_up_to(2, N)
            if qualifies(w) and not any(qualifies(w[:t]) for t in range(len(w)))}
    assert _store_stage(_StageState(f, N, i, frozenset(prev)), s, 2) == want


@st.composite
def member_classes(draw, depth=7):
    """Forbidden-window, explicit and stagewise classes over alphabet 2 or 3,
    including classes that die before ``depth`` or at the root."""
    k = draw(st.sampled_from([2, 3]))
    alpha = "012"[:k]
    kind = draw(st.sampled_from(["forbidden", "explicit", "stagewise"]))
    if kind == "forbidden":
        words = draw(st.lists(st.text(alphabet=alpha, min_size=1, max_size=3), max_size=4))
        return forbidden_window_class(k, depth, words)
    if kind == "explicit":
        nodes = draw(st.lists(st.text(alphabet=alpha, max_size=depth), max_size=6))
        return explicit_class(k, depth, nodes)
    removals = draw(st.lists(st.tuples(st.integers(0, 3), st.text(alphabet=alpha, max_size=4)),
                             max_size=5))
    return stagewise_class(k, depth, removals, draw(st.integers(0, 3)))


@given(member_classes(), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_member_levels_match_iter_members(space, limit):
    """Extending the members of one length letter by letter lists the next
    length as the search does, in the same order, and stops at the same
    ``limit``."""
    level = [""] if space.member_step("") else []
    for s in range(1, space.depth + 1):
        assert _next_level(space, level, limit) == iter_members(space, s, limit=limit)
        level = _next_level(space, level, space.k ** s + 1)
        assert level == iter_members(space, s)


@given(store_maps(), st.integers(1, 3), st.integers(1, STORE_DEPTH),
       st.sets(st.text(alphabet="01", max_size=3), min_size=1, max_size=4),
       st.text(alphabet="01", max_size=STORE_DEPTH))
@settings(max_examples=150, deadline=None)
def test_covered_matches_prefix_loop(f, i, s, prev, v):
    """Testing each iterate once decides the V-condition as testing every
    prefix of every iterate does."""
    N, p = STORE_DEPTH, i - 1
    iterates = [f.iterate(v, n) for n in range(s + 1)]
    want = any(_qualifies_ref(f, N, p, s, prev, cur[:t])
               for cur in iterates for t in range(1, len(cur) + 1))
    assert _covered(_StageState(f, N, i, frozenset(prev)), v, s) == want


@given(st.sampled_from([1, 2]), st.integers(1, 6), st.text(alphabet="01", max_size=16))
@settings(max_examples=200, deadline=None)
def test_suffix_return_time_matches_orbit_walk(step, i, w):
    """On a suffix map the offset return time is the least ``n ≥ i-1`` the
    ``apply`` walk finds, and it makes no ``apply`` call."""
    N, p = 16, i - 1
    f = (builtin_map("left-shift", 2, N) if step == 1
         else builtin_map("column-shift", 2, N, columns=step))

    def walk_ret():
        if p == 0:
            return 0
        if len(w) <= p:
            return None
        cur = w
        for n in range(1, N + 1):
            cur = f.apply(cur) if cur else ""
            if n >= p and len(cur) >= p and cur.startswith(w[:p]):
                return n
        return None

    got = return_time(f, w, p, N)
    assert not f._memo
    assert got == walk_ret()


@given(store_maps(), st.integers(0, 4), st.integers(0, STORE_DEPTH),
       st.text(alphabet="01", max_size=STORE_DEPTH))
@settings(max_examples=200, deadline=None)
def test_return_time_is_least_iterate_within_bound(f, p, bound, w):
    """On every map kind the return time is the least ``n`` in ``[p, bound]``
    whose iterate extends ``w↾p``, read off ``CodedMap.iterate``."""
    want = next((n for n in range(p, bound + 1)
                 if len(w) >= p and f.iterate(w, n).startswith(w[:p])), None)
    assert return_time(f, w, p, bound) == want


class TestCoverAudit:
    def test_audit_catches_tampering(self, full_shift12):
        _, _, stages = construct_recurrent_point(full_shift12, stages=2, c_max=2)
        tampered = list(stages)
        bad = tampered[-1]
        # a word whose first letter never recurs within the stage bound
        tampered[-1] = type(bad)(bad.i, bad.s, bad.U + ("0" + "1" * 11,), bad.V)
        assert audit_cover_stages(full_shift12, stages).ok
        assert not audit_cover_stages(full_shift12, tampered).ok

    def test_audit_reach_stops_at_the_stage_bound(self, full_shift12):
        # on the shift "0001" first extends "1" at step 3 = s + 1, so it
        # does not reach U within s; "01" does, at step 1
        stage = CoverStage(1, 2, ("1",), ("1", "01", "0001"))
        rep = audit_cover_stages(full_shift12, [CoverStage(0, 0, ("",), ("",)), stage])
        assert [(c, w) for c, w, _ in rep.entries if c == "cover-reach"] == [
            ("cover-reach", "0001")]

    def test_prefix_lookups_match_linear_scans(self, full_shift12):
        # on tampered stages the audit reports exactly what scanning every
        # stored word for a prefix and walking every orbit reports, in the
        # same order, on four map kinds: the shift and column-shift(2), whose
        # return times are offsets, a piecewise drop map over the shift and
        # a random normalized map, which walk; some tampers put the empty
        # word into U_i, which has no strict U_{i-1} ancestor
        column = DynSystem(forbidden_window_class(2, 14, ["11"]),
                           builtin_map("column-shift", 2, 14, columns=2))
        drop = DynSystem(forbidden_window_class(2, 12, ["11"]),
                         PiecewiseIterate(1, 2, builtin_map("left-shift", 2, 12),
                                          {"0": 1, "1": 2}.__getitem__).induced())
        random_map = DynSystem(full_class(2, 12), random_normalized_map(2, 12, random.Random(3)))
        assert (column.map.suffix_step, drop.map.suffix_step) == (2, None) and drop.map.drop
        for sys_, n_stages in ((full_shift12, 3), (column, 3), (drop, 3), (random_map, 2)):
            _, _, stages = construct_recurrent_point(sys_, stages=n_stages, c_max=n_stages - 1)
            rng = random.Random(5)
            for trial in range(20):
                tampered = list(stages)
                idx = rng.randrange(1, len(stages))
                st = tampered[idx]
                # a random word may return only after s_i, or not at all
                late = "".join(rng.choice("01") for _ in range(rng.randint(1, sys_.depth)))
                U = tuple(w for w in st.U if rng.random() < 0.7) + ("1" * rng.randint(1, 4), late)
                if trial % 4 == 0:
                    U = ("",) + U
                V = tuple(w for w in st.V if rng.random() < 0.7)
                tampered[idx] = type(st)(st.i, st.s, U, V)
                got = audit_cover_stages(sys_, tampered).entries
                assert got == _linear_scan_violations(sys_, tampered)
                if trial % 4 == 0:
                    assert ("cover-nesting", "",
                            f"stage {st.i}: no strict U_{st.i - 1} ancestor") in got

    def test_suffix_audit_makes_no_apply_calls(self):
        # a work guard in counts, not time: with every V emptied, the audit
        # of the no-101 stages at depth 16 walks no orbit, since the shift's
        # return times are offsets (walking each return took 38,906 apply
        # calls on 10,192 words); the emptied V only leaves every member open
        calls = Counter()

        class CountedMap(CodedMap):
            __slots__ = ()

            def apply(self, word):
                calls[word] += 1
                return super().apply(word)

        f = CountedMap(2, 16, lambda w: w[1:], lambda l: l + 1,
                       shrinking=True, suffix_step=1, name="left-shift")
        sys_ = DynSystem(forbidden_window_class(2, 16, ["101"]), f)
        _, _, stages = construct_recurrent_point(sys_, stages=4)
        assert [len(st.U) for st in stages] == [1, 2, 6, 210, 3250]
        calls.clear()
        rep = audit_cover_stages(sys_, [st._replace(V=()) for st in stages])
        assert not calls
        assert {kind for kind, _, _ in rep.entries} == {"cover-open"}

    def test_nesting(self, full_shift12):
        _, _, stages = construct_recurrent_point(full_shift12, stages=3, c_max=2)
        for prev, cur in zip(stages, stages[1:]):
            for tau in cur.U:
                assert any(tau != q and tau.startswith(q) for q in prev.U)


def _linear_scan_violations(sys_, stages):
    """Reference audit that scans every stored word for a prefix."""
    f = sys_.map
    out = []
    for idx, st in enumerate(stages):
        i, s, p = st.i, st.s, max(st.i - 1, 0)
        for tau in st.U:
            if not any(n >= p and len(o) >= p and o.startswith(tau[:p])
                       for n, o in enumerate(f.orbit(tau, s))):
                out.append(("cover-return", tau, f"stage {i}: no return within {s}"))
        for v in st.V:
            if not any(o.startswith(tuple(st.U)) for o in f.orbit(v, s)):
                out.append(("cover-reach", v, f"stage {i}: does not reach U within {s}"))
        for w in iter_members(sys_.space, s):
            if not w.startswith(tuple(st.V)):
                out.append(("cover-open", w, f"stage {i}: member not covered by V"))
        if idx > 0:
            for tau in st.U:
                if not any(tau != q and tau.startswith(q) for q in stages[idx - 1].U):
                    out.append(("cover-nesting", tau, f"stage {i}: no strict U_{i - 1} ancestor"))
    return out
