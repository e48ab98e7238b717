"""Search core: explicit-stack depth and incremental avoidance on drop maps
and constant-step maps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn.maps import builtin_map
from cantordyn.refinement import OpenRequest, PiecewiseIterate, RequestAvoidance
from cantordyn.search import (OrbitAvoidance, PredicateAvoidance, avoidance_class,
                              death_length, find_member, iter_members)
from cantordyn.systems import forbidden_window_class, full_class, restrict_class
from cantordyn.words import all_words, words_up_to

DEPTH = 9


class TestDeepSearch:
    def test_depth_1500(self):
        N = 1500
        assert find_member(full_class(2, N), N) == "0" * N
        golden = forbidden_window_class(2, N, ["11"])
        assert iter_members(golden, N, limit=2) == ["0" * N, "0" * (N - 1) + "1"]
        shift = builtin_map("left-shift", 2, N)
        dies = avoidance_class(golden, OrbitAvoidance(shift, ["0"]), "no0")
        assert death_length(dies, N) == 2
        assert death_length(golden, N) is None

    def test_order_and_limit(self):
        golden = forbidden_window_class(2, 6, ["11"])
        members = iter_members(golden, 6)
        assert members == sorted(members) and len(members) == 21
        assert iter_members(golden, 6, limit=3) == members[:3]
        assert find_member(golden, 6) == members[0]
        assert find_member(golden, 0) == ""


@st.composite
def drop_maps(draw):
    """Induced maps of random ``(l, b, j)`` certificates, ``l, b ≤ 3``, over
    the left shift or the two-column shift."""
    kind = draw(st.sampled_from(["left-shift", "column-shift"]))
    base = builtin_map(kind, 2, DEPTH, columns=2 if kind == "column-shift" else None)
    l = draw(st.integers(0, 3))
    b = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(1, b), min_size=2 ** l, max_size=2 ** l))
    table = dict(zip(all_words(2, l), exps))
    return PiecewiseIterate(l, b, base, table.__getitem__).induced()


# drop maps, plus the bare constant-step maps that take the suffix path
avoidance_maps = st.one_of(
    drop_maps(),
    st.sampled_from([builtin_map("left-shift", 2, DEPTH),
                     builtin_map("column-shift", 2, DEPTH, columns=2)]))

words = st.text(alphabet="01", min_size=1, max_size=4)
forbidden_sets = st.lists(words, min_size=1, max_size=4)
stage_entries = st.lists(st.tuples(st.integers(0, DEPTH + 1), words), min_size=1, max_size=4)


def _avoidances(m, forbidden, entries):
    return [OrbitAvoidance(m, forbidden), RequestAvoidance(m, OpenRequest("r", tuple(entries))),
            PredicateAvoidance(m, set(forbidden).__contains__)]


def _checked_search(step):
    """Every member of the full class up to ``DEPTH`` that passes ``step``,
    which the search calls on every child of every passing node."""
    return iter_members(restrict_class(full_class(2, DEPTH), step, "checked"), DEPTH)


class _Checked:
    """Runs the incremental check and asserts it against the full one."""

    def __init__(self, av):
        self.av = av

    def ok_extension(self, word):
        got = self.av.ok_extension(word)
        assert got == self.av.ok(word), (self.av.stage, word)
        return got


@given(drop_maps())
@settings(max_examples=120, deadline=None)
def test_drop_descriptor_matches_rule(m):
    l, d = m.drop
    for w in words_up_to(2, DEPTH):
        want = w[min(d(w[:l]), len(w)):] if len(w) >= l else ""
        assert m.apply(w) == want


@given(avoidance_maps, forbidden_sets, stage_entries)
@settings(max_examples=120, deadline=None)
def test_incremental_matches_full_along_dfs(m, forbidden, entries):
    for av in _avoidances(m, forbidden, entries):
        assert (av._chain if m.drop else av._suffix) is not None
        # every child of every passing node is checked, in search order
        _checked_search(_Checked(av).ok_extension)


@given(avoidance_maps, forbidden_sets, stage_entries, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_incremental_matches_full_out_of_order(m, forbidden, entries, rnd):
    for av in _avoidances(m, forbidden, entries):
        # words whose proper prefixes all pass, queried in random order
        queries = [w for w in words_up_to(2, DEPTH)
                   if all(av.ok(w[:t]) for t in range(len(w)))]
        rnd.shuffle(queries)
        for w in queries:
            assert av.ok_extension(w) == av.ok(w), (av.stage, w)


@given(avoidance_maps, stage_entries)
@settings(max_examples=80, deadline=None)
def test_request_ok_matches_definition(m, entries):
    av = RequestAvoidance(m, OpenRequest("r", tuple(entries)))
    for w in words_up_to(2, DEPTH):
        on = [u for st, u in entries if st <= len(w)]
        want = not any(m.iterate(w, n).startswith(u)
                       for n in range(len(w) + 1) for u in on)
        assert av.ok(w) == want, w


@given(avoidance_maps, words, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_predicate_ok_matches_definition(m, v, b):
    """A threshold predicate, as least-witness forcing builds them: τ is
    forbidden when the least ``i`` with ``τ[i:]`` starting with ``v`` is at
    most ``b``."""
    def least(tau):
        return next((i for i in range(len(tau) + 1) if tau[i:].startswith(v)), len(tau) + 1)

    def pred(tau):
        return least(tau) <= b

    av = PredicateAvoidance(m, pred)
    for w in words_up_to(2, DEPTH):
        want = not any(pred(m.iterate(w, n)[:t])
                       for n in range(len(w) + 1) for t in range(len(w) + 1))
        assert av.ok(w) == want, w
    _checked_search(_Checked(av).ok_extension)


class _Agree:
    """Runs two avoidances and asserts they agree on both checks."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def ok_extension(self, word):
        got = self.a.ok_extension(word)
        assert got == self.b.ok_extension(word), word
        assert self.a.ok(word) == self.b.ok(word), word
        return got


@given(avoidance_maps, forbidden_sets)
@settings(max_examples=120, deadline=None)
def test_static_request_equals_forbidden_set(m, forbidden):
    a = OrbitAvoidance(m, forbidden)
    b = RequestAvoidance(m, OpenRequest.static("r", forbidden))
    _checked_search(_Agree(a, b).ok_extension)


@given(avoidance_maps, forbidden_sets)
@settings(max_examples=120, deadline=None)
def test_predicate_of_a_set_equals_forbidden_set(m, forbidden):
    a = PredicateAvoidance(m, set(forbidden).__contains__)
    b = OrbitAvoidance(m, forbidden)
    _checked_search(_Agree(a, b).ok_extension)


def test_predicate_avoidance_shares_the_incremental_check():
    assert issubclass(PredicateAvoidance, OrbitAvoidance)
    assert PredicateAvoidance.ok_extension is OrbitAvoidance.ok_extension


def test_request_avoidance_shares_the_checks():
    assert RequestAvoidance.ok is OrbitAvoidance.ok
    assert RequestAvoidance.ok_extension is OrbitAvoidance.ok_extension


def test_constant_step_keeps_suffix_path():
    col = builtin_map("column-shift", 2, DEPTH, columns=2)
    assert col.drop is None and OrbitAvoidance(col, ["11"])._chain is None
    assert builtin_map("identity", 2, DEPTH).drop is None


@given(st.integers(0, 2), st.lists(avoidance_maps, min_size=2, max_size=2),
       forbidden_sets, stage_entries, st.lists(words, max_size=2))
@settings(max_examples=80, deadline=None)
def test_search_equals_brute_force_filter(count, maps, forbidden, entries, base_words):
    base = forbidden_window_class(2, DEPTH, base_words) if base_words else full_class(2, DEPTH)
    avs = [OrbitAvoidance(maps[0], forbidden),
           RequestAvoidance(maps[1], OpenRequest("r", tuple(entries)))][:count]
    cls = base
    for av in avs:
        cls = avoidance_class(cls, av, "cls")
    for L in range(DEPTH + 1):
        want = [w for w in all_words(2, L)
                if base.member(w) and all(av.ok(w) for av in avs)]
        assert iter_members(cls, L) == want, L
        assert find_member(cls, L) == (want[0] if want else None), L
