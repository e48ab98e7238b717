from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantordyn.errors import NotMinimal, UndecidedAtDepth
from cantordyn.maps import builtin_map
from cantordyn import minimal
from cantordyn.minimal import (HaltingSim, _column_level, ap_bound_from_minimal,
                               build_bit_coder, decode_bit, decode_members,
                               minimal_subsystem, product_system)
from cantordyn.search import (OrbitAvoidance, avoidance_class, find_member,
                              iter_members)
from cantordyn.systems import (ClosedClass, DynSystem, explicit_class,
                               forbidden_window_class, full_class, orbit_class,
                               validate_system)
from cantordyn.words import all_words, letters, periodic_word, rotations, words_up_to


def s2_members(depth):
    """The four points of the orbit of ``(0011)^ω`` at ``depth``, sorted."""
    return sorted(periodic_word(r, depth) for r in rotations("0011"))


def reachable_cylinders(sys_, max_len):
    """Cylinders entered by some full-depth member's orbit."""
    seen = set()
    for w in iter_members(sys_.space, sys_.depth):
        for u in sys_.map.orbit(w, sys_.depth):
            for t in range(1, max_len + 1):
                if len(u) >= t:
                    seen.add(u[:t])
    return sorted(seen)


class TestMinimalSubsystem:
    def test_full_shift_prunes_to_ones(self, full_shift12):
        msys, chain = minimal_subsystem(full_shift12)
        assert iter_members(msys.space, 12) == ["1" * 12]
        assert chain.pruned_words()[0] == "0"

    def test_golden_prunes_to_zeros(self, golden12):
        msys, _ = minimal_subsystem(golden12)
        assert iter_members(msys.space, 12) == ["0" * 12]

    def test_s2_already_minimal(self):
        sys_ = DynSystem(orbit_class("0011", 2, 16), builtin_map("left-shift", 2, 16))
        msys, _ = minimal_subsystem(sys_)
        assert iter_members(msys.space, 16) == s2_members(16)

    def test_identity_two_points(self):
        sys_ = DynSystem(explicit_class(2, 12, ["0" * 12, "1" * 12]),
                         builtin_map("identity", 2, 12))
        msys, _ = minimal_subsystem(sys_)
        assert iter_members(msys.space, 12) == ["1" * 12]

    def test_chain_monotone_and_guarded(self, full_shift12):
        _, chain = minimal_subsystem(full_shift12)
        prev = full_shift12.space
        for st in chain.stages:
            cur = st.class_after
            for w in all_words(2, 5):
                assert not cur.member(w) or prev.member(w)
            assert iter_members(cur, 12, limit=1)
            prev = cur

    def test_outputs_stay_valid_systems(self, full_shift12, golden12):
        for sys_ in (full_shift12, golden12):
            msys, _ = minimal_subsystem(sys_)
            assert validate_system(msys, max_len=8).ok


class TestApBound:
    def test_s2_bound(self):
        sys_ = DynSystem(orbit_class("0011", 2, 16), builtin_map("left-shift", 2, 16))
        assert ap_bound_from_minimal(sys_, "00") == 5

    def test_fixed_point_bound(self):
        sys_ = DynSystem(explicit_class(2, 12, ["1" * 12]),
                         builtin_map("left-shift", 2, 12))
        assert ap_bound_from_minimal(sys_, "1") == 1

    def test_full_shift_not_minimal(self, full_shift12):
        with pytest.raises(NotMinimal) as ei:
            ap_bound_from_minimal(full_shift12, "1")
        assert ei.value.witness == "0" * 12

    def test_minimality_probe(self, full_shift12, golden12):
        for sys_ in (full_shift12, golden12):
            msys, _ = minimal_subsystem(sys_)
            for tau in reachable_cylinders(msys, 3):
                assert ap_bound_from_minimal(msys, tau) >= 1


class TestBitCoders:
    def test_never_halting_is_switch_tree(self):
        sim = HaltingSim(((0, None),), stage_horizon=8)
        cls = build_bit_coder(0, sim, 8)
        members = iter_members(cls, 8)
        expect = sorted({"0" * a + "1" * (8 - a) for a in range(9)} |
                        {"1" * a + "0" * (8 - a) for a in range(9)})
        assert members == expect

    def test_halting_gives_orbit(self):
        sim = HaltingSim(((0, 2),), stage_horizon=8)
        cls = build_bit_coder(0, sim, 8)
        assert iter_members(cls, 8) == s2_members(8)

    def test_t1_gives_s1(self):
        sim = HaltingSim(((0, 1),), stage_horizon=8)
        cls = build_bit_coder(0, sim, 8)
        assert iter_members(cls, 8) == [periodic_word("01", 8), periodic_word("10", 8)]

    def test_schedule_refines(self):
        sim = HaltingSim(((0, 3),), stage_horizon=8)
        cls = build_bit_coder(0, sim, 8)
        # before stage 3 the class is still the switch tree
        assert cls.member("11100000", stage=2)
        assert not cls.member("11100000", stage=3)
        assert cls.member(periodic_word("000111", 8), stage=8)

    @pytest.mark.parametrize("horizon", range(1, 6))
    def test_child_test_matches_member_at(self, horizon):
        for t in (None, *range(1, horizon + 1)):
            cls = build_bit_coder(0, HaltingSim(((0, t),), horizon), 8)
            for w in words_up_to(2, 8):
                assert cls.member(w) == cls.member(w, stage=horizon), (t, w)

    def test_stage_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"entry stage for bit 0 must be in 1\.\.8 or None"):
            HaltingSim(((0, 9),), stage_horizon=8)


class TestProductsAndDecode:
    def test_single_column_is_shift(self):
        sim = HaltingSim(((0, 2),), stage_horizon=6)
        prod = product_system([build_bit_coder(0, sim, 8)])
        assert prod.map.suffix_step == 1
        assert iter_members(prod.space, 8) == s2_members(8)

    def test_two_zero_columns_single_point(self):
        cls = explicit_class(2, 4, ["0000"])
        prod = product_system([cls, cls])
        assert iter_members(prod.space, 8) == ["0" * 8]

    def test_decode_two_columns(self):
        sim = HaltingSim(((0, None), (1, 2)), stage_horizon=6)
        parts = [build_bit_coder(n, sim, 8) for n in range(2)]
        msys, _ = minimal_subsystem(product_system(parts), enum_len=4)
        members = decode_members(msys)
        assert decode_bit(msys, 0, members) is False
        assert decode_bit(msys, 1, members) is True

    def test_decode_depth_guard(self):
        sim = HaltingSim(((0, None), (1, 1)), stage_horizon=4)
        parts = [build_bit_coder(n, sim, 1) for n in range(2)]
        prod = product_system(parts)
        with pytest.raises(UndecidedAtDepth):
            decode_bit(DynSystem(prod.space, prod.map), 1, decode_members(prod))

    def test_decode_lists_exactly_the_limit(self):
        # the full 2-class at depth 12 under the 2-column shift has exactly
        # 4096 members, the scan limit: every member is listed, so it decides
        prod = product_system([full_class(2, 6), full_class(2, 6)])
        members = decode_members(prod)
        assert len(members) == 4096
        assert decode_bit(prod, 0, members) is True and decode_bit(prod, 1, members) is True

    def test_decode_wider_than_the_limit(self):
        prod = product_system([full_class(2, 7), full_class(2, 7)])
        with pytest.raises(UndecidedAtDepth, match="too wide"):
            decode_members(prod)

    def test_column_mismatch(self):
        a = explicit_class(2, 4, ["0000"])
        b = explicit_class(2, 6, ["000000"])
        with pytest.raises(ValueError):
            product_system([a, b])

    def test_validate_product(self):
        sim = HaltingSim(((0, 1), (1, None)), stage_horizon=6)
        prod = product_system([build_bit_coder(n, sim, 6) for n in range(2)])
        assert validate_system(prod, max_len=8).ok


@st.composite
def small_sims(draw):
    """Sims of 1–4 bits, each never halting or entering at a stage in
    range, with a column depth that keeps the product at most 16 deep."""
    cols = draw(st.integers(1, 4))
    coldepth = draw(st.integers(1, min(6, 16 // cols)))
    horizon = draw(st.integers(1, 6))
    stages = draw(st.lists(st.one_of(st.none(), st.integers(1, horizon)),
                           min_size=cols, max_size=cols))
    return HaltingSim(tuple(enumerate(stages)), horizon), coldepth


@given(small_sims(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_product_memo_matches_column_conjunction(sim_depth, rnd):
    sim, coldepth = sim_depth
    parts = [build_bit_coder(n, sim, coldepth) for n, _ in sim.bits]
    cols = len(parts)
    space = product_system(parts).space

    def want(w):
        return all(parts[n].member(w[n::cols]) for n in range(cols))

    # member on every short word; member and member_step on every child of
    # a member, which is where a search calls the step
    queries = [("member", w) for w in words_up_to(2, min(space.depth, 8))]
    frontier = [""]
    while frontier:
        w = frontier.pop()
        for a in letters(2):
            u = w + a
            if len(u) <= space.depth:
                queries += [("member", u), ("step", u)]
                if want(u):
                    frontier.append(u)
    rnd.shuffle(queries)
    for kind, w in queries:
        got = space.member(w) if kind == "member" else space.member_step(w)
        assert got == want(w), (kind, w)


def _counted(part, calls):
    """``part`` with every final-membership call tallied per word."""
    def member(w):
        calls[w] += 1
        return part.member(w)

    return ClosedClass(part.k, part.depth, member, name=part.name)


def test_product_asks_each_column_word_once():
    sim = HaltingSim(((0, None), (1, 2), (2, None), (3, 1)), stage_horizon=4)
    calls = [Counter() for _ in sim.bits]
    parts = [_counted(build_bit_coder(n, sim, 5), calls[n]) for n, _ in sim.bits]
    msys, chain = minimal_subsystem(product_system(parts), enum_len=6)
    assert chain.pruned_words() and iter_members(msys.space, msys.depth)
    for n, per_word in enumerate(calls):
        assert per_word, n
        assert max(per_word.values()) == 1, (n, per_word.most_common(3))


def search_decisions(prod, adopted, frontier):
    """The greedy decisions on ``frontier`` by the search: each word is
    removed when its avoidance class, with the earlier removals applied
    first, has a full-depth member."""
    taken = []
    for word in frontier:
        cls = avoidance_class(prod.space, OrbitAvoidance(prod.map, adopted + taken + [word]), "c")
        if find_member(cls, prod.depth) is not None:
            taken.append(word)
    return [word in taken for word in frontier]


@st.composite
def column_levels(draw):
    """``(product, adopted, frontier)``: products of 1–5 bit coders (never
    halting or entering at stage 1..3 of 3) at column depth 1–6, or of 1–3
    bits at horizon 4 and column depth 8, one of them never halting (128
    column members); 0–3 adopted words of 1..2·cols letters and a level of
    1–8 distinct words of one length.  Some words are row-aligned windows of
    members, so that they can matter in the last rows too."""
    if draw(st.booleans()):
        stages = draw(st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=1, max_size=5))
        horizon, coldepth = 3, draw(st.integers(1, 6))
    else:
        stages = [None] + draw(st.lists(st.one_of(st.none(), st.integers(1, 4)), max_size=2))
        horizon, coldepth = 4, 8
    sim = HaltingSim(tuple(enumerate(stages)), stage_horizon=horizon)
    prod = product_system([build_bit_coder(n, sim, coldepth) for n, _ in sim.bits])
    cols = len(stages)
    members = iter_members(prod.space, prod.depth, limit=32)

    def words(size):
        text = st.text("01", min_size=size, max_size=size)
        if size > prod.depth:
            return text
        return st.one_of(text, st.builds(lambda w, r: w[r * cols:r * cols + size],
                                         st.sampled_from(members),
                                         st.integers(0, (prod.depth - size) // cols)))

    size = draw(st.integers(1, 2 * cols))
    adopted = draw(st.lists(st.integers(1, 2 * cols).flatmap(words), max_size=3))
    frontier = draw(st.lists(words(size), min_size=1, max_size=8, unique=True))
    return prod, adopted, frontier


def two_rows_of_01():
    return product_system([build_bit_coder(0, HaltingSim(((0, 1),), 3), 2)])


# two rows of (01)^ω: every member meets a word ending exactly at full depth
@example((two_rows_of_01(), [], ["01", "10"]))
@example((two_rows_of_01(), ["01"], ["10", "11"]))
@given(column_levels())
@settings(max_examples=500, deadline=None)
def test_column_level_matches_search(prod_level):
    prod, adopted, frontier = prod_level
    columns = prod.space.columns
    members = [iter_members(c, c.depth) for c in columns]
    assert (_column_level(members, columns[0].depth, adopted, frontier, {})
            == search_decisions(prod, adopted, frontier))


def test_halting_coding_runs_no_search(monkeypatch):
    # 8 mixed-stage bits: minutes of exhaustive failing searches on the DFS path
    sim = HaltingSim(((0, 2), (1, 1), (2, 3), (3, 2), (4, 2), (5, None), (6, None),
                      (7, None)), stage_horizon=3)
    prod = product_system([build_bit_coder(n, sim, 8) for n, _ in sim.bits])

    def no_search(*args):
        raise AssertionError("find_member called")

    monkeypatch.setattr("cantordyn.minimal.find_member", no_search)
    msys, _ = minimal_subsystem(prod, enum_len=len(sim.bits) + 2)
    members = decode_members(msys)
    assert ([decode_bit(msys, n, members) for n, _ in sim.bits]
            == [t is not None for _, t in sim.bits])


def reference_chain(sys_, enum_len):
    """The greedy loop that visits every word up to ``enum_len``, tests it
    against every adopted prefix and decides the rest one search at a time:
    ``(word, pruned, vacuous, class_after)`` per entry, and the number of
    removals it decided."""
    f = sys_.map
    current, adopted, entries, decided = sys_.space, [], [], 0

    def candidate(words):
        return avoidance_class(sys_.space, OrbitAvoidance(f, words),
                               name=f"{sys_.space.name}\\[{','.join(words)}]")

    for word in words_up_to(sys_.k, enum_len):
        if not word:
            continue
        if any(word.startswith(p) for p in adopted):
            entries.append((word, True, True, current))
            continue
        decided += 1
        if find_member(candidate(adopted + [word]), sys_.depth) is not None:
            adopted.append(word)
            current = candidate(adopted)
            entries.append((word, True, False, current))
        else:
            entries.append((word, False, False, current))
    return entries, decided


def _class_pattern(classes):
    """Each class's name and the first position holding the same object."""
    first = {}
    return [(c.name, first.setdefault(id(c), i)) for i, c in enumerate(classes)]


@st.composite
def greedy_systems(draw):
    """``(system, enum_len)``: bit-coder products with ``enum_len`` up to two
    rows (the column program) or past them (the search), SFTs and periodic
    orbit classes under the shift."""
    kind = draw(st.sampled_from(["product", "sft", "orbit"]))
    if kind == "product":
        stages = draw(st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=1, max_size=3))
        sim = HaltingSim(tuple(enumerate(stages)), stage_horizon=3)
        coldepth = draw(st.integers(1, 4))
        prod = product_system([build_bit_coder(n, sim, coldepth) for n, _ in sim.bits])
        return prod, draw(st.integers(0, 2 * len(stages) + 2))
    k = draw(st.integers(2, 3))
    depth = draw(st.integers(4, 9))
    alphabet = letters(k)
    if kind == "sft":
        words = draw(st.lists(st.text(alphabet, min_size=1, max_size=3), max_size=3))
        space = forbidden_window_class(k, depth, words)
    else:
        space = orbit_class(draw(st.text(alphabet, min_size=1, max_size=5)), k, depth)
    return DynSystem(space, builtin_map("left-shift", k, depth)), draw(st.integers(0, 4))


def _recorded_levels(mp):
    """Patch the level program to record the candidates of each call."""
    levels = []
    real = minimal._column_level
    mp.setattr(minimal, "_column_level", lambda *args: levels.append(list(args[3])) or real(*args))
    return levels


@given(greedy_systems())
@settings(max_examples=150, deadline=None)
def test_chain_matches_reference_greedy_loop(sys_len):
    sys_, enum_len = sys_len
    searches = []
    real = minimal.find_member

    with pytest.MonkeyPatch.context() as mp:
        levels = _recorded_levels(mp)
        mp.setattr(minimal, "find_member", lambda *args: searches.append(args) or real(*args))
        msys, chain = minimal_subsystem(sys_, enum_len)
    entries, decided = reference_chain(sys_, enum_len)
    tried = [w for w, _, v, _ in entries if not v]
    assert len(tried) == decided
    columns = sys_.space.columns
    if columns and enum_len <= 2 * len(columns):
        # one transfer per level with candidates, over exactly the words that
        # no adopted prefix implies, and no search
        assert [w for level in levels for w in level] == tried
        assert all(levels) and len(levels) == len({len(w) for w in tried})
        assert not searches
    else:
        assert not levels and len(searches) == decided
    assert chain.to_json() == [{"word": w, "pruned": p, "vacuous": v} for w, p, v, _ in entries]
    assert chain.pruned_words() == [w for w, p, v, _ in entries if p and not v]
    assert (_class_pattern([st.class_after for st in chain.stages])
            == _class_pattern([e[3] for e in entries]))
    assert msys.space.name == (entries[-1][3] if entries else sys_.space).name


def test_halting_chain_decides_only_unimplied_removals(monkeypatch):
    # the 7-bit shape of the benchmark's halting jobs: 1,022 entries, of
    # which only the words with no adopted prefix reach the column program,
    # one level per transfer
    sim = HaltingSim(((0, None), (1, 1), (2, 3), (3, None), (4, 1), (5, 3), (6, None)),
                     stage_horizon=3)
    prod = product_system([build_bit_coder(n, sim, 8) for n, _ in sim.bits])
    levels = _recorded_levels(monkeypatch)
    _, chain = minimal_subsystem(prod, enum_len=len(sim.bits) + 2)
    stages = chain.stages
    assert len(stages) == 2 ** 10 - 2
    tried = [st.word for st in stages if not st.vacuous]
    assert [w for level in levels for w in level] == tried
    assert [len(level[0]) for level in levels] == list(range(1, 10))
    assert len(tried) < 64


def test_level_without_candidates_runs_no_transfer(monkeypatch):
    # at column depth 1 the product is 2 letters deep: every 3-letter word is
    # removed (no member puts it anywhere), so length 4 has no candidates
    sim = HaltingSim(((0, None), (1, 1)), stage_horizon=3)
    prod = product_system([build_bit_coder(n, sim, 1) for n, _ in sim.bits])
    levels = _recorded_levels(monkeypatch)
    _, chain = minimal_subsystem(prod, enum_len=4)
    assert [len(level[0]) for level in levels] == [1, 2, 3]
    assert all(st.pruned for st in chain.decisions if len(st.word) == 3)


def test_twenty_bit_round_trip_transfers(monkeypatch):
    # the sim of halting_roundtrip.py --bits 20 --max-stage 4 --seed 0: one
    # transfer per chain level, not one per decision (296 of them)
    stages = (4, 1, 4, 3, None, 2, None, None, None, 1, None, 3, None, 4, None, None,
              None, 4, 2, None)
    sim = HaltingSim(tuple(enumerate(stages)), stage_horizon=4)
    prod = product_system([build_bit_coder(n, sim, 8) for n, _ in sim.bits])
    levels = _recorded_levels(monkeypatch)
    msys, chain = minimal_subsystem(prod, enum_len=len(stages) + 2)
    assert len(levels) <= 22
    assert len(chain.pruned_words()) == 142
    members = decode_members(msys)
    assert [decode_bit(msys, n, members) for n in range(20)] == [t is not None for t in stages]
