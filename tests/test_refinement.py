import gc
import random
from collections import Counter
from unittest import mock

import pytest
from conftest import FIBONACCI, THUE_MORSE, fixed_point_factors, random_normalized_map
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantordyn import refinement
from cantordyn.cli import PHI_REGISTRY
from cantordyn.errors import CantorDynError, HorizonExhausted, ModulusExhausted
from cantordyn.maps import CodedMap, builtin_map
from cantordyn.refinement import (NbhResult, OpenRequest, Phi1Predicate,
                                  PiecewiseIterate, Refinement, check_piecewise_samples,
                                  check_refinement_cert, compose, construct_ap_point,
                                  least_element_forcing, meet_or_avoid, nbh_periodicity,
                                  trivial_cert)
from cantordyn.search import (OrbitAvoidance, avoidance_class, death_length,
                              find_member, iter_members)
from cantordyn.systems import (ClosedClass, DynSystem, explicit_class,
                               forbidden_window_class, full_class, memo_class,
                               orbit_class, restrict_class, stagewise_class,
                               validate_system, verify_ap)
from cantordyn.words import all_words, periodic_word, words_up_to

N = 12


def shift(depth=N):
    return builtin_map("left-shift", 2, depth)


def full_sys(depth=N):
    return DynSystem(full_class(2, depth), shift(depth))


# the requests of the criterion-9 golden job (ap-point-c9-64)
C9_REQUESTS = [OpenRequest.static("u0", ["0"]), OpenRequest.static("u1", ["01"]),
               OpenRequest.static("u2", ["10"]), OpenRequest.static("u3", ["00"]),
               OpenRequest("u4", ((0, "000"), (4, "010")))]


def read_moduli(m):
    """``t ↦ m.modulus(t)`` for every ``t`` in ``0..depth`` that does not
    raise :class:`ModulusExhausted`."""
    got = {}
    for t in range(m.depth + 1):
        try:
            got[t] = m.modulus(t)
        except ModulusExhausted:
            pass
    return got


def composed_moduli(base, l, b, depth):
    """The moduli of an ``(l, b, ·)`` certificate's induced map, from the
    base's moduli ``base`` (as :func:`read_moduli` gives them) by ``b``
    lookups per output length."""
    moduli = {0: 0}
    for t in range(1, depth + 1):
        need = t
        for _ in range(b):
            need = base.get(need)
            if need is None:
                break
        else:
            if max(need, l) <= depth:
                moduli[t] = max(need, l)
    return moduli


def per_t_moduli(cert):
    """The induced map's moduli by ``b`` base moduli per output length: the
    oracle for the modulus of :meth:`PiecewiseIterate.induced`."""
    return composed_moduli(read_moduli(cert.base), cert.l, cert.b, cert.base.depth)


class TestInducedMap:
    def test_constant_one_is_base(self):
        f = shift()
        cert = PiecewiseIterate(2, 1, f, lambda w: 1)
        g = cert.induced()
        for w in all_words(2, 6):
            assert g.apply(w) == f.apply(w)
        assert g.apply("0") == ""  # below lookup length

    def test_constant_two_drops_two(self):
        cert = PiecewiseIterate(2, 2, shift(), lambda w: 2)
        g = cert.induced()
        assert g.apply("011010") == "1010"

    def test_branch_dependent(self):
        cert = PiecewiseIterate(1, 2, shift(), lambda w: 1 if w == "0" else 2)
        g = cert.induced()
        assert g.apply("0110") == "110"
        assert g.apply("1110") == "10"

    def test_exponent_range_enforced(self):
        cert = PiecewiseIterate(1, 1, shift(), lambda w: 2)
        with pytest.raises(ValueError):
            cert.induced().apply("01")

    def test_exponent_lookups_cache_only_good_words(self):
        # a lookup that raises is not cached, so each call checks again
        asked = Counter()

        def jfunc(w):
            asked[w] += 1
            return 3 if w == "11" else 1

        cert = PiecewiseIterate(2, 2, shift(), jfunc)
        for _ in range(3):
            with pytest.raises(ValueError, match="length 2"):
                cert.j("0")
            with pytest.raises(ValueError, match="outside 1..2"):
                cert.j("11")
            assert [cert.j(w) for w in ("00", "01", "10")] == [1, 1, 1]
        assert asked == {"11": 3, "00": 1, "01": 1, "10": 1}

    @pytest.mark.parametrize("depth", [64, 256])
    def test_moduli_of_the_criterion_9_chain(self, depth):
        # the moduli depend on l, b and the base alone; at N=64 the lengths
        # past 28 are exhausted
        cert = PiecewiseIterate(39, 36, shift(depth), lambda w: 1)
        got = read_moduli(cert.induced())
        assert got == per_t_moduli(cert)
        assert len(got) == depth - 35

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moduli_match_per_length_bisects(self, seed):
        inner, outer = random_cert_pair(seed)
        rng = random.Random(seed)
        base = random_normalized_map(2, 7, rng)
        l, b = rng.randint(0, 3), rng.randint(1, 4)
        odd = PiecewiseIterate(l, b, base, lambda w: 1)  # exhausted moduli likely
        for cert in (inner, outer, odd):
            assert read_moduli(cert.induced()) == per_t_moduli(cert)

    def test_building_asks_no_modulus(self):
        # a work guard that counts instead of timing: the induced map asks
        # its base only for the moduli asked of it, once each
        asked = Counter()

        def witness(l):
            asked[l] += 1
            return l + 1

        base = CodedMap(2, N, lambda w: w[1:], witness, shrinking=True, suffix_step=1)
        g = PiecewiseIterate(2, 3, base, lambda w: 1 + w.count("1")).induced()
        assert not asked
        assert [g.modulus(4), g.modulus(4)] == [7, 7]
        assert asked == {4: 1, 5: 1, 6: 1}
        for _ in range(2):
            with pytest.raises(ModulusExhausted):
                g.modulus(N - 2)
        assert asked == {4: 1, 5: 1, 6: 1, N - 2: 1, N - 1: 1, N: 1}
        assert g.modulus(0) == 0 and len(asked) == 6

    @given(st.integers(0, 2 ** 31 - 1), st.booleans(),
           st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_nested_layers_match_per_t_moduli(self, seed, table, layers):
        # each layer is induced over the map the previous layer induced, as
        # stepwise and the meet child build them
        rng = random.Random(seed)
        g = random_normalized_map(2, 7, rng) if table else shift()
        want = read_moduli(g)
        for l, b in layers:
            exps = {w: rng.randint(1, b) for w in all_words(2, l)}
            g = PiecewiseIterate(l, b, g, exps.__getitem__).induced()
            want = composed_moduli(want, l, b, g.depth)
            for t in range(g.depth + 1):
                if t in want:
                    assert g.modulus(t) == want[t]
                else:
                    with pytest.raises(ModulusExhausted):
                        g.modulus(t)

    def test_freed_without_cyclic_gc(self):
        # the induced map must not refer back to its certificate, or both
        # (and their memos) live until the cyclic collector runs
        f = shift()

        def live():
            return sum(isinstance(o, (PiecewiseIterate, CodedMap)) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live()
            cert = PiecewiseIterate(1, 2, f, {"0": 1, "1": 2}.__getitem__)
            assert cert.induced().apply("0110") == "110"
            del cert
            after = live()
        finally:
            gc.enable()
        assert after == before


def random_cert_pair(seed):
    """Inner certificate over the shift, outer over its induced map."""
    rng = random.Random(seed)
    f = shift()
    l1, b1 = rng.randint(0, 2), rng.randint(1, 3)
    j1 = {w: rng.randint(1, b1) for w in all_words(2, l1)}
    inner = PiecewiseIterate(l1, b1, f, j1.__getitem__)
    g = inner.induced()
    l2, b2 = rng.randint(0, 2), rng.randint(1, 3)
    j2 = {w: rng.randint(1, b2) for w in all_words(2, l2)}
    outer = PiecewiseIterate(l2, b2, g, j2.__getitem__)
    return inner, outer


class TestCompose:
    def test_constant_exponents_multiply(self):
        f = shift()
        inner = PiecewiseIterate(1, 2, f, lambda w: 2)
        outer = PiecewiseIterate(1, 3, inner.induced(), lambda w: 3)
        h = compose(outer, inner)
        assert h.b == 6
        assert h.j("0" * h.l) == 6

    def test_sum_unfolds(self):
        f = shift()
        j1 = {"0": 1, "1": 2}
        inner = PiecewiseIterate(1, 2, f, j1.__getitem__)
        g = inner.induced()
        outer = PiecewiseIterate(0, 2, g, lambda w: 2)
        h = compose(outer, inner)
        for w in all_words(2, h.l):
            gw = g.apply(w)
            assert h.j(w) == j1[w[0]] + j1[gw[0]]

    def test_exactness_random_pairs(self):
        for seed in range(25):
            inner, outer = random_cert_pair(seed)
            h = compose(outer, inner)
            hi = h.induced()
            out_ind = outer.induced()
            for n in range(h.l, N + 1):
                for w in all_words(2, n):
                    assert hi.apply(w) == out_ind.apply(w)

    def test_base_mismatch_rejected(self):
        f = shift()
        inner = PiecewiseIterate(1, 2, f, lambda w: 2)
        outer = PiecewiseIterate(1, 1, f, lambda w: 1)  # over f, not induced(inner)
        with pytest.raises(ValueError):
            compose(outer, inner)


def record_searches(monkeypatch):
    """Patch the refinement module's searches to log each one: the avoidance
    condition its class was built with (None for a class built otherwise);
    a memo of such a class keeps its condition.  Also returns every
    ``OrbitAvoidance`` the module builds, in order."""
    added = {}  # class -> its avoidance condition
    searched = []
    built = []

    def avoidance_class_(base, avoid, name):
        cls = avoidance_class(base, avoid, name)
        added[cls] = avoid
        return cls

    def memo_class_(base):
        cls = memo_class(base)
        if base in added:
            added[cls] = added[base]
        return cls

    def orbit_avoidance(f, forbidden):
        avoid = OrbitAvoidance(f, forbidden)
        built.append(avoid)
        return avoid

    def counted(search):
        def run(space, cap):
            searched.append(added.get(space))
            return search(space, cap)
        return run

    monkeypatch.setattr(refinement, "avoidance_class", avoidance_class_)
    monkeypatch.setattr(refinement, "memo_class", memo_class_)
    monkeypatch.setattr(refinement, "OrbitAvoidance", orbit_avoidance)
    monkeypatch.setattr(refinement, "find_member", counted(find_member))
    monkeypatch.setattr(refinement, "death_length", counted(death_length))
    return searched, built


class TestMeetOrAvoid:
    def test_avoid_single_one(self):
        r, case = meet_or_avoid(full_sys(), OpenRequest.static("u", ["1"]))
        assert case == "avoid"
        assert iter_members(r.child.space, N) == ["0" * N]
        assert check_refinement_cert(r, 10).ok

    def test_meet_both_letters(self):
        r, case = meet_or_avoid(full_sys(), OpenRequest.static("u", ["0", "1"]))
        assert case == "meet"
        assert r.meta["s"] == 1
        assert r.cert.b == 2
        assert all(r.cert.j(w) == 1 for w in all_words(2, r.cert.l))
        assert check_refinement_cert(r, 10).ok

    def test_cert_check_reports_a_child_that_leaves_itself(self):
        # the words starting with 1 are not closed under the shift, which
        # sends 10… to 0…: the map is sound, the child is not invariant
        f = shift()
        ones = restrict_class(full_class(2, N), lambda w: w[:1] != "0", name="1…")
        rep = check_refinement_cert(Refinement(DynSystem(ones, f), trivial_cert(f), "avoid", {}), 4)
        assert {c for c, _, _ in rep.entries} == {"cert-invariance"}
        assert [w for _, w, _ in rep.entries] == [
            w for n in range(5) for w in all_words(2, n) if w.startswith("10")]

    def test_golden_avoids_forbidden(self):
        gm = DynSystem(forbidden_window_class(2, N, ["11"]), shift())
        r, case = meet_or_avoid(gm, OpenRequest.static("u", ["11"]))
        assert case == "avoid"
        members = iter_members(r.child.space, N, limit=10)
        assert members == iter_members(gm.space, N, limit=10)

    def test_meet_postcondition(self):
        gm = DynSystem(forbidden_window_class(2, N, ["11"]), shift())
        r, case = meet_or_avoid(gm, OpenRequest.static("u", ["0"]))
        assert case == "meet"
        s = r.meta["s"]
        targets = set(OpenRequest.static("u", ["0"]).short_elements(s, 2))
        for n in range(s, 9):
            for w in all_words(2, n):
                if r.child.space.member(w):
                    assert any(w.startswith(t) for t in targets)

    def test_avoid_postcondition_and_invariance(self):
        req = OpenRequest.static("u", ["10"])
        sys_ = full_sys()
        r, case = meet_or_avoid(sys_, req)
        assert case == "avoid"
        f = sys_.map
        for n in range(9):
            for w in all_words(2, n):
                if r.child.space.member(w):
                    assert r.child.space.member(f.apply(w))
                    for m in range(len(w) + 1):
                        assert not f.iterate(w, m).startswith("10")

    def test_reach_back(self):
        parent = full_sys()
        r, case = meet_or_avoid(parent, OpenRequest.static("u", ["0", "1"]))
        s = r.meta["s"]
        assert r.meta["reach_back"] == s + 1
        f = parent.map
        for w in all_words(2, N):
            hits = [k for k in range(s + 2)
                    if r.child.space.member(f.iterate(w, k))]
            assert hits

    def test_stagewise_request(self):
        # "1" enumerated only at stage 3: short words dodge it, long ones meet it
        req = OpenRequest("late", ((3, "0"), (3, "1")))
        r, case = meet_or_avoid(full_sys(), req)
        assert case == "meet"
        assert r.meta["s"] == 3

    @pytest.mark.parametrize("words, want", [(["1"], "avoid"), (["0", "1"], "meet")],
                             ids=["avoid", "meet"])
    def test_one_search_of_the_avoidance_class(self, words, want, monkeypatch):
        # a work guard that counts instead of timing: the death length of the
        # avoidance tree both decides the case and gives the meet stage
        searched, _ = record_searches(monkeypatch)
        _, case = meet_or_avoid(full_sys(), OpenRequest.static("u", words))
        assert case == want
        assert len(searched) == 1 and searched[0] is not None

    def test_child_systems_valid(self):
        for words in (["1"], ["0", "1"], ["01"]):
            r, _ = meet_or_avoid(full_sys(), OpenRequest.static("u", words))
            assert validate_system(r.child, max_len=8).ok


class TestLeastElementForcing:
    def test_false_predicate(self):
        sys_ = full_sys()
        r, out = least_element_forcing(sys_, Phi1Predicate("never", lambda m, t, p: False))
        assert out == ("empty", None)
        assert iter_members(r.child.space, 4) == iter_members(sys_.space, 4)

    def test_prefix_one_on_full(self):
        phi = Phi1Predicate("prefix-one", lambda m, t, p: m == 0 and t.startswith("1"))
        r, out = least_element_forcing(full_sys(), phi)
        assert out == ("empty", None)
        assert iter_members(r.child.space, N) == ["0" * N]

    def test_prefix_one_forced_to_meet(self):
        phi = Phi1Predicate("prefix-one", lambda m, t, p: m == 0 and t.startswith("1"))
        ones = DynSystem(explicit_class(2, N, ["1" * N]), shift())
        r, out = least_element_forcing(ones, phi)
        assert out == ("least", 0)
        assert iter_members(r.child.space, N) == ["1" * N]

    def test_one_at_position(self):
        phi = Phi1Predicate("one-at", lambda m, t, p: len(t) > m and t[m] == "1")
        zeros = DynSystem(explicit_class(2, N, ["0" * N]), shift())
        _, out = least_element_forcing(zeros, phi)
        assert out == ("empty", None)
        s1 = DynSystem(orbit_class("01", 2, N), shift())
        r, out2 = least_element_forcing(s1, phi)
        assert out2 == ("least", 0)
        # in the child, position 0 is forced to carry the least witness
        for w in iter_members(r.child.space, N):
            assert w[0] == "1"

    def test_least_witness_constant_on_child(self):
        phi = Phi1Predicate("one-at", lambda m, t, p: len(t) > m and t[m] == "1")
        s2 = DynSystem(orbit_class("0011", 2, N), shift())
        r, (kind, b) = least_element_forcing(s2, phi)
        assert kind == "least"
        for w in iter_members(r.child.space, N):
            assert min(m for m in range(N) if w[m] == "1") == b

    @pytest.mark.parametrize("name", ["one-at", "prefix-one"])
    def test_golden_mean_64_makes_no_apply_calls(self, name, monkeypatch):
        # a work guard that counts instead of timing: under the shift every
        # avoidance check compares windows of the word itself
        calls = Counter()
        apply = CodedMap.apply

        def counting(self, word):
            calls[self.name] += 1
            return apply(self, word)

        monkeypatch.setattr(CodedMap, "apply", counting)
        gm = DynSystem(forbidden_window_class(2, 64, ["11"]), shift(64))
        phi = Phi1Predicate(name, PHI_REGISTRY[name])
        assert least_element_forcing(gm, phi)[1] == ("empty", None)
        assert not calls


# predicates on a drawn word p.  Under the shift a witness at m in τ is one at
# 0 in f^m(τ), so starts-at mostly forces b = 0; starts-past bounds m below by
# |p|, and past-length puts every least witness at |p|, which may be past the
# depth
DRAWN_WORD_PHI = {
    "starts-at": lambda m, tau, p: tau[m:].startswith(p),
    "starts-past": lambda m, tau, p: m >= len(p) and tau[m:].startswith(p),
    "past-length": lambda m, tau, p: m >= len(p),
}


@st.composite
def forcing_inputs(draw):
    """A system of depth 2–8 (an SFT or a periodic orbit under the shift,
    or the full class under a random normalized map) with a predicate: one of
    the registry's three, which ignore the drawn word, or one on the drawn
    word, whose least witness can be past 0."""
    depth = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["sft", "orbit", "table"]))
    if kind == "sft":
        forb = draw(st.lists(st.text(alphabet="01", min_size=2, max_size=3), min_size=1, max_size=3))
        sys_ = DynSystem(forbidden_window_class(2, depth, forb), shift(depth))
    elif kind == "orbit":
        gen = draw(st.text(alphabet="01", min_size=1, max_size=4))
        sys_ = DynSystem(orbit_class(gen, 2, depth), shift(depth))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 31 - 1)))
        sys_ = DynSystem(full_class(2, depth), random_normalized_map(2, depth, rng))
    # the least witnesses past 0 first: draws shrink toward the first name
    name = draw(st.sampled_from(sorted(DRAWN_WORD_PHI, reverse=True) + sorted(PHI_REGISTRY)))
    word = draw(st.text(alphabet="01", min_size=1, max_size=3))
    first = find_member(sys_.space, depth)
    if first and draw(st.booleans()):  # a factor of a member
        i = draw(st.integers(0, depth - 1))
        word = first[i:i + len(word)]
    return sys_, Phi1Predicate(name, {**PHI_REGISTRY, **DRAWN_WORD_PHI}[name], word)


@given(forcing_inputs())
@settings(max_examples=200, deadline=None)
def test_least_witness_is_the_largest_orbit_minimum(inputs):
    """``B`` is the largest, over full-depth members σ, of the least
    ``least(τ)`` over the prefixes τ of ``f^n(σ)``, ``n ≤ N``: avoiding
    ``O(<= b)`` keeps σ iff that minimum exceeds b, so ``O(<= B)`` is the
    first request met.  A typed error may end the meet at ``B`` (a modulus
    past the depth, or a carve that empties), but only there."""
    sys_, phi = inputs
    N, f = sys_.depth, sys_.map

    def least(tau):
        return next((m for m in range(N + 1) if phi(m, tau)), N + 1)

    members = iter_members(sys_.space, N)
    assume(members)
    B = max(min(least(u[:t]) for u in f.orbit(w, N) for t in range(len(u) + 1))
            for w in members)
    with mock.patch.object(refinement, "meet_or_avoid", wraps=meet_or_avoid) as spy:
        try:
            outcome = least_element_forcing(sys_, phi)[1]
        except CantorDynError:
            outcome = "error"
    asked = [c.args[1].name for c in spy.call_args_list]
    assert asked == [f"O(<= {b})" for b in range(min(B, N) + 1)]
    assert outcome in ([("empty", None)] if B > N else [("least", B), "error"])


class TestNbhPeriodicity:
    def test_fixed_point(self):
        sys_ = DynSystem(explicit_class(2, N, ["0" * N]), shift())
        res = nbh_periodicity(sys_, 1)
        assert res.avoided == ("1",)
        assert res.b == 1

    def test_two_cycle(self):
        sys_ = DynSystem(orbit_class("01", 2, N), shift())
        res = nbh_periodicity(sys_, 2)
        assert res.avoided == ("00", "11")
        assert res.b == 3

    def test_full_shift(self):
        res = nbh_periodicity(full_sys(), 1)
        assert res.avoided == ("1",)
        assert res.b == 1
        assert iter_members(res.system.space, N) == ["0" * N]

    def test_parent_child_test_asked_once_per_word(self):
        # a work guard that counts instead of timing: the golden mean at
        # N = 64 after one meet stage, whose child test nests the meet class
        gm = DynSystem(forbidden_window_class(2, 64, ["11"]), shift(64))
        ref, case = meet_or_avoid(gm, OpenRequest.static("u", ["0"]))
        assert case == "meet"
        parent = ref.child.space
        asked = Counter()

        def step(w):
            asked[w] += 1
            return parent.member_step(w)

        counted = ClosedClass(2, 64, step, name="counted")
        res = nbh_periodicity(DynSystem(counted, ref.child.map), 2)
        assert asked and max(asked.values()) == 1
        want = nbh_periodicity(ref.child, 2)
        assert (res.avoided, res.b) == (want.avoided, want.b)

    @pytest.mark.parametrize("i, want_b", [(1, 2), (2, 11), (3, 11), (4, 11)])
    def test_dead_class(self, i, want_b, monkeypatch):
        # no member of length 16: nothing is avoided, and once some word is a
        # non-member the class's own death length, searched once, bounds the
        # return to it
        sys_ = DynSystem(explicit_class(2, 16, ["0101010101", "1010101010"]), shift(16))
        assert find_member(sys_.space, 16) is None
        members = iter_members(sys_.space, i)
        searched, _ = record_searches(monkeypatch)
        res = nbh_periodicity(sys_, i)
        assert (res.avoided, res.b) == ((), want_b)
        assert searched.count(None) == (len(members) < 2 ** i)
        assert Counter(list(a.stage)[-1] for a in searched if a is not None) == Counter(members)
        want = greedy_nbh(sys_, i)
        assert (res.avoided, res.b) == (want.avoided, want.b)

    def test_return_bound_realized(self):
        sys_ = DynSystem(orbit_class("0011", 2, 16), builtin_map("left-shift", 2, 16))
        res = nbh_periodicity(sys_, 2)
        f = sys_.map
        for w in iter_members(res.system.space, 16):
            tau = w[:2]
            assert any(f.iterate(w, n).startswith(tau) for n in range(1, res.b + 1))


def greedy_nbh(sys_, i):
    """``nbh_periodicity`` as a plain greedy loop: one candidate search per
    length-``i`` word, largest first, and one death length per word left."""
    f, N = sys_.map, sys_.depth
    parent = memo_class(sys_.space)
    words_i = list(all_words(sys_.k, i))
    avoided = []
    for w in reversed(words_i):
        cand = avoided + [w]
        if find_member(avoidance_class(parent, OrbitAvoidance(f, cand), "c"), N) is not None:
            avoided = cand
    space = sys_.space if not avoided else avoidance_class(
        sys_.space, OrbitAvoidance(f, avoided), name="nbh")
    b = 1
    for w in words_i:
        if w in avoided:
            continue
        dl = death_length(avoidance_class(parent, OrbitAvoidance(f, avoided + [w]), "s"), N)
        if dl is None:
            raise HorizonExhausted(f"return length for {w!r} exceeds depth {N}")
        b = max(b, dl)
    return NbhResult(DynSystem(space, f), b, tuple(sorted(avoided)))


@st.composite
def shift_invariant_systems(draw):
    """A system ``validate_system`` accepts at depth 2–12: a forbidden-window,
    orbit, substitution-factor or stagewise class under the shift, the
    2-column shift or a piecewise iterate of the shift."""
    depth = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["sft", "orbit", "factors", "stages"]))
    forb = draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3),
                         min_size=1, max_size=3))
    if kind == "sft":
        cls = forbidden_window_class(2, depth, forb)
    elif kind == "orbit":
        cls = orbit_class(draw(st.text(alphabet="01", min_size=1, max_size=5)), 2, depth)
    elif kind == "factors":
        cls = explicit_class(2, depth, fixed_point_factors(
            draw(st.sampled_from([FIBONACCI, THUE_MORSE])), depth))
    else:
        # the least words holding a forbidden window, each removed at a drawn
        # stage; one drawn past the horizon is not removed, which can break
        # forward invariance (validation then rejects the draw)
        hits = [w for w in words_up_to(2, depth)
                if any(w.endswith(t) for t in forb)
                and not any(t in w[:-1] for t in forb)]
        stages = draw(st.lists(st.integers(0, 3), min_size=len(hits), max_size=len(hits)))
        cls = stagewise_class(2, depth, zip(stages, hits), stage_horizon=2)
    shift_ = shift(depth)
    map_kind = draw(st.sampled_from(["shift", "column-shift", "piecewise"]))
    if map_kind == "column-shift":
        f = builtin_map("column-shift", 2, depth, columns=2)
    elif map_kind == "piecewise":
        l = draw(st.integers(0, 2))
        table = dict(zip(all_words(2, l), draw(st.lists(
            st.integers(1, 2), min_size=2 ** l, max_size=2 ** l))))
        f = PiecewiseIterate(l, 2, shift_, table.__getitem__).induced()
    else:
        f = shift_
    sys_ = DynSystem(cls, f)
    assume(validate_system(sys_).ok)
    return sys_


class TestNbhPeriodicityProperties:
    @given(shift_invariant_systems(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy_loop(self, sys_, i):
        def outcome(fn):
            try:
                res = fn(sys_, i)
            except HorizonExhausted as e:
                return str(e)
            return res.avoided, res.b, iter_members(res.system.space, sys_.depth)

        assert outcome(nbh_periodicity) == outcome(greedy_nbh)

    @pytest.mark.parametrize("rules", [FIBONACCI, THUE_MORSE], ids=["fibonacci", "thue-morse"])
    def test_no_search_for_a_non_member(self, rules, monkeypatch):
        # a work guard that counts instead of timing: forbidding a non-member
        # word changes no class, so no search or avoidance condition is for
        # one; on a minimal class every member word is rejected, by the one
        # search that also gives its bound
        sys_ = DynSystem(explicit_class(2, 64, fixed_point_factors(rules, 64)), shift(64))
        searched, built = record_searches(monkeypatch)
        for i in range(4, 9):
            members = iter_members(sys_.space, i)
            non_members = set(all_words(2, i)) - set(members)
            searched.clear()
            built.clear()
            res = nbh_periodicity(sys_, i)
            assert non_members and non_members <= set(res.avoided)
            assert not any(non_members & a.stage.keys() for a in built)
            assert searched.count(None) <= 1  # the one search of the class itself
            assert Counter(list(a.stage)[-1] for a in searched if a is not None) == Counter(members)
            want = greedy_nbh(sys_, i)
            assert (res.avoided, res.b) == (want.avoided, want.b)


class TestProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_certs_induce_valid_maps(self, seed):
        inner, outer = random_cert_pair(seed)
        for cert in (inner, outer):
            assert cert.induced().check(max_len=7) == []

    @given(st.lists(st.text(alphabet="01", min_size=1, max_size=3),
                    min_size=1, max_size=3, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_meet_or_avoid_cert_always_sound(self, words):
        r, case = meet_or_avoid(full_sys(), OpenRequest.static("u", words))
        assert check_refinement_cert(r, max_len=8).ok
        assert validate_system(r.child, max_len=6).ok

    @given(st.text(alphabet="01", min_size=1, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_avoid_child_never_meets(self, word):
        r, case = meet_or_avoid(full_sys(), OpenRequest.static("u", [word]))
        if case == "avoid":
            f = full_sys().map
            for w in iter_members(r.child.space, N, limit=32):
                assert all(not f.iterate(w, m).startswith(word)
                           for m in range(N + 1))


class TestConstructApPoint:
    def test_golden_mean_single_request(self):
        gm = DynSystem(forbidden_window_class(2, 24, ["11"]),
                       builtin_map("left-shift", 2, 24))
        X, cert, log = construct_ap_point(gm, [OpenRequest.static("u", ["1"])], c_max=2)
        assert X.prefix == "0" * 24
        assert [(r.c, r.b) for r in cert.rows] == [(1, 1), (2, 1)]
        assert verify_ap(X, cert)

    def test_full_no_requests(self):
        sys_ = DynSystem(full_class(2, 24), builtin_map("left-shift", 2, 24))
        X, cert, log = construct_ap_point(sys_, [], c_max=2)
        assert verify_ap(X, cert)
        assert set(X.prefix) <= {"0", "1"}

    def test_s2_bounded_rows(self):
        sys_ = DynSystem(orbit_class("0011", 2, 24), builtin_map("left-shift", 2, 24))
        X, cert, log = construct_ap_point(
            sys_, [OpenRequest.static("u", ["0011"])], c_max=4)
        assert verify_ap(X, cert)
        assert all(r.b <= 5 for r in cert.rows)

    def test_chain_bound_below_stage_product(self):
        sys_ = DynSystem(full_class(2, 32), builtin_map("left-shift", 2, 32))
        reqs = [OpenRequest.static("a", ["0", "1"]), OpenRequest.static("b", ["00", "01", "10", "11"])]
        X, cert, log = construct_ap_point(sys_, reqs, c_max=2)
        product = 1
        for st in log.stages:
            if st.kind == "request" and st.case == "meet":
                product *= st.s + 1
        assert log.chain.b <= product
        assert verify_ap(X, cert)
        assert check_piecewise_samples(log.chain, log.final.map, 100, seed=0).ok

    def test_depth_insufficient_is_loud(self):
        # two meets at depth 8 push the composed lookup past the horizon
        sys_ = DynSystem(full_class(2, 8), builtin_map("left-shift", 2, 8))
        reqs = [OpenRequest.static("a", ["0", "1"]),
                OpenRequest.static("b", [w for w in map("".join, __import__("itertools").product("01", repeat=3))])]
        with pytest.raises(HorizonExhausted):
            construct_ap_point(sys_, reqs, c_max=2)

    def test_cmax_at_depth_refused_before_any_stage(self, monkeypatch):
        gm = DynSystem(forbidden_window_class(2, 16, ["11"]),
                       builtin_map("left-shift", 2, 16))
        X, cert, _ = construct_ap_point(gm, [], c_max=15)
        assert verify_ap(X, cert)
        monkeypatch.setattr(refinement, "nbh_periodicity",
                            lambda *a: pytest.fail("a periodicity stage ran"))
        for c_max in (16, 18):
            with pytest.raises(ValueError, match=f"c_max {c_max} must be below depth 16"):
                construct_ap_point(gm, [], c_max=c_max)

    def test_mixed_meets_and_avoids_depth64(self):
        gm = DynSystem(forbidden_window_class(2, 64, ["11"]),
                       builtin_map("left-shift", 2, 64))
        X, cert, log = construct_ap_point(gm, C9_REQUESTS, c_max=4)
        assert verify_ap(X, cert)
        cases = [st.case for st in log.stages if st.kind == "request"]
        assert "meet" in cases and "avoid" in cases
        assert check_piecewise_samples(log.chain, log.final.map, 150, seed=2).ok
        assert (log.chain.l, log.chain.b) == (39, 36)
        assert read_moduli(log.chain.induced()) == per_t_moduli(log.chain)

    def test_kept_layers_decide_each_word_once(self):
        # a work guard that counts instead of timing: the avoid children and
        # the adopted periodicity classes are memoized, so later stages do not
        # ask the base class again for the words an earlier layer decided.
        # Most of the 71 words are asked twice (by a periodicity call's memo
        # and by the class it returns); the meet's exponent asks membership
        # of its lookup words near the root again: 144 asks, 486 unmemoized
        gm = forbidden_window_class(2, 64, ["11"])
        asked = Counter()

        def step(w):
            asked[w] += 1
            return gm.member_step(w)

        counted = DynSystem(ClosedClass(2, 64, step, name="counted"), shift(64))
        X, cert, log = construct_ap_point(counted, C9_REQUESTS, c_max=4)
        assert verify_ap(X, cert)
        assert len(asked) == 71 and sum(asked.values()) <= 144
        assert sorted(asked.values())[len(asked) // 2] == 2

    def test_sampled_check_catches_a_wrong_map(self):
        # one meet whose landing exponent is 1 or 2: "010…" lands on "0" in two steps
        sys_ = DynSystem(full_class(2, 32), builtin_map("left-shift", 2, 32))
        X, cert, log = construct_ap_point(sys_, [OpenRequest.static("u", ["0", "11"])], c_max=1)
        chain = log.chain
        assert check_piecewise_samples(chain, log.final.map, 200, seed=5).ok
        # the base map is the chain only where the exponent is 1
        rep = check_piecewise_samples(chain, sys_.map, 200, seed=5)
        assert not rep.ok
        assert {c for c, _, _ in rep.entries} == {"cert-soundness"}
        assert all(chain.l <= len(w) <= 32 for _, w, _ in rep.entries)
        assert rep.entries == check_piecewise_samples(chain, sys_.map, 200, seed=5).entries
        assert rep.entries != check_piecewise_samples(chain, sys_.map, 200, seed=6).entries


class _Recorder:
    """A map stand-in that logs the words it is applied to."""

    def __init__(self, m):
        self.m, self.words = m, []

    def apply(self, w):
        self.words.append(w)
        return self.m.apply(w)


class TestSampledCheck:
    @pytest.mark.parametrize("k", [2, 3])
    def test_reports_an_exponent_off_by_one(self, k):
        # the mutant's exponent is one too large on every lookup word that
        # starts with 1
        f = builtin_map("left-shift", k, 16)
        cert = PiecewiseIterate(2, 4, f, lambda w: 1 + (w[1] != "0"))
        mutant = PiecewiseIterate(2, 4, f, lambda w: 1 + (w[1] != "0") + (w[0] == "1"))
        for seed in range(10):
            assert check_piecewise_samples(cert, cert.induced(), 200, seed=seed).ok
            against = _Recorder(mutant.induced())
            rep = check_piecewise_samples(cert, against, 200, seed=seed)
            assert not rep.ok
            assert all(w.startswith("1") for _, w, _ in rep.entries)
            assert len(against.words) == 200
            assert all(2 <= len(w) <= 16 and set(w) <= set("012"[:k]) for w in against.words)

    @pytest.mark.parametrize("k", [2, 3])
    def test_lengths_from_l_to_depth(self, k):
        # lookup length 0: the empty word is drawn as itself
        f = builtin_map("left-shift", k, 3)
        against = _Recorder(f)
        check_piecewise_samples(PiecewiseIterate(0, 1, f, lambda w: 1), against, 200)
        assert len(against.words) == 200
        assert {len(w) for w in against.words} == {0, 1, 2, 3}
