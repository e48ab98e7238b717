import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn.avoidance import (SigmaSequence, build_dodging_class,
                                 enumerate_periodic_points, verify_not_ap)
from cantordyn.errors import HorizonExhausted
from cantordyn.search import iter_members
from cantordyn.systems import (ClosedClass, explicit_class, full_class,
                               stagewise_class)
from cantordyn.words import periodic_word

N = 40


def listed_points_class(depth=N):
    """Class whose full sigma chain is forced: meets every short periodic
    orbit, avoids the probe cylinders at the intended repetition counts, and
    contains exactly one structured hat member."""
    xstar = ("0" + "1" + "0" + "11" + "0" + "111" + "0" + "1111").ljust(depth, "0")
    points = [xstar, "0" * depth, "1" * depth, "10" + "1" * (depth - 2)]
    for gen in ("01", "001", "011", "0001", "0011", "0111"):
        points.append(periodic_word(gen, depth))
    return explicit_class(2, depth, points), xstar


class TestEnumeration:
    def test_period_one(self):
        assert enumerate_periodic_points(2, 1) == ["0", "1"]

    def test_period_two_adds_cycle(self):
        assert enumerate_periodic_points(2, 2) == ["0", "1", "01"]

    def test_period_four_has_s2_generator(self):
        gens = enumerate_periodic_points(2, 4)
        assert "0011" in gens
        assert "0110" not in gens  # rotation duplicate
        assert "0101" not in gens  # not primitive


class TestCaseOne:
    def test_single_zero_point(self):
        P = explicit_class(2, N, ["0" * N])
        out = build_dodging_class(P)
        assert out.case == "orbit"
        assert out.orbit_generator == "1"
        pts = iter_members(out.orbit_class, N)
        assert pts == ["1" * N]
        assert all(not P.member(w) for w in pts)

    def test_golden_mean_left(self):
        member = lambda w: (not w or w[0] == "0") and "11" not in w
        P = ClosedClass(2, N, member, name="gml")
        out = build_dodging_class(P)
        assert out.case == "orbit"
        assert out.orbit_generator == "1"

    def test_stagewise_uniformity(self):
        # deepening the horizon only removes nodes; case 1 never flips
        for horizon in (3, 5, 9):
            P = stagewise_class(2, N, [(3, "1")], stage_horizon=horizon)
            out = build_dodging_class(P)
            assert out.case == "orbit"
            assert out.orbit_generator == "1"
            assert out.orbit_excluded_stage == 3
            # soundness from the witnessing stage on
            for s in range(out.orbit_excluded_stage, horizon + 1):
                assert all(not P.member(w, stage=s)
                           for w in iter_members(out.orbit_class, N))


class TestCaseTwoDegenerate:
    def test_full_space(self):
        out = build_dodging_class(full_class(2, N))
        assert out.case == "hat"
        assert out.degenerate_probe == "1" + "0" * (N - 1)
        assert iter_members(out.hat_class, N) == ["1" + "0" * (N - 1)]
        assert verify_not_ap(out.hat_class, 4)

    def test_degenerate_at_later_stage(self):
        # kill [10^n] so sigma_1 exists, but leave 11(0011...)-cylinders alive:
        # the stage-2 probe point must then be in P
        probe2 = "11" + periodic_word("001", N - 2)
        pts = [probe2, "0" * N, "1" * N, "10" + "1" * (N - 2)]
        for gen in ("01", "001", "011", "0001", "0011", "0111"):
            pts.append(periodic_word(gen, N))
        P = explicit_class(2, N, pts)
        out = build_dodging_class(P)
        assert out.case == "hat"
        assert out.dodge_stage == 1
        assert out.sigma.sigmas == ("00",)
        assert out.degenerate_probe == probe2
        assert verify_not_ap(out.hat_class, 2)


class TestCaseTwoFull:
    def test_sigma_chain(self):
        P, xstar = listed_points_class()
        out = build_dodging_class(P, max_period=4, sigma_stages=4)
        assert out.case == "hat"
        assert out.degenerate_probe is None
        assert out.sigma.sigmas == ("00", "001", "0010011", "001001100100111")
        assert out.sigma.reps == (2, 1, 1, 1)
        assert out.sigma.cuts == (4, 9, 18, 35)
        assert out.sigma.check() == []
        assert iter_members(out.hat_class, N) == [xstar]
        assert verify_not_ap(out.hat_class, 4)

    def test_hat_subset_and_zero_start(self):
        P, _ = listed_points_class()
        out = build_dodging_class(P, max_period=4, sigma_stages=4)
        for w in iter_members(out.hat_class, N):
            assert P.member(w)
            assert w[0] == "0"
            for k, c in enumerate(out.sigma.cuts, start=1):
                assert "1" * k in w[:c]

    def test_horizon_exhausted_when_budget_too_small(self):
        P, _ = listed_points_class(depth=20)  # cuts reach 35 > 20
        with pytest.raises(HorizonExhausted):
            build_dodging_class(P, max_period=4, sigma_stages=4)


class TestSigmaInvariants:
    def test_check_catches_breaks(self):
        good = SigmaSequence(("00", "001"), (2, 1))
        assert good.check() == []
        assert SigmaSequence(("01",), (2,)).check()      # not a zero block
        assert SigmaSequence(("00", "111"), (2, 1)).check()  # wrong block shape
        # each breaks one check alone: σ_2 = 0010 keeps the prefix chain and
        # the runs but is not the block 001, and σ_1 = 00 has count 1
        assert SigmaSequence(("00", "0010"), (2, 1)).check() == [
            "sigma_2 != block^reps: '0010'"]
        assert SigmaSequence(("00",), (1,)).check() == [
            "sigma_1 length must equal its repetition count"]

    def test_run_content(self):
        P, _ = listed_points_class()
        sig = build_dodging_class(P, sigma_stages=4).sigma
        for j in range(1, len(sig.sigmas)):
            assert "1" * j in sig.sigmas[j]
            assert "1" * (j + 1) not in sig.sigmas[j]

    def test_prefix_chain(self):
        P, _ = listed_points_class()
        sig = build_dodging_class(P, sigma_stages=4).sigma
        for a, b in zip(sig.sigmas, sig.sigmas[1:]):
            assert b.startswith(a)


class TestVerifyNotAp:
    def test_gap_from_one_run(self):
        # members 0 1^b 0...: the 1-run blocks returns to [0]
        w = "0" + "1" * 5 + "0" * (N - 6)
        hat = explicit_class(2, N, [w])
        assert verify_not_ap(hat, 5)

    def test_k3_hat_over_full_space(self):
        # structured hat over the full space at a small depth
        cuts = (3, 7, 14)

        def pred(w):
            if w and w[0] != "0":
                return False
            return all(len(w) < c or "1" * k in w[:c]
                       for k, c in enumerate(cuts, start=1))

        hat = ClosedClass(2, 16, pred, name="k3hat")
        assert verify_not_ap(hat, 3)

    def test_rejects_periodic_member(self):
        hat = explicit_class(2, N, [periodic_word("01", N)])
        assert not verify_not_ap(hat, 2)

    def test_empty_hat_rejected(self):
        hat = explicit_class(2, N, [])
        assert not verify_not_ap(hat, 1)


def reference_not_ap(hat, b_max):
    """The gap scan as one loop per member, gap bound, start and step: the
    form that ``verify_not_ap`` replaces, kept as its reference."""
    N = hat.depth
    members = iter_members(hat, N)
    if not members:
        return False
    for w in members:
        root = w[0]
        for b in range(1, b_max + 1):
            ok = False
            for n in range(N - b + 1):
                if all(w[n + k] != root for k in range(b)):
                    ok = True
                    break
            if not ok:
                return False
    return True


@st.composite
def classes_and_bounds(draw):
    """An explicit class over two or three letters, its listed words often of
    full depth, and a gap bound from 0 past the depth."""
    depth = draw(st.integers(1, 9))
    alpha = draw(st.sampled_from(["01", "012"]))
    words = draw(st.lists(st.one_of(st.text(alphabet=alpha, min_size=depth, max_size=depth),
                                    st.text(alphabet=alpha, max_size=depth)), max_size=6))
    return explicit_class(len(alpha), depth, words), draw(st.integers(0, depth + 1))


@given(classes_and_bounds())
@settings(max_examples=200, deadline=None)
def test_verify_not_ap_matches_the_nested_scan(hat_and_bound):
    hat, b_max = hat_and_bound
    assert verify_not_ap(hat, b_max) == reference_not_ap(hat, b_max)
