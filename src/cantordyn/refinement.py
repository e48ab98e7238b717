"""Piece-wise iterate certificates and the refinement-forcing calculus.

A refinement ``(D, g) ≤ (C, f)`` is a subsystem whose map is a piece-wise
combination of iterates of the parent's map: on every cylinder of length
``l`` the new map equals a fixed iterate ``f^j`` with ``j ≤ b``.  The
certificate ``(l, b, j)`` is what every construction here carries and what
the independent soundness check re-verifies.

``meet_or_avoid`` either avoids an open request forever or refines into it;
``least_element_forcing`` pins the least witness of a Δ₁ formula;
``nbh_periodicity`` produces a subsystem with a uniform return bound to every
surviving cylinder of a fixed length; ``construct_ap_point`` interleaves the
two kinds of stages and emits an almost-periodicity certificate over the
original map.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, NamedTuple

from .errors import HorizonExhausted, InconsistentDepth, ModulusExhausted
from .maps import CodedMap
from .search import (OrbitAvoidance, PredicateAvoidance, avoidance_class,
                     death_length, find_member, iter_members)
from .systems import (APCert, DynSystem, PointApprox, Report,
                      least_ap_row, memo_class, restrict_class)
from .words import all_words, has_prefix_in, prefix_core, words_up_to


class PiecewiseIterate:
    """Certificate ``(l, b, j)`` over a base map: the induced map sends σ with
    ``|σ| ≥ l`` to ``f^{j(σ↾l)}(σ)`` and everything shorter to λ.

    The exponent table is total on length-``l`` words but evaluated lazily,
    so certificates with large ``l`` stay usable.
    """

    __slots__ = ("l", "b", "base", "j", "_induced")

    def __init__(self, l: int, b: int, base: CodedMap, jfunc: Callable[[str], int]):
        if l < 0 or b < 1:
            raise ValueError("need l >= 0 and b >= 1")
        self.l = l
        self.b = b
        self.base = base
        self._induced: CodedMap | None = None

        # a closure, not a method: the induced map captures it, and must not
        # capture the certificate that caches the map; a call that raises is
        # not cached, so every miss runs both checks
        @functools.cache
        def j(w: str) -> int:
            if len(w) != l:
                raise ValueError(f"lookup word must have length {l}")
            got = jfunc(w)
            if not 1 <= got <= b:
                raise ValueError(f"exponent {got} outside 1..{b}")
            return got

        self.j = j

    def induced(self) -> CodedMap:
        """The induced map, cached so identity comparisons work along chains.

        Over a suffix map ``σ ↦ σ[s:]`` it is a variable-drop map with
        ``d = s·j``, and carries that descriptor for the searches.
        """
        if self._induced is None:
            base, l, b, j = self.base, self.l, self.b, self.j
            s, depth = base.suffix_step, base.depth

            def rule(w: str) -> str:
                if len(w) < l:
                    return ""
                return base.iterate(w, j(w[:l]))

            # b base moduli of t, raised to the lookup length: composed only
            # for the lengths asked, once each
            @functools.cache
            def modulus(t: int) -> int:
                try:
                    for _ in range(b):
                        t = base.modulus(t)
                except ModulusExhausted:
                    return depth + 1
                return max(t, l)

            drop = (l, lambda w: s * j(w)) if s else None
            self._induced = CodedMap(base.k, depth, rule, modulus,
                                     shrinking=base.shrinking, drop=drop,
                                     name=f"pw(l={l},b={b})∘{base.name}")
        return self._induced

    def j_table(self) -> dict[str, int] | None:
        """Materialize the exponent table when small enough to serialize."""
        if self.base.k ** self.l > 4096:
            return None
        return {w: self.j(w) for w in all_words(self.base.k, self.l)}


def trivial_cert(base: CodedMap) -> PiecewiseIterate:
    """The subsystem certificate: one iterate everywhere (g = f)."""
    return PiecewiseIterate(0, 1, base, lambda w: 1)


def compose(outer: PiecewiseIterate, inner: PiecewiseIterate) -> PiecewiseIterate:
    """Certificate for the composition: ``outer`` over the map induced by
    ``inner`` becomes a single certificate over ``inner``'s base.

    The lookup length is the least one past which every intermediate iterate
    is still long enough for the inner lookups; the exponent is the sum of the
    inner exponents along the outer iteration.
    """
    g = outer.base
    if g is not inner.induced():
        raise ValueError("outer certificate is not over the map induced by inner")
    f = inner.base
    b3 = inner.b * outer.b
    need = inner.l + 1
    try:
        for _ in range(outer.b - 1):
            need = g.modulus(need)
    except ModulusExhausted as e:
        raise HorizonExhausted(f"depth-insufficient: {e}") from e
    l3 = max(outer.l + 1, need)
    if l3 > f.depth:
        raise HorizonExhausted(f"depth-insufficient: lookup length {l3} exceeds depth {f.depth}")

    def j3(w: str) -> int:
        m = outer.j(w[: outer.l])
        total = 0
        cur = w
        for _ in range(m):
            total += inner.j(cur[: inner.l])
            cur = g.apply(cur)
        return total

    return PiecewiseIterate(l3, b3, f, j3)


class Refinement(NamedTuple):
    child: DynSystem
    cert: PiecewiseIterate
    case: str
    meta: dict


def check_refinement_cert(r: Refinement, max_len: int = 12) -> Report:
    """Cert soundness and invariance, exhaustive for ``l ≤ |σ| ≤ max_len``:
    the child's map equals ``f^{j(σ↾l)}(σ)`` on every σ, and sends every
    child member to a child member."""
    rep = Report()
    cert = r.cert
    f = cert.base
    member = r.child.space.member
    cap = min(max_len, r.child.depth)
    for n in range(cert.l, cap + 1):
        for w in all_words(f.k, n):
            want = f.iterate(w, cert.j(w[: cert.l]))
            got = r.child.map.apply(w)
            if got != want:
                rep.add("cert-soundness", w, f"child map {got!r} != f^j {want!r}")
            if member(w) and not member(want):
                rep.add("cert-invariance", w, f"f^j image {want!r} leaves the child")
    return rep


def check_piecewise_samples(cert: PiecewiseIterate, against: CodedMap,
                            samples: int, seed: int = 0) -> Report:
    """Sampled cert soundness for depths too wide to scan: each word has a
    uniform length from ``l`` to the depth, and over two letters is one
    ``getrandbits`` draw."""
    rep = Report()
    rng = random.Random(seed)
    f = cert.base
    alpha = "012"[: f.k]
    for _ in range(samples):
        n = rng.randint(cert.l, f.depth)
        if f.k == 2:
            w = format(rng.getrandbits(n), f"0{n}b") if n else ""
        else:
            w = "".join(rng.choices(alpha, k=n))
        want = f.iterate(w, cert.j(w[: cert.l]))
        if against.apply(w) != want:
            rep.add("cert-soundness", w, "sampled mismatch")
    return rep


class OpenRequest(NamedTuple):
    """A stagewise enumerated set of strings: ``entries`` are ``(stage, word)``
    pairs, and the set at stage ``s`` holds every word enumerated by then."""

    name: str
    entries: tuple[tuple[int, str], ...]

    @staticmethod
    def static(name: str, words) -> "OpenRequest":
        return OpenRequest(name, tuple((0, w) for w in sorted(set(words))))

    def short_elements(self, s: int, k: int) -> list[str]:
        return sorted(w for st, w in self.entries if st <= s and len(w) <= s)

    def make_avoidance(self, f: CodedMap) -> "RequestAvoidance":
        return RequestAvoidance(f, self)


class PredicateRequest(NamedTuple):
    """An open set given by a decidable predicate on words (stage-free)."""

    name: str
    pred: Callable[[str], bool]

    def short_elements(self, s: int, k: int) -> list[str]:
        return [w for w in words_up_to(k, s) if self.pred(w)]

    def make_avoidance(self, f: CodedMap) -> PredicateAvoidance:
        return PredicateAvoidance(f, self.pred)


class RequestAvoidance(OrbitAvoidance):
    """D₀ condition for a stagewise request: no iterate, up to the word's own
    length, extends an element enumerated by that stage.  Each element
    switches on at the least stage that enumerates it."""

    __slots__ = ()
    # own bindings: the benchmark tracer patches these per class, by name
    ok = OrbitAvoidance.ok
    ok_extension = OrbitAvoidance.ok_extension

    def __init__(self, map_: CodedMap, request: OpenRequest):
        stage: dict[str, int] = {}
        for st, w in request.entries:
            stage[w] = min(st, stage.get(w, st))
        super().__init__(map_, stage)


def meet_or_avoid(sys_: DynSystem, request) -> tuple[Refinement, str]:
    """Refine to avoid the request forever, or into it.

    Avoid: the words none of whose iterates (within their own length) extend
    an enumerated element still reach full depth; they form the child with
    the same map.  Meet: the avoidance tree dies at length ``s``; the child
    keeps words that are short or extend a by-stage-``s`` element, with the
    induced map jumping each long-enough word forward until it lands inside.
    The meet child is reached from anywhere in the parent within ``s + 1``
    steps of the parent map.  One search of the avoidance tree gives both.
    """
    f = sys_.map
    N = sys_.depth
    space = sys_.space
    avoid = request.make_avoidance(f)
    # memoized: the avoid child keeps the decisions of the search below
    d0 = memo_class(avoidance_class(space, avoid, name=f"{space.name}~{request.name}"))
    s = death_length(d0, N)
    if s is None:
        child = DynSystem(d0, f)
        return Refinement(child, trivial_cert(f), case="avoid",
                          meta={"request": request.name}), "avoid"

    targets = request.short_elements(s, sys_.k)
    if not targets:
        raise HorizonExhausted(f"meet case with no short elements at stage {s}")
    core = prefix_core(targets)

    def d1_pred(w: str) -> bool:
        return len(w) < s or has_prefix_in(w, core)

    d1 = restrict_class(space, d1_pred, name=f"{space.name}→{request.name}")
    l = f.modulus(s)

    def jfunc(w: str) -> int:
        if not space.member(w):
            return 1
        k = f.hit_time(w, lambda u: has_prefix_in(u, core), 1, s + 1)
        if k is None:
            raise HorizonExhausted(f"no landing exponent for {w!r} within {s + 1}")
        return k

    cert = PiecewiseIterate(l, s + 1, f, jfunc)
    child = DynSystem(d1, cert.induced())
    return Refinement(child, cert, case="meet",
                      meta={"request": request.name, "s": s, "reach_back": s + 1}), "meet"


class Phi1Predicate(NamedTuple):
    """A decidable two-place formula with an optional word parameter."""

    name: str
    fn: Callable[[int, str, str | None], bool]
    param: str | None = None

    def __call__(self, m: int, tau: str) -> bool:
        return self.fn(m, tau, self.param)


def least_element_forcing(sys_: DynSystem, phi: Phi1Predicate
                          ) -> tuple[Refinement, tuple[str, int | None]]:
    """Refine so the least witness of ``∃s φ(m, X↾s)`` is constant.

    Outcome ``("empty", None)``: no member of the child has any witness.
    Outcome ``("least", b)``: every full-depth member's least witness is b.
    The bound ``b`` is the least one whose request ``O(<= b)`` is met: τ is
    in it when ``least(τ)``, the least ``m ≤ N`` with ``φ(m, τ)``, is ``≤ b``.
    """
    N = sys_.depth
    least = functools.cache(lambda tau: next((m for m in range(N + 1) if phi(m, tau)), N + 1))

    def o_le(b: int) -> Callable[[str], bool]:
        return lambda tau: least(tau) <= b

    for b in range(N + 1):
        ref, case = meet_or_avoid(sys_, PredicateRequest(f"O(<= {b})", o_le(b)))
        if case == "meet":
            break
    else:
        # the avoid child of O(<= N): no member has a witness up to N
        return ref, ("empty", None)

    child = ref.child
    if b > 0:
        carve = avoidance_class(child.space, PredicateAvoidance(child.map, o_le(b - 1)),
                                name=f"{child.space.name}~O(<{b})")
        if find_member(carve, N) is None:
            raise InconsistentDepth(
                f"carve below least witness {b} emptied at depth; working depth too small")
        child = DynSystem(carve, child.map)
    return Refinement(child, ref.cert, case="least", meta={"b": b}), ("least", b)


class NbhResult(NamedTuple):
    system: DynSystem
    b: int
    avoided: tuple[str, ...]


def nbh_periodicity(sys_: DynSystem, i: int) -> NbhResult:
    """Subsystem with a uniform return bound to every surviving length-``i``
    cylinder.

    The avoided set is grown greedily from the lexicographically largest
    length-``i`` word down, keeping the avoidance tree alive at depth; the
    result is inclusion-maximal, so adjoining any surviving word kills the
    tree and its death length bounds the return time into that word's
    cylinder.  One ``death_length`` search decides each member word and
    bounds a rejected one; it is repeated only if a later word is adopted.

    Every search restricts one ``memo_class`` of the parent, which asks the
    parent's child test once per word for the call.  A candidate's class is
    searched once, so it gets no memo; the returned class gets its own, since
    every later stage asks it, and is built over the parent itself.  A member's orbit
    stays in the class, so it never enters the cylinder of a non-member:
    forbidding one changes nothing.  Non-members get no search, and join the
    avoided set if the class reaches full depth, which takes at most one
    search of the class itself, made only when no member word is adopted.
    """
    f = sys_.map
    N = sys_.depth
    parent = memo_class(sys_.space)
    members = set(iter_members(parent, i))
    non_members = [w for w in all_words(sys_.k, i) if w not in members]

    def death(words: list[str]) -> int | None:
        return death_length(avoidance_class(parent, OrbitAvoidance(f, words), name="nbh"), N)

    adopted: list[str] = []
    rejected: dict[str, int] = {}  # word -> its death length when rejected
    for w in sorted(members, reverse=True):
        dl = death(adopted + [w])
        if dl is None:
            adopted.append(w)
        else:
            rejected[w] = dl
    # a later adoption shrinks a rejected word's class, which stays dead
    b = max([1] + [death(adopted + [w]) if adopted and w > adopted[-1] else dl
                   for w, dl in rejected.items()])
    alive = bool(adopted)
    if non_members and not alive:
        s = death_length(parent, N)
        alive, b = s is None, max(b, s or 1)
    space = sys_.space if not adopted else memo_class(avoidance_class(
        sys_.space, OrbitAvoidance(f, adopted), name=f"{sys_.space.name}·nbh({i})"))
    avoided = tuple(sorted(adopted + non_members)) if alive else ()
    return NbhResult(DynSystem(space, f), b, avoided)


class ApStageRecord(NamedTuple):
    kind: str                  # "request" | "periodicity"
    label: str
    case: str = ""
    s: int | None = None
    cylinder: int | None = None
    return_bound: int | None = None
    chain_bound: int = 1
    avoided: tuple[str, ...] = ()


class ApForcingLog(NamedTuple):
    stages: tuple[ApStageRecord, ...]
    chain: PiecewiseIterate
    final: DynSystem

    def to_json(self):
        return [{"kind": st.kind, "label": st.label, "case": st.case,
                 "s": st.s, "cylinder": st.cylinder, "return_bound": st.return_bound,
                 "chain_bound": st.chain_bound, "avoided": list(st.avoided)}
                for st in self.stages]


def construct_ap_point(sys_: DynSystem, requests: list[OpenRequest], c_max: int = 4
                       ) -> tuple[PointApprox, APCert, ApForcingLog]:
    """Interleave request forcing and neighborhood periodicity, requests
    first, and return the lexicographically least survivor with a verified
    almost-periodicity certificate over the original map.

    Certificate rows carry the least gap bound that verifies at depth; the
    log keeps each stage's periodicity bound and the chain's certificate
    bound at that stage.
    """
    f0 = sys_.map
    N = sys_.depth
    if c_max >= N:  # the row for cylinder length c needs a gap b >= 1 with c + b <= N
        raise ValueError(f"c_max {c_max} must be below depth {N} to verify a gap bound")
    chain = trivial_cert(f0)
    cur = DynSystem(sys_.space, chain.induced())
    # the same map one meet factor at a time, for the chain's soundness check
    stepwise = cur.map
    stages: list[ApStageRecord] = []

    for t in range(max(len(requests), c_max)):
        if t < len(requests):
            ref, case = meet_or_avoid(cur, requests[t])
            if case == "meet":
                chain = compose(ref.cert, chain)
                cur = DynSystem(ref.child.space, chain.induced())
                stepwise = PiecewiseIterate(ref.cert.l, ref.cert.b, stepwise,
                                            ref.cert.j).induced()
            else:
                cur = ref.child
            stages.append(ApStageRecord("request", requests[t].name, case=case,
                                        s=ref.meta.get("s"), chain_bound=chain.b))
        if t < c_max:
            res = nbh_periodicity(cur, t + 1)
            cur = res.system
            stages.append(ApStageRecord("periodicity", f"i={t + 1}", cylinder=t + 1,
                                        return_bound=res.b, chain_bound=chain.b,
                                        avoided=res.avoided))

    log = ApForcingLog(tuple(stages), chain, DynSystem(cur.space, stepwise))
    word = find_member(cur.space, N)
    if word is None:
        raise HorizonExhausted("no full-depth survivor after forcing", partial=log)
    X = sys_.point(word)
    orb = f0.orbit(word, N)
    cert = APCert(tuple(least_ap_row(X, orb, c) for c in range(1, c_max + 1)))
    return X, cert, log
