"""Closed classes, dynamical systems, and the two witness-certificate formats.

A :class:`ClosedClass` is a depth-truncated tree of words given by its child
test, optionally with a stagewise removal schedule (effectively-closed
semantics: a removed node stays removed, so membership can only shrink as
the stage grows).  A :class:`DynSystem` pairs a class with a normalized
:class:`~cantordyn.maps.CodedMap` mapping class nodes into the class.

Certificates store explicit witnesses so an independent verifier can re-check
them without re-running the constructions that produced them.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .errors import DepthExceeded
from .maps import CodedMap
from .words import has_prefix_in, is_prefix_in, periodic_word, prefix_core, rotations


class ClosedClass:
    """A depth-truncated tree of words, given by its child test.

    ``step(w)`` decides whether ``w`` survives given that its parent
    ``w[:-1]`` does; ``member`` runs it along every prefix, so the class is
    downward closed by construction, and the searches run it once per node.
    ``member_at`` decides membership at an earlier stage when a schedule is
    present.  A schedule is monotone by construction: a member at a later
    stage is a member at every earlier stage.  ``columns`` is ``None`` except
    on the space of a :func:`~cantordyn.minimal.product_system`, where it
    holds one class per column.
    """

    __slots__ = ("k", "depth", "name", "columns", "_member_at", "_step")

    def __init__(self, k: int, depth: int, step: Callable[[str], bool], *,
                 member_at: Callable[[str, int], bool] | None = None,
                 name: str = "class"):
        self.k = k
        self.depth = depth
        self.name = name
        self.columns: list[ClosedClass] | None = None
        self._member_at = member_at
        self._step = step

    def __repr__(self):
        return f"ClosedClass({self.name}, k={self.k}, depth={self.depth})"

    def member(self, word: str, stage: int | None = None) -> bool:
        if len(word) > self.depth:
            raise DepthExceeded(f"|word| > depth {self.depth} of {self.name}")
        if stage is not None and self._member_at is not None:
            return self._member_at(word, stage)
        step = self._step
        return all(step(word[:i]) for i in range(len(word) + 1))

    def member_step(self, word: str) -> bool:
        """Membership assuming all proper prefixes are members."""
        return self._step(word)


def full_class(k: int, depth: int) -> ClosedClass:
    return ClosedClass(k, depth, lambda w: True, name=f"full({k})")


def forbidden_window_class(k: int, depth: int, words: Iterable[str]) -> ClosedClass:
    """Subshift-of-finite-type tree: no forbidden word occurs at any offset."""
    forb = sorted(set(words))
    if any(not w for w in forb):
        raise ValueError("empty forbidden word")
    fset, lens = frozenset(forb), sorted({len(w) for w in forb})
    # only windows ending at the new letter can newly fail; a word shorter
    # than t is its own window, found by the test at its own length if at all
    if len(lens) == 1:
        t = lens[0]
        step = lambda w: w[-t:] not in fset
    else:
        step = lambda w: not any(w[-t:] in fset for t in lens)

    return ClosedClass(k, depth, step, name=f"sft(~{','.join(forb)})")


def explicit_class(k: int, depth: int, nodes: Iterable[str]) -> ClosedClass:
    """Prefix closure of an explicit node list."""
    listed = sorted(set(nodes))
    return ClosedClass(k, depth, lambda w: is_prefix_in(w, listed), name="explicit")


def stagewise_class(k: int, depth: int, removals: Iterable[tuple[int, str]],
                    stage_horizon: int) -> ClosedClass:
    """Full tree minus nodes removed (with all extensions) at given stages."""
    sched = sorted((int(s), w) for s, w in removals)
    removed = {w for s, w in sched if s <= stage_horizon}

    def member_at(w: str, s: int) -> bool:
        return not any(st <= s and w.startswith(node) for st, node in sched)

    return ClosedClass(k, depth, lambda w: w not in removed, member_at=member_at,
                       name="stagewise")


def orbit_class(generator: str, k: int, depth: int) -> ClosedClass:
    """Prefix closure of the shift orbit of ``generator^ω`` at depth."""
    points = sorted({periodic_word(r, depth) for r in rotations(generator)})
    cls = explicit_class(k, depth, points)
    cls.name = f"orbit({generator})"
    return cls


def restrict_class(base: ClosedClass, step: Callable[[str], bool], name: str) -> ClosedClass:
    """``base`` intersected with the class whose child test is ``step``."""
    base_step = base._step
    return ClosedClass(base.k, base.depth, lambda w: base_step(w) and step(w), name=name)


def memo_class(base: ClosedClass) -> ClosedClass:
    """``base`` with its child test asked once per word.  Sound for searches:
    they ask the test only when every proper prefix passed, and there it is a
    function of the word alone.  A class whose test is already cached comes
    back as it is: a memo of a memo holds the same answers."""
    if hasattr(base._step, "cache_info"):
        return base
    return ClosedClass(base.k, base.depth, functools.cache(base._step), name=base.name)


def cylinder_class(base: ClosedClass, words: Iterable[str], name: str) -> ClosedClass:
    """``base`` restricted to the union of the cylinders of ``words``: the
    words that are a prefix of one of them or extend one.  A listed word's
    ancestor in their prefix-free core is a prefix of ``w`` or extends it."""
    core = prefix_core(words)
    return restrict_class(base, lambda w: is_prefix_in(w, core) or has_prefix_in(w, core), name)


class _DynSystem(NamedTuple):
    space: ClosedClass
    map: CodedMap


class DynSystem(_DynSystem):
    """A closed class together with a normalized map acting on it."""

    __slots__ = ()

    def __new__(cls, space: ClosedClass, map: CodedMap):
        if space.k != map.k:
            raise ValueError("alphabet mismatch between class and map")
        return super().__new__(cls, space, map)

    @property
    def k(self) -> int:
        return self.space.k

    @property
    def depth(self) -> int:
        return self.space.depth

    def point(self, prefix: str) -> "PointApprox":
        return PointApprox(prefix, self)


class _PointApprox(NamedTuple):
    prefix: str
    system: DynSystem


class PointApprox(_PointApprox):
    """A depth-long prefix of a point of the parent system's class."""

    __slots__ = ()

    def __new__(cls, prefix: str, system: DynSystem):
        if len(prefix) != system.depth:
            raise ValueError("point prefix must have full depth")
        return super().__new__(cls, prefix, system)


class RecCert(NamedTuple):
    """Recurrence witnesses: one ``(c, n, l)`` row per cylinder length with
    ``f^n(X↾l) ⪰ X↾c``."""

    entries: tuple[tuple[int, int, int], ...]

    def to_json(self):
        return {"entries": [list(e) for e in self.entries]}


class APRow(NamedTuple):
    """One almost-periodicity row: cylinder length ``c``, gap bound ``b``, and
    a witness ``k < b`` for every start ``n`` in the decidable range
    ``0 ≤ n ≤ N − b − c``.  A constructed witness is never ``None``: the row
    covers only those starts, and each returns within ``b``.  ``verify_ap``
    still rejects a ``None`` witness."""

    c: int
    b: int
    witnesses: tuple[int | None, ...]


class APCert(NamedTuple):
    rows: tuple[APRow, ...]

    def to_json(self):
        return {"rows": [{"c": r.c, "b": r.b,
                          "witnesses": list(r.witnesses)}
                         for r in self.rows]}


class Report:
    """Diagnostic report: a list of (condition, witness, detail) violations."""

    def __init__(self, entries: list[tuple[str, str, str]] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, condition: str, witness: str, detail: str = ""):
        self.entries.append((condition, witness, detail))

    def summary(self) -> str:
        """The first three violations on one line, and how many more."""
        if self.ok:
            return "ok"
        text = "; ".join(f"{c} @ {w!r}" + (f" ({d})" if d else "")
                         for c, w, d in self.entries[:3])
        more = len(self.entries) - 3
        return text + (f" (and {more} more)" if more > 0 else "")

    def to_json(self):
        return {"ok": self.ok,
                "violations": [{"condition": c, "witness": w, "detail": d}
                               for c, w, d in self.entries]}


def _check_nonempty(rep: Report, space: ClosedClass, depth: int) -> Report:
    from .search import find_member
    if not space.member(""):
        rep.add("nonempty", "", "root not a member")
    elif find_member(space, depth) is None:
        rep.add("nonempty", "", f"no member of length {depth}")
    return rep


def validate_system(sys_: DynSystem, max_len: int | None = None) -> Report:
    """Check the three system conditions at depth (map, nonempty and forward
    invariance), exhaustively up to a cap.

    The cap defaults to ``min(depth, 12)``; beyond it the class is too wide to
    scan and rule-level construction is trusted.  Forward invariance is tested
    on members only, through the map's rule, so no memo is left behind, and
    nonemptiness at full depth always by search.  Violations sort stably by
    length.
    """
    from .search import live_nodes

    space, f = sys_.space, sys_.map
    cap = min(sys_.depth, 12) if max_len is None else min(max_len, sys_.depth)
    rep = Report()
    for msg in f.check(cap):
        rep.add("map", "", msg)
    _check_nonempty(rep, space, sys_.depth)
    left = [(w, fw) for w in live_nodes(space, cap)
            if not space.member(fw := f._rule(w))]
    for w, fw in sorted(left, key=lambda v: len(v[0])):
        rep.add("forward-invariance", w, f"f({w!r}) = {fw!r} leaves the class")
    return rep


def verify_recurrence(X: PointApprox, cert: RecCert) -> bool:
    """Check every row ``(c, n, l)``: ``l > c``, ``n ≥ 1`` and
    ``f^n(X↾l) ⪰ X↾c`` with the iterate long enough to decide.

    Rows produced by the constructions always satisfy the stronger ``n > c``;
    verification accepts any positive return time.
    """
    N = X.system.depth
    f = X.system.map
    for c, n, l in cert.entries:
        if not (0 < l <= N and l > c and n >= 1):
            return False
        if l > len(X.prefix):
            raise DepthExceeded(f"certificate row beyond depth: l={l}")
        it = f.iterate(X.prefix[:l], n)
        if len(it) < c or not it.startswith(X.prefix[:c]):
            return False
    return True


def verify_ap(X: PointApprox, cert: APCert) -> bool:
    """Check the bounded-gap form row by row.

    For row ``(c, b)`` every start ``n ≤ N − b − c`` must carry a witness
    ``k < b`` with ``f^{n+k}(X↾N) ⪰ X↾c``; larger ``n`` leave no room to
    decide an extension of length ``c`` at depth and are not constrained.
    """
    N = X.system.depth
    f = X.system.map
    orb = f.orbit(X.prefix, N)
    for row in cert.rows:
        c, b = row.c, row.b
        if b < 1 or c < 1:
            return False
        last = N - b - c
        if len(row.witnesses) != max(0, last + 1):
            return False
        for n in range(last + 1):
            k = row.witnesses[n]
            if k is None or not 0 <= k < b:
                return False
            it = orb[n + k]
            if len(it) < c or not it.startswith(X.prefix[:c]):
                return False
    return True


def return_waits(orb: list[str], target: str) -> list[int | None]:
    """For each start ``n``, the steps from ``orb[n]`` to the next iterate
    that extends ``target`` (None when no later iterate does)."""
    waits: list[int | None] = [None] * len(orb)
    hit = None
    for n in range(len(orb) - 1, -1, -1):
        if orb[n].startswith(target):
            hit = n
        if hit is not None:
            waits[n] = hit - n
    return waits


def least_ap_row(X: PointApprox, orb: list[str], c: int) -> APRow:
    """The row ``(c, b)`` with the least gap bound ``b`` that verifies on
    ``orb``, the orbit of ``X``, for ``1 ≤ c < N``.  Bound ``b`` holds when
    every start ``n ≤ N − b − c`` waits less than ``b``, so one running
    maximum of the waits decides every ``b``; the witnesses are the waits.
    A row always exists: ``b = N − c`` leaves the one start ``n = 0``, which
    waits 0 since ``orb[0]`` is ``X`` itself."""
    N = X.system.depth
    if not 1 <= c < N:
        raise ValueError(f"cylinder length {c} must be in 1..{N - 1}")
    waits = return_waits(orb, X.prefix[:c])
    # running[n]: the longest wait at a start ≤ n; no return counts as N + 1
    running = list(accumulate((N + 1 if k is None else k for k in waits[:N - c]), max))
    b = next(b for b in range(1, N - c + 1) if running[N - b - c] < b)
    return APRow(c, b, tuple(waits[:N - b - c + 1]))
