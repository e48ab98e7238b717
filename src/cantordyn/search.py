"""Depth-first tree search over closed classes, and orbit avoidance.

Everything here is exhaustive and deterministic: :func:`live_nodes`, the one
search loop, expands letters in lexicographic order, so "the member found"
always means the lexicographically least one.  It keeps an explicit stack, so
Python's recursion limit does not bound the working depth.  A search is
narrowed only by restricting its class: ``restrict_class`` and
``cylinder_class`` in :mod:`cantordyn.systems`, and :func:`avoidance_class`.

Avoidance conditions provide a full check ``ok(word)`` and an incremental
``ok_extension(word)`` that may assume every proper prefix of the word already
passed (valid along DFS paths).  A full check is one :meth:`CodedMap.hit_time`
walk, testing each iterate by a lookup per forbidden length or by a cached
predicate scan.  :class:`OrbitAvoidance` is the one finite-set orbit-avoidance
condition: a fixed forbidden set is a stagewise request whose words all switch
on at stage 0, and once every word is on, a request takes the same incremental
paths.  For pure suffix maps
(``f(σ) = σ[s:]``) the incremental form only compares the windows that end at
the new letter.  For variable-drop maps (:attr:`CodedMap.drop`, which every
piecewise iterate of a suffix map carries) the orbit of a word is a chain of
offsets into it, kept per length along the search path by
:class:`DropChain`; a one-letter extension then only adds the windows that
end at the new letter or start at the one offset the extension may add to
the chain.
"""

from __future__ import annotations

import functools
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .maps import CodedMap
from .systems import ClosedClass, restrict_class
from .words import letters


class DropChain:
    """Orbit offsets of the words on one search path under a variable-drop
    map ``f(σ) = σ[min(d(σ↾l), |σ|):]`` (see :attr:`CodedMap.drop`).

    The orbit of σ is ``σ[p:]`` over the offsets ``p`` of a chain that starts
    at 0 and steps from ``p`` to ``p + d(σ[p:p+l])`` once ``σ[p:]`` has at
    least ``l`` letters, followed by λ.  Extending σ by one letter keeps every
    offset and adds at most one: the frontier of the chain enters the word,
    or the last offset's block of ``l`` letters just completed.

    Entry ``L`` of the path holds a word of length ``L``, its offsets as a
    bitmask and the chain's frontier (the last offset reached: inside the
    word with fewer than ``l`` letters after it, or at least ``L``).  An entry
    is reused only for an extension of its own word, so results never depend
    on call order, and the path holds at most one entry per length.
    """

    __slots__ = ("l", "d", "_path")

    def __init__(self, drop: tuple[int, Callable[[str], int]]):
        self.l, self.d = drop
        self._path: dict[int, tuple[str, int, int]] = {}

    def _walk(self, word: str) -> tuple[int, int]:
        """Offsets bitmask and frontier of ``word``, from scratch."""
        L, l, d = len(word), self.l, self.d
        mask = f = 0
        while f < L:
            mask |= 1 << f
            if f + l > L:
                break
            f += d(word[f:f + l])
        return mask, f

    def _advance(self, word: str) -> tuple[int, int]:
        """Offsets bitmask of a nonempty ``word`` and the offset its last
        letter added to the chain (−1 when it added none)."""
        L = len(word)
        prev = self._path.get(L - 1)
        if prev is not None and word.startswith(prev[0]):
            _, mask, f = prev
        else:
            mask, f = self._walk(word[:-1])
        new = -1
        if f == L - 1:
            mask |= 1 << f
            new = f
        l, d = self.l, self.d
        while f < L and f + l <= L:
            f += d(word[f:f + l])
            if f < L:
                mask |= 1 << f
                new = f
        self._path[L] = (word, mask, f)
        return mask, new

    def new_hit(self, word: str, lens: Sequence[int], words: Container[str]) -> bool:
        """Whether a window of the orbit of ``word`` that the orbit of
        ``word[:-1]`` lacks is in ``words`` (of the given lengths): one that
        ends at the new letter, or one that starts at the added offset."""
        mask, new = self._advance(word)
        L = len(word)
        for t in lens:
            p = L - t
            if p >= 0 and mask >> p & 1 and word[p:] in words:
                return True
            if 0 <= new <= p and word[new:new + t] in words:
                return True
        return False


class OrbitAvoidance:
    """The forever-avoidance condition ``∀n ≤ |σ|: f^n(σ) ⊉ τ`` for τ in a
    finite forbidden set whose words may switch on in stages: τ counts
    against σ once its stage is at most ``|σ|``.  A plain iterable of words
    puts every word at stage 0.  Downward closed and forward invariant for
    normalized maps.

    The incremental check needs every word switched on, so words no longer
    than the last stage get the full check.
    """

    __slots__ = ("map", "stage", "lens", "_last_stage", "_suffix", "_chain")

    def __init__(self, map_: CodedMap, forbidden: Iterable[str] | Mapping[str, int]):
        self.map = map_
        self.stage = (dict(forbidden) if isinstance(forbidden, Mapping)
                      else dict.fromkeys(forbidden, 0))
        self.lens = sorted({len(w) for w in self.stage})
        self._last_stage = max(self.stage.values(), default=0)
        self._suffix = map_.suffix_step if map_.suffix_step else None
        self._chain = DropChain(map_.drop) if map_.drop else None

    def ok(self, word: str) -> bool:
        if not self.lens:
            return True
        L, stage, lens = len(word), self.stage, self.lens
        return self.map.hit_time(
            word, lambda cur: any(stage.get(cur[:t], L + 1) <= L for t in lens), 0, L) is None

    def ok_extension(self, word: str) -> bool:
        L = len(word)
        if L <= self._last_stage:
            return self.ok(word)
        s = self._suffix
        if s is None:
            if self._chain is None:
                return self.ok(word)
            return not self._chain.new_hit(word, self.lens, self.stage)
        for t in self.lens:
            off = L - t
            if off >= 0 and off % s == 0 and word[off:] in self.stage:
                return False
        return True


class PredicateAvoidance:
    """Avoidance of every word satisfying a predicate: ``∀n ≤ |σ|`` no prefix
    of ``f^n(σ)`` satisfies it.  Used by the Δ₁-forcing constructions, where
    the forbidden set is given by a formula instead of a list."""

    __slots__ = ("map", "pred", "_word_hit")

    def __init__(self, map_: CodedMap, pred):
        self.map = map_
        self.pred = pred
        self._word_hit = functools.cache(
            lambda w: any(pred(w[:t]) for t in range(len(w) + 1)))

    def ok(self, word: str) -> bool:
        return self.map.hit_time(word, self._word_hit, 0, len(word)) is None

    def ok_extension(self, word: str) -> bool:
        return self.ok(word)


def live_nodes(space: ClosedClass, cap: int) -> Iterator[str]:
    """Every word of length ≤ ``cap`` that passes ``space.member_step`` along
    with all its prefixes, in depth-first lexicographic preorder.  Each word
    is checked once, right after its parent is yielded, so the check may be
    incremental, and may read state the caller updated at the parent."""

    step = space.member_step
    if not step(""):
        return
    yield ""
    alpha = letters(space.k)
    stack = [("", iter(alpha))] if cap > 0 else []
    while stack:
        w, rest = stack[-1]
        for a in rest:
            u = w + a
            if step(u):
                yield u
                if len(u) < cap:
                    stack.append((u, iter(alpha)))
                break
        else:
            stack.pop()


def find_member(space: ClosedClass, length: int) -> str | None:
    """Lexicographically least member of the given length, or None."""
    for w in live_nodes(space, length):
        if len(w) == length:
            return w
    return None


def iter_members(space: ClosedClass, length: int, limit: int | None = None) -> list[str]:
    """All members of the given length (lexicographic order), up to ``limit``."""
    out: list[str] = []
    for w in live_nodes(space, length):
        if len(w) == length:
            out.append(w)
            if limit is not None and len(out) >= limit:
                break
    return out


def death_length(space: ClosedClass, cap: int) -> int | None:
    """Least ``s ≤ cap`` such that no word of length ``s`` survives (0 when
    even the root fails), or None if the tree is alive at ``cap``."""
    longest = -1
    for w in live_nodes(space, cap):
        if len(w) == cap:
            return None
        longest = max(longest, len(w))
    return longest + 1


def avoidance_class(base: ClosedClass, avoid, name: str) -> ClosedClass:
    """``base`` restricted by one orbit-avoidance condition, as a ClosedClass
    whose child test is the condition's incremental check."""
    return restrict_class(base, avoid.ok_extension, name)
