"""Encoded continuous transformations of Cantor space.

A :class:`CodedMap` is a total, prefix-order-preserving word function whose
output length is controlled by a modulus: a function giving, for each
output length ``l``, a witness ``m`` such that every input of length ``m``
has an image of length at least ``l``.  A map is *normalized* when every
nonempty input strictly shrinks, ``|f(σ)| < |σ|``; all system constructions
assume normalized maps.

Tables given by rule (the shift, the gadget map of the tree reduction) are
materialized lazily with memoization, so validators and certificate checkers
run uniformly over rule-backed and explicit tables.  Hitting times (the
least iterate of a word that passes a test, or that none does within a
bound) come from one orbit walk, :meth:`CodedMap.hit_time`, that stops at λ.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import DepthExceeded, ModulusExhausted
from .words import all_words, check_word, letters


class CodedMap:
    """A word-to-word table encoding a continuous self-map of ``k^ω``.

    ``modulus`` is a function from an output length ``l ≥ 1`` to a witnessed
    input length, or to any length past ``depth`` when none within it is
    known; :meth:`modulus` raises :class:`ModulusExhausted` for those, and
    :meth:`check` asks it at every ``l`` up to the depth.  ``suffix_step``
    marks the fast path ``f(σ) = σ[step:]``.
    ``drop = (l, d)`` marks a variable-drop map: ``f(σ) = σ[min(d(σ↾l), |σ|):]``
    when ``|σ| ≥ l`` and ``f(σ) = λ`` otherwise, with ``d ≥ 1``; the rule
    stays the reference and the descriptor only lets searches follow orbits
    as offsets into σ.
    """

    __slots__ = ("k", "depth", "name", "shrinking", "suffix_step", "drop",
                 "_rule", "_modulus", "_memo")

    def __init__(self, k: int, depth: int, rule: Callable[[str], str],
                 modulus: Callable[[int], int], *, shrinking: bool = False,
                 suffix_step: int | None = None,
                 drop: tuple[int, Callable[[str], int]] | None = None,
                 name: str = "map"):
        self.k = k
        self.depth = depth
        self.name = name
        self.shrinking = shrinking
        self.suffix_step = suffix_step
        self.drop = drop
        self._rule = rule
        self._modulus = modulus
        self._memo: dict[str, str] = {}

    def __repr__(self):
        return f"CodedMap({self.name}, k={self.k}, depth={self.depth})"

    def apply(self, word: str) -> str:
        if len(word) > self.depth:
            raise DepthExceeded(f"|{word!r}| > depth {self.depth} of {self.name}")
        out = self._memo.get(word)
        if out is None:
            out = self._rule(word)
            self._memo[word] = out
        return out

    def iterate(self, word: str, n: int) -> str:
        """``f^n(word)``; exhausted words collapse to the empty word."""
        cur = word
        for _ in range(n):
            if not cur:
                return ""
            cur = self.apply(cur)
        return cur

    def hit_time(self, word: str, hit: Callable[[str], bool], start: int, stop: int
                 ) -> int | None:
        """Least ``n`` in ``[start, stop]`` with ``hit(f^n(word))``, or None.
        λ is a fixed point, so the walk ends once λ has been tested."""
        cur = word
        for n in range(stop + 1 if start <= stop else 0):
            if not cur:
                return max(n, start) if hit(cur) else None
            if n >= start and hit(cur):
                return n
            if n < stop:
                cur = self.apply(cur)
        return None

    def orbit(self, word: str, steps: int) -> list[str]:
        """``[f^0(word), …, f^steps(word)]``."""
        out = [word]
        cur = word
        for _ in range(steps):
            cur = self.apply(cur) if cur else ""
            out.append(cur)
        return out

    def modulus(self, l: int) -> int:
        """A witnessed input length forcing outputs of length ≥ ``l``."""
        if l <= 0:
            return 0
        m = self._modulus(l)
        if m > self.depth:
            raise ModulusExhausted(l, self.name)
        return m

    def check(self, max_len: int | None = None) -> list[str]:
        """Exhaustively check the table invariants up to ``max_len``.

        Returns human-readable violations (empty when clean): ``f(λ)``, then
        order, shrink and moduli.  Order is checked on one-letter extensions,
        which by transitivity covers every prefix pair.  Each image is
        computed once from the rule, without ``apply`` or its memo, a level
        at a time, keeping each level's least image length; a modulus
        rescans its level only when that least length shows it failing.
        """
        cap = self.depth if max_len is None else min(max_len, self.depth)
        alpha = letters(self.k)
        rule = self._rule
        f0 = rule("")
        bad = [f"f(λ) = {f0!r} != λ"] if f0 != "" else []
        order: list[str] = []
        shrink: list[str] = []
        least = [len(f0)]
        words, images = [""], [f0]
        for n in range(1, cap + 1):
            parents = zip(words, images)
            words, images = [], []
            for w, fw in parents:
                for a in alpha:
                    wa = w + a
                    fwa = rule(wa)
                    if not fwa.startswith(fw):
                        order.append(f"order violated: f({w!r})={fw!r} not a prefix of f({wa!r})={fwa!r}")
                    if self.shrinking and len(fwa) >= n:
                        shrink.append(f"shrink violated at {wa!r}: |f| = {len(fwa)}")
                    words.append(wa)
                    images.append(fwa)
            least.append(min(map(len, images)))
        bad += order + shrink
        for l in range(1, self.depth + 1):
            m = self._modulus(l)
            if m <= cap and least[m] < l:
                w = next(w for w in all_words(self.k, m) if len(rule(w)) < l)
                bad.append(f"modulus witness {m} fails for l={l} at {w!r}")
        return bad

    @classmethod
    def from_table(cls, k: int, depth: int, table: Mapping[str, str], *,
                   name: str = "table") -> "CodedMap":
        """Wrap an explicit dense table; totality and letters are enforced,
        the modulus is read off each length's least image length, the shrink
        flag by inspection."""
        tbl = dict(table)
        for n in range(depth + 1):
            for w in all_words(k, n):
                if w not in tbl:
                    raise ValueError(f"table not total: missing {w!r}")
                check_word(tbl[w], k)
        min_out = [min(len(tbl[w]) for w in all_words(k, n)) for n in range(depth + 1)]
        shrinking = all(len(tbl[w]) < n for n in range(1, depth + 1) for w in all_words(k, n))
        return cls(k, depth, tbl.__getitem__,
                   lambda l: next((m for m, out in enumerate(min_out) if out >= l), depth + 1),
                   shrinking=shrinking, name=name)


def normalize(m: CodedMap) -> CodedMap:
    """The shrinking map encoding the same transformation.

    ``f̂(σ)`` is the longest prefix of ``f(σ)`` of length ≤ ``|σ| − 1`` (and
    ``f̂(λ) = λ``); each modulus witness shifts by at most one.
    """
    if m.shrinking:
        return m

    def rule(w: str) -> str:
        if not w:
            return ""
        out = m.apply(w)
        return out[:min(len(out), len(w) - 1)]

    return CodedMap(m.k, m.depth, rule, lambda l: max(m._modulus(l), l + 1),
                    shrinking=True, name=f"normalize({m.name})")


def builtin_map(kind: str, k: int, depth: int, *, columns: int | None = None) -> CodedMap:
    """The named normalized map: ``left-shift``, ``identity`` (normalized to
    drop the last letter) or ``column-shift`` over interleaved columns, where
    position ``p`` belongs to column ``p mod columns``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if kind == "left-shift":
        return CodedMap(k, depth, lambda w: w[1:], lambda l: l + 1,
                        shrinking=True, suffix_step=1, name="left-shift")
    if kind == "identity":
        return CodedMap(k, depth, lambda w: w[:-1], lambda l: l + 1,
                        shrinking=True, name="identity")
    if kind == "column-shift":
        if not columns or columns < 1:
            raise ValueError("column-shift needs a positive column count")
        c = columns
        return CodedMap(k, depth, lambda w: w[c:], lambda l: l + c,
                        shrinking=True, suffix_step=c, name=f"column-shift({c})")
    raise ValueError(f"unsupported builtin map kind {kind!r}")

