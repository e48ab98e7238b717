"""Minimal subsystems and the halting-bit coding systems.

The greedy chain asks, in length-lexicographic order, whether each basic
cylinder can be removed: the candidate class keeps only words none of whose
iterates (up to their own length) enter the cylinder, and the removal is
adopted exactly when that class still has a full-depth member.  Cylinders
extending an adopted one are never generated: their removal is already
implied, and the chain rebuilds those entries only when they are read.  On a
column product one transfer across the columns decides each length's words.

The bit coders realize the stagewise classes of the halting coding: until the
simulated entry stage the class is the switch tree (prefixes of ``0^a 1^ω``
and ``1^a 0^ω``); at a finite entry stage ``t`` it refines to the periodic
orbit class generated by ``(0^t 1^t)^ω``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import NotMinimal, UndecidedAtDepth
from .maps import builtin_map
from .search import (OrbitAvoidance, avoidance_class, death_length,
                     find_member, iter_members)
from .systems import ClosedClass, DynSystem, orbit_class
from .words import letters, words_up_to

_DECODE_MEMBER_LIMIT = 4096   # decode_members: a wider class is not minimal at depth


class RemovalStage(NamedTuple):
    word: str
    pruned: bool
    vacuous: bool
    class_after: ClosedClass


class RemovalChain:
    """The decisions of the greedy chain over the words of length 1..``enum_len``."""

    def __init__(self, k: int, enum_len: int, decisions: list[RemovalStage] | None = None):
        self.k = k
        self.enum_len = enum_len
        self.decisions = [] if decisions is None else decisions

    @property
    def stages(self) -> list[RemovalStage]:
        """Every entry in length-lexicographic order: an implied one leaves the
        class as it was (the first word, ``0``, is always decided)."""
        decided = {st.word: st for st in self.decisions}
        out: list[RemovalStage] = []
        for word in words_up_to(self.k, self.enum_len):
            if word:
                out.append(decided.get(word) or RemovalStage(word, True, True, out[-1].class_after))
        return out

    def pruned_words(self) -> list[str]:
        return [st.word for st in self.decisions if st.pruned]

    def to_json(self):
        return [{"word": st.word, "pruned": st.pruned, "vacuous": st.vacuous}
                for st in self.stages]


def minimal_subsystem(sys_: DynSystem, enum_len: int = 4) -> tuple[DynSystem, RemovalChain]:
    """Greedy minimal-subsystem extraction over cylinders of length ≤ ``enum_len``.

    Returns the pruned system and the audit chain.  The enumeration order
    (length-lexicographic) is part of the reproducibility contract: a
    different order can land on a different, equally minimal subsystem.

    The candidates of length ``L + 1`` are the one-letter extensions of the
    words rejected at length ``L``: the extensions of an adopted or implied
    word are implied, so no implied removal is ever visited.

    Only the nonemptiness of each candidate matters, so on a
    :func:`product_system` under its own column shift with ``enum_len`` at
    most two rows (``2·cols``), :func:`_column_level` decides a whole level
    with one transfer over the column members, listed once; the candidate
    class is built only for an adopted removal.  Every other system runs the
    search, one candidate at a time.
    """
    f = sys_.map
    N = sys_.depth
    current = sys_.space
    columns = sys_.space.columns
    adopted: list[str] = []
    chain = RemovalChain(sys_.k, enum_len)

    def candidate(words: list[str]) -> ClosedClass:
        return avoidance_class(sys_.space, OrbitAvoidance(f, words),
                               name=f"{sys_.space.name}\\[{','.join(words)}]")

    if columns and f.suffix_step == len(columns) and enum_len <= 2 * len(columns):
        members = [iter_members(c, c.depth) for c in columns]
        patterns: dict = {}

        def decide(frontier: list[str]) -> list[bool]:
            return _column_level(members, columns[0].depth, adopted, frontier, patterns)
    else:
        def decide(frontier: list[str]) -> list[bool]:
            taken: list[str] = []
            for word in frontier:
                if find_member(candidate(adopted + taken + [word]), N) is not None:
                    taken.append(word)
            return [word in taken for word in frontier]

    alpha = letters(sys_.k)
    frontier = list(alpha)
    for _ in range(enum_len):
        if not frontier:
            break
        rejected = []
        for word, pruned in zip(frontier, decide(frontier)):
            if pruned:
                adopted.append(word)
                current = candidate(adopted)
            else:
                rejected.append(word)
            chain.decisions.append(RemovalStage(word, pruned, False, current))
        frontier = [w + a for w in rejected for a in alpha]
    return DynSystem(current, f), chain


def _column_level(members: list[list[str]], depth: int, adopted: list[str],
                  frontier: list[str], patterns: dict) -> list[bool]:
    """The greedy decisions on ``frontier``, in order, given ``adopted``: a
    word is removed when some choice of one member of length ``depth`` per
    column, interleaved into rows, puts no adopted word and no word removed
    before it at a row start ``r·cols`` where it fits
    (``r·cols + |τ| ≤ cols·depth``).  Words have at most ``2·cols`` letters.

    One transfer across the columns decides the level.  A state keeps its
    open rows as ``(r, mask of the words that the row's letters, and the next
    row's head letters, still agree with)`` and the mask of the frontier
    words put at a row start; it advances over the distinct letters that the
    column's members show on its open rows, less those completing an adopted
    word (kept in ``patterns`` across one chain's levels).  A word is removed
    iff some final mask lacks it; removing it drops every mask that has it.
    """
    cols = len(members)
    words = frontier + adopted
    dead = (1 << len(words)) - (1 << len(frontier))   # completing one kills a state
    heads = max(map(len, words)) - cols
    ending = [0] * (2 * cols)   # the words of each length
    for i, w in enumerate(words):
        ending[len(w) - 1] |= 1 << i
    # a long word never fits the last row: no head letter there agrees with it
    states = {(tuple((r, (1 << len(words)) - 1) for r in range(depth)), 0)}
    for j, column in enumerate(members):
        g = 2 if j < heads else 1   # letters read per row: its own, and a head letter
        needs: dict[tuple[str, str], int] = {}   # (row letter, head letter) -> words
        for i, w in enumerate(words):
            key = (w[j:j + 1], w[cols + j:cols + j + 1])
            needs[key] = needs.get(key, 0) | 1 << i
        letters = set("".join(column))
        agree = {a: sum(m for (x, y), m in needs.items() if x in ("", a[0]) and y in ("", a[1:]))
                 for a in (letters | {x + y for x in letters for y in letters} if g == 2 else letters)}
        end = ending[j] if j + 1 < cols else -1   # every word left ends at the last column
        banned: dict[int, tuple[str, ...]] = {}
        grown = set()
        for rows, hit in states:
            for _, cand in rows:
                if cand not in banned:
                    banned[cand] = tuple(sorted(a for a, m in agree.items() if cand & m & end & dead))
            key = (j, g, tuple((r, banned[cand]) for r, cand in rows))
            if key not in patterns:
                patterns[key] = list({tuple(c[r:r + g] for r, _ in key[2]) for c in column
                                      if all(c[r:r + g] not in b for r, b in key[2])})
            for pattern in patterns[key]:
                nxt, mask = [], hit
                for (r, cand), a in zip(rows, pattern):
                    cand &= agree[a]
                    done = cand & end
                    mask |= done
                    cand ^= done
                    if cand:
                        nxt.append((r, cand))
                grown.add((tuple(nxt), mask))
        states = grown
    hits = [mask for _, mask in states]
    decisions = []
    for i in range(len(frontier)):
        rest = [m for m in hits if not m >> i & 1]
        decisions.append(bool(rest))
        hits = rest or hits
    return decisions


def ap_bound_from_minimal(sys_: DynSystem, tau: str) -> int:
    """Least ``b`` such that no length-``b`` word avoids the cylinder of
    ``tau`` along its whole orbit: every full-depth member re-enters
    ``[tau]`` within ``b`` steps.

    Raises :class:`NotMinimal` with a witness when the avoidance tree reaches
    full depth, exhibiting a proper subsystem candidate.
    """
    avoid = OrbitAvoidance(sys_.map, [tau])
    cls = avoidance_class(sys_.space, avoid, name=f"{sys_.space.name}~[{tau}]")
    b = death_length(cls, sys_.depth)
    if b is None:
        witness = find_member(cls, sys_.depth)
        raise NotMinimal(witness)
    return b


class _HaltingSim(NamedTuple):
    bits: tuple[tuple[int, int | None], ...]
    stage_horizon: int


class HaltingSim(_HaltingSim):
    """Finite stand-in for the halting set: each index gets a finite entry
    stage or ``None`` for never."""

    __slots__ = ()

    def __new__(cls, bits: tuple[tuple[int, int | None], ...], stage_horizon: int):
        for n, t in bits:
            if t is not None and not 1 <= t <= stage_horizon:
                raise ValueError(f"entry stage for bit {n} must be in 1..{stage_horizon} or None")
        return super().__new__(cls, bits, stage_horizon)

    def stage_of(self, n: int) -> int | None:
        for idx, t in self.bits:
            if idx == n:
                return t
        raise KeyError(f"no simulated bit {n}")


def build_bit_coder(n: int, sim: HaltingSim, depth: int) -> ClosedClass:
    """Stagewise class coding one simulated bit.

    Never-halting bits give the switch tree; a finite entry stage ``t``
    refines the schedule to the orbit class of ``(0^t 1^t)^ω`` from stage
    ``t`` on (compatible with the earlier switch stages).
    """
    t = sim.stage_of(n)
    horizon = sim.stage_horizon
    orbit = None if t is None else orbit_class("0" * t + "1" * t, 2, depth).member_step
    cap = horizon if t is None else min(horizon, t - 1)

    def member_at(w: str, s: int) -> bool:
        head = w[:s if t is None else min(s, t - 1)]
        if sum(map(str.__ne__, head, head[1:])) > 1:   # not of shape 0^a 1^b or 1^a 0^b
            return False
        return t is None or s < t or orbit(w)

    def step(w: str) -> bool:
        # member_at(w, horizon) given w[:-1]: only the last letter can switch
        # a second time, or leave the orbit's prefixes
        if 2 < len(w) <= cap and w[-1] != w[-2] and w[0] != w[-2]:
            return False
        return orbit is None or orbit(w)

    return ClosedClass(2, depth, step, member_at=member_at,
                       name=f"bit{n}(t={'inf' if t is None else t})")


def product_system(parts: list[ClosedClass]) -> DynSystem:
    """Interleaved-column product: position ``p`` belongs to column
    ``p mod columns``, and the map shifts every column at once.

    The child test asks only the column the new letter lands in (every
    column at the root), through a per-column ``functools.cache`` whose
    misses ask that column's own child test once: a column word's proper
    prefixes are column words of the node's ancestors, so they are members.
    A search re-tests the same few column words at many nodes, and a column
    holds at most ``k^(depth+1)`` words, so the memo stays small; it lives in
    this product's closure and is freed with it.  The product has no stage
    schedule: ``member(w, stage)`` is ``member(w)``.

    ``space.columns`` holds one class per column whose child test is that
    column's memoized lookup, so listing column members asks each column word
    at most once too.  Nothing is listed here: :func:`minimal_subsystem` lists
    the columns when it runs.
    """
    if not parts:
        raise ValueError("empty product")
    cols = len(parts)
    depth0 = parts[0].depth
    if any(p.depth != depth0 or p.k != parts[0].k for p in parts):
        raise ValueError("column-count mismatch: parts must share alphabet and depth")
    depth = cols * depth0

    tests = [functools.cache(p.member_step) for p in parts]

    def step(w: str) -> bool:
        if not w:
            return all(test(w) for test in tests)
        n = (len(w) - 1) % cols
        return tests[n](w[n::cols])

    space = ClosedClass(parts[0].k, depth, step, name=f"product({cols})")
    space.columns = [ClosedClass(p.k, depth0, test, name=p.name) for p, test in zip(parts, tests)]
    return DynSystem(space, builtin_map("column-shift", parts[0].k, depth, columns=cols))


def decode_members(minimal_sys: DynSystem) -> list[str]:
    """The full-depth members that :func:`decode_bit` reads, listed once for
    every bit; too many of them means the class is not minimal at depth."""
    members = iter_members(minimal_sys.space, minimal_sys.depth, limit=_DECODE_MEMBER_LIMIT + 1)
    if len(members) > _DECODE_MEMBER_LIMIT:
        raise UndecidedAtDepth("class too wide to scan; not minimal at depth?")
    return members


def decode_bit(minimal_sys: DynSystem, n: int, members: list[str]) -> bool:
    """True iff some member's column ``n`` extends ``01``.

    ``members`` are the class's full-depth members (:func:`decode_members`).
    Full-depth members of a minimal class carry a single orbit phase, so the
    scan walks each member's iterates (which are members themselves): the
    column word must show ``0`` then ``1`` at some consecutive rows.  Requires
    a column-shift system (its suffix step is the column count) and at least
    two rows of the column at depth.
    """
    cols = minimal_sys.map.suffix_step
    if not cols:
        raise ValueError("decode_bit needs a column-shift system")
    if not 0 <= n < cols:
        raise ValueError(f"column {n} out of range")
    if n + cols + 1 > minimal_sys.depth:
        raise UndecidedAtDepth(f"column {n} has fewer than 2 letters at depth {minimal_sys.depth}")
    return any("01" in w[n::cols] for w in members)
