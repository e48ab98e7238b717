"""Minimal subsystems and the halting-bit coding systems.

The greedy chain asks, in length-lexicographic order, whether each basic
cylinder can be removed: the candidate class keeps only words none of whose
iterates (up to their own length) enter the cylinder, and the removal is
adopted exactly when that class still has a full-depth member.  Cylinders
extending an adopted one are never generated: their removal is already
implied, and the chain rebuilds those entries only when they are read.

The bit coders realize the stagewise classes of the halting coding: until the
simulated entry stage the class is the switch tree (prefixes of ``0^a 1^ω``
and ``1^a 0^ω``); at a finite entry stage ``t`` it refines to the periodic
orbit class generated by ``(0^t 1^t)^ω``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotMinimal, UndecidedAtDepth
from .maps import builtin_map
from .search import (OrbitAvoidance, avoidance_class, death_length,
                     find_member, iter_members)
from .systems import ClosedClass, DynSystem, orbit_class
from .words import letters, periodic_word, rotations, words_up_to

_DECODE_MEMBER_LIMIT = 4096   # decode_members: a wider class is not minimal at depth


@dataclass(frozen=True)
class RemovalStage:
    word: str
    pruned: bool
    vacuous: bool
    class_after: ClosedClass


@dataclass
class RemovalChain:
    """The decisions of the greedy chain over the words of length 1..``enum_len``."""

    k: int
    enum_len: int
    decisions: list[RemovalStage] = field(default_factory=list)

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
    most two rows (``2·cols``), :func:`_columns_avoid` decides it over the
    column members, listed once per call, and the candidate class is built
    only for an adopted removal; every other system runs the search.
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

        def survives(words: list[str]) -> bool:
            return _columns_avoid(members, columns[0].depth, words)
    else:
        def survives(words: list[str]) -> bool:
            return find_member(candidate(words), N) is not None

    alpha = letters(sys_.k)
    frontier = list(alpha)
    for _ in range(enum_len):
        rejected = []
        for word in frontier:
            pruned = survives(adopted + [word])
            if pruned:
                adopted.append(word)
                current = candidate(adopted)
            else:
                rejected.append(word)
            chain.decisions.append(RemovalStage(word, pruned, False, current))
        frontier = [w + a for w in rejected for a in alpha]
    return DynSystem(current, f), chain


def _columns_avoid(members: list[list[str]], depth: int, words: list[str]) -> bool:
    """Whether some choice of one member of length ``depth`` per column,
    interleaved into rows, puts no word of ``words`` at a row start ``r·cols``
    where it fits (``r·cols + |τ| ≤ cols·depth``): the test "the column-shift
    avoidance class has a full-depth member" for words of at most ``2·cols``
    letters, which only meet one row and the head of the next.

    The columns are chosen in order (a transfer matrix run across columns),
    and the states reached are deduplicated after each column.  A state keeps,
    per row, the row's letters so far and the next row's first
    ``max(0, max|τ| − cols)`` letters, which finish the windows that start at
    the row; a row is ``None`` once its letters are no proper prefix of a word.
    """
    cols = len(members)
    forbidden = set(words)
    open_prefixes = {w[:i] for w in words for i in range(1, len(w))}
    heads = max(0, max(map(len, words)) - cols)
    long_lens = sorted({len(w) for w in words if len(w) > cols})
    states = {(("", ""),) * depth}
    for j, column in enumerate(members):
        grown = set()
        for rows in states:
            for c in column:
                nxt = []
                for r, row in enumerate(rows):
                    if row is None:
                        nxt.append(None)
                        continue
                    p, h = row
                    p += c[r]
                    if p in forbidden:
                        break
                    if p not in open_prefixes:
                        nxt.append(None)
                    elif j < heads and r + 1 < depth:
                        nxt.append((p, h + c[r + 1]))
                    else:
                        nxt.append((p, h))
                else:
                    grown.add(tuple(nxt))
        states = grown
    return any(not any(row is not None and r * cols + t <= cols * depth
                       and (row[0] + row[1])[:t] in forbidden
                       for r, row in enumerate(rows) for t in long_lens)
               for rows in states)


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


@dataclass(frozen=True)
class HaltingSim:
    """Finite stand-in for the halting set: each index gets a finite entry
    stage or ``None`` for never."""

    bits: tuple[tuple[int, int | None], ...]
    stage_horizon: int

    def __post_init__(self):
        for n, t in self.bits:
            if t is not None and not 1 <= t <= self.stage_horizon:
                raise ValueError(f"entry stage for bit {n} must be in 1..{self.stage_horizon} or None")

    def stage_of(self, n: int) -> int | None:
        for idx, t in self.bits:
            if idx == n:
                return t
        raise KeyError(f"no simulated bit {n}")


@dataclass(frozen=True)
class PeriodicOrbitClass:
    """The ``2·i``-element orbit of ``(0^i 1^i)^ω`` at depth."""

    i: int
    members: tuple[str, ...]
    space: ClosedClass


def s_orbit(i: int, depth: int) -> PeriodicOrbitClass:
    gen = "0" * i + "1" * i
    members = tuple(sorted(periodic_word(r, depth) for r in rotations(gen)))
    return PeriodicOrbitClass(i, members, orbit_class(gen, 2, depth))


def _is_switch(w: str) -> bool:
    """Words of shape 0^a 1^b or 1^a 0^b."""
    changes = sum(1 for i in range(1, len(w)) if w[i] != w[i - 1])
    return changes <= 1


def build_bit_coder(n: int, sim: HaltingSim, depth: int) -> ClosedClass:
    """Stagewise class coding one simulated bit.

    Never-halting bits give the switch tree; a finite entry stage ``t``
    refines the schedule to the orbit class of ``(0^t 1^t)^ω`` from stage
    ``t`` on (compatible with the earlier switch stages).
    """
    t = sim.stage_of(n)
    horizon = sim.stage_horizon
    orbit_words = None if t is None else s_orbit(t, depth).members

    def member_at(w: str, s: int) -> bool:
        switch_level = min(len(w), s if t is None else min(s, t - 1))
        if not _is_switch(w[:switch_level]):
            return False
        if t is not None and s >= t:
            return any(v.startswith(w) for v in orbit_words)
        return True

    return ClosedClass(2, depth, lambda w: member_at(w, horizon), member_at=member_at,
                       name=f"bit{n}(t={'inf' if t is None else t})")


def product_system(parts: list[ClosedClass]) -> DynSystem:
    """Interleaved-column product: position ``p`` belongs to column
    ``p mod columns``, and the map shifts every column at once.

    The child test asks only the column the new letter lands in (every
    column at the root), through a per-column memo whose misses ask that
    column's own child test once: a column word's proper prefixes are column
    words of the node's ancestors, so they are members.  A search re-tests the
    same few column words at many nodes, and a column holds at most
    ``k^(depth+1)`` words, so the memo stays small; it lives in this product's
    closure and is freed with it.  The product has no stage schedule:
    ``member(w, stage)`` is ``member(w)``.

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

    memo: list[dict[str, bool]] = [{} for _ in parts]

    def column(n: int, c: str) -> bool:
        known = memo[n].get(c)
        if known is None:
            known = memo[n][c] = parts[n].member_step(c)
        return known

    def step(w: str) -> bool:
        if not w:
            return all(column(n, w) for n in range(cols))
        n = (len(w) - 1) % cols
        return column(n, w[n::cols])

    space = ClosedClass(parts[0].k, depth, step, name=f"product({cols})")
    space.columns = [ClosedClass(p.k, depth0, lambda c, n=n: column(n, c), name=p.name)
                     for n, p in enumerate(parts)]
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
