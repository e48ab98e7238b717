"""Recurrent points: the ternary tree-reduction gadget and the cover-stage
construction of a recurrent point.

The gadget embeds binary tree-path search into recurrence over alphabet 3:
paths of the source tree are fixed by the map, non-paths are pushed along in
increasing lexicographic order, looping through the extra letter ``2``; the
tree is asked each 2-free word once.  The oracle walks one zero-padded orbit
per class of scan words sharing a shortest off-tree prefix, all level by
level; the working depth must be at least ``2·scan_depth + 1``, so a deviation
anywhere in the scanned prefix still has room to show a missing return.

The recurrent-point construction computes nested cover stages ``(U_i, V_i,
s_i)``: stage-``i`` elements strictly extend stage-``(i-1)`` elements and
return to their own length-``(i-1)`` prefix within ``s_i`` steps (with return
time at least ``i-1``), every member of ``V_i`` reaches ``U_i`` within
``s_i`` steps, and every class member of length ``s_i`` extends an element of
``V_i``.  The nesting makes a full-depth word extending the last stage carry
returns at every smaller precision; the emitted certificate rows are found by
a direct scan of that word's orbit and re-verified independently.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, NamedTuple

from .errors import EmptyClassError, HorizonExhausted, ModulusExhausted
from .maps import CodedMap
from .search import find_member, iter_members
from .systems import (ClosedClass, DynSystem, PointApprox, RecCert, Report, cylinder_class,
                      full_class, return_waits)
from .words import has_prefix_in, is_prefix_in, letters, prefix_core

_STAGE_ENUM_CAP = 18          # a covering scan lists at most 2^18 members, of length ≤ 18
_STORE_NODE_BUDGET = 2_000_000


def build_ternary_gadget(tree: ClosedClass) -> DynSystem:
    """The system ``(3^{≤N}, f)`` whose recurrent points are the tree's paths.

    For a word that is on the tree the map drops the last letter; otherwise
    the shortest off-tree prefix ``π`` determines a lexicographic successor,
    with ``2`` wrapping around to the all-zero word.
    """
    return DynSystem(full_class(3, tree.depth), _gadget(tree)[0])


def _gadget(tree: ClosedClass) -> tuple[CodedMap, Callable[[str], str]]:
    """The gadget map and its ``π`` (``""`` on the tree), sharing one memo from
    2-free words to their ``π``: a word's head before its first ``2`` is filled
    forward from its longest memoized prefix, so the tree is asked each word once."""
    if tree.k != 2:
        raise ValueError("source tree must be over alphabet 2")
    memo = {"": ""}

    def shortest_off_tree(w: str) -> str:
        two = w.find("2")
        end = len(w) if two < 0 else two
        n = end
        while (res := memo.get(w[:n])) is None:
            n -= 1
        for m in range(n + 1, end + 1):
            u = w[:m]
            # past the first letter every proper prefix is on the tree
            if not res and not (tree.member_step(u) if m > 1 else tree.member(u)):
                res = u
            memo[u] = res
        return res or w[:two + 1]

    def rule(w: str) -> str:
        if not w:
            return ""
        n = len(w) - 1
        p = shortest_off_tree(w)
        if not p:
            return w[:n]
        if p == "2":
            return "0" * n
        if p[-1] == "2":
            rho, branch = p[:-2], p[-2]
        else:
            rho, branch = p[:-1], p[-1]
        succ = "1" if branch == "0" else "2"
        return (rho + succ + "0" * n)[:n]

    return CodedMap(3, tree.depth, rule, lambda l: l + 1, shrinking=True,
                    name="gadget"), shortest_off_tree


def gadget_recurrent_set(tree: ClosedClass, scan_depth: int) -> set[str]:
    """Depth-``scan_depth`` ternary words whose zero-padding returns to its
    ``scan_depth``-prefix at a time past ``scan_depth``, which serves every
    smaller precision.  The rule reads a word only through its length and its
    shortest off-tree prefix ``c`` (an on-tree scan word is its own ``c``), so
    one orbit from ``c0…0`` serves, and certifies, every scan word extending
    ``c``.  Each level applies every distinct iterate once; the map drops one
    letter per step, so the walk ends at length ``scan_depth``.
    """
    if tree.depth < 2 * scan_depth + 1:
        raise ValueError("tree depth must be at least 2*scan_depth + 1 for the oracle")
    f, off = _gadget(tree)
    scan, pad = scan_depth, "0" * (tree.depth - scan_depth)
    classes, live = [], [""]    # live: on-tree 2-free words, and the root always
    for _ in range(scan):
        kids, live = [u + a for u in live for a in "012"], []
        for c in kids:
            (classes if off(c) else live).append(c)
    level = {(c + "0" * scan)[:scan] + pad: [c] for c in classes + live}
    found: set[str] = set()
    for n in range(1, tree.depth - scan + 1):
        nxt: dict[str, list[str]] = {}
        for cur, cls in level.items():
            img = f.apply(cur)
            if n > scan and any(img.startswith(c) for c in cls):
                found.add(img[:scan])
            nxt.setdefault(img, []).extend(cls)
        level = nxt
    return found


def gadget_recurrent_equals_paths(tree: ClosedClass, scan_depth: int) -> bool:
    """Brute-force oracle: the recurrent set at ``scan_depth`` equals the set
    of depth-``scan_depth`` tree members.

    Exact for trees whose depth-``scan_depth`` members all survive to the
    tree's own working depth (in particular for trees whose membership is
    determined at ``scan_depth``).
    """
    return gadget_recurrent_set(tree, scan_depth) == set(iter_members(tree, scan_depth))


class CoverStage(NamedTuple):
    """Audit record of one construction stage."""

    i: int
    s: int
    U: tuple[str, ...]
    V: tuple[str, ...]


def return_time(f: CodedMap, w: str, p: int, bound: int) -> int | None:
    """Least ``n`` in ``[p, bound]`` with ``f^n(w) ⪰ w↾p`` (None when none).  On
    a suffix map ``f^n(w) = w[n·step:]``, so one ``str.find`` scan reads the
    least match at an offset ``n·step``; other maps walk the orbit.
    Normalized maps shrink, so ``|w| ≤ p`` never returns."""
    if p == 0:
        return 0
    if len(w) <= p:
        return None
    target = w[:p]
    if not (step := f.suffix_step):
        return f.hit_time(w, lambda u: u.startswith(target), p, bound)
    end = bound * step + p
    i = w.find(target, p * step, end)
    while i > 0 and i % step:    # a match between offsets n·step: skip to the next one
        i = w.find(target, i - i % step + step, end)
    return i // step if i >= 0 else None


class _StageState:
    """The qualification test of stage ``i``: elements return at precision
    ``i - 1`` with return time at least ``i - 1``."""

    def __init__(self, f: CodedMap, depth: int, i: int, prev_store: frozenset[str]):
        self.f = f
        self.depth = depth
        self.i = i
        self.precision = i - 1
        self.prev_store = prev_store
        self.prev_core = prefix_core(prev_store)

    def returns_within(self, w: str, s: int) -> bool:
        """``w`` has a :func:`return_time` in ``[i - 1, s]``."""
        return return_time(self.f, w, self.precision, s) is not None

    def qualifies(self, w: str, s: int) -> bool:
        """A proper prefix is in the previous store and ``w`` returns by ``s``."""
        return (bool(w) and has_prefix_in(w[:-1], self.prev_core)
                and self.returns_within(w, s))


def _covered(state: _StageState, v: str, s: int) -> bool:
    """V-condition: some iterate of ``v`` within ``s`` steps extends a
    stage-``i`` qualifying word.

    Each iterate is tested once, not its prefixes, by order preservation: if
    a prefix ``u`` of ``cur`` qualifies, so does ``cur``, since ``u``'s stored
    ancestor is a proper prefix of ``cur`` and ``f^n(u) ⪯ f^n(cur)``."""
    return state.f.hit_time(v, lambda cur: state.qualifies(cur, s), 0, s) is not None


def _store_stage(state: _StageState, s: int, k: int) -> set[str]:
    """Minimal qualifying words, up to the length that decides qualification.

    Let ``m`` be the ``s``-fold modulus of the precision ``p``.  For
    ``n ≤ s``, ``f^n(w↾m)`` is a prefix of ``f^n(w)`` at least ``p`` letters
    long, so a word longer than ``m`` and than every word of the previous
    store qualifies exactly when its prefix of that length does, and no
    minimal qualifying word is longer.  For a suffix map ``σ ↦ σ[step:]``,
    ``m`` is ``s·step + p``; when the map has no such witness the cap is the
    working depth.

    The walk is a depth-first stack of ``(word, has a proper prefix in the
    previous store, returns by s)`` entries, and stored words are leaves.  A
    child is pushed only when it can still gain such a prefix (its parent has
    one or is in that store, or it is a prefix of a word in it), so the node
    budget counts only words that can reach the previous store.  On a suffix
    map a child of length ``L`` adds at most the return time ``(L - p)/step``,
    when that is an integer in ``[p, s]``: one comparison decides it."""
    p = state.precision
    need = p
    try:
        for _ in range(s):
            need = state.f.modulus(need)
    except ModulusExhausted:
        need = state.depth
    prev = state.prev_store
    cap = min(max(need, max(map(len, prev), default=0) + 1, 1), state.depth)
    reach = sorted(prev)
    step, alpha = state.f.suffix_step, letters(k)[::-1]
    stored: set[str] = set()
    budget = _STORE_NODE_BUDGET
    stack = [("", False, p == 0)]
    while stack:
        u, anc, ret = stack.pop()
        budget -= 1
        if budget <= 0:
            raise HorizonExhausted(f"stage {state.i}: store enumeration budget exceeded")
        if anc and (ret if step else state.returns_within(u, s)):
            stored.add(u)
        elif len(u) < cap:
            anc = anc or u in prev
            n, r = divmod(len(u) + 1 - p, step) if step else (0, 1)
            adds = not r and p <= n <= s       # a child may add return time n
            for a in alpha:
                w = u + a
                if anc or is_prefix_in(w, reach):
                    stack.append((w, anc, ret or adds and w.endswith(w[:p])))
    return stored


def _next_level(space: ClosedClass, level: list[str], limit: int) -> list[str]:
    """The members one letter longer than the words of ``level``, a
    lexicographic list of members of one length: lexicographic too, and at
    most ``limit`` of them."""
    step, alpha = space.member_step, letters(space.k)
    out: list[str] = []
    for w in level:
        for a in alpha:
            if step(w + a):
                out.append(w + a)
                if len(out) >= limit:
                    return out
    return out


def construct_recurrent_point(sys_: DynSystem, stages: int = 6,
                              c_max: int | None = None
                              ) -> tuple[PointApprox, RecCert, list[CoverStage]]:
    """Run the cover-stage construction and return the lexicographically
    least full-depth survivor with its recurrence certificate.

    ``c_max`` bounds the certificate rows (default ``stages - 1``); each row
    is found by scanning the survivor's orbit and re-verified independently.
    Raises :class:`EmptyClassError` when the class has no full-depth member
    and :class:`HorizonExhausted` when some stage bound exceeds the depth.
    """
    f = sys_.map
    N = sys_.depth
    if c_max is None:
        c_max = max(1, stages - 1)
    if find_member(sys_.space, N) is None:
        raise EmptyClassError(f"{sys_.space.name} has no member of length {N}")

    stage_records = [CoverStage(0, 0, ("",), ("",))]
    # levels[s]: the members of length s in lexicographic order, listed once;
    # a scan never skips a length, so no level is built from a cut-off one
    levels = [[""]]
    prev_store = frozenset([""])
    for i in range(1, stages + 1):
        state = _StageState(f, N, i, prev_store)
        s_found, first = None, ""    # members below first extend ones covered at s - 1, so at s
        for s in range(max(1, i - 1), N + 1):
            if s > _STAGE_ENUM_CAP:
                raise HorizonExhausted(f"stage {i}: covering bound {s} passes the length "
                                       f"cap {_STAGE_ENUM_CAP}", partial=stage_records)
            while len(levels) <= s:
                levels.append(_next_level(sys_.space, levels[-1], 2 ** _STAGE_ENUM_CAP + 1))
            V = levels[s]
            if len(V) > 2 ** _STAGE_ENUM_CAP:
                raise HorizonExhausted(f"stage {i}: more than 2^{_STAGE_ENUM_CAP} members "
                                       f"of length {s}", partial=stage_records)
            first = next((v for v in V[bisect_left(V, first):] if not _covered(state, v, s)), None)
            if first is None:
                s_found = s
                break
        if s_found is None:
            raise HorizonExhausted(f"stage {i}: no covering bound within depth {N}",
                                   partial=stage_records)
        store = _store_stage(state, s_found, sys_.k)
        if not store:
            raise HorizonExhausted(f"stage {i}: no qualifying words at bound {s_found}",
                                   partial=stage_records)
        stage_records.append(CoverStage(i, s_found, tuple(sorted(store)), tuple(V)))
        prev_store = frozenset(store)

    point_word = find_member(cylinder_class(sys_.space, prev_store, "final-stage"), N)
    if point_word is None:
        raise HorizonExhausted("no full-depth member extends the final stage",
                               partial=stage_records)
    X = sys_.point(point_word)

    orb = f.orbit(point_word, N)
    entries = []
    for c in range(1, c_max + 1):
        wait = return_waits(orb, point_word[:c])[c + 1] if c < N else None
        if wait is None:
            raise HorizonExhausted(f"no return at precision {c} for {point_word!r}",
                                   partial=stage_records)
        entries.append((c, c + 1 + wait, N))
    return X, RecCert(tuple(entries)), stage_records


def audit_cover_stages(sys_: DynSystem, stages: list[CoverStage]) -> Report:
    """Re-check the stored-stage invariants.

    Stage-``i`` elements return at precision ``i - 1`` with a
    :func:`return_time` in ``[i - 1, s_i]``; the reach check walks its own
    ``apply`` orbits and the cover check lists its own members."""
    f = sys_.map
    rep = Report()
    cores = [prefix_core(st.U) for st in stages]
    for idx, st in enumerate(stages):
        i, s = st.i, st.s
        p = max(i - 1, 0)
        for tau in st.U:
            if return_time(f, tau, p, s) is None:
                rep.add("cover-return", tau, f"stage {i}: no return within {s}")
        for v in st.V:
            cur = v
            for n in range(s + 1):
                if has_prefix_in(cur, cores[idx]):
                    break
                cur = f.apply(cur) if cur else ""
            else:
                rep.add("cover-reach", v, f"stage {i}: does not reach U within {s}")
        vcore = prefix_core(st.V)
        for w in iter_members(sys_.space, s):
            if not has_prefix_in(w, vcore):
                rep.add("cover-open", w, f"stage {i}: member not covered by V")
        if idx > 0:
            for tau in st.U:
                if not (tau and has_prefix_in(tau[:-1], cores[idx - 1])):
                    rep.add("cover-nesting", tau, f"stage {i}: no strict U_{i-1} ancestor")
    return rep

