"""The dodging construction: either a periodic orbit disjoint from the given
class, or a nonempty subclass none of whose members is almost periodic.

Case 2 builds the diagonal block sequence ``σ_1, σ_2, …``: each step finds a
repetition count making the probe cylinder ``[1^{i+1} (σ_i … σ_1 1^i)^m]``
miss the class.  When no count works but the probe point itself sits in the
class, that point is a computable non-almost-periodic witness and the hat
class degenerates to its cylinder.  Members of a full hat class start with
``0`` and contain a run of ``k`` ones within their first ``c_k`` letters, so
returns to the root cylinder ``[0]`` have gaps of every length up to ``K``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import HorizonExhausted
from .maps import builtin_map
from .search import find_member, iter_members
from .systems import (ClosedClass, DynSystem, cylinder_class, full_class, orbit_class,
                      restrict_class)
from .words import all_words, is_primitive, periodic_word, rotations


class SigmaSequence(NamedTuple):
    """The block sequence with its repetition counts and cut lengths
    ``c_k = 2k + Σ_{s≤k} |σ_s|``."""

    sigmas: tuple[str, ...]
    reps: tuple[int, ...]

    @property
    def cuts(self) -> tuple[int, ...]:
        out = []
        total = 0
        for k, s in enumerate(self.sigmas, start=1):
            total += len(s)
            out.append(2 * k + total)
        return tuple(out)

    def block(self, j: int) -> str:
        """The block ``σ_j σ_{j-1} … σ_1 1^j`` repeated to build ``σ_{j+1}``."""
        return "".join(reversed(self.sigmas[:j])) + "1" * j

    def check(self) -> list[str]:
        bad = []
        if not self.sigmas:
            return bad
        if set(self.sigmas[0]) - {"0"} or not self.sigmas[0]:
            bad.append(f"sigma_1 must be a nonempty zero block, got {self.sigmas[0]!r}")
        if len(self.reps) != len(self.sigmas):
            bad.append("reps and sigmas must align")
            return bad
        if self.reps[0] != len(self.sigmas[0]):
            bad.append("sigma_1 length must equal its repetition count")
        for j in range(1, len(self.sigmas)):
            expect = self.block(j) * self.reps[j]
            if self.sigmas[j] != expect:
                bad.append(f"sigma_{j + 1} != block^reps: {self.sigmas[j]!r}")
        for j in range(len(self.sigmas) - 1):
            if not self.sigmas[j + 1].startswith(self.sigmas[j]):
                bad.append(f"prefix chain broken at sigma_{j + 1}")
        for j in range(1, len(self.sigmas)):
            runs = self.sigmas[j]
            if "1" * j not in runs:
                bad.append(f"sigma_{j + 1} misses the run 1^{j}")
            if "1" * (j + 1) in runs:
                bad.append(f"sigma_{j + 1} contains the run 1^{j + 1}")
        return bad


class DodgeOutcome(NamedTuple):
    case: str                     # "orbit" | "hat"
    system: DynSystem             # the produced system (C, shift)
    orbit_generator: str | None = None
    orbit_class: ClosedClass | None = None
    orbit_excluded_stage: int | None = None   # least stage at which the orbit avoids P
    hat_class: ClosedClass | None = None
    sigma: SigmaSequence | None = None
    degenerate_probe: str | None = None
    dodge_stage: int | None = None


def enumerate_periodic_points(k: int, max_period: int) -> list[str]:
    """Orbit generators of all shift-periodic points of period ≤ ``max_period``:
    primitive words that are lexicographically least among their rotations,
    in length-lexicographic order."""
    out = []
    for n in range(1, max_period + 1):
        for w in all_words(k, n):
            if is_primitive(w) and all(w <= r for r in rotations(w)):
                out.append(w)
    return out


def _cylinder_alive(P: ClosedClass, word: str) -> bool:
    """Does some full-depth member of P extend ``word``?"""
    if len(word) > P.depth:
        return False
    return find_member(cylinder_class(P, [word], f"{P.name}@{word}"), P.depth) is not None


def build_dodging_class(P: ClosedClass, *, max_period: int = 4,
                        sigma_stages: int = 4) -> DodgeOutcome:
    """Scan periodic orbits against ``P``; failing that, run the block
    construction.  ``sigma_stages`` is the K budget for the hat class."""
    N = P.depth
    shift = builtin_map("left-shift", P.k, N)

    for gen in enumerate_periodic_points(P.k, max_period):
        pts = sorted({periodic_word(r, N) for r in rotations(gen)})
        if all(not P.member(pt) for pt in pts):
            stage = 0
            while any(P.member(pt, stage=stage) for pt in pts):
                stage += 1
            cls = orbit_class(gen, P.k, N)
            return DodgeOutcome("orbit", DynSystem(cls, shift),
                                orbit_generator=gen, orbit_class=cls,
                                orbit_excluded_stage=stage)

    sigmas: list[str] = []
    reps: list[int] = []
    for j in range(sigma_stages):
        if j == 0:
            head, block = "1", "0"
        else:
            head = "1" * (j + 1)
            block = "".join(reversed(sigmas)) + "1" * j
        found = None
        m = 1
        while len(head) + m * len(block) <= N:
            if not _cylinder_alive(P, head + block * m):
                found = m
                break
            m += 1
        if found is None:
            probe = (head + block * ((N - len(head)) // len(block) + 1))[:N]
            partial = SigmaSequence(tuple(sigmas), tuple(reps))
            if P.member(probe):
                hat = cylinder_class(P, [probe], f"{P.name}-hat-degenerate")
                return DodgeOutcome("hat", DynSystem(full_class(P.k, N), shift),
                                    hat_class=hat, sigma=partial,
                                    degenerate_probe=probe, dodge_stage=j)
            raise HorizonExhausted(
                f"stage {j + 1}: no repetition count within depth and probe not in class",
                partial=partial)
        sigmas.append(block * found)
        reps.append(found)

    sigma = SigmaSequence(tuple(sigmas), tuple(reps))
    cuts = sigma.cuts
    if cuts[-1] > N:
        raise HorizonExhausted(f"cut length {cuts[-1]} exceeds depth {N}", partial=sigma)

    def hat_pred(w: str) -> bool:
        if w and w[0] != "0":
            return False
        return all(len(w) < c or "1" * k in w[:c]
                   for k, c in enumerate(cuts, start=1))

    hat = restrict_class(P, hat_pred, name=f"{P.name}-hat")
    if find_member(hat, N) is None:
        raise HorizonExhausted("hat class empty at depth", partial=sigma)
    return DodgeOutcome("hat", DynSystem(full_class(P.k, N), shift),
                        hat_class=hat, sigma=sigma)


def verify_not_ap(hat: ClosedClass, b_max: int) -> bool:
    """Exhaustive gap scan: every full-depth member admits, for every
    ``b ≤ b_max``, a start after which ``b`` consecutive shifts all leave the
    member's own first-letter cylinder.  A run of ``b_max`` letters other
    than the first serves every smaller ``b``, so each member needs one."""
    members = iter_members(hat, hat.depth)
    return bool(members) and all(max(map(len, w.split(w[0]))) >= b_max for w in members)
