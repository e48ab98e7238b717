"""Span and counter tracing of cantordyn, installed from outside the package.

Coarse public functions get a span per call (name, start, end, parent span,
job id); spans stay in memory until the run ends.  Hot methods
(``CodedMap.apply``, ``ClosedClass.member``/``member_step`` and the
avoidance checks) are called millions of times per job, so they record no
span, only integer counters and the self time of their layer.  Module
functions are replaced at every import site, because the package binds them
by name (``from .search import find_member``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); attribute "Class.method" patches a method.
SPANS = [
    ("cantordyn.cli", "main", "cli.main"),
    ("cantordyn.cli", "parse_spec", "cli.spec_build"),
    ("cantordyn.cli", "SystemSpec.build", "cli.spec_build"),
    ("cantordyn.cli", "SystemSpec.build_tree", "cli.spec_build"),
    ("cantordyn.cli", "SystemSpec.build_map", "cli.spec_build"),
    ("cantordyn.systems", "validate_system", "systems.validate"),
    ("cantordyn.systems", "verify_ap", "systems.verify"),
    ("cantordyn.systems", "verify_recurrence", "systems.verify"),
    ("cantordyn.search", "find_member", "search.find_member"),
    ("cantordyn.search", "iter_members", "search.iter_members"),
    ("cantordyn.search", "death_length", "search.death_length"),
    # no metric of its own: the span keeps its loops out of cli.self_s
    ("cantordyn.refinement", "construct_ap_point", "refinement.construct_ap_point"),
    ("cantordyn.refinement", "meet_or_avoid", "refinement.meet_or_avoid"),
    ("cantordyn.refinement", "nbh_periodicity", "refinement.nbh_periodicity"),
    ("cantordyn.refinement", "compose", "refinement.compose"),
    ("cantordyn.refinement", "check_piecewise_samples", "refinement.sample_check"),
    ("cantordyn.minimal", "minimal_subsystem", "minimal.minimal_subsystem"),
    ("cantordyn.minimal", "decode_bit", "minimal.decode_bit"),
    ("cantordyn.recurrence", "construct_recurrent_point", "recurrence.construct"),
    ("cantordyn.recurrence", "audit_cover_stages", "recurrence.audit"),
    ("cantordyn.recurrence", "gadget_recurrent_set", "recurrence.gadget_scan"),
    ("cantordyn.recurrence", "gadget_recurrent_equals_paths", "recurrence.gadget_scan"),
    ("cantordyn.avoidance", "build_dodging_class", "avoidance.dodge"),
    ("cantordyn.avoidance", "verify_not_ap", "avoidance.verify_not_ap"),
]

AVOIDANCE_TYPES = [("cantordyn.search", "OrbitAvoidance"),
                   ("cantordyn.search", "PredicateAvoidance"),
                   ("cantordyn.refinement", "RequestAvoidance")]


class Tracer:
    """Collects spans, self times and counters for one process.  ``install``
    patches the package in place and cannot be undone: one tracer per process.

    Self time is kept as the run goes: each timed frame (a span, or a hot
    call) charges its duration minus the time of the timed frames inside it.
    """

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inner = 0.0                # time of timed frames inside the open one
        # hot counters live in plain attributes for speed
        self.apply_calls = 0
        self.rule_evals = 0
        self.member_calls = 0
        self.member_step_calls = 0
        self.avoid_checks = 0
        self.avoid_orbit_steps = 0
        self.in_avoid = 0
        self.apply_s = 0.0
        self.member_s = 0.0
        self.avoid_check_s = 0.0

    # -- installation -----------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "cantordyn" or name.startswith("cantordyn.")]
        for modname, attr, span in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._span(cls.__dict__[meth], span))
            else:
                orig = getattr(owner, attr)
                wrapped = self._span(orig, span)
                for m in mods:  # every import site, the package root included
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        self._install_hot()

    def _span(self, fn, name):
        t, spans, stack, post = self, self.spans, self.stack, _POST.get(name)
        self_s, clock = self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, t.job]
            spans.append(rec)
            stack.append(idx)
            saved, t.inner = t.inner, 0.0
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                self_s[name] += end - start - t.inner
                t.inner = saved + end - start
            if post is not None:
                post(t.counts, result)
            return result

        return wrapper

    def _install_hot(self):
        from cantordyn.maps import CodedMap
        from cantordyn.systems import ClosedClass

        t, clock = self, time.perf_counter
        apply, member, member_step = CodedMap.apply, ClosedClass.member, ClosedClass.member_step

        def traced_apply(m, word):
            t.apply_calls += 1
            if word not in m._memo:
                t.rule_evals += 1
            if t.in_avoid:
                t.avoid_orbit_steps += 1
            saved, t.inner = t.inner, 0.0
            start = clock()
            try:
                return apply(m, word)
            finally:
                dur = clock() - start
                t.apply_s += dur - t.inner
                t.inner = saved + dur

        def traced_member(c, word, stage=None):
            t.member_calls += 1
            saved, t.inner = t.inner, 0.0
            start = clock()
            try:
                return member(c, word, stage)
            finally:
                dur = clock() - start
                t.member_s += dur - t.inner
                t.inner = saved + dur

        def traced_member_step(c, word):
            t.member_step_calls += 1
            saved, t.inner = t.inner, 0.0
            start = clock()
            try:
                return member_step(c, word)
            finally:
                dur = clock() - start
                t.member_s += dur - t.inner
                t.inner = saved + dur

        CodedMap.apply = traced_apply
        ClosedClass.member = traced_member
        ClosedClass.member_step = traced_member_step

        # ok and ok_extension are patched one by one: some classes alias them
        # (``ok_extension = ok``), and a check that calls the other form
        # counts once, as the outermost check.
        for modname, cls_name in AVOIDANCE_TYPES:
            cls = getattr(sys.modules[modname], cls_name)
            for meth in ("ok", "ok_extension"):
                setattr(cls, meth, self._check(cls.__dict__[meth]))

    def _check(self, fn):
        t, clock = self, time.perf_counter

        def wrapper(av, word):
            if not t.in_avoid:
                t.avoid_checks += 1
            t.in_avoid += 1
            saved, t.inner = t.inner, 0.0
            start = clock()
            try:
                return fn(av, word)
            finally:
                dur = clock() - start
                t.avoid_check_s += dur - t.inner
                t.inner = saved + dur
                t.in_avoid -= 1

        return wrapper

    # -- results ----------------------------------------------------------

    def results(self) -> dict:
        """Counters (exact) and self times per span name and hot layer."""
        counts = dict(self.counts)
        counts.update({f"spans.{name}": n for name, n in
                       Counter(rec[0] for rec in self.spans).items()})
        counts.update(apply_calls=self.apply_calls, rule_evals=self.rule_evals,
                      member_calls=self.member_calls,
                      member_step_calls=self.member_step_calls,
                      avoid_checks=self.avoid_checks,
                      avoid_orbit_steps=self.avoid_orbit_steps)
        times = dict(self.self_s)
        times.update({"maps.apply": self.apply_s, "systems.member": self.member_s,
                      "search.avoid_check": self.avoid_check_s})
        return {"counts": counts, "self_s": times}


def _post_find_member(counts, result):
    counts["find_member_calls"] += 1
    counts["find_member_found"] += result is not None


def _post_meet_or_avoid(counts, result):
    counts["meet_or_avoid_calls"] += 1
    counts["meet_cases"] += result[1] == "meet"


def _post_minimal(counts, result):
    for st in result[1].stages:
        if not st.vacuous:
            counts["removals_tried"] += 1
            counts["removals_adopted"] += st.pruned


def _post_construct(counts, result):
    counts["cover_words"] += sum(len(st.U) + len(st.V) for st in result[2])


_POST = {"search.find_member": _post_find_member,
         "refinement.meet_or_avoid": _post_meet_or_avoid,
         "minimal.minimal_subsystem": _post_minimal,
         "recurrence.construct": _post_construct}
