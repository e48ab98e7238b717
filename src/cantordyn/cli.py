"""Command surface and serialization.

Spec files, request files and halting simulations are JSON; reports are
emitted as canonically ordered JSON (sorted keys, two-space indent) so that
identical inputs give byte-identical output, with the timing field as the
single nondeterministic entry.  Exit status is 0 exactly when every embedded
certificate re-verifies through the independent checkers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from . import avoidance as avd
from . import minimal as mnl
from . import recurrence as rec
from . import refinement as ref
from .errors import CantorDynError, SpecFormatError
from .maps import CodedMap, builtin_map, normalize
from .search import find_member, iter_members
from .systems import (ClosedClass, DynSystem, explicit_class,
                      forbidden_window_class, full_class, stagewise_class,
                      validate_system, verify_ap, verify_recurrence)
from .words import all_words, check_word


def _field(obj: dict, key: str, loc: str):
    if key not in obj:
        raise SpecFormatError("missing field", f"{loc}.{key}")
    return obj[key]


def _int(value, loc: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SpecFormatError(f"expected an integer, got {value!r}", loc) from None


def _word(value, k: int, loc: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"expected a word, got {value!r}", loc)
    try:
        return check_word(value, k)
    except ValueError as e:
        raise SpecFormatError(str(e), loc) from None


def _list(values, loc: str) -> list:
    if not isinstance(values, list):
        raise SpecFormatError(f"expected a list, got {values!r}", loc)
    return values


def _object(value, loc: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError(f"expected an object, got {value!r}", loc)
    return value


def _words(values, k: int, loc: str) -> list[str]:
    return [_word(w, k, f"{loc}[{idx}]") for idx, w in enumerate(_list(values, loc))]


def _pairs(values, loc: str):
    """``(index, first, second)`` for each entry of a list of pairs."""
    for i, entry in enumerate(_list(values, loc)):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SpecFormatError(f"expected a pair, got {entry!r}", f"{loc}[{i}]")
        yield i, entry[0], entry[1]


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"invalid JSON: {e}", f"line {e.lineno}") from e
    except RecursionError:
        raise SpecFormatError("invalid JSON: nested too deeply", "json") from None


@dataclass
class SystemSpec:
    alphabet: int
    depth: int
    stage_horizon: int
    tree: dict
    map: dict

    def build_tree(self) -> ClosedClass:
        kind = self.tree.get("kind")
        k, depth = self.alphabet, self.depth
        if kind == "full":
            return full_class(k, depth)
        if kind == "forbidden_words":
            words = _words(_field(self.tree, "words", "tree"), k, "tree.words")
            if "" in words:
                raise SpecFormatError("empty forbidden word", f"tree.words[{words.index('')}]")
            return forbidden_window_class(k, depth, words)
        if kind == "explicit_nodes":
            return explicit_class(k, depth, _words(_field(self.tree, "nodes", "tree"), k, "tree.nodes"))
        if kind == "stagewise":
            rem = [(_int(s, f"tree.removals[{i}]"), _word(w, k, f"tree.removals[{i}]"))
                   for i, s, w in _pairs(_field(self.tree, "removals", "tree"), "tree.removals")]
            return stagewise_class(k, depth, rem, self.stage_horizon)
        raise SpecFormatError(f"unknown tree kind {kind!r}", "tree.kind")

    def build_map(self) -> CodedMap:
        """The map; a ``piecewise`` map is built over its ``base`` chain,
        innermost first."""
        layers = [self.map]
        while layers[-1].get("kind") == "piecewise":
            layers.append(_object(_field(layers[-1], "base", "map"), "map.base"))
        built = None
        for m in reversed(layers):
            built = self._map_layer(m, built)
        return built

    def _map_layer(self, m: dict, base: CodedMap | None) -> CodedMap:
        kind = m.get("kind")
        k, depth = self.alphabet, self.depth
        if kind == "shift":
            return builtin_map("left-shift", k, depth)
        if kind == "identity":
            return builtin_map("identity", k, depth)
        if kind == "column_shift":
            columns = _int(_field(m, "columns", "map"), "map.columns")
            if columns < 1:
                raise SpecFormatError("columns must be positive", "map.columns")
            return builtin_map("column-shift", k, depth, columns=columns)
        if kind == "table":
            table = {_word(a, k, f"map.entries[{i}]"): _word(b, k, f"map.entries[{i}]")
                     for i, a, b in _pairs(_field(m, "entries", "map"), "map.entries")}
            try:
                built = CodedMap.from_table(k, depth, table, name="table")
            except ValueError as e:
                raise SpecFormatError(str(e), "map.entries") from None
            return built if built.shrinking else normalize(built)
        if kind == "piecewise":
            l, b = _int(_field(m, "l", "map"), "map.l"), _int(_field(m, "b", "map"), "map.b")
            if l < 0 or b < 1:
                raise SpecFormatError("need l >= 0 and b >= 1", "map")
            jtab = {}
            for i, w, v in _pairs(_field(m, "j", "map"), "map.j"):
                loc = f"map.j[{i}]"
                v = jtab[_word(w, k, loc)] = _int(v, loc)
                if not 1 <= v <= b:
                    raise SpecFormatError(f"exponent {v} outside 1..{b}", loc)
            missing = next((w for w in all_words(k, l) if w not in jtab), None)
            if missing is not None:
                raise SpecFormatError(f"no exponent for {missing!r}", "map.j")
            cert = ref.PiecewiseIterate(l, b, base, jtab.__getitem__)
            return cert.induced()
        raise SpecFormatError(f"unknown map kind {kind!r}", "map.kind")

    def build(self) -> DynSystem:
        sys_ = DynSystem(self.build_tree(), self.build_map())
        rep = validate_system(sys_)
        if not rep.ok:
            raise SpecFormatError(f"spec builds an invalid system: {rep.summary()}", "system")
        return sys_


def parse_spec(text: str) -> SystemSpec:
    data = _object(_json(text), "spec")
    for key in ("alphabet", "depth", "tree", "map"):
        if key not in data:
            raise SpecFormatError("missing field", key)
    alphabet = _int(data["alphabet"], "alphabet")
    if alphabet not in (2, 3):
        raise SpecFormatError("alphabet must be 2 or 3", "alphabet")
    depth = _int(data["depth"], "depth")
    if depth < 1:
        raise SpecFormatError("depth must be positive", "depth")
    return SystemSpec(alphabet, depth, _int(data.get("stage_horizon", 0), "stage_horizon"),
                      dict(_object(data["tree"], "tree")), dict(_object(data["map"], "map")))


def emit_spec(spec: SystemSpec) -> str:
    return canonical_json({"alphabet": spec.alphabet, "depth": spec.depth,
                           "stage_horizon": spec.stage_horizon,
                           "tree": spec.tree, "map": spec.map})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


@dataclass
class RunReport:
    command: str
    inputs: dict
    outcome: dict
    certificates: dict
    verified: bool
    timing_ms: int

    def emit(self) -> str:
        return canonical_json({
            "command": self.command,
            "inputs_digest": digest(self.inputs),
            "outcome": self.outcome,
            "certificates": self.certificates,
            "verified": self.verified,
            "timing_ms": self.timing_ms,
        })


def load_requests(path: str, k: int) -> list[ref.OpenRequest]:
    """The requests in a file, with every word checked against alphabet ``k``."""
    with open(path, encoding="utf-8") as fh:
        data = _json(fh.read())
    out = []
    for idx, item in enumerate(_list(data, "requests")):
        loc = f"requests[{idx}]"
        name = _object(item, loc).get("name", f"u{idx}")
        if not isinstance(name, str) or name in [rq.name for rq in out]:
            raise SpecFormatError(f"expected a new name, got {name!r}", f"{loc}.name")
        if "words" in item:
            out.append(ref.OpenRequest.static(name, _words(item["words"], k, f"{loc}.words")))
        elif "stages" in item:
            out.append(ref.OpenRequest(name, tuple(
                (_int(s, f"{loc}.stages[{i}]"), _word(w, k, f"{loc}.stages[{i}]"))
                for i, s, w in _pairs(item["stages"], f"{loc}.stages"))))
        else:
            raise SpecFormatError("request needs 'words' or 'stages'", loc)
    return out


def load_sim(path: str) -> mnl.HaltingSim:
    """The simulation in a file; entry ``i`` of ``bits`` must be bit ``i``."""
    with open(path, encoding="utf-8") as fh:
        data = _object(_json(fh.read()), "sim")
    horizon = _int(_field(data, "stage_horizon", "sim"), "sim.stage_horizon")
    bits = []
    for i, n, t in _pairs(_field(data, "bits", "sim"), "sim.bits"):
        loc = f"sim.bits[{i}]"
        if _int(n, loc) != i:
            raise SpecFormatError(f"expected bit index {i}, got {n!r}", loc)
        if t is not None:
            t = _int(t, loc)
            if not 1 <= t <= horizon:
                raise SpecFormatError(f"entry stage {t} outside 1..{horizon}", loc)
        bits.append((i, t))
    return mnl.HaltingSim(tuple(bits), horizon)


PHI_REGISTRY = {
    "never": lambda m, tau, p: False,
    "prefix-one": lambda m, tau, p: m == 0 and tau.startswith("1"),
    "one-at": lambda m, tau, p: len(tau) > m and tau[m] == "1",
}


def _piecewise_cert_json(cert: ref.PiecewiseIterate) -> dict:
    tab = cert.j_table()
    out = {"l": cert.l, "b": cert.b}
    if tab is not None:
        out["j"] = [[w, v] for w, v in sorted(tab.items())]
    else:
        out["j"] = "elided (lookup table too large)"
    return out


def _sample_members(space: ClosedClass, depth: int, limit: int = 8) -> list[str]:
    return iter_members(space, depth, limit=limit)


def _read_spec_file(path: str) -> SystemSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _finish(report: RunReport, out_path: str | None) -> int:
    text = report.emit()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.verified else 1


def cmd_validate(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    sys_ = DynSystem(spec.build_tree(), spec.build_map())
    rep = validate_system(sys_)
    report = RunReport("validate", {"spec": emit_spec(spec)},
                       rep.to_json(), {}, rep.ok,
                       int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_orbit(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    sys_ = spec.build()
    word = args.point or find_member(sys_.space, sys_.depth)
    if word is None:
        raise CantorDynError("class has no full-depth member")
    steps = args.steps if args.steps is not None else sys_.depth
    orb = sys_.map.orbit(word, steps)
    ok = all(sys_.space.member(w) for w in orb)
    report = RunReport("orbit", {"spec": emit_spec(spec), "point": word, "steps": steps},
                       {"orbit": orb, "stays_in_class": ok}, {}, ok,
                       int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_recurrent(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    sys_ = spec.build()
    X, cert, stages = rec.construct_recurrent_point(sys_, stages=args.stages)
    ok = verify_recurrence(X, cert) and rec.audit_cover_stages(sys_, stages).ok
    outcome = {"point": X.prefix,
               "stages": [{"i": st.i, "s": st.s, "U_size": len(st.U), "V_size": len(st.V)}
                          for st in stages]}
    if args.trace:
        outcome["stages_full"] = [{"i": st.i, "s": st.s, "U": list(st.U), "V": list(st.V)}
                                  for st in stages]
    report = RunReport("recurrent", {"spec": emit_spec(spec), "stages": args.stages},
                       outcome, {"recurrence": cert.to_json()}, ok,
                       int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_minimal(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    sys_ = spec.build()
    msys, chain = mnl.minimal_subsystem(sys_, enum_len=args.enum_len)
    rep = validate_system(msys)
    outcome = {"pruned": chain.pruned_words(),
               "members_sample": _sample_members(msys.space, msys.depth)}
    if args.trace:
        outcome["chain"] = chain.to_json()
    report = RunReport("minimal", {"spec": emit_spec(spec), "enum_len": args.enum_len},
                       outcome, {"validation": rep.to_json()}, rep.ok,
                       int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_decode_halting(args) -> int:
    sim = load_sim(args.sim)
    t0 = time.monotonic()
    if not sim.bits:
        report = RunReport("decode-halting",
                           {"sim": {"bits": [], "stage_horizon": sim.stage_horizon},
                            "coldepth": args.coldepth, "enum_len": 0},
                           {"bits": {}, "pruned": []}, {}, True,
                           int((time.monotonic() - t0) * 1000))
        return _finish(report, args.out)
    parts = [mnl.build_bit_coder(n, sim, args.coldepth) for n, _ in sim.bits]
    product = mnl.product_system(parts)
    enum_len = args.enum_len if args.enum_len is not None else len(parts) + 2
    msys, chain = mnl.minimal_subsystem(product, enum_len=enum_len)
    decoded = {}
    ok = True
    for n, t in sim.bits:
        got = mnl.decode_bit(msys, n)
        decoded[str(n)] = {"decoded": got, "simulated": t is not None}
        ok = ok and (got == (t is not None))
    outcome = {"bits": decoded, "pruned": chain.pruned_words()}
    report = RunReport("decode-halting",
                       {"sim": {"bits": [[n, t] for n, t in sim.bits],
                                "stage_horizon": sim.stage_horizon},
                        "coldepth": args.coldepth, "enum_len": enum_len},
                       outcome, {}, ok, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_dodge(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    P = spec.build_tree()
    out = avd.build_dodging_class(P, max_period=args.max_period,
                                  sigma_stages=args.sigma_stages)
    if out.case == "orbit":
        pts = iter_members(out.orbit_class, P.depth)
        ok = all(not P.member(w) for w in pts)
        outcome = {"case": "orbit", "generator": out.orbit_generator, "orbit": pts}
        certs = {}
    else:
        sig = out.sigma
        sig_bad = sig.check() if sig else []
        b_max = len(sig.sigmas) if (sig and not out.degenerate_probe) else args.sigma_stages
        not_ap = avd.verify_not_ap(out.hat_class, max(1, b_max))
        ok = not sig_bad and not_ap
        outcome = {"case": "hat",
                   "degenerate_probe": out.degenerate_probe,
                   "hat_sample": _sample_members(out.hat_class, P.depth),
                   "verify_not_ap": not_ap}
        certs = {"sigma": {"sigmas": list(sig.sigmas), "reps": list(sig.reps),
                           "cuts": list(sig.cuts)} if sig else None}
    report = RunReport("dodge", {"spec": emit_spec(spec), "max_period": args.max_period,
                                 "sigma_stages": args.sigma_stages},
                       outcome, certs, ok, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_meet_avoid(args) -> int:
    spec = _read_spec_file(args.spec)
    requests = load_requests(args.requests, spec.alphabet)
    t0 = time.monotonic()
    sys_ = spec.build()
    cur = sys_
    cases = []
    certs = {}
    ok = True
    for rq in requests:
        r, case = ref.meet_or_avoid(cur, rq)
        cases.append({"request": rq.name, "case": case, "s": r.meta.get("s")})
        soundness = ref.check_refinement_cert(r, max_len=min(sys_.depth, 10))
        ok = ok and soundness.ok
        certs[rq.name] = _piecewise_cert_json(r.cert)
        cur = r.child
    outcome = {"cases": cases, "final_sample": _sample_members(cur.space, cur.depth)}
    report = RunReport("meet-avoid", {"spec": emit_spec(spec),
                                      "requests": [rq.name for rq in requests]},
                       outcome, certs, ok, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_force_least(args) -> int:
    spec = _read_spec_file(args.spec)
    if args.phi not in PHI_REGISTRY:
        raise SpecFormatError(f"unknown predicate {args.phi!r} "
                              f"(known: {sorted(PHI_REGISTRY)})", "--phi")
    t0 = time.monotonic()
    sys_ = spec.build()
    phi = ref.Phi1Predicate(args.phi, PHI_REGISTRY[args.phi], args.phi_param)
    r, outcome = ref.least_element_forcing(sys_, phi)
    soundness = ref.check_refinement_cert(r, max_len=min(sys_.depth, 10))
    report = RunReport("force-least",
                       {"spec": emit_spec(spec), "phi": args.phi, "param": args.phi_param},
                       {"outcome": outcome[0], "b": outcome[1],
                        "child_sample": _sample_members(r.child.space, r.child.depth)},
                       {"piecewise": _piecewise_cert_json(r.cert)},
                       soundness.ok, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_ap_point(args) -> int:
    spec = _read_spec_file(args.spec)
    requests = load_requests(args.requests, spec.alphabet) if args.requests else []
    t0 = time.monotonic()
    sys_ = spec.build()
    X, cert, log = ref.construct_ap_point(sys_, requests, c_max=args.cmax)
    sound = ref.check_piecewise_samples(log.chain, log.final.map, samples=200,
                                        seed=args.seed)
    ok = verify_ap(X, cert) and sound.ok
    outcome = {"point": X.prefix, "stages": log.to_json()}
    report = RunReport("ap-point",
                       {"spec": emit_spec(spec), "requests": [r.name for r in requests],
                        "cmax": args.cmax, "seed": args.seed},
                       outcome,
                       {"ap": cert.to_json(), "chain": _piecewise_cert_json(log.chain)},
                       ok, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def cmd_reduce_tree(args) -> int:
    spec = _read_spec_file(args.spec)
    t0 = time.monotonic()
    tree = spec.build_tree()
    equal = rec.gadget_recurrent_equals_paths(tree, args.scan_depth)
    outcome = {"scan_depth": args.scan_depth, "recurrent_equals_paths": equal}
    if args.trace:
        recset = rec.gadget_recurrent_set(tree, args.scan_depth)
        outcome["recurrent_set"] = sorted(recset)
    report = RunReport("reduce-tree", {"spec": emit_spec(spec),
                                       "scan_depth": args.scan_depth},
                       outcome, {}, equal, int((time.monotonic() - t0) * 1000))
    return _finish(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cantordyn",
                                description="finite-depth Cantor-space dynamics "
                                            "with machine-checkable certificates")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="system spec file (JSON)")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--trace", action="store_true", help="include full audit data")
        sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    sp = sub.add_parser("validate", help="check the four system conditions")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("orbit", help="orbit of a point approximation")
    common(sp)
    sp.add_argument("--point", help="start word (default: least full-depth member)")
    sp.add_argument("--steps", type=int)
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("recurrent", help="construct a recurrent point")
    common(sp)
    sp.add_argument("--stages", type=int, default=6)
    sp.set_defaults(fn=cmd_recurrent)

    sp = sub.add_parser("minimal", help="greedy minimal subsystem")
    common(sp)
    sp.add_argument("--enum-len", type=int, default=4)
    sp.set_defaults(fn=cmd_minimal)

    sp = sub.add_parser("decode-halting", help="code and decode a halting simulation")
    sp.add_argument("--sim", required=True, help="halting simulation file (JSON)")
    sp.add_argument("--coldepth", type=int, default=8, help="depth per column")
    sp.add_argument("--enum-len", type=int, default=None)
    sp.add_argument("--out")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_decode_halting)

    sp = sub.add_parser("dodge", help="periodic-orbit dodging construction")
    common(sp)
    sp.add_argument("--max-period", type=int, default=4)
    sp.add_argument("--sigma-stages", type=int, default=4)
    sp.set_defaults(fn=cmd_dodge)

    sp = sub.add_parser("meet-avoid", help="meet-or-avoid refinement chain")
    common(sp)
    sp.add_argument("--requests", required=True, help="requests file (JSON)")
    sp.set_defaults(fn=cmd_meet_avoid)

    sp = sub.add_parser("force-least", help="least-witness forcing")
    common(sp)
    sp.add_argument("--phi", required=True, help=f"predicate name ({sorted(PHI_REGISTRY)})")
    sp.add_argument("--phi-param")
    sp.set_defaults(fn=cmd_force_least)

    sp = sub.add_parser("ap-point", help="construct an almost periodic point")
    common(sp)
    sp.add_argument("--requests", help="requests file (JSON)")
    sp.add_argument("--cmax", type=int, default=4)
    sp.set_defaults(fn=cmd_ap_point)

    sp = sub.add_parser("reduce-tree", help="tree-path reduction oracle")
    common(sp)
    sp.add_argument("--scan-depth", type=int, default=6)
    sp.set_defaults(fn=cmd_reduce_tree)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CantorDynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
