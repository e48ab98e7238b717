"""Command surface and serialization.

Spec files, request files and halting simulations are JSON.  Each
``cmd_*`` function maps the parsed arguments and spec to ``(inputs,
outcome, certificates, verified)``; :func:`main` alone reads the spec,
times the run and emits the report as canonically ordered JSON (sorted
keys, two-space indent), so identical inputs give byte-identical output
with ``timing_ms`` as the single nondeterministic entry.  Exit status is 0
exactly when every embedded certificate re-verifies through the independent
checkers, 1 when one does not, and 2 on malformed input or on a
``piecewise`` map stack too deep to evaluate.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import avoidance as avd
from . import minimal as mnl
from . import recurrence as rec
from . import refinement as ref
from .errors import CantorDynError, SpecFormatError
from .maps import CodedMap, builtin_map, normalize
from .search import find_member, iter_members
from .systems import (ClosedClass, DynSystem, Report, _check_nonempty, explicit_class,
                      forbidden_window_class, full_class, stagewise_class,
                      validate_system, verify_ap, verify_recurrence)
from .words import all_words, check_word


def _field(obj: dict, key: str, loc: str):
    if key not in obj:
        raise SpecFormatError("missing field", f"{loc}.{key}")
    return obj[key]


def _int(value, loc: str) -> int:
    if type(value) is not int:  # a JSON integer: no bool, float or string
        raise SpecFormatError(f"expected an integer, got {value!r}", loc)
    return value


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


class SystemSpec:
    def __init__(self, alphabet: int, depth: int, stage_horizon: int, tree: dict, map: dict):
        self.alphabet = alphabet
        self.depth = depth
        self.stage_horizon = stage_horizon
        self.tree = tree
        self.map = map

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
            for i, (s, _) in enumerate(rem):
                if s < 0:
                    raise SpecFormatError(f"removal stage {s} must be at least 0", f"tree.removals[{i}]")
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
        """The system, rejected as ``validate_system`` would reject it.  Only
        nonemptiness is searched where the rest holds by construction: the map
        conditions over ``shift``, ``column_shift`` or ``identity`` (or
        ``piecewise`` iterates of one), and forward invariance under
        ``identity`` (classes are downward closed) or a suffix map on a
        ``full`` or ``forbidden_words`` tree (a suffix has no new windows)."""
        sys_ = DynSystem(self.build_tree(), self.build_map())
        base = self.map
        while base["kind"] == "piecewise":
            base = base["base"]
        given = base["kind"] == "identity" or (base["kind"] in ("shift", "column_shift")
                                               and self.tree["kind"] in ("full", "forbidden_words"))
        rep = _check_nonempty(Report(), sys_.space, sys_.depth) if given else validate_system(sys_)
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
    horizon = _int(data.get("stage_horizon", 0), "stage_horizon")
    if horizon < 0:
        raise SpecFormatError("stage horizon must be at least 0", "stage_horizon")
    return SystemSpec(alphabet, depth, horizon,
                      dict(_object(data["tree"], "tree")), dict(_object(data["map"], "map")))


def emit_spec(spec: SystemSpec) -> str:
    return canonical_json({"alphabet": spec.alphabet, "depth": spec.depth,
                           "stage_horizon": spec.stage_horizon,
                           "tree": spec.tree, "map": spec.map})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


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
    if horizon < 0:
        raise SpecFormatError("stage horizon must be at least 0", "sim.stage_horizon")
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


def cmd_validate(args, spec: SystemSpec):
    rep = validate_system(DynSystem(spec.build_tree(), spec.build_map()))
    return {}, rep.to_json(), {}, rep.ok


def cmd_orbit(args, spec: SystemSpec):
    word = args.point
    if word is not None and len(_word(word, spec.alphabet, "--point")) > spec.depth:
        raise SpecFormatError(f"longer than depth {spec.depth}", "--point")
    sys_ = spec.build()
    if word is None:
        word = find_member(sys_.space, sys_.depth)
    if word is None:
        raise CantorDynError("class has no full-depth member")
    steps = args.steps if args.steps is not None else sys_.depth
    orb = sys_.map.orbit(word, steps)
    ok = all(sys_.space.member(w) for w in orb)
    return {"point": word, "steps": steps}, {"orbit": orb, "stays_in_class": ok}, {}, ok


def cmd_recurrent(args, spec: SystemSpec):
    sys_ = spec.build()
    X, cert, stages = rec.construct_recurrent_point(sys_, stages=args.stages)
    ok = verify_recurrence(X, cert) and rec.audit_cover_stages(sys_, stages).ok
    outcome = {"point": X.prefix,
               "stages": [{"i": st.i, "s": st.s, "U_size": len(st.U), "V_size": len(st.V)}
                          for st in stages]}
    if args.trace:
        outcome["stages_full"] = [{"i": st.i, "s": st.s, "U": list(st.U), "V": list(st.V)}
                                  for st in stages]
    return {"stages": args.stages}, outcome, {"recurrence": cert.to_json()}, ok


def cmd_minimal(args, spec: SystemSpec):
    msys, chain = mnl.minimal_subsystem(spec.build(), enum_len=args.enum_len)
    rep = validate_system(msys)
    outcome = {"pruned": chain.pruned_words(),
               "members_sample": iter_members(msys.space, msys.depth, limit=8)}
    if args.trace:
        outcome["chain"] = chain.to_json()
    return {"enum_len": args.enum_len}, outcome, {"validation": rep.to_json()}, rep.ok


def cmd_decode_halting(args, spec: None):
    sim = load_sim(args.sim)
    if sim.bits and args.coldepth < 2:
        # decode_bit reads two rows of a column: n + cols + 1 > cols·1 for every n
        raise SpecFormatError("must be at least 2 to decode a bit", "--coldepth")
    t = max((t for _, t in sim.bits if t is not None), default=0)
    if args.coldepth < 2 * t + 1:
        # a bit halting at stage t has column period 2t: a shorter column can
        # keep a rotation that never shows 01, which reads as never halting
        raise SpecFormatError(f"must be at least 2t + 1 = {2 * t + 1} to decode "
                              f"a bit with entry stage t = {t}", "--coldepth")
    parts = [mnl.build_bit_coder(n, sim, args.coldepth) for n, _ in sim.bits]
    enum_len = len(parts) + 2 if args.enum_len is None else args.enum_len
    inputs = {"sim": {"bits": [[n, t] for n, t in sim.bits],
                      "stage_horizon": sim.stage_horizon},
              "coldepth": args.coldepth, "enum_len": enum_len if parts else 0}
    if not parts:
        return inputs, {"bits": {}, "pruned": []}, {}, True
    msys, chain = mnl.minimal_subsystem(mnl.product_system(parts), enum_len=enum_len)
    members = mnl.decode_members(msys)
    decoded = {}
    ok = True
    for n, t in sim.bits:
        got = mnl.decode_bit(msys, n, members)
        decoded[str(n)] = {"decoded": got, "simulated": t is not None}
        ok = ok and (got == (t is not None))
    return inputs, {"bits": decoded, "pruned": chain.pruned_words()}, {}, ok


def cmd_dodge(args, spec: SystemSpec):
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
        # a degenerate probe shows runs of at most depth − 1 letters past its first
        b_max = (len(sig.sigmas) if (sig and not out.degenerate_probe)
                 else min(args.sigma_stages, P.depth - 1))
        not_ap = avd.verify_not_ap(out.hat_class, max(1, b_max))
        ok = not sig_bad and not_ap
        outcome = {"case": "hat",
                   "degenerate_probe": out.degenerate_probe,
                   "hat_sample": iter_members(out.hat_class, P.depth, limit=8),
                   "verify_not_ap": not_ap}
        certs = {"sigma": {"sigmas": list(sig.sigmas), "reps": list(sig.reps),
                           "cuts": list(sig.cuts)} if sig else None}
    inputs = {"max_period": args.max_period, "sigma_stages": args.sigma_stages}
    return inputs, outcome, certs, ok


def cmd_meet_avoid(args, spec: SystemSpec):
    requests = load_requests(args.requests, spec.alphabet)
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
    outcome = {"cases": cases, "final_sample": iter_members(cur.space, cur.depth, limit=8)}
    return {"requests": [rq.name for rq in requests]}, outcome, certs, ok


def cmd_force_least(args, spec: SystemSpec):
    if args.phi not in PHI_REGISTRY:
        raise SpecFormatError(f"unknown predicate {args.phi!r} "
                              f"(known: {sorted(PHI_REGISTRY)})", "--phi")
    sys_ = spec.build()
    phi = ref.Phi1Predicate(args.phi, PHI_REGISTRY[args.phi], args.phi_param)
    r, outcome = ref.least_element_forcing(sys_, phi)
    soundness = ref.check_refinement_cert(r, max_len=min(sys_.depth, 10))
    return ({"phi": args.phi, "param": args.phi_param},
            {"outcome": outcome[0], "b": outcome[1],
             "child_sample": iter_members(r.child.space, r.child.depth, limit=8)},
            {"piecewise": _piecewise_cert_json(r.cert)}, soundness.ok)


def cmd_ap_point(args, spec: SystemSpec):
    if args.cmax >= spec.depth:  # the row for cylinder length c needs a gap b >= 1, c + b <= depth
        raise SpecFormatError(f"must be below depth {spec.depth} to verify a gap bound", "--cmax")
    requests = load_requests(args.requests, spec.alphabet) if args.requests else []
    X, cert, log = ref.construct_ap_point(spec.build(), requests, c_max=args.cmax)
    sound = ref.check_piecewise_samples(log.chain, log.final.map, samples=200,
                                        seed=args.seed)
    return ({"requests": [r.name for r in requests], "cmax": args.cmax, "seed": args.seed},
            {"point": X.prefix, "stages": log.to_json()},
            {"ap": cert.to_json(), "chain": _piecewise_cert_json(log.chain)},
            verify_ap(X, cert) and sound.ok)


def cmd_reduce_tree(args, spec: SystemSpec):
    scan = args.scan_depth
    if spec.alphabet != 2:
        raise SpecFormatError("reduce-tree needs a source tree over alphabet 2", "alphabet")
    if spec.depth < 2 * scan + 1:
        raise SpecFormatError(f"must be at least 2*scan_depth + 1 = {2 * scan + 1} "
                              f"for --scan-depth {scan}", "depth")
    tree = spec.build_tree()
    recurrent = rec.gadget_recurrent_set(tree, scan)
    equal = recurrent == set(iter_members(tree, scan))
    outcome = {"scan_depth": scan, "recurrent_equals_paths": equal}
    if args.trace:
        outcome["recurrent_set"] = sorted(recurrent)
    return {"scan_depth": scan}, outcome, {}, equal


def _at_least(least: int):
    """An argparse type for integers no smaller than ``least``: argparse then
    rejects a smaller count with the flag named and exit code 2."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


_COUNT, _POSITIVE = _at_least(0), _at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call gets a fresh namespace."""
    p = argparse.ArgumentParser(prog="cantordyn",
                                description="finite-depth Cantor-space dynamics "
                                            "with machine-checkable certificates")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, spec=True, trace=False):
        sp = sub.add_parser(name, help=help)
        if spec:
            sp.add_argument("spec", help="system spec file (JSON)")
        sp.add_argument("--out", help="write the report here instead of stdout")
        if trace:
            sp.add_argument("--trace", action="store_true", help="include full audit data")
        sp.set_defaults(fn=fn)
        return sp

    command("validate", cmd_validate, "check the three system conditions "
                                       "(map, nonempty, forward invariance)")

    sp = command("orbit", cmd_orbit, "orbit of a point approximation")
    sp.add_argument("--point", help="start word (default: least full-depth member)")
    sp.add_argument("--steps", type=_COUNT)

    sp = command("recurrent", cmd_recurrent, "construct a recurrent point", trace=True)
    sp.add_argument("--stages", type=_COUNT, default=6)

    sp = command("minimal", cmd_minimal, "greedy minimal subsystem", trace=True)
    sp.add_argument("--enum-len", type=_COUNT, default=4)

    sp = command("decode-halting", cmd_decode_halting,
                 "code and decode a halting simulation", spec=False)
    sp.add_argument("--sim", required=True, help="halting simulation file (JSON)")
    sp.add_argument("--coldepth", type=_POSITIVE, default=8, help="depth per column")
    sp.add_argument("--enum-len", type=_COUNT, default=None)

    sp = command("dodge", cmd_dodge, "periodic-orbit dodging construction")
    sp.add_argument("--max-period", type=_COUNT, default=4)
    sp.add_argument("--sigma-stages", type=_POSITIVE, default=4)

    sp = command("meet-avoid", cmd_meet_avoid, "meet-or-avoid refinement chain")
    sp.add_argument("--requests", required=True, help="requests file (JSON)")

    sp = command("force-least", cmd_force_least, "least-witness forcing")
    sp.add_argument("--phi", required=True, help=f"predicate name ({sorted(PHI_REGISTRY)})")
    sp.add_argument("--phi-param")

    sp = command("ap-point", cmd_ap_point, "construct an almost periodic point")
    sp.add_argument("--requests", help="requests file (JSON)")
    sp.add_argument("--cmax", type=_COUNT, default=4)
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled chain check")

    sp = command("reduce-tree", cmd_reduce_tree, "tree-path reduction oracle", trace=True)
    sp.add_argument("--scan-depth", type=_COUNT, default=6)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = None
        if "spec" in args:
            with open(args.spec, encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
        t0 = time.monotonic()
        inputs, outcome, certificates, verified = args.fn(args, spec)
        timing_ms = int((time.monotonic() - t0) * 1000)
        if spec is not None:
            inputs["spec"] = emit_spec(spec)
        text = canonical_json({"command": args.command, "inputs_digest": digest(inputs),
                               "outcome": outcome, "certificates": certificates,
                               "verified": verified, "timing_ms": timing_ms})
    except SpecFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CantorDynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:  # every piecewise layer nests the evaluation of its base
        print("error: map: piecewise stack too deep to evaluate within Python's "
              f"recursion limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if verified else 1


if __name__ == "__main__":
    raise SystemExit(main())
