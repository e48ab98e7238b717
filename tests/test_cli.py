import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordyn import cli, minimal
from cantordyn.cli import build_parser, digest, emit_spec, main, parse_spec
from cantordyn.errors import SpecFormatError
from cantordyn.maps import CodedMap
from cantordyn.systems import DynSystem, validate_system
from cantordyn.words import all_words

GOLDEN = {"alphabet": 2, "depth": 16, "stage_horizon": 0,
          "tree": {"kind": "forbidden_words", "words": ["11"]},
          "map": {"kind": "shift"}}

PIECEWISE = {"kind": "piecewise", "l": 1, "b": 2, "j": [["0", 1], ["1", 2]],
             "base": {"kind": "shift"}}

S2_NODES = {"alphabet": 2, "depth": 12, "stage_horizon": 0,
            "tree": {"kind": "explicit_nodes",
                     "nodes": ["001100110011", "011001100110",
                               "110011001100", "100110011001"]},
            "map": {"kind": "shift"}}


@pytest.fixture
def golden_spec(tmp_path):
    p = tmp_path / "golden.json"
    p.write_text(json.dumps(GOLDEN))
    return str(p)


@pytest.fixture
def requests_file(tmp_path):
    p = tmp_path / "reqs.json"
    p.write_text(json.dumps([{"name": "u0", "words": ["1"]},
                             {"name": "u1", "words": ["0", "1"]}]))
    return str(p)


@pytest.fixture
def sim_file(tmp_path):
    p = tmp_path / "sim.json"
    p.write_text(json.dumps({"stage_horizon": 6,
                             "bits": [[0, None], [1, 1], [2, 2], [3, None]]}))
    return str(p)


def run_to_json(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestSpecParsing:
    def test_round_trip(self):
        spec = parse_spec(json.dumps(GOLDEN))
        again = parse_spec(emit_spec(spec))
        assert emit_spec(spec) == emit_spec(again)

    def test_golden_builds(self):
        sys_ = parse_spec(json.dumps(GOLDEN)).build()
        assert sys_.depth == 16

    def test_s2_nodes_build(self):
        sys_ = parse_spec(json.dumps(S2_NODES)).build()
        assert sys_.space.member("0011")

    def test_identity_on_forbidden_tree(self):
        spec = dict(GOLDEN, map={"kind": "identity"})
        assert parse_spec(json.dumps(spec)).build()

    def test_located_errors(self):
        with pytest.raises(SpecFormatError) as e1:
            parse_spec("{nope")
        assert "line" in e1.value.location
        with pytest.raises(SpecFormatError) as e2:
            parse_spec(json.dumps({"alphabet": 5, "depth": 4,
                                   "tree": {"kind": "full"}, "map": {"kind": "shift"}}))
        assert e2.value.location == "alphabet"
        with pytest.raises(SpecFormatError) as e3:
            parse_spec(json.dumps(dict(GOLDEN, tree={"kind": "mystery"}))).build_tree()
        assert e3.value.location == "tree.kind"

    def test_piecewise_map_spec(self):
        spec = dict(GOLDEN, map={"kind": "piecewise", "l": 1, "b": 2,
                                 "j": [["0", 1], ["1", 2]],
                                 "base": {"kind": "shift"}})
        sys_ = parse_spec(json.dumps(spec)).build()
        assert sys_.map.apply("0110") == "110"
        assert sys_.map.apply("1110") == "10"

    def test_stagewise_tree_spec(self):
        # golden mean as a removal schedule: drop each first occurrence of 11
        from itertools import product
        removals = [[2, "".join(u) + "11"]
                    for n in range(7)
                    for u in product("01", repeat=n) if "11" not in "".join(u)]
        spec = {"alphabet": 2, "depth": 8, "stage_horizon": 4,
                "tree": {"kind": "stagewise", "removals": removals},
                "map": {"kind": "shift"}}
        sys_ = parse_spec(json.dumps(spec)).build()
        assert sys_.space.member("0110", stage=1)
        assert not sys_.space.member("0110")

    def test_table_map_spec(self):
        entries = [[w, w[1:]] for n in range(5)
                   for w in ("".join(t) for t in __import__("itertools").product("01", repeat=n))]
        spec = {"alphabet": 2, "depth": 4,
                "tree": {"kind": "full"},
                "map": {"kind": "table", "entries": entries}}
        sys_ = parse_spec(json.dumps(spec)).build()
        assert sys_.map.apply("0110") == "110"

    def test_empty_sim_vacuous(self, tmp_path):
        sim = tmp_path / "empty.json"
        sim.write_text(json.dumps({"stage_horizon": 4, "bits": []}))
        out = tmp_path / "out.json"
        assert main(["decode-halting", "--sim", str(sim), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verified"] and rep["outcome"]["bits"] == {}


class TestCommands:
    def test_validate(self, golden_spec, tmp_path):
        code, rep = run_to_json(["validate", golden_spec], tmp_path, "v.json")
        assert code == 0 and rep["verified"] and rep["outcome"]["ok"]

    def test_orbit(self, golden_spec, tmp_path):
        code, rep = run_to_json(["orbit", golden_spec, "--point", "0101010101010101",
                                 "--steps", "2"], tmp_path, "o.json")
        assert code == 0
        assert rep["outcome"]["orbit"] == ["0101010101010101", "101010101010101",
                                           "01010101010101"]

    def test_orbit_empty_point_starts_at_root(self, golden_spec, tmp_path):
        code, rep = run_to_json(["orbit", golden_spec, "--point", "", "--steps", "2"],
                                tmp_path, "o.json")
        assert code == 0 and rep["outcome"]["orbit"] == ["", "", ""]

    def test_recurrent(self, golden_spec, tmp_path):
        code, rep = run_to_json(["recurrent", golden_spec, "--stages", "3"],
                                tmp_path, "r.json")
        assert code == 0 and rep["verified"]
        assert rep["outcome"]["point"] == "0" * 16
        assert rep["certificates"]["recurrence"]["entries"]

    def test_recurrent_names_the_length_cap(self, tmp_path, capsys):
        # the golden mean's length-19 level has 10,946 members, far under the
        # member cap, so the message names the bound and the length cap
        spec = tmp_path / "golden-40.json"
        spec.write_text(json.dumps(dict(GOLDEN, depth=40)))
        assert main(["recurrent", str(spec), "--stages", "5"]) == 1
        assert capsys.readouterr().err == (
            "error: stage 5: covering bound 19 passes the length cap 18\n")

    def test_minimal(self, golden_spec, tmp_path):
        code, rep = run_to_json(["minimal", golden_spec], tmp_path, "m.json")
        assert code == 0
        assert rep["outcome"]["members_sample"] == ["0" * 16]

    def test_decode_halting(self, sim_file, tmp_path):
        code, rep = run_to_json(["decode-halting", "--sim", sim_file,
                                 "--coldepth", "8"], tmp_path, "h.json")
        assert code == 0 and rep["verified"]
        got = {k: v["decoded"] for k, v in rep["outcome"]["bits"].items()}
        assert got == {"0": False, "1": True, "2": True, "3": False}

    def test_decode_halting_lists_the_class_once(self, tmp_path, monkeypatch):
        lengths = []
        real = minimal.iter_members

        def counted(space, length, limit=None):
            lengths.append(length)
            return real(space, length, limit)

        monkeypatch.setattr(minimal, "iter_members", counted)
        for nbits in (2, 5):
            sim = tmp_path / f"sim{nbits}.json"
            sim.write_text(json.dumps({"stage_horizon": 2, "bits": [
                [n, None if n % 2 else n % 4 // 2 + 1] for n in range(nbits)]}))
            lengths.clear()
            code, _ = run_to_json(["decode-halting", "--sim", str(sim), "--coldepth", "6"],
                                  tmp_path, f"h{nbits}.json")
            # the columns are listed at depth 6, the minimal class once at full depth
            assert code == 0 and lengths.count(6 * nbits) == 1, (nbits, lengths)

    def test_dodge(self, tmp_path):
        p = tmp_path / "p0.json"
        p.write_text(json.dumps({"alphabet": 2, "depth": 24,
                                 "tree": {"kind": "explicit_nodes", "nodes": ["0" * 24]},
                                 "map": {"kind": "shift"}}))
        code, rep = run_to_json(["dodge", str(p)], tmp_path, "d.json")
        assert code == 0 and rep["outcome"]["case"] == "orbit"
        assert rep["outcome"]["generator"] == "1"

    @pytest.mark.parametrize("stages", [7, 8, 9])
    def test_dodge_sigma_stages_past_the_depth(self, tmp_path, stages):
        # the degenerate probe 10000000 shows runs of at most 7 letters past
        # its first, so the gap scan asks for no longer run than that
        p = tmp_path / "full-8.json"
        p.write_text(json.dumps(dict(GOLDEN, depth=8, tree={"kind": "full"})))
        code, rep = run_to_json(["dodge", str(p), "--sigma-stages", str(stages)],
                                tmp_path, "d.json")
        assert code == 0 and rep["outcome"]["degenerate_probe"] == "10000000"
        assert rep["outcome"]["verify_not_ap"] is True

    def test_dodge_sigma_stages_past_the_depth_orbit_case(self, tmp_path):
        p = tmp_path / "zeros-8.json"
        p.write_text(json.dumps(dict(GOLDEN, depth=8, tree={"kind": "explicit_nodes",
                                                            "nodes": ["0" * 8]})))
        code, rep = run_to_json(["dodge", str(p), "--sigma-stages", "20"], tmp_path, "d.json")
        assert code == 0 and rep["outcome"]["case"] == "orbit"

    def test_meet_avoid(self, golden_spec, requests_file, tmp_path):
        code, rep = run_to_json(["meet-avoid", golden_spec, "--requests", requests_file],
                                tmp_path, "ma.json")
        assert code == 0
        cases = {c["request"]: c["case"] for c in rep["outcome"]["cases"]}
        assert cases == {"u0": "avoid", "u1": "meet"}

    def test_force_least(self, golden_spec, tmp_path):
        code, rep = run_to_json(["force-least", golden_spec, "--phi", "prefix-one"],
                                tmp_path, "fl.json")
        assert code == 0 and rep["outcome"]["outcome"] == "empty"

    def test_ap_point(self, golden_spec, requests_file, tmp_path):
        code, rep = run_to_json(["ap-point", golden_spec, "--requests", requests_file,
                                 "--cmax", "2"], tmp_path, "ap.json")
        assert code == 0 and rep["verified"]
        assert rep["certificates"]["ap"]["rows"]

    def test_ap_point_cmax_below_depth(self, tmp_path, capsys):
        # a row for cylinder length c needs a gap bound b >= 1 with c + b <= depth
        spec = tmp_path / "gm-8.json"
        spec.write_text(json.dumps(dict(GOLDEN, depth=8)))
        assert main(["ap-point", str(spec), "--cmax", "8"]) == 2
        assert "error: --cmax: must be below depth 8" in capsys.readouterr().err
        code, rep = run_to_json(["ap-point", str(spec), "--cmax", "7"], tmp_path, "ap.json")
        assert code == 0 and len(rep["certificates"]["ap"]["rows"]) == 7

    def test_ap_point_catches_corrupt_compose(self, tmp_path, monkeypatch):
        # the chain is checked against the stage-by-stage map, so a composed
        # certificate that disagrees with its factors fails the report
        from cantordyn import refinement
        real = refinement.compose

        def corrupt(outer, inner):
            c = real(outer, inner)
            return refinement.PiecewiseIterate(c.l, c.b + 1, c.base, lambda w: c.j(w) + 1)

        monkeypatch.setattr(refinement, "compose", corrupt)
        spec, reqs = tmp_path / "golden-64.json", tmp_path / "reqs-c9.json"
        spec.write_text(json.dumps(dict(GOLDEN, depth=64)))
        reqs.write_text(json.dumps([{"name": "u0", "words": ["0"]}, {"name": "u1", "words": ["01"]},
                                    {"name": "u2", "words": ["10"]}, {"name": "u3", "words": ["00"]},
                                    {"name": "u4", "stages": [[0, "000"], [4, "010"]]}]))
        code, rep = run_to_json(["ap-point", str(spec), "--requests", str(reqs)],
                                tmp_path, "ap.json")
        assert code == 1 and not rep["verified"]

    def test_meet_avoid_catches_corrupt_certificate(self, golden_spec, tmp_path, monkeypatch):
        # the child's map is built from the corrupt certificate, so it agrees
        # with f^j; only the child's invariance under f^j can fail the report
        from cantordyn import refinement
        from cantordyn.systems import DynSystem
        real = refinement.meet_or_avoid

        def corrupt(sys_, request):
            r, case = real(sys_, request)
            c = r.cert
            bad = refinement.PiecewiseIterate(c.l, c.b + 1, c.base, lambda w: c.j(w) + 1)
            child = DynSystem(r.child.space, bad.induced())
            return refinement.Refinement(child, bad, r.case, r.meta), case

        monkeypatch.setattr(refinement, "meet_or_avoid", corrupt)
        reqs = tmp_path / "reqs-a.json"
        reqs.write_text(json.dumps([{"name": "a", "words": ["0"]}]))
        code, rep = run_to_json(["meet-avoid", golden_spec, "--requests", str(reqs)],
                                tmp_path, "ma.json")
        assert code == 1 and not rep["verified"]

    def test_reduce_tree(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"alphabet": 2, "depth": 13,
                                 "tree": {"kind": "explicit_nodes",
                                          "nodes": ["0" * 13, "01", "1"]},
                                 "map": {"kind": "shift"}}))
        code, rep = run_to_json(["reduce-tree", str(p), "--scan-depth", "5"],
                                tmp_path, "rt.json")
        assert code == 0 and rep["outcome"]["recurrent_equals_paths"]

    @pytest.mark.parametrize("tree, code, equal", [
        ({"kind": "forbidden_words", "words": ["11"]}, 0, True),
        ({"kind": "stagewise", "removals": [[0, ""]]}, 1, False),
    ], ids=["golden-mean", "root-removed"])
    def test_reduce_tree_scan_depth_zero(self, tmp_path, tree, code, equal):
        # the one scan word, the empty word, always returns; it is a path
        # exactly when the root is on the tree
        p = tmp_path / "t.json"
        p.write_text(json.dumps(dict(GOLDEN, tree=tree)))
        got, rep = run_to_json(["reduce-tree", str(p), "--scan-depth", "0", "--trace"],
                               tmp_path, "rt0.json")
        assert got == code and rep["verified"] is equal
        assert rep["outcome"] == {"recurrent_equals_paths": equal, "recurrent_set": [""],
                                  "scan_depth": 0}

    def test_parse_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["validate", str(p)]) == 2

    @pytest.mark.parametrize("spec, location", [
        (dict(GOLDEN, tree={"kind": "forbidden_words"}), "tree.words"),
        (dict(GOLDEN, map={"kind": "column_shift"}), "map.columns"),
        (dict(GOLDEN, alphabet="x"), "alphabet"),
        (dict(GOLDEN, tree={"kind": "forbidden_words", "words": ["12"]}), "tree.words[0]"),
        (dict(GOLDEN, tree={"kind": "stagewise"}), "tree.removals"),
        (dict(GOLDEN, tree={"kind": "stagewise", "removals": [["x", "11"]]}),
         "tree.removals[0]"),
        (dict(GOLDEN, map={"kind": "table"}), "map.entries"),
        (dict(GOLDEN, map={"kind": "table", "entries": [["", ""]]}), "map.entries"),
        (dict(GOLDEN, map={k: v for k, v in PIECEWISE.items() if k != "base"}), "map.base"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0", "x"], ["1", 2]])), "map.j[0]"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0", 1]])), "map.j"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0", 1], ["1", 3]])), "map.j[1]"),
        (dict(GOLDEN, map=dict(PIECEWISE, b=0)), "map"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0"]])), "map.j[0]"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0", 1], ["1", 2, 3]])), "map.j[1]"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=["01"])), "map.j[0]"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=5)), "map.j"),
        (dict(GOLDEN, map={"kind": "table", "entries": [["0"]]}), "map.entries[0]"),
        (dict(GOLDEN, tree={"kind": "stagewise", "removals": [[1]]}), "tree.removals[0]"),
        (5, "spec"),
        (dict(GOLDEN, tree="full"), "tree"),
        (dict(GOLDEN, map=["shift"]), "map"),
        (dict(GOLDEN, map=dict(PIECEWISE, base="shift")), "map.base"),
        (dict(GOLDEN, tree={"kind": "forbidden_words", "words": 11}), "tree.words"),
        (dict(GOLDEN, tree={"kind": "forbidden_words", "words": "11"}), "tree.words"),
        (dict(GOLDEN, tree={"kind": "explicit_nodes", "nodes": [0]}), "tree.nodes[0]"),
        (dict(GOLDEN, tree={"kind": "forbidden_words", "words": ["11", ""]}), "tree.words[1]"),
        (dict(GOLDEN, stage_horizon=-1, tree={"kind": "stagewise", "removals": [[0, "11"]]}),
         "stage_horizon"),
        (dict(GOLDEN, depth=8.9), "depth"),
        (dict(GOLDEN, depth="8"), "depth"),
        (dict(GOLDEN, stage_horizon=True), "stage_horizon"),
        (dict(GOLDEN, map={"kind": "column_shift", "columns": 1.5}), "map.columns"),
        (dict(GOLDEN, map=dict(PIECEWISE, j=[["0", 1], ["1", 2.0]])), "map.j[1]"),
        (dict(GOLDEN, stage_horizon=2, tree={"kind": "stagewise",
                                             "removals": [[0, "0"], [-1, "11"]]}),
         "tree.removals[1]"),
    ], ids=["no-words", "no-columns", "alphabet-x", "letter-2", "no-removals",
            "stage-x", "no-entries", "table-partial", "no-base", "exponent-x",
            "exponent-missing", "exponent-range", "bound-zero", "j-short", "j-long",
            "j-string", "j-not-list", "entry-short", "removal-short", "spec-not-object",
            "tree-not-object", "map-not-object", "base-not-object", "words-number",
            "words-string", "node-number", "empty-forbidden-word", "horizon-negative",
            "depth-float", "depth-string", "horizon-bool", "columns-float", "exponent-float",
            "removal-stage-negative"])
    def test_malformed_spec_exit_code(self, tmp_path, capsys, spec, location):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        assert main(["validate", str(p)]) == 2
        assert f"error: {location}:" in capsys.readouterr().err

    @pytest.mark.parametrize("point, message", [
        ("0a", "letter 'a' not in alphabet of size 2"),
        ("0120", "letter '2' not in alphabet of size 2"),
        ("0" * 17, "longer than depth 16"),
    ], ids=["letter-a", "letter-2", "beyond-depth"])
    def test_malformed_point_exit_code(self, golden_spec, capsys, point, message):
        assert main(["orbit", golden_spec, "--point", point]) == 2
        assert f"error: --point: {message}" in capsys.readouterr().err

    def test_deeply_nested_json_exit_code(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"alphabet": 2, "depth": 8, "tree": {"kind": "full"}, "map": '
                     + "[" * 10 ** 5 + "]" * 10 ** 5 + "}")
        assert main(["validate", str(p)]) == 2
        assert "error: json:" in capsys.readouterr().err

    def test_malformed_sim_exit_code(self, tmp_path, capsys):
        p = tmp_path / "sim.json"
        p.write_text(json.dumps({"stage_horizon": 6}))
        assert main(["decode-halting", "--sim", str(p)]) == 2
        assert "error: sim.bits:" in capsys.readouterr().err

    def test_coldepth_one_exit_code(self, sim_file, tmp_path, capsys):
        # one row per column: decode_bit needs two (n + cols + 1 > cols·1)
        assert main(["decode-halting", "--sim", sim_file, "--coldepth", "1"]) == 2
        assert "error: --coldepth: must be at least 2" in capsys.readouterr().err
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"stage_horizon": 4, "bits": []}))
        assert main(["decode-halting", "--sim", str(empty), "--coldepth", "1",
                     "--out", str(tmp_path / "out.json")]) == 0

    def test_coldepth_below_halting_period_exit_code(self, tmp_path, capsys):
        # bit 0 halts at stage 4, so its column has period 8: at column depth 8
        # the chain kept a rotation that never shows 01 and decoded "never halts"
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"stage_horizon": 4, "bits": [[0, 4], [1, None]]}))
        assert main(["decode-halting", "--sim", str(sim), "--coldepth", "8"]) == 2
        assert "error: --coldepth: must be at least 2t + 1 = 9" in capsys.readouterr().err
        code, rep = run_to_json(["decode-halting", "--sim", str(sim), "--coldepth", "9"],
                                tmp_path, "h9.json")
        assert code == 0 and rep["outcome"]["bits"] == {
            "0": {"decoded": True, "simulated": True},
            "1": {"decoded": False, "simulated": False}}

    def test_malformed_requests_exit_code(self, golden_spec, tmp_path, capsys):
        p = tmp_path / "reqs.json"
        p.write_text(json.dumps([{"name": "u0", "stages": [["x", "1"]]}]))
        assert main(["meet-avoid", golden_spec, "--requests", str(p)]) == 2
        assert "error: requests[0].stages[0]:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, location", [
        ('{"stage_horizon": 4, "bits": [[0]]}', "sim.bits[0]"),
        ('{"stage_horizon": 4, "bits": [[0, null, 1]]}', "sim.bits[0]"),
        ('{"stage_horizon": 4, "bits": [[0, null], [1, 9]]}', "sim.bits[1]"),
        ('{"stage_horizon": 4, "bits": [[0, 0]]}', "sim.bits[0]"),
        ('{broken', "line 1"),
        ('[1]', "sim"),
        ('{"stage_horizon": 4, "bits": [[0, null], [0, 2]]}', "sim.bits[1]"),
        ('{"stage_horizon": 4, "bits": [[1, 2], [0, null]]}', "sim.bits[0]"),
        ('{"stage_horizon": 4, "bits": [[5, null]]}', "sim.bits[0]"),
        ('{"stage_horizon": 4, "bits": [[-1, 2], [0, null]]}', "sim.bits[0]"),
        ('{"stage_horizon": -1, "bits": [[0, null]]}', "sim.stage_horizon"),
        ('{"stage_horizon": 4.5, "bits": [[0, null]]}', "sim.stage_horizon"),
        ('{"stage_horizon": 4, "bits": [[0, null], [true, 2]]}', "sim.bits[1]"),
        ('{"stage_horizon": 4, "bits": [[0, "2"]]}', "sim.bits[0]"),
    ], ids=["bit-short", "bit-long", "stage-above-horizon", "stage-zero", "not-json",
            "not-object", "index-twice", "index-swapped", "index-beyond", "index-negative",
            "horizon-negative", "horizon-float", "index-bool", "stage-string"])
    def test_malformed_sim_file(self, tmp_path, capsys, text, location):
        p = tmp_path / "sim.json"
        p.write_text(text)
        assert main(["decode-halting", "--sim", str(p)]) == 2
        assert f"error: {location}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, location", [
        ('[{"name": "u0", "stages": [[1]]}]', "requests[0].stages[0]"),
        ('[{"name": "u0", "stages": [[1, "1"], [2, "0", 3]]}]', "requests[0].stages[1]"),
        ('{broken', "line 1"),
        ('[1]', "requests[0]"),
        ('{"name": "u0"}', "requests"),
        ('[{"name": "u0", "words": [1]}]', "requests[0].words[0]"),
        ('[{"name": "u0", "stages": [[0, 5]]}]', "requests[0].stages[0]"),
        ('[{"name": "u0", "words": "1"}]', "requests[0].words"),
        ('[{"name": "u0", "words": ["0", "2"]}]', "requests[0].words[1]"),
        ('[{"name": "u0", "stages": [[0, "0"], [1, "12"]]}]', "requests[0].stages[1]"),
        ('[{"name": ["u0"], "words": ["1"]}]', "requests[0].name"),
        ('[{"name": 5, "words": ["1"]}]', "requests[0].name"),
        ('[{"name": "u0", "words": ["1"]}, {"words": ["0"]}, {"name": "u0", "words": ["0"]}]',
         "requests[2].name"),
        ('[{"name": "u0", "stages": [[0, "0"], [1.5, "1"]]}]', "requests[0].stages[1]"),
        ('[{"name": "u0", "stages": [[false, "1"]]}]', "requests[0].stages[0]"),
    ], ids=["stage-short", "stage-long", "not-json", "entry-not-object", "not-list",
            "word-number", "stage-word-number", "words-string", "word-letter-2",
            "stage-word-letter-2", "name-list", "name-number", "name-twice",
            "stage-float", "stage-bool"])
    def test_malformed_requests_file(self, golden_spec, tmp_path, capsys, text, location):
        p = tmp_path / "reqs.json"
        p.write_text(text)
        assert main(["meet-avoid", golden_spec, "--requests", str(p)]) == 2
        assert f"error: {location}:" in capsys.readouterr().err

    def test_reduce_tree_depth_1500(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(dict(GOLDEN, depth=1500, tree={"kind": "explicit_nodes",
                                                               "nodes": ["0" * 1500]})))
        code, rep = run_to_json(["reduce-tree", str(p), "--scan-depth", "1"],
                                tmp_path, "deep-out.json")
        assert code == 0 and rep["outcome"]["recurrent_equals_paths"]

    @pytest.mark.parametrize("spec, message", [
        (dict(GOLDEN, alphabet=3), "error: alphabet: reduce-tree needs a source tree over alphabet 2"),
        (dict(GOLDEN, depth=10), "error: depth: must be at least 2*scan_depth + 1 = 11 "
                                 "for --scan-depth 5"),
    ], ids=["alphabet-3", "depth-below-scan"])
    def test_reduce_tree_spec_errors(self, tmp_path, capsys, spec, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        assert main(["reduce-tree", str(p), "--scan-depth", "5"]) == 2
        assert message in capsys.readouterr().err

    def test_invalid_system_error_is_bounded(self, tmp_path, capsys):
        # 1533 forward-invariance violations: the error names the first three
        # and counts the rest, while the validate report keeps every entry
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(GOLDEN, depth=40, stage_horizon=3, tree={
            "kind": "stagewise", "removals": [[0, "11"], [2, "0101"]]})))
        assert main(["ap-point", str(p)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 2048
        assert err.startswith("error: system: spec builds an invalid system: "
                              "forward-invariance @ '011' (f('011') = '11' leaves the class); ")
        assert err.rstrip().endswith("(and 1530 more)")
        code, rep = run_to_json(["validate", str(p)], tmp_path, "bad-out.json")
        assert code == 1 and len(rep["outcome"]["violations"]) == 1533

    def test_validate_depth_1500(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(dict(GOLDEN, depth=1500, tree={"kind": "full"})))
        code, rep = run_to_json(["validate", str(p)], tmp_path, "deep-out.json")
        assert code == 0 and rep["verified"]


def _build_verdict(spec: dict) -> str:
    """``SystemSpec.build``'s verdict on a spec: "ok" or its error."""
    try:
        parse_spec(json.dumps(spec)).build()
    except SpecFormatError as e:
        return str(e)
    return "ok"


def _validate_verdict(spec: dict):
    """The full ``validate_system`` report on a spec, and the verdict that
    ``build`` gave on it before it skipped any check."""
    parsed = parse_spec(json.dumps(spec))
    rep = validate_system(DynSystem(parsed.build_tree(), parsed.build_map()))
    return rep, "ok" if rep.ok else f"system: spec builds an invalid system: {rep.summary()}"


def _table(k: int, depth: int, image) -> dict:
    return {"kind": "table", "entries": [[w, image(w)] for n in range(depth + 1)
                                         for w in all_words(k, n)]}


@st.composite
def constructed_specs(draw):
    """Specs whose map and forward-invariance conditions hold by
    construction: a ``full`` or ``forbidden_words`` tree under a stack of
    ``piecewise`` layers over a builtin map, or any tree under one over
    ``identity``."""
    k, depth = draw(st.sampled_from([2, 3])), draw(st.integers(1, 10))
    words = st.text(alphabet="012"[:k], min_size=1, max_size=3)
    m = draw(st.one_of(st.just({"kind": "identity"}), st.sampled_from(
        [{"kind": "shift"}] + [{"kind": "column_shift", "columns": c} for c in range(1, 5)])))
    trees = [st.just({"kind": "full"}),
             st.builds(lambda ws: {"kind": "forbidden_words", "words": ws},
                       st.lists(words, min_size=1, max_size=3))]
    if m["kind"] == "identity":
        nodes = st.text(alphabet="012"[:k], max_size=depth)
        trees += [st.builds(lambda ns: {"kind": "explicit_nodes", "nodes": ns},
                            st.lists(nodes, max_size=4)),
                  st.builds(lambda rs: {"kind": "stagewise", "removals": rs},
                            st.lists(st.tuples(st.integers(0, 4), words).map(list), max_size=4))]
    for _ in range(draw(st.integers(0, 2))):
        l, b = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        m = {"kind": "piecewise", "l": l, "b": b, "base": m,
             "j": [[w, draw(st.integers(1, b))] for w in all_words(k, l)]}
    return {"alphabet": k, "depth": depth, "stage_horizon": draw(st.integers(0, 4)),
            "tree": draw(st.one_of(trees)), "map": m}


class TestBuildChecks:
    """``build`` skips the map and forward-invariance checks where they hold
    by construction, and still accepts and rejects what ``validate_system``
    does, with the same message."""

    @given(constructed_specs())
    @settings(max_examples=150, deadline=None)
    def test_constructed_specs_fail_only_nonemptiness(self, spec):
        rep, verdict = _validate_verdict(spec)
        assert {c for c, _, _ in rep.entries} <= {"nonempty"}, rep.summary()
        assert _build_verdict(spec) == verdict

    @pytest.mark.parametrize("spec, failed", [
        pytest.param(GOLDEN, set(), id="golden"),
        pytest.param(dict(GOLDEN, map=PIECEWISE), set(), id="piecewise"),
        pytest.param(S2_NODES, set(), id="s2-nodes"),
        pytest.param(dict(GOLDEN, depth=3, map=_table(2, 3, lambda w: w[1:])), set(),
                     id="table-ok"),
        pytest.param(dict(GOLDEN, depth=3, tree={"kind": "full"},
                          map=_table(2, 3, lambda w: "1" if w == "000" else w[:1])),
                     {"map"}, id="table-order"),
        pytest.param(dict(GOLDEN, depth=2, tree={"kind": "full"},
                          map=_table(2, 2, lambda w: "0" if not w else w[1:])),
                     {"map"}, id="table-root"),
        # a table that does not shrink is normalized, so no spec fails the
        # shrink check
        pytest.param(dict(GOLDEN, depth=3, tree={"kind": "full"}, map=_table(2, 3, str)),
                     set(), id="table-normalized"),
        # 1,533 violations under a suffix map
        pytest.param(dict(GOLDEN, depth=40, stage_horizon=3, tree={
            "kind": "stagewise", "removals": [[0, "11"], [2, "0101"]]}),
            {"forward-invariance"}, id="stagewise-shift"),
        pytest.param(dict(GOLDEN, depth=2, tree={"kind": "explicit_nodes", "nodes": ["01"]}),
                     {"forward-invariance"}, id="explicit-not-invariant"),
        pytest.param(dict(GOLDEN, depth=6, tree={"kind": "forbidden_words",
                                                 "words": ["00", "01", "1"]}),
                     {"nonempty"}, id="sft-empty"),
        pytest.param(dict(GOLDEN, depth=6, tree={"kind": "forbidden_words",
                                                 "words": ["00", "01", "1"]},
                          map={"kind": "identity"}),
                     {"nonempty"}, id="sft-empty-identity"),
    ])
    def test_build_rejects_what_validation_rejects(self, spec, failed):
        rep, verdict = _validate_verdict(spec)
        assert {c for c, _, _ in rep.entries} == failed
        assert _build_verdict(spec) == verdict

    def test_builtin_map_is_not_checked(self, monkeypatch):
        checked, ruled = [], []
        real_check, real_builtin = CodedMap.check, cli.builtin_map

        def check(m, max_len=None):
            checked.append(m.name)
            return real_check(m, max_len)

        def builtin(*args, **kwargs):
            m = real_builtin(*args, **kwargs)
            rule = m._rule
            m._rule = lambda w: ruled.append(w) or rule(w)
            return m

        monkeypatch.setattr(CodedMap, "check", check)
        monkeypatch.setattr(cli, "builtin_map", builtin)
        parse_spec(json.dumps(dict(GOLDEN, depth=256))).build()
        assert checked == [] and ruled == []
        parse_spec(json.dumps(dict(GOLDEN, depth=3, map=_table(2, 3, lambda w: w[1:])))).build()
        assert checked == ["table"]


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_every_option_is_read(self, name):
        # main reads spec and out; every other option must be read by the command
        sp = _subcommands()[name]
        source = inspect.getsource(sp.get_default("fn"))
        dests = [a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        assert [d for d in dests if d not in ("out", "spec")
                and f"args.{d}" not in source] == []

    @pytest.mark.parametrize("argv", [["validate", "spec.json", "--seed", "1"],
                                      ["dodge", "spec.json", "--trace"]],
                             ids=["validate-seed", "dodge-trace"])
    def test_unread_flag_is_rejected(self, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["orbit", "spec.json", "--steps", "-1"],
        ["recurrent", "spec.json", "--stages", "-1"],
        ["minimal", "spec.json", "--enum-len", "-1"],
        ["decode-halting", "--sim", "sim.json", "--enum-len", "-1"],
        ["decode-halting", "--sim", "sim.json", "--coldepth", "0"],
        ["decode-halting", "--sim", "sim.json", "--coldepth", "-3"],
        ["dodge", "spec.json", "--max-period", "-1"],
        ["dodge", "spec.json", "--sigma-stages", "-1"],
        ["dodge", "spec.json", "--sigma-stages", "0"],
        ["ap-point", "spec.json", "--cmax", "-1"],
        ["reduce-tree", "spec.json", "--scan-depth", "-1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_negative_count_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert f"argument {argv[-2]}: must be at least" in capsys.readouterr().err


def test_one_parser_serves_every_call(golden_spec, sim_file, tmp_path):
    # main reuses one parser: no value or default may carry over between calls
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as e:
        main(["minimal", golden_spec, "--bogus"])
    assert e.value.code == 2
    code, traced = run_to_json(["minimal", golden_spec, "--trace", "--enum-len", "2"],
                               tmp_path, "m1.json")
    assert code == 0 and "chain" in traced["outcome"]
    code, _ = run_to_json(["decode-halting", "--sim", sim_file, "--coldepth", "6",
                           "--enum-len", "5"], tmp_path, "h1.json")
    assert code == 0
    code, plain = run_to_json(["minimal", golden_spec], tmp_path, "m2.json")
    with open(golden_spec, encoding="utf-8") as fh:
        spec = emit_spec(parse_spec(fh.read()))
    assert code == 0 and "chain" not in plain["outcome"]
    assert plain["inputs_digest"] == digest({"enum_len": 4, "spec": spec})
    code, halting = run_to_json(["decode-halting", "--sim", sim_file], tmp_path, "h2.json")
    with open(sim_file, encoding="utf-8") as fh:
        sim = json.load(fh)
    assert code == 0
    assert halting["inputs_digest"] == digest({"sim": sim, "coldepth": 8,
                                               "enum_len": len(sim["bits"]) + 2})


def _stable(report: dict) -> str:
    report = dict(report)
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True, indent=2)


class TestDeterminism:
    def test_reports_byte_identical(self, golden_spec, requests_file, sim_file, tmp_path):
        jobs = [
            ["validate", golden_spec],
            ["orbit", golden_spec, "--steps", "4"],
            ["recurrent", golden_spec, "--stages", "3"],
            ["minimal", golden_spec],
            ["decode-halting", "--sim", sim_file, "--coldepth", "8"],
            ["meet-avoid", golden_spec, "--requests", requests_file],
            ["force-least", golden_spec, "--phi", "prefix-one"],
            ["ap-point", golden_spec, "--requests", requests_file, "--cmax", "2"],
        ]
        for idx, argv in enumerate(jobs):
            c1, r1 = run_to_json(argv, tmp_path, f"a{idx}.json")
            c2, r2 = run_to_json(argv, tmp_path, f"b{idx}.json")
            assert c1 == c2 == 0, argv
            assert _stable(r1) == _stable(r2), argv


def _stacked_spec(layers: int) -> str:
    """A golden-mean spec whose map is ``layers`` piecewise layers (``l = 0``,
    ``b = 1``) over ``shift``, written as text: ``json.dumps`` recurses too."""
    m = '{"kind": "shift"}'
    for _ in range(layers):
        m = f'{{"kind": "piecewise", "l": 0, "b": 1, "j": [["", 1]], "base": {m}}}'
    return ('{"alphabet": 2, "depth": 16, "stage_horizon": 0, '
            f'"tree": {{"kind": "forbidden_words", "words": ["11"]}}, "map": {m}}}')


def _run_on_stack(command: str, layers: int, tmp_path):
    """The CLI in a fresh interpreter, whose stack depth pytest does not add to."""
    spec = tmp_path / f"stack{layers}.json"
    spec.write_text(_stacked_spec(layers))
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, "-m", "cantordyn.cli", command, str(spec)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestDeepMapStacks:
    @pytest.mark.parametrize("layers", [340, 900])
    @pytest.mark.parametrize("command", ["orbit", "recurrent", "ap-point"])
    def test_too_deep_is_a_located_error(self, command, layers, tmp_path):
        done = _run_on_stack(command, layers, tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error: map: piecewise stack too deep")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["orbit", "ap-point"])
    def test_300_layers_still_run(self, command, tmp_path):
        done = _run_on_stack(command, 300, tmp_path)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verified"] is True
