"""Recorded reports: refactors must leave every report byte-identical.

Each job runs the CLI on fixed inputs and compares the report with
``tests/golden/<name>.json``, byte for byte, with the ``timing_ms`` line
dropped (the one field outside the determinism contract).  Regenerate the
files, only when a change of output is intended, with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from conftest import FIBONACCI, THUE_MORSE, fixed_point_factors

from cantordyn.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _spec(depth, tree, map_=None):
    return {"alphabet": 2, "depth": depth, "stage_horizon": 0, "tree": tree,
            "map": map_ or {"kind": "shift"}}


def _nodes(nodes):
    return {"kind": "explicit_nodes", "nodes": nodes}


def _periodic(gen, n):
    return (gen * n)[:n]


GOLDEN_MEAN = {"kind": "forbidden_words", "words": ["11"]}
# the golden mean as a removal schedule: each first occurrence of 11 goes at stage 2
STAGEWISE_REMOVALS = [[2, "".join(u) + "11"] for n in range(7)
                      for u in product("01", repeat=n) if "11" not in "".join(u)]
XSTAR = ("0" + "1" + "0" + "11" + "0" + "111" + "0" + "1111").ljust(40, "0")

INPUTS = {
    "golden.json": _spec(16, GOLDEN_MEAN),
    "golden-64.json": _spec(64, GOLDEN_MEAN),
    "golden-pw-12.json": _spec(12, GOLDEN_MEAN,
                               {"kind": "piecewise", "l": 1, "b": 2,
                                "j": [["0", 1], ["1", 2]], "base": {"kind": "shift"}}),
    "p0.json": _spec(24, _nodes(["0" * 24])),
    "tree.json": _spec(13, _nodes(["0" * 13, "01", "1"])),
    "orbit-01.json": _spec(16, _nodes([_periodic("01", 16), _periodic("10", 16)])),
    "identity-carve.json": _spec(16, _nodes(["001" + "1" * 13, "01" + "0" * 14]),
                                 {"kind": "identity"}),
    "dodge-orbit-40.json": _spec(40, _nodes(["0" * 40])),
    "dodge-full-40.json": _spec(40, {"kind": "full"}),
    "dodge-chain-40.json": _spec(40, _nodes(
        [XSTAR, "0" * 40, "1" * 40, "10" + "1" * 38]
        + [_periodic(g, 40) for g in ("01", "001", "011", "0001", "0011", "0111")])),
    "stagewise.json": {"alphabet": 2, "depth": 8, "stage_horizon": 4,
                       "tree": {"kind": "stagewise", "removals": STAGEWISE_REMOVALS},
                       "map": {"kind": "shift"}},
    "reqs.json": [{"name": "u0", "words": ["1"]}, {"name": "u1", "words": ["0", "1"]}],
    "reqs-a.json": [{"name": "a", "words": ["0"]}],
    "reqs-c9.json": [{"name": "u0", "words": ["0"]}, {"name": "u1", "words": ["01"]},
                     {"name": "u2", "words": ["10"]}, {"name": "u3", "words": ["00"]},
                     {"name": "u4", "stages": [[0, "000"], [4, "010"]]}],
    "fibonacci-64.json": _spec(64, _nodes(fixed_point_factors(FIBONACCI, 64))),
    "thue-morse-64.json": _spec(64, _nodes(fixed_point_factors(THUE_MORSE, 64))),
    "sim.json": {"stage_horizon": 6, "bits": [[0, None], [1, 1], [2, 2], [3, None]]},
    "sim-empty.json": {"stage_horizon": 4, "bits": []},
    "sim-mixed.json": {"stage_horizon": 3,
                       "bits": [[0, 2], [1, 1], [2, 3], [3, 2], [4, 2], [5, None]]},
    "sim-3.json": {"stage_horizon": 3, "bits": [[0, 1], [1, 1], [2, None]]},
    "sim-2.json": {"stage_horizon": 3, "bits": [[0, 2], [1, 1]]},
}

# name -> argv; input file names are resolved in the run directory
JOBS = {
    "validate": ["validate", "golden.json"],
    "orbit": ["orbit", "golden.json", "--steps", "4"],
    "recurrent": ["recurrent", "golden.json", "--stages", "3", "--trace"],
    "minimal": ["minimal", "golden.json", "--trace"],
    "decode-halting": ["decode-halting", "--sim", "sim.json", "--coldepth", "8"],
    "dodge": ["dodge", "p0.json"],
    "meet-avoid": ["meet-avoid", "golden.json", "--requests", "reqs.json"],
    "force-least": ["force-least", "golden.json", "--phi", "prefix-one"],
    "ap-point": ["ap-point", "golden.json", "--requests", "reqs.json", "--cmax", "2"],
    "reduce-tree": ["reduce-tree", "tree.json", "--scan-depth", "5", "--trace"],
    "dodge-orbit-40": ["dodge", "dodge-orbit-40.json"],
    "dodge-full-40": ["dodge", "dodge-full-40.json"],
    "dodge-chain-40": ["dodge", "dodge-chain-40.json"],
    "force-least-one-at": ["force-least", "golden.json", "--phi", "one-at"],
    "ap-point-c9-64": ["ap-point", "golden-64.json", "--requests", "reqs-c9.json",
                       "--cmax", "4"],
    "recurrent-piecewise": ["recurrent", "golden-pw-12.json", "--stages", "3", "--trace"],
    "decode-halting-empty": ["decode-halting", "--sim", "sim-empty.json"],
    "orbit-point": ["orbit", "golden.json", "--point", "0100101001001010", "--steps", "3"],
    "ap-point-no-requests": ["ap-point", "golden.json", "--cmax", "2"],
    # aperiodic factor classes: no short period, so the periodicity stages decide
    "ap-point-fibonacci-64": ["ap-point", "fibonacci-64.json", "--cmax", "6"],
    "ap-point-thue-morse-64": ["ap-point", "thue-morse-64.json", "--cmax", "6"],
    "ap-point-seed-3": ["ap-point", "golden.json", "--requests", "reqs.json", "--cmax", "2",
                        "--seed", "3"],
    "recurrent-untraced": ["recurrent", "golden.json", "--stages", "3"],
    "minimal-untraced": ["minimal", "golden.json"],
    "reduce-tree-untraced": ["reduce-tree", "tree.json", "--scan-depth", "5"],
    "force-least-meet": ["force-least", "orbit-01.json", "--phi", "one-at"],
    "force-least-carve": ["force-least", "identity-carve.json", "--phi", "one-at"],
    "meet-avoid-landing": ["meet-avoid", "golden.json", "--requests", "reqs-a.json"],
    "recurrent-stagewise": ["recurrent", "stagewise.json", "--stages", "3", "--trace"],
    "minimal-stagewise": ["minimal", "stagewise.json", "--trace"],
    "minimal-orbit": ["minimal", "orbit-01.json", "--trace"],
    # mixed entry stages; enum_len up to 2·cols runs the column program, past it the DFS
    "decode-halting-mixed": ["decode-halting", "--sim", "sim-mixed.json", "--coldepth", "8"],
    "decode-halting-two-rows": ["decode-halting", "--sim", "sim-3.json", "--coldepth", "8",
                                "--enum-len", "6"],
    "decode-halting-past-two-rows": ["decode-halting", "--sim", "sim-3.json",
                                     "--coldepth", "8", "--enum-len", "7"],
    "decode-halting-2-cols": ["decode-halting", "--sim", "sim-2.json", "--coldepth", "10",
                              "--enum-len", "4"],
}

_TIMING = re.compile(r'^  "timing_ms": \d+,\n', re.MULTILINE)


def run_job(name: str, workdir: Path) -> str:
    """The report of job ``name`` without its ``timing_ms`` line."""
    for fname, data in INPUTS.items():
        path = workdir / fname
        if not path.exists():
            path.write_text(json.dumps(data), encoding="utf-8")
    argv = [str(workdir / a) if a in INPUTS else a for a in JOBS[name]]
    out = workdir / f"{name}.out.json"
    assert main(argv + ["--out", str(out)]) == 0, name
    text, n = _TIMING.subn("", out.read_text(encoding="utf-8"))
    assert n == 1, name
    return text


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert run_job(name, tmp_path) == want


# writes every job's report into the directory given as its argument
_ALL_JOBS = """
import sys
from pathlib import Path
from test_golden_reports import JOBS, run_job
work = Path(sys.argv[1])
for name in sorted(JOBS):
    (work / f"{name}.report").write_text(run_job(name, work), encoding="utf-8")
"""


@pytest.mark.parametrize("hashseed", ["1", "12345"])
def test_reports_match_golden_under_hash_seed(hashseed, tmp_path):
    # string hashes vary with PYTHONHASHSEED, and so does set order: no
    # report may depend on it
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), str(GOLDEN_DIR.parent)])
    env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", _ALL_JOBS, str(tmp_path)], env=env, check=True,
                   timeout=300)
    differ = [name for name in sorted(JOBS)
              if (tmp_path / f"{name}.report").read_text(encoding="utf-8")
              != (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")]
    assert differ == []


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for job in sorted(JOBS):
            (GOLDEN_DIR / f"{job}.json").write_text(run_job(job, Path(tmp)), encoding="utf-8")
