"""The example scripts run end to end from the repository root.

No other test imports them, so a change to the library's public names could
break them unnoticed.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# speed guards whose slow form would still finish within the default timeout
TIMEOUT_S = {"halting_roundtrip-20-bits": 30}


@pytest.mark.parametrize("argv", [
    ["scripts/gadget_scan.py", "--trees", "2"],
    # the tree-reduction oracle at the benchmark's scan depth
    pytest.param(["scripts/gadget_scan.py", "--scan-depth", "8", "--trees", "2"],
                 id="gadget_scan-scan-depth-8"),
    # a speed guard: walking the 3^10 padded orbits one at a time takes seconds
    # and 130 MiB
    pytest.param(["scripts/gadget_scan.py", "--scan-depth", "10", "--trees", "2"],
                 id="gadget_scan-scan-depth-10"),
    # a speed guard: one orbit per scan word and a tree that scans its kept
    # words for each ask take about 13 s and 340 MiB here; under a second
    # with one orbit per class of scan words and a prefix set
    pytest.param(["scripts/gadget_scan.py", "--scan-depth", "12", "--trees", "2"],
                 id="gadget_scan-scan-depth-12"),
    ["scripts/halting_roundtrip.py", "--bits", "3"],
    # a speed guard: these 8 mixed-stage bits take minutes when every rejected
    # removal is an exhaustive search over the product
    pytest.param(["scripts/halting_roundtrip.py", "--bits", "8", "--seed", "0"],
                 id="halting_roundtrip-8-bits"),
    # a speed guard: testing each of the 2^23 words up to length 22 against
    # every adopted prefix takes about 50 s; the run takes 2 s without that
    pytest.param(["scripts/halting_roundtrip.py", "--bits", "20", "--max-stage", "4",
                  "--seed", "0"], id="halting_roundtrip-20-bits"),
    # a speed guard: one column transfer per removal instead of one per chain
    # level takes about 1.3 s here; one per level, about 0.2 s
    pytest.param(["scripts/halting_roundtrip.py", "--bits", "24", "--max-stage", "4",
                  "--seed", "0"], id="halting_roundtrip-24-bits"),
    ["scripts/ap_forcing_walkthrough.py"],
    # the benchmark's top ap-forcing rung
    pytest.param(["scripts/ap_forcing_walkthrough.py", "--depth", "256"],
                 id="ap_forcing_walkthrough-depth-256"),
], ids=lambda argv: Path(argv[0]).stem)
def test_script_exits_zero(argv, request):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=TIMEOUT_S.get(request.node.callspec.id, 300))
    assert done.returncode == 0, done.stderr


def test_halting_roundtrip_refuses_short_columns():
    # seed 0 draws entry stage 4, whose column period 8 needs depth 9
    done = subprocess.run([sys.executable, "scripts/halting_roundtrip.py", "--bits", "20",
                           "--max-stage", "4", "--seed", "0", "--coldepth", "8"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--coldepth must be at least 2t + 1 = 9" in done.stderr


def test_ap_forcing_walkthrough_refuses_cmax_at_depth():
    done = subprocess.run([sys.executable, "scripts/ap_forcing_walkthrough.py", "--depth", "16",
                           "--cmax", "16"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--cmax must be below --depth 16" in done.stderr
    assert "Traceback" not in done.stderr


def test_ap_forcing_walkthrough_reports_a_short_depth():
    # the fixed requests need more depth than 16 to compose their chain
    done = subprocess.run([sys.executable, "scripts/ap_forcing_walkthrough.py", "--depth", "16"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_ap_forcing_walkthrough_fails_on_a_bad_certificate(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "ap_forcing_walkthrough", ROOT / "scripts" / "ap_forcing_walkthrough.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "verify_ap", lambda X, cert: False)
    monkeypatch.setattr(sys, "argv", ["ap_forcing_walkthrough.py"])
    assert script.main() == 1
    assert "verify_ap: False" in capsys.readouterr().out


def test_ab_rounds_checkout_against_itself():
    # the A/B timer loads this checkout twice under two aliases: every report
    # matches, and nothing is written under perfbench/
    before = sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*"))
    done = subprocess.run([sys.executable, "scripts/ab_rounds.py", str(ROOT), str(ROOT),
                           "--workload", "halting-minimal", "--seeds", "1", "--rounds", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "reports match apart from timing_ms: yes" in done.stdout
    assert "seed 1: parent" in done.stdout
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*")) == before


def test_mutant_list_is_current():
    # each mutant's old text still occurs exactly once, so the list cannot go
    # stale; running the mutants is left to the script
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for m in script.MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.reason
        assert m.old != m.new and all((ROOT / t).is_file() for t in m.tests), m.reason
