#!/usr/bin/env python3
"""Run a fixed list of checker mutants against the tests named for each.

    python3 scripts/mutants.py

A mutant replaces one text in one source file.  Each runs, one after
another, in a temporary copy of ``src/`` and ``tests/`` with only its own
test files, and is killed when a test fails.  A surviving mutant marks a
fault that those tests would let through.  Prints one line per mutant and
exits 1 when one survives or its tests cannot run; nothing under this
checkout is written.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str                # relative to the checkout
    old: str                 # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]   # test files that must kill it
    reason: str


_AP_TESTS = ("tests/test_systems.py",)

MUTANTS = [
    Mutant("src/cantordyn/systems.py",
           "if k is None or not 0 <= k < b:", "if k is None or not 0 <= k <= b:", _AP_TESTS,
           "verify_ap accepts a witness k = b, so a bound one too small passes"),
    Mutant("src/cantordyn/systems.py",
           "        if len(row.witnesses) != max(0, last + 1):\n            return False\n", "",
           _AP_TESTS,
           "verify_ap without its witness count: a short list raises, a long one passes"),
    Mutant("src/cantordyn/systems.py",
           "        if b < 1 or c < 1:\n            return False\n", "", _AP_TESTS,
           "verify_ap without b, c >= 1: a row over the empty cylinder passes"),
    Mutant("src/cantordyn/systems.py",
           "if running[N - b - c] < b)", "if running[N - b - c] <= b)", _AP_TESTS,
           "least_ap_row lets a start wait b steps, a bound one too small"),
    Mutant("src/cantordyn/avoidance.py",
           ">= b_max for w in members)", "> b_max for w in members)",
           ("tests/test_avoidance.py",),
           "verify_not_ap off by one: it asks for a run longer than b_max"),
    Mutant("src/cantordyn/maps.py",
           "if m <= cap and least[m] < l:", "if m <= cap and least[m] <= l:",
           ("tests/test_words_maps.py",),
           "CodedMap.check flags a modulus witness whose least image is exactly l letters"),
    Mutant("src/cantordyn/refinement.py",
           "            if member(w) and not member(want):\n"
           "                rep.add(\"cert-invariance\", w, f\"f^j image {want!r} leaves the child\")\n",
           "", ("tests/test_refinement.py",),
           "check_refinement_cert without its invariance test: a child that leaves itself passes"),
]


def run(m: Mutant) -> str:
    """``killed``, ``survived``, or why its tests could not run."""
    text = (ROOT / m.file).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return f"stale: the old text occurs {text.count(m.old)} times"
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / m.file).write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *m.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed and 0 when every one passed
    return {0: "survived", 1: "killed"}.get(done.returncode,
                                            f"error: pytest exited {done.returncode}")


def main() -> int:
    bad = 0
    for m in MUTANTS:
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{outcome:<9} {m.file}: {m.reason}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
