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


_SYSTEMS_TESTS = ("tests/test_systems.py",)
_RECURRENCE_TESTS = ("tests/test_recurrence.py",)
_AVOIDANCE_TESTS = ("tests/test_avoidance.py",)

MUTANTS = [
    Mutant("src/cantordyn/systems.py",
           "if k is None or not 0 <= k < b:", "if k is None or not 0 <= k <= b:", _SYSTEMS_TESTS,
           "verify_ap accepts a witness k = b, so a bound one too small passes"),
    Mutant("src/cantordyn/systems.py",
           "        if len(row.witnesses) != max(0, last + 1):\n            return False\n", "",
           _SYSTEMS_TESTS,
           "verify_ap without its witness count: a short list raises, a long one passes"),
    Mutant("src/cantordyn/systems.py",
           "        if b < 1 or c < 1:\n            return False\n", "", _SYSTEMS_TESTS,
           "verify_ap without b, c >= 1: a row over the empty cylinder passes"),
    Mutant("src/cantordyn/systems.py",
           "if running[N - b - c] < b)", "if running[N - b - c] <= b)", _SYSTEMS_TESTS,
           "least_ap_row lets a start wait b steps, a bound one too small"),
    Mutant("src/cantordyn/avoidance.py",
           ">= b_max for w in members)", "> b_max for w in members)",
           _AVOIDANCE_TESTS,
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
    Mutant("src/cantordyn/systems.py",
           "l > c and n >= 1)", "l > c and n >= 0)", _SYSTEMS_TESTS,
           "verify_recurrence accepts n = 0, and f^0(X↾l) = X↾l extends X↾c on every row"),
    Mutant("src/cantordyn/systems.py",
           "        rep.add(\"forward-invariance\", w, f\"f({w!r}) = {fw!r} leaves the class\")\n",
           "        pass\n", _SYSTEMS_TESTS,
           "validate_system without its forward-invariance report: an escaping map passes"),
    Mutant("src/cantordyn/recurrence.py",
           "for n in range(s + 1):", "for n in range(s + 2):", _RECURRENCE_TESTS,
           "audit_cover_stages lets a V word reach U one step past s"),
    Mutant("src/cantordyn/recurrence.py",
           "return return_time(self.f, w, self.precision, s) is not None",
           "return return_time(self.f, w, self.precision, s + 1) is not None", _RECURRENCE_TESTS,
           "the stage qualification test lets a word return one step past s"),
    Mutant("src/cantordyn/avoidance.py",
           "        for j in range(1, len(self.sigmas)):\n"
           "            expect = self.block(j) * self.reps[j]\n"
           "            if self.sigmas[j] != expect:\n"
           "                bad.append(f\"sigma_{j + 1} != block^reps: {self.sigmas[j]!r}\")\n",
           "", _AVOIDANCE_TESTS,
           "SigmaSequence.check without its block equation: a wrong sigma_{j+1} passes"),
    Mutant("src/cantordyn/avoidance.py",
           "        if self.reps[0] != len(self.sigmas[0]):\n"
           "            bad.append(\"sigma_1 length must equal its repetition count\")\n",
           "", _AVOIDANCE_TESTS,
           "SigmaSequence.check without reps[0] = |sigma_1|: a wrong first count passes"),
    Mutant("src/cantordyn/minimal.py",
           "return any(\"01\" in w[n::cols] for w in members)",
           "return any(\"1\" in w[n::cols] for w in members)", ("tests/test_minimal.py",),
           "decode_bit reads any 1 in the column as a halt, not a switch from 0 to 1"),
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
