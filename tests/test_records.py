"""The package's value records: immutable, equal by value, and cheap to import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantordyn.avoidance import DodgeOutcome, SigmaSequence
from cantordyn.maps import builtin_map
from cantordyn.minimal import HaltingSim, RemovalStage
from cantordyn.recurrence import CoverStage
from cantordyn.refinement import (ApForcingLog, ApStageRecord, NbhResult, OpenRequest,
                                  Phi1Predicate, PredicateRequest, Refinement, trivial_cert)
from cantordyn.systems import APCert, APRow, DynSystem, PointApprox, RecCert, full_class

ROOT = Path(__file__).resolve().parent.parent
CLS = full_class(2, 4)
SHIFT = builtin_map("left-shift", 2, 4)
SYS = DynSystem(CLS, SHIFT)
CERT = trivial_cert(SHIFT)


def never(m, tau, p):
    return False


# each factory builds a fresh record from equal fields
RECORDS = {
    "SigmaSequence": lambda: SigmaSequence(("00", "001"), (2, 1)),
    "DodgeOutcome": lambda: DodgeOutcome("orbit", SYS, orbit_generator="0"),
    "RemovalStage": lambda: RemovalStage("0", True, False, CLS),
    "CoverStage": lambda: CoverStage(1, 2, ("0",), ("1",)),
    "Refinement": lambda: Refinement(SYS, CERT, "avoid", {"request": "u"}),
    "OpenRequest": lambda: OpenRequest("u", ((0, "1"),)),
    "PredicateRequest": lambda: PredicateRequest("p", str.isdigit),
    "Phi1Predicate": lambda: Phi1Predicate("never", never),
    "NbhResult": lambda: NbhResult(SYS, 1, ("0",)),
    "RecCert": lambda: RecCert(((1, 2, 4),)),
    "APRow": lambda: APRow(1, 1, (0, 0)),
    "APCert": lambda: APCert((APRow(1, 1, (0, 0)),)),
    "ApStageRecord": lambda: ApStageRecord("periodicity", "i=1", cylinder=1),
    "ApForcingLog": lambda: ApForcingLog((ApStageRecord("request", "u", case="avoid"),),
                                         CERT, SYS),
    "DynSystem": lambda: DynSystem(CLS, SHIFT),
    "PointApprox": lambda: PointApprox("0101", SYS),
    "HaltingSim": lambda: HaltingSim(((0, 1), (1, None)), 2),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_frozen(make):
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_equal_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b
    try:
        h = hash(a)
    except TypeError:   # an unhashable field, such as Refinement's meta dict
        return
    assert h == hash(b)


def test_keyword_defaults():
    st = ApStageRecord("request", "u", case="meet", s=3)
    assert (st.cylinder, st.return_bound, st.chain_bound, st.avoided) == (None, None, 1, ())
    out = DodgeOutcome("hat", SYS, hat_class=CLS)
    assert out.hat_class is CLS
    assert out.orbit_generator is out.orbit_class is out.sigma is out.dodge_stage is None
    phi = Phi1Predicate(name="never", fn=never)
    assert phi.param is None and phi(0, "1") is False


def test_cli_import_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import cantordyn.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "cantordyn.cli" in added
    assert not added & {"dataclasses", "inspect"}
