"""The names ``perfbench/tracer.py`` patches by name must exist in the package.

The tracer is loaded as a plain module and never installed, so this only
checks its targets: a refactor that renames one fails here instead of in a
traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cantordyn.maps import CodedMap
from cantordyn.systems import ClosedClass

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve(tracer):
    for modname, attr, _ in tracer.SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (modname, attr)
        else:
            assert callable(getattr(owner, attr)), (modname, attr)


def test_avoidance_types_bind_their_checks(tracer):
    for modname, cls_name in tracer.AVOIDANCE_TYPES:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert {"ok", "ok_extension"} <= set(vars(cls)), (modname, cls_name)


def test_hot_methods_exist():
    assert callable(vars(CodedMap)["apply"])
    assert callable(vars(ClosedClass)["member"])
    assert callable(vars(ClosedClass)["member_step"])
    # the tracer calls ``member(c, word, stage)``: stage is the third positional
    params = list(inspect.signature(ClosedClass.member).parameters.values())
    assert [p.name for p in params[:3]] == ["self", "word", "stage"]
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
