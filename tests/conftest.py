import random

import pytest

from cantordyn.maps import builtin_map
from cantordyn.systems import DynSystem, forbidden_window_class, full_class


@pytest.fixture
def shift12():
    return builtin_map("left-shift", 2, 12)


@pytest.fixture
def full_shift12(shift12):
    return DynSystem(full_class(2, 12), shift12)


@pytest.fixture
def golden12(shift12):
    return DynSystem(forbidden_window_class(2, 12, ["11"]), shift12)


@pytest.fixture
def rng():
    return random.Random(20260810)
