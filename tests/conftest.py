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


FIBONACCI = {"0": "01", "1": "0"}
THUE_MORSE = {"0": "01", "1": "10"}


def fixed_point_factors(rules, n):
    """Every length-``n`` factor of the fixed point from ``0`` of a binary
    substitution, sorted.  For the Fibonacci and Thue–Morse words the prefix
    of length ``16·n`` holds them all: each one recurs in every window of
    ``10·n`` letters."""
    word = "0"
    while len(word) < 16 * n:
        word = "".join(rules[a] for a in word)
    return sorted({word[p:p + n] for p in range(16 * n - n + 1)})
