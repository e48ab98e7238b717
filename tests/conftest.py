import random

import pytest
from hypothesis import strategies as st

from cantordyn.maps import CodedMap, builtin_map
from cantordyn.systems import DynSystem, forbidden_window_class, full_class
from cantordyn.words import all_words, letters


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


def random_normalized_map(k: int, depth: int, rng) -> CodedMap:
    """A random shrinking, order-preserving table.

    Images are grown along one-letter extensions, which makes order
    preservation structural rather than checked.
    """
    alpha = letters(k)
    tbl = {"": ""}
    for n in range(depth):
        for w in all_words(k, n):
            base = tbl[w]
            for a in alpha:
                room = n - len(base)  # |w+a| - 1 - |base|
                grow = rng.randint(0, min(2, room)) if room > 0 else 0
                tbl[w + a] = base + "".join(rng.choice(alpha) for _ in range(grow))
    return CodedMap.from_table(k, depth, tbl, name=f"random({depth})")


@st.composite
def word_sets_and_words(draw):
    """Word lists over alphabet 3 (duplicates, extensions and the empty word
    allowed) and a word, often an extension of a listed one."""
    words = draw(st.lists(st.text(alphabet="012", max_size=4), max_size=8))
    tail = draw(st.text(alphabet="012", max_size=3))
    if words and draw(st.booleans()):
        return words, draw(st.sampled_from(words)) + tail
    return words, tail
