"""Finite words over a small alphabet.

Words are plain Python strings over the characters ``'0'``, ``'1'``, ``'2'``.
The empty word is ``""``.  The prefix order is ``str.startswith``; plain
string comparison gives the lexicographic order used for tie-breaking, and a
sorted list answers prefix questions against its words by one bisection,
since a word's extensions come directly after it in sort order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterator

ALPHABET = "012"


def letters(k: int) -> str:
    if not 2 <= k <= len(ALPHABET):
        raise ValueError(f"alphabet size must be 2 or 3, got {k}")
    return ALPHABET[:k]


def check_word(word: str, k: int) -> str:
    ok = letters(k)
    for ch in word:
        if ch not in ok:
            raise ValueError(f"letter {ch!r} not in alphabet of size {k}: {word!r}")
    return word


def all_words(k: int, length: int) -> Iterator[str]:
    """All words of exactly ``length`` letters, in lexicographic order."""
    return ("".join(t) for t in itertools.product(letters(k), repeat=length))


def words_up_to(k: int, max_len: int) -> Iterator[str]:
    """All words of length ≤ ``max_len``, in length-lexicographic order."""
    return itertools.chain.from_iterable(all_words(k, n) for n in range(max_len + 1))


def rotations(word: str) -> list[str]:
    return [word[i:] + word[:i] for i in range(len(word))]


def is_primitive(word: str) -> bool:
    """True iff ``word`` is not a proper power of a shorter word."""
    n = len(word)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def periodic_word(generator: str, length: int) -> str:
    """The prefix of ``generator^ω`` of the given length."""
    if not generator:
        raise ValueError("empty generator")
    reps = length // len(generator) + 1
    return (generator * reps)[:length]


def prefix_core(words) -> list[str]:
    """The sorted prefix-free core of ``words``: every word that extends
    another is dropped.  In sorted order a word's extensions follow it, so
    only the last word kept can be a prefix of the next."""
    core: list[str] = []
    for w in sorted(words):
        if not core or not w.startswith(core[-1]):
            core.append(w)
    return core


def has_prefix_in(word: str, core: list[str]) -> bool:
    """Whether a word of the sorted prefix-free ``core`` is a prefix of
    ``word``, by its predecessor alone: the words sorted strictly between a
    prefix ``q`` of ``word`` and ``word`` extend ``q``, so none is in the core."""
    i = bisect_right(core, word)
    return i > 0 and word.startswith(core[i - 1])


def is_prefix_in(word: str, listed: list[str]) -> bool:
    """Whether ``word`` is a prefix of a word of the sorted list ``listed``:
    the first listed word at or after it decides."""
    i = bisect_left(listed, word)
    return i < len(listed) and listed[i].startswith(word)
