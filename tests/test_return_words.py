"""Almost-periodicity certificates of substitution factor classes, against
return gaps read off the fixed point with plain string search.

The oracle shares no code with the construction: it finds every occurrence
of ``X↾c`` in a long prefix of the fixed point with ``str.find``.  A row's
gap bound ``b`` is decided at depth ``N`` only, so it never exceeds the
largest return gap ``G(c)``, and may fall below it when ``N`` is too short
to see that gap (period-doubling at N=64 gives ``b = 22, 21, 20`` for
``c = 6, 7, 8`` against ``G = 28``); at N=128 the two agree on every row.
"""

import pytest
from conftest import FIBONACCI, THUE_MORSE, fixed_point_factors

from cantordyn.maps import builtin_map
from cantordyn.refinement import construct_ap_point
from cantordyn.systems import DynSystem, explicit_class

PERIOD_DOUBLING = {"0": "01", "1": "00"}
FIXED_POINT_LEN = 65536


def fixed_point(rules):
    word = "0"
    while len(word) < FIXED_POINT_LEN:
        word = "".join(rules[a] for a in word)
    return word[:FIXED_POINT_LEN]


def return_gaps(word, target):
    """The gaps between consecutive occurrences of ``target`` in ``word``."""
    starts, p = [], word.find(target)
    while p >= 0:
        starts.append(p)
        p = word.find(target, p + 1)
    return [b - a for a, b in zip(starts, starts[1:])]


def least_gap_bound(x, c):
    """The least ``b`` such that every start ``n ≤ len(x) - b - c`` sees
    ``x↾c`` again at one of ``n, …, n + b - 1``."""
    target = x[:c]
    for b in range(1, len(x) - c + 1):
        if all(any(x.startswith(target, n + k) for k in range(b))
               for n in range(len(x) - b - c + 1)):
            return b
    return None


@pytest.mark.parametrize("rules", [FIBONACCI, THUE_MORSE, PERIOD_DOUBLING],
                         ids=["fibonacci", "thue-morse", "period-doubling"])
@pytest.mark.parametrize("N, cmax", [(64, 8), (128, 10)])
def test_gap_bounds_match_return_words(rules, N, cmax):
    sys_ = DynSystem(explicit_class(2, N, fixed_point_factors(rules, N)),
                     builtin_map("left-shift", 2, N))
    X, cert, _ = construct_ap_point(sys_, [], c_max=cmax)
    x, fp = X.prefix, fixed_point(rules)
    assert len(x) == N and x in fp
    assert [row.c for row in cert.rows] == list(range(1, cmax + 1))
    for row in cert.rows:
        gaps = return_gaps(fp, x[:row.c])
        assert row.b == least_gap_bound(x, row.c), row
        assert row.b <= max(gaps), (row, max(gaps))
        if N == 128:
            assert row.b == max(gaps), (row, max(gaps))
        if rules is FIBONACCI:
            assert len(set(gaps)) <= 2, (row.c, sorted(set(gaps)))
