from __future__ import annotations

import itertools

from latmat import ordersearch
from latmat.kernel import from_bases, uniform
from util import p3_bases


def test_transversal_count_against_enumeration():
    cases = [
        (6, (0, 1, 3), (2, 4, 5)),
        (6, (0, 2), (3, 5)),
        (5, (0,), (4,)),
        (4, (), ()),
    ]
    for n, a, b in cases:
        expected = sum(
            1
            for xs in itertools.combinations(range(n), len(a))
            if all(a[i] <= xs[i] <= b[i] for i in range(len(a)))
        )
        assert ordersearch.transversal_count(n, a, b) == expected


def test_scan_returns_lex_least():
    U = uniform(2, 4)
    got = ordersearch.scan_path_orders(U.n, U.rank, U.basis_masks, U.indep_masks)
    assert got == ((0, 1, 2, 3), ((0, 2), (1, 3)))


def test_scan_rank_zero_and_empty():
    M = uniform(0, 0)
    assert ordersearch.scan_path_orders(0, 0, M.basis_masks, M.indep_masks) == ((), ())


def test_scan_intervals_match_p3():
    M = from_bases(6, p3_bases())
    got = ordersearch.scan_path_orders(M.n, M.rank, M.basis_masks, M.indep_masks)
    assert got == ((0, 1, 2, 3, 4, 5), ((0, 2), (1, 4), (3, 5)))
