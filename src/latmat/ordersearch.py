"""Exhaustive scan over ground-set orders for an interval presentation.

This is the brute-force recognizer's search for a path order: for every
linear order (lexicographic, skipping reversals) build the only candidate
presentation -- lower endpoints from the greedy minimum basis, upper
endpoints from the greedy maximum basis -- and accept the order iff the
candidate realizes the input family.

Acceptance test per order: the number of increasing transversals of the
candidate intervals must equal the number of bases, and every basis must fit
the intervals position-wise.  The scan returns the lexicographically least
accepting order together with the intervals it accepted, so no caller
derives the endpoints a second time.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence


def backend_name() -> str:
    """Name of the scan implementation; there is one, in pure Python."""
    return "py"


def transversal_count(n: int, a: Sequence[int], b: Sequence[int]) -> int:
    """Number of position tuples x_1 < ... < x_r with a_i <= x_i <= b_i."""
    r = len(a)
    if r == 0:
        return 1
    prev = [1 if a[0] <= p <= b[0] else 0 for p in range(n)]
    for j in range(1, r):
        cur = [0] * n
        acc = 0
        for p in range(n):
            if p:
                acc += prev[p - 1]
            if a[j] <= p <= b[j]:
                cur[p] = acc
        prev = cur
    return sum(prev)


def scan_path_orders(
    n: int,
    rank: int,
    bases: Sequence[int],
    indep: frozenset,
) -> Optional[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """First accepting order in lexicographic sequence with its intervals,
    or None.

    ``bases``: basis bitmasks; ``indep``: their downward closure.  On
    acceptance returns ``(order, intervals)``, where ``intervals`` are the
    (a_i, b_i) position pairs just tested for that order.
    """
    if n == 0:
        return (), ()
    nb = len(bases)
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        a = []
        got = 0
        for i in range(n):
            cand = got | (1 << perm[i])
            if cand in indep:
                got = cand
                a.append(i)
                if len(a) == rank:
                    break
        b = []
        got = 0
        for i in range(n - 1, -1, -1):
            cand = got | (1 << perm[i])
            if cand in indep:
                got = cand
                b.append(i)
                if len(b) == rank:
                    break
        b.reverse()
        if transversal_count(n, a, b) != nb:
            continue
        ok = True
        for bm in bases:
            j = 0
            for i in range(n):
                if (bm >> perm[i]) & 1:
                    if not (a[j] <= i <= b[j]):
                        ok = False
                        break
                    j += 1
            if not ok:
                break
        if ok:
            return perm, tuple(zip(a, b))
    return None

