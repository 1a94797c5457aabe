"""Exact search over ground-set orders for an interval presentation.

This is the oracle's search for a path order.  For a linear order of the
ground set with prefix sets P_0 < P_1 < ... < P_n, the only candidate
presentation has position p as a lower endpoint iff r(P_{p+1}) > r(P_p)
(the greedy minimum basis) and as an upper endpoint iff
r(E - P_p) > r(E - P_{p+1}) (the greedy maximum basis).  The order is
accepted iff that candidate realizes the input family.

Acceptance test per complete order: the number of increasing transversals
of the candidate intervals must equal the number of bases, and every basis
must fit the intervals position-wise.

The search is a depth-first walk over prefixes, extending each prefix by the
unused elements in ascending label order, so complete orders are reached in
lexicographic order and the first accepted one is the lexicographically
least.  Each step reads both endpoint tests off the rank table.  A prefix's
state is (prefix set, lower endpoints so far, upper endpoints so far); a
state whose subtree accepted nothing is recorded, and any later prefix with
the same state is skipped.  The record is exact: every basis B of the input
fits the candidate intervals of every order, because |B & P_p| <= r(P_p)
and |B - P_p| <= r(E - P_p), so an order is accepted iff its intervals have
exactly |bases| transversals, which depends on the endpoint sequences
alone; and the endpoints at positions p and later depend only on the prefix
set P_p and on how the order continues.  Two prefixes with the same state
therefore reach the same endpoint sequences and the same verdicts.
"""

from __future__ import annotations

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


def _positions(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def scan_path_orders(
    n: int,
    rank: int,
    bases: Sequence[int],
    rank_table: bytes,
) -> Optional[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Lexicographically least accepting order with its intervals, or None.

    ``bases``: basis bitmasks; ``rank_table``: the rank of every subset,
    indexed by bitmask (:attr:`latmat.kernel.Matroid.rank_table`).  On
    acceptance returns ``(order, intervals)``, where ``intervals`` are the
    (a_i, b_i) position pairs just tested for that order.

    Reversals are not skipped: the reversal of an accepted order is
    accepted with the reversed intervals, so the least accepted order
    starts with a smaller label than it ends with (else its reversal would
    be smaller), and it is the order a scan skipping reversals finds.

    Each complete order reached, that is, one whose state was not already
    recorded as failed, gets the leaf test: the transversal count, then the
    basis fit, which by the module docstring's argument never rejects an
    order the count accepted.  The count is called through this module's
    :func:`transversal_count`, so the benchmark's
    ``ordersearch.orders_tested`` counter, which wraps that attribute,
    counts complete orders reached rather than every order.
    """
    if n == 0:
        return (), ()
    nb = len(bases)
    full = (1 << n) - 1
    failed: set[int] = set()
    order: list[int] = []

    def leaf(lo: int, hi: int):
        a = _positions(lo)
        b = _positions(hi)
        if transversal_count(n, a, b) != nb:
            return None
        for bm in bases:
            j = 0
            for i in range(n):
                if (bm >> order[i]) & 1:
                    if not (a[j] <= i <= b[j]):
                        return None
                    j += 1
        return tuple(order), tuple(zip(a, b))

    def extend(mask: int, lo: int, hi: int):
        p = len(order)
        if p == n:
            return leaf(lo, hi)
        bit_p = 1 << p
        r_in = rank_table[mask]
        r_out = rank_table[full ^ mask]
        for e in range(n):
            bit = 1 << e
            if mask & bit:
                continue
            nxt = mask | bit
            nlo = lo | bit_p if rank_table[nxt] > r_in else lo
            nhi = hi | bit_p if r_out > rank_table[full ^ nxt] else hi
            state = nxt | (nlo << n) | (nhi << 2 * n)
            if state in failed:
                continue
            order.append(e)
            found = extend(nxt, nlo, nhi)
            if found is not None:
                return found
            order.pop()
            failed.add(state)
        return None

    return extend(0, 0, 0)
