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

Only clone-sorted orders are walked: a prefix is extended by e only when
e's next-lower clone is already in it.  Elements e and f are clones when
swapping them is an automorphism, that is, r(X + e) = r(X + f) for every X
holding neither; the classes are read off the rank table here, so the
oracle shares no code with the other recognizers.  Sorting each clone
class of an accepted order into ascending positions applies automorphisms
only, so it gives an accepted order that is lexicographically no larger:
the lexicographically least accepted order is clone-sorted, and the walk
still finds it.  The record stays exact, because which continuations are
clone-sorted depends only on the prefix set, part of the state.
"""

from __future__ import annotations

from functools import cache
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


@cache
def _outside_lanes(n: int) -> tuple[int, ...]:
    """For the rank table read as one little-endian int, with subset X in
    byte X: ``outside[e]`` is 0xFF in the bytes of the sets X not holding
    e and 0 elsewhere (2^e full bytes then 2^e empty ones, repeated)."""
    size = 1 << n
    return tuple(
        int.from_bytes(
            (b"\xff" * (1 << e) + bytes(1 << e)) * (size >> (e + 1)), "little"
        )
        for e in range(n)
    )


def _lower_clones(n: int, rank_table: bytes) -> list[int]:
    """``lower[f]``: the bit of f's next-lower clone, or 0 if f is the
    least of its clone class.

    Shifting the table down by 2^e bytes puts r(X + e) in byte X for the X
    not holding e, so e and f are clones iff the two shifted tables agree
    on the bytes of the sets holding neither.  Transpositions that fix the
    rank function compose, so the relation is transitive and f need only
    be tested against the least member of each class below it.
    """
    table = int.from_bytes(rank_table, "little")
    outside = _outside_lanes(n)
    added = [table >> (8 << e) for e in range(n)]
    last: dict[int, int] = {}  # least member of a class -> its largest yet
    lower = [0] * n
    for f in range(n):
        least = f
        for e in last:
            if not (added[e] ^ added[f]) & outside[e] & outside[f]:
                least = e
                lower[f] = 1 << last[e]
                break
        last[least] = f
    return lower


def scan_path_orders(
    n: int,
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

    Only clone-sorted orders are walked, each element after its
    next-lower clone (:func:`_lower_clones`); by the module docstring's
    argument the least accepted order is one of them, so the result is the
    one the walk over every order returns.

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
    lower = _lower_clones(n, rank_table)
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

    co_ranks = rank_table[::-1]  # r(E - X) in byte X
    steps = [(e, 1 << e, lower[e]) for e in range(n)]

    # lo and hi hold the endpoint positions shifted up by n and 2n bits,
    # so a prefix's state is their OR with its prefix set.
    def extend(mask: int, lo: int, hi: int):
        p = len(order)
        if p == n:
            return leaf(lo >> n, hi >> 2 * n)
        lo_p = 1 << (p + n)
        hi_p = 1 << (p + 2 * n)
        r_in = rank_table[mask]
        r_out = co_ranks[mask]
        for e, bit, low in steps:
            if mask & bit or low & ~mask:  # placed, or its clone is not
                continue
            nxt = mask | bit
            nlo = lo | lo_p if rank_table[nxt] > r_in else lo
            nhi = hi | hi_p if r_out > co_ranks[nxt] else hi
            state = nxt | nlo | nhi
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
