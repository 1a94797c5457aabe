"""Exact search over ground-set orders for an interval presentation.

This is the oracle's search for a path order.  For a linear order of the
ground set with prefix sets P_0 < P_1 < ... < P_n, the only candidate
presentation has position p as a lower endpoint iff r(P_{p+1}) > r(P_p)
(the greedy minimum basis) and as an upper endpoint iff
r(E - P_p) > r(E - P_{p+1}) (the greedy maximum basis).  The order is
accepted iff that candidate realizes the input family, which its number of
increasing transversals decides: it realizes the input iff it has exactly
as many transversals as the input has bases (see below).

The search is a depth-first walk over prefixes, extending each prefix by the
unused elements in ascending label order, so complete orders are reached in
lexicographic order and the first accepted one is the lexicographically
least.  Each step reads both endpoint tests off the rank table.  A prefix's
state is (prefix set, lower endpoints so far, upper endpoints so far); a
state whose subtree accepted nothing is recorded, and any later prefix with
the same state is skipped.  The count decides, and the record is exact: every
basis B of the input fits the candidate intervals of every order, because
|B & P_p| <= r(P_p) and |B - P_p| <= r(E - P_p), so the bases are among the
candidate's transversals and an order is accepted iff its intervals have
exactly |bases| transversals, which depends on the endpoint sequences
alone; and the endpoints at positions p and later depend only on the prefix
set P_p and on how the order continues.  Two prefixes with the same state
therefore reach the same endpoint sequences and the same verdicts.

Only clone-sorted orders are walked: a prefix is extended by e only when
e's next-lower clone is already in it.  Elements are clones when swapping
them fixes the bases; the caller passes the relation in as clone steps, and
the oracle passes each part's cached ``Matroid._clone_steps``, which the
minor search reads too.  The three-way check stays meaningful: a wrong
relation would make the oracle reject an LPM or return a non-least order,
but make the minor search miss a pattern and accept; the flats recognizer
reads no clones; and the tests compare this scan with a brute-force and a
memoized scan that read none.  Sorting each clone class of an accepted
order into ascending positions applies automorphisms only, so it gives an
accepted order that is lexicographically no larger: the lexicographically
least accepted order is clone-sorted, and the walk still finds it.  The
record stays exact, because which continuations are clone-sorted depends
only on the prefix set, part of the state.
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
    num_bases: int,
    rank_table: bytes,
    clone_steps: Sequence[tuple[int, int]],
) -> Optional[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Lexicographically least accepting order with its intervals, or None.

    ``num_bases``: the number of bases; ``rank_table``: the rank of every
    subset, indexed by bitmask (:attr:`latmat.kernel.Matroid.rank_table`);
    ``clone_steps``: ``(bit of f, bit of e)`` for each element f with a
    next-lower clone e (:attr:`latmat.kernel.Matroid._clone_steps`).  On
    acceptance returns ``(order, intervals)``, where ``intervals`` are the
    (a_i, b_i) position pairs just tested for that order.

    Reversals are not skipped: the reversal of an accepted order is
    accepted with the reversed intervals, so the least accepted order
    starts with a smaller label than it ends with (else its reversal would
    be smaller), and it is the order a scan skipping reversals finds.

    Only clone-sorted orders are walked, each element after its
    next-lower clone as ``clone_steps`` gives it; by the module docstring's
    argument the least accepted order is one of them, so the result is the
    one the walk over every order returns.

    Each complete order reached, that is, one whose state was not already
    recorded as failed, gets the leaf test: it is accepted iff its
    intervals have ``num_bases`` transversals, which by the module
    docstring's argument decides whether they realize the input.  The count
    is called through this module's :func:`transversal_count`, so the
    benchmark's ``ordersearch.orders_tested`` counter, which wraps that
    attribute, counts complete orders reached rather than every order.
    """
    if n == 0:
        return (), ()
    lower = dict(clone_steps)  # bit of f -> bit of f's next-lower clone
    failed: set[int] = set()
    order: list[int] = []
    co_ranks = rank_table[::-1]  # r(E - X) in byte X
    steps = [(e, 1 << e, lower.get(1 << e, 0)) for e in range(n)]

    # lo and hi hold the endpoint positions shifted up by n and 2n bits,
    # so a prefix's state is their OR with its prefix set.
    def extend(mask: int, lo: int, hi: int):
        p = len(order)
        if p == n:
            a = _positions(lo >> n)
            b = _positions(hi >> 2 * n)
            if transversal_count(n, a, b) != num_bases:
                return None
            return tuple(order), tuple(zip(a, b))
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
