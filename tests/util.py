"""Independent oracles shared by the test modules.

Everything here recomputes expectations from first principles (set
enumeration, graph spanning trees, brute-force matchings) without calling
the code paths under test.  The reference order scan shares only
``transversal_count`` with the package, and that is checked against
enumeration in ``test_ordersearch``.
"""

from __future__ import annotations

import itertools

from latmat.ordersearch import transversal_count

# K4 edge labels chosen so the triangles are exactly the four 3-element
# circuits of the wheel builder: 0=ab 1=ac 2=bc 3=bd 4=ad 5=cd.
K4_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3), (2, 3)]


def spanning_trees_k4(edges=K4_EDGES) -> set[frozenset[int]]:
    out = set()
    for combo in itertools.combinations(range(len(edges)), 3):
        parent = list(range(4))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        acyclic = True
        for i in combo:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[rv] = ru
        if acyclic and len({find(v) for v in range(4)}) == 1:
            out.add(frozenset(combo))
    return out


def brute_minimal_dependent(n: int, bases: set[frozenset[int]]) -> set[frozenset[int]]:
    """Circuits by enumeration: dependent sets whose proper subsets are
    all independent."""

    def independent(X):
        return any(X <= b for b in bases)

    out = set()
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            X = frozenset(combo)
            if independent(X):
                continue
            if all(independent(X - {e}) for e in X):
                out.add(X)
    return out


def has_distinct_reps(sets: list[set[int]], X) -> bool:
    """Brute-force system-of-distinct-representatives test."""
    X = tuple(X)
    if len(X) > len(sets):
        return False
    for assignment in itertools.permutations(range(len(sets)), len(X)):
        if all(X[i] in sets[assignment[i]] for i in range(len(X))):
            return True
    return False


def brute_transversal_bases(n: int, sets: list[set[int]]) -> set[frozenset[int]]:
    rank = 0
    for size in range(min(n, len(sets)), -1, -1):
        if any(
            has_distinct_reps(sets, c)
            for c in itertools.combinations(range(n), size)
        ):
            rank = size
            break
    return {
        frozenset(c)
        for c in itertools.combinations(range(n), rank)
        if has_distinct_reps(sets, c)
    }


def p3_bases() -> set[frozenset[int]]:
    """All 3-subsets of a 6-set except the two disjoint triangles."""
    blocked = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    return {
        frozenset(c)
        for c in itertools.combinations(range(6), 3)
        if frozenset(c) not in blocked
    }


def brute_scan_path_orders(n: int, rank: int, bases, indep):
    """Reference order scan: every permutation in lexicographic order,
    reversals skipped, greedy endpoints recomputed from the independent
    sets ``indep`` for each order.  Returns the first accepted
    ``(order, intervals)`` or None, like ``ordersearch.scan_path_orders``.
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
