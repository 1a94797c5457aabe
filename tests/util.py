"""Independent oracles shared by the test modules.

Everything here recomputes expectations from first principles (set
enumeration, graph spanning trees, brute-force matchings) without calling
the code paths under test.  The reference order scan shares only
``transversal_count`` with the package, and that is checked against
enumeration in ``test_ordersearch``; so does the reference memoized
scan, which is the package's scan as it was before it walked only
clone-sorted orders.  Both reference scans keep the basis-fit test after
the transversal count, which the package's scan dropped because the count
decides, so they check that argument too.  The reference minor is the
r'-subset scan the package's one basis rule replaced, sharing only the
rank table.  The reference catalog minor search shares the catalog, the
rank table and the isomorphism test, each checked in its own test module,
but none of the search's filters: it splits the host into components with
the reference components below, and walks every split of each component,
keeping those with an independent contract set and a coindependent delete
set by their ranks.  The reference corpus generator shares
the sparse-paving and lpm-random generators, ``dual`` and
``canonical_form`` with the package, but builds every random-transversal
draw with the reference transversal builder, every catalog minor split by
split with the reference minor, and labels every generated matroid.  The
reference transversal builder is the augmenting-path matching the
package's partial-transversal lane sweep replaced.  The reference realizer
is the recursion over increasing position tuples x_1 < ... < x_r with x_i
in interval i that ``lpm.realize`` ran before it became one call of the
kernel's transversal constructor; it shares nothing with the package but
the trusted constructor.  The subset-lattice
references (rank table, local submodularity, circuits, flats) are the
per-subset loops the package's lane sweeps replaced; they share nothing
with the package but the table they are handed.  The reference lane
members are the ``bytes.find`` loop the package's ``compress`` replaced.
The reference pnc-flats and fundamental flats walk every reference flat,
test its connectivity with ``_components_within`` and test every
reference spanning circuit, as the package did before it read them off
the lanes and the cyclic flats; they share only the rank table and
``_components_within``, which is checked against the reference
components below.  The reference components
of a restriction join the circuits inside it, where the package reads the
fundamental circuits of one basis off the rank table.  The reference
clone classes try every transposition on every basis of the family, where
the package compares two shifted bit lanes of the family's indicator.  The
reference canonical labeling is the package's search as it was before it
refined only against freshly split cells: every round recomputes each
element's signature against every cell, every node down to the leaf
refines and recurses, co-occurrences are counted basis by basis and the
clone classes are the reference ones; it shares nothing with the package.
The reference isomorphism test is the package's as it was before
it ran one side's search toward the other side's labeling: it labels both
sides in full, compares the forms and maps one canonical order onto the
other; it shares the labeling with the package.
The reference automorphism group is the exhaustive mode the package's
search no longer has, kept only as a reference: the same search with clone
skipping and orbit pruning off, keeping one leaf per group element, where
the package closes the generators its one pruned search absorbs.  The reference text reader is the line-by-line reader
the package had before its one reader packed well-spelt texts in bulk; it
shares ``from_bases`` and the error classes with the package.  The
reference degree-sorted relabelling moves every basis element by element,
where the package swaps lanes of the family's indicator.  The reference
text writer sorts the bases as id tuples and spells each id with ``str``,
where the package keeps the basis lines of one cached table of every
line.  The reference path-order oracle is the package's oracle as it was
before it scanned component by component: one scan of the whole loopless
part, restricted here, with the loops appended; it shares the order scan
and ``restrict`` with the package.  The reference component check is the
structural recognizer's check as it was before one table of comparability
rows gave clause (i) and the chains and one walk over the cross pairs gave
clauses (ii)-(iv): a triple loop for mutually incomparable flats, then the
comparability components, then one walk per clause; it shares the
pnc-flats, the fundamental flats and ``_merge_overlapping`` with the
package.  The reference truncation takes every k-combination of every
basis, where the package keeps the k-subsets of one cached list whose rank
is k; it shares nothing with the package but the trusted constructor.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from math import comb
from typing import Union

from latmat import corpus
from latmat.catalog import catalog_up_to
from latmat.flats import _fundamental_masks, _pnc_masks
from latmat.kernel import (
    MAX_GROUND,
    Matroid,
    MatroidError,
    MixedCardinality,
    canonical_form,
    _bits,
    _components_within,
    _merge_overlapping,
    dual,
    from_bases,
    is_isomorphic,
    mask_of,
    restrict,
)
from latmat.lpm import IntervalPresentation
from latmat.ordersearch import scan_path_orders, transversal_count

# U3,8 less four circuit-hyperplanes, two ways: 52 bases and degrees
# 19^4 20^4 either way.  In the first one 3-circuit meets the other three,
# in the second the 3-circuits meet in a 4-cycle, so they are not isomorphic.
DEGREE_TWIN_CIRCUITS = (
    ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 6, 7)),
    ((0, 1, 2), (0, 3, 4), (1, 5, 6), (3, 5, 7)),
)


def degree_twins() -> tuple[Matroid, Matroid]:
    """Two fresh non-isomorphic matroids with equal degree keys."""
    return tuple(
        from_bases(8, [c for c in itertools.combinations(range(8), 3)
                       if c not in circuits])
        for circuits in DEGREE_TWIN_CIRCUITS
    )


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


def brute_independent_sets(bases) -> frozenset[int]:
    """Independent sets as bitmasks: every subset of every basis bitmask."""
    out = set()
    for b in bases:
        sub = b
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & b
    return frozenset(out)


def brute_rank_table(n: int, basis_masks) -> bytes:
    """Reference rank table by dynamic programming over subsets: a set
    inside some basis has rank |X|; any other set X has the largest rank
    among the X - e.  For any equal-size family this is max |B & X|."""
    size = 1 << n
    bits = [1 << e for e in range(n)]
    inside = bytearray(size)
    for b in basis_masks:
        inside[b] = 1
    for x in range(size - 1, 0, -1):
        if inside[x]:
            for bit in bits:
                if x & bit:
                    inside[x ^ bit] = 1
    table = bytearray(size)
    for x in range(1, size):
        if inside[x]:
            table[x] = x.bit_count()
        else:
            table[x] = max(table[x ^ bit] for bit in bits if x & bit)
    return bytes(table)


def brute_locally_submodular(n: int, ranks: bytes) -> bool:
    """Reference validation of a family's rank table: for every subset X,
    the elements e outside X with r(X + e) = r(X) together add no rank."""
    bits = [1 << e for e in range(n)]
    for x, rx in enumerate(ranks):
        span = x
        for bit in bits:
            if not x & bit and ranks[x | bit] == rx:
                span |= bit
        if ranks[span] != rx:
            return False
    return True


def brute_span_counts(n: int, ranks: bytes) -> bytes:
    """Reference span counts from a rank table: for each subset X, one byte
    holding how many elements e outside X have r(X + e) = r(X)."""
    return bytes(
        sum(
            1
            for e in range(n)
            if not (x >> e) & 1 and ranks[x | (1 << e)] == rx
        )
        for x, rx in enumerate(ranks)
    )


def brute_circuit_masks(n: int, ranks: bytes) -> tuple[int, ...]:
    """Reference circuits from a rank table: r(X) = |X| - 1 and every
    X - e keeps that rank."""
    out = []
    for x in range(1, 1 << n):
        rx = ranks[x]
        if rx != x.bit_count() - 1:
            continue
        if all(ranks[x ^ (1 << e)] == rx for e in range(n) if (x >> e) & 1):
            out.append(x)
    return tuple(out)


def brute_flat_masks(n: int, ranks: bytes) -> tuple[int, ...]:
    """Reference flats from a rank table: every element outside X raises
    the rank."""
    out = []
    for x in range(1 << n):
        rx = ranks[x]
        if all(
            ranks[x | (1 << e)] > rx
            for e in range(n)
            if not (x >> e) & 1
        ):
            out.append(x)
    return tuple(out)


def brute_lane_members(lanes: int, n: int) -> tuple[int, ...]:
    """Reference members of a 0/1 lane set: the subsets X, ascending,
    whose byte holds 1, found one ``bytes.find`` at a time."""
    data = lanes.to_bytes(1 << n, "little")
    out = []
    x = data.find(1)
    while x >= 0:
        out.append(x)
        x = data.find(1, x + 1)
    return tuple(out)


def brute_pnc_masks(M) -> tuple[int, ...]:
    """Reference pnc-flats, ascending: every flat of the reference flats
    that is proper, dependent and connected."""
    ranks = M.rank_table
    out = []
    for x in brute_flat_masks(M.n, ranks):
        if x == M.full_mask:
            continue
        if ranks[x] >= x.bit_count():  # independent = trivial
            continue
        if len(_components_within(M, x)) <= 1:
            out.append(x)
    return tuple(out)


def brute_fundamental_masks(M, pncs: tuple[int, ...]) -> tuple[int, ...]:
    """Reference fundamental flats among ``pncs``: those F with a spanning
    circuit C of the reference circuits and |F & C| = r(F)."""
    ranks = M.rank_table
    spanning = [
        c for c in brute_circuit_masks(M.n, ranks) if c.bit_count() == M.rank + 1
    ]
    out = []
    for f in pncs:
        rf = ranks[f]
        for c in spanning:
            if (f & c).bit_count() == rf:
                out.append(f)
                break
    return tuple(out)


def brute_components_within(M, x: int) -> tuple[int, ...]:
    """Reference components of M restricted to x, sorted by least element:
    a union-find joining the elements of every circuit inside x."""
    parent = list(range(M.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for c in M.circuit_masks:
        if c & ~x:
            continue
        es = [e for e in range(M.n) if (c >> e) & 1]
        for e in es[1:]:
            parent[find(e)] = find(es[0])
    groups: dict[int, int] = {}
    for e in range(M.n):
        if (x >> e) & 1:
            groups[find(e)] = groups.get(find(e), 0) | (1 << e)
    return tuple(sorted(groups.values(), key=lambda m: m & -m))


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


def _matching_rank(sets: list[int], xmask: int) -> int:
    """Maximum matching of elements in xmask against the set system."""
    owner: dict[int, int] = {}  # set index -> element

    def augment(e: int, visited: set[int]) -> bool:
        for i, s in enumerate(sets):
            if (s >> e) & 1 and i not in visited:
                visited.add(i)
                if i not in owner or augment(owner[i], visited):
                    owner[i] = e
                    return True
        return False

    size = 0
    for e in range(xmask.bit_length()):
        if (xmask >> e) & 1 and augment(e, set()):
            size += 1
    return size


def matching_transversal_masks(n: int, sets: list[int]) -> list[int]:
    """Reference transversal bases: every r-subset that an augmenting-path
    matching saturates, r the matching rank of the ground set, as the
    package built them before it swept partial transversals over lanes."""
    full = (1 << n) - 1
    r = _matching_rank(sets, full)
    masks = []
    for c in itertools.combinations(range(n), r):
        m = sum(1 << e for e in c)
        if _matching_rank(sets, m) == r:
            masks.append(m)
    return masks


def brute_gen_transversal(rng, count: int, max_n: int) -> list[Matroid]:
    """Reference ``random-transversal`` draws: the stream protocol of the
    corpus module docstring, each system built by
    :func:`matching_transversal_masks`."""
    out = []
    for _ in range(count):
        n = rng.randint(3, max_n)
        r = rng.randint(1, max(1, (2 * n) // 3))
        sets = []
        for _ in range(r):
            m = 0
            while m == 0:
                m = rng.next_u64() & ((1 << n) - 1)
            sets.append(m)
        out.append(Matroid._from_masks(n, matching_transversal_masks(n, sets)))
    return out


def recursive_realize(P: IntervalPresentation) -> Matroid:
    """Reference realization of an interval presentation: every increasing
    tuple of positions x_1 < ... < x_r with x_i in interval i, read back
    through the order (uncovered positions carry loops)."""
    masks: list[int] = []

    def rec(i: int, start: int, acc: int) -> None:
        if i == P.rank:
            masks.append(acc)
            return
        a, b = P.intervals[i]
        for p in range(max(a, start), b + 1):
            rec(i + 1, p + 1, acc | (1 << P.order[p]))

    rec(0, 0, 0)
    return Matroid._from_masks(P.n, masks)


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


def _scan_positions(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def memo_scan_path_orders(
    n: int,
    bases,
    rank_table: bytes,
):
    """Reference memoized scan: ``ordersearch.scan_path_orders`` as it was
    before it walked only clone-sorted orders.  A depth-first walk over
    every prefix in ascending label order, reading both endpoint tests off
    the rank table and skipping any prefix whose (prefix set, lower
    endpoints, upper endpoints) state already failed.
    """
    if n == 0:
        return (), ()
    nb = len(bases)
    full = (1 << n) - 1
    failed: set[int] = set()
    order: list[int] = []

    def leaf(lo: int, hi: int):
        a = _scan_positions(lo)
        b = _scan_positions(hi)
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


def whole_scan_find_path_order(M: Matroid):
    """Reference oracle: one order scan of the whole loopless part, the
    loops appended in ascending label order.  Returns ``(order,
    presentation)`` or None, like ``lpm.find_path_order``."""
    kept = M.full_mask & ~M.loops_mask
    part = M if kept == M.full_mask else restrict(M, kept)
    found = scan_path_orders(
        part.n, part.num_bases, part.rank_table, part._clone_steps
    )
    if found is None:
        return None
    perm, intervals = found
    labels = [e for e in range(M.n) if (kept >> e) & 1]
    loops = [e for e in range(M.n) if not (kept >> e) & 1]
    order = tuple(labels[e] for e in perm) + tuple(loops)
    return order, IntervalPresentation(M.n, intervals, order)


def _loop_chain_partition(fund: tuple[int, ...]):
    """Reference chain split: the components of the comparability graph,
    sorted by least flat, and, when one is not a chain, a comparability
    path from its first flat with an incomparable partner to the first such
    partner, as index tuples."""
    near = [
        sum(1 << j for j, g in enumerate(fund) if f & g in (f, g)) for f in fund
    ]
    comps = sorted(
        (list(_bits(c)) for c in _merge_overlapping(near)),
        key=lambda g: min(fund[i] for i in g),
    )
    for g in comps:
        for i in g:
            far = [j for j in g if not (near[i] >> j) & 1]
            if far:
                return comps, _loop_comparability_path(near, g, i, far[0])
    return comps, None


def _loop_comparability_path(near, comp, src, dst):
    prev = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple(reversed(path))
        for other in comp:
            if other not in prev and (near[cur] >> other) & 1:
                prev[other] = cur
                queue.append(other)
    raise AssertionError("endpoints share a comparability component")


def loop_check_component(Mi: Matroid):
    """Reference ``lpm._check_component``: clause (i) by a triple loop over
    the fundamental flats and then the comparability components, and one
    walk over the cross pairs per clause (ii), (iii) and (iv)."""
    pncs = _pnc_masks(Mi)
    fund = _fundamental_masks(Mi, pncs)
    for i in range(len(fund)):
        for j in range(i + 1, len(fund)):
            mij = fund[i] & fund[j]
            if mij == fund[i] or mij == fund[j]:
                continue
            for k in range(j + 1, len(fund)):
                mik = fund[i] & fund[k]
                mjk = fund[j] & fund[k]
                if (
                    mik != fund[i]
                    and mik != fund[k]
                    and mjk != fund[j]
                    and mjk != fund[k]
                ):
                    return "i", (fund[i], fund[j], fund[k])
    comps, bad_path = _loop_chain_partition(fund)
    assert len(comps) <= 2
    if bad_path is not None:
        return "i", tuple(fund[i] for i in bad_path)
    chain1 = [fund[i] for i in comps[0]] if comps else []
    chain2 = [fund[i] for i in comps[1]] if len(comps) > 1 else []
    full = Mi.full_mask
    ranks = Mi.rank_table
    r = Mi.rank
    nullity = lambda x: x.bit_count() - ranks[x]
    for f in chain1:
        for g in chain2:
            if f & g and (f | g) != full:
                return "ii", (f, g)
    eta_m = nullity(full)
    qualifying = {
        f & g
        for f in chain1
        for g in chain2
        if eta_m < nullity(f) + nullity(g)
    }
    remaining = set(pncs) - set(fund)
    if remaining != qualifying:
        diff = sorted(remaining.symmetric_difference(qualifying))
        return "iii", tuple(diff)
    for f in chain1:
        for g in chain2:
            meet = f & g
            if meet in pncs and ranks[meet] != ranks[f] + ranks[g] - r:
                return "iv", (f, g)
    return None


def _swap_bits(mask: int, e: int, f: int) -> int:
    be = (mask >> e) & 1
    bf = (mask >> f) & 1
    if be == bf:
        return mask
    return mask ^ ((1 << e) | (1 << f))


def _find(parent: list[int], a: int) -> int:
    """Root of a's union-find tree, halving the path on the way up."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def brute_clone_classes(n: int, masks) -> list[int]:
    """Reference clone classes: union elements whose transposition fixes
    the whole family, trying each swap on every basis.

    A transposition that fixes the family preserves basis degrees, so
    pairs of unequal degree are never tested.  Returns each element's
    union-find root.
    """
    mask_set = frozenset(masks)
    deg = [sum((b >> e) & 1 for b in masks) for e in range(n)]
    parent = list(range(n))
    for e in range(n):
        for f in range(e + 1, n):
            if deg[e] != deg[f] or _find(parent, e) == _find(parent, f):
                continue
            if all(_swap_bits(b, e, f) in mask_set for b in masks):
                parent[_find(parent, f)] = _find(parent, e)
    return [_find(parent, e) for e in range(n)]


def is_clone_minimal(classes: list[int], elements) -> bool:
    """Whether `elements` holds, in each class of `classes` (as returned by
    ``brute_clone_classes``), the lowest members: no member of the class
    outside the set lies below one inside it."""
    return not any(
        classes[e] == classes[f] and e not in elements
        for f in elements
        for e in range(f)
    )


class _BruteSearch:
    """The labeling search before it refined only against freshly split
    cells: every round recomputes each element's signature (degree,
    co-occurrence with the prefix, multisets against every cell), every
    node below the last split refines and recurses, and clone classes come
    from ``brute_clone_classes``."""

    def __init__(self, n: int, masks, collect_all: bool):
        self.n = n
        self.masks = tuple(masks)
        self.collect_all = collect_all
        # cooc[e][f]: bases holding both e and f; the diagonal is the degree
        self.cooc = [[0] * n for _ in range(n)]
        for b in self.masks:
            elems = [e for e in range(n) if (b >> e) & 1]
            for e in elems:
                row = self.cooc[e]
                for f in elems:
                    row[f] += 1
        self.deg = [self.cooc[e][e] for e in range(n)]
        if collect_all:
            self.clone = list(range(n))  # clone skipping would lose leaves
        else:
            self.clone = brute_clone_classes(n, self.masks)
        self.best_prof: list[tuple[int, ...]] = []
        self.best_leaves: list[tuple[int, ...]] = []
        self.order: list[int] = []

    def refine(self, cells: list[list[int]]) -> list[list[int]]:
        cooc = self.cooc
        deg = self.deg
        prefix = tuple(self.order)
        while True:
            new_cells: list[list[int]] = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[tuple, list[int]] = {}
                for e in cell:
                    row = cooc[e]
                    sig = (
                        deg[e],
                        tuple(row[a] for a in prefix),
                    ) + tuple(
                        tuple(sorted(row[f] for f in other if f != e))
                        for other in cells
                    )
                    groups.setdefault(sig, []).append(e)
                if len(groups) > 1:
                    changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
            cells = new_cells
            if not changed:
                return cells

    def run(self) -> None:
        cells = self.refine([list(range(self.n))])
        part = [0] * len(self.masks)
        self._dfs(0, cells, part)

    def _dfs(self, depth: int, cells: list[list[int]], part: list[int]) -> None:
        if not cells:
            self.best_leaves.append(tuple(self.order))
            return
        idx = 0
        for i, c in enumerate(cells):
            if len(c) > 1:
                idx = i
                break
        cell = cells[idx]
        candidates = []
        seen_classes = set()
        for e in sorted(cell):
            c = self.clone[e]
            if c in seen_classes:
                continue
            seen_classes.add(c)
            candidates.append(e)

        at_root = depth == 0 and not self.collect_all
        root_orbit = list(range(self.n)) if at_root else None
        root_done: list[int] = []

        masks = self.masks
        bit = 1 << depth
        for e in candidates:
            if at_root and any(
                _find(root_orbit, e) == _find(root_orbit, p) for p in root_done
            ):
                continue
            newpart = [
                p | bit if (masks[j] >> e) & 1 else p
                for j, p in enumerate(part)
            ]
            prof = tuple(sorted(newpart))
            if len(self.best_prof) > depth:
                ref = self.best_prof[depth]
                if prof > ref:
                    if at_root:
                        root_done.append(e)
                    continue
                if prof < ref:
                    del self.best_prof[depth:]
                    self.best_prof.append(prof)
                    self.best_leaves.clear()
            else:
                self.best_prof.append(prof)
            self.order.append(e)
            rest = [f for f in cell if f != e]
            child = cells[:idx] + ([rest] if rest else []) + cells[idx + 1 :]
            self._dfs(depth + 1, self.refine(child), newpart)
            self.order.pop()
            if at_root:
                root_done.append(e)
                self._absorb_autos(root_orbit)

    def _absorb_autos(self, parent: list[int]) -> None:
        leaves = self.best_leaves
        if len(leaves) < 2:
            return
        base = leaves[0]
        inv = [0] * self.n
        for pos, e in enumerate(base):
            inv[e] = pos
        for other in leaves[1:]:
            for e in range(self.n):
                img = other[inv[e]]
                ra, rb = _find(parent, e), _find(parent, img)
                if ra != rb:
                    parent[rb] = ra


def _relabel(masks, order) -> tuple[int, ...]:
    pos = [0] * len(order)
    for i, e in enumerate(order):
        pos[e] = i
    out = []
    for b in masks:
        m = 0
        e = 0
        bb = b
        while bb:
            if bb & 1:
                m |= 1 << pos[e]
            bb >>= 1
            e += 1
        out.append(m)
    return tuple(sorted(out))


def brute_canonical_labeling(n: int, masks):
    """Reference ``_canonical.canonical_labeling``: (canonical mask family,
    order), from the search that refines against every cell."""
    masks = tuple(sorted(masks))
    if n == 0:
        return masks, ()
    r = masks[0].bit_count()
    if len(masks) == comb(n, r):
        return masks, tuple(range(n))
    search = _BruteSearch(n, masks, collect_all=False)
    search.run()
    order = search.best_leaves[0]
    return _relabel(masks, order), order


def labeling_is_isomorphic(M1: Matroid, M2: Matroid):
    """Reference ``kernel.is_isomorphic``: a bijection M1 -> M2 carrying
    bases to bases, or None, from both sides' full canonical labelings."""
    if M1.degree_key != M2.degree_key:
        return None
    if canonical_form(M1) != canonical_form(M2):
        return None
    _, order1 = M1._canon
    _, order2 = M2._canon
    # order[pos] = element; both relabelings reach the same canonical family
    out = {}
    for pos in range(M1.n):
        out[order1[pos]] = order2[pos]
    assert tuple(
        sorted(mask_of(out[e] for e in _bits(b)) for b in M1.basis_masks)
    ) == M2.basis_masks
    return out


def brute_automorphism_group(n: int, masks) -> set[tuple[int, ...]]:
    """Reference ``_canonical.automorphism_group`` (p[e] = image of e)."""
    masks = tuple(sorted(masks))
    if n == 0:
        return {()}
    r = masks[0].bit_count()
    if len(masks) == comb(n, r):
        return set(itertools.permutations(range(n)))
    search = _BruteSearch(n, masks, collect_all=True)
    search.run()
    leaves = search.best_leaves
    base = leaves[0]
    inv = [0] * n
    for pos, e in enumerate(base):
        inv[e] = pos
    return {tuple(leaf[inv[e]] for e in range(n)) for leaf in leaves}


def _degrees(n: int, masks) -> tuple[int, ...]:
    return tuple(sorted(sum((b >> e) & 1 for b in masks) for e in range(n)))


def brute_minor_masks(M, dmask: int, cmask: int):
    """Reference ``kernel._minor_masks``: with I a greedily grown basis of
    the contract set and r' = r(E - D) - r(C), every r'-subset S of the
    kept elements with S | I independent, relabelled by the order-preserving
    compaction of the kept elements.  Returns ``(n', sorted masks)``."""
    ranks = M.rank_table
    removed = dmask | cmask
    kept = [e for e in range(M.n) if not (removed >> e) & 1]
    imask = 0
    for e in range(M.n):
        grown = imask | (1 << e)
        if (cmask >> e) & 1 and ranks[grown] == grown.bit_count():
            imask = grown
    new_rank = ranks[M.full_mask ^ dmask] - ranks[cmask]
    out = []
    for combo in itertools.combinations(range(len(kept)), new_rank):
        indep = imask | sum(1 << kept[i] for i in combo)
        if ranks[indep] == indep.bit_count():
            out.append(sum(1 << i for i in combo))
    return len(kept), tuple(sorted(out))


def combo_truncate(M: Matroid, k: int) -> Matroid:
    """Reference ``kernel.truncate`` below the rank: the k-combinations of
    the bases, as element sets, packed and deduplicated."""
    out = set()
    for b in M.basis_masks:
        ids = [e for e in range(M.n) if (b >> e) & 1]
        for combo in itertools.combinations(ids, k):
            out.add(sum(1 << e for e in combo))
    return Matroid._from_masks(M.n, sorted(out))


def brute_has_minor(host, pattern):
    """Reference single-pattern search: every split in the search order
    (removed set, contract size, contract set), skipped unless the contract
    set is independent and the delete set coindependent (r(C) = |C| and
    r(E - D) = r(E)) and the minor's rank r(E) - |C| is the pattern's, then
    built by ``brute_minor_masks`` and filtered by basis count, degrees and
    canonical form.  Returns the first ``(delete, contract, iso)`` as
    element sets, or None."""
    k = host.n - pattern.n
    ranks = host.rank_table
    want_deg = _degrees(pattern.n, pattern.basis_masks)
    for removed in itertools.combinations(range(host.n), k):
        for csize in range(k + 1):
            for cset in itertools.combinations(removed, csize):
                contract = frozenset(cset)
                delete = frozenset(removed) - contract
                dm = sum(1 << e for e in delete)
                cm = sum(1 << e for e in contract)
                if ranks[cm] != csize or ranks[host.full_mask ^ dm] != host.rank:
                    continue
                if host.rank - csize != pattern.rank:
                    continue
                got = Matroid._from_masks(*brute_minor_masks(host, dm, cm))
                if got.num_bases != pattern.num_bases:
                    continue
                if _degrees(got.n, got.basis_masks) != want_deg:
                    continue
                if canonical_form(got) != canonical_form(pattern):
                    continue
                return delete, contract, is_isomorphic(got, pattern)
    return None


def brute_find_catalog_minor(M):
    """Reference catalog search, one connected component at a time: for
    each catalog size, smallest first, each component of
    ``brute_components_within`` with that many elements or more, by least
    element, and in it one ``brute_has_minor`` call per catalog member of
    that size, in catalog order.  A hit on a component's restriction is
    lifted to M: its sets mapped onto the component's elements, a greedy
    basis of the other components contracted and the rest of them deleted.
    Returns ``(name, delete, contract, iso)`` for the first hit, or None."""
    ranks = M.rank_table
    full = (1 << M.n) - 1
    comps = [c for c in brute_components_within(M, full) if c.bit_count() >= 6]
    if not comps:
        return None
    entries = catalog_up_to(max(c.bit_count() for c in comps))
    for size in sorted({entry.matroid.n for entry in entries}):
        for comp in comps:
            if comp.bit_count() < size:
                continue
            part = Matroid._from_masks(*brute_minor_masks(M, full ^ comp, 0))
            found = next((
                (entry.name, *hit)
                for entry in entries
                if entry.matroid.n == size
                for hit in [brute_has_minor(part, entry.matroid)]
                if hit is not None
            ), None)
            if found is None:
                continue
            name, delete, contract, iso = found
            elements = [e for e in range(M.n) if (comp >> e) & 1]
            basis = 0
            for e in range(M.n):
                grown = basis | (1 << e)
                if not (comp >> e) & 1 and ranks[grown] == grown.bit_count():
                    basis = grown
            rest = [e for e in range(M.n) if not (comp >> e) & 1]
            return (
                name,
                frozenset(elements[e] for e in delete)
                | {e for e in rest if not (basis >> e) & 1},
                frozenset(elements[e] for e in contract)
                | {e for e in rest if (basis >> e) & 1},
                iso,
            )
    return None


def brute_catalog_minors(max_n: int):
    """Reference ``catalog-minors``: ``brute_minor_masks`` on every split of
    every catalog member up to 8 elements, in split order (removed set
    ascending, contract set descending within it), first occurrences of
    each labelled family with at most `max_n` elements."""
    out = []
    seen = set()
    for entry in catalog_up_to(8):
        M = entry.matroid
        for removed in range(1 << M.n):
            sub = removed
            while True:
                new_n, masks = brute_minor_masks(M, removed ^ sub, sub)
                if new_n <= max_n and (new_n, masks) not in seen:
                    seen.add((new_n, masks))
                    out.append(Matroid._from_masks(new_n, masks))
                if sub == 0:
                    break
                sub = (sub - 1) & removed
    return out


def brute_generate_tagged(spec):
    """Reference ``corpus.generate_tagged``: the generators in spec order,
    then the canonical form of every generated matroid, keeping the first
    of each form."""
    rng = corpus.SplitMix64(spec.seed if spec.seed is not None else 0)
    draws = lambda draw: [draw(rng, spec.max_n) for _ in range(spec.count)]
    raw = []
    for g in spec.generators:
        if g == "random-transversal":
            got = brute_gen_transversal(rng, spec.count, spec.max_n)
        elif g == "random-sparse-paving":
            got = draws(corpus._draw_sparse_paving)
        elif g == "catalog-minors":
            got = brute_catalog_minors(spec.max_n)
        elif g == "lpm-random":
            got = draws(corpus._draw_lpm_random)
        else:
            got = [dual(M) for _, M in raw]
        raw.extend((g, M) for M in got)
    return brute_dedup(raw)


def brute_degree_sorted_masks(n: int, masks) -> list[int]:
    """Reference ``_canonical._degree_sorted_family``, as sorted masks:
    elements placed by ascending basis degree, ties in label order, and
    every basis relabelled element by element."""
    deg = [sum((b >> e) & 1 for b in masks) for e in range(n)]
    pos = {e: i for i, e in enumerate(sorted(range(n), key=lambda e: deg[e]))}
    return sorted(
        sum(1 << pos[e] for e in range(n) if (b >> e) & 1) for b in masks
    )


def family_masks(n: int, family: int) -> list[int]:
    """The sets of a family given as one int (bit X set iff X is in it)."""
    return [x for x in range(1 << n) if (family >> x) & 1]


def brute_dedup(raw):
    """Reference ``corpus._first_of_each_class``: label every (source,
    matroid) pair and keep the first of each canonical form."""
    seen = set()
    out = []
    for source, M in raw:
        form = canonical_form(M)
        if form not in seen:
            seen.add(form)
            out.append((source, M))
    return out


def _ints(tokens: list[str], what: str, raw: str) -> list[int]:
    """The tokens of one text line as ints, else a bad-line error naming it."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise MatroidError(f"bad {what} line: {raw!r}") from None


def line_matroid_from_text(text: str) -> Matroid:
    """Parse the matroid text format; the family is fully re-validated.

    Each basis line is packed into a bitmask as it is read.  A line with an
    element outside 0..n-1 stays a list, for :func:`from_bases` to report.
    """
    rows: list[Union[int, list[int]]] = []
    header = None
    mixed = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "MATROID":
                raise MatroidError(f"bad header line: {raw!r}")
            header = n, r = _ints(parts[1:], "header", raw)
            if not 0 <= r <= n:
                raise MatroidError(f"bad header line: {raw!r}")
            # past the cap from_bases rejects n; pack no wider than the cap
            bits = [1 << e for e in range(min(n, MAX_GROUND))]
            continue
        row = _ints(line.split(), "basis", raw)
        if not all(map(operator.lt, row, row[1:])):
            raise MatroidError(f"basis line not strictly increasing: {raw!r}")
        mixed = mixed or len(row) != r
        if 0 <= row[0] and row[-1] < len(bits):
            rows.append(sum(map(bits.__getitem__, row)))
        else:
            rows.append(row)
    if header is None:
        raise MatroidError("missing MATROID header")
    if r == 0:
        if rows:
            raise MatroidError("rank 0 matroid admits no basis lines")
        return from_bases(n, [0])
    if mixed:
        raise MixedCardinality("basis line length differs from declared rank")
    return from_bases(n, rows)


def set_matroid_to_text(M: Matroid) -> str:
    """Reference ``kernel.matroid_to_text``: the bases as sorted id tuples,
    sorted, each spelt with ``str`` and joined by one space."""
    lines = [f"MATROID {M.n} {M.rank}"]
    rows = sorted(tuple(sorted(b)) for b in M.bases)
    lines.extend(" ".join(map(str, row)) for row in rows if row)
    return "\n".join(lines) + "\n"
