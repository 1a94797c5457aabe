"""Canonical labeling of basis families.

Backtracking over element orderings: positions are assigned one at a time,
candidates restricted to the first non-singleton cell of an iteratively
refined partition.  Invariants: basis-degree, co-occurrence with the
assigned prefix, co-occurrence multisets against the other cells.  Each
refinement works only against what just changed: the root partition is
split by degree and co-occurrence multiset against the whole ground set,
a child's by co-occurrence with the element just placed, and every later
round by the multisets against the cells that split in the round before;
members of a cell already agree on everything else, so the cells and
their order are those of refining against every cell every round (the
"freshly split cells" of McKay & Piperno, Practical graph isomorphism II,
2014).  Once every cell is a singleton the rest of the order is forced:
the tail is placed in a loop, comparing profiles, with no refinement.
Pruning: prefix comparison of the partially relabelled family against the
best branch so far, collapsing of clone classes (elements interchangeable
by a single transposition), and root-level orbit skipping driven by
automorphisms discovered at the leaves.  Pruning never changes the
computed form, only the work done.

Set-up per family: each element's column, a bitset over the bases holding
it, and the co-occurrence table read off the columns by popcount, with the
basis degrees on its diagonal; clone classes come from one bit-lane test
per pair of elements: the family as one int with a bit per subset, whose
lanes holding e but not f, shifted onto those holding f but not e, must
match (see ``_clone_classes``).  The catalog search and the catalog-minors
corpus read the same classes to walk only clone-minimal splits.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb


def _find(parent: list[int], a: int) -> int:
    """Root of a's union-find tree, halving the path on the way up."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


@cache
def _element_lanes(n: int) -> tuple[int, ...]:
    """``lanes[e]`` has bit X set iff e is in X, for the 2^n subsets X of
    an n-element ground set: 2^e clear bits then 2^e set ones, repeated."""
    every = (1 << (1 << n)) - 1
    return tuple(
        (((1 << (1 << e)) - 1) << (1 << e)) * (every // ((1 << (2 << e)) - 1))
        for e in range(n)
    )


def _clone_classes(n: int, masks) -> list[int]:
    """The least member of each element's clone class.

    Elements e < f are clones when swapping them fixes the family.  With
    the family as one int F (bit X set iff X is in it), the swap fixes the
    sets holding both or neither and moves each X holding e but not f to
    X - e + f = X + 2^f - 2^e, so it fixes F exactly when the lanes of F
    holding e but not f, shifted up by 2^f - 2^e, are those holding f but
    not e.  Transpositions fixing the family compose, so the relation is
    transitive and f need only be tested against least members below it.
    """
    family = 0
    for b in masks:
        family |= 1 << b
    holding = [family & lane for lane in _element_lanes(n)]
    least = list(range(n))
    for f in range(1, n):
        for e in range(f):
            if least[e] == e and (holding[e] & ~holding[f]) << (
                (1 << f) - (1 << e)
            ) == holding[f] & ~holding[e]:
                least[f] = e
                break
    return least


def _clone_steps(n: int, masks) -> tuple[tuple[int, int], ...]:
    """``(bit of f, bit of e)`` for each element f and its next-lower
    clone e, from :func:`_clone_classes`.  A set is *clone-minimal*, holding
    the lowest members of each clone class, iff it holds e wherever it
    holds f (see :func:`_clone_minimal`)."""
    least = _clone_classes(n, masks)
    last: dict[int, int] = {}
    steps = []
    for f in range(n):
        if least[f] in last:
            steps.append((1 << f, 1 << last[least[f]]))
        last[least[f]] = f
    return tuple(steps)


def _clone_minimal(mask: int, steps: tuple[tuple[int, int], ...]) -> bool:
    """Whether the set `mask` is clone-minimal for :func:`_clone_steps`."""
    return all(mask & lower for upper, lower in steps if mask & upper)


class _Search:
    def __init__(self, n: int, masks, collect_all: bool):
        self.n = n
        self.masks = tuple(masks)
        self.collect_all = collect_all
        # col[e]: bit j set iff basis j holds e
        col = [0] * n
        for j, b in enumerate(self.masks):
            e = 0
            while b:
                if b & 1:
                    col[e] |= 1 << j
                b >>= 1
                e += 1
        # cooc[e][f]: bases holding both e and f; the diagonal is the degree
        self.cooc = [[(ce & cf).bit_count() for cf in col] for ce in col]
        self.deg = [self.cooc[e][e] for e in range(n)]
        if collect_all:
            self.clone = list(range(n))  # clone skipping would lose leaves
        else:
            self.clone = _clone_classes(n, self.masks)
        self.best_prof: list[tuple[int, ...]] = []
        self.best_leaves: list[tuple[int, ...]] = []
        self.order: list[int] = []

    def refine(self, cells: list[list[int]], key) -> list[list[int]]:
        """Split every cell by ``key[x]``, then round after round by each
        member's co-occurrence multisets against the cells that split in
        the round before, until no cell splits.  The parts of a split cell
        follow in the sorted order of their signatures.

        ``cells`` must be stable but for what ``key`` tells apart: members
        of a cell agree on their degree, their co-occurrence with the placed
        prefix and their multisets against every cell.  Then members can
        differ only against freshly split cells, and leaving out the cells
        where they agree changes neither the split nor the order of parts.
        """
        cooc = self.cooc
        fresh = None
        while True:
            new_cells: list[list[int]] = []
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict = {}
                if fresh is None:
                    for x in cell:
                        groups.setdefault(key[x], []).append(x)
                else:
                    for x in cell:
                        row = cooc[x]
                        sig = tuple(
                            tuple(sorted([row[f] for f in other if f != x]))
                            for other in fresh
                        )
                        groups.setdefault(sig, []).append(x)
                if len(groups) == 1:
                    new_cells.append(cell)
                    continue
                parts = [groups[sig] for sig in sorted(groups)]
                new_cells += parts
                split += parts
            if not split:
                return new_cells
            cells, fresh = new_cells, split

    def run(self) -> None:
        n, cooc = self.n, self.cooc
        key = [
            (self.deg[x], tuple(sorted([row[f] for f in range(n) if f != x])))
            for x, row in enumerate(cooc)
        ]
        part = [0] * len(self.masks)
        self._dfs(0, self.refine([list(range(n))], key), part)

    def _admit(self, depth: int, e: int, part: list[int]) -> list[int] | None:
        """``part`` with e placed at position ``depth``, or None when the
        sorted profile of the result is worse than the best branch's at this
        depth.  A better profile makes this branch the best one."""
        bit = 1 << depth
        newpart = [
            p | bit if m >> e & 1 else p for m, p in zip(self.masks, part)
        ]
        prof = tuple(sorted(newpart))
        best = self.best_prof
        if len(best) > depth:
            ref = best[depth]
            if prof > ref:
                return None
            if prof < ref:
                del best[depth:]
                best.append(prof)
                self.best_leaves.clear()
        else:
            best.append(prof)
        return newpart

    def _dfs(self, depth: int, cells: list[list[int]], part: list[int]) -> None:
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            self._tail(depth, cells, part)
            return
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

        for e in candidates:
            if at_root and any(
                _find(root_orbit, e) == _find(root_orbit, p) for p in root_done
            ):
                continue
            newpart = self._admit(depth, e, part)
            if newpart is None:
                if at_root:
                    root_done.append(e)
                continue
            self.order.append(e)
            rest = [f for f in cell if f != e]
            child = cells[:idx] + [rest] + cells[idx + 1 :]
            self._dfs(depth + 1, self.refine(child, self.cooc[e]), newpart)
            self.order.pop()
            if at_root:
                root_done.append(e)
                self._absorb_autos(root_orbit)

    def _tail(self, depth: int, cells: list[list[int]], part: list[int]) -> None:
        """Place the singleton cells in order: one candidate per position,
        whose refinement would change nothing, so only the profiles are
        compared on the way to the leaf."""
        order = self.order
        start = len(order)
        for (e,) in cells:
            part = self._admit(depth, e, part)
            if part is None:
                break
            order.append(e)
            depth += 1
        else:
            self.best_leaves.append(tuple(order))
        del order[start:]

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


def canonical_labeling(n: int, masks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (canonical mask family, order), where order[pos] = element.

    Relabelling the family through the order and sorting yields the first
    component.  Two families give equal canonical masks iff some bijection
    of their ground sets carries one family onto the other.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return masks, ()
    r = masks[0].bit_count()
    if len(masks) == comb(n, r):
        return masks, tuple(range(n))
    search = _Search(n, masks, collect_all=False)
    search.run()
    # the profile at the last position is the family relabelled through
    # the order of the best leaf
    return search.best_prof[-1], search.best_leaves[0]


def automorphism_group(n: int, masks) -> set[tuple[int, ...]]:
    """Full automorphism group as permutation tuples (p[e] = image of e).

    The search keeps every best leaf, one per group element, and so prunes
    nothing: its cost grows with the group order.  On a 2-core x86 host
    the 11-element catalog members B4,3 and C7,3 (groups of 6,912) take
    2.5-2.8 s, and the 12-element A6 and B4,4 (groups of 28,800 and
    82,944) 37.6 and 49.5 s.  Only uniform families past 9 elements, whose
    group is n!, are refused.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return {()}
    r = masks[0].bit_count()
    if len(masks) == comb(n, r):
        if n > 9:
            raise ValueError(
                f"automorphism group of the uniform matroid on {n} elements "
                "is n!; refusing to materialize it"
            )
        return set(itertools.permutations(range(n)))
    search = _Search(n, masks, collect_all=True)
    search.run()
    leaves = search.best_leaves
    base = leaves[0]
    inv = [0] * n
    for pos, e in enumerate(base):
        inv[e] = pos
    return {tuple(leaf[inv[e]] for e in range(n)) for leaf in leaves}
