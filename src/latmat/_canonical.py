"""Canonical labeling of basis families.

Backtracking over element orderings: positions are assigned one at a time,
candidates restricted to the first non-singleton cell of an iteratively
refined partition (invariants: basis-degree, co-occurrence with the assigned
prefix, co-occurrence multisets against the remaining cells).  Pruning:
prefix comparison of the partially relabelled family against the best branch
so far, collapsing of clone classes (elements interchangeable by a single
transposition), and root-level orbit skipping driven by automorphisms
discovered at the leaves.  Pruning never changes the computed form, only the
work done.

Set-up per family: the co-occurrence table (bases holding both e and f) is
built in one pass over the bases, with the basis degrees on its diagonal,
and clone classes come from one bit-lane test per pair of elements: the
family as one int with a bit per subset, whose lanes holding e but not f,
shifted onto those holding f but not e, must match (see
``_clone_classes``).  The catalog search and the catalog-minors corpus
read the same classes to walk only clone-minimal splits.
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
            self.clone = _clone_classes(n, self.masks)
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
    order = search.best_leaves[0]
    return _relabel(masks, order), order


def automorphism_group(n: int, masks) -> set[tuple[int, ...]]:
    """Full automorphism group as permutation tuples (p[e] = image of e)."""
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
