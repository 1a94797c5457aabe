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
best branch so far, and collapsing of clone classes (elements
interchangeable by a single transposition).  Pruning never changes the
computed form, only the work done.

There is one search: the automorphism group is read off its final best
leaves and the clone transpositions (see ``automorphism_group``), and an
isomorphism test runs it toward a target (see ``order_onto``).  The best
profile at depth d is the profile of the best leaf there, so it is the
canonical masks truncated to their low d + 1 bits and sorted: a family's
canonical masks fix its whole sequence of best profiles.  Run toward
another family's canonical masks, the search cuts worse profiles as
always, stops at the first better one, which no isomorphic family has, and
returns the first leaf that matches them all, which is the leaf its full
labeling would pick.

Every entry point takes the family as one int with a bit per subset (see
``_family_int``), which ``Matroid._family`` builds once per matroid, and
set-up reads each element's lane of it, the sets holding that element.
The co-occurrence table is the popcount of each pair of lanes' meet, with
the basis degrees on its diagonal; clone classes come from one lane test
per pair of elements: the lanes holding e but not f, shifted onto those
holding f but not e, must match (see ``_clone_classes``).  The catalog
search and the catalog-minors corpus read the same classes to walk only
clone-minimal splits, and corpus deduplication relabels a family by
ascending degree with the same lane shifts before any labeling (see
``_degree_sorted_family``).
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb, factorial, prod
from operator import itemgetter


@cache
def _element_lanes(n: int) -> tuple[int, ...]:
    """``lanes[e]`` has bit X set iff e is in X, for the 2^n subsets X of
    an n-element ground set: 2^e clear bits then 2^e set ones, repeated."""
    every = (1 << (1 << n)) - 1
    return tuple(
        (((1 << (1 << e)) - 1) << (1 << e)) * (every // ((1 << (2 << e)) - 1))
        for e in range(n)
    )


def _family_int(masks) -> int:
    """The family as one int: bit X set iff the set X is in it."""
    family = 0
    for b in masks:
        family |= 1 << b
    return family


def _relabelled_family(n: int, family: int, order) -> int:
    """The family int `family` (see :func:`_family_int`) relabelled so
    that element ``order[pos]`` becomes pos.

    The relabelling is applied as at most n - 1 transpositions (a selection
    sort of the positions), each a lane shift with the test of
    :func:`_clone_classes`: swapping e < f fixes the sets holding both or
    neither, moves those holding e but not f up by 2^f - 2^e and those
    holding f but not e down by as much.  The cost depends on n, not on
    the number of sets.
    """
    lanes = _element_lanes(n)
    at = list(range(n))  # at[pos]: the element now labelled pos
    for e, x in enumerate(order):
        f = at.index(x)
        if f == e:
            continue
        only_e = lanes[e] & ~lanes[f]
        only_f = lanes[f] & ~lanes[e]
        shift = (1 << f) - (1 << e)
        family = (
            family & ~(only_e | only_f)
            | (family & only_e) << shift
            | (family & only_f) >> shift
        )
        at[e], at[f] = x, at[e]
    return family


def _degree_sorted_family(n: int, family: int) -> int:
    """The family int `family` (see :func:`_family_int`) relabelled so
    that basis degrees ascend, ties kept in label order
    (:func:`_relabelled_family`).

    The relabelling is a bijection of the ground set, so families with
    equal results are isomorphic; isomorphic families need not give equal
    results, since the order of elements of equal degree depends on the
    labels.
    """
    degree = [(family & lane).bit_count() for lane in _element_lanes(n)]
    return _relabelled_family(n, family, sorted(range(n), key=degree.__getitem__))


def _clone_classes(holding: list[int]) -> list[int]:
    """The least member of each element's clone class, given the family's
    element lanes: ``holding[e]`` is the family as one int F (bit X set iff
    X is in it) masked by ``_element_lanes(n)[e]``, the sets holding e.

    Elements e < f are clones when swapping them fixes the family.  The
    swap fixes the sets holding both or neither and moves each X holding e
    but not f to X - e + f = X + 2^f - 2^e, so it fixes F exactly when the
    lanes of F holding e but not f, shifted up by 2^f - 2^e, are those
    holding f but not e.  Transpositions fixing the family compose, so the
    relation is transitive and f need only be tested against least members
    below it.
    """
    n = len(holding)
    least = list(range(n))
    for f in range(1, n):
        for e in range(f):
            if least[e] == e and (holding[e] & ~holding[f]) << (
                (1 << f) - (1 << e)
            ) == holding[f] & ~holding[e]:
                least[f] = e
                break
    return least


def _clone_steps(n: int, family: int) -> tuple[tuple[int, int], ...]:
    """``(bit of f, bit of e)`` for each element f and its next-lower
    clone e, from :func:`_clone_classes` on the family int `family`.  A set
    is *clone-minimal*, holding the lowest members of each clone class, iff
    it holds e wherever it holds f (see :func:`_clone_minimal`)."""
    least = _clone_classes([family & lane for lane in _element_lanes(n)])
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
    """The labeling search on the family given as its masks and as its
    family int (see :func:`_family_int`), which set-up reads for the
    co-occurrence table and the clone classes.  A branch is cut only when
    its profile is worse than the best at its depth so far, or when its
    element is a clone of a lower one in the same cell; so the final best
    leaves are every best leaf the clone-collapsed tree holds.

    With a `target`, the canonical masks of a family, the search runs
    toward it instead: the best profile at depth d is the target truncated
    to its low d + 1 bits, sorted (the profile of a leaf at depth d is the
    family it relabels to, so truncated), a worse profile is cut as
    always, and the search is ``done`` at the first better profile, which
    proves the family is not isomorphic to the target's, or at the first
    leaf, which is the full search's first best leaf.
    """

    def __init__(self, n: int, masks, family: int, target=None):
        self.n = n
        self.masks = tuple(masks)
        holding = [family & lane for lane in _element_lanes(n)]
        # cooc[e][f]: bases holding both e and f; the diagonal is the degree
        self.cooc = [[(he & hf).bit_count() for hf in holding] for he in holding]
        self.deg = [self.cooc[e][e] for e in range(n)]
        self.clone = _clone_classes(holding)
        self.best_prof: list[tuple[int, ...]] = []
        self.best_leaves: list[tuple[int, ...]] = []
        self.order: list[int] = []
        self.targeted = target is not None
        self.done = False
        if self.targeted:
            self.best_prof = [
                tuple(sorted([m & ((2 << d) - 1) for m in target]))
                for d in range(n)
            ]

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
        self._dfs(0, self.refine([list(range(n))], key), [0] * len(self.masks))

    def _admit(self, depth: int, e: int, part: list[int]) -> list[int] | None:
        """``part`` with e placed at position ``depth``, or None when the
        sorted profile of the result is worse than the best branch's at this
        depth.  A better profile makes this branch the best one, or, toward
        a target, ends the search."""
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
                if self.targeted:
                    self.done = True
                    return None
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
        candidates: dict[int, int] = {}  # clone class -> least member here
        for e in sorted(cell):
            candidates.setdefault(self.clone[e], e)
        for e in candidates.values():
            if self.done:
                return
            newpart = self._admit(depth, e, part)
            if newpart is None:
                continue
            self.order.append(e)
            rest = [f for f in cell if f != e]
            child = cells[:idx] + [rest] + cells[idx + 1 :]
            self._dfs(depth + 1, self.refine(child, self.cooc[e]), newpart)
            self.order.pop()

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
            self.done = self.targeted
        del order[start:]


def canonical_labeling(
    n: int, masks, family: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (canonical mask family, order), where order[pos] = element,
    for the family given both as its masks and as its family int (see
    :func:`_family_int`).

    Relabelling the family through the order and sorting yields the first
    component.  Two families give equal canonical masks iff some bijection
    of their ground sets carries one family onto the other.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return masks, ()
    search = _Search(n, masks, family)
    search.run()
    # the profile at the last position is the family relabelled through
    # the order of the best leaf
    return search.best_prof[-1], search.best_leaves[0]


def order_onto(n: int, masks, family: int, target) -> tuple[int, ...] | None:
    """An order (order[pos] = element) relabelling the family, given as
    its masks and its family int, onto `target`, the canonical masks of a
    family on the same n elements with as many sets, or None when the two
    families are not isomorphic.

    The order is the one :func:`canonical_labeling` would return: the
    search runs toward the target (see :class:`_Search`) with the same
    refinement and clone collapsing, so the first leaf it reaches is the
    full search's first best leaf, and nothing is labelled in full.  The
    empty ground set gets the empty order iff the masks equal the target.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return () if masks == tuple(target) else None
    search = _Search(n, masks, family, target)
    search.run()
    return search.best_leaves[0] if search.best_leaves else None


def automorphism_group(n: int, masks, family: int) -> set[tuple[int, ...]]:
    """Full automorphism group as permutation tuples (p[e] = image of e),
    of the family given as its masks and its family int.

    The group is read off the labeling search: each final best leaf L_i
    gives the automorphism L_0 L_i^-1, carrying element L_i[pos] to
    L_0[pos], and these, composed on the right with every product of clone
    transpositions, are the whole group.  This is exact: the search cuts
    a branch only for a worse profile, which holds no best leaf, or for a
    clone of a lower element in its cell.  So for an automorphism s the
    leaf s L_0, followed from the root, can be carried into the explored
    tree by a product g of clone transpositions, swapping its element for
    the lowest clone in the cell wherever it enters a collapsed branch;
    g s L_0 is then a final best leaf L_i, and s^-1 = L_0 L_i^-1 g is one
    of the products listed; s^-1 runs over the group as s does.

    The clone-class factorials multiply to a lower bound on the group
    order (n! on a uniform family); past 9! the group is refused with
    ``ValueError``.  Uniform families up to 9 elements are listed directly.
    On a 2-core x86 host the 11-element catalog members take 0.02 s, the
    12-element ones 0.1-0.4 s; W3 + W3, whose group is transitive with no
    clones, takes 0.35 s over 1,152 best leaves.
    """
    masks = tuple(sorted(masks))
    if n == 0:
        return {()}
    if n <= 9 and len(masks) == comb(n, masks[0].bit_count()):
        return set(itertools.permutations(range(n)))
    search = _Search(n, masks, family)
    bound = prod(factorial(search.clone.count(c)) for c in set(search.clone))
    if bound > factorial(9):
        raise ValueError(f"automorphism group on {n} elements has at least "
                         f"{bound} elements; refusing to materialize it")
    search.run()
    first = search.best_leaves[0]
    group = frontier = {
        tuple(img for _, img in sorted(zip(leaf, first)))
        for leaf in search.best_leaves
    }
    # itemgetter(*t)(p) is p composed with t (n >= 2, smaller is uniform)
    steps = [
        itemgetter(*(f if x == c else c if x == f else x for x in range(n)))
        for f, c in enumerate(search.clone)
        if c != f
    ]
    while frontier:
        frontier = {step(p) for p in frontier for step in steps} - group
        group |= frontier
    return group
