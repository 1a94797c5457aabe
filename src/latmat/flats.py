"""Enumeration and classification of flats.

Classifies every flat as connected / cyclic / pnc / reducible / fundamental.
Terminology: a flat is *cyclic* when it is a (possibly empty) union of
circuits; a *pnc-flat* is a proper, dependent, connected flat ("nontrivial"
means dependent: a multi-element rank-1 flat qualifies, a singleton does
not); a pnc-flat is *reducible* when it is the intersection of two
incomparable pnc-flats; a *fundamental flat* is a pnc-flat F for which some
spanning circuit C makes F & C a basis of F.

Every flat is found in one sweep over all 2^n subsets at once on the
kernel's byte lanes; the ground-set cap keeps that tractable.  The
functions that return every flat read the cached ``Matroid.flat_masks``.
The pnc-flats and the fundamental flats, all the structural recognizer
needs, stay on the lanes until only they are left: ``_pnc_masks`` unpacks
only the dependent proper flats, and ``_fundamental_masks`` tests each
pnc-flat against the spanning-circuit lanes at once, so neither lists
every flat or every circuit.  The pnc-flats come off the cyclic flats: in
a loopless matroid a dependent proper flat is connected iff it is cyclic
and does not split into two cyclic flats whose ranks add up to its own
(see ``_pnc_masks``), so no flat's components are computed.  Results are
plain frozensets; no caching across calls beyond the per-matroid tables.
Each caller enumerates the pnc-flats once with ``_pnc_masks`` and passes
that list to ``_fundamental_masks`` and ``_reducible_masks``; connectivity
of the ground set comes from the cached ``Matroid.component_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    Matroid,
    MatroidError,
    _at_least,
    _bits,
    _circuit_lanes,
    _dependent_lanes,
    _flat_lanes,
    _lane_members,
    _lanes,
    is_connected,
    mask_of,
    members,
)


class HasLoops(MatroidError):
    pass


class NotPncFlat(MatroidError):
    pass


def _is_cyclic_mask(M: Matroid, x: int) -> bool:
    ranks = M.rank_table
    rx = ranks[x]
    m = x
    while m:
        low = m & -m
        m ^= low
        if ranks[x ^ low] != rx:
            return False
    return True


def _pnc_masks(M: Matroid) -> tuple[int, ...]:
    """M's pnc-flats, ascending.

    Loopless M: the dependent proper flats, read off the lanes (flat lanes
    AND dependent lanes, less the ground set's lane, the last), that are
    cyclic and do not split: no nonempty cyclic flat K properly inside F
    leaves F - K a cyclic flat with r(K) + r(F - K) = r(F) (Bonin and de
    Mier, "The lattice of cyclic flats of a matroid", Ann. Comb. 2008).  A
    connected flat with two or more elements is cyclic and has no such
    split.  Conversely each component of a cyclic flat is a cyclic flat (a
    non-loop in its closure lies on a circuit inside it), so a disconnected
    one splits off a component.  Only the dependent proper flats are
    unpacked; no other flat is listed.

    With loops, every flat holds every loop and a loop is a component of
    its own, so the one possible pnc-flat is the loop itself: a flat only
    when M has exactly one loop, and proper only when M has more elements.
    """
    loops = M.loops_mask
    if loops:
        single = loops.bit_count() == 1 and loops != M.full_mask
        return (loops,) if single else ()
    ranks = M.rank_table
    dependent_flats = _flat_lanes(M) & _dependent_lanes(M)
    proper = dependent_flats & ((1 << (8 * M.full_mask)) - 1)
    cyclic = [x for x in _lane_members(proper, M.n) if _is_cyclic_mask(M, x)]
    cyclic_flats = {0, *cyclic}  # the empty flat is cyclic too
    out = []
    for i, f in enumerate(cyclic):
        rf = ranks[f]
        # a proper subset of f is a smaller mask, so only cyclic[:i] holds K
        if not any(
            k & f == k
            and f ^ k in cyclic_flats
            and ranks[k] + ranks[f ^ k] == rf
            for k in cyclic[:i]
        ):
            out.append(f)
    return tuple(out)


def _fundamental_masks(M: Matroid, pncs: tuple[int, ...]) -> tuple[int, ...]:
    """The fundamental flats among ``pncs``, which must be M's pnc-flats as
    :func:`_pnc_masks` returns them; callers pass the list they already hold.

    The spanning circuits are one lane set, the circuit lanes of size
    r + 1; no circuit is unpacked.  For a pnc-flat F the lanes of
    ``meet`` hold |F & X|, and F is fundamental iff some spanning circuit
    C has |F & C| >= r(F).  That is the definition's |F & C| = r(F): C is
    not inside F, or the proper flat F would span M, so F & C is a proper
    subset of the circuit C, independent, and at most r(F) in size.
    """
    ones, single, sizes = _lanes(M.n)
    ranks = M.rank_table
    spanning = _circuit_lanes(M) & _at_least(sizes, M.rank + 1, ones)
    out = []
    for f in pncs:
        meet = sum(single[e] for e in _bits(f))
        if _at_least(meet, ranks[f], ones) & spanning:
            out.append(f)
    return tuple(out)


def _reducible_masks(pncs: tuple[int, ...]) -> frozenset[int]:
    """The pnc-flats that are the meet of two incomparable pnc-flats."""
    pnc_set = frozenset(pncs)
    red = set()
    for i, g in enumerate(pncs):
        for h in pncs[i + 1 :]:
            meet = g & h
            if meet != g and meet != h and meet in pnc_set:
                red.add(meet)
    return frozenset(red)


def all_flats(M: Matroid) -> frozenset[frozenset[int]]:
    """Every closure-closed subset, including the empty flat and the ground set."""
    return frozenset(members(x) for x in M.flat_masks)


def cyclic_flats(M: Matroid) -> frozenset[frozenset[int]]:
    return frozenset(
        members(x) for x in M.flat_masks if _is_cyclic_mask(M, x)
    )


def pnc_flats(M: Matroid) -> frozenset[frozenset[int]]:
    return frozenset(members(x) for x in _pnc_masks(M))


def reducible(M: Matroid, F) -> bool:
    """Is the pnc-flat F an intersection of two incomparable pnc-flats?"""
    fm = mask_of(F, M.n)
    pncs = _pnc_masks(M)
    if fm not in pncs:
        raise NotPncFlat(f"{sorted(members(fm))} is not a pnc-flat")
    return fm in _reducible_masks(pncs)


def irreducible_pnc_flats(M: Matroid) -> frozenset[frozenset[int]]:
    pncs = _pnc_masks(M)
    red = _reducible_masks(pncs)
    return frozenset(members(f) for f in pncs if f not in red)


def fundamental_flats(M: Matroid) -> frozenset[frozenset[int]]:
    """Pnc-flats met by some spanning circuit in a basis of the flat."""
    return frozenset(members(f) for f in _fundamental_masks(M, _pnc_masks(M)))


def connected_flats_signature(M: Matroid) -> list[tuple[frozenset[int], int]]:
    """Nontrivial connected flats (ground set included) with their ranks.

    Canonically sorted; a loopless matroid is determined by this list.
    """
    if M.loops_mask:
        raise HasLoops("signature is defined for loopless matroids")
    ranks = M.rank_table
    masks = list(_pnc_masks(M))
    full = M.full_mask
    if ranks[full] < full.bit_count() and is_connected(M):
        masks.append(full)
    out = [(members(x), ranks[x]) for x in masks]
    out.sort(key=lambda fr: (len(fr[0]), sorted(fr[0])))
    return out


@dataclass(frozen=True)
class FlatEntry:
    flat: frozenset[int]
    rank: int
    nullity: int
    is_connected: bool
    is_cyclic: bool
    is_pnc: bool
    is_reducible: bool
    is_fundamental: bool


@dataclass(frozen=True)
class FlatsReport:
    entries: tuple[FlatEntry, ...]


def flats_report(M: Matroid) -> FlatsReport:
    """Classify every flat; rows sorted by (size, elements).

    A proper flat's connectivity is read off what is already at hand: a
    dependent one is connected exactly when it is a pnc-flat, an
    independent one when it has at most one element, and the ground set's
    is the cached :func:`kernel.is_connected`.
    """
    ranks = M.rank_table
    pnc_list = _pnc_masks(M)
    pncs = set(pnc_list)
    fund = set(_fundamental_masks(M, pnc_list))
    red = _reducible_masks(pnc_list)
    full = M.full_mask
    rows = []
    for x in sorted(M.flat_masks, key=lambda m: (m.bit_count(), sorted(members(m)))):
        nullity = x.bit_count() - ranks[x]
        if x == full:
            connected = is_connected(M)
        elif nullity:
            connected = x in pncs  # a dependent proper flat
        else:
            connected = x.bit_count() <= 1  # no circuit joins two elements
        rows.append(
            FlatEntry(
                flat=members(x),
                rank=ranks[x],
                nullity=nullity,
                is_connected=connected,
                is_cyclic=_is_cyclic_mask(M, x),
                is_pnc=x in pncs,
                is_reducible=x in red,
                is_fundamental=x in fund,
            )
        )
    return FlatsReport(entries=tuple(rows))
