"""Minor containment up to isomorphism and the excluded-minor recognizer.

``has_minor`` walks, once for any number of patterns of one size, the
splits of the right co-size with an independent contract set and a
coindependent delete set (read off the host's bases grouped by trace),
prunes by basis count and degree multiset, builds only the splits that
pass, and certifies hits with an explicit bijection.  It walks only the
clone-minimal splits: clones are elements whose swap fixes the host's
bases (:func:`_canonical._clone_classes`), and a split whose removed or
contract set holds some element without its next-lower clone is skipped.
Swapping clones maps a split to one with an isomorphic minor, and trading
a clone for a lower one gives a set earlier in the walk, so the first
split exposing each pattern is clone-minimal and every witness is the one
the full walk finds.  ``find_catalog_minor``
makes one pass per catalog size, smallest first, on each connected
component of at least 6 elements, read from the matroid's cached
decomposition (``Matroid._parts``), which the oracle and the structural
recognizer read too.  Keys and clone steps are cached on the
matroids (``Matroid.degree_key``, ``Matroid._clone_steps``): the catalog
members are shared objects, built once per size, so each pattern is keyed
once per process, and a component's clone steps serve every catalog size
and the oracle's order walk (``lpm.find_path_order``) on the same part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalog
from ._canonical import _clone_minimal
from .kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    _bases_by_trace,
    _bits,
    _degree_multiset,
    _greedy_independent,
    _minor_masks,
    _subset_masks,
    is_isomorphic,
    members,
    minor,
)


@dataclass(frozen=True)
class MinorWitness:
    """Replayable evidence: minor(host, delete, contract) ~ pattern via iso."""

    pattern_name: str
    delete: frozenset[int]
    contract: frozenset[int]
    iso: dict[int, int]

    def replay(self, host: Matroid, pattern: Matroid) -> bool:
        """True only if delete and contract are disjoint subsets of the
        host's ground set and iso is a bijection from the minor's ground
        set onto the pattern's that carries bases onto bases."""
        if self.delete & self.contract or not (
            self.delete | self.contract
        ) <= frozenset(range(host.n)):
            return False
        got = minor(host, self.delete, self.contract)
        if (
            got.n != pattern.n
            or set(self.iso) != set(range(got.n))
            or set(self.iso.values()) != set(range(pattern.n))
        ):
            return False
        mapped = frozenset(
            sum(1 << self.iso[e] for e in b) if b else 0 for b in got.bases
        )
        return mapped == pattern.mask_set


def has_minor(
    host: Matroid, pattern: Matroid, *more: Matroid
) -> Optional[MinorWitness]:
    """First delete/contract split exposing a pattern, or None.

    All patterns must have one ground-set size.  For each removed set of
    n_host - n_pattern elements, in the id-tuple order of
    :func:`kernel._subset_masks`, the splits with C independent and the
    rest coindependent expose every minor (Oxley, Matroid Theory, Lemma
    3.3.2); these C are the traces of the host's bases on the removed set
    (:func:`kernel._bases_by_trace`), and the bases of trace C, less the
    removed set, are the minor's.  The C are walked by size, then in
    combination order; a pattern of rank r is sought among those of size
    r(host) - r.  A split whose basis count and degree multiset match an
    open pattern's key (``Matroid.degree_key``, cached on each pattern, so
    a shared catalog member is keyed once) is built and tested with
    ``is_isomorphic``, whose bijection a hit carries.  The witness is
    the first split exposing the earliest pattern that has any, so a hit
    retires every later pattern and the pass ends when the first one hits.
    Its ``pattern_name`` is "?" for one pattern, else the exposed pattern's
    position ("0", "1", ...).

    The host's clone steps are cached on it (``Matroid._clone_steps``), and
    the walk skips every removed set, and within a kept one every trace,
    that is not clone-minimal (see the module docstring).  The first split
    exposing a pattern is clone-minimal, so the witness is the full walk's.
    """
    patterns = (pattern,) + more
    if host.n > MAX_GROUND or pattern.n > host.n:
        raise GroundTooLarge(f"need |E(pattern)| <= |E(host)| <= {MAX_GROUND}")
    if any(p.n != pattern.n for p in more):
        raise ValueError("has_minor patterns must share one ground-set size")
    wants = [p.degree_key for p in patterns]
    # contract size -> positions of the patterns of that co-rank still open
    open_by_size: dict[int, list[int]] = {}
    for i, p in enumerate(patterns):
        open_by_size.setdefault(host.rank - p.rank, []).append(i)
    steps = host._clone_steps
    found = None
    for rm in _subset_masks(host.n, host.n - pattern.n):
        if not _clone_minimal(rm, steps):
            continue
        by_trace = _bases_by_trace(host, rm)
        wanted = [
            c for c in by_trace
            if c.bit_count() in open_by_size and _clone_minimal(c, steps)
        ]
        for cm in sorted(wanted, key=lambda c: (c.bit_count(), [*_bits(c)])):
            open_ids = open_by_size.get(cm.bit_count(), ())
            survivors = by_trace[cm]
            count = len(survivors)
            if all(wants[i][0] != count for i in open_ids):
                continue
            key = (count, _degree_multiset(_bits(host.full_mask ^ rm), survivors))
            matching = [i for i in open_ids if wants[i] == key]
            if not matching:
                continue
            new_n, masks = _minor_masks(host, rm ^ cm, cm)
            got = Matroid._from_masks(new_n, masks)
            for i in matching:
                # the empty matroid's bijection is {}, so test for None
                iso = is_isomorphic(got, patterns[i])
                if iso is not None:
                    break
            else:
                continue
            found = MinorWitness(
                str(i) if more else "?", members(rm ^ cm), members(cm), iso
            )
            open_by_size = {
                size: kept for size, ids in open_by_size.items()
                if (kept := [j for j in ids if j < i])
            }
        if not open_by_size:
            break
    return found


def find_catalog_minor(M: Matroid) -> Optional[MinorWitness]:
    """Search the excluded-minor catalog, smallest patterns first.

    Every catalog member is connected, and a connected minor of a direct
    sum is a minor of one summand (Oxley, Matroid Theory, 4.2), so for each
    pattern size one :func:`has_minor` pass, with that size's patterns in
    catalog order, searches each component of at least 6 elements by least
    element, read from ``M._parts`` (M itself when connected).  The witness
    is the first hit, lifted to M: the component's sets mapped onto its
    elements, a greedy basis of the other components contracted and the
    rest of them deleted, which keeps the compaction order and so the iso.
    """
    if M.n > MAX_GROUND:
        raise GroundTooLarge(
            f"minor search capped at {MAX_GROUND} elements, got {M.n}"
        )
    parts = [(c, part) for c, part in M._parts if part.n >= 6]
    if not parts:
        return None
    for size in range(6, max(part.n for _, part in parts) + 1):
        group = catalog._catalog_of_size(size)
        for cmask, part in parts:
            if part.n < size:
                continue
            witness = has_minor(part, *(entry.matroid for entry in group))
            if witness is None:
                continue
            entry = group[int(witness.pattern_name) if len(group) > 1 else 0]
            elements = [*_bits(cmask)]
            basis = _greedy_independent(M, M.full_mask ^ cmask)
            return MinorWitness(
                entry.name,
                frozenset(elements[e] for e in witness.delete)
                | members(M.full_mask ^ cmask ^ basis),
                frozenset(elements[e] for e in witness.contract) | members(basis),
                witness.iso,
            )
    return None


def is_lpm_via_excluded_minors(M: Matroid) -> bool:
    return find_catalog_minor(M) is None
