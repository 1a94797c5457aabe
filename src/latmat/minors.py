"""Minor containment up to isomorphism and the recognizer-equivalence check.

``has_minor`` walks every delete/contract split of the right co-size once
for any number of patterns of one size, prunes with cheap invariants in
order (the minor's rank off the host's rank table, then its basis count and
degree multiset off the host's surviving bases), builds only the splits that
pass, and certifies hits with an explicit bijection.  The witness is the one
a pattern-by-pattern search returns.  ``find_catalog_minor`` makes one such
pass per catalog size, smallest first.  ``theorem_check`` runs the three
recognizers (order-scan oracle, flat-structure test, catalog search) over a
corpus and reports any disagreement; on the theory this package implements,
the report must come back empty.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from . import catalog, lpm
from .kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    _bases_by_trace,
    _minor_masks,
    _surviving_bases,
    canonical_form,
    is_isomorphic,
    mask_of,
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


def _degree_multiset(elements: Iterable[int], masks) -> tuple[int, ...]:
    """How many of the masks hold each element, sorted."""
    return tuple(sorted(sum((b >> e) & 1 for b in masks) for e in elements))


def _splits(n: int, k: int):
    """Every (removed, contract) mask pair with k elements removed, in
    search order: removed set, then contract size, then contract set.  The
    delete set is removed ^ contract."""
    for removed in itertools.combinations(range(n), k):
        rm = mask_of(removed)
        for csize in range(k + 1):
            for cset in itertools.combinations(removed, csize):
                yield rm, mask_of(cset)


def has_minor(
    host: Matroid, pattern: Matroid, *more: Matroid
) -> Optional[MinorWitness]:
    """First delete/contract split exposing a pattern, or None.

    All patterns must have one ground-set size.  One pass walks every split
    with |delete| + |contract| = n_host - n_pattern, and the witness is the
    one a pattern-by-pattern search would return: the first split exposing
    the earliest pattern that has any.  A hit on a pattern therefore retires
    every later one, and the pass ends when the first pattern hits.  Its
    ``pattern_name`` is "?" for one pattern, else the exposed pattern's
    position among the arguments ("0", "1", ...).

    Each split meets its filters in order, each against the patterns still
    open: the rank of host / contract \\ delete, which is r(E - delete) -
    r(contract); then the minor's basis count and degree multiset, read
    with no minor built off the host's bases that survive into it
    (:func:`kernel._surviving_bases`: the bases B with B & contract = I, a
    greedy basis of the contract set, and |B & delete| = r(E) -
    r(E - delete), for every split, whether or not the deletion lowers the
    rank; the bases are grouped by their trace once per removed set).
    Only a split that passes them all is built, relabelled to its canonical
    form and compared with each matching pattern; a hit carries an explicit
    bijection.
    """
    patterns = (pattern,) + more
    if host.n > MAX_GROUND or pattern.n > host.n:
        raise GroundTooLarge(f"need |E(pattern)| <= |E(host)| <= {MAX_GROUND}")
    if any(p.n != pattern.n for p in more):
        raise ValueError("has_minor patterns must share one ground-set size")
    ranks = host.rank_table
    full = host.full_mask
    wants = [
        (p.num_bases, _degree_multiset(range(p.n), p.basis_masks))
        for p in patterns
    ]
    # rank -> positions of the patterns of that rank still open
    open_by_rank: dict[int, list[int]] = {}
    for i, p in enumerate(patterns):
        open_by_rank.setdefault(p.rank, []).append(i)
    found = None
    grouped_rm = by_trace = None
    for rm, cm in _splits(host.n, host.n - pattern.n):
        dm = rm ^ cm
        open_ids = open_by_rank.get(ranks[full ^ dm] - ranks[cm])
        if open_ids is None:
            continue
        if rm != grouped_rm:
            grouped_rm, by_trace = rm, _bases_by_trace(host, rm)
        survivors = _surviving_bases(host, by_trace, dm, cm)
        count = len(survivors)
        if all(wants[i][0] != count for i in open_ids):
            continue
        key = (count, _degree_multiset(members(full ^ rm), survivors))
        matching = [i for i in open_ids if wants[i] == key]
        if not matching:
            continue
        new_n, masks = _minor_masks(host, dm, cm)
        got = Matroid._from_masks(new_n, masks)
        got_canon = canonical_form(got)
        for i in matching:
            if canonical_form(patterns[i]) == got_canon:
                break
        else:
            continue
        found = i, dm, cm, is_isomorphic(got, patterns[i])
        open_by_rank = {
            r: kept for r, ids in open_by_rank.items()
            if (kept := [j for j in ids if j < i])
        }
        if not open_by_rank:
            break
    if found is None:
        return None
    i, dm, cm, iso = found
    return MinorWitness(
        str(i) if more else "?",
        frozenset(members(dm)), frozenset(members(cm)), iso,
    )


def find_catalog_minor(M: Matroid) -> Optional[MinorWitness]:
    """Search the excluded-minor catalog, smallest patterns first.

    One :func:`has_minor` pass per pattern size, with that size's patterns
    in catalog order, so the witness is the first split exposing the first
    catalog member that is a minor at all.
    """
    if M.n > MAX_GROUND:
        raise GroundTooLarge(
            f"minor search capped at {MAX_GROUND} elements, got {M.n}"
        )
    if M.n < 6:
        return None
    for _, group in itertools.groupby(
        catalog.catalog_up_to(M.n), key=lambda entry: entry.matroid.n
    ):
        group = list(group)
        witness = has_minor(M, *(entry.matroid for entry in group))
        if witness is not None:
            entry = group[int(witness.pattern_name) if len(group) > 1 else 0]
            return MinorWitness(
                entry.name, witness.delete, witness.contract, witness.iso
            )
    return None


def is_lpm_via_excluded_minors(M: Matroid) -> bool:
    return find_catalog_minor(M) is None


@dataclass(frozen=True)
class TheoremReport:
    corpus_label: str
    total: int
    lpm_count: int
    non_lpm_count: int
    disagreements: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> str:
        payload = {
            "corpus": self.corpus_label,
            "total": self.total,
            "lpm": self.lpm_count,
            "non_lpm": self.non_lpm_count,
            "disagreements": list(self.disagreements),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def theorem_check(
    corpus: Iterable[Matroid],
    corpus_label: str = "",
) -> TheoremReport:
    """Oracle vs structural vs catalog verdicts over a corpus.

    The corpus is capped at the oracle's exhaustive default of
    ``lpm.ORACLE_MAX_N`` elements.
    """
    total = 0
    lpm_count = 0
    disagreements = []
    for M in corpus:
        if M.n > lpm.ORACLE_MAX_N:
            raise GroundTooLarge(
                "theorem_check corpus is capped at "
                f"{lpm.ORACLE_MAX_N} elements, got {M.n}"
            )
        total += 1
        v_oracle = lpm.find_path_order(M) is not None
        v_char = lpm.is_lpm_char(M).verdict
        v_minor = is_lpm_via_excluded_minors(M)
        if v_oracle:
            lpm_count += 1
        if not (v_oracle == v_char == v_minor):
            disagreements.append(
                {
                    "n": M.n,
                    "rank": M.rank,
                    "bases": sorted(sorted(b) for b in M.bases),
                    "oracle": v_oracle,
                    "characterization": v_char,
                    "excluded_minor": v_minor,
                }
            )
    return TheoremReport(
        corpus_label=corpus_label,
        total=total,
        lpm_count=lpm_count,
        non_lpm_count=total - lpm_count,
        disagreements=tuple(disagreements),
    )
