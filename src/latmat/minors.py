"""Minor containment up to isomorphism and the recognizer-equivalence check.

``has_minor`` walks every delete/contract split of the right co-size, prunes
with cheap invariants (rank, basis count, degree multiset), and certifies
hits with an explicit bijection.  ``theorem_check`` runs the three
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
    _minor_masks,
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
        got = minor(host, self.delete, self.contract)
        if got.n != pattern.n:
            return False
        mapped = frozenset(
            sum(1 << self.iso[e] for e in b) if b else 0 for b in got.bases
        )
        return mapped == pattern.mask_set


def _degree_multiset(n: int, masks) -> tuple[int, ...]:
    return tuple(sorted(sum((b >> e) & 1 for b in masks) for e in range(n)))


def has_minor(host: Matroid, pattern: Matroid) -> Optional[MinorWitness]:
    """First delete/contract split exposing the pattern, or None.

    Exhaustive over all splits with |delete| + |contract| = n_host -
    n_pattern.  A split is skipped before its bases are built unless
    host / contract \\ delete, of rank r(E - delete) - r(contract), has the
    pattern's rank; the candidate minor must then match the pattern's basis
    count before an isomorphism is attempted.
    """
    if host.n > MAX_GROUND or pattern.n > host.n:
        raise GroundTooLarge(f"need |E(pattern)| <= |E(host)| <= {MAX_GROUND}")
    k = host.n - pattern.n
    ranks = host.rank_table
    full = host.full_mask
    want_rank = pattern.rank
    want_count = pattern.num_bases
    want_deg = _degree_multiset(pattern.n, pattern.basis_masks)
    pat_canon = canonical_form(pattern)
    for removed in itertools.combinations(range(host.n), k):
        rm = mask_of(removed)
        for csize in range(k + 1):
            for cset in itertools.combinations(removed, csize):
                cm = mask_of(cset)
                dm = rm ^ cm
                if ranks[full ^ dm] - ranks[cm] != want_rank:
                    continue
                new_n, masks = _minor_masks(host, dm, cm)
                if len(masks) != want_count:
                    continue
                if _degree_multiset(new_n, masks) != want_deg:
                    continue
                got = Matroid._from_masks(new_n, masks)
                if canonical_form(got) != pat_canon:
                    continue
                iso = is_isomorphic(got, pattern)
                return MinorWitness(
                    "?", frozenset(members(dm)), frozenset(members(cm)), iso
                )
    return None


def find_catalog_minor(M: Matroid) -> Optional[MinorWitness]:
    """Search the excluded-minor catalog, smallest patterns first."""
    if M.n > MAX_GROUND:
        raise GroundTooLarge(
            f"minor search capped at {MAX_GROUND} elements, got {M.n}"
        )
    if M.n < 6:
        return None
    for entry in catalog.catalog_up_to(M.n):
        witness = has_minor(M, entry.matroid)
        if witness is not None:
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
    """Oracle vs structural vs catalog verdicts over a corpus."""
    total = 0
    lpm_count = 0
    disagreements = []
    for M in corpus:
        if M.n > 8:
            raise GroundTooLarge(
                f"theorem_check corpus is capped at 8 elements, got {M.n}"
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
