"""Interval presentations and lattice-path-matroid recognition.

An interval presentation lists r position intervals [a_i, b_i] over a linear
order of the ground set, with both endpoint sequences strictly increasing
(an antichain of intervals).  The realized matroid is transversal: bases are
the position tuples x_1 < ... < x_r with x_i in [a_i, b_i], read back
through the order.  Positions not covered by any interval carry loops.

This is the one module that knows all three recognizers:

- ``find_path_order`` -- the exact oracle; searches the orders of each
  component, prefix by prefix, for one whose forced candidate presentation
  realizes it, and concatenates the components' orders.
- ``is_lpm_char`` -- structural test on fundamental flats and pnc-flats
  of each connected component (four clauses, reported by id).
- ``minors.is_lpm_via_excluded_minors`` -- catalog search, in
  :mod:`latmat.minors`.

The components come from one cached decomposition, ``Matroid._parts``,
which the excluded-minor search reads too, as it does each part's cached
clone steps (``Matroid._clone_steps``).

``theorem_check`` runs all three over a corpus and reports any disagreement,
and ``verify_excluded_minor`` checks a catalog member with the oracle.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import catalog, minors, ordersearch
from . import flats as _flats
from .kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    MatroidError,
    _bits,
    _header,
    _ints,
    _merge_overlapping,
    _raw_line,
    _token_lines,
    contract,
    delete,
    members,
    restrict,
    transversal_matroid,
)


class LoopContraction(MatroidError):
    pass


class LoopDeletion(MatroidError):
    pass


class NotConnected(MatroidError):
    pass


@dataclass(frozen=True)
class IntervalPresentation:
    """r intervals of positions over a path order of n elements.

    ``order[p]`` is the element at position p (identity when omitted);
    ``intervals[i] = (a_i, b_i)`` are 0-based positions with a_i <= b_i and
    both endpoint sequences strictly increasing.  Raises GroundTooLarge past
    ``MAX_GROUND`` elements, like every other matroid constructor.
    """

    n: int
    intervals: tuple[tuple[int, int], ...]
    order: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.n < 0:
            raise MatroidError(f"negative ground size n={self.n}")
        if self.n > MAX_GROUND:
            raise GroundTooLarge(f"n={self.n} exceeds the cap of {MAX_GROUND}")
        object.__setattr__(
            self, "order", tuple(int(e) for e in self.order or range(self.n))
        )
        object.__setattr__(
            self, "intervals", tuple((int(a), int(b)) for a, b in self.intervals)
        )
        if sorted(self.order) != list(range(self.n)):
            raise MatroidError("order is not a permutation of 0..n-1")
        prev_a, prev_b = -1, -1
        for a, b in self.intervals:
            if not (0 <= a <= b < self.n):
                raise MatroidError(f"interval ({a},{b}) out of range")
            if a <= prev_a or b <= prev_b:
                raise MatroidError("interval endpoints must strictly increase")
            prev_a, prev_b = a, b

    @property
    def rank(self) -> int:
        return len(self.intervals)

    def position_of(self, element: int) -> int:
        return self.order.index(element)

    def reversed(self) -> "IntervalPresentation":
        n = self.n
        ivs = tuple(
            (n - 1 - b, n - 1 - a) for a, b in reversed(self.intervals)
        )
        return IntervalPresentation(n, ivs, tuple(reversed(self.order)))


@dataclass(frozen=True)
class ClauseViolation:
    """Which structural clause failed, on which component, shown by flats."""

    clause: str  # "i" | "ii" | "iii" | "iv"
    component: frozenset[int]
    flats: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    method: str
    witness: object = None  # IntervalPresentation | ClauseViolation | MinorWitness | None


def realize(P: IntervalPresentation) -> Matroid:
    """The transversal matroid of the intervals, each the set of elements
    at its positions of the order (uncovered positions carry loops), built
    by :func:`kernel.transversal_matroid`."""
    bits = [1 << e for e in P.order]
    return transversal_matroid(P.n, [sum(bits[a : b + 1]) for a, b in P.intervals])


def presentation_connected(P: IntervalPresentation) -> bool:
    """Connectivity read off the endpoints: cover starts at the first
    position, ends at the last, and consecutive intervals overlap."""
    r = P.rank
    if r < 1:
        raise MatroidError("connectivity criterion needs at least one interval")
    a0 = P.intervals[0][0]
    br = P.intervals[-1][1]
    if a0 != 0 or br != P.n - 1:
        return False
    for i in range(r - 1):
        if P.intervals[i + 1][0] > P.intervals[i][1]:
            return False
    return True


def _covering_range(P: IntervalPresentation, pos: int) -> tuple[int, int]:
    """Indices (s, t) of the run of intervals containing the position, s > t if none."""
    s, t = None, None
    for i, (a, b) in enumerate(P.intervals):
        if a <= pos <= b:
            if s is None:
                s = i
            t = i
    if s is None:
        return 1, 0
    return s, t


def contract_presentation(P: IntervalPresentation, y: int) -> IntervalPresentation:
    """Presentation of the contraction by a non-loop element.

    If y lies in a single interval, that interval is dropped; if it lies in
    the run s..t, consecutive intervals are merged pairwise across the run.
    Remaining elements are relabelled exactly like the kernel contraction.
    """
    pos = P.position_of(y)
    s, t = _covering_range(P, pos)
    if s > t:
        raise LoopContraction(f"element {y} is a loop")
    ivs = []
    for i, (a, b) in enumerate(P.intervals):
        if i < s:
            ivs.append((a, b))  # entirely before the removed position
        elif s < t and i < t:
            ivs.append((a, P.intervals[i + 1][1] - 1))  # merged with successor
        elif i > t:
            ivs.append((a - 1, b - 1))
    new_order = tuple(e - (e > y) for e in P.order if e != y)
    return IntervalPresentation(P.n - 1, tuple(ivs), new_order)


def _delete_first(P: IntervalPresentation) -> IntervalPresentation:
    if P.rank == 0 or P.intervals[0][0] != 0:
        raise LoopDeletion("first element is a loop")
    y = P.order[0]
    if P.intervals[0] == (0, 0):
        ivs = tuple((a - 1, b - 1) for a, b in P.intervals[1:])
    else:
        ivs = tuple(
            (max(a, i + 1) - 1, b - 1) for i, (a, b) in enumerate(P.intervals)
        )
    new_order = tuple(e - (e > y) for e in P.order[1:])
    return IntervalPresentation(P.n - 1, ivs, new_order)


def delete_terminal_presentation(P: IntervalPresentation, end: str) -> IntervalPresentation:
    """Presentation of the deletion of the first or last (non-loop) element."""
    if end == "first":
        return _delete_first(P)
    if end == "last":
        return _delete_first(P.reversed()).reversed()
    raise ValueError(f"end must be 'first' or 'last', got {end!r}")


def fundamental_flats_from_presentation(
    P: IntervalPresentation,
) -> set[tuple[frozenset[int], int]]:
    """Fundamental flats of a connected presentation, read off the endpoints.

    Prefix flats end just before a lower endpoint that jumps by more than
    one; suffix flats start just after an upper endpoint with the matching
    gap.  Returned with their ranks.
    """
    if not presentation_connected(P):
        raise NotConnected("endpoint formulas require a connected presentation")
    r = P.rank
    a = [iv[0] for iv in P.intervals]
    b = [iv[1] for iv in P.intervals]
    out: set[tuple[frozenset[int], int]] = set()
    for j in range(1, r):
        if a[j] > a[j - 1] + 1:
            flat = frozenset(P.order[p] for p in range(a[j]))
            out.add((flat, j))
    for k in range(r - 1):
        if b[k] + 1 < b[k + 1]:
            flat = frozenset(P.order[p] for p in range(b[k] + 1, P.n))
            out.add((flat, r - (k + 1)))
    return out


# ---------------------------------------------------------------------------
# oracle recognizer


def find_path_order(
    M: Matroid,
    # kept only for perfbench/workloads.py, which still passes max_n=9
    max_n: int = MAX_GROUND,
) -> Optional[tuple[tuple[int, ...], IntervalPresentation]]:
    """Exact oracle: the lexicographically least path order, if any.

    Scans each component of at least two elements (``Matroid._parts``) with
    :func:`latmat.ordersearch.scan_path_orders`, a depth-first search over
    prefixes that reads both endpoint tests off the rank table; per order
    the only possible presentation has lower endpoints at the greedy minimum
    basis and upper endpoints at the greedy maximum basis, so one
    realization test per order decides.  Prefixes that share their prefix
    set and endpoints so far share every verdict below them, so a failed one
    is never searched twice; the answer is the one an exhaustive scan of
    every order gives.  The scan returns the intervals it accepted along
    with the order; it walks clone-sorted orders only, by the part's cached
    ``Matroid._clone_steps``.  Each coloop is a block of its own with the
    interval (0, 0).

    The components of an LPM are intervals of each of its path orders
    (Bonin and de Mier, Lattice path matroids: structural properties,
    European J. Combin. 2006), and the concatenation of path orders of the
    components is a path order of their direct sum.  So the path orders of
    the loopless part are exactly the concatenations of component orders,
    and the lexicographically least one puts each component's least order
    in one block, the blocks sorted by their first element.  The blocks'
    intervals, shifted to their positions, are the one presentation of that
    order: this is the order and presentation that a scan of the whole
    loopless part returns.  Loops are appended after the blocks, in
    ascending label order, so the returned presentation realizes M exactly.
    """
    if M.n > max_n:
        raise GroundTooLarge(f"oracle capped at {max_n} elements, got {M.n}")
    blocks = []
    for c, part in M._parts:
        found = ordersearch.scan_path_orders(
            part.n, part.num_bases, part.rank_table, part._clone_steps
        )
        if found is None:
            return None
        perm, intervals = found
        elements = [*_bits(c)]
        blocks.append((tuple(elements[e] for e in perm), intervals))
    coloops = M.full_mask & ~M.loops_mask & ~sum(c for c, _ in M._parts)
    blocks += [((e,), ((0, 0),)) for e in _bits(coloops)]
    blocks.sort()  # by first element: the blocks are disjoint
    order: list[int] = []
    shifted: list[tuple[int, int]] = []
    for block, intervals in blocks:
        p = len(order)
        order += block
        shifted += [(a + p, b + p) for a, b in intervals]
    full_order = tuple(order) + tuple(_bits(M.loops_mask))
    return full_order, IntervalPresentation(M.n, tuple(shifted), full_order)


# ---------------------------------------------------------------------------
# structural recognizer


def _comparability_rows(flats: tuple[int, ...]) -> list[int]:
    """rows[i]: bit j set iff flats i and j are comparable (i itself too)."""
    return [
        sum(1 << j for j, g in enumerate(flats) if f & g in (f, g))
        for f in flats
    ]


def _chain_partition(fund: tuple[int, ...]):
    """The chains of the fundamental flats (ascending, as
    :func:`latmat.flats._fundamental_masks` returns them) or a clause (i)
    certificate, both read off one table of comparability rows.

    Valid structure: no three flats mutually incomparable and each
    component of the comparability graph a chain, so at most two chains
    with every cross pair incomparable.  Returns ``((chain1, chain2),
    None)``, sorted by least flat, a missing chain empty; else ``(None,
    certificate)``: the first mutually incomparable triple by index or,
    failing that, a shortest comparability path from the first flat with an
    incomparable partner in its component to the first such partner, which
    one chain would have to hold."""
    rows = _comparability_rows(fund)
    everyone = (1 << len(fund)) - 1
    for i, row in enumerate(rows):
        far = everyone & ~row & -(2 << i)  # later flats incomparable with i
        for j in _bits(far):
            third = far & ~rows[j] & -(2 << j)
            if third:
                return None, (fund[i], fund[j], fund[next(_bits(third))])
    comps = _merge_overlapping(rows)  # sorted by least index, so least flat
    for comp in comps:
        for i in _bits(comp):
            far = comp & ~rows[i]
            if far:
                path = _comparability_path(rows, i, next(_bits(far)))
                return None, tuple(fund[p] for p in path)
    chains = [tuple(fund[i] for i in _bits(c)) for c in comps]
    return (*chains, (), ())[:2], None


def _comparability_path(rows, src, dst):
    """Shortest path from src to dst along comparable pairs (breadth first,
    neighbours in index order)."""
    prev = {src: None}
    queue = deque([src])
    while dst not in prev:
        cur = queue.popleft()
        for other in _bits(rows[cur]):
            if other not in prev:
                prev[other] = cur
                queue.append(other)
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def _check_component(Mi: Matroid):
    """None if the component passes the four structural clauses, else
    (clause id, offending flats as masks).

    Clause (i) and the two chains come from :func:`_chain_partition`.  One
    walk over the cross pairs then returns clause (ii) at its first failing
    pair, and collects the crossings clause (iii) compares and the first
    pair failing clause (iv); after the walk (iii) is reported before (iv).
    """
    pncs = _flats._pnc_masks(Mi)
    fund = _flats._fundamental_masks(Mi, pncs)
    chains, certificate = _chain_partition(fund)
    if certificate:
        return "i", certificate
    full = Mi.full_mask
    ranks = Mi.rank_table
    r = Mi.rank
    nullity = lambda x: x.bit_count() - ranks[x]
    eta_m = nullity(full)
    pnc_set = set(pncs)
    crossings = set()  # meets of the cross pairs of high total nullity
    off_modular = None
    chain1, chain2 = chains
    for f in chain1:
        for g in chain2:
            meet = f & g
            # clause ii: overlapping cross pairs must cover the ground set
            if meet and f | g != full:
                return "ii", (f, g)
            if eta_m < nullity(f) + nullity(g):
                crossings.add(meet)
            if meet in pnc_set and ranks[meet] != ranks[f] + ranks[g] - r:
                off_modular = off_modular or (f, g)
    # clause iii: leftover pnc-flats are exactly the high-nullity crossings
    remaining = pnc_set.difference(fund)
    if remaining != crossings:
        return "iii", tuple(sorted(remaining ^ crossings))
    # clause iv: pnc crossings sit at the modular rank
    if off_modular:
        return "iv", off_modular
    return None


def is_lpm_char(M: Matroid) -> RecognitionResult:
    """Structural recognizer: each component of at least two elements, read
    from the cached ``Matroid._parts`` (M itself when connected), is tested
    against the four-clause flat characterization.  Loops are skipped, and
    a coloop passes every clause vacuously, since U1,1 has no dependent
    proper flat."""
    for c, Mi in M._parts:
        hit = _check_component(Mi)
        if hit is not None:
            clause, flat_masks = hit
            elements = [*_bits(c)]
            orig = tuple(
                frozenset(elements[e] for e in _bits(fm)) for fm in flat_masks
            )
            return RecognitionResult(
                False, "flats", ClauseViolation(clause, members(c), orig)
            )
    return RecognitionResult(True, "flats")


# ---------------------------------------------------------------------------
# nested matroids


def is_nested(M: Matroid) -> bool:
    """Do the pnc-flats of the loopless part form a chain?  They do iff
    every row of their comparability table is full."""
    kept = M.full_mask & ~M.loops_mask
    pncs = _flats._pnc_masks(M if kept == M.full_mask else restrict(M, kept))
    everyone = (1 << len(pncs)) - 1
    return all(row == everyone for row in _comparability_rows(pncs))


def is_nested_via_pn(M: Matroid) -> bool:
    """Nestedness by excluded minors: no truncated double-circuit minor."""
    for k in range(2, M.rank + 1):
        if 2 * k > M.n:
            break
        if minors.has_minor(M, catalog.p_n(k)) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# unified front end and rendering


def recognize(M: Matroid, method: str) -> RecognitionResult:
    """Run one of the three recognizers: 'oracle', 'flats', or 'minors'."""
    if method == "oracle":
        found = find_path_order(M)
        if found is None:
            return RecognitionResult(False, "oracle")
        return RecognitionResult(True, "oracle", found[1])
    if method == "flats":
        return is_lpm_char(M)
    if method == "minors":
        witness = minors.find_catalog_minor(M)
        if witness is None:
            return RecognitionResult(True, "minors")
        return RecognitionResult(False, "minors", witness)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the three-way check and the catalog verifier


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

    Every recognizer runs up to the ground-set cap ``MAX_GROUND``.
    """
    total = 0
    lpm_count = 0
    disagreements = []
    for M in corpus:
        total += 1
        v_oracle = find_path_order(M) is not None
        v_char = is_lpm_char(M).verdict
        v_minor = minors.is_lpm_via_excluded_minors(M)
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


@dataclass(frozen=True)
class ExclusionReport:
    """verify_excluded_minor evidence: the matroid itself must be outside
    the class while every single-element deletion and contraction is inside."""

    name: str
    outside_class: bool
    per_element: tuple[tuple[int, bool, bool], ...]  # (e, delete ok, contract ok)

    @property
    def minors_in_class(self) -> bool:
        return all(d and c for _, d, c in self.per_element)

    @property
    def passed(self) -> bool:
        return self.outside_class and self.minors_in_class


def verify_excluded_minor(M: Matroid, name: str = "?") -> ExclusionReport:
    """Oracle check of minor-minimality at desk scale."""
    outside = find_path_order(M) is None
    rows = []
    for e in range(M.n):
        del_ok = find_path_order(delete(M, (e,))) is not None
        con_ok = find_path_order(contract(M, (e,))) is not None
        rows.append((e, del_ok, con_ok))
    return ExclusionReport(name, outside, tuple(rows))


def diagram(P: IntervalPresentation) -> str:
    """ASCII picture of the lattice-path region.

    Two step strings (N at the lower endpoints / at the upper endpoints),
    then one row of cells per interval, top row = last interval; row i
    occupies columns a_i - i .. b_i - i (0-based).  Glyphs are cosmetic.
    """
    n, r = P.n, P.rank
    aset = {iv[0] for iv in P.intervals}
    bset = {iv[1] for iv in P.intervals}
    lower = "".join("N" if p in aset else "E" for p in range(n))
    upper = "".join("N" if p in bset else "E" for p in range(n))
    lines = [f"region {n} x {r}", f"lower: {lower}", f"upper: {upper}"]
    for i in range(r - 1, -1, -1):
        a, b = P.intervals[i]
        lines.append(" " * (a - i) + "#" * (b - a + 1))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text format


def presentation_to_text(P: IntervalPresentation) -> str:
    lines = [f"LPM {P.n} {P.rank}"]
    for a, b in P.intervals:
        lines.append(f"{a} {b}")
    if P.order != tuple(range(P.n)):
        lines.append("ORDER " + " ".join(str(e) for e in P.order))
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str) -> IntervalPresentation:
    lines = _token_lines(text)
    n, r = _header(lines, text, "LPM")
    ivs: list[tuple[int, int]] = []
    order: Optional[tuple[int, ...]] = None
    for k, parts in enumerate(lines[1:], 1):
        if parts[0] == "ORDER":
            if order is not None:
                raise MatroidError(f"repeated ORDER line: {_raw_line(text, k)!r}")
            if len(parts) == 1:
                raise MatroidError(
                    f"ORDER line lists no elements: {_raw_line(text, k)!r}"
                )
            order = tuple(_ints(parts[1:], "ORDER", text, k))
            continue
        iv = _ints(parts, "interval", text, k)
        if len(iv) != 2:
            raise MatroidError(f"bad interval line: {_raw_line(text, k)!r}")
        ivs.append(tuple(iv))
    if len(ivs) != r:
        raise MatroidError(f"expected {r} interval lines, found {len(ivs)}")
    return IntervalPresentation(n, tuple(ivs), order or ())
