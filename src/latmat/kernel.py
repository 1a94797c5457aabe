"""Finite matroids as explicit basis families on ground sets {0, ..., n-1}.

Bases are stored once, as the sorted tuple ``Matroid.basis_masks`` of
integer bitmasks (bit i = element i), and a matroid caches them as one
family int (bit X set iff X is a basis), ``Matroid._family``, for the
labeling search, clone steps and relabelling of :mod:`._canonical`; every
rank, independence, circuit and closure query reads one derived table,
``Matroid.rank_table``, of which ``Matroid.indep_masks`` is a view.  Every
operation is a pure function and every value is immutable after
construction, so matroids are safe to share across threads with no locking.

The table, basis validation, circuits and flats come from whole-lattice
sweeps rather than per-subset loops.  A lane set is one Python int of 2^n
bytes, byte X (lane X) holding a small value for the subset with bitmask X;
a shift by 8 * 2^e bits moves lane X to lane X + e, so one shift and one
mask treat all 2^n subsets (see ``_lanes``).  A lane holds at most 12, and
three invariants keep lanes apart when whole ints are added or subtracted:
- no carry: ``_at_least`` adds at most 128 to a lane, and the rank table's
  max step biases each lane by 0x80, so a lane stays below 256;
- no borrow in the max step: its lanes 128 + a - b, for a and b at most
  12, lie in 116..140, and bit 7 is set exactly where a >= b;
- no borrow in the rank steps r(X + e) - r(X), which are never negative,
  nor in validation's count check c(X) - c(X + e), taken only on lanes
  where e is spanned by X, where it is at least 1 (see ``from_bases``).

The rule for lane widths: a family of sets lives on bit lanes, one bit per
subset (the family ints of :mod:`._canonical`; :func:`transversal_matroid`
sweeps one), and per-subset values such as ranks and counts on byte lanes.
Every r-subset family (uniform and sparse paving bases, truncations, the
basis lines of the text format, the minor search's removed sets) is read
from one cached list of masks per (n, r), :func:`_subset_masks`.

Ground sets are capped at 12 elements: all algorithms here are exponential
and the cap keeps worst cases interactive.  Element subsets may be passed to
any operation either as an iterable of element ids or as a bitmask int;
results use ``frozenset`` values.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from functools import cache, cached_property
from typing import Iterable, NoReturn, Optional, Union

from . import _canonical

MAX_GROUND = 12

ElementSetLike = Union[int, Iterable[int]]


class MatroidError(Exception):
    """Base class for all errors raised by this package."""


class EmptyFamily(MatroidError):
    pass


class MixedCardinality(MatroidError):
    pass


class OutOfRange(MatroidError):
    pass


class GroundTooLarge(MatroidError):
    pass


class NotCircuitHyperplane(MatroidError):
    pass


class LoopBasepoint(MatroidError):
    pass


class OverlappingSets(MatroidError):
    pass


class AxiomViolation(MatroidError):
    """Basis exchange failed; carries a witnessing (basis1, basis2, x) triple."""

    def __init__(self, b1: frozenset, b2: frozenset, x: int):
        self.basis1 = b1
        self.basis2 = b2
        self.x = x
        super().__init__(
            f"exchange fails for x={x} between {sorted(b1)} and {sorted(b2)}"
        )


def _index(value, what: str) -> int:
    """`value` as an int through ``operator.index``, else a MatroidError
    naming it as `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise MatroidError(f"{what} {value!r} is not an int") from None


def mask_of(elements: ElementSetLike, n: Optional[int] = None) -> int:
    """Pack an element set into a bitmask, range-checking against n if given.

    An int is a bitmask as it stands; any other set is iterated, and each
    element goes through ``operator.index`` (so bools are 0 and 1).  A set
    that is not iterable, or an element that is not an int, raises
    MatroidError naming it."""
    if isinstance(elements, int):
        m = elements
        if m < 0 or (n is not None and m >> n):
            raise OutOfRange(f"bitmask {m:#x} not within 0..{n}")
        return m
    try:
        items = iter(elements)
    except TypeError:
        raise MatroidError(f"element set {elements!r} is not iterable") from None
    m = 0
    for e in items:
        e = _index(e, "element")
        if e < 0 or (n is not None and e >= n):
            raise OutOfRange(f"element {e} not in 0..{(n or 0) - 1}")
        m |= 1 << e
    return m


def members(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of element ids."""
    return frozenset(_bits(mask))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _degree_multiset(elements: Iterable[int], masks) -> tuple[int, ...]:
    """How many of the masks hold each element, sorted; `masks` is read
    once per element.  The masks holding e sum to their count times 2^e."""
    return tuple(sorted(sum(map((1 << e).__and__, masks)) >> e for e in elements))


@cache
def _subset_masks(n: int, r: int) -> tuple[int, ...]:
    """The masks of the r-subsets of {0, ..., n-1}, in id-tuple order: the
    one list every r-subset family is read from (see the module docstring)."""
    return tuple(map(mask_of, itertools.combinations(range(n), r)))


@cache
def _lanes(n: int) -> tuple[int, tuple[int, ...], int]:
    """The lane constants of an n-element ground set (lanes as in the
    module docstring), as ``(ones, single, sizes)``: ``ones`` holds 1 in
    every lane, ``single[e]`` holds 1 in the lanes of the sets holding e,
    and ``sizes``, their sum, holds |X| in lane X."""
    size = 1 << n
    ones = int.from_bytes(b"\x01" * size, "little")
    single = tuple(
        int.from_bytes(
            (bytes(1 << e) + b"\x01" * (1 << e)) * (size >> (e + 1)), "little"
        )
        for e in range(n)
    )
    return ones, single, sum(single)


def _at_least(lanes: int, k: int, ones: int) -> int:
    """1 in the lanes holding at least k, for lane values of at most 12 and
    k in 0..128: adding 128 - k sets bit 7 of a lane exactly then, and the
    sum stays below 256, so it never carries into the next lane."""
    return ((lanes + (128 - k) * ones) >> 7) & ones


def _lane_members(lanes: int, n: int) -> tuple[int, ...]:
    """The subsets X, ascending, whose lane holds 1 in a 0/1 lane set."""
    data = lanes.to_bytes(1 << n, "little")
    return tuple(itertools.compress(range(1 << n), data))


def _rank_steps(M: "Matroid") -> list[int]:
    """For each e, the lanes r(X + e) - r(X) for X not holding e, and 0 in
    the lanes of sets holding e.  Rank is monotone, so each lane of the
    subtraction is at least 0 and nothing borrows across lanes."""
    ones, single, _ = _lanes(M.n)
    table = int.from_bytes(M.rank_table, "little")
    out = []
    for e, s in enumerate(single):
        below = (ones ^ s) * 0xFF  # whole bytes of the lanes without e
        out.append(((table >> (8 << e)) & below) - (table & below))
    return out


def _spanned_lanes(M: "Matroid") -> list[int]:
    """For each e, 1 in the lanes X with e outside X and r(X + e) = r(X)."""
    ones, single, _ = _lanes(M.n)
    return [ones ^ s ^ step for s, step in zip(single, _rank_steps(M))]


def _flat_lanes(M: "Matroid") -> int:
    """1 in the lanes of the flats: the lanes X where no element outside X
    keeps the rank, c(X) = 0 in :attr:`Matroid._span_counts`."""
    ones = _lanes(M.n)[0]
    return ones ^ _at_least(M._span_counts, 1, ones)


def _dependent_lanes(M: "Matroid") -> int:
    """1 in the lanes of the dependent sets, where r(X) < |X|."""
    ones, _, sizes = _lanes(M.n)
    table = int.from_bytes(M.rank_table, "little")
    return _at_least(sizes - table, 1, ones)


def _circuit_lanes(M: "Matroid") -> int:
    """1 in the lanes of the circuits: the dependent sets X whose every
    X - e is independent, that is, no dependent lane below them."""
    single = _lanes(M.n)[1]
    dependent = _dependent_lanes(M)
    above = 0
    for e, s in enumerate(single):
        above |= (dependent << (8 << e)) & s
    return dependent ^ above


class Matroid:
    """A matroid given by its basis family.

    Construct through :func:`from_bases` (validates the family through its
    rank table) or the internal :meth:`_from_masks` (trusted constructors).
    The constructor sorts the basis masks, so callers may pass them in any
    order, but without duplicates.  The sorted tuple :attr:`basis_masks` is
    the one stored copy of the bases; :attr:`_family` caches them as a
    family int on first use.
    Rank, independence, circuit and closure queries read :attr:`rank_table`,
    of which :attr:`indep_masks` is a view.  Equality and hashing compare
    the labelled basis family, not isomorphism type.
    """

    def __init__(self, n: int, masks: Iterable[int], _trusted: bool = False):
        if not _trusted:
            raise MatroidError("use from_bases() to construct matroids")
        mask_tuple = tuple(sorted(masks))
        self.n = n
        self.basis_masks = mask_tuple
        self.rank = mask_tuple[0].bit_count() if mask_tuple else 0
        self.full_mask = (1 << n) - 1

    @classmethod
    def _from_masks(cls, n: int, masks: Iterable[int]) -> "Matroid":
        return cls(n, masks, _trusted=True)

    @cached_property
    def bases(self) -> frozenset[frozenset[int]]:
        return frozenset(members(b) for b in self.basis_masks)

    @property
    def num_bases(self) -> int:
        return len(self.basis_masks)

    @property
    def indep_masks(self) -> frozenset[int]:
        """All independent sets, a view of the rank table: r(X) = |X|."""
        return frozenset(
            x for x, rx in enumerate(self.rank_table) if rx == x.bit_count()
        )

    def is_independent(self, mask: int) -> bool:
        return self.rank_table[mask] == mask.bit_count()

    @cached_property
    def rank_table(self) -> bytes:
        """Rank of every subset, one byte per bitmask.

        Built by whole-lattice sweeps over lanes (see :func:`_lanes`): n
        sweeps close the bases downward into the independent sets, whose
        lanes start the table at |I|; then one max step per element e sets
        each lane X holding e to the larger of its own and lane X - e's.
        After the steps for every element, lane X holds the largest |I|
        over the independent I inside X.  The max step compares by bit 7
        (see the module docstring).  For any family of equal-size sets,
        matroid or not, this is max |B & X| over the family, since the
        downward closure is then the family's subsets.  :func:`from_bases`
        relies on this to validate an unchecked family through its table.
        """
        n = self.n
        ones, single, sizes = _lanes(n)
        high = ones << 7  # 0x80 in every lane
        inside = bytearray(1 << n)
        for b in self.basis_masks:
            inside[b] = 1
        indep = int.from_bytes(inside, "little")
        for e, s in enumerate(single):
            indep |= (indep & s) >> (8 << e)
        table = sizes & (indep * 0xFF)
        for e, s in enumerate(single):
            # lane X: 128 + t(X - e) - t(X), bit 7 set where X - e's is larger
            # or equal; lanes without e hold other bytes and are masked off
            biased = ((table << (8 << e)) | high) - table
            table += biased & (((biased >> 7) & s) * 0x7F)
        return table.to_bytes(1 << n, "little")

    @cached_property
    def _span_counts(self) -> int:
        """The lanes c(X) = |{e not in X : r(X + e) = r(X)}|, the sum of
        :func:`_spanned_lanes`; the flats are the lanes with c = 0.
        :func:`from_bases` fills this cache as it validates."""
        return sum(_spanned_lanes(self))

    @cached_property
    def loops_mask(self) -> int:
        used = 0
        for b in self.basis_masks:
            used |= b
        return self.full_mask & ~used

    @cached_property
    def circuit_masks(self) -> tuple[int, ...]:
        """Minimal dependent sets, ascending (see :func:`_circuit_lanes`)."""
        return _lane_members(_circuit_lanes(self), self.n)

    @cached_property
    def flat_masks(self) -> tuple[int, ...]:
        """Flats, ascending (see :func:`_flat_lanes`)."""
        return _lane_members(_flat_lanes(self), self.n)

    @cached_property
    def component_masks(self) -> tuple[int, ...]:
        """Finest direct-sum decomposition (see :func:`_components_within`)."""
        return _components_within(self, self.full_mask)

    @cached_property
    def _parts(self) -> tuple[tuple[int, "Matroid"], ...]:
        """(mask, restriction) of each component of at least two elements,
        by least element; ``((full_mask, self),)`` when M is connected and
        has two elements or more.  Loops and coloops get no part.  All three
        recognizers read these, so each component is restricted, and its
        rank table built, once per matroid."""
        full = self.full_mask
        return tuple(
            (c, self if c == full else restrict(self, c))
            for c in self.component_masks
            if c.bit_count() >= 2
        )

    @cached_property
    def degree_key(self) -> tuple[int, tuple[int, ...]]:
        """(number of bases, sorted basis degrees): equal on isomorphic
        matroids, so unequal keys refuse an isomorphism without labeling."""
        return self.num_bases, _degree_multiset(range(self.n), self.basis_masks)

    @cached_property
    def _family(self) -> int:
        """The bases as one family int, bit X set iff X is a basis
        (:func:`_canonical._family_int`), for the labeling search, the clone
        steps and the degree-sorted relabelling of the corpus."""
        return _canonical._family_int(self.basis_masks)

    @cached_property
    def _canon(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _canonical.canonical_labeling(
            self.n, self.basis_masks, self._family
        )

    @cached_property
    def _clone_steps(self) -> tuple[tuple[int, int], ...]:
        """Clone steps of the bases (:func:`_canonical._clone_steps`), for the
        order walk, the minor search and the catalog-minors corpus."""
        return _canonical._clone_steps(self.n, self._family)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.basis_masks == other.basis_masks

    def __hash__(self) -> int:
        return hash((self.n, self.basis_masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={self.num_bases})"


# ---------------------------------------------------------------------------
# construction and validation


def from_bases(n: int, bases: Iterable[ElementSetLike]) -> Matroid:
    """Validate a basis family and build the matroid.

    A family of plain ints within 0..2^n - 1 is taken as bitmasks as it
    stands, which is what :func:`matroid_from_text` passes; any other
    family (element sets, bools, a mask out of range) goes through
    :func:`mask_of` basis by basis, which reports the first bad basis.

    The family's rank table r(X) = max |B & X| (see
    :attr:`Matroid.rank_table`) is monotone and grows by at most one per
    element, so it is a matroid rank function, whose bases are then the
    family, exactly when it is locally submodular: r(X + e) = r(X + f) =
    r(X) forces r(X + e + f) = r(X).  The check runs on lanes (see
    :func:`_lanes`), one sweep per element, on the counts c(X) of the
    elements outside X spanned by X (:attr:`Matroid._span_counts`).  Let
    S(X) be those elements.  For e in S(X), monotonicity gives S(X + e)
    inside S(X) - e, so c(X + e) <= c(X) - 1, with equality exactly when
    r(X + e + f) = r(X) for every other f in S(X).  So the family is a
    matroid iff c(X + e) = c(X) - 1 wherever e is in S(X).  The counts are
    cached on the matroid, where :func:`_flat_lanes` reads them.

    Raises EmptyFamily, MixedCardinality, OutOfRange, GroundTooLarge, or
    AxiomViolation (with a witnessing pair) when the family is not the basis
    family of a matroid on {0..n-1}, and MatroidError when n is not an int.
    """
    n = _index(n, "ground size")
    if n < 0:
        raise OutOfRange(f"negative ground size {n}")
    if n > MAX_GROUND:
        raise GroundTooLarge(f"n={n} exceeds the cap of {MAX_GROUND}")
    family = list(bases)
    if (
        family
        and set(map(type, family)) <= {int}
        and min(family) >= 0
        and not max(family) >> n
    ):
        masks = sorted(set(family))
    else:
        masks = sorted({mask_of(b, n) for b in family})
    if not masks:
        raise EmptyFamily("a matroid has at least one basis")
    if len(set(map(int.bit_count, masks))) != 1:
        raise MixedCardinality("bases must share one cardinality")
    M = Matroid._from_masks(n, masks)
    spanned = _spanned_lanes(M)
    counts = sum(spanned)
    # a failing triple (X, e, f) fails the check at both e and f, so the
    # last element's check is redundant
    for e, span in enumerate(spanned[:-1]):
        whole = span * 0xFF  # whole bytes of the lanes X spanning e
        if (counts & whole) - ((counts >> (8 << e)) & whole) != span:
            _raise_exchange_violation(masks)
    M._span_counts = counts
    return M


def _raise_exchange_violation(masks: list[int]) -> NoReturn:
    """Raise AxiomViolation for the first pair of bases, in sorted order,
    where basis exchange fails."""
    mset = frozenset(masks)
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            out = b1 & ~b2
            into = b2 & ~b1
            m = out
            while m:
                xbit = m & -m
                m ^= xbit
                moved = b1 ^ xbit
                k = into
                while k:
                    ybit = k & -k
                    k ^= ybit
                    if (moved | ybit) in mset:
                        break
                else:
                    raise AxiomViolation(
                        members(b1), members(b2), xbit.bit_length() - 1
                    )
    raise AssertionError("rank table not submodular, yet every exchange holds")


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid: every r-subset of an n-set is a basis.  Raises
    OutOfRange unless 0 <= r <= n."""
    if not 0 <= r <= n:
        raise OutOfRange(f"uniform needs 0 <= r <= n, got r={r}, n={n}")
    if n > MAX_GROUND:
        raise GroundTooLarge(f"n={n} exceeds the cap of {MAX_GROUND}")
    return Matroid._from_masks(n, _subset_masks(n, r))


def _sparse_paving(n: int, r: int, circuit_hyperplanes: Iterable[ElementSetLike]) -> Matroid:
    """U(r, n) less the given r-sets, its circuit-hyperplanes.  Trusted, like
    :meth:`Matroid._from_masks`: the sets must pairwise meet in at most r - 2
    elements, which makes the rest a basis family."""
    blocked = {mask_of(c, n) for c in circuit_hyperplanes}
    return Matroid._from_masks(n, [m for m in _subset_masks(n, r) if m not in blocked])


@cache
def _size_family(n: int, k: int) -> int:
    """The k-subsets of {0, ..., n-1} as one family int (bit X set iff
    |X| = k, see :func:`_canonical._family_int`)."""
    return _canonical._family_int(_subset_masks(n, k))


def transversal_matroid(n: int, sets: Iterable[int]) -> Matroid:
    """The transversal matroid of a set system, given as bitmasks over
    {0, ..., n-1}: its bases are the largest partial transversals.

    The partial transversals are one family int, bit X set iff X is one,
    swept set by set on the bit lanes of :func:`_canonical._element_lanes`:
    starting from the empty set, each set A adds X + e for every partial
    transversal X so far and every e in A - X, that is, matches A to at
    most one new element.  A shift by 2^e moves bit X to bit X + e, so
    each e in A costs one mask and one shift over all 2^n subsets.  The
    rank r is the largest k with a partial transversal of size k, and the
    bases are the r-subsets of :func:`_subset_masks` whose bit is set.
    Each set goes through :func:`mask_of`, so a mask that is negative or
    has a bit at n or above raises OutOfRange, as does a negative n.
    """
    if n < 0:
        raise OutOfRange(f"negative ground size {n}")
    if n > MAX_GROUND:
        raise GroundTooLarge(f"n={n} exceeds the cap of {MAX_GROUND}")
    lanes = _canonical._element_lanes(n)
    partial = 1  # the empty set's bit
    for a in sets:
        grown = partial
        for e in _bits(mask_of(a, n)):
            grown |= (partial & ~lanes[e]) << (1 << e)
        partial = grown
    r = 0
    while partial & _size_family(n, r + 1):
        r += 1
    return Matroid._from_masks(
        n, [m for m in _subset_masks(n, r) if partial >> m & 1]
    )


# ---------------------------------------------------------------------------
# rank, closure, circuits, connectivity


def rank_of(M: Matroid, X: ElementSetLike) -> int:
    return M.rank_table[mask_of(X, M.n)]


def closure(M: Matroid, X: ElementSetLike) -> frozenset[int]:
    xm = mask_of(X, M.n)
    return members(_closure_mask(M, xm))


def _closure_mask(M: Matroid, xm: int) -> int:
    ranks = M.rank_table
    r = ranks[xm]
    out = xm
    for e in _bits(M.full_mask & ~xm):
        if ranks[xm | (1 << e)] == r:
            out |= 1 << e
    return out


def circuits(M: Matroid) -> frozenset[frozenset[int]]:
    """All minimal dependent sets (loops appear as singletons)."""
    return frozenset(members(c) for c in M.circuit_masks)


def spanning_circuits(M: Matroid) -> frozenset[frozenset[int]]:
    """Circuits of full rank; these have rank(M) + 1 elements."""
    r = M.rank
    return frozenset(
        members(c) for c in M.circuit_masks if c.bit_count() == r + 1
    )


def _merge_overlapping(masks: Iterable[int]) -> tuple[int, ...]:
    """Unions of the chains of overlapping masks, sorted by least element."""
    classes: list[int] = []
    for m in masks:
        joined = [c for c in classes if c & m]  # disjoint: their sum is their union
        classes = [c for c in classes if not c & m] + [m | sum(joined)]
    return tuple(sorted(classes, key=lambda c: c & -c))


def _components_within(M: Matroid, x: int) -> tuple[int, ...]:
    """Components of M restricted to x, sorted by least element: for a basis
    B of x, the overlap classes of B's singletons and of the fundamental
    circuits {f in B + e : r(B + e - f) = |B|} of the e in x - B (Krogdahl,
    Discrete Math. 1977; Oxley, Matroid Theory, 4.1).  Reads no circuits."""
    ranks = M.rank_table
    basis = _greedy_independent(M, x)
    k = basis.bit_count()
    circuits = [1 << b for b in _bits(basis)]
    for e in _bits(x & ~basis):
        swap = basis | (1 << e)
        circuits.append(
            sum(1 << f for f in _bits(swap) if ranks[swap ^ (1 << f)] == k)
        )
    return _merge_overlapping(circuits)


def is_connected(M: Matroid) -> bool:
    return len(M.component_masks) <= 1


def components(M: Matroid) -> tuple[frozenset[int], ...]:
    """Ground-set partition of the finest direct-sum decomposition."""
    return tuple(members(c) for c in M.component_masks)


# ---------------------------------------------------------------------------
# minors


def removal_relabeling(n: int, removed: ElementSetLike) -> dict[int, int]:
    """Order-preserving compaction map applied by delete/contract/minor."""
    rm = mask_of(removed, n)
    out = {}
    new = 0
    for e in range(n):
        if not (rm >> e) & 1:
            out[e] = new
            new += 1
    return out


def _greedy_independent(M: Matroid, mask: int) -> int:
    got = 0
    for e in _bits(mask):
        cand = got | (1 << e)
        if M.is_independent(cand):
            got = cand
    return got


def _kept_runs(n: int, removed: int) -> tuple[tuple[int, int], ...]:
    """The runs of consecutive elements of 0..n-1 outside `removed`, as
    ``(shift, field)`` pairs for :func:`_compress`: a run moves down by the
    number of removed elements below it and lands on `field`."""
    runs = []
    kept = ((1 << n) - 1) & ~removed
    while kept:
        low = kept & -kept
        run = kept & ~(kept + low)  # the carry clears the lowest run only
        shift = (removed & (low - 1)).bit_count()
        runs.append((shift, run >> shift))
        kept ^= run
    return tuple(runs)


def _compress(mask: int, runs: tuple[tuple[int, int], ...]) -> int:
    """`mask` relabelled by the order-preserving compaction of the kept
    elements, one shift and mask per run of :func:`_kept_runs`."""
    out = 0
    for shift, field in runs:
        out |= (mask >> shift) & field
    return out


def _bases_by_trace(M: Matroid, removed: int) -> dict[int, list[int]]:
    """The bases of M grouped by their trace B & `removed`.

    The traces are exactly the C within `removed` that are independent
    with `removed` - C coindependent, and for those the group of C, less
    `removed`, is the bases of M / C \\ (`removed` - C).  Every split of
    `removed` has one such trace (:func:`_split_trace`), so a caller
    walking many splits of one removed set groups the bases once.
    """
    out: dict[int, list[int]] = defaultdict(list)
    for b in M.basis_masks:
        out[b & removed].append(b)
    return out


def _split_trace(M: Matroid, dmask: int, cmask: int) -> int:
    """The trace T with M / `cmask` \\ `dmask` = M / T \\ (R - T), for
    R = C | D, T independent and R - T coindependent (Oxley, Matroid
    Theory, Lemma 3.3.2): T = I | (D - J), with I the greedy basis of C and
    J a greedy maximal subset of D with r(E - J) = r(M).  The elements of
    D - J are coloops of M \\ J, so deleting them is contracting them, and
    C - I are loops of M / I."""
    ranks = M.rank_table
    spanning = M.full_mask  # E - J
    for e in _bits(dmask):
        if ranks[spanning ^ (1 << e)] == M.rank:
            spanning ^= 1 << e
    return _greedy_independent(M, cmask) | (dmask & spanning)


def _minor_masks(
    M: Matroid, dmask: int, cmask: int
) -> tuple[int, tuple[int, ...]]:
    """Ground size and sorted bases of M / `cmask` \\ `dmask`, relabelled by
    the order-preserving compaction of the kept elements: the bases B of M
    with B & (C | D) equal to :func:`_split_trace`, less C | D.  Bases that
    share one trace keep their order under compaction, so M's sorted bases
    come out sorted."""
    removed = dmask | cmask
    trace = _split_trace(M, dmask, cmask)
    runs = _kept_runs(M.n, removed)
    return M.n - removed.bit_count(), tuple(
        _compress(b, runs) for b in M.basis_masks if b & removed == trace
    )


def minor(M: Matroid, delete_set: ElementSetLike, contract_set: ElementSetLike) -> Matroid:
    """Delete and contract disjoint sets; result relabelled to 0..n'-1.

    The relabeling is the order-preserving compaction of the kept elements
    (see :func:`removal_relabeling`).
    """
    dm = mask_of(delete_set, M.n)
    cm = mask_of(contract_set, M.n)
    if dm & cm:
        raise OverlappingSets(
            f"delete and contract sets overlap on {sorted(members(dm & cm))}"
        )
    new_n, masks = _minor_masks(M, dm, cm)
    return Matroid._from_masks(new_n, masks)


def delete(M: Matroid, X: ElementSetLike) -> Matroid:
    return minor(M, X, 0)


def contract(M: Matroid, X: ElementSetLike) -> Matroid:
    return minor(M, 0, X)


def restrict(M: Matroid, X: ElementSetLike) -> Matroid:
    xm = mask_of(X, M.n)
    return minor(M, M.full_mask & ~xm, 0)


# ---------------------------------------------------------------------------
# dual, sums, truncation, extensions


def dual(M: Matroid) -> Matroid:
    full = M.full_mask
    return Matroid._from_masks(M.n, [full ^ b for b in M.basis_masks])


def direct_sum(M1: Matroid, M2: Matroid) -> Matroid:
    """Disjoint union; M2's elements are relabelled after M1's."""
    n = M1.n + M2.n
    if n > MAX_GROUND:
        raise GroundTooLarge(f"direct sum has {n} > {MAX_GROUND} elements")
    masks = [
        b1 | (b2 << M1.n)
        for b1 in M1.basis_masks
        for b2 in M2.basis_masks
    ]
    return Matroid._from_masks(n, masks)


def truncate(M: Matroid, k: int) -> Matroid:
    """Truncation to rank k: bases become the independent k-sets, the
    k-subsets of :func:`_subset_masks` of rank k in the rank table."""
    if not 0 <= k <= M.rank:
        raise ValueError(f"truncation rank {k} not in 0..{M.rank}")
    if k == M.rank:
        return M
    ranks = M.rank_table
    return Matroid._from_masks(M.n, [m for m in _subset_masks(M.n, k) if ranks[m] == k])


def free_extension(M: Matroid) -> Matroid:
    """Add element n as freely as possible (rank unchanged)."""
    n = M.n + 1
    if n > MAX_GROUND:
        raise GroundTooLarge(f"extension has {n} > {MAX_GROUND} elements")
    bit = 1 << M.n
    out = set(M.basis_masks)
    for b in M.basis_masks:
        for e in _bits(b):
            out.add((b ^ (1 << e)) | bit)
    return Matroid._from_masks(n, out)


def free_coextension(M: Matroid) -> Matroid:
    return dual(free_extension(dual(M)))


def parallel_connection(M1: Matroid, x1: int, M2: Matroid, x2: int) -> Matroid:
    """Glue M1 and M2 at a shared basepoint.

    The result keeps M1's labels; M2's other elements follow in label order.
    The basepoint (label x1) may be a loop on one side but not both.  Bases
    are the unions B1 | B2 where either both parts are bases containing the
    basepoint, or one part is a basis avoiding it and the other becomes a
    basis once the basepoint is added.
    """
    if x1 < 0 or x1 >= M1.n or x2 < 0 or x2 >= M2.n:
        raise OutOfRange("basepoint outside ground set")
    if (M1.loops_mask >> x1) & (M2.loops_mask >> x2) & 1:
        raise LoopBasepoint("basepoint is a loop on both sides")
    n = M1.n + M2.n - 1
    if n > MAX_GROUND:
        raise GroundTooLarge(f"parallel connection has {n} > {MAX_GROUND} elements")
    # M2's bases in the glued labels: x2 becomes x1, the rest follow M1's
    lifted = [
        sum(1 << (x1 if e == x2 else M1.n + e - (e > x2)) for e in _bits(b2))
        for b2 in M2.basis_masks
    ]
    base = 1 << x1
    # B1 | B2 holds the basepoint only when both parts do
    return Matroid._from_masks(n, {
        (b1 | b2) ^ ((b1 ^ b2) & base)
        for b1 in M1.basis_masks
        for b2 in lifted
        if (b1 | b2) & base
    })


def relax(M: Matroid, X: ElementSetLike) -> Matroid:
    """Turn a circuit-hyperplane into a basis."""
    xm = mask_of(X, M.n)
    ranks = M.rank_table
    size = xm.bit_count()
    # a circuit: r(X) = |X| - 1 = r(X - e) for every e in X
    if ranks[xm] != size - 1 or any(
        ranks[xm ^ (1 << e)] != size - 1 for e in _bits(xm)
    ):
        raise NotCircuitHyperplane(f"{sorted(members(xm))} is not a circuit")
    if ranks[xm] != M.rank - 1 or _closure_mask(M, xm) != xm:
        raise NotCircuitHyperplane(f"{sorted(members(xm))} is not a hyperplane")
    return Matroid._from_masks(M.n, M.basis_masks + (xm,))


# ---------------------------------------------------------------------------
# simplification, isomorphism, canonical forms


def simplify(M: Matroid) -> tuple[Matroid, dict[int, int]]:
    """Drop loops and collapse parallel classes.

    Returns the simplification together with a map sending every non-loop
    element to the new label of its parallel class (class representative =
    smallest member).
    """
    reps = []
    assigned: dict[int, int] = {}
    for e in range(M.n):
        if (M.loops_mask >> e) & 1:
            continue
        for i, r in enumerate(reps):
            if rank_of(M, (1 << e) | (1 << r)) == 1:
                assigned[e] = i
                break
        else:
            assigned[e] = len(reps)
            reps.append(e)
    keep_mask = mask_of(reps)
    new_n, masks = _minor_masks(M, M.full_mask & ~keep_mask, 0)
    return Matroid._from_masks(new_n, masks), assigned


def canonical_form(M: Matroid) -> bytes:
    """Isomorphism-invariant encoding: equal iff the matroids are isomorphic."""
    canon_masks, _ = M._canon
    out = bytearray()
    out += M.n.to_bytes(1, "little")
    out += M.rank.to_bytes(1, "little")
    out += len(canon_masks).to_bytes(2, "little")
    for m in canon_masks:
        out += m.to_bytes(2, "little")
    return bytes(out)


def is_isomorphic(M1: Matroid, M2: Matroid) -> Optional[dict[int, int]]:
    """A bijection M1 -> M2 carrying bases to bases, or None.

    Unequal degree keys refuse unlabelled.  Otherwise only M2 is labelled
    (its cached ``_canon``, so a shared catalog pattern is labelled once
    per process), and M1's search runs toward M2's canonical masks
    (:func:`_canonical.order_onto`).  It stops at the first better profile
    with None, or at the first leaf reaching them, which is the leaf M1's
    own labeling would pick, so the bijection maps M1's canonical order
    onto M2's position by position, as comparing both labelings would.
    """
    # the key fixes n (the degrees' count) and the rank (their sum / |B|),
    # so equal keys make both sides uniform, or both empty, or neither
    if M1.degree_key != M2.degree_key:
        return None
    canon2, order2 = M2._canon
    order1 = _canonical.order_onto(M1.n, M1.basis_masks, M1._family, canon2)
    if order1 is None:
        return None
    # order[pos] = element; both orders relabel onto the same canonical family
    out = dict(zip(order1, order2))
    onto = [0] * M1.n  # onto[f]: the element of M1 mapped to f
    for e, f in out.items():
        onto[f] = e
    assert _canonical._relabelled_family(M1.n, M1._family, onto) == M2._family
    return out


def automorphisms(M: Matroid) -> set[tuple[int, ...]]:
    """All ground-set permutations fixing the basis family, as tuples p
    with p[e] = image of e, read off the labeling search's final best
    leaves and composed with its clone transpositions;
    :func:`_canonical.automorphism_group` gives the cost and when it
    raises ``ValueError``."""
    return _canonical.automorphism_group(M.n, M.basis_masks, M._family)


# ---------------------------------------------------------------------------
# text format


_HEADERS = {
    f"MATROID {n} {r}": (n, r)
    for n in range(1, MAX_GROUND + 1)
    for r in range(1, n + 1)
}


@cache
def _basis_lines(n: int, r: int) -> dict[str, int]:
    """The canonical spelling of every r-subset of {0, ..., n-1}: its line
    (ids ascending, joined by one space, line feed included) mapped to its
    mask, in the id-tuple order of :func:`_subset_masks`.  The reader and
    the writer both read it."""
    return {" ".join(map(str, _bits(m))) + "\n": m for m in _subset_masks(n, r)}


def matroid_to_text(M: Matroid) -> str:
    """Canonical text form: the header line ``MATROID n r``, then one basis
    per line, its ids in ascending order joined by one space, the lines
    sorted as id tuples (the lines of :func:`_basis_lines` that are bases).
    """
    n, r = M.n, M.rank
    head = f"MATROID {n} {r}\n"
    if not r:
        return head
    bases = set(M.basis_masks)
    return head + "".join(
        line for line, mask in _basis_lines(n, r).items() if mask in bases
    )


def _canonical_masks(text: str) -> Optional[tuple[int, list[int]]]:
    """The ground size and basis masks of a text in the canonical spelling,
    with 0 < r and every line ended by a line feed, each line looked up in
    :func:`_basis_lines`; None for any other text."""
    head, _, rest = text.partition("\n")
    header = _HEADERS.get(head)
    if header is None:
        return None
    table = _basis_lines(*header)
    try:
        return header[0], [table[line] for line in rest.splitlines(True)]
    except KeyError:
        return None


def _token_lines(text: str) -> list[list[str]]:
    """The whitespace-split tokens of each line of a text, ``#`` comments
    cut off, lines left with no token dropped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(None, map(str.split, lines)))


def _raw_line(text: str, k: int) -> str:
    """Line k of :func:`_token_lines` as written, comment included."""
    raws = (raw for raw in text.splitlines() if raw.split("#", 1)[0].split())
    return next(itertools.islice(raws, k, None))


def _ints(tokens: list[str], what: str, text: str, k: int) -> list[int]:
    """The tokens of line k as ints, else a bad-line error naming it."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise MatroidError(f"bad {what} line: {_raw_line(text, k)!r}") from None


def _header(lines: list[list[str]], text: str, word: str) -> list[int]:
    """n and r from a first line ``word n r``, else a header error."""
    if not lines:
        raise MatroidError(f"missing {word} header")
    if len(lines[0]) != 3 or lines[0][0] != word:
        raise MatroidError(f"bad header line: {_raw_line(text, 0)!r}")
    return _ints(lines[0][1:], "header", text, 0)


def matroid_from_text(text: str) -> Matroid:
    """Parse the matroid text format; the family is fully re-validated.

    A text spelt exactly as :func:`matroid_to_text` spells it, every line
    ended by a line feed, is read by one table lookup per line
    (:func:`_canonical_masks`).  Any other text gets one pass in line
    order, which raises for the first bad line and reads the other legal
    spellings (``01``, ``+1``, comments, blank lines, tabs); its rows go to
    :func:`from_bases` as lists, which reports an element outside 0..n-1.
    """
    read = _canonical_masks(text)
    if read is not None:
        return from_bases(*read)
    lines = _token_lines(text)
    n, r = _header(lines, text, "MATROID")
    if not 0 <= r <= n:
        raise MatroidError(f"bad header line: {_raw_line(text, 0)!r}")
    rows = lines[1:]
    family = []
    for k, tokens in enumerate(rows, 1):
        row = _ints(tokens, "basis", text, k)
        if not all(map(operator.lt, row, row[1:])):
            raise MatroidError(
                f"basis line not strictly increasing: {_raw_line(text, k)!r}"
            )
        family.append(row)
    if r == 0:
        if rows:
            raise MatroidError("rank 0 matroid admits no basis lines")
        return from_bases(n, [0])
    if not set(map(len, rows)) <= {r}:
        raise MixedCardinality("basis line length differs from declared rank")
    return from_bases(n, family)
