"""Deterministic, seedable test-corpus generation.

All randomness flows from one SplitMix64 stream (documented below), so a
corpus spec reproduces byte-identically across runs and is cheap to
re-implement elsewhere.  Draw protocols, in stream order:

- ``random-transversal``: n = randint(3, max_n); r = randint(1, max(1,
  2n//3)); r set masks each drawn as ``next_u64() & (2^n - 1)`` rerolled
  while zero; the matroid is the transversal matroid of the system, built
  by ``kernel.transversal_matroid``, the constructor the interval realizer
  calls too (the tests check it against an augmenting-path matching).
- ``random-sparse-paving``: n = randint(3, max_n); r = randint(2, n-1);
  t = randint(1, n) candidate circuit-hyperplanes, each drawn as r distinct
  ``randrange(n)`` values, kept when it meets every kept one in at most r-2
  elements; bases are all other r-subsets (never empty: at r = n-1 at most
  one candidate survives, below that the candidates cannot exhaust the
  r-subsets).
- ``catalog-minors``: every delete/contract minor of every excluded-minor
  catalog member with at most min(8, max_n) elements (no stream use).
- ``lpm-random``: n = randint(2, max_n); r = randint(1, n); lower and upper
  endpoint sequences are drawn as independent r-subsets (r distinct
  ``randrange(n)`` values each, sorted) and redrawn together until they
  interlace (a_i <= b_i for all i), i.e. rejection sampling uniform over the
  presentations with these (n, r); the matroid is the realized presentation.
- ``duals-closure``: appends the dual of everything generated so far.

Output is deduplicated up to isomorphism, keeping first occurrences in
generation order.  A matroid is labelled only when nothing cheaper decides
its class.  An exact repeat of a basis family is dropped unlabelled, and so
is a ``duals-closure`` matroid whose primal is isomorphic to the primal of
an earlier dual (isomorphic matroids have isomorphic duals).  Every other
matroid is relabelled so that its basis degrees ascend, ties kept in label
order (:func:`_canonical._degree_sorted_family`, a vertex-invariant
relabelling after McKay & Piperno, Practical graph isomorphism II, 2014).
When an earlier matroid on as many elements relabels to the same family,
the two are isomorphic by the composed bijections, and the matroid joins
that class unlabelled.  The relabelling does not decide non-isomorphism,
as elements of equal degree keep their label order, so a miss is bucketed
by ``Matroid.degree_key``, its basis count and sorted basis degrees, which
isomorphic matroids share.  One that meets an empty bucket starts a new
class without being labelled.  Otherwise it and the bucket's kept classes
are labelled, each once, and its canonical form is compared with theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalog, lpm
from ._canonical import _clone_minimal, _degree_sorted_family
from .kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    MatroidError,
    _bits,
    _compress,
    _kept_runs,
    _minor_masks,  # unused here; perfbench/tracing.py wraps corpus._minor_masks
    _sparse_paving,
    canonical_form,
    dual,
    transversal_matroid,
)

GENERATORS = (
    "random-transversal",
    "random-sparse-paving",
    "catalog-minors",
    "lpm-random",
    "duals-closure",
)

class SplitMix64:
    """SplitMix64 (Steele-Lea-Flood): 64-bit state advanced by the golden
    gamma, output finalized with two xor-shift multiplies."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Unbiased draw from 0..n-1 by rejection."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < bound:
                return r % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)


@dataclass(frozen=True)
class CorpusSpec:
    generators: tuple[str, ...]
    count: int = 100
    max_n: int = 8
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.generators:
            raise MatroidError("corpus spec names no generator")
        for g in self.generators:
            if g not in GENERATORS:
                raise MatroidError(f"unknown corpus generator {g!r}")
            least, _ = _RANDOM_GENERATORS.get(g, (0, None))
            if self.max_n < least:
                raise MatroidError(f"{g} needs max-n >= {least}, got {self.max_n}")
        if self.count < 0:
            raise MatroidError(f"count={self.count} is negative")
        if self.max_n < 0:
            raise MatroidError(f"max-n={self.max_n} is negative")
        if self.max_n > MAX_GROUND:
            raise GroundTooLarge(
                f"max-n={self.max_n} exceeds the cap of {MAX_GROUND}"
            )
        if self.needs_seed and self.seed is None:
            raise MatroidError(
                "randomized corpus generators require an explicit seed"
            )

    @property
    def needs_seed(self) -> bool:
        return any(g in _RANDOM_GENERATORS for g in self.generators)

    @property
    def label(self) -> str:
        parts = list(self.generators)
        parts.append(f"count={self.count}")
        parts.append(f"max-n={self.max_n}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)


def parse_corpus_spec(
    text: str,
    count: int = 100,
    max_n: int = 8,
    seed: Optional[int] = None,
) -> CorpusSpec:
    """Parse the comma mini-language: generator names plus ``count=``,
    ``max-n=``, ``seed=`` overrides."""
    gens = []
    values = {"count": count, "max-n": max_n, "seed": seed}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, value = token.split("=", 1)
            key = key.strip()
            if key not in values:
                raise MatroidError(f"unknown corpus key {key!r}")
            try:
                values[key] = int(value)
            except ValueError:
                raise MatroidError(
                    f"corpus key {key!r} needs an integer, got {value!r}"
                ) from None
        else:
            gens.append(token)
    count, max_n, seed = values.values()
    return CorpusSpec(tuple(gens), count=count, max_n=max_n, seed=seed)


# ---------------------------------------------------------------------------
# individual generators


def _draw_transversal(rng: SplitMix64, max_n: int) -> Matroid:
    n = rng.randint(3, max_n)
    r = rng.randint(1, max(1, (2 * n) // 3))
    sets = []
    for _ in range(r):
        m = 0
        while m == 0:
            m = rng.next_u64() & ((1 << n) - 1)
        sets.append(m)
    return transversal_matroid(n, sets)


def _distinct_subset(rng: SplitMix64, n: int, r: int) -> int:
    got = 0
    while got.bit_count() < r:
        got |= 1 << rng.randrange(n)
    return got


def _draw_sparse_paving(rng: SplitMix64, max_n: int) -> Matroid:
    n = rng.randint(3, max_n)
    r = rng.randint(2, n - 1)
    chs: list[int] = []
    for _ in range(rng.randint(1, n)):
        cand = _distinct_subset(rng, n, r)
        if all((cand & c).bit_count() <= r - 2 for c in chs):
            chs.append(cand)
    return _sparse_paving(n, r, chs)


def _gen_catalog_minors(max_n: int):
    """Every delete/contract minor of the catalog members up to 8 elements
    with at most `max_n` elements, first occurrences of each labelled
    family in split order.

    Splits share their work: the greedy basis of every contract set is
    built once per member, in one pass over the subsets (the greedy scan
    of :func:`kernel._greedy_independent` is ascending, so a set's top
    element t is tried last, on the greedy basis of the set less t), and
    per removed set the bases are grouped by
    their trace on it with each kept part compressed once (see
    :func:`kernel._bases_by_trace`).  A split whose group is missing lost
    rank by the deletion and is skipped: its normal trace T
    (:func:`kernel._split_trace`) is the greedy basis of its contract set
    plus some deleted elements, a larger independent contract set of the
    same removed set, and the walk reads the same minor off the group of T
    at the split contracting T.

    Only the clone-minimal removed sets are walked: those holding, in each
    clone class of the member (:func:`_canonical._clone_classes`), its
    lowest elements.  Swapping a clone in a removed set for a lower one
    outside it gives a smaller removed set with isomorphic minors, so the
    first removed set reaching each isomorphism class is clone-minimal:
    the walk emits fewer labelled families, but the first of each
    isomorphism class is the one the full walk emits first.
    """
    out = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for entry in catalog.catalog_up_to(8):
        M = entry.matroid
        greedy = [0]  # greedy[c]: the greedy basis of c
        for t in range(M.n):
            bit = 1 << t
            greedy += [g | bit if M.is_independent(g | bit) else g
                       for g in greedy]
        steps = M._clone_steps
        for removed in range(1 << M.n):
            new_n = M.n - removed.bit_count()
            if new_n > max_n or not _clone_minimal(removed, steps):
                continue
            runs = _kept_runs(M.n, removed)
            groups: dict[int, list[int]] = {}
            for b in M.basis_masks:
                groups.setdefault(b & removed, []).append(_compress(b, runs))
            sub = removed
            while True:
                survivors = groups.get(greedy[sub])
                if survivors:
                    key = (new_n, tuple(sorted(survivors)))
                    if key not in seen:
                        seen.add(key)
                        out.append(Matroid._from_masks(*key))
                if sub == 0:
                    break
                sub = (sub - 1) & removed
    return out


def _draw_lpm_random(rng: SplitMix64, max_n: int) -> Matroid:
    n = rng.randint(2, max_n)
    r = rng.randint(1, n)
    while True:
        a = sorted(_bits(_distinct_subset(rng, n, r)))
        b = sorted(_bits(_distinct_subset(rng, n, r)))
        if all(x <= y for x, y in zip(a, b)):
            break
    return lpm.realize(lpm.IntervalPresentation(n, tuple(zip(a, b))))


# Each random generator: the smallest ground set it draws, and one draw.
_RANDOM_GENERATORS = {
    "random-transversal": (3, _draw_transversal),
    "random-sparse-paving": (3, _draw_sparse_paving),
    "lpm-random": (2, _draw_lpm_random),
}


# ---------------------------------------------------------------------------
# driver


def generate_tagged(spec: CorpusSpec) -> list[tuple[str, Matroid]]:
    """(source, matroid) pairs, deduplicated up to isomorphism in order."""
    return _first_of_each_class(*_generated(spec))


def _generated(
    spec: CorpusSpec,
) -> tuple[list[tuple[str, Matroid]], dict[int, int]]:
    """Every (source, matroid) pair the generators draw, in order, and the
    map from the position of each dual to its primal's."""
    rng = SplitMix64(spec.seed if spec.seed is not None else 0)
    raw: list[tuple[str, Matroid]] = []
    primal_of: dict[int, int] = {}  # position of a dual -> of its primal
    for g in spec.generators:
        if g in _RANDOM_GENERATORS:
            _, draw = _RANDOM_GENERATORS[g]
            raw.extend((g, draw(rng, spec.max_n)) for _ in range(spec.count))
        elif g == "catalog-minors":
            raw.extend(
                ("catalog-minors", M) for M in _gen_catalog_minors(spec.max_n)
            )
        elif g == "duals-closure":
            primal_of.update((len(raw) + i, i) for i in range(len(raw)))
            raw.extend(("duals-closure", dual(M)) for _, M in list(raw))
    return raw, primal_of


def _first_of_each_class(
    raw: list[tuple[str, Matroid]], primal_of: dict[int, int]
) -> list[tuple[str, Matroid]]:
    """The first (source, matroid) pair of each isomorphism class in `raw`,
    in order; `primal_of` maps the position of a dual to its primal's.

    After the shortcuts, a family whose degree-sorted relabelling matches
    one met before is isomorphic to it by an explicit bijection.  The match
    is keyed with n, since the int alone does not fix the ground set (every
    rank-0 family is the empty set's bit).  Only canonical forms rule an
    isomorphism out (see the module docstring)."""
    family_class: dict[tuple[int, tuple[int, ...]], int] = {}
    dual_class: dict[int, int] = {}  # class of a primal -> of its first dual
    relabelled_class: dict[tuple[int, int], int] = {}
    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    classes: list[int] = []  # class of each position, as a position in out
    out: list[tuple[str, Matroid]] = []
    for i, (source, M) in enumerate(raw):
        family = (M.n, M.basis_masks)
        p = primal_of.get(i)
        c = family_class.get(family)
        if c is None and p is not None:
            c = dual_class.get(classes[p])
        if c is None:
            relabelled = (M.n, _degree_sorted_family(M.n, M._family))
            c = relabelled_class.get(relabelled)
            if c is None:
                bucket = buckets.setdefault(M.degree_key, [])
                for k in bucket:
                    if canonical_form(out[k][1]) == canonical_form(M):
                        c = k
                        break
                else:
                    c = len(out)
                    bucket.append(c)
                    out.append((source, M))
                relabelled_class[relabelled] = c
        family_class[family] = c
        if p is not None:
            dual_class.setdefault(classes[p], c)
        classes.append(c)
    return out


def generate(spec: CorpusSpec) -> list[Matroid]:
    """Deduplicated corpus; same spec always returns the same list."""
    return [M for _, M in generate_tagged(spec)]
