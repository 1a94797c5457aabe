"""Named matroid families: the excluded minors of the lattice-path class.

Families (element count / rank):

- ``A{n}``      free extension of the truncated double circuit glued at a
                point (2n elements, rank n, self-dual), n >= 3;
- ``B{n},{k}``  rank-n truncation of two (n)-circuits plus a (k)-circuit
                (2n+k elements), n >= k >= 2, and its dual ``C{n+k},{k}``;
- ``D{n}``      free extension of (double circuit + coloop) (2n elements,
                rank n), n >= 4, and its dual ``E{n}``;
- ``W3`` / ``Whirl3``  the rank-3 wheel (triangles of the complete graph on
                four vertices) and its rim relaxation;
- ``R3`` / ``R4``  a 7-element dual pair built by parallel-extending the
                6-element rank-4 matroid with two 4-element
                circuit-hyperplanes at a shared element.

Helper families ``P{n}`` (truncated direct sum of two circuits) and
``Pprime{n}`` (truncated parallel connection of two circuits) are exposed
for construction and nestedness tests but are not excluded minors.  The
truncations read the kernel's one list of k-subsets (``kernel.truncate``),
and ``W3`` and the core of ``R4`` are sparse paving matroids, U(r, n) less
their circuit-hyperplanes (``kernel._sparse_paving``).
:func:`latmat.lpm.verify_excluded_minor` checks each member's minimality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    _sparse_paving,
    direct_sum,
    dual,
    free_extension,
    parallel_connection,
    relax,
    truncate,
    uniform,
)


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    params: tuple[int, ...]
    matroid: Matroid
    name: str


def p_n(n: int) -> Matroid:
    """Rank-n truncation of the direct sum of two n-element circuits."""
    if n < 2:
        raise ValueError(f"P_n needs n >= 2, got {n}")
    circ = uniform(n - 1, n)
    return truncate(direct_sum(circ, circ), n)


def p_prime_n(n: int) -> Matroid:
    """Rank-n truncation of two n-element circuits glued at a point."""
    if n < 3:
        raise ValueError(f"P'_n needs n >= 3, got {n}")
    circ = uniform(n - 1, n)
    return truncate(parallel_connection(circ, n - 1, circ, 0), n)


def a_n(n: int) -> Matroid:
    if n < 3:
        raise ValueError(f"A_n needs n >= 3, got {n}")
    return free_extension(p_prime_n(n))


def b_nk(n: int, k: int) -> Matroid:
    """Rank-n truncation of the direct sum of two n-element circuits and a
    k-element circuit."""
    if not n >= k >= 2:
        raise ValueError(f"B needs n >= k >= 2, got ({n},{k})")
    return truncate(
        direct_sum(direct_sum(uniform(n - 1, n), uniform(n - 1, n)), uniform(k - 1, k)),
        n,
    )


def c_nk(n: int, k: int) -> Matroid:
    if not n >= k >= 2:
        raise ValueError(f"C needs n >= k >= 2, got ({n},{k})")
    return dual(b_nk(n, k))


def d_n(n: int) -> Matroid:
    if n < 4:
        raise ValueError(f"D_n needs n >= 4, got {n}")
    return free_extension(direct_sum(p_n(n - 1), uniform(1, 1)))


def e_n(n: int) -> Matroid:
    if n < 4:
        raise ValueError(f"E_n needs n >= 4, got {n}")
    return dual(d_n(n))


def wheel3() -> Matroid:
    """Rank-3 wheel: the sparse paving U3,6 whose circuit-hyperplanes, its
    3-element circuits, are the triangles of K4."""
    return _sparse_paving(6, 3, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5)])


def whirl3() -> Matroid:
    return relax(wheel3(), (0, 1, 2))


def r4() -> Matroid:
    """Parallel-extend, at a shared element, the sparse paving U4,6 whose
    circuit-hyperplanes are {0,1,2,3} and {2,3,4,5}."""
    core = _sparse_paving(6, 4, [(0, 1, 2, 3), (2, 3, 4, 5)])
    return parallel_connection(core, 2, uniform(1, 2), 0)


def r3() -> Matroid:
    return dual(r4())


_BUILDERS = {
    "A": (a_n, 1),
    "B": (b_nk, 2),
    "C": (None, 2),  # special-cased: name carries (n+k, k)
    "D": (d_n, 1),
    "E": (e_n, 1),
    "P": (p_n, 1),
    "Pprime": (p_prime_n, 1),
}

_FIXED = {
    "W3": wheel3,
    "Whirl3": whirl3,
    "R3": r3,
    "R4": r4,
}

_NAME_RE = re.compile(r"^(A|B|C|D|E|Pprime|P)(\d+)(?:,(\d+))?$")


def build_by_name(name: str) -> Matroid:
    """Construct a catalog matroid from its display name (e.g. ``B3,2``)."""
    if name in _FIXED:
        return _FIXED[name]()
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"unknown family name {name!r}")
    fam, p1, p2 = m.group(1), int(m.group(2)), m.group(3)
    if fam == "C":
        if p2 is None:
            raise ValueError("C names look like C{n+k},{k}")
        k = int(p2)
        return c_nk(p1 - k, k)
    builder, arity = _BUILDERS[fam]
    if arity == 2:
        if p2 is None:
            raise ValueError(f"{fam} names carry two parameters")
        return builder(p1, int(p2))
    if p2 is not None:
        raise ValueError(f"{fam} names carry one parameter")
    return builder(p1)


def catalog_up_to(m: int) -> list[CatalogEntry]:
    """All excluded-minor family members with at most m elements, sorted by
    (size, name); every call shares the members of each size.  The members
    are pairwise non-isomorphic, because their degree keys
    (``Matroid.degree_key``) differ; the tests pin this up to ``MAX_GROUND``."""
    if m < 6:
        raise ValueError(f"the smallest excluded minor has 6 elements, got m={m}")
    if m > MAX_GROUND:
        raise GroundTooLarge(f"m={m} exceeds the cap of {MAX_GROUND}")
    return [entry for size in range(6, m + 1) for entry in _catalog_of_size(size)]


@lru_cache(maxsize=None)
def _catalog_of_size(size: int) -> tuple[CatalogEntry, ...]:
    """The members with exactly ``size`` elements, sorted by name; their
    degree keys differ, so no two are isomorphic (see :func:`catalog_up_to`)."""
    entries: list[CatalogEntry] = []
    if size % 2 == 0:
        n = size // 2
        entries.append(CatalogEntry("A", (n,), a_n(n), f"A{n}"))
        if n >= 4:
            entries.append(CatalogEntry("D", (n,), d_n(n), f"D{n}"))
            entries.append(CatalogEntry("E", (n,), e_n(n), f"E{n}"))
    for n in range(2, size):
        k = size - 2 * n
        if 2 <= k <= n:
            entries.append(CatalogEntry("B", (n, k), b_nk(n, k), f"B{n},{k}"))
            entries.append(
                CatalogEntry("C", (n, k), c_nk(n, k), f"C{n + k},{k}")
            )
    if size == 6:
        entries.append(CatalogEntry("W3", (), wheel3(), "W3"))
        entries.append(CatalogEntry("Whirl3", (), whirl3(), "Whirl3"))
    if size == 7:
        entries.append(CatalogEntry("R3", (), r3(), "R3"))
        entries.append(CatalogEntry("R4", (), r4(), "R4"))
    return tuple(sorted(entries, key=lambda e: e.name))
