"""Seeded input families for the benchmark, built without the package.

Every draw comes from a ``random.Random`` seeded by the benchmark, so the
same seed gives the same inputs and a change to the package cannot change
what it is fed.  Inputs are basis bitmask families; ``to_text`` renders
them in the package's matroid file format.

Each family is drawn to a stratum (ground-set size, rank, and a target
basis count or a circuit-hyperplane count) rather than freely, because the
cost of every recognizer depends mostly on those properties: a free draw
makes the time of a pass swing with the seed by more than any bound worth
gating.
"""

from __future__ import annotations

import itertools
import random

MAX_DRAWS = 10_000


def _subset_masks(n: int, r: int) -> list[int]:
    return [sum(1 << e for e in c) for c in itertools.combinations(range(n), r)]


def _random_subset(rng: random.Random, n: int, r: int) -> int:
    return sum(1 << e for e in rng.sample(range(n), r))


def sparse_paving(rng: random.Random, n: int, r: int, k: int) -> list[int]:
    """U(r, n) with k circuit-hyperplanes relaxed away.

    The circuit-hyperplanes are r-sets meeting pairwise in at most r - 2
    elements, which is exactly the condition for the remaining r-sets to
    be the bases of a (sparse paving) matroid.
    """
    for _ in range(MAX_DRAWS):
        chs: list[int] = []
        for _ in range(50 * k):
            c = _random_subset(rng, n, r)
            if all((c & d).bit_count() <= r - 2 for d in chs):
                chs.append(c)
                if len(chs) == k:
                    blocked = set(chs)
                    return [m for m in _subset_masks(n, r) if m not in blocked]
    raise RuntimeError(f"no sparse paving matroid with n={n} r={r} k={k}")


def _matching_size(sets: list[int], xmask: int) -> int:
    owner: dict[int, int] = {}

    def augment(e: int, seen: set[int]) -> bool:
        for i, s in enumerate(sets):
            if (s >> e) & 1 and i not in seen:
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = e
                    return True
        return False

    return sum(
        1 for e in range(xmask.bit_length()) if (xmask >> e) & 1 and augment(e, set())
    )


def transversal(rng: random.Random, n: int, r: int) -> list[int]:
    """Transversal matroid of r random nonempty subsets of {0..n-1}."""
    sets = [rng.randrange(1, 1 << n) for _ in range(r)]
    rank = _matching_size(sets, (1 << n) - 1)
    return [m for m in _subset_masks(n, rank) if _matching_size(sets, m) == rank]


def interval_bases(n: int, intervals, order) -> list[int]:
    """Bases of the lattice path matroid with these position intervals:
    increasing position tuples x_i in [a_i, b_i], read through ``order``."""
    out: list[int] = []

    def rec(i: int, start: int, acc: int) -> None:
        if i == len(intervals):
            out.append(acc)
            return
        a, b = intervals[i]
        for p in range(max(a, start), b + 1):
            rec(i + 1, p + 1, acc | (1 << order[p]))

    rec(0, 0, 0)
    return sorted(out)


def lattice_path(rng: random.Random, n: int, r: int) -> list[int]:
    """Uniform interlacing endpoint sequences over a random path order;
    the result is a lattice path matroid by construction."""
    while True:
        a = sorted(rng.sample(range(n), r))
        b = sorted(rng.sample(range(n), r))
        if all(x <= y for x, y in zip(a, b)):
            break
    order = list(range(n))
    rng.shuffle(order)
    return interval_bases(n, tuple(zip(a, b)), order)


def nearest(rng: random.Random, draw, n: int, r: int, target: int, tries: int) -> list[int]:
    """Of ``tries`` draws of ``draw(rng, n, r)``, the first whose basis count
    is nearest ``target``: a fixed amount of drawing, whatever the seed."""
    best = None
    for _ in range(tries):
        bases = draw(rng, n, r)
        if best is None or abs(len(bases) - target) < abs(len(best) - target):
            best = bases
    return best


def to_text(n: int, bases: list[int]) -> str:
    """The package's matroid file format, bases sorted lexicographically."""
    rows = sorted(tuple(e for e in range(n) if (b >> e) & 1) for b in bases)
    rank = len(rows[0])
    lines = [f"MATROID {n} {rank}"]
    lines.extend(" ".join(map(str, row)) for row in rows if row)
    return "\n".join(lines) + "\n"
