"""Stress tests for canonical labeling, against two references.  The
brute-force twin is exhaustive permutation search, so any disagreement pins
a bug in the refinement, pruning, or automorphism machinery.  The reference
search in ``util`` refines against every cell in every round, recurses
through forced tails and skips root children by the orbits of the
automorphisms it has met; the package refines only against freshly split
cells, places forced tails in a loop and prunes only by clones and worse
profiles, so it visits more root children than the reference.  Pruning
never changes the first best leaf or the group, so it must return the
same form, order and group."""

from __future__ import annotations

import itertools

import pytest

from latmat import _canonical
from latmat._canonical import (
    _clone_classes,
    _clone_minimal,
    _clone_steps,
    _degree_sorted_family,
    _element_lanes,
    _family_int,
    _relabelled_family,
    _Search,
    automorphism_group,
    canonical_labeling,
)
from latmat.catalog import catalog_up_to, wheel3, whirl3
from latmat.corpus import (
    CorpusSpec,
    SplitMix64,
    generate,
    generate_tagged,
    parse_corpus_spec,
)
from latmat.kernel import (
    Matroid,
    _bits,
    _sparse_paving,
    _subset_masks,
    automorphisms,
    canonical_form,
    direct_sum,
    dual,
    from_bases,
    is_isomorphic,
    mask_of,
    uniform,
)
from test_acceptance import ACCEPT_SPEC
from test_corpus import count_labelings
from test_minors import symmetric_hosts
from util import (
    brute_automorphism_group,
    brute_canonical_labeling,
    brute_clone_classes,
    brute_degree_sorted_masks,
    degree_twins,
    family_masks,
    is_clone_minimal,
    labeling_is_isomorphic,
)


def brute_isomorphic(M1, M2) -> bool:
    if (M1.n, M1.rank, M1.num_bases) != (M2.n, M2.rank, M2.num_bases):
        return False
    target = frozenset(M2.basis_masks)
    for perm in itertools.permutations(range(M1.n)):
        mapped = frozenset(
            sum(1 << perm[e] for e in b) if b else 0 for b in M1.bases
        )
        if mapped == target:
            return True
    return False


def brute_automorphisms(M) -> set[tuple[int, ...]]:
    out = set()
    for perm in itertools.permutations(range(M.n)):
        mapped = frozenset(
            sum(1 << perm[e] for e in b) if b else 0 for b in M.bases
        )
        if mapped == frozenset(M.basis_masks):
            out.add(perm)
    return out


def _pool(max_n, seed, count):
    spec = CorpusSpec(
        ("catalog-minors", "random-transversal", "random-sparse-paving",
         "lpm-random", "duals-closure"),
        count=count,
        max_n=max_n,
        seed=seed,
    )
    return generate(spec)


def test_canonical_form_invariant_under_relabeling():
    rng = SplitMix64(2024)
    for M in _pool(7, seed=64, count=50):
        base = canonical_form(M)
        for _ in range(3):
            perm = list(range(M.n))
            for i in range(M.n - 1, 0, -1):
                j = rng.randrange(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            relab = Matroid._from_masks(
                M.n,
                [
                    sum(1 << perm[e] for e in b) if b else 0
                    for b in M.bases
                ],
            )
            assert canonical_form(relab) == base


def test_canonical_form_agrees_with_brute_isomorphism():
    pool = [M for M in _pool(5, seed=65, count=80) if M.n <= 5]
    for M1, M2 in itertools.combinations(pool, 2):
        fast = canonical_form(M1) == canonical_form(M2)
        assert fast == brute_isomorphic(M1, M2)


def test_is_isomorphic_witness_is_valid_bijection():
    pool = _pool(6, seed=66, count=40)
    rng = SplitMix64(4048)
    for M in pool:
        perm = list(range(M.n))
        for i in range(M.n - 1, 0, -1):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        relab = Matroid._from_masks(
            M.n,
            [sum(1 << perm[e] for e in b) if b else 0 for b in M.bases],
        )
        bij = is_isomorphic(M, relab)
        assert bij is not None
        mapped = {frozenset(bij[e] for e in b) for b in M.bases}
        assert mapped == relab.bases


def test_automorphisms_match_brute_force():
    """Small corpus members, the catalog up to 7 elements, and two hosts
    whose group searches refine against freshly split cells and end in
    forced tails, 36 and 8 of them: U3,6 less one basis and W3 with a
    parallel copy 6 of element 0."""
    pool = [M for M in _pool(5, seed=67, count=60) if M.n <= 5][:30]
    assert len(pool) >= 10
    w3 = wheel3()
    pool += [e.matroid for e in catalog_up_to(7)] + [
        from_bases(6, [c for c in itertools.combinations(range(6), 3)
                       if c != (0, 1, 2)]),
        from_bases(7, [set(b) for b in w3.bases] + [
            set(b) - {0} | {6} for b in w3.bases if 0 in b
        ]),
    ]
    for M in pool:
        assert automorphisms(M) == brute_automorphisms(M), M


def near_twins():
    """U3,6 less {012, 345} and less {012, 234}: equal size, rank and basis
    count, but degrees 9^6 against 8, 9^4, 10."""
    return tuple(
        from_bases(6, [c for c in itertools.combinations(range(6), 3)
                       if c not in ((0, 1, 2), hyperplane)])
        for hyperplane in ((3, 4, 5), (2, 3, 4))
    )


def test_canonical_form_distinguishes_near_twins():
    a, b = near_twins()
    assert a.degree_key == (18, (9,) * 6)
    assert b.degree_key == (18, (8,) + (9,) * 4 + (10,))
    assert not brute_isomorphic(a, b)
    assert canonical_form(a) != canonical_form(b)


def test_canonical_form_distinguishes_degree_twins():
    """Equal degree keys, so only the labeling tells them apart.  The
    meets between the missing 3-sets (the circuit-hyperplanes) are an
    isomorphism invariant, and they differ."""
    a, b = degree_twins()
    assert a.degree_key == b.degree_key == (52, (19,) * 4 + (20,) * 4)

    def meets(M):
        missing = [mask_of(c) for c in itertools.combinations(range(8), 3)
                   if mask_of(c) not in frozenset(M.basis_masks)]
        return sorted(sum(1 for g in missing if g != h and g & h)
                      for h in missing)

    assert meets(a) == [1, 2, 2, 3] and meets(b) == [2, 2, 2, 2]
    assert canonical_form(a) != canonical_form(b)


def test_is_isomorphic_labels_only_on_equal_degree_keys(monkeypatch):
    """Unequal keys label nothing; equal keys label the second side only,
    and the first side's search runs toward it."""
    labelled = count_labelings(monkeypatch)
    assert is_isomorphic(*near_twins()) is None
    assert labelled == []
    assert is_isomorphic(*degree_twins()) is None
    assert labelled == [8]


def _shuffled(M, rng):
    """A fresh copy of M relabelled by a seeded permutation."""
    perm = list(range(M.n))
    for i in range(M.n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Matroid._from_masks(
        M.n, [mask_of(perm[e] for e in _bits(b)) for b in M.basis_masks]
    )


def iso_items(iso):
    """A bijection's pairs in insertion order, the order it prints in."""
    return None if iso is None else list(iso.items())


def sparse_paving_key_twins() -> list[tuple[Matroid, Matroid]]:
    """Ordered pairs of non-isomorphic matroids with equal degree keys:
    U3,8 and U3,9 less 3 to 6 circuit-hyperplanes drawn by a seeded rng,
    one matroid per canonical form within each key."""
    rng = SplitMix64(99)
    classes: dict = {}
    for n in (8, 9):
        triples = _subset_masks(n, 3)
        for k in (3, 4, 5, 6):
            for _ in range(40):
                chosen = []
                for _ in range(40):
                    t = triples[rng.randrange(len(triples))]
                    if all((t & c).bit_count() <= 1 for c in chosen):
                        chosen.append(t)
                    if len(chosen) == k:
                        break
                M = _sparse_paving(n, 3, chosen)
                key = classes.setdefault(M.degree_key, {})
                key.setdefault(canonical_form(M), M)
    return [
        pair for key in classes.values()
        for pair in itertools.permutations(key.values(), 2)
    ]


def test_is_isomorphic_matches_labeling_reference(small_corpus):
    """The targeted search gives the bijection, or None, of comparing both
    full labelings: on every same-size pair of catalog members up to 12
    elements and each member against seeded relabellings, the small corpus
    against seeded relabellings and within each degree key, and the near,
    degree and sparse paving key twins, all in both orders."""
    rng = SplitMix64(3712)
    catalog = [e.matroid for e in catalog_up_to(12)]
    pairs = [(a, b) for a in catalog for b in catalog if a.n == b.n]
    for M in catalog + list(small_corpus):
        copy = _shuffled(M, rng)
        pairs += [(M, copy), (copy, M), (copy, _shuffled(M, rng))]
    by_key: dict = {}
    for M in small_corpus:
        by_key.setdefault(M.degree_key, []).append(M)
    pairs += [
        (a, b) for group in by_key.values() for a in group for b in group
        if a is not b
    ]
    for twins in (near_twins(), degree_twins()):
        pairs += [twins, twins[::-1]]
    pairs += sparse_paving_key_twins()
    hits = misses = 0
    for M1, M2 in pairs:
        want = labeling_is_isomorphic(M1, M2)
        assert iso_items(is_isomorphic(M1, M2)) == iso_items(want), (M1, M2)
        if want is None and M1.degree_key == M2.degree_key:
            misses += 1
        hits += want is not None
    assert hits >= 600 and misses >= 100


def test_targeted_miss_and_hits_label_nothing_more(monkeypatch):
    """With the second side labelled, a miss on the degree twins labels
    nothing and returns None, and a hit labels nothing either."""
    a, b = degree_twins()
    b._canon
    labelled = count_labelings(monkeypatch)
    assert is_isomorphic(a, b) is None
    assert is_isomorphic(_shuffled(b, SplitMix64(5)), b) is not None
    assert labelled == []


def test_uniform_and_empty_pairs_map_by_the_identity():
    """Uniform and empty families take the identity, as their labelings
    do; a uniform family relabels onto no other target of as many sets."""
    for n, r in ((0, 0), (1, 0), (1, 1), (4, 2), (6, 3), (12, 6)):
        assert is_isomorphic(uniform(r, n), uniform(r, n)) == {
            e: e for e in range(n)
        }
    U14, U34 = uniform(1, 4), uniform(3, 4)
    target = U34._canon[0]
    assert _canonical.order_onto(4, U14.basis_masks, U14._family, target) is None


def test_loop_and_coloop_heavy_inputs():
    M = from_bases(6, [{4, 5}])  # four loops, two coloops
    base = canonical_form(M)
    relab = from_bases(6, [{0, 1}])
    assert canonical_form(relab) == base
    assert canonical_form(uniform(0, 4)) == canonical_form(uniform(0, 4))


def test_search_tables_match_first_principles(small_corpus):
    """Degrees and co-occurrence counts by enumeration of the bases, and
    clone classes by trying every transposition: e and f share a class
    exactly when swapping them fixes the basis family (transpositions
    fixing it compose, so this relation is already transitive)."""
    pool = list(small_corpus) + [e.matroid for e in catalog_up_to(8)]
    for M in pool:
        search = _Search(M.n, M.basis_masks, M._family)
        for e in range(M.n):
            assert search.deg[e] == sum(1 for b in M.bases if e in b)
            for f in range(M.n):
                assert search.cooc[e][f] == sum(
                    1 for b in M.bases if e in b and f in b
                )
        for e, f in itertools.combinations(range(M.n), 2):
            swap = {e: f, f: e}
            fixed = M.bases == {
                frozenset(swap.get(x, x) for x in b) for b in M.bases
            }
            assert (search.clone[e] == search.clone[f]) == fixed, (M, e, f)


def test_clone_classes_match_swap_test(small_corpus):
    """The lane test gives the swap test's classes, each element mapped to
    the least member of its class, and the steps to each next-lower clone
    accept exactly the clone-minimal sets."""
    pool = list(small_corpus) + [e.matroid for e in catalog_up_to(12)] + [
        uniform(6, 12), uniform(0, 3), from_bases(6, [{4, 5}]),
    ]
    nontrivial = 0
    for M in pool:
        ref = brute_clone_classes(M.n, M.basis_masks)
        family = _family_int(M.basis_masks)
        got = _clone_classes([family & lane for lane in _element_lanes(M.n)])
        assert got == [
            min(f for f in range(M.n) if ref[f] == ref[e]) for e in range(M.n)
        ], M
        nontrivial += got != list(range(M.n))
        if M.n <= 8:
            steps = _clone_steps(M.n, M._family)
            for s in range(1 << M.n):
                assert _clone_minimal(s, steps) == is_clone_minimal(
                    ref, set(_bits(s))
                ), (M, s)
    assert nontrivial >= 100


def test_degree_sorted_family_matches_reference():
    """The relabelled family, decoded from its int, is the reference's
    element-by-element relabelling: its degrees ascend and it has the
    input's canonical form.  On the catalog up to 12 elements, the
    acceptance families and their duals, a seeded corpus up to 12 and
    families with loops, coloops or every set of a size."""
    accept = [M for _, M in generate_tagged(parse_corpus_spec(ACCEPT_SPEC))]
    pool = (
        [e.matroid for e in catalog_up_to(12)]
        + accept
        + [dual(M) for M in accept]
        + list(_pool(12, seed=1212, count=15))
        + [uniform(6, 12), uniform(0, 3), from_bases(6, [{4, 5}]),
           from_bases(6, [{0, 1}])]
    )
    assert max(M.n for M in pool) == 12
    moved = 0
    for M in pool:
        family = _degree_sorted_family(M.n, M._family)
        masks = family_masks(M.n, family)
        assert masks == brute_degree_sorted_masks(M.n, M.basis_masks), M
        degrees = [sum((b >> e) & 1 for b in masks) for e in range(M.n)]
        assert degrees == sorted(degrees), M
        assert canonical_labeling(M.n, masks, family)[0] == M._canon[0], M
        moved += tuple(masks) != M.basis_masks
    assert moved >= 500


def test_labeling_and_groups_match_reference(small_corpus):
    """Refining against freshly split cells and placing the forced tail in a
    loop visit the same nodes as refining against every cell: the same
    form, order and automorphism group as the reference search.  The
    seeded corpus to 10 elements holds sparse paving families whose
    refinement needs more than one freshly split cell per round.  Groups
    are compared wherever the reference, which keeps one leaf per group
    element, stays quick: the catalog up to 10 elements, the acceptance
    families and their duals up to 7, the symmetric hosts and every family
    up to 6."""
    accept = [M for _, M in generate_tagged(parse_corpus_spec(ACCEPT_SPEC))]
    accept += [dual(M) for M in accept]
    catalog = [e.matroid for e in catalog_up_to(12)]
    hosts = symmetric_hosts()
    pool = (
        list(small_corpus)
        + list(_pool(10, seed=68, count=40))
        + catalog
        + accept
        + hosts
    )
    for M in pool:
        masks = M.basis_masks
        assert canonical_labeling(
            M.n, masks, M._family
        ) == brute_canonical_labeling(
            M.n, masks
        ), M
    grouped = (
        [M for M in pool if M.n <= 6]
        + [M for M in catalog if 6 < M.n <= 10]
        + [M for M in accept if M.n == 7]
        + [M for M in hosts if M.n > 6]
    )
    for M in grouped:
        masks = M.basis_masks
        assert automorphism_group(
            M.n, masks, M._family
        ) == brute_automorphism_group(
            M.n, masks
        ), M


def test_group_orders_of_the_largest_catalog_members():
    """The 11- and 12-element catalog members, past the reference's reach:
    their group orders, and every 1,000th element fixes the bases."""
    orders = {
        "B4,3": 6912, "C7,3": 6912, "A6": 28800,
        "B4,4": 82944, "C8,4": 82944,
        "B5,2": 57600, "C7,2": 57600, "D6": 57600, "E6": 57600,
    }
    seen = set()
    for e in catalog_up_to(12):
        M = e.matroid
        if M.n < 11:
            continue
        group = automorphisms(M)
        assert len(group) == orders[e.name], e.name
        for p in sorted(group)[::1000]:
            assert frozenset(M.basis_masks) == frozenset(
                sum(1 << p[x] for x in _bits(b)) for b in M.basis_masks
            ), (e.name, p)
        seen.add(e.name)
    assert seen == set(orders)


def test_sums_whose_component_swaps_no_clone_gives():
    """W3 + W3, Whirl3 + Whirl3 and U2,4 + U2,4 + U2,4: swapping two
    components is an automorphism that no product of clone transpositions
    gives, so the group must come from the best leaves the search reaches
    beyond the first, which root orbits used to cut.  The labeling
    is the reference's, a seeded relabelling has the same form, and the
    group, read off the best leaves, has the order of the components'
    groups times the component swaps, every element fixing the bases."""
    U24 = uniform(2, 4)
    rng = SplitMix64(1212)
    for M, order in (
        (direct_sum(wheel3(), wheel3()), 24 * 24 * 2),
        (direct_sum(whirl3(), whirl3()), 6 * 6 * 2),
        (direct_sum(direct_sum(U24, U24), U24), 24 * 24 * 24 * 6),
    ):
        masks = M.basis_masks
        assert canonical_labeling(
            M.n, masks, M._family
        ) == brute_canonical_labeling(M.n, masks), M
        assert canonical_form(_shuffled(M, rng)) == canonical_form(M), M
        group = automorphisms(M)
        assert len(group) == order, M
        for p in group:
            # the relabelling sending e to p[e] fixes the family int
            assert _relabelled_family(
                M.n, M._family, sorted(range(M.n), key=p.__getitem__)
            ) == M._family, (M, p)


def test_group_size_guard():
    """The product of the clone-class factorials bounds the group order
    from below; past 9! the group is refused before any search.  Uniform
    families up to 9 elements are listed directly."""
    assert len(automorphisms(uniform(4, 9))) == 362880
    parallel = from_bases(12, [{i, 11} for i in range(11)])  # |G| = 11!
    for M in (uniform(5, 10), uniform(6, 12), parallel):
        with pytest.raises(ValueError):
            automorphisms(M)
