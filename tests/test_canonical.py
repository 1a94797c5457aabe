"""Stress tests for canonical labeling, against two references.  The
brute-force twin is exhaustive permutation search, so any disagreement pins
a bug in the refinement, pruning, or automorphism machinery.  The reference
search in ``util`` refines against every cell in every round and recurses
through forced tails; the package refines only against freshly split cells
and places forced tails in a loop, which changes the work per node but not
the nodes, so it must return the same form, order and group."""

from __future__ import annotations

import itertools

import pytest

from latmat._canonical import (
    _clone_classes,
    _clone_minimal,
    _clone_steps,
    _degree_sorted_family,
    _element_lanes,
    _family_int,
    _Search,
    automorphism_group,
    canonical_labeling,
)
from latmat.catalog import catalog_up_to, wheel3
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
    automorphisms,
    canonical_form,
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
)


def brute_isomorphic(M1, M2) -> bool:
    if (M1.n, M1.rank, M1.num_bases) != (M2.n, M2.rank, M2.num_bases):
        return False
    target = M2.mask_set
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
        if mapped == M.mask_set:
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
                   if mask_of(c) not in M.mask_set]
        return sorted(sum(1 for g in missing if g != h and g & h)
                      for h in missing)

    assert meets(a) == [1, 2, 2, 3] and meets(b) == [2, 2, 2, 2]
    assert canonical_form(a) != canonical_form(b)


def test_is_isomorphic_labels_only_on_equal_degree_keys(monkeypatch):
    labelled = count_labelings(monkeypatch)
    assert is_isomorphic(*near_twins()) is None
    assert labelled == []
    assert is_isomorphic(*degree_twins()) is None
    assert labelled == [8, 8]


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
        search = _Search(M.n, M.basis_masks)
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
            steps = _clone_steps(M.n, M.basis_masks)
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
        masks = family_masks(M.n, _degree_sorted_family(M.n, M.basis_masks))
        assert masks == brute_degree_sorted_masks(M.n, M.basis_masks), M
        degrees = [sum((b >> e) & 1 for b in masks) for e in range(M.n)]
        assert degrees == sorted(degrees), M
        assert canonical_labeling(M.n, masks)[0] == M._canon[0], M
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
        assert canonical_labeling(M.n, masks) == brute_canonical_labeling(
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
        assert automorphism_group(M.n, masks) == brute_automorphism_group(
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
            assert M.mask_set == frozenset(
                sum(1 << p[x] for x in _bits(b)) for b in M.basis_masks
            ), (e.name, p)
        seen.add(e.name)
    assert seen == set(orders)


def test_group_size_guard():
    """The product of the clone-class factorials bounds the group order
    from below; past 9! the group is refused before any search.  Uniform
    families up to 9 elements are listed directly."""
    assert len(automorphisms(uniform(4, 9))) == 362880
    parallel = from_bases(12, [{i, 11} for i in range(11)])  # |G| = 11!
    for M in (uniform(5, 10), uniform(6, 12), parallel):
        with pytest.raises(ValueError):
            automorphisms(M)
