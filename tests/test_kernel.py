from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmat import corpus, kernel, lpm
from latmat.catalog import a_n, catalog_up_to, wheel3
from latmat.kernel import (
    MAX_GROUND,
    AxiomViolation,
    EmptyFamily,
    GroundTooLarge,
    LoopBasepoint,
    Matroid,
    MixedCardinality,
    NotCircuitHyperplane,
    OutOfRange,
    OverlappingSets,
    _subset_masks,
    automorphisms,
    canonical_form,
    circuits,
    closure,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    free_coextension,
    free_extension,
    from_bases,
    is_connected,
    is_isomorphic,
    matroid_from_text,
    matroid_to_text,
    minor,
    parallel_connection,
    rank_of,
    relax,
    removal_relabeling,
    restrict,
    simplify,
    spanning_circuits,
    truncate,
    uniform,
)
from latmat.lpm import IntervalPresentation, realize
from util import (
    _degrees,
    brute_circuit_masks,
    brute_components_within,
    brute_flat_masks,
    brute_independent_sets,
    brute_lane_members,
    brute_locally_submodular,
    brute_minimal_dependent,
    brute_rank_table,
    brute_span_counts,
    combo_truncate,
    line_matroid_from_text,
    p3_bases,
    set_matroid_to_text,
    spanning_trees_k4,
)


def p3() -> Matroid:
    return from_bases(6, p3_bases())


def wheel() -> Matroid:
    trees = spanning_trees_k4()
    assert len(trees) == 16
    return from_bases(6, trees)


# --- from_bases -------------------------------------------------------------


def test_from_bases_uniform():
    M = from_bases(4, [{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}])
    assert M == uniform(2, 4)
    assert M.rank == 2 and M.n == 4


def test_from_bases_rejects_exchange_failure():
    with pytest.raises(AxiomViolation) as err:
        from_bases(4, [{0, 1}, {2, 3}])
    w = err.value
    # re-verify the witness: no y in B2-B1 repairs B1-x
    family = {frozenset({0, 1}), frozenset({2, 3})}
    assert w.basis1 in family and w.basis2 in family and w.x in w.basis1
    repaired = [
        (w.basis1 - {w.x}) | {y} for y in w.basis2 - w.basis1
    ]
    assert all(r not in family for r in repaired)


def test_from_bases_p3_derived_count():
    expected = p3_bases()
    assert len(expected) == 20 - 2
    M = from_bases(6, expected)
    assert M.rank == 3 and M.num_bases == 18


def test_from_bases_errors():
    with pytest.raises(EmptyFamily):
        from_bases(3, [])
    with pytest.raises(MixedCardinality):
        from_bases(3, [{0}, {1, 2}])
    with pytest.raises(OutOfRange):
        from_bases(3, [{0, 5}])
    with pytest.raises(GroundTooLarge):
        from_bases(13, [{0}])


def test_from_bases_integer_masks(monkeypatch):
    u24 = uniform(2, 4)
    masks = list(u24.basis_masks)
    calls = []
    real_mask_of = kernel.mask_of

    def counting_mask_of(b, n=None):
        calls.append(b)
        return real_mask_of(b, n)

    monkeypatch.setattr(kernel, "mask_of", counting_mask_of)
    # ints in range are taken as masks: consumed once, duplicates collapse
    assert from_bases(4, (m for m in masks * 2)) == u24
    assert from_bases(4, masks[::-1] + masks).basis_masks == u24.basis_masks
    assert calls == []
    for family, error, message in (
        ([0b0011, -1], OutOfRange, "bitmask -0x1 not within 0..4"),
        ([0b0011, 0b10000], OutOfRange, "bitmask 0x10 not within 0..4"),
        ([0b0001, 0b0011], MixedCardinality, "bases must share one cardinality"),
        ([], EmptyFamily, "a matroid has at least one basis"),
    ):
        with pytest.raises(error) as err:
            from_bases(4, iter(family))
        assert str(err.value) == message
    # bools and element sets go through mask_of basis by basis
    calls.clear()
    assert from_bases(1, [True]) == from_bases(1, [1])
    assert from_bases(4, [0b0011, {0, 2}, (1, 2)]) == from_bases(
        4, [0b0011, 0b0101, 0b0110]
    )
    assert calls == [True, 0b0011, {0, 2}, (1, 2)]
    for n, family, message in (
        (0, [True], "bitmask 0x1 not within 0..0"),
        (4, [0b0011, {0, 5}], "element 5 not in 0..3"),
        (4, [{0, 1}, 0b10000], "bitmask 0x10 not within 0..4"),
    ):
        with pytest.raises(OutOfRange) as err:
            from_bases(n, family)
        assert str(err.value) == message


def test_non_int_elements_and_sets_are_named():
    """``mask_of`` reads each element through ``operator.index`` and names
    an element that is not an int, or a set that is not iterable, where a
    bare TypeError escaped before; bools stay 0 and 1."""
    for call, message in (
        (lambda: from_bases(3, [(0, "1")]), "element '1' is not an int"),
        (lambda: from_bases(3, [(0, 1.5)]), "element 1.5 is not an int"),
        (lambda: from_bases(3, [None]), "element set None is not iterable"),
        (lambda: closure(uniform(2, 4), ["x"]), "element 'x' is not an int"),
    ):
        with pytest.raises(kernel.MatroidError) as err:
            call()
        assert type(err.value) is kernel.MatroidError
        assert str(err.value) == message
    assert kernel.mask_of([True, 2]) == 0b110 and kernel.mask_of([False]) == 1
    assert from_bases(3, [(False, True)]) == from_bases(3, [{0, 1}])


def test_transversal_set_masks_out_of_range():
    """A set mask that is negative or has a bit at n or above raises
    OutOfRange, where indexing the element lanes failed before."""
    for sets, message in (
        ([8], "bitmask 0x8 not within 0..3"),
        ([-1], "bitmask -0x1 not within 0..3"),
        ([0b011, 0b1100], "bitmask 0xc not within 0..3"),
    ):
        with pytest.raises(OutOfRange) as err:
            kernel.transversal_matroid(3, sets)
        assert str(err.value) == message
    assert kernel.transversal_matroid(3, [0b011, 0b110]).basis_masks == (3, 5, 6)


def test_ground_sizes_and_ranks_out_of_range():
    """``uniform`` raises OutOfRange for a rank outside 0..n or a negative
    n, and ``transversal_matroid`` for a negative n, as ``from_bases``
    does; ``from_bases`` names a ground size that is not an int.  Bare
    ValueError, shift and comparison errors escaped before."""
    for call, message in (
        (lambda: uniform(4, 3), "uniform needs 0 <= r <= n, got r=4, n=3"),
        (lambda: uniform(-1, 3), "uniform needs 0 <= r <= n, got r=-1, n=3"),
        (lambda: uniform(0, -1), "uniform needs 0 <= r <= n, got r=0, n=-1"),
        (lambda: kernel.transversal_matroid(-1, []), "negative ground size -1"),
        (lambda: from_bases(-1, [0]), "negative ground size -1"),
    ):
        with pytest.raises(OutOfRange) as err:
            call()
        assert str(err.value) == message
    for n, message in (
        (2.0, "ground size 2.0 is not an int"),
        ("2", "ground size '2' is not an int"),
        (None, "ground size None is not an int"),
    ):
        with pytest.raises(kernel.MatroidError) as err:
            from_bases(n, [[0]])
        assert type(err.value) is kernel.MatroidError
        assert str(err.value) == message
    assert from_bases(True, [[0]]) == from_bases(1, [[0]])
    assert uniform(0, 0).num_bases == 1 and uniform(3, 3).num_bases == 1


def test_from_bases_empty_ground():
    M = from_bases(0, [frozenset()])
    assert M.n == 0 and M.rank == 0 and M.num_bases == 1


# --- rank, closure, circuits ------------------------------------------------


def test_rank_of_examples():
    M = p3()
    # oracle: max basis intersection, recomputed over the raw family
    expected = max(len(b & {0, 1, 2}) for b in p3_bases())
    assert expected == 2
    assert rank_of(M, {0, 1, 2}) == 2
    assert rank_of(M, ()) == 0
    assert rank_of(uniform(2, 4), {0, 1, 2}) == 2
    with pytest.raises(OutOfRange):
        rank_of(M, {9})


def test_closure_examples():
    M = p3()
    assert closure(M, {0, 1}) == {0, 1, 2}
    assert closure(M, range(6)) == set(range(6))
    assert closure(uniform(2, 4), {0}) == {0}


def test_circuits_u24():
    assert circuits(uniform(2, 4)) == frozenset(
        frozenset(c) for c in itertools.combinations(range(4), 3)
    )


def test_circuits_p3_match_enumeration():
    M = p3()
    expected = brute_minimal_dependent(6, p3_bases())
    assert circuits(M) == expected
    assert frozenset({0, 1, 2}) in expected and frozenset({3, 4, 5}) in expected
    # spanning circuits are exactly the 4-element ones
    assert spanning_circuits(M) == frozenset(c for c in expected if len(c) == 4)


def test_circuits_free_matroid_empty():
    assert circuits(uniform(3, 3)) == frozenset()


# --- connectivity -----------------------------------------------------------


def test_connectivity_two_parallel_pairs():
    M = truncate(direct_sum(uniform(1, 2), uniform(1, 2)), 2)
    assert not is_connected(M)
    assert components(M) == (frozenset({0, 1}), frozenset({2, 3}))


def test_connectivity_u24_p3():
    assert is_connected(uniform(2, 4))
    assert is_connected(p3())


def test_connectivity_corner_cases():
    assert is_connected(uniform(0, 0))
    assert is_connected(uniform(1, 1))
    assert is_connected(from_bases(1, [frozenset()]))  # single loop
    two_loops = from_bases(2, [frozenset()])
    assert not is_connected(two_loops)
    assert components(two_loops) == (frozenset({0}), frozenset({1}))


def test_components_within_match_circuit_reference(small_corpus):
    hosts = list(small_corpus) + [e.matroid for e in catalog_up_to(10)]
    hosts += [a_n(6), uniform(6, 12)]
    for entry in catalog_up_to(8):
        for s in (uniform(0, 1), uniform(1, 1), uniform(1, 2)):
            hosts.append(direct_sum(s, entry.matroid))
    for M in hosts:
        for x in M.flat_masks + (M.full_mask,):
            assert kernel._components_within(M, x) == brute_components_within(
                M, x
            ), (M, x)


def test_parts_are_the_restrictions_to_components_of_two_or_more(small_corpus):
    hosts = list(small_corpus) + [e.matroid for e in catalog_up_to(8)]
    for entry in catalog_up_to(7):
        for s in (uniform(0, 1), uniform(1, 1), uniform(1, 2)):
            hosts.append(direct_sum(s, entry.matroid))
            hosts.append(direct_sum(entry.matroid, s))
    hosts += [uniform(0, 3), uniform(3, 3), uniform(1, 1), uniform(0, 0)]
    seen = {"connected": 0, "split": 0, "singletons dropped": 0}
    for M in hosts:
        full = M.full_mask
        comps = brute_components_within(M, full)
        wanted = [c for c in comps if c.bit_count() >= 2]
        assert [c for c, _ in M._parts] == wanted, M
        for c, part in M._parts:
            assert part == restrict(M, c), (M, c)
        if M.n >= 2 and comps == (full,):
            seen["connected"] += 1
            (c, part), = M._parts
            assert c == full and part is M
        elif len(wanted) > 1:
            seen["split"] += 1
        if len(wanted) < len(comps):
            seen["singletons dropped"] += 1
    assert all(seen.values()), seen


# --- minors -----------------------------------------------------------------


def test_delete_contract_wheel_derived():
    W = wheel()
    # oracle: trees of K4 avoiding / containing edge 0
    trees = spanning_trees_k4()
    avoid = {t for t in trees if 0 not in t}
    through = {t - {0} for t in trees if 0 in t}
    assert len(avoid) == 8 and len(through) == 8
    D = delete(W, {0})
    C = contract(W, {0})
    relabel = removal_relabeling(6, {0})
    assert D.bases == {frozenset(relabel[e] for e in t) for t in avoid}
    assert C.bases == {frozenset(relabel[e] for e in t) for t in through}
    assert D.rank == 3 and D.n == 5 and D.num_bases == 8
    assert C.rank == 2 and C.n == 5 and C.num_bases == 8


def test_minor_identity_and_overlap():
    M = p3()
    assert minor(M, (), ()) == M
    with pytest.raises(OverlappingSets):
        minor(M, {0}, {0})


def test_contract_dependent_set():
    M = p3()
    C = contract(M, {0, 1, 2})  # rank-2 set
    assert C.rank == M.rank - rank_of(M, {0, 1, 2}) == 1
    assert C.n == 3


def test_delete_rank_drop():
    # deleting both elements of a parallel pair in a rank-1 matroid
    M = uniform(1, 2)
    D = delete(M, {0, 1})
    assert D.n == 0 and D.rank == 0 and D.num_bases == 1
    # coloop removal also drops rank
    M2 = uniform(2, 2)
    D2 = delete(M2, {1})
    assert D2.rank == 1 and D2.n == 1


def test_restrict():
    M = p3()
    R = restrict(M, {0, 1, 2})
    assert R.n == 3 and R.rank == 2
    assert R.bases == {frozenset(c) for c in itertools.combinations(range(3), 2)}


# --- dual, sums, truncation, extensions --------------------------------------


def test_dual_examples():
    assert dual(uniform(2, 4)) == uniform(2, 4)
    assert dual(uniform(0, 1)) == uniform(1, 1)
    M = p3()
    assert dual(dual(M)) == M


def test_truncate_examples():
    # three parallel pairs truncated to a rank-2 line: 12 cross pairs
    sum3 = direct_sum(direct_sum(uniform(1, 2), uniform(1, 2)), uniform(1, 2))
    B = truncate(sum3, 2)
    pairs = {
        frozenset(c)
        for c in itertools.combinations(range(6), 2)
        if frozenset(c) not in ({0, 1}, {2, 3}, {4, 5})
    }
    assert B.bases == pairs and B.num_bases == 12
    assert truncate(B, B.rank) == B
    with pytest.raises(ValueError):
        truncate(B, 3)


def _catalog_truncation_inputs():
    """The matroids the catalog's builders truncate: two n-circuits summed
    (P) or glued at a point (P'), and two n-circuits plus a k-circuit (B)."""
    circ = lambda n: uniform(n - 1, n)
    out = []
    for n in range(2, 7):
        out.append(direct_sum(circ(n), circ(n)))
        if n >= 3:
            out.append(parallel_connection(circ(n), n - 1, circ(n), 0))
        out += [
            direct_sum(direct_sum(circ(n), circ(n)), circ(k))
            for k in range(2, min(n, 12 - 2 * n) + 1)
        ]
    return out


def test_truncate_matches_combination_reference(small_corpus):
    spec = corpus.CorpusSpec(
        ("random-transversal", "random-sparse-paving", "lpm-random",
         "duals-closure"),
        count=15,
        max_n=10,
        seed=33,
    )
    pool = _catalog_truncation_inputs() + small_corpus + corpus.generate(spec)
    assert max(M.n for M in pool) == 12
    for M in pool:
        for k in range(M.rank):
            assert truncate(M, k) == combo_truncate(M, k), (M, k)


def test_subset_masks_follow_combinations():
    for n in range(MAX_GROUND + 1):
        for r in range(n + 1):
            assert _subset_masks(n, r) == tuple(
                sum(1 << e for e in ids)
                for ids in itertools.combinations(range(n), r)
            ), (n, r)


def test_free_extension_coextension():
    M = uniform(1, 2)
    E = free_extension(M)
    assert E.n == 3 and E.rank == 1 and E.num_bases == 3
    C = free_coextension(M)
    assert C.n == 3 and C.rank == 2
    assert C == dual(free_extension(dual(M)))


def test_parallel_connection_two_triangles():
    P = parallel_connection(uniform(2, 3), 2, uniform(2, 3), 0)
    assert P.n == 5 and P.rank == 3
    # oracle: all 3-subsets of a 5-set except the two glued triangles
    blocked = {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    expected = {
        frozenset(c)
        for c in itertools.combinations(range(5), 3)
        if frozenset(c) not in blocked
    }
    assert P.bases == expected and P.num_bases == 8


def test_parallel_extension():
    M = p3()
    P = parallel_connection(M, 1, uniform(1, 2), 0)
    assert P.n == 7 and P.rank == M.rank
    assert rank_of(P, {1, 6}) == 1  # new element is parallel to the basepoint


def test_parallel_connection_contract_basepoint():
    M1 = uniform(2, 3)
    M2 = uniform(2, 4)
    P = parallel_connection(M1, 0, M2, 0)
    lhs = contract(P, {0})
    rhs = direct_sum(contract(M1, {0}), contract(M2, {0}))
    assert is_isomorphic(lhs, rhs) is not None


def test_parallel_connection_loop_rules():
    loopy = from_bases(2, [{1}])  # 0 is a loop
    with pytest.raises(LoopBasepoint):
        parallel_connection(loopy, 0, loopy, 0)
    P = parallel_connection(loopy, 0, uniform(1, 2), 0)
    assert P.n == 3


def test_relax_examples():
    W = wheel()
    rim = next(iter(sorted(circuits(W), key=sorted)))
    relaxed = relax(W, rim)
    assert relaxed.num_bases == 17
    assert relax(p3(), {0, 1, 2}).num_bases == 19
    with pytest.raises(NotCircuitHyperplane, match="is not a hyperplane"):
        relax(uniform(2, 4), {0, 1, 2})
    loopy = from_bases(3, [{0, 1}])  # {0, 2}: a hyperplane, rank |X| - 1
    for M, X in (
        (uniform(2, 4), {0, 1}),  # a basis
        (uniform(2, 4), set()),
        (uniform(2, 4), {0, 1, 2, 3}),
        (loopy, {0, 2}),  # holds the circuit {2}
    ):
        with pytest.raises(NotCircuitHyperplane, match="is not a circuit"):
            relax(M, X)


# --- simplify, isomorphism, canonical forms ----------------------------------


def test_simplify():
    # loop + parallel pair + coloop
    bases = [{1, 3}, {2, 3}]
    M = from_bases(4, bases)  # 0 loop; 1,2 parallel; 3 coloop
    S, mapping = simplify(M)
    assert S.n == 2 and S.rank == 2
    assert 0 not in mapping
    assert mapping[1] == mapping[2] != mapping[3]


def test_is_isomorphic_examples():
    U = uniform(2, 4)
    bij = is_isomorphic(U, dual(U))
    assert bij is not None and sorted(bij) == [0, 1, 2, 3]
    W = wheel()
    assert is_isomorphic(W, relax(W, {0, 1, 2})) is None  # 16 vs 17 bases


def test_degree_key_is_basis_count_and_degrees(small_corpus):
    pool = [e.matroid for e in catalog_up_to(12)] + list(small_corpus)
    for M in pool:
        assert M.degree_key == (M.num_bases, _degrees(M.n, M.basis_masks))
        assert M.degree_key is M.degree_key


def test_automorphisms_u24():
    assert len(automorphisms(uniform(2, 4))) == 24


def test_automorphisms_fix_bases():
    M = p3()
    auts = automorphisms(M)
    assert len(auts) == 72  # (S3 x S3) x swap
    for p in auts:
        mapped = {frozenset(p[e] for e in b) for b in M.bases}
        assert mapped == M.bases


def test_canonical_form_invariance():
    M = p3()
    base = canonical_form(M)
    for shift in range(1, 6):
        perm = [(e + shift) % 6 for e in range(6)]
        relab = from_bases(6, [{perm[e] for e in b} for b in M.bases])
        assert canonical_form(relab) == base
    assert canonical_form(wheel()) != base


# --- text format -------------------------------------------------------------


def test_text_roundtrip():
    for M in (uniform(2, 4), p3(), wheel(), uniform(0, 2), uniform(3, 3)):
        text = matroid_to_text(M)
        assert matroid_from_text(text) == M
        # canonical: re-serialization is identical
        assert matroid_to_text(matroid_from_text(text)) == text


def test_equality_and_hash_read_the_labelled_family():
    """Equal matroids hash alike however their family was given: shuffled,
    as element sets or through the text format.  The ground size counts:
    one loop and two loops have the same bases.  A relaxation equals the
    matroid built from its bases."""
    rng = random.Random(7)
    pool = [e.matroid for e in catalog_up_to(12)] + [uniform(0, 3)]
    for M in pool:
        masks = list(M.basis_masks)
        rng.shuffle(masks)
        copies = (
            from_bases(M.n, masks),
            from_bases(M.n, [kernel.members(b) for b in masks]),
            matroid_from_text(matroid_to_text(M)),
        )
        for copy in copies:
            assert copy == M and hash(copy) == hash(M), M
    loop, loops = uniform(0, 1), uniform(0, 2)
    assert loop.basis_masks == loops.basis_masks == (0,)
    assert loop != loops
    W = wheel3()
    assert relax(W, (0, 1, 2)) == from_bases(W.n, [*W.bases, {0, 1, 2}])


def test_text_comments_and_blanks():
    text = "# a comment\nMATROID 3 1\n\n0\n1  # trailing\n2\n"
    assert matroid_from_text(text) == uniform(1, 3)


def test_text_errors():
    with pytest.raises(kernel.MatroidError):
        matroid_from_text("BOGUS 3 1\n0\n")
    with pytest.raises(kernel.MatroidError):
        matroid_from_text("MATROID 3 2\n1 0\n")  # not increasing
    with pytest.raises(MixedCardinality):
        matroid_from_text("MATROID 3 2\n0 1\n2\n")
    with pytest.raises(AxiomViolation):
        matroid_from_text("MATROID 4 2\n0 1\n2 3\n")
    # a declared rank outside 0..n is a bad header, not an empty family
    for text in ("MATROID 3 -1\n", "MATROID 3 5\n", "MATROID 3 5\n0 1 2\n"):
        with pytest.raises(kernel.MatroidError, match="bad header line"):
            matroid_from_text(text)
    # a token that is not an integer names its line
    for text, message in (
        ("MATROID x 1\n0\n", "bad header line: 'MATROID x 1'"),
        ("MATROID 3 1.0\n0\n", "bad header line: 'MATROID 3 1.0'"),
        ("MATROID 3 2\n0 1\n0 x  # y\n", "bad basis line: '0 x  # y'"),
    ):
        with pytest.raises(kernel.MatroidError) as err:
            matroid_from_text(text)
        assert str(err.value) == message
    # lines with elements out of range reach from_bases unpacked, and every
    # line is parsed before any range is checked
    for text, error, message in (
        ("MATROID 3 2\n0 1\n0 5\n", OutOfRange, "element 5 not in 0..2"),
        ("MATROID 3 2\n-1 2\n", OutOfRange, "element -1 not in 0..2"),
        ("MATROID 3 2\n0 5\n2 1\n", kernel.MatroidError,
         "basis line not strictly increasing: '2 1'"),
        ("MATROID 3 2\n0 9\n0\n", MixedCardinality, "differs"),
        ("MATROID 13 2\n0 12\n", GroundTooLarge, "n=13"),
        ("MATROID 13 2\n0 1\n1 0\n", kernel.MatroidError,
         "basis line not strictly increasing: '1 0'"),
        ("MATROID 3 2\n", EmptyFamily, "at least one basis"),
    ):
        with pytest.raises(error) as err:
            matroid_from_text(text)
        assert message in str(err.value)
    # comments, blank lines and CRLF line ends never shift the line named
    for text, error, message in (
        ("MATROID 3 x  # h\n0\n", kernel.MatroidError,
         "bad header line: 'MATROID 3 x  # h'"),
        ("MATROID 3 2  # h\r\n0 1\r\n# c\r\n\r\n1 0  # d\r\n",
         kernel.MatroidError, "basis line not strictly increasing: '1 0  # d'"),
        ("MATROID 3 2\n\t\n0 1\n# 0 x\n0 x\n", kernel.MatroidError,
         "bad basis line: '0 x'"),
        ("MATROID 3 2\n0 1\n0#1 2\n", MixedCardinality,
         "basis line length differs from declared rank"),
    ):
        with pytest.raises(error) as err:
            matroid_from_text(text)
        assert str(err.value) == message


def _read_both(text):
    """What the package's reader and the reference line reader make of one
    text: a matroid, or the class and message of the error raised."""
    out = []
    for read in (matroid_from_text, line_matroid_from_text):
        try:
            out.append(read(text))
        except kernel.MatroidError as err:
            out.append((type(err), str(err)))
    return out


# the line boundaries of ``str.splitlines`` besides "\n" and "\r\n"
_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


def _text_variants(text):
    """Spellings and misspellings of one canonical text, each of which the
    package's reader must read as the line reader does."""
    head, *body = text.splitlines()
    n = int(head.split()[1])

    def join(*lines):
        return "\n".join(lines) + "\n"

    yield "# a comment line\n" + text
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "\t")
    yield "\n\n".join([head, *body]) + "\n\n"
    yield join(head)
    yield join("MATROID 13 2", *body)
    yield join("MATROID 13 2", "0 1", "0 12")
    yield join("MATROID 3 0", *body)
    yield join("MATROID 3 0", "0")
    yield join("MATROID 13 2", "0 1", "1 0")
    yield join("MATROID 3 2")
    yield text[:-1]
    yield text + "\n"
    yield head.replace(" ", "  ", 1) + text[len(head):]
    yield head.replace(" ", " 0", 1) + text[len(head):]
    yield head + " " + text[len(head):]
    for mark in _LINE_BREAKS:
        yield text[:-1] + mark
    for m in (10, 11, 12):
        yield join(f"MATROID {m} 2", "0 10", "0 11", "10 11")
        yield join(f"MATROID {m} 2", "0 10", "1 a", "2 b")
        yield join(f"MATROID {m} 1", "10", "11", "9")
        yield join(f"MATROID {m} 2", "1 10", "1 11", "0 110")
    yield join(head + "  # a header comment", *body)
    yield join(head, *(x for row in body for x in (row, "# between", " \t")))
    if not body:
        return
    first, last = body[0].split(), body[-1].split()
    rows = text[len(head) + 1:]
    for mark in _LINE_BREAKS:
        yield join(head) + rows.replace("\n", mark, 1)
        yield join(head) + rows[:1] + mark + rows[1:]
    yield join(head, body[0] + "  # a trailing comment", *body[1:])
    yield join(head, "0" + body[0], *body[1:])
    yield join(head, "+" + body[0], *body[1:])
    yield join(head, body[0], *body)
    yield join(head, *body[1:])
    yield join(head, *body[:-1], " ".join(last[:-1]))
    yield join(head, " ".join(first[:-1]), *body[1:])
    yield join(head, *body[:-1], body[-1] + " " + str(n - 1))
    yield join(head, body[0] + " " + str(n - 1), *body[1:])
    yield join(head, *body[:-1], " ".join([*last[:-1], str(n)]))
    yield join(head, " ".join(["-1", *first[1:]]), *body[1:])
    yield join(head, body[0].replace(" ", "  "), *body[1:])
    yield join(head, *body[:-1], body[-1] + " ")
    yield join(head, *body, body[-1])
    for token in ("10", "11", "110", "a", "b", "\u0663", "\ud800"):
        yield join(head, *body[:-1], " ".join([*last[:-1], token]))
    if len(first) >= 2:
        yield join(head, " ".join([first[1], first[0], *first[2:]]), *body[1:])
        yield join(head, body[0].replace(" ", "#", 1), *body[1:])


def test_bulk_reader_matches_line_reader():
    """The package's reader, which looks up each line of the canonical
    spelling in a table of basis lines, and the reference line reader give
    the same matroid or the same error on every canonical text and its
    variants; the table reader reads every canonical text, and the writer
    spells it as the reference writer does."""
    spec = corpus.CorpusSpec(
        ("random-sparse-paving", "lpm-random", "random-transversal",
         "duals-closure"),
        count=12,
        max_n=12,
        seed=1919,
    )
    family = [e.matroid for e in catalog_up_to(12)] + corpus.generate(spec)
    family += [uniform(0, 5), uniform(1, 12), uniform(12, 12)]
    assert {M.n for M in family} >= set(range(6, 13))
    for M in family:
        text = matroid_to_text(M)
        assert text == set_matroid_to_text(M)
        assert _read_both(text) == [M, M]
        if M.rank:
            n, masks = kernel._canonical_masks(text)
            assert (n, sorted(masks)) == (M.n, list(M.basis_masks))
        for variant in _text_variants(text):
            got, want = _read_both(variant)
            assert got == want, variant


_TOKENS = st.sampled_from(
    [*map(str, range(14)), "-1", "01", "+1", "x", "1.0", "110", "a", "b", "\u0663"]
)


@st.composite
def _matroid_texts(draw):
    """Matroid texts of well-spelt and misspelt header and basis tokens,
    with blank lines, comment lines, trailing or glued ``#`` comments,
    tabs and CRLF line ends, or else spelt as the canonical text is."""
    canonical = draw(st.booleans())
    n, r = draw(st.integers(0, 13)), draw(st.integers(0, 4))
    head = ["MATROID", str(n), str(r)]
    if draw(st.integers(0, 4)) == 0:
        head[draw(st.integers(0, 2))] = draw(_TOKENS)
    lines = [head]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            k = min(r, n + 1)
            row = draw(st.sets(st.integers(0, n), min_size=k, max_size=k))
            lines.append(list(map(str, sorted(row))))
        else:
            lines.append(draw(st.lists(_TOKENS, max_size=4)))
    if canonical:
        return "".join(" ".join(tokens) + "\n" for tokens in lines)
    out = []
    for tokens in lines:
        line = draw(st.sampled_from([" ", "\t", "  "])).join(tokens)
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["# c", "  # c", "#1 2"]))
        out.append(line)
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "# only", " \t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(_matroid_texts())
def test_reader_matches_line_reader_on_drawn_texts(text):
    got, want = _read_both(text)
    assert got == want


# --- property-style checks ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_submodular_monotone(seed):
    from latmat.corpus import SplitMix64

    rng = SplitMix64(seed)
    pool = [uniform(2, 5), p3(), wheel(), dual(p3())]
    M = pool[rng.randrange(len(pool))]
    X = rng.next_u64() & M.full_mask
    Y = rng.next_u64() & M.full_mask
    rx, ry = rank_of(M, X), rank_of(M, Y)
    assert rank_of(M, X | Y) + rank_of(M, X & Y) <= rx + ry
    assert rank_of(M, X & Y) <= min(rx, ry) <= max(rx, ry) <= rank_of(M, X | Y)


@st.composite
def equal_size_families(draw):
    """A nonempty family of r-subsets of {0..n-1}, n <= 7, matroid or not."""
    n = draw(st.integers(0, 7))
    r = draw(st.integers(0, n))
    pool = [sum(1 << e for e in c) for c in itertools.combinations(range(n), r)]
    family = draw(st.sets(st.sampled_from(pool), min_size=1))
    return n, sorted(family)


def assert_table_queries_match_first_principles(M):
    """Independence, circuits, rank and closure against the basis family."""
    indep = brute_independent_sets(M.basis_masks)
    assert M.indep_masks == indep
    assert [M.is_independent(x) for x in range(1 << M.n)] == [
        x in indep for x in range(1 << M.n)
    ]
    want = brute_minimal_dependent(M.n, M.bases)
    assert M.circuit_masks == tuple(sorted(kernel.mask_of(c) for c in want))

    def brute_rank(x):
        return max((b & x).bit_count() for b in M.basis_masks)

    for x in range(1 << M.n):
        rx = brute_rank(x)
        assert rank_of(M, x) == rx
        assert closure(M, x) == {
            e for e in range(M.n) if brute_rank(x | (1 << e)) == rx
        }


def first_exchange_failure(family):
    """(b1, b2, x) of the first failed exchange in sorted order, or None."""
    fset = set(family)
    for b1 in family:
        for b2 in family:
            for x in range(b1.bit_length()):
                if not (b1 >> x) & 1 or (b2 >> x) & 1:
                    continue
                ys = [y for y in range(b2.bit_length())
                      if (b2 >> y) & 1 and not (b1 >> y) & 1]
                if all(((b1 ^ (1 << x)) | (1 << y)) not in fset for y in ys):
                    return b1, b2, x
    return None


@settings(max_examples=300, deadline=None)
@given(equal_size_families())
def test_rank_table_is_max_intersection(nf):
    n, family = nf
    M = Matroid._from_masks(n, family)
    assert isinstance(M.rank_table, bytes)
    assert list(M.rank_table) == [
        max((b & x).bit_count() for b in family) for x in range(1 << n)
    ]


@settings(max_examples=300, deadline=None)
@given(equal_size_families())
def test_from_bases_accepts_exactly_exchange_families(nf):
    n, family = nf
    failure = first_exchange_failure(family)
    if failure is None:
        M = from_bases(n, family)
        assert M.basis_masks == tuple(family)
        assert_table_queries_match_first_principles(M)
        return
    with pytest.raises(AxiomViolation) as err:
        from_bases(n, family)
    w = err.value
    # the witness re-verifies, and is the first failure in sorted order
    bases = {kernel.members(b) for b in family}
    assert w.basis1 in bases and w.basis2 in bases
    assert w.x in w.basis1 - w.basis2
    assert all(
        (w.basis1 - {w.x}) | {y} not in bases for y in w.basis2 - w.basis1
    )
    b1, b2, x = failure
    assert str(w) == (
        f"exchange fails for x={x} between "
        f"{sorted(kernel.members(b1))} and {sorted(kernel.members(b2))}"
    )


def test_table_queries_on_small_corpus(small_corpus):
    for M in small_corpus:
        assert_table_queries_match_first_principles(M)


def test_operations_closed_under_validation(small_corpus):
    # every constructively produced basis family passes full validation
    for M in small_corpus[:80]:
        assert from_bases(M.n, M.bases) == M


def test_bitmask_inputs_accepted():
    M = p3()
    assert rank_of(M, 0b000111) == rank_of(M, {0, 1, 2}) == 2
    assert closure(M, 0b000011) == {0, 1, 2}
    assert minor(M, 0b000001, 0b000010) == minor(M, {0}, {1})
    assert removal_relabeling(6, 0b001001) == removal_relabeling(6, {0, 3})


def test_compress_follows_removal_relabeling():
    # one shift and mask per run of kept elements, against the element map
    for n in range(7):
        for removed in range(1 << n):
            relabel = removal_relabeling(n, removed)
            runs = kernel._kept_runs(n, removed)
            for mask in range(1 << n):
                want = sum(1 << relabel[e] for e in relabel if (mask >> e) & 1)
                assert kernel._compress(mask, runs) == want


def test_ground_cap_on_growing_operations():
    with pytest.raises(GroundTooLarge):
        direct_sum(uniform(3, 7), uniform(3, 6))
    with pytest.raises(GroundTooLarge):
        free_extension(uniform(2, 12))
    with pytest.raises(GroundTooLarge):
        parallel_connection(uniform(3, 7), 0, uniform(3, 7), 0)


# --- lane sweeps against the per-subset references, n = 8..12 ---------------


@pytest.mark.parametrize("n", range(13))
def test_lane_members_match_find_loop(n):
    size = 1 << n
    ones = kernel._lanes(n)[0]
    cases = [0, ones, 1, 1 << (8 * (size - 1))]
    rng = corpus.SplitMix64(4099 + n)
    for sparse in (False, True, True):
        picked = 0
        for i in range(0, size, 64):
            draw = rng.next_u64()
            if sparse:
                draw &= rng.next_u64() & rng.next_u64()
            picked |= draw << i
        cases.append(
            int.from_bytes(bytes((picked >> x) & 1 for x in range(size)), "little")
        )
    for lanes in cases:
        assert kernel._lane_members(lanes, n) == brute_lane_members(lanes, n)
    assert kernel._lane_members(ones, n) == tuple(range(size))
    assert kernel._lane_members(cases[3], n) == (size - 1,)


@pytest.mark.parametrize("n", range(13))
def test_at_least_on_size_lanes(n):
    # k = 0 and k = r + 1 = 13 are read too: a loop flat has rank 0, and
    # the spanning circuits of a rank-12 matroid would have 13 elements
    ones, single, sizes = kernel._lanes(n)
    assert sizes == sum(single)
    for k in range(14):
        got = kernel._at_least(sizes, k, ones).to_bytes(1 << n, "little")
        assert got == bytes(x.bit_count() >= k for x in range(1 << n)), k


def span_count_bytes(M):
    """The cached span-count lanes of M, one byte per subset."""
    return M._span_counts.to_bytes(1 << M.n, "little")


def assert_lane_sweeps_match_references(n, family):
    """Rank table, circuits, flats and validation of one equal-size family
    against the per-subset loops of ``util``; a rejection must carry the
    first failed exchange in sorted order."""
    M = Matroid._from_masks(n, family)
    ranks = M.rank_table
    assert ranks == brute_rank_table(n, family)
    assert span_count_bytes(M) == brute_span_counts(n, ranks)
    assert M.circuit_masks == brute_circuit_masks(n, ranks)
    assert M.flat_masks == brute_flat_masks(n, ranks)
    if brute_locally_submodular(n, ranks):
        checked = from_bases(n, family)
        assert checked.basis_masks == tuple(family)
        assert span_count_bytes(checked) == span_count_bytes(M)
        return
    with pytest.raises(AxiomViolation) as err:
        from_bases(n, family)
    b1, b2, x = first_exchange_failure(family)
    assert str(err.value) == (
        f"exchange fails for x={x} between "
        f"{sorted(kernel.members(b1))} and {sorted(kernel.members(b2))}"
    )


@pytest.mark.parametrize("n", range(8, 13))
def test_lane_sweeps_on_seeded_families(n):
    # Random families of r-sets (almost never matroids), and U(r, n) less
    # one r-set (sparse paving) or two sharing r - 1 elements (no matroid),
    # so that every element's lanes, up to the shift by 2^11 bytes, decide
    # some verdict.
    rng = corpus.SplitMix64(8128 + n)
    for _ in range(4):
        r = rng.randint(1, n - 1)
        family = {rng.next_u64() & ((1 << n) - 1) for _ in range(400)}
        family = sorted(m for m in family if m.bit_count() == r)[:40]
        assert_lane_sweeps_match_references(n, family or [(1 << r) - 1])
    for close in (False, True, True):
        r = rng.randint(2, n - 2)
        pool = uniform(r, n).basis_masks
        c = pool[rng.randrange(len(pool))]
        inside = [e for e in range(n) if (c >> e) & 1]
        outside = [e for e in range(n) if not (c >> e) & 1]
        swap = (1 << inside[rng.randrange(r)]) | (1 << outside[rng.randrange(n - r)])
        removed = {c, c ^ swap} if close else {c}
        assert_lane_sweeps_match_references(
            n, [b for b in pool if b not in removed]
        )


def test_lane_sweeps_on_matroids_up_to_twelve_elements():
    spec = corpus.CorpusSpec(
        ("random-sparse-paving", "lpm-random", "random-transversal"),
        count=12,
        max_n=12,
        seed=2718,
    )
    big = [M for M in corpus.generate(spec) if M.n >= 8]
    big += [e.matroid for e in catalog_up_to(12) if e.matroid.n >= 11]
    assert {M.n for M in big} >= set(range(8, 13))
    for M in big:
        assert_lane_sweeps_match_references(M.n, list(M.basis_masks))


def test_from_bases_rejects_u612_missing_two_close_bases():
    # Two 6-sets sharing five elements are not both circuit-hyperplanes of
    # a sparse paving matroid, so removing them breaks basis exchange.
    pool = uniform(6, 12).basis_masks
    removed = {0b000000111111, 0b000001011111}
    family = [b for b in pool if b not in removed]
    assert len(family) == 922
    assert_lane_sweeps_match_references(12, family)


@pytest.mark.parametrize("n", range(6))
def test_lane_sweeps_on_every_equal_size_family_up_to_five_elements(n):
    # Every nonempty family of r-sets for every r: all accepted matroids and
    # every rejected family with its first failed exchange.
    count = 0
    for r in range(n + 1):
        pool = uniform(r, n).basis_masks
        for pick in range(1, 1 << len(pool)):
            family = [b for i, b in enumerate(pool) if (pick >> i) & 1]
            assert_lane_sweeps_match_references(n, family)
            count += 1
    if n == 5:
        assert count == 2110


@pytest.mark.parametrize("n", range(13))
def test_rank_table_at_edge_ranks(n):
    # At r = 0 and r = n the start lanes |I| are already the table; in
    # U(1, n) every lane past the singletons, and in U(n - 1, n) only the
    # ground set's, gets its rank from a max step.
    rng = corpus.SplitMix64(6007 + n)
    for r in sorted({0, 1, n - 1, n} & set(range(n + 1))):
        pool = uniform(r, n).basis_masks
        some = [b for b in pool if rng.next_u64() & 1] or [pool[-1]]
        for family in (pool, some, [pool[0]]):
            table = Matroid._from_masks(n, family).rank_table
            assert table == brute_rank_table(n, family), (r, family)


def test_span_counts_match_reference_on_catalog_and_non_matroids():
    # The counts from_bases caches as it validates, the counts computed on
    # demand, and the per-subset reference agree; on families that are no
    # matroid only the last two exist.
    for entry in catalog_up_to(12):
        M = entry.matroid
        expected = brute_span_counts(M.n, M.rank_table)
        checked = from_bases(M.n, list(M.basis_masks))
        assert "_span_counts" in vars(checked)
        assert span_count_bytes(checked) == expected, entry.name
        assert span_count_bytes(Matroid._from_masks(M.n, M.basis_masks)) == expected
    rng = corpus.SplitMix64(5113)
    rejected = 0
    for n in range(6, 13):
        for _ in range(3):
            r = rng.randint(1, n - 1)
            family = sorted({
                b for b in (rng.next_u64() & ((1 << n) - 1) for _ in range(300))
                if b.bit_count() == r
            }) or [(1 << r) - 1]
            M = Matroid._from_masks(n, family)
            assert span_count_bytes(M) == brute_span_counts(n, M.rank_table)
            if not brute_locally_submodular(n, M.rank_table):
                rejected += 1
    assert rejected >= 10


def test_validation_and_flat_reads_share_one_rank_step_sweep(monkeypatch):
    # from_bases computes the rank steps once; the flats and the structural
    # recognizer then read the span counts it cached.
    calls = []
    steps = kernel._rank_steps

    def counted(M):
        calls.append(M)
        return steps(M)

    monkeypatch.setattr(kernel, "_rank_steps", counted)
    for pres in (
        IntervalPresentation(12, ((0, 5), (2, 8), (4, 11))),
        IntervalPresentation(8, ((0, 3), (1, 5), (4, 7))),
    ):
        M = from_bases(pres.n, realize(pres).basis_masks)
        assert is_connected(M)
        assert M.flat_masks == brute_flat_masks(M.n, M.rank_table)
        assert lpm.is_lpm_char(M).verdict
        assert calls == [M]
        calls.clear()
