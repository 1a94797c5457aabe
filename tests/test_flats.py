from __future__ import annotations

import pytest

from latmat import corpus, lpm
from latmat.catalog import a_n, catalog_up_to
from latmat.flats import (
    FlatsReport,
    HasLoops,
    NotPncFlat,
    _fundamental_masks,
    _pnc_masks,
    all_flats,
    connected_flats_signature,
    cyclic_flats,
    flats_report,
    fundamental_flats,
    irreducible_pnc_flats,
    pnc_flats,
    reducible,
)
from latmat.kernel import (
    closure,
    direct_sum,
    dual,
    from_bases,
    rank_of,
    restrict,
    spanning_circuits,
    uniform,
)
from latmat.lpm import IntervalPresentation, realize
from util import (
    brute_components_within,
    brute_fundamental_masks,
    brute_pnc_masks,
    p3_bases,
    spanning_trees_k4,
)


def p3():
    return from_bases(6, p3_bases())


def wheel():
    return from_bases(6, spanning_trees_k4())


TRIANGLES = [
    frozenset({0, 1, 2}),
    frozenset({0, 3, 4}),
    frozenset({1, 4, 5}),
    frozenset({2, 3, 5}),
]


def test_all_flats_u24():
    U = uniform(2, 4)
    expected = {frozenset()} | {frozenset({e}) for e in range(4)} | {frozenset(range(4))}
    assert all_flats(U) == expected


def test_all_flats_p3():
    fl = all_flats(p3())
    assert frozenset({0, 1, 2}) in fl and frozenset({3, 4, 5}) in fl
    assert rank_of(p3(), {0, 1, 2}) == 2
    # closure fixed points, cross-checked independently
    M = p3()
    for f in fl:
        assert closure(M, f) == f


def test_all_flats_free():
    assert len(all_flats(uniform(3, 3))) == 8


def test_cyclic_flats():
    U = uniform(2, 4)
    assert cyclic_flats(U) == {frozenset(), frozenset(range(4))}
    M = p3()
    assert cyclic_flats(M) == {
        frozenset(),
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
        frozenset(range(6)),
    }


def test_cyclic_flats_duality():
    for M in (p3(), wheel(), uniform(2, 5)):
        E = frozenset(range(M.n))
        assert cyclic_flats(dual(M)) == {E - f for f in cyclic_flats(M)}


def test_pnc_flats():
    assert pnc_flats(p3()) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert pnc_flats(uniform(2, 4)) == frozenset()
    assert pnc_flats(wheel()) == set(TRIANGLES)


def test_reducible():
    assert not reducible(p3(), {0, 1, 2})
    for t in TRIANGLES:
        assert not reducible(wheel(), t)
    with pytest.raises(NotPncFlat):
        reducible(p3(), {0, 1})


def test_irreducible_pnc_flats_two_circuit_example():
    M = realize(IntervalPresentation(6, ((0, 3), (2, 5))))
    assert irreducible_pnc_flats(M) == {frozenset({0, 1}), frozenset({4, 5})}
    assert pnc_flats(M) == {frozenset({0, 1}), frozenset({4, 5})}


def test_fundamental_flats_examples():
    M = p3()
    assert fundamental_flats(M) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    # the witnessing spanning circuit from the flats definition
    assert frozenset({0, 1, 3, 4}) in spanning_circuits(M)
    assert fundamental_flats(wheel()) == set(TRIANGLES)
    assert fundamental_flats(uniform(2, 4)) == frozenset()


def test_connected_flats_signature():
    sig = connected_flats_signature(p3())
    assert sig == [
        (frozenset({0, 1, 2}), 2),
        (frozenset({3, 4, 5}), 2),
        (frozenset(range(6)), 3),
    ]
    assert connected_flats_signature(uniform(2, 4)) == [(frozenset(range(4)), 2)]
    loopy = from_bases(2, [{1}])
    with pytest.raises(HasLoops):
        connected_flats_signature(loopy)


def test_flats_report_structure():
    M = p3()
    report = flats_report(M)
    assert isinstance(report, FlatsReport)
    by_flat = {e.flat: e for e in report.entries}
    assert set(by_flat) == all_flats(M)
    for entry in report.entries:
        assert entry.nullity == len(entry.flat) - entry.rank
        if entry.is_fundamental:
            assert entry.is_pnc
        if entry.is_pnc:
            assert entry.flat != frozenset(range(M.n))
            assert entry.nullity > 0
    tri = by_flat[frozenset({0, 1, 2})]
    assert tri.is_pnc and tri.is_cyclic and tri.is_fundamental and not tri.is_reducible


def test_flats_report_reducible_flag():
    # overlapping prefix/suffix flats whose meet is a parallel pair
    M = realize(IntervalPresentation(6, ((0, 1), (1, 4), (4, 5))))
    report = flats_report(M)
    reducibles = {e.flat for e in report.entries if e.is_reducible}
    pncs = {e.flat for e in report.entries if e.is_pnc}
    fund = {e.flat for e in report.entries if e.is_fundamental}
    assert fund == {frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5})}
    assert reducibles == {frozenset({2, 3})}
    assert pncs == fund | reducibles
    assert reducible(M, {2, 3})


def _separator_free(M, F):
    """Connectivity of M|F by definition: no nonempty proper S with
    r(S) + r(F - S) = r(F).  S ranges over sets holding F's least element,
    which covers every split once."""
    fm = sum(1 << e for e in F)
    if fm & (fm - 1) == 0:
        return True
    low = fm & -fm
    rest = fm ^ low
    rf = rank_of(M, fm)
    sub = rest
    while True:
        s = sub | low
        if s != fm and rank_of(M, s) + rank_of(M, fm ^ s) == rf:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def test_flats_report_flags_match_enumerators(small_corpus):
    for M in small_corpus:
        entries = flats_report(M).entries

        def flagged(attr):
            return {e.flat for e in entries if getattr(e, attr)}

        pncs = pnc_flats(M)
        assert flagged("is_pnc") == pncs
        assert flagged("is_fundamental") == fundamental_flats(M)
        assert flagged("is_reducible") == pncs - irreducible_pnc_flats(M)
        assert flagged("is_cyclic") == cyclic_flats(M)
        for e in entries:
            assert e.is_connected == _separator_free(M, e.flat), (M, e.flat)


def test_flats_report_connected_flag_matches_circuits():
    # the report reads a proper flat's connectivity off the pnc-flats and
    # its independence; joining the circuits inside it must agree
    for entry in catalog_up_to(10):
        M = entry.matroid
        for e in flats_report(M).entries:
            fm = sum(1 << x for x in e.flat)
            assert e.is_connected == (len(brute_components_within(M, fm)) <= 1), (
                entry.name, e.flat,
            )


# --- pnc-flats and fundamental flats read off the lanes ----------------------


def _checked_components(M):
    """Each component that is not a loop, M itself when M is connected.
    ``is_lpm_char`` reads ``M._parts``, which leaves out the coloops too
    (U1,1 has no dependent proper flat, so it passes every clause); they
    stay here so the pnc and fundamental-flat references see them."""
    return [
        M if c == M.full_mask else restrict(M, c)
        for c in M.component_masks
        if not c & M.loops_mask
    ]


def test_pnc_and_fundamental_reads_match_references(small_corpus):
    spec = corpus.CorpusSpec(
        ("random-sparse-paving", "lpm-random", "random-transversal"),
        count=12,
        max_n=12,
        seed=2718,
    )
    hosts = list(small_corpus) + [e.matroid for e in catalog_up_to(12)]
    hosts += corpus.generate(spec)
    assert max(M.n for M in hosts) == 12
    found = [0, 0]
    for host in hosts:
        for M in [host, *_checked_components(host)]:
            pncs = _pnc_masks(M)
            assert pncs == brute_pnc_masks(M), M
            fund = _fundamental_masks(M, pncs)
            assert fund == brute_fundamental_masks(M, pncs), M
            found[0] += len(pncs)
            found[1] += len(fund)
    # the references are not met vacuously: pnc-flats that are not
    # fundamental and fundamental ones both occur
    assert found[0] > found[1] > 0


def test_pnc_and_fundamental_reads_with_loops():
    # U1,2 + U0,1: the loop alone is a rank-0 pnc-flat, and the spanning
    # circuit {0, 1} meets it in its empty basis
    M = direct_sum(uniform(1, 2), uniform(0, 1))
    assert _pnc_masks(M) == brute_pnc_masks(M) == (0b100,)
    assert _fundamental_masks(M, (0b100,)) == brute_fundamental_masks(
        M, (0b100,)
    ) == (0b100,)
    # U0,2 + U2,4: the two loops and each loop pair plus one point are
    # dependent proper flats, none of them connected
    M = direct_sum(uniform(0, 2), uniform(2, 4))
    assert _pnc_masks(M) == brute_pnc_masks(M) == ()
    # a lone loop is the ground set, not a proper flat
    assert _pnc_masks(uniform(0, 1)) == brute_pnc_masks(uniform(0, 1)) == ()


def test_pnc_reads_with_one_or_more_loops(tiny_corpus):
    # loops added after and before each host: with one loop in all it is
    # the one pnc-flat, unless it is the whole ground set, and with two or
    # more there is none
    hosts = list(tiny_corpus) + [e.matroid for e in catalog_up_to(8)]
    seen = set()
    for host in hosts:
        for k in (1, 2, 3):
            for M in (
                direct_sum(host, uniform(0, k)),
                direct_sum(uniform(0, k), host),
            ):
                pncs = _pnc_masks(M)
                assert pncs == brute_pnc_masks(M), (host, k)
                loops = M.loops_mask.bit_count()
                lone = loops == 1 and M.n > 1  # a proper flat
                assert pncs == ((M.loops_mask,) if lone else ()), (host, k)
                seen.add(min(loops, 2))
    assert seen == {1, 2}


def test_recognizer_lists_no_flat_or_circuit():
    # The structural recognizer and the nestedness test read pnc-flats and
    # fundamental flats off the lanes; unpacking every flat or circuit
    # would cache ``flat_masks`` or ``circuit_masks`` on the matroid.
    u612 = uniform(6, 12).basis_masks
    sparse_paving = [b for b in u612 if b not in (0b000000111111, 0b111111000000)]
    for bases in (u612, a_n(6).basis_masks, sparse_paving):
        M = from_bases(12, bases)
        lpm.is_lpm_char(M)
        lpm.is_nested(M)
        assert "flat_masks" not in vars(M)
        assert "circuit_masks" not in vars(M)
