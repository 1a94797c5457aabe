"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The corpus spec is fixed (seeded) so every number here is reproducible.
"""

from __future__ import annotations

import time

import pytest

from latmat import corpus, flats
from latmat.catalog import (
    a_n,
    b_nk,
    c_nk,
    catalog_up_to,
    e_n,
    p_n,
    p_prime_n,
    wheel3,
    whirl3,
)
from latmat.kernel import (
    AxiomViolation,
    canonical_form,
    circuits,
    delete,
    dual,
    free_coextension,
    from_bases,
    is_connected,
    is_isomorphic,
    rank_of,
    uniform,
)
from latmat.lpm import (
    contract_presentation,
    delete_terminal_presentation,
    fundamental_flats_from_presentation,
    is_lpm_char,
    is_nested,
    is_nested_via_pn,
    presentation_connected,
    realize,
    theorem_check,
    verify_excluded_minor,
)
from latmat.kernel import contract
from test_properties import random_presentations

ACCEPT_SPEC = (
    "catalog-minors,random-transversal,lpm-random,duals-closure,"
    "count=600,max-n=8,seed=20260808"
)

EXPECTED_CATALOG = [
    "A3", "B2,2", "C4,2", "W3", "Whirl3", "R3", "R4",
    "A4", "B3,2", "C5,2", "D4", "E4",
]


@pytest.fixture(scope="module")
def theorem_run():
    spec = corpus.parse_corpus_spec(ACCEPT_SPEC)
    t0 = time.perf_counter()
    tagged = corpus.generate_tagged(spec)
    report = theorem_check(
        [m for _, m in tagged], corpus_label=spec.label
    )
    elapsed = time.perf_counter() - t0
    return spec, tagged, report, elapsed


def test_criterion_1_catalog_minimality():
    t0 = time.perf_counter()
    entries = catalog_up_to(8)
    assert [e.name for e in entries] == EXPECTED_CATALOG
    failures = []
    for entry in entries:
        rep = verify_excluded_minor(entry.matroid, name=entry.name)
        if not rep.passed:
            failures.append(entry.name)
    elapsed = time.perf_counter() - t0
    assert not failures, f"not minor-minimal: {failures}"
    assert elapsed < 600, f"criterion 1 runtime {elapsed:.1f}s exceeds 10 minutes"
    print(f"criterion 1: PASS - all {len(entries)} catalog members are "
          f"excluded minors ({elapsed:.1f}s)")


def test_criterion_2_theorem_equivalence(theorem_run):
    spec, tagged, report, elapsed = theorem_run
    assert spec.count >= 500  # draws per randomized generator
    sources = {}
    for src, _ in tagged:
        sources[src] = sources.get(src, 0) + 1
    # the corpus covers all catalog minors, both random pools, and duals
    assert set(sources) == {
        "catalog-minors", "random-transversal", "lpm-random", "duals-closure"
    }
    members = {canonical_form(m) for _, m in tagged}
    for entry in catalog_up_to(8):
        assert canonical_form(entry.matroid) in members
    assert all(m.n <= 8 for _, m in tagged)
    assert report.total == len(tagged)
    assert report.ok, f"recognizers disagree: {report.disagreements[:3]}"
    assert elapsed < 1800, f"criterion 2 runtime {elapsed:.1f}s exceeds 30 minutes"
    print(f"criterion 2: PASS - zero disagreements across {report.total} "
          f"distinct matroids (draws per random source: {spec.count}; "
          f"distinct: {sources}; {elapsed:.1f}s)")


def test_criterion_3_exact_counts():
    assert wheel3().num_bases == 16
    assert whirl3().num_bases == 17
    assert p_n(3).num_bases == 18
    assert p_prime_n(3).num_bases == 8
    assert b_nk(2, 2).num_bases == 12
    print("criterion 3: PASS - basis counts 16/17/18/8/12 all exact")


def test_criterion_4_construction_equivalences():
    for n in (3, 4, 5):
        assert is_isomorphic(p_prime_n(n), free_coextension(p_n(n - 1))) is not None
    for n in (3, 4):
        A = a_n(n)
        assert is_isomorphic(A, dual(A)) is not None
    E4 = e_n(4)
    pair = sorted(next(c for c in circuits(E4) if len(c) == 2))
    assert is_isomorphic(delete(E4, {pair[1]}), p_prime_n(4)) is not None
    for n, k in ((2, 2), (3, 2)):
        C = c_nk(n, k)
        r = C.rank
        nontrivial = [
            h for h in flats.all_flats(C)
            if rank_of(C, h) == r - 1 and len(h) > r - 1
        ]
        assert len(nontrivial) == 3
        h1, h2, h3 = nontrivial
        X, Y, Z = h1 & h2, h1 & h3, h2 & h3
        assert sorted(map(len, (X, Y, Z))) == sorted((n, n, k))
        assert (X | Y | Z) == frozenset(range(C.n))
        assert not (X & Y or X & Z or Y & Z)
        assert sum(1 for h in nontrivial if h in circuits(C)) == (
            3 if n == k else 2
        )
    print("criterion 4: PASS - construction equivalences and hyperplane "
          "structure verified by exact isomorphism")


def test_criterion_5_presentation_algebra():
    presentations = random_presentations(
        160, 9, seed=50881, shuffled_orders=True
    ) + random_presentations(60, 9, seed=50882, connected_only=True)
    assert len(presentations) >= 200
    checked_fund = 0
    for P in presentations:
        M = realize(P)
        for y in range(P.n):
            if (M.loops_mask >> y) & 1:
                continue
            assert realize(contract_presentation(P, y)) == contract(M, {y})
        first, last = P.order[0], P.order[-1]
        if not (M.loops_mask >> first) & 1:
            assert realize(delete_terminal_presentation(P, "first")) == delete(M, {first})
        if not (M.loops_mask >> last) & 1:
            assert realize(delete_terminal_presentation(P, "last")) == delete(M, {last})
        connected = presentation_connected(P)
        assert connected == is_connected(M)
        if connected:
            expected = {(f, rank_of(M, f)) for f in flats.fundamental_flats(M)}
            assert fundamental_flats_from_presentation(P) == expected
            checked_fund += 1
    print(f"criterion 5: PASS - presentation algebra exact on "
          f"{len(presentations)} presentations ({checked_fund} connected)")


def test_criterion_6_duality_suite(theorem_run):
    _, tagged, _, _ = theorem_run
    connected_lpms = 0
    for _, M in tagged:
        E = frozenset(range(M.n))
        assert flats.cyclic_flats(dual(M)) == {
            E - f for f in flats.cyclic_flats(M)
        }
        if is_connected(M) and is_lpm_char(M).verdict:
            connected_lpms += 1
            assert flats.fundamental_flats(dual(M)) == {
                E - f for f in flats.fundamental_flats(M)
            }
    print(f"criterion 6: PASS - cyclic-flat complementation on "
          f"{len(tagged)} matroids, fundamental-flat complementation on "
          f"{connected_lpms} connected members")


def test_criterion_7_nested_cross_check(theorem_run):
    _, tagged, _, _ = theorem_run
    for _, M in tagged:
        assert is_nested(M) == is_nested_via_pn(M)
    print(f"criterion 7: PASS - chain test equals excluded-minor test on "
          f"{len(tagged)} matroids")


def test_criterion_8_negative_validation():
    non_matroids = [
        (4, [{0, 1}, {2, 3}]),
        (5, [{0, 1, 2}, {0, 3, 4}, {1, 3, 4}]),
        (6, [{0, 1}, {2, 3}, {4, 5}]),
    ]
    for n, family in non_matroids:
        with pytest.raises(AxiomViolation) as err:
            from_bases(n, family)
        w = err.value
        fam = {frozenset(b) for b in family}
        assert w.basis1 in fam and w.basis2 in fam and w.x in w.basis1
        repaired = [(w.basis1 - {w.x}) | {y} for y in w.basis2 - w.basis1]
        assert all(r not in fam for r in repaired)
    print("criterion 8: PASS - three non-matroids rejected with verified "
          "exchange-failure witnesses")


def test_criterion_9_reproducibility(theorem_run):
    spec, _, report, _ = theorem_run
    spec2 = corpus.parse_corpus_spec(ACCEPT_SPEC)
    matroids2 = corpus.generate(spec2)
    report2 = theorem_check(matroids2, corpus_label=spec2.label)
    assert report.to_json().encode() == report2.to_json().encode()
    print("criterion 9: PASS - same-seed reruns produce byte-identical "
          "JSON reports")
