from __future__ import annotations

import itertools
import random

import pytest

import util
from latmat import corpus, ordersearch
from latmat._canonical import _clone_steps
from latmat.catalog import catalog_up_to
from latmat.kernel import contract, delete, from_bases, uniform
from latmat.lpm import IntervalPresentation, realize
from test_properties import random_presentations
from util import (
    brute_clone_classes,
    brute_independent_sets,
    brute_scan_path_orders,
    memo_scan_path_orders,
    p3_bases,
)

# Seeded corpora for the comparisons with the memoized reference: the
# theorem-reject spec (n <= 8, mostly exhausted scans) and mixed draws up
# to the ground-set cap.
SEEDED_SPECS = (
    "random-sparse-paving,duals-closure,count=300,max-n=8,seed=20261017",
    "random-sparse-paving,lpm-random,random-transversal,"
    "count=12,max-n=12,seed=2718",
)


def test_transversal_count_against_enumeration():
    cases = [
        (6, (0, 1, 3), (2, 4, 5)),
        (6, (0, 2), (3, 5)),
        (5, (0,), (4,)),
        (4, (), ()),
    ]
    for n, a, b in cases:
        expected = sum(
            1
            for xs in itertools.combinations(range(n), len(a))
            if all(a[i] <= xs[i] <= b[i] for i in range(len(a)))
        )
        assert ordersearch.transversal_count(n, a, b) == expected


def test_scan_returns_lex_least():
    U = uniform(2, 4)
    got = ordersearch.scan_path_orders(
        U.n, U.num_bases, U.rank_table, U._clone_steps
    )
    assert got == ((0, 1, 2, 3), ((0, 2), (1, 3)))


def test_scan_rank_zero_and_empty():
    M = uniform(0, 0)
    got = ordersearch.scan_path_orders(0, M.num_bases, M.rank_table, ())
    assert got == ((), ())


def test_scan_intervals_match_p3():
    M = from_bases(6, p3_bases())
    got = ordersearch.scan_path_orders(
        M.n, M.num_bases, M.rank_table, M._clone_steps
    )
    assert got == ((0, 1, 2, 3, 4, 5), ((0, 2), (1, 4), (3, 5)))


def _assert_scan_matches_brute_force(M):
    got = ordersearch.scan_path_orders(
        M.n, M.num_bases, M.rank_table, M._clone_steps
    )
    want = brute_scan_path_orders(
        M.n, M.rank, M.basis_masks, brute_independent_sets(M.basis_masks)
    )
    assert got == want, M


def test_scan_matches_brute_force_on_small_corpus(small_corpus):
    for M in small_corpus:
        _assert_scan_matches_brute_force(M)


def test_scan_matches_brute_force_on_shuffled_presentations():
    for P in random_presentations(80, 8, seed=4411, shuffled_orders=True):
        _assert_scan_matches_brute_force(realize(P))


def test_scan_matches_brute_force_on_catalog_and_minors():
    for entry in catalog_up_to(8):
        M = entry.matroid
        _assert_scan_matches_brute_force(M)
        for e in range(M.n):
            _assert_scan_matches_brute_force(delete(M, (e,)))
            _assert_scan_matches_brute_force(contract(M, (e,)))


def _assert_scan_matches_memo_scan(M, monkeypatch):
    """Same ``(order, intervals)`` or None as the memoized reference, and
    the same number of complete orders tested: clone-sorting an order
    applies automorphisms, which keep its endpoint sequences, so the
    clone-sorted walk meets every endpoint pair the full walk meets before
    its answer."""
    tested = {"scan": 0, "memo": 0}

    def counting(key, count):
        def wrapped(*args):
            tested[key] += 1
            return count(*args)

        return wrapped

    count = ordersearch.transversal_count
    monkeypatch.setattr(
        ordersearch, "transversal_count", counting("scan", count)
    )
    monkeypatch.setattr(util, "transversal_count", counting("memo", count))
    got = ordersearch.scan_path_orders(
        M.n, M.num_bases, M.rank_table, M._clone_steps
    )
    want = memo_scan_path_orders(M.n, M.basis_masks, M.rank_table)
    monkeypatch.undo()
    assert got == want, M
    assert tested["scan"] == tested["memo"], M
    return got


def test_scan_matches_memo_scan_on_catalog(monkeypatch):
    # up to 12 elements, where the permutation reference cannot reach
    members = [entry.matroid for entry in catalog_up_to(12)]
    assert max(M.n for M in members) == 12
    for M in members:
        _assert_scan_matches_memo_scan(M, monkeypatch)


@pytest.mark.parametrize("text", SEEDED_SPECS)
def test_scan_matches_memo_scan_on_seeded_corpora(text, monkeypatch):
    found = [0, 0]
    for M in corpus.generate(corpus.parse_corpus_spec(text)):
        found[_assert_scan_matches_memo_scan(M, monkeypatch) is None] += 1
    assert min(found) > 0  # both verdicts occur


def test_scan_matches_memo_scan_on_small_corpus(small_corpus, monkeypatch):
    for M in small_corpus:
        _assert_scan_matches_memo_scan(M, monkeypatch)


def test_scan_matches_memo_scan_on_catalog_minors(monkeypatch):
    for entry in catalog_up_to(8):
        M = entry.matroid
        _assert_scan_matches_memo_scan(M, monkeypatch)
        for e in range(M.n):
            _assert_scan_matches_memo_scan(delete(M, (e,)), monkeypatch)
            _assert_scan_matches_memo_scan(contract(M, (e,)), monkeypatch)


def _reference_lower_clones(M) -> list[int]:
    """Each element's next-lower clone as a bit, or 0, from the reference
    clone classes."""
    classes = brute_clone_classes(M.n, M.basis_masks)
    lower = [0] * M.n
    for f in range(M.n):
        below = [e for e in range(f) if classes[e] == classes[f]]
        if below:
            lower[f] = 1 << below[-1]
    return lower


def test_lower_clones_match_reference_classes(small_corpus):
    """The clone steps the scan reads (``_canonical._clone_steps``) give
    each element's next-lower clone from the reference classes."""
    hosts = list(small_corpus) + [entry.matroid for entry in catalog_up_to(12)]
    hosts += [
        realize(P)
        for P in random_presentations(40, 10, seed=77, shuffled_orders=True)
    ]
    with_clones = 0
    for M in hosts:
        lower = [0] * M.n
        for upper, low in _clone_steps(M.n, M.basis_masks):
            lower[upper.bit_length() - 1] = low
        assert lower == _reference_lower_clones(M), M
        with_clones += any(lower)
    # not met vacuously: some hosts have clones and some have none
    assert 0 < with_clones < len(hosts)


def test_every_basis_fits_every_orders_greedy_intervals():
    """The lemma the scan's leaf test rests on: under any order, every basis
    fits the greedy intervals position by position, since |B & P_p| <=
    r(P_p) and |B - P_p| <= r(E - P_p).  The bases are then among the
    candidate's transversals, so an equal count means the candidate
    realizes M."""
    spec = corpus.parse_corpus_spec(
        "random-transversal,random-sparse-paving,lpm-random,duals-closure,"
        "count=40,max-n=9,seed=35"
    )
    hosts = corpus.generate(spec) + [e.matroid for e in catalog_up_to(9)]
    rng = random.Random(35)
    checked = accepted = 0
    for M in hosts:
        ranks = M.rank_table
        for _ in range(20):
            order = list(range(M.n))
            rng.shuffle(order)
            prefixes = [0]
            for e in order:
                prefixes.append(prefixes[-1] | 1 << e)
            co_prefixes = [M.full_mask ^ x for x in prefixes]
            a = [
                p for p in range(M.n)
                if ranks[prefixes[p + 1]] > ranks[prefixes[p]]
            ]
            b = [
                p for p in range(M.n)
                if ranks[co_prefixes[p]] > ranks[co_prefixes[p + 1]]
            ]
            assert len(a) == len(b) == M.rank
            for basis in M.basis_masks:
                positions = [p for p, e in enumerate(order) if basis >> e & 1]
                assert all(
                    lo <= p <= hi for p, lo, hi in zip(positions, a, b)
                ), (M, order, basis)
            checked += 1
            if ordersearch.transversal_count(M.n, a, b) == M.num_bases:
                accepted += 1
                P = IntervalPresentation(M.n, tuple(zip(a, b)), tuple(order))
                assert realize(P).basis_masks == M.basis_masks, (M, order)
    assert 0 < accepted < checked
