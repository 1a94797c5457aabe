from __future__ import annotations

import itertools

import pytest

from latmat import corpus
from latmat.catalog import build_by_name, catalog_up_to, e_n, p_n, whirl3, wheel3
from latmat.kernel import (
    GroundTooLarge,
    _bases_by_trace,
    _minor_masks,
    _surviving_bases,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    is_isomorphic,
    members,
    minor,
    rank_of,
    uniform,
)
from latmat.lpm import IntervalPresentation, realize
from latmat.minors import (
    MinorWitness,
    _degree_multiset,
    find_catalog_minor,
    has_minor,
    is_lpm_via_excluded_minors,
    theorem_check,
)
from util import brute_find_catalog_minor, brute_minor_masks, spanning_trees_k4


def wheel():
    return from_bases(6, spanning_trees_k4())


def test_has_minor_wheel_u23():
    W = wheel()
    pattern = uniform(2, 3)
    w = has_minor(W, pattern)
    assert w is not None
    assert w.replay(W, pattern)
    got = minor(W, w.delete, w.contract)
    assert is_isomorphic(got, pattern) is not None


def test_has_minor_absent():
    assert has_minor(uniform(2, 4), p_n(2)) is None


def test_has_minor_identity():
    M = wheel()
    w = has_minor(M, M)
    assert w is not None and w.delete == frozenset() and w.contract == frozenset()
    assert w.replay(M, M)


def test_has_minor_size_guard():
    with pytest.raises(GroundTooLarge):
        has_minor(uniform(2, 4), uniform(3, 5))


def test_find_catalog_minor_examples():
    w = find_catalog_minor(direct_sum(wheel3(), uniform(1, 1)))
    assert w is not None and w.pattern_name == "W3"
    assert w.delete == frozenset({6}) and w.contract == frozenset()
    assert find_catalog_minor(p_n(4)) is None
    w_e4 = find_catalog_minor(e_n(4))
    assert w_e4 is not None and w_e4.pattern_name == "E4"
    assert w_e4.delete == frozenset() and w_e4.contract == frozenset()
    # deleting the coloop 0 lowers the rank, and that split is the witness
    w = find_catalog_minor(direct_sum(uniform(1, 1), build_by_name("B3,2")))
    assert (w.pattern_name, w.delete, w.contract) == (
        "B3,2", frozenset({0}), frozenset()
    )


def test_is_lpm_via_excluded_minors():
    assert is_lpm_via_excluded_minors(uniform(3, 7))
    assert not is_lpm_via_excluded_minors(whirl3())
    assert is_lpm_via_excluded_minors(
        realize(IntervalPresentation(6, ((0, 3), (2, 5))))
    )


def test_minor_witness_replay_detects_wrong_sets():
    W = wheel()
    pattern = uniform(2, 3)
    good = has_minor(W, pattern)
    assert good.replay(W, pattern)
    resized = MinorWitness(
        good.pattern_name, good.delete | good.contract, frozenset(), good.iso
    )
    assert not resized.replay(W, pattern) or minor(
        W, resized.delete, resized.contract
    ).mask_set == minor(W, good.delete, good.contract).mask_set


def test_minor_witness_replay_rejects_false_certificates():
    host = uniform(1, 2)
    pattern = from_bases(2, [[0]])  # U1,1 + U0,1, not a minor of U1,2
    for witness in (
        # iso is not one-to-one
        MinorWitness("x", frozenset(), frozenset(), {0: 0, 1: 0}),
        # delete and contract overlap
        MinorWitness("x", frozenset({0}), frozenset({0}), {0: 0}),
        # iso misses element 1
        MinorWitness("x", frozenset(), frozenset(), {0: 0}),
        # element 5 is not in the host
        MinorWitness("x", frozenset({5}), frozenset(), {0: 0, 1: 1}),
    ):
        assert witness.replay(host, pattern) is False, witness


def test_theorem_check_single_members():
    rep = theorem_check([wheel3()], corpus_label="w3")
    assert rep.total == 1 and rep.lpm_count == 0 and rep.ok
    rep2 = theorem_check([uniform(2, 4)], corpus_label="u24")
    assert rep2.total == 1 and rep2.lpm_count == 1 and rep2.ok


def test_theorem_check_caps_ground_size():
    with pytest.raises(GroundTooLarge):
        theorem_check([uniform(2, 10)])


def test_theorem_check_json_stable():
    rep = theorem_check([wheel3(), uniform(2, 4)], corpus_label="pair")
    a = rep.to_json()
    rep2 = theorem_check([wheel3(), uniform(2, 4)], corpus_label="pair")
    assert a == rep2.to_json()
    assert '"disagreements":[]' in a


def test_minor_duality_spot():
    # minor containment respects duality
    host = e_n(4)
    pattern = p_n(2)
    fwd = has_minor(host, pattern)
    bwd = has_minor(dual(host), dual(pattern))
    assert (fwd is None) == (bwd is None)


def test_minor_search_at_ten_elements():
    host = direct_sum(wheel3(), uniform(2, 4))
    w = find_catalog_minor(host)
    assert w is not None and w.pattern_name == "W3"
    assert w.delete == frozenset({6, 7, 8, 9}) and w.contract == frozenset()
    lpm_host = direct_sum(p_n(2), uniform(3, 6))
    assert is_lpm_via_excluded_minors(lpm_host)


def test_minor_transitivity_spot():
    A = direct_sum(wheel3(), uniform(1, 1))
    B = wheel3()
    C = uniform(2, 3)
    assert has_minor(A, B) is not None
    assert has_minor(B, C) is not None
    assert has_minor(A, C) is not None


def test_split_rank_is_rank_of_minor(small_corpus):
    # has_minor skips a split on r(E - delete) - r(contract) before building
    # its bases; that must be the rank of host / contract \ delete.  It then
    # filters on the surviving bases: their number and their degrees over
    # the kept elements must be the built minor's, whether or not the
    # deletion lowered the rank
    rank_drops = 0
    for host in small_corpus:
        ranks = host.rank_table
        full = host.full_mask
        for size in (1, 2):
            for removed in itertools.combinations(range(host.n), size):
                rm = sum(1 << e for e in removed)
                by_trace = _bases_by_trace(host, rm)
                cm = rm
                while True:
                    dm = rm ^ cm
                    new_n, masks = _minor_masks(host, dm, cm)
                    assert ranks[full ^ dm] - ranks[cm] == masks[0].bit_count()
                    survivors = _surviving_bases(host, by_trace, dm, cm)
                    assert len(survivors) == len(masks)
                    assert _degree_multiset(
                        members(full ^ rm), survivors
                    ) == _degree_multiset(range(new_n), masks)
                    rank_drops += ranks[full ^ dm] < host.rank
                    if cm == 0:
                        break
                    cm = (cm - 1) & rm
    assert rank_drops > 0


def test_minor_masks_match_brute_force(small_corpus):
    hosts = list(small_corpus) + [e.matroid for e in catalog_up_to(8)]
    for M in hosts:
        for removed in range(1 << M.n):
            sub = removed
            while True:
                split = (M, removed ^ sub, sub)
                assert _minor_masks(*split) == brute_minor_masks(*split), split
                if sub == 0:
                    break
                sub = (sub - 1) & removed


def _witness_key(w):
    return None if w is None else (w.pattern_name, w.delete, w.contract, w.iso)


def assert_catalog_search_matches_brute_force(hosts):
    for M in hosts:
        assert _witness_key(find_catalog_minor(M)) == brute_find_catalog_minor(
            M
        ), M


def test_catalog_search_matches_brute_force_on_small_corpus(small_corpus):
    assert_catalog_search_matches_brute_force(small_corpus)


def test_catalog_search_matches_brute_force_on_catalog_and_minors():
    hosts = []
    for entry in catalog_up_to(9):
        M = entry.matroid
        hosts.append(M)
        for e in range(M.n):
            hosts += [delete(M, (e,)), contract(M, (e,))]
    # beside a coloop, the first witness may delete it: a split whose
    # deletion lowers the rank, which the search must not skip
    coloop_sums = [direct_sum(uniform(1, 1), e.matroid) for e in catalog_up_to(8)]
    assert_catalog_search_matches_brute_force(hosts + coloop_sums)
    assert any(
        rank_of(M, set(range(M.n)) - w.delete) < M.rank
        for M in coloop_sums
        for w in [find_catalog_minor(M)]
    )


def test_catalog_search_matches_brute_force_on_sparse_paving():
    # seed 9 reaches A4, so the passes of sizes 6 and 7 run to the end;
    # seed 37 has hosts with no catalog minor at all
    hosts = [
        M
        for seed in (9, 37)
        for M in corpus.generate(corpus.parse_corpus_spec(
            f"random-sparse-paving,count=10,max-n=10,seed={seed}"
        ))
        if M.n >= 9
    ]
    assert len(hosts) >= 8
    assert_catalog_search_matches_brute_force(hosts)


def test_multi_pattern_call_is_first_single_hit(small_corpus):
    groups = [
        [e.matroid for e in catalog_up_to(7) if e.matroid.n == size]
        for size in (6, 7)
    ]
    # mixed ranks, and an isomorphic pair: the earlier one must win
    groups.append([
        uniform(1, 4),
        direct_sum(uniform(1, 2), uniform(1, 2)),
        uniform(2, 4),
        dual(uniform(2, 4)),
    ])
    for M in small_corpus:
        for group in groups:
            if group[0].n > M.n:
                continue
            singles = [has_minor(M, p) for p in group]
            multi = has_minor(M, *group)
            hits = [(i, w) for i, w in enumerate(singles) if w is not None]
            if not hits:
                assert multi is None
                continue
            i, w = hits[0]
            name = str(i) if len(group) > 1 else "?"
            assert _witness_key(multi) == (name, w.delete, w.contract, w.iso)


def test_has_minor_patterns_share_one_size():
    with pytest.raises(ValueError):
        has_minor(uniform(2, 6), uniform(2, 4), uniform(2, 5))
