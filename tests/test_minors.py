from __future__ import annotations

import itertools

import pytest

from latmat import _canonical, corpus, kernel
from latmat.catalog import build_by_name, catalog_up_to, e_n, p_n, whirl3, wheel3
from latmat.kernel import (
    GroundTooLarge,
    _bases_by_trace,
    _minor_masks,
    _split_trace,
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
from latmat.lpm import (
    IntervalPresentation,
    find_path_order,
    is_lpm_char,
    realize,
    theorem_check,
)
from latmat.minors import (
    MinorWitness,
    _degree_multiset,
    find_catalog_minor,
    has_minor,
    is_lpm_via_excluded_minors,
)
from util import (
    brute_clone_classes,
    brute_find_catalog_minor,
    brute_has_minor,
    brute_minor_masks,
    is_clone_minimal,
    spanning_trees_k4,
)


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
    # the component W3 is searched alone; the coloop 6 is its own basis
    assert w.delete == frozenset() and w.contract == frozenset({6})
    assert find_catalog_minor(p_n(4)) is None
    w_e4 = find_catalog_minor(e_n(4))
    assert w_e4 is not None and w_e4.pattern_name == "E4"
    assert w_e4.delete == frozenset() and w_e4.contract == frozenset()
    # the lifted witness contracts the coloop 0 rather than deleting it,
    # which would lower the rank
    w = find_catalog_minor(direct_sum(uniform(1, 1), build_by_name("B3,2")))
    assert (w.pattern_name, w.delete, w.contract) == (
        "B3,2", frozenset(), frozenset({0})
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
    # a greedy basis {6, 7} of the U2,4 component is contracted, the rest
    # deleted
    assert w.delete == frozenset({8, 9}) and w.contract == frozenset({6, 7})
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
    # host / contract \ delete has rank r(E - delete) - r(contract), and
    # the bases in the group of the split's trace have the built minor's
    # number and degrees over the kept elements, whether or not the
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
                    survivors = by_trace[_split_trace(host, dm, cm)]
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


def test_trace_keys_are_independent_coindependent_splits(small_corpus):
    # has_minor walks the traces B & removed of the host's bases: they must
    # be exactly the contract sets C of the removed set with C independent
    # and removed - C coindependent, and _minor_masks reads every split
    # through one of them
    hosts = list(small_corpus) + [e.matroid for e in catalog_up_to(8)]
    for M in hosts:
        ranks = M.rank_table
        for removed in range(1 << M.n):
            want = set()
            split_traces = set()
            sub = removed
            while True:
                if (
                    ranks[sub] == sub.bit_count()
                    and ranks[M.full_mask ^ removed ^ sub] == M.rank
                ):
                    want.add(sub)
                split_traces.add(_split_trace(M, removed ^ sub, sub))
                if sub == 0:
                    break
                sub = (sub - 1) & removed
            assert set(_bases_by_trace(M, removed)) == want, (M, removed)
            assert split_traces <= want, (M, removed)


def symmetric_hosts():
    """Clone-rich hosts of at most 9 elements, where the search skips most
    splits: B3,2 and C5,2 (three clone classes each), U3,6 (one class),
    U1,2 beside R3, and W3 with a parallel copy 6 of element 0, whose
    first W3 witness deletes 0 and keeps its copy."""
    w3 = wheel3()
    doubled = from_bases(7, [set(b) for b in w3.bases] + [
        set(b) - {0} | {6} for b in w3.bases if 0 in b
    ])
    return [
        build_by_name("B3,2"), build_by_name("C5,2"), uniform(3, 6),
        direct_sum(uniform(1, 2), build_by_name("R3")), doubled,
    ]


def small_patterns():
    return [
        uniform(1, 2), uniform(1, 3), uniform(2, 3), uniform(1, 4),
        uniform(2, 4), uniform(3, 4), direct_sum(uniform(1, 2), uniform(1, 2)),
    ]


def test_has_minor_matches_brute_force_on_small_patterns(small_corpus):
    # patterns of at most 4 elements leave up to 5 removed elements, so one
    # removed set often has several contract sets of one size exposing the
    # pattern; the witness must take the first in combination order
    for M in list(small_corpus) + symmetric_hosts():
        for p in small_patterns():
            if p.n > M.n:
                continue
            w = has_minor(M, p)
            got = None if w is None else (w.delete, w.contract, w.iso)
            assert got == brute_has_minor(M, p), (M, p)


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
    # beside a loop, a coloop or a U1,2, the search runs on the catalog
    # member's component and lifts the witness: the other component's
    # greedy basis is contracted and the rest of it deleted
    sums = [
        direct_sum(small, e.matroid)
        for small in (uniform(0, 1), uniform(1, 1), uniform(1, 2))
        for e in catalog_up_to(8)
    ]
    assert_catalog_search_matches_brute_force(hosts + sums)
    # every witness contracts an independent set and deletes a
    # coindependent one (Oxley, Lemma 3.3.2)
    for M in hosts + sums:
        w = find_catalog_minor(M)
        if w is not None:
            assert rank_of(M, w.contract) == len(w.contract), M
            assert rank_of(M, set(range(M.n)) - w.delete) == M.rank, M


def test_catalog_search_matches_brute_force_on_symmetric_hosts():
    assert_catalog_search_matches_brute_force(symmetric_hosts())


def test_first_witness_is_clone_minimal(small_corpus):
    """In each clone class of the host, the removed set and the contract
    set of the first witness hold the lowest members."""
    groups = [
        [e.matroid for e in catalog_up_to(8) if e.matroid.n == size]
        for size in (6, 7, 8)
    ] + [[p] for p in small_patterns()]
    hosts = (
        list(small_corpus) + symmetric_hosts()
        + [e.matroid for e in catalog_up_to(9)]
    )
    hits = 0
    for M in hosts:
        for group in groups:
            if group[0].n > M.n:
                continue
            w = has_minor(M, *group)
            if w is None:
                continue
            hits += 1
            classes = brute_clone_classes(M.n, M.basis_masks)
            assert is_clone_minimal(classes, w.delete | w.contract), (M, w)
            assert is_clone_minimal(classes, w.contract), (M, w)
    assert hits >= 100


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


def test_three_recognizers_agree_to_ten_elements():
    hosts = corpus.generate(corpus.parse_corpus_spec(
        "random-transversal,lpm-random,random-sparse-paving,duals-closure,"
        "count=30,max-n=10,seed=7"
    ))
    assert len(hosts) == 123 and sum(M.n >= 10 for M in hosts) == 21
    accepted = 0
    for M in hosts:
        oracle = find_path_order(M) is not None
        char = is_lpm_char(M).verdict
        assert oracle == char == (find_catalog_minor(M) is None), M
        accepted += oracle
    assert accepted == 102


def test_theorem_check_to_twelve_elements():
    spec = corpus.parse_corpus_spec(
        "random-transversal,lpm-random,random-sparse-paving,duals-closure,"
        "count=40,max-n=12,seed=7"
    )
    hosts = corpus.generate(spec)
    assert sum(M.n == 12 for M in hosts) == 17
    report = theorem_check(hosts, corpus_label=spec.label)
    assert (report.total, report.lpm_count, report.disagreements) == (154, 127, ())


def test_three_recognizers_reject_lpm_sum_whirl3_at_twelve_elements():
    # a disconnected sum of an LPM and an excluded minor is among the
    # slowest inputs of the oracle, which has no cap below 12 elements
    lpm6 = realize(IntervalPresentation(6, ((0, 2), (1, 4), (3, 5))))
    M = direct_sum(lpm6, whirl3())
    assert M.n == 12
    assert find_path_order(M) is None
    assert not is_lpm_char(M).verdict
    witness = find_catalog_minor(M)
    assert witness is not None and witness.pattern_name == "Whirl3"


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


def test_catalog_keys_and_host_clone_steps_are_computed_once(monkeypatch):
    """U6,12 has no catalog minor, so its search keys every catalog member
    up to 12 elements, over seven pattern sizes.  A second search keys no
    pattern again, and each search finds its host's clone steps once."""
    patterns = [entry.matroid for entry in catalog_up_to(12)]
    for p in patterns:
        p.__dict__.pop("degree_key", None)
    keyed, stepped = [], []
    real_key, real_steps = kernel._degree_multiset, _canonical._clone_steps
    monkeypatch.setattr(
        kernel, "_degree_multiset",
        lambda elements, masks: (
            keyed.append(len(masks)) or real_key(elements, masks)
        ),
    )
    monkeypatch.setattr(
        _canonical, "_clone_steps",
        lambda n, masks: stepped.append(n) or real_steps(n, masks),
    )
    assert find_catalog_minor(uniform(6, 12)) is None
    assert len(keyed) == len(patterns)
    assert stepped == [12]
    keyed.clear()
    stepped.clear()
    assert find_catalog_minor(uniform(6, 12)) is None
    assert keyed == []
    assert stepped == [12]


def test_has_minor_patterns_share_one_size():
    with pytest.raises(ValueError):
        has_minor(uniform(2, 6), uniform(2, 4), uniform(2, 5))
