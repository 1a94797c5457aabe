from __future__ import annotations

import itertools

import pytest

from latmat.catalog import e_n, p_n, whirl3, wheel3
from latmat.kernel import (
    GroundTooLarge,
    _minor_masks,
    direct_sum,
    dual,
    from_bases,
    is_isomorphic,
    minor,
    uniform,
)
from latmat.lpm import IntervalPresentation, realize
from latmat.minors import (
    MinorWitness,
    find_catalog_minor,
    has_minor,
    is_lpm_via_excluded_minors,
    theorem_check,
)
from util import spanning_trees_k4


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


def test_theorem_check_single_members():
    rep = theorem_check([wheel3()], corpus_label="w3")
    assert rep.total == 1 and rep.lpm_count == 0 and rep.ok
    rep2 = theorem_check([uniform(2, 4)], corpus_label="u24")
    assert rep2.total == 1 and rep2.lpm_count == 1 and rep2.ok


def test_theorem_check_caps_ground_size():
    with pytest.raises(GroundTooLarge):
        theorem_check([uniform(2, 9)])


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
    # its bases; that must be the rank of host / contract \ delete
    for host in small_corpus:
        ranks = host.rank_table
        full = host.full_mask
        for size in (1, 2):
            for removed in itertools.combinations(range(host.n), size):
                rm = sum(1 << e for e in removed)
                cm = rm
                while True:
                    dm = rm ^ cm
                    _, masks = _minor_masks(host, dm, cm)
                    assert ranks[full ^ dm] - ranks[cm] == masks[0].bit_count()
                    if cm == 0:
                        break
                    cm = (cm - 1) & rm
