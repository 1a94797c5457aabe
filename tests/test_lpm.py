from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmat import corpus, flats, kernel, lpm, minors
from latmat.catalog import catalog_up_to, wheel3, whirl3
from latmat.kernel import (
    GroundTooLarge,
    Matroid,
    MatroidError,
    contract,
    delete,
    direct_sum,
    from_bases,
    is_connected,
    rank_of,
    uniform,
)
from latmat.lpm import (
    ClauseViolation,
    IntervalPresentation,
    LoopContraction,
    LoopDeletion,
    NotConnected,
    _chain_partition,
    contract_presentation,
    delete_terminal_presentation,
    diagram,
    find_path_order,
    fundamental_flats_from_presentation,
    is_lpm_char,
    is_nested,
    is_nested_via_pn,
    presentation_connected,
    presentation_from_text,
    presentation_to_text,
    realize,
    recognize,
)
from test_acceptance import ACCEPT_SPEC
from util import (
    brute_raw_draws,
    brute_transversal_bases,
    loop_check_component,
    p3_bases,
    recursive_realize,
    spanning_trees_k4,
    whole_scan_find_path_order,
)

P3_PRES = IntervalPresentation(6, ((0, 2), (1, 4), (3, 5)))
TWO_ROW = IntervalPresentation(6, ((0, 3), (2, 5)))


def p3():
    return from_bases(6, p3_bases())


def wheel():
    return from_bases(6, spanning_trees_k4())


# --- presentations and realize ------------------------------------------------


def test_presentation_validation():
    with pytest.raises(MatroidError):
        IntervalPresentation(4, ((0, 2), (0, 3)))  # lower endpoints not increasing
    with pytest.raises(MatroidError):
        IntervalPresentation(4, ((2, 1),))
    with pytest.raises(MatroidError):
        IntervalPresentation(4, ((0, 4),))
    with pytest.raises(MatroidError):
        IntervalPresentation(3, ((0, 1),), (0, 1))  # bad order length
    with pytest.raises(MatroidError, match="negative"):
        IntervalPresentation(-1, ())


def test_presentation_rejects_values_that_are_not_ints():
    """Floats and strings are refused, not truncated or parsed, and an
    element outside the ground set is named."""
    with pytest.raises(MatroidError, match="interval endpoint 0.9 is not an int"):
        IntervalPresentation(2, ((0.9, 1.7),))
    with pytest.raises(MatroidError, match="order element '2' is not an int"):
        IntervalPresentation(3, ((0, 1),), ("2", "0", "1"))
    with pytest.raises(MatroidError, match="ground size 2.0 is not an int"):
        IntervalPresentation(2.0, ((0, 1),))
    with pytest.raises(MatroidError, match="element 5 is not in the ground set"):
        contract_presentation(IntervalPresentation(3, ((0, 1),)), 5)


def test_presentation_rejects_intervals_that_are_not_pairs():
    """A triple or a bare int where a pair belongs is named, not left to
    fail as a bare unpacking error."""
    with pytest.raises(MatroidError, match=r"interval \(0, 1, 2\) is not a pair"):
        IntervalPresentation(3, ((0, 1, 2),))
    with pytest.raises(MatroidError, match="interval 5 is not a pair"):
        IntervalPresentation(3, (5,))


def test_presentation_order_is_a_tuple():
    P = IntervalPresentation(3, [[0, 1]], [0, 1, 2])
    assert P.order == (0, 1, 2) and P.intervals == ((0, 1),)
    assert P == IntervalPresentation(3, ((0, 1),))
    assert hash(P) == hash(IntervalPresentation(3, ((0, 1),)))
    assert presentation_to_text(P) == "LPM 3 1\n0 1\n"
    assert IntervalPresentation(3, (), [2, 0, 1]).order == (2, 0, 1)


def test_presentation_ground_cap():
    assert IntervalPresentation(12, ((0, 6), (1, 11))).n == 12
    with pytest.raises(GroundTooLarge):
        IntervalPresentation(13, ((0, 6), (1, 12)))
    with pytest.raises(GroundTooLarge):
        presentation_from_text("LPM 13 2\n0 6\n1 12\n")


def test_realize_p3():
    assert realize(P3_PRES) == p3()


def test_realize_two_row_against_sdr_oracle():
    M = realize(TWO_ROW)
    sets = [set(range(0, 4)), set(range(2, 6))]
    assert M.bases == brute_transversal_bases(6, sets)
    assert M.num_bases == 13
    missing = {frozenset({0, 1}), frozenset({4, 5})}
    assert M.bases == {
        frozenset(c)
        for c in itertools.combinations(range(6), 2)
        if frozenset(c) not in missing
    }


def test_realize_single_interval_and_loops():
    assert realize(IntervalPresentation(5, ((0, 4),))) == uniform(1, 5)
    M = realize(IntervalPresentation(4, ((1, 2),)))
    assert M.loops_mask == 0b1001


def test_realize_nonidentity_order():
    P = IntervalPresentation(4, ((0, 1), (2, 3)), (3, 1, 0, 2))
    M = realize(P)
    # positions {0,1} = elements {3,1}; positions {2,3} = elements {0,2}
    assert M.bases == {
        frozenset({a, b}) for a in (3, 1) for b in (0, 2)
    }


def _connected_presentations(n):
    """Every connected presentation of n elements in the identity order:
    both endpoint sequences strictly increasing, a_1 = 0, b_r = n - 1 and
    each interval meeting the next."""
    out = []
    for r in range(1, n + 1):
        for a in itertools.combinations(range(n), r):
            for b in itertools.combinations(range(n), r):
                if (
                    a[0] == 0
                    and b[-1] == n - 1
                    and all(map(operator.le, a, b))
                    and all(map(operator.le, a[1:], b))
                ):
                    out.append(IntervalPresentation(n, tuple(zip(a, b))))
    return out


def test_realize_matches_recursion_on_connected_presentations():
    # Catalan(n - 1) connected presentations of n elements: 626 up to 8,
    # each realized in the identity order and in a seeded random one
    rng = random.Random(626)
    total = 0
    for n in range(1, 9):
        pres = _connected_presentations(n)
        assert len(pres) == math.comb(2 * n - 2, n - 1) // n
        total += len(pres)
        for P in pres:
            order = list(range(n))
            rng.shuffle(order)
            for Q in (P, replace(P, order=tuple(order))):
                M, ref = realize(Q), recursive_realize(Q)
                assert (M.n, M.basis_masks) == (ref.n, ref.basis_masks), Q
    assert total == 626


def test_realize_matches_recursion_on_seeded_and_degenerate_presentations():
    # seeded presentations up to 12 elements in seeded orders, uncovered
    # positions (loops) included, then no interval at all and loops at
    # either end or between the intervals
    rng = random.Random(1212)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 12)
        r = rng.randint(0, n)
        while True:
            a = sorted(rng.sample(range(n), r))
            b = sorted(rng.sample(range(n), r))
            if all(map(operator.le, a, b)):
                break
        order = list(range(n))
        rng.shuffle(order)
        cases.append(IntervalPresentation(n, tuple(zip(a, b)), tuple(order)))
    assert any(not presentation_connected(P) for P in cases if P.rank)
    cases += [IntervalPresentation(n, ()) for n in range(13)]
    cases += [
        IntervalPresentation(5, ((1, 2),)),
        IntervalPresentation(7, ((1, 2), (4, 5)), (6, 2, 0, 4, 1, 3, 5)),
        IntervalPresentation(12, ((0, 3), (2, 5), (8, 10)), tuple(range(11, -1, -1))),
    ]
    for P in cases:
        M, ref = realize(P), recursive_realize(P)
        assert (M.n, M.basis_masks) == (ref.n, ref.basis_masks), P


def test_presentation_connected():
    assert presentation_connected(P3_PRES)
    assert presentation_connected(TWO_ROW)
    assert not presentation_connected(IntervalPresentation(4, ((0, 1), (2, 3))))
    assert not is_connected(realize(IntervalPresentation(4, ((0, 1), (2, 3)))))


# --- presentation minors -------------------------------------------------------


def test_contract_presentation_merge_case():
    Q = contract_presentation(P3_PRES, 3)
    assert Q.n == 5 and Q.intervals == ((0, 2), (1, 4))
    got = realize(Q)
    assert got == contract(p3(), {3})
    # the only dependent pair is the old {4,5}, relabelled down by one
    assert rank_of(got, {3, 4}) == 1


def test_contract_presentation_single_interval():
    P = IntervalPresentation(5, ((0, 4),))
    Q = contract_presentation(P, 2)
    assert Q.n == 4 and Q.intervals == ()
    assert realize(Q) == contract(realize(P), {2})


def test_contract_presentation_two_row():
    Q = contract_presentation(TWO_ROW, 2)
    assert Q.intervals == ((0, 4),)
    M = realize(Q)
    assert M.rank == 1 and M.loops_mask == 0


def test_contract_presentation_loop():
    P = IntervalPresentation(4, ((1, 2),))
    with pytest.raises(LoopContraction):
        contract_presentation(P, 0)


def test_delete_first_general_rule():
    Q = delete_terminal_presentation(P3_PRES, "first")
    assert Q.n == 5 and Q.intervals == ((0, 1), (1, 3), (2, 4))
    got = realize(Q)
    assert got == delete(p3(), {0})
    assert got.num_bases == 9  # C(5,3) - 1, only the old {3,4,5} dependent


def test_delete_first_singleton_branch():
    P = IntervalPresentation(4, ((0, 0), (1, 3)))
    Q = delete_terminal_presentation(P, "first")
    assert Q.intervals == ((0, 2),)
    assert realize(Q) == delete(realize(P), {0})


def test_delete_last_mirror_rule():
    Q = delete_terminal_presentation(TWO_ROW, "last")
    assert Q.intervals == ((0, 3), (2, 4))
    assert realize(Q) == delete(realize(TWO_ROW), {5})


def test_delete_terminal_loop():
    """The error names the end asked for and the loop's label."""
    P = IntervalPresentation(4, ((1, 2),), (3, 1, 2, 0))
    with pytest.raises(LoopDeletion, match="^first element 3 is a loop$"):
        delete_terminal_presentation(P, "first")
    with pytest.raises(LoopDeletion, match="^last element 0 is a loop$"):
        delete_terminal_presentation(P, "last")
    with pytest.raises(LoopDeletion, match="^last element 2 is a loop$"):
        delete_terminal_presentation(IntervalPresentation(3, ((0, 1),)), "last")
    with pytest.raises(LoopDeletion, match="^an empty presentation has no last"):
        delete_terminal_presentation(IntervalPresentation(0, ()), "last")


# --- fundamental flats from endpoints ------------------------------------------


def test_fundamental_flats_from_presentation_examples():
    assert fundamental_flats_from_presentation(P3_PRES) == {
        (frozenset({0, 1, 2}), 2),
        (frozenset({3, 4, 5}), 2),
    }
    assert fundamental_flats_from_presentation(TWO_ROW) == {
        (frozenset({0, 1}), 1),
        (frozenset({4, 5}), 1),
    }
    assert fundamental_flats_from_presentation(
        IntervalPresentation(6, ((0, 5),))
    ) == set()
    with pytest.raises(NotConnected):
        fundamental_flats_from_presentation(
            IntervalPresentation(4, ((0, 1), (2, 3)))
        )


def test_fundamental_flats_match_definition():
    for P in (P3_PRES, TWO_ROW, IntervalPresentation(6, ((0, 1), (1, 4), (4, 5)))):
        M = realize(P)
        expected = {
            (f, rank_of(M, f)) for f in flats.fundamental_flats(M)
        }
        assert fundamental_flats_from_presentation(P) == expected


# --- oracle ---------------------------------------------------------------------


def test_find_path_order_p3():
    order, pres = find_path_order(p3())
    assert order == (0, 1, 2, 3, 4, 5)
    assert pres.intervals == ((0, 2), (1, 4), (3, 5))
    assert realize(pres) == p3()


def test_find_path_order_wheel_absent():
    assert find_path_order(wheel()) is None


def test_find_path_order_uniform():
    order, pres = find_path_order(uniform(2, 4))
    assert order == (0, 1, 2, 3)
    assert realize(pres) == uniform(2, 4)


def test_find_path_order_with_loops():
    M = from_bases(3, [{0, 1}])  # element 2 is a loop
    order, pres = find_path_order(M)
    assert order == (0, 1, 2)
    assert pres.n == 3 and realize(pres) == M
    for n in (0, 3):  # no non-loop: the identity order and no intervals
        order, pres = find_path_order(uniform(0, n))
        assert order == tuple(range(n)) and pres == IntervalPresentation(n, ())


def test_find_path_order_disconnected():
    M = realize(IntervalPresentation(4, ((0, 1), (2, 3))))
    order, pres = find_path_order(M)
    assert realize(pres) == M


def _relabelled(M: Matroid, perm) -> Matroid:
    """M with element e renamed perm[e]."""
    return Matroid._from_masks(
        M.n, [sum(1 << perm[e] for e in range(M.n) if b >> e & 1)
              for b in M.basis_masks],
    )


def _twelve_element_sums() -> list[Matroid]:
    """Direct sums with 12 elements, the last two with interleaved labels."""
    lpm6 = realize(P3_PRES)
    two_row = realize(TWO_ROW)
    lpm11 = realize(IntervalPresentation(11, ((0, 3), (2, 5), (4, 8), (7, 10))))
    coloops6 = realize(IntervalPresentation(6, ((0, 0), (1, 3), (3, 4), (5, 5))))
    # lpm6, a coloop (6), a loop (0) and U2,4, their labels interleaved
    mixed = direct_sum(
        direct_sum(lpm6, uniform(1, 1)), direct_sum(uniform(0, 1), uniform(2, 4))
    )
    return [
        direct_sum(lpm6, two_row),
        direct_sum(lpm11, uniform(1, 1)),
        direct_sum(uniform(1, 1), lpm11),
        direct_sum(coloops6, wheel3()),
        direct_sum(lpm6, whirl3()),
        _relabelled(direct_sum(lpm6, two_row), (0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11)),
        _relabelled(mixed, (1, 3, 5, 7, 9, 11, 6, 0, 2, 4, 8, 10)),
    ]


def test_find_path_order_matches_the_whole_ground_set_scan():
    """Scanning component by component gives the order and presentation of
    one scan of the whole loopless part (the interval lemma)."""
    hosts = corpus.generate(corpus.parse_corpus_spec(ACCEPT_SPEC))
    for entry in catalog_up_to(8):
        M = entry.matroid
        hosts.append(M)
        for e in range(M.n):
            hosts += [delete(M, (e,)), contract(M, (e,))]
    hosts += corpus.generate(corpus.parse_corpus_spec(
        "lpm-random,random-transversal,duals-closure,count=40,max-n=10,seed=31"
    ))
    hosts += _twelve_element_sums()
    seen = {"disconnected": 0, "accepted": 0, "both": 0, "n=12 accepted": 0}
    for M in hosts:
        got = find_path_order(M)
        assert got == whole_scan_find_path_order(M), M
        split = len(M.component_masks) - M.loops_mask.bit_count() > 1
        seen["disconnected"] += split
        seen["accepted"] += got is not None
        seen["both"] += split and got is not None
        seen["n=12 accepted"] += M.n == 12 and got is not None
        if got is not None:
            assert realize(got[1]) == M
    assert max(M.n for M in hosts) == 12
    assert all(seen.values()), seen


def test_three_recognizers_restrict_once_per_part(monkeypatch):
    """The oracle, flats and minors share one restriction per component of
    at least two elements; loops and coloops are never restricted."""
    calls = []
    restrict = kernel.restrict

    def spy(M, X):
        calls.append(X)
        return restrict(M, X)

    monkeypatch.setattr(kernel, "restrict", spy)
    monkeypatch.setattr(lpm, "restrict", spy)
    M = _twelve_element_sums()[-1]  # fresh: nothing cached on it yet
    assert find_path_order(M) is not None
    assert is_lpm_char(M).verdict
    assert minors.find_catalog_minor(M) is None
    assert len(M._parts) == 2
    assert sorted(calls) == sorted(c for c, _ in M._parts)


def test_theorem_check_reports_a_disagreement(monkeypatch):
    """A structural verdict flipped on W3 alone gives one disagreement row:
    W3's ground size, rank and bases, and the three verdicts."""
    W = wheel3()
    char = lpm.is_lpm_char

    def flipped(M):
        got = char(M)
        return replace(got, verdict=not got.verdict) if M == W else got

    monkeypatch.setattr(lpm, "is_lpm_char", flipped)
    report = lpm.theorem_check([uniform(2, 4), W, whirl3()], "three")
    assert not report.ok
    triangles = {(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5)}
    assert json.loads(report.to_json()) == {
        "corpus": "three",
        "total": 3,
        "lpm": 1,
        "non_lpm": 2,
        "disagreements": [{
            "n": 6,
            "rank": 3,
            "bases": [list(c) for c in itertools.combinations(range(6), 3)
                      if c not in triangles],
            "oracle": False,
            "characterization": True,
            "excluded_minor": False,
        }],
    }


def test_find_path_order_cap():
    # the ground-set cap is the oracle's only bound: 10 elements need no
    # flag, and a trusted matroid past the cap is still refused
    assert find_path_order(uniform(2, 10)) is not None
    with pytest.raises(GroundTooLarge):
        find_path_order(Matroid._from_masks(13, [0]))


# --- structural recognizer -------------------------------------------------------


def test_is_lpm_char_positive():
    for M in (p3(), uniform(2, 4), uniform(3, 3), realize(TWO_ROW)):
        res = is_lpm_char(M)
        assert res.verdict and res.witness is None


def test_is_lpm_char_wheel_clause_i():
    res = is_lpm_char(wheel())
    assert not res.verdict
    assert isinstance(res.witness, ClauseViolation)
    assert res.witness.clause == "i"
    assert len(res.witness.flats) == 3
    # the named flats really are mutually incomparable fundamental flats
    ff = flats.fundamental_flats(wheel())
    for f in res.witness.flats:
        assert f in ff
    for f, g in itertools.combinations(res.witness.flats, 2):
        assert not (f <= g or g <= f)


def test_is_lpm_char_b22():
    from latmat.catalog import b_nk

    res = is_lpm_char(b_nk(2, 2))
    assert not res.verdict


def test_is_lpm_char_chain_path_witness():
    # two incomparable flats forced into one chain by a common superflat:
    # the witness is a comparability path with incomparable endpoints
    from latmat.catalog import d_n

    M = d_n(4)
    res = is_lpm_char(M)
    assert not res.verdict and res.witness.clause == "i"
    seq = res.witness.flats
    assert len(seq) >= 3
    ff = flats.fundamental_flats(M)
    assert all(f in ff for f in seq)
    for a, b in zip(seq, seq[1:]):
        assert a < b or b < a
    assert not (seq[0] <= seq[-1] or seq[-1] <= seq[0])


def test_chain_partition_path_joins_least_incomparable_pair():
    # the first mutually incomparable triple by index; failing that, a
    # comparability path from the first flat with an incomparable partner
    # to the first such partner; failing that, the chains by least flat
    assert _chain_partition((1, 3, 2, 6)) == (None, (1, 3, 2))
    assert _chain_partition((16, 48, 6, 2, 3, 1)) == (None, (16, 6, 3))
    assert _chain_partition((1, 3, 16)) == (((1, 3), (16,)), None)
    assert _chain_partition((1, 3)) == (((1, 3), ()), None)
    assert _chain_partition(()) == (((), ()), None)


# Every catalog member's flats witness, its flats spelt in hex digits:
# clause (ii) for A3-A6, (iii) for C4,2, and otherwise clause (i), a
# mutually incomparable triple, or a comparability path whose endpoints
# are incomparable (R3, R4, D4-D6, E4-E6).
CATALOG_FLATS_WITNESSES = {
    "A3": ("ii", "012 234"),
    "B2,2": ("i", "01 23 45"),
    "C4,2": ("iii", "0123 0145 2345"),
    "W3": ("i", "012 034 235"),
    "Whirl3": ("i", "034 235 145"),
    "R3": ("i", "01 01345 45"),
    "R4": ("i", "01236 26 23456"),
    "A4": ("ii", "0123 3456"),
    "B3,2": ("i", "012 345 67"),
    "C5,2": ("i", "012345 01267 34567"),
    "D4": ("i", "012 012345 345"),
    "E4": ("i", "01267 67 34567"),
    "B3,3": ("i", "012 345 678"),
    "C6,3": ("i", "012345 012678 345678"),
    "A5": ("ii", "01234 45678"),
    "B4,2": ("i", "0123 4567 89"),
    "C6,2": ("i", "01234567 012389 456789"),
    "D5": ("i", "0123 01234567 4567"),
    "E5": ("i", "012389 89 456789"),
    "B4,3": ("i", "0123 4567 89a"),
    "C7,3": ("i", "01234567 012389a 456789a"),
    "A6": ("ii", "012345 56789a"),
    "B4,4": ("i", "0123 4567 89ab"),
    "B5,2": ("i", "01234 56789 ab"),
    "C7,2": ("i", "0123456789 01234ab 56789ab"),
    "C8,4": ("i", "01234567 012389ab 456789ab"),
    "D6": ("i", "01234 0123456789 56789"),
    "E6": ("i", "01234ab ab 56789ab"),
}


def test_catalog_flats_witnesses():
    got = {}
    for entry in catalog_up_to(12):
        M = entry.matroid
        res = is_lpm_char(M)
        assert not res.verdict
        assert res.witness.component == frozenset(range(M.n))
        got[entry.name] = (
            res.witness.clause,
            " ".join(
                "".join(f"{e:x}" for e in sorted(f)) for f in res.witness.flats
            ),
        )
    assert got == CATALOG_FLATS_WITNESSES


# The acceptance and reject specs, and one seeded set of raw draws.
REFERENCE_SPECS = (
    ACCEPT_SPEC,
    "random-sparse-paving,duals-closure,count=300,max-n=8,seed=20261017",
)
RAW_DRAW_SPEC = (
    "random-transversal,random-sparse-paving,duals-closure,"
    "count=300,max-n=9,seed=100"
)


def _outcome(hit):
    if hit is None or hit[0] != "i":
        return hit and hit[0]
    f, g = hit[1][:2]  # a path's first two flats are comparable
    return "path" if f & g in (f, g) else "triple"


def test_check_component_matches_loop_reference():
    hosts = [
        M for spec in REFERENCE_SPECS
        for M in corpus.generate(corpus.parse_corpus_spec(spec))
    ]
    hosts += [entry.matroid for entry in catalog_up_to(12)]
    raw = brute_raw_draws(corpus.parse_corpus_spec(RAW_DRAW_SPEC))
    assert len(raw) == 1200  # 300 + 300 draws and the dual of each
    hosts += [M for _, M in raw]
    outcomes = set()
    for M in hosts:
        for _, Mi in M._parts:
            hit = lpm._check_component(Mi)
            assert hit == loop_check_component(Mi)
            outcomes.add(_outcome(hit))
    assert outcomes == {"triple", "path", "ii", "iii", None}


def test_is_lpm_char_componentwise_and_loops():
    disconnected = realize(IntervalPresentation(4, ((0, 1), (2, 3))))
    assert is_lpm_char(disconnected).verdict
    loopy = from_bases(3, [{0, 1}])
    assert is_lpm_char(loopy).verdict
    bad = from_bases(7, [b | {6} for b in spanning_trees_k4()])  # wheel + coloop
    assert not is_lpm_char(bad).verdict


def test_is_lpm_char_maps_a_component_witness_to_host_labels():
    # W3 on 1, 2, 3, 5, 6, 8; loops 0 (before it) and 4 (inside it); U1,2
    # on 7, 9: the host fails on W3's own clause, in the host's labels
    labels = (1, 2, 3, 5, 6, 8)
    host = from_bases(10, [
        {labels[e] for e in b} | {u}
        for b in spanning_trees_k4()
        for u in (7, 9)
    ])
    own = is_lpm_char(wheel()).witness
    res = is_lpm_char(host)
    assert not res.verdict
    assert res.witness == ClauseViolation(
        own.clause,
        frozenset(labels),
        tuple(frozenset(labels[e] for e in f) for f in own.flats),
    )


# --- nested -----------------------------------------------------------------------


def test_is_nested_examples():
    U = uniform(2, 4)
    assert is_nested(U) and is_nested_via_pn(U)
    assert not is_nested(p3()) and not is_nested_via_pn(p3())
    M = realize(TWO_ROW)
    assert not is_nested(M) and not is_nested_via_pn(M)


def test_is_nested_chain_example():
    M = realize(IntervalPresentation(5, ((0, 2), (1, 4))))
    assert is_nested(M) == is_nested_via_pn(M)


# --- recognize dispatch and rendering ----------------------------------------------


def test_recognize_methods_agree():
    for M in (p3(), wheel(), uniform(2, 4), realize(TWO_ROW)):
        verdicts = {
            method: recognize(M, method).verdict
            for method in ("oracle", "flats", "minors")
        }
        assert len(set(verdicts.values())) == 1
    with pytest.raises(ValueError):
        recognize(p3(), "psychic")


def test_diagram_shapes():
    text = diagram(P3_PRES)
    lines = text.strip().splitlines()
    assert lines[1].startswith("lower:") and lines[2].startswith("upper:")
    rows = lines[3:]
    assert [r.count("#") for r in rows] == [3, 4, 3]
    strip = diagram(IntervalPresentation(5, ((0, 4),))).strip().splitlines()
    assert strip[3:] == ["#####"]
    two = diagram(TWO_ROW).strip().splitlines()
    assert [r.count("#") for r in two[3:]] == [4, 4]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_realize_always_yields_valid_matroid(data):
    n = data.draw(st.integers(1, 7))
    r = data.draw(st.integers(0, n))
    a = sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=r, max_size=r)
    ))
    b = []
    hi = n - 1
    for i in range(r - 1, -1, -1):
        # feasible: hi >= a[i] since the lower endpoints strictly increase
        b.append(data.draw(st.integers(a[i], hi)))
        hi = b[-1] - 1
    b.reverse()
    P = IntervalPresentation(n, tuple(zip(a, b)))
    M = realize(P)
    assert from_bases(M.n, M.bases) == M
    covered = set()
    for lo, hig in P.intervals:
        covered.update(range(lo, hig + 1))
    loops = {P.order[p] for p in range(n) if p not in covered}
    assert {e for e in range(n) if (M.loops_mask >> e) & 1} == loops


def test_presentation_text_roundtrip():
    for P in (P3_PRES, TWO_ROW, IntervalPresentation(4, ((0, 1), (2, 3)), (3, 1, 0, 2))):
        text = presentation_to_text(P)
        assert presentation_from_text(text) == P
    with pytest.raises(MatroidError):
        presentation_from_text("LPM 4 2\n0 1\n")
    with pytest.raises(MatroidError):
        presentation_from_text("NOPE\n")
    for line in ("0", "0 1 2", "0 x"):
        with pytest.raises(MatroidError, match="bad interval line"):
            presentation_from_text(f"LPM 4 1\n{line}\n")
    for text, message in (
        ("LPM x 1\n0 1\n", "bad header line: 'LPM x 1'"),
        # a rank outside 0..n is a bad header, as in the matroid format
        ("LPM 3 -1\n", "bad header line: 'LPM 3 -1'"),
        ("LPM 2 3\n0 0\n1 1\n2 2\n", "bad header line: 'LPM 2 3'"),
        ("LPM 4 1\n0 1\nORDER 0 1 a 3\n", "bad ORDER line: 'ORDER 0 1 a 3'"),
        ("LPM 4 1\n0 1\nORDER 0 1 2 3\nORDER 3 2 1 0\n",
         "repeated ORDER line: 'ORDER 3 2 1 0'"),
        ("LPM 3 1\n0 2\nORDERING 2 1 0\n", "bad interval line: 'ORDERING 2 1 0'"),
        ("LPM 3 1\n0 2\nORDER\n", "ORDER line lists no elements: 'ORDER'"),
    ):
        with pytest.raises(MatroidError) as err:
            presentation_from_text(text)
        assert str(err.value) == message
