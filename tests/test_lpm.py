from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmat import flats
from latmat.kernel import from_bases
from latmat.kernel import (
    GroundTooLarge,
    Matroid,
    MatroidError,
    contract,
    delete,
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
from util import brute_transversal_bases, p3_bases, spanning_trees_k4

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
    P = IntervalPresentation(4, ((1, 2),))
    with pytest.raises(LoopDeletion):
        delete_terminal_presentation(P, "first")
    with pytest.raises(LoopDeletion):
        delete_terminal_presentation(P, "last")


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
    # components sorted by least flat; the path runs from the first flat
    # with an incomparable partner to the first such partner
    assert _chain_partition((1, 3, 2, 6)) == ([[0, 1, 2, 3]], (0, 1, 2))
    assert _chain_partition((16, 48, 6, 2, 3, 1)) == (
        [[2, 3, 4, 5], [0, 1]], (2, 3, 4),
    )
    assert _chain_partition((1, 3, 16)) == ([[0, 1], [2]], None)


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
        ("LPM 4 1\n0 1\nORDER 0 1 a 3\n", "bad ORDER line: 'ORDER 0 1 a 3'"),
        ("LPM 4 1\n0 1\nORDER 0 1 2 3\nORDER 3 2 1 0\n",
         "repeated ORDER line: 'ORDER 3 2 1 0'"),
        ("LPM 3 1\n0 2\nORDERING 2 1 0\n", "bad interval line: 'ORDERING 2 1 0'"),
        ("LPM 3 1\n0 2\nORDER\n", "ORDER line lists no elements: 'ORDER'"),
    ):
        with pytest.raises(MatroidError) as err:
            presentation_from_text(text)
        assert str(err.value) == message
