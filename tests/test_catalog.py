from __future__ import annotations

from functools import lru_cache

import pytest

from latmat import catalog, flats
from latmat.catalog import (
    CatalogEntry,
    a_n,
    b_nk,
    build_by_name,
    c_nk,
    catalog_up_to,
    d_n,
    e_n,
    p_n,
    p_prime_n,
    r3,
    r4,
    wheel3,
    whirl3,
)
from latmat.kernel import (
    MAX_GROUND,
    GroundTooLarge,
    canonical_form,
    circuits,
    components,
    delete,
    dual,
    free_coextension,
    is_connected,
    is_isomorphic,
    rank_of,
    uniform,
)
from latmat.lpm import verify_excluded_minor
from test_corpus import count_labelings
from util import p3_bases, spanning_trees_k4


def test_p_n():
    assert p_n(3).bases == p3_bases()
    assert p_n(3).num_bases == 18
    P2 = p_n(2)
    assert P2.num_bases == 4
    assert components(P2) == (frozenset({0, 1}), frozenset({2, 3}))
    for n in (2, 3, 4):
        # the two disjoint circuits are exactly the pnc-flats
        left = frozenset(range(n))
        right = frozenset(range(n, 2 * n))
        assert flats.pnc_flats(p_n(n)) == {left, right}
    with pytest.raises(ValueError):
        p_n(1)


def test_p_prime_n():
    P = p_prime_n(3)
    assert P.n == 5 and P.rank == 3 and P.num_bases == 8
    assert p_prime_n(4).n == 7 and p_prime_n(4).rank == 4
    for n in (3, 4, 5):
        assert is_isomorphic(p_prime_n(n), free_coextension(p_n(n - 1))) is not None
    with pytest.raises(ValueError):
        p_prime_n(2)


def test_a_n():
    for n in (3, 4):
        A = a_n(n)
        assert A.n == 2 * n and A.rank == n
        assert is_isomorphic(A, dual(A)) is not None


def test_b_c_families():
    B = b_nk(2, 2)
    assert B.n == 6 and B.rank == 2 and B.num_bases == 12
    assert c_nk(2, 2) == dual(B)
    assert c_nk(3, 2).n == 8 and c_nk(3, 2).rank == 5
    with pytest.raises(ValueError):
        b_nk(2, 3)


def test_c_hyperplane_structure():
    # ground set splits into X, Y, Z with the only nontrivial hyperplanes
    # X|Y, X|Z, Y|Z; two of them circuits (all three when n == k)
    for n, k in ((2, 2), (3, 2)):
        C = c_nk(n, k)
        r = C.rank
        hyperplanes = [
            f for f in flats.all_flats(C) if rank_of(C, f) == r - 1
        ]
        nontrivial = [h for h in hyperplanes if len(h) > r - 1]
        assert len(nontrivial) == 3
        h1, h2, h3 = nontrivial
        X = h1 & h2
        Y = h1 & h3
        Z = h2 & h3
        assert sorted([len(X), len(Y), len(Z)]) == sorted([n, n, k])
        assert X | Y | Z == frozenset(range(C.n))
        assert not (X & Y or X & Z or Y & Z)
        circuit_count = sum(1 for h in nontrivial if h in circuits(C))
        assert circuit_count == (3 if n == k else 2)


def test_d_e_families():
    D = d_n(4)
    assert D.n == 8 and D.rank == 4
    E = e_n(4)
    assert E == dual(D)
    # the doubled element: deleting its partner leaves the glued double circuit
    two_circuits = [c for c in circuits(E) if len(c) == 2]
    assert len(two_circuits) == 1
    pair = sorted(two_circuits[0])
    trimmed = delete(E, {pair[1]})
    assert is_isomorphic(trimmed, p_prime_n(4)) is not None
    with pytest.raises(ValueError):
        d_n(3)


def test_wheel_whirl():
    W = wheel3()
    assert W.bases == spanning_trees_k4()
    assert W.num_bases == 16
    V = whirl3()
    assert V.num_bases == 17
    assert is_isomorphic(W, V) is None


def test_r_pair():
    R4 = r4()
    assert R4.n == 7 and R4.rank == 4
    R3 = r3()
    assert R3.n == 7 and R3.rank == 3
    assert R3 == dual(R4)
    # parallel-extended at an element of both 4-element circuit-hyperplanes
    two = [c for c in circuits(R4) if len(c) == 2]
    assert len(two) == 1


def test_catalog_up_to_lists():
    assert [e.name for e in catalog_up_to(6)] == [
        "A3", "B2,2", "C4,2", "W3", "Whirl3",
    ]
    assert [e.name for e in catalog_up_to(7)] == [
        "A3", "B2,2", "C4,2", "W3", "Whirl3", "R3", "R4",
    ]
    assert [e.name for e in catalog_up_to(8)] == [
        "A3", "B2,2", "C4,2", "W3", "Whirl3", "R3", "R4",
        "A4", "B3,2", "C5,2", "D4", "E4",
    ]
    with pytest.raises(ValueError):
        catalog_up_to(5)
    with pytest.raises(GroundTooLarge, match=f"cap of {MAX_GROUND}"):
        catalog_up_to(MAX_GROUND + 1)


def test_catalog_build_labels_only_on_key_collisions(monkeypatch):
    """A fresh build up to 12 elements gives all 28 members in (size, name)
    order without a labeling, and their degree keys are pairwise distinct,
    so no two members are isomorphic."""
    fresh = lru_cache(maxsize=None)(catalog._catalog_of_size.__wrapped__)
    monkeypatch.setattr(catalog, "_catalog_of_size", fresh)
    labelled = count_labelings(monkeypatch)
    entries = catalog_up_to(12)
    assert labelled == []
    assert [e.name for e in entries] == [
        "A3", "B2,2", "C4,2", "W3", "Whirl3", "R3", "R4",
        "A4", "B3,2", "C5,2", "D4", "E4", "B3,3", "C6,3",
        "A5", "B4,2", "C6,2", "D5", "E5", "B4,3", "C7,3",
        "A6", "B4,4", "B5,2", "C7,2", "C8,4", "D6", "E6",
    ]
    assert len({e.matroid.degree_key for e in entries}) == 28


def test_catalog_members_are_built_once_per_size():
    """Every bound shares the members of each size: the minor search keys
    each pattern once per process, whichever bounds it searches to."""
    small, large = catalog_up_to(8), catalog_up_to(12)
    assert len(small) == 12
    assert all(a.matroid is b.matroid for a, b in zip(small, large))


def test_catalog_entry_shape_invariants():
    for entry in catalog_up_to(8):
        M = entry.matroid
        assert isinstance(entry, CatalogEntry)
        if entry.family == "A":
            (n,) = entry.params
            assert M.n == 2 * n and M.rank == n
        elif entry.family == "B":
            n, k = entry.params
            assert M.n == 2 * n + k and M.rank == n
        elif entry.family == "C":
            n, k = entry.params
            assert M.n == 2 * n + k and M.rank == n + k
        elif entry.family in ("D", "E"):
            (n,) = entry.params
            assert M.n == 2 * n and M.rank == n
        elif entry.family in ("W3", "Whirl3"):
            assert M.n == 6 and M.rank == 3
        elif entry.family == "R3":
            assert M.n == 7 and M.rank == 3
        elif entry.family == "R4":
            assert M.n == 7 and M.rank == 4


def test_catalog_members_connected():
    # the catalog search looks for members one connected component at a
    # time, which finds every member only if each is connected
    entries = catalog_up_to(MAX_GROUND)
    assert len(entries) == 28
    for entry in entries:
        assert is_connected(entry.matroid), entry.name


def test_catalog_members_pairwise_nonisomorphic():
    forms = [canonical_form(e.matroid) for e in catalog_up_to(8)]
    assert len(set(forms)) == len(forms)


def test_build_by_name():
    assert build_by_name("W3") == wheel3()
    assert build_by_name("B3,2") == b_nk(3, 2)
    assert build_by_name("C5,2") == c_nk(3, 2)
    assert build_by_name("P3") == p_n(3)
    assert build_by_name("Pprime4") == p_prime_n(4)
    for bad in ("Q3", "B3", "C5", "A3,2", "W4"):
        with pytest.raises(ValueError):
            build_by_name(bad)


def test_verify_excluded_minor():
    rep = verify_excluded_minor(wheel3(), name="W3")
    assert rep.passed and rep.outside_class and rep.minors_in_class
    rep_p3 = verify_excluded_minor(p_n(3), name="P3")
    assert not rep_p3.passed and not rep_p3.outside_class
    assert verify_excluded_minor(r3(), name="R3").passed
