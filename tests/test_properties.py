"""Cross-module invariants on seeded corpora.

Each test here is a structural law tying two independently implemented code
paths together; a failure in either path breaks the law.
"""

from __future__ import annotations

import itertools

from latmat import flats, minors
from latmat.catalog import p_n, wheel3, whirl3
from latmat.corpus import SplitMix64, _distinct_subset
from latmat.kernel import (
    _bits,
    canonical_form,
    closure,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    is_connected,
    is_isomorphic,
    automorphisms,
    parallel_connection,
    rank_of,
    restrict,
    uniform,
)
from latmat.lpm import (
    IntervalPresentation,
    contract_presentation,
    delete_terminal_presentation,
    find_path_order,
    fundamental_flats_from_presentation,
    is_lpm_char,
    is_nested,
    is_nested_via_pn,
    presentation_connected,
    realize,
    theorem_check,
)


def random_presentations(count, max_n, seed, min_n=2, shuffled_orders=False,
                         connected_only=False):
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = rng.randint(min_n, max_n)
        r = rng.randint(1, n)
        while True:
            a = sorted(_bits(_distinct_subset(rng, n, r)))
            b = sorted(_bits(_distinct_subset(rng, n, r)))
            if all(x <= y for x, y in zip(a, b)):
                break
        order = tuple(range(n))
        if shuffled_orders and rng.randrange(2):
            lst = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.randrange(i + 1)
                lst[i], lst[j] = lst[j], lst[i]
            order = tuple(lst)
        P = IntervalPresentation(n, tuple(zip(a, b)), order)
        if connected_only and not presentation_connected(P):
            continue
        out.append(P)
    return out


# --- kernel laws ---------------------------------------------------------------


def test_dual_involution(small_corpus):
    for M in small_corpus:
        assert dual(dual(M)) == M


def test_cyclic_flat_complementation(small_corpus):
    for M in small_corpus:
        E = frozenset(range(M.n))
        assert flats.cyclic_flats(dual(M)) == {
            E - f for f in flats.cyclic_flats(M)
        }


def _pc_pool():
    return [
        (uniform(2, 3), 0),
        (uniform(2, 3), 2),
        (uniform(2, 4), 1),
        (p_n(3), 0),
        (wheel3(), 3),
        (uniform(1, 2), 0),
    ]


def test_parallel_connection_minor_commutation():
    rng = SplitMix64(555)
    pool = _pc_pool()
    for _ in range(40):
        M1, x1 = pool[rng.randrange(len(pool))]
        M2, x2 = pool[rng.randrange(len(pool))]
        if M1.n + M2.n - 1 > 10:
            continue
        P = parallel_connection(M1, x1, M2, x2)
        others = [y for y in range(M1.n) if y != x1]
        y = others[rng.randrange(len(others))]
        x1d = x1 - (x1 > y)
        lhs_del = delete(P, {y})
        rhs_del = parallel_connection(delete(M1, {y}), x1d, M2, x2)
        assert canonical_form(lhs_del) == canonical_form(rhs_del)
        lhs_con = contract(P, {y})
        rhs_con = parallel_connection(contract(M1, {y}), x1d, M2, x2)
        assert canonical_form(lhs_con) == canonical_form(rhs_con)


def test_parallel_connection_contract_basepoint_direct_sum():
    rng = SplitMix64(556)
    pool = _pc_pool()
    for _ in range(20):
        M1, x1 = pool[rng.randrange(len(pool))]
        M2, x2 = pool[rng.randrange(len(pool))]
        if M1.n + M2.n - 1 > 10:
            continue
        P = parallel_connection(M1, x1, M2, x2)
        lhs = contract(P, {x1})
        rhs = direct_sum(contract(M1, {x1}), contract(M2, {x2}))
        assert is_isomorphic(lhs, rhs) is not None


def test_disconnected_contraction_splits_as_parallel_connection(small_corpus):
    checked = 0
    for M in small_corpus:
        if not is_connected(M) or M.n < 3 or M.loops_mask:
            continue
        for x in range(M.n):
            C = contract(M, {x})
            comps = components(C)
            if len(comps) < 2:
                continue
            back = lambda e: e + (e >= x)
            s1 = {back(e) for e in comps[0]}
            s2 = {back(e) for e in range(C.n)} - s1
            R1 = restrict(M, s1 | {x})
            R2 = restrict(M, s2 | {x})
            assert is_connected(R1) and is_connected(R2)
            bp1 = sorted(s1 | {x}).index(x)
            bp2 = sorted(s2 | {x}).index(x)
            glued = parallel_connection(R1, bp1, R2, bp2)
            assert is_isomorphic(glued, M) is not None
            checked += 1
            break
    assert checked >= 3


def test_flat_restriction_unchanged_by_outside_contraction(tiny_corpus):
    for M in tiny_corpus:
        if M.n < 2:
            continue
        for f in sorted(flats.all_flats(M), key=sorted)[:6]:
            outside = [x for x in range(M.n) if x not in f]
            if not outside:
                continue
            x = outside[0]
            image = {e - (e > x) for e in f}
            lhs = restrict(contract(M, {x}), image)
            rhs = restrict(M, f)
            assert lhs == rhs


# --- flats laws -------------------------------------------------------------------


def test_flat_family_inclusions(small_corpus):
    for M in small_corpus:
        allf = flats.all_flats(M)
        pnc = flats.pnc_flats(M)
        fund = flats.fundamental_flats(M)
        cyc = flats.cyclic_flats(M)
        assert fund <= pnc <= allf
        assert fund <= cyc  # dependent connected flats are circuit unions


def test_nested_cyclic_flats_differ_by_two(small_corpus):
    for M in small_corpus:
        cyc = sorted(flats.cyclic_flats(M), key=len)
        for f, g in itertools.combinations(cyc, 2):
            if f < g:
                assert len(g - f) >= 2


def test_signature_determines_matroid(small_corpus):
    by_sig = {}
    for M in small_corpus:
        if M.loops_mask:
            continue
        sig = (M.n, tuple(
            (tuple(sorted(f)), r) for f, r in flats.connected_flats_signature(M)
        ))
        by_sig.setdefault(sig, set()).add(M)
    for sig, group in by_sig.items():
        assert len(group) == 1, f"signature collision: {sig}"


def test_fundamental_equals_irreducible_for_connected_lpms(small_corpus):
    for M in small_corpus:
        if not is_connected(M) or not is_lpm_char(M).verdict:
            continue
        assert flats.fundamental_flats(M) == flats.irreducible_pnc_flats(M)


def test_fundamental_flat_complementation_for_connected_lpms(small_corpus):
    for M in small_corpus:
        if not is_connected(M) or not is_lpm_char(M).verdict:
            continue
        E = frozenset(range(M.n))
        assert flats.fundamental_flats(dual(M)) == {
            E - f for f in flats.fundamental_flats(M)
        }


def test_spanning_union_of_pnc_flats_covers(small_corpus):
    for M in small_corpus:
        if not is_lpm_char(M).verdict:
            continue
        pncs = list(flats.pnc_flats(M))
        for f, g in itertools.combinations(pncs, 2):
            if f & g and rank_of(M, f | g) == M.rank:
                assert f | g == frozenset(range(M.n))


# --- presentation laws --------------------------------------------------------------


def test_presentation_contract_commutes():
    for P in random_presentations(120, 8, seed=808, shuffled_orders=True):
        M = realize(P)
        non_loops = [e for e in range(P.n) if not (M.loops_mask >> e) & 1]
        for y in non_loops:
            lhs = realize(contract_presentation(P, y))
            rhs = contract(M, {y})
            assert lhs == rhs


def test_presentation_delete_terminal_commutes():
    for P in random_presentations(120, 8, seed=809):
        M = realize(P)
        first, last = P.order[0], P.order[-1]
        if not (M.loops_mask >> first) & 1:
            assert realize(delete_terminal_presentation(P, "first")) == delete(
                M, {first}
            )
        if P.n >= 2 and not (M.loops_mask >> last) & 1:
            assert realize(delete_terminal_presentation(P, "last")) == delete(
                M, {last}
            )


def test_presentation_contract_count_preservation():
    # outside the common overlap of the merged run, every element keeps its
    # number of covering intervals
    for P in random_presentations(80, 8, seed=810):
        M = realize(P)
        for y in range(P.n):
            if (M.loops_mask >> y) & 1:
                continue
            pos = P.position_of(y)
            runs = [
                i for i, (a, b) in enumerate(P.intervals) if a <= pos <= b
            ]
            s, t = runs[0], runs[-1]
            inter_lo = P.intervals[t][0]
            inter_hi = P.intervals[s][1]
            Q = contract_presentation(P, y)
            for x in range(P.n):
                if x == y:
                    continue
                px = P.position_of(x)
                if inter_lo <= px <= inter_hi:
                    continue
                before = sum(
                    1 for a, b in P.intervals if a <= px <= b
                )
                qx = Q.order.index(x - (x > y))
                after = sum(1 for a, b in Q.intervals if a <= qx <= b)
                assert before == after


def test_presentation_fundamental_flats_consistent():
    for P in random_presentations(150, 8, seed=811):
        M = realize(P)
        if not presentation_connected(P):
            continue
        expected = {(f, rank_of(M, f)) for f in flats.fundamental_flats(M)}
        assert fundamental_flats_from_presentation(P) == expected


def test_presentation_connectivity_consistent():
    for P in random_presentations(200, 8, seed=812):
        assert presentation_connected(P) == is_connected(realize(P))


def test_covered_elements_lie_on_spanning_circuits():
    for P in random_presentations(100, 7, seed=813):
        M = realize(P)
        if not presentation_connected(P) or M.rank == 0:
            continue
        spanning = [
            c for c in M.circuit_masks if c.bit_count() == M.rank + 1
        ]
        a1 = P.intervals[0][0]
        br = P.intervals[-1][1]
        for pos in range(P.n):
            count = sum(1 for a, b in P.intervals if a <= pos <= b)
            if count >= 2 or pos in (a1, br):
                e = P.order[pos]
                assert any((c >> e) & 1 for c in spanning)


def test_terminal_contraction_stays_connected():
    for P in random_presentations(120, 7, seed=814):
        M = realize(P)
        if not presentation_connected(P):
            continue
        fund = flats.fundamental_flats(M)
        for e in (P.order[0], P.order[-1]):
            containing = [f for f in fund if e in f]
            if not containing:
                continue
            smallest = min(containing, key=len)
            if rank_of(M, smallest) > 1:
                assert is_connected(contract(M, {e}))


def test_nonterminal_single_interval_elements_disconnect():
    for P in random_presentations(120, 7, seed=815):
        M = realize(P)
        if not presentation_connected(P) or P.n < 3:
            continue
        for pos in range(1, P.n - 1):
            e = P.order[pos]
            count = sum(1 for a, b in P.intervals if a <= pos <= b)
            got = not is_connected(contract(M, {e}))
            assert got == (count == 1)


def reversal_symmetric_presentations(max_n):
    """Every connected presentation on the identity order, 2..max_n
    elements, whose intervals reversing the path order maps to themselves:
    its group holds the path reversal, so most of these groups are not
    generated by clone swaps alone."""
    for n in range(2, max_n + 1):
        for r in range(1, n):
            for a in itertools.combinations(range(n), r):
                for b in itertools.combinations(range(n), r):
                    if all(x <= y for x, y in zip(a, b)):
                        P = IntervalPresentation(n, tuple(zip(a, b)))
                        if (P.reversed().intervals == P.intervals
                                and presentation_connected(P)):
                            yield P


def test_automorphisms_are_fundamental_flat_symmetries():
    for P in [*random_presentations(60, 6, seed=816),
              *reversal_symmetric_presentations(7)]:
        M = realize(P)
        if not presentation_connected(P):
            continue
        fund = {f: rank_of(M, f) for f in flats.fundamental_flats(M)}
        expected = set()
        for perm in itertools.permutations(range(M.n)):
            mapped = {
                frozenset(perm[e] for e in f): r for f, r in fund.items()
            }
            if mapped == fund:
                expected.add(perm)
        assert automorphisms(M) == expected


def test_oracle_closed_under_duality_and_reversal(small_corpus):
    for M in small_corpus:
        found = find_path_order(M)
        if found is None:
            continue
        order, pres = found
        assert find_path_order(dual(M)) is not None
        # the reversed order realizes M as well
        rev = pres.reversed()
        assert realize(rev) == M


# --- recognizer agreement and nestedness ----------------------------------------------


def test_three_recognizers_agree(small_corpus):
    report = theorem_check(small_corpus, corpus_label="property-suite")
    assert report.ok, report.disagreements


def test_nested_cross_check(small_corpus):
    for M in small_corpus:
        assert is_nested(M) == is_nested_via_pn(M)


def test_minor_duality(small_corpus):
    rng = SplitMix64(999)
    patterns = [uniform(2, 3), p_n(2), uniform(1, 2), wheel3(), whirl3()]
    for _ in range(60):
        M = small_corpus[rng.randrange(len(small_corpus))]
        pat = patterns[rng.randrange(len(patterns))]
        if pat.n > M.n:
            continue
        fwd = minors.has_minor(M, pat) is not None
        bwd = minors.has_minor(dual(M), dual(pat)) is not None
        assert fwd == bwd
