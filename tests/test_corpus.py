from __future__ import annotations

from functools import lru_cache

import pytest

from latmat import _canonical, catalog, corpus
from latmat.catalog import b_nk, c_nk, p_prime_n
from latmat.corpus import (
    CorpusSpec,
    SplitMix64,
    _class_test,
    generate,
    generate_tagged,
    parse_corpus_spec,
    transversal_matroid,
)
from latmat.kernel import (
    MAX_GROUND,
    GroundTooLarge,
    Matroid,
    MatroidError,
    _bits,
    canonical_form,
    dual,
    from_bases,
    uniform,
)
from latmat.lpm import is_lpm_char
from test_acceptance import ACCEPT_SPEC
from util import (
    brute_dedup,
    brute_generate_tagged,
    brute_raw_draws,
    brute_transversal_bases,
    degree_twins,
    family_masks,
    matching_transversal_masks,
)


def count_labelings(monkeypatch) -> list[int]:
    """A list that grows by one entry per canonical labeling from now on."""
    labelled = []
    real = _canonical.canonical_labeling
    monkeypatch.setattr(
        _canonical, "canonical_labeling",
        lambda n, masks, family: labelled.append(n) or real(n, masks, family),
    )
    return labelled


def first_of_each_class(raw):
    """The (source, matroid) pairs of `raw` that one class test keeps."""
    is_new = _class_test()
    return [(s, M) for s, M in raw if is_new(M)]


def test_splitmix64_reference_values():
    # published sequence for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_splitmix64_randrange_bounds():
    rng = SplitMix64(42)
    draws = [rng.randrange(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_parse_corpus_spec():
    spec = parse_corpus_spec("catalog-minors,max-n=6")
    assert spec.generators == ("catalog-minors",)
    assert spec.max_n == 6 and spec.seed is None
    spec2 = parse_corpus_spec("lpm-random,count=50,seed=9,max-n=7")
    assert spec2.count == 50 and spec2.seed == 9
    assert "seed=9" in spec2.label
    with pytest.raises(MatroidError):
        parse_corpus_spec("bogus-generator")
    with pytest.raises(MatroidError):
        parse_corpus_spec("lpm-random,count=5")  # randomized without seed
    with pytest.raises(MatroidError):
        parse_corpus_spec("lpm-random,seed=1,fuel=9")
    for text, key, value in (
        ("catalog-minors,count=abc", "count", "abc"),
        ("catalog-minors,max-n=x", "max-n", "x"),
        ("lpm-random,seed=1.5", "seed", "1.5"),
    ):
        with pytest.raises(
            MatroidError, match=f"corpus key '{key}' needs an integer, got '{value}'"
        ):
            parse_corpus_spec(text)
    assert parse_corpus_spec("catalog-minors,max-n=5,max-n=6").max_n == 6
    for text in ("", "seed=7", "count=5,max-n=6"):
        with pytest.raises(MatroidError, match="names no generator"):
            parse_corpus_spec(text)
    with pytest.raises(MatroidError, match="names no generator"):
        CorpusSpec(())


def test_spec_past_ground_cap():
    with pytest.raises(GroundTooLarge):
        parse_corpus_spec("random-sparse-paving,count=2,max-n=13,seed=3")
    with pytest.raises(GroundTooLarge):
        CorpusSpec(("catalog-minors",), max_n=13)
    assert parse_corpus_spec("catalog-minors,max-n=12").max_n == 12
    with pytest.raises(GroundTooLarge, match=f"cap of {MAX_GROUND}"):
        transversal_matroid(13, [1, 2, 4])
    assert transversal_matroid(12, [1, 2, 4]).n == 12


def test_spec_reads_its_numbers_as_ints():
    """``count``, ``max_n`` and a given ``seed`` go through
    ``operator.index``: a non-int is named where a bare TypeError escaped
    before, and bools are 0 and 1."""
    for kwargs, message in (
        ({"count": 2.5}, "count 2.5 is not an int"),
        ({"count": None}, "count None is not an int"),
        ({"max_n": "8"}, "max-n '8' is not an int"),
        ({"seed": 1.0}, "seed 1.0 is not an int"),
    ):
        with pytest.raises(MatroidError) as err:
            CorpusSpec(("lpm-random",), **{"seed": 1, **kwargs})
        assert type(err.value) is MatroidError
        assert str(err.value) == message
    spec = CorpusSpec(("lpm-random",), count=True, seed=False)
    assert (spec.count, spec.seed) == (1, 0)
    assert spec.label == "lpm-random,count=1,max-n=8,seed=0"
    assert spec == CorpusSpec(("lpm-random",), count=1, seed=0)


def test_spec_rejects_undrawable_sizes():
    with pytest.raises(MatroidError, match="count"):
        CorpusSpec(("random-transversal",), count=-3, seed=1)
    with pytest.raises(MatroidError, match="max-n"):
        CorpusSpec(("catalog-minors",), max_n=-1)
    for gen, least in (
        ("random-transversal", 3),
        ("random-sparse-paving", 3),
        ("lpm-random", 2),
    ):
        with pytest.raises(MatroidError, match=gen):
            CorpusSpec((gen,), count=2, max_n=least - 1, seed=1)
        assert generate(CorpusSpec((gen,), count=2, max_n=least, seed=1))
    assert CorpusSpec(("catalog-minors",), count=0, max_n=0).count == 0


def test_transversal_matroid_against_sdr_oracle():
    cases = [
        (3, [0b011, 0b110]),
        (5, [0b00111, 0b11100]),
        (4, [0b1111]),
        (4, [0b0001, 0b0011, 0b0111]),
    ]
    for n, sets in cases:
        M = transversal_matroid(n, sets)
        expected = brute_transversal_bases(
            n, [set(i for i in range(n) if (s >> i) & 1) for s in sets]
        )
        assert M.bases == expected


def test_transversal_matroid_against_matching_reference():
    # seeded set systems of up to n + 1 sets, empty sets and repeats
    # included, on every ground size up to 10
    rng = SplitMix64(4040)
    for _ in range(600):
        n = rng.randint(1, 10)
        full = (1 << n) - 1
        sets = [rng.next_u64() & full for _ in range(rng.randint(0, n + 1))]
        M = transversal_matroid(n, sets)
        assert M.n == n
        assert M.basis_masks == tuple(sorted(matching_transversal_masks(n, sets)))
    # the empty system, and systems of rank below their size at the cap
    for n, sets in (
        (0, []),
        (12, [0b11] * 12),
        (12, [0b111000000111] * 4 + [1 << 8] * 3 + [0]),
    ):
        M = transversal_matroid(n, sets)
        assert M.n == n
        assert M.basis_masks == tuple(sorted(matching_transversal_masks(n, sets)))


def test_generate_deterministic():
    spec = CorpusSpec(
        ("random-transversal", "lpm-random", "duals-closure"),
        count=40,
        max_n=6,
        seed=77,
    )
    a = [canonical_form(M) for M in generate(spec)]
    b = [canonical_form(M) for M in generate(spec)]
    assert a == b
    other = CorpusSpec(spec.generators, count=40, max_n=6, seed=78)
    assert a != [canonical_form(M) for M in generate(other)]


def test_generate_dedupes_and_caps_size():
    spec = CorpusSpec(("lpm-random",), count=60, max_n=6, seed=5)
    ms = generate(spec)
    forms = [canonical_form(M) for M in ms]
    assert len(set(forms)) == len(forms)
    assert all(M.n <= 6 for M in ms)


def test_lpm_random_members_are_lpm():
    spec = CorpusSpec(("lpm-random",), count=50, max_n=7, seed=11)
    for M in generate(spec):
        assert is_lpm_char(M).verdict


def test_generated_families_validate():
    spec = CorpusSpec(
        ("random-transversal", "random-sparse-paving"), count=40, max_n=7, seed=3
    )
    for M in generate(spec):
        assert from_bases(M.n, M.bases) == M


def test_catalog_minors_contains_expected_classes():
    spec = CorpusSpec(("catalog-minors",), count=1, max_n=6)
    forms = {canonical_form(M) for M in generate(spec)}
    assert canonical_form(p_prime_n(3)) in forms  # a minor of A3
    assert canonical_form(uniform(2, 3)) in forms
    assert canonical_form(b_nk(2, 2)) in forms


def test_duals_closure():
    spec = CorpusSpec(("catalog-minors", "duals-closure"), count=1, max_n=6)
    ms = generate(spec)
    forms = {canonical_form(M) for M in ms}
    assert canonical_form(c_nk(2, 2)) in forms  # dual of B2,2
    for M in ms:
        assert canonical_form(dual(M)) in forms


def test_generate_tagged_sources():
    spec = CorpusSpec(
        ("random-transversal", "lpm-random", "duals-closure"),
        count=30,
        max_n=6,
        seed=2,
    )
    tagged = generate_tagged(spec)
    sources = {s for s, _ in tagged}
    assert sources <= {"random-transversal", "lpm-random", "duals-closure"}
    assert [M for _, M in tagged] == generate(spec)


PINNED_SPECS = [
    pytest.param(
        "catalog-minors,random-transversal,lpm-random,duals-closure,"
        "count=600,max-n=8,seed=20260808",
        id="acceptance",
    ),
    pytest.param(
        "random-sparse-paving,duals-closure,count=300,max-n=8,seed=20261017",
        id="reject",
    ),
    pytest.param(
        "lpm-random,duals-closure,random-transversal,duals-closure,"
        "count=80,max-n=7,seed=3",
        id="two-closures",
    ),
    pytest.param("catalog-minors,max-n=5", id="catalog-max-n-5"),
    pytest.param(
        "random-sparse-paving,lpm-random,random-transversal,"
        "count=12,max-n=12,seed=2718",
        id="mixed-max-n-12",
    ),
    pytest.param(
        "catalog-minors,random-transversal,random-sparse-paving,"
        "lpm-random,duals-closure,count=25,max-n=12,seed=5",
        id="all-generators-max-n-12",
    ),
]


@pytest.mark.parametrize("text", PINNED_SPECS)
def test_generate_tagged_matches_brute_force(text):
    """The reference labels every draw, and its ``duals-closure``
    dualizes every draw before it, not only the kept ones."""
    spec = parse_corpus_spec(text)
    got = [(s, M.n, M.basis_masks) for s, M in generate_tagged(spec)]
    want = [(s, M.n, M.basis_masks) for s, M in brute_generate_tagged(spec)]
    assert got == want


@pytest.mark.parametrize("text", PINNED_SPECS)
def test_first_of_each_class_matches_labelling_everything(text):
    """On every draw of the reference generators, duals of dropped draws
    included, the exact repeats, the degree-sorted relabelling and the
    degree-key buckets keep what labelling every matroid keeps."""
    raw = brute_raw_draws(parse_corpus_spec(text))
    want = [(s, M.n, M.basis_masks) for s, M in brute_dedup(raw)]
    got = first_of_each_class(raw)
    assert [(s, M.n, M.basis_masks) for s, M in got] == want


def _twin_items():
    """Fresh (source, matroid) pairs whose degree-key buckets each hold two
    classes: the degree twins a and b, relabelled copies, a repeat of a's
    family, then the dual of each, which share a key of their own."""
    a, b = degree_twins()
    perm = (3, 1, 4, 0, 7, 5, 2, 6)

    def relabelled(M):
        return Matroid._from_masks(
            M.n, [sum(1 << perm[e] for e in _bits(m)) for m in M.basis_masks]
        )

    primals = [a, relabelled(b), relabelled(a), b,
               Matroid._from_masks(a.n, a.basis_masks)]
    assert len({(M.n, M.basis_masks) for M in primals}) == 4
    # a' and b relabel by degree to new families, so only the buckets can
    # place them, b against the bucket's second class
    assert len({_canonical._degree_sorted_family(M.n, M._family)
                for M in primals}) == 4
    return ([("primal", M) for M in primals]
            + [("dual", dual(M)) for M in primals])


@pytest.mark.parametrize(
    "labelings",
    [
        # b' and a' label a first; b misses a and meets b'; the repeat of
        # a is dropped unlabelled; then the same among the duals
        pytest.param(8, id="buckets-only"),
    ],
)
def test_degree_key_bucket_with_two_classes(monkeypatch, labelings):
    want = [(s, M.n, M.basis_masks) for s, M in brute_dedup(_twin_items())]
    labelled = count_labelings(monkeypatch)
    got = first_of_each_class(_twin_items())
    assert [(s, M.n, M.basis_masks) for s, M in got] == want
    assert [s for s, _ in got] == ["primal", "primal", "dual", "dual"]
    assert len(labelled) == labelings


def test_relabelled_copy_is_dropped_unlabelled(monkeypatch):
    """A copy relabelling by degree to an earlier family joins its class
    with no labeling.  The relabelled int does not fix n: the rank-0
    families on one and two elements are both the empty set's bit, and
    both are kept."""
    a, _ = degree_twins()
    a1 = _twin_items()[2][1]  # a relabelled
    relabelled = _canonical._degree_sorted_family(a.n, a1._family)
    a2 = Matroid._from_masks(a.n, family_masks(a.n, relabelled))
    assert len({a.basis_masks, a1.basis_masks, a2.basis_masks}) == 3
    raw = [("a'", a1), ("a", a), ("a''", a2),
           ("loop", uniform(0, 1)), ("loops", uniform(0, 2))]
    labelled = count_labelings(monkeypatch)
    got = first_of_each_class(raw)
    assert [s for s, _ in got] == ["a'", "loop", "loops"]
    assert labelled == [8, 8]  # a and its bucket mate a'; a'' never
    assert got == first_of_each_class(raw[:1] + raw[2:])
    assert labelled == [8, 8]


def test_generate_tagged_labels_only_on_key_collisions(monkeypatch):
    """25 labelings on the acceptance spec (813 before the degree-sorted
    relabelling), whether or not the catalog was built first: the
    catalog's build labels none of its members."""
    spec = parse_corpus_spec(ACCEPT_SPEC)
    labelled = count_labelings(monkeypatch)
    fresh = lru_cache(maxsize=None)(catalog._catalog_of_size.__wrapped__)
    monkeypatch.setattr(catalog, "_catalog_of_size", fresh)
    assert len(generate_tagged(spec)) == 498
    assert fresh.cache_info().misses == 3  # sizes 6, 7 and 8
    assert len(labelled) == 25
    labelled.clear()
    assert len(generate_tagged(spec)) == 498
    assert fresh.cache_info().misses == 3
    assert len(labelled) == 25


@pytest.mark.parametrize(
    "text, kept_before, kept, labelings",
    [
        pytest.param(ACCEPT_SPEC, 373, 498, 25, id="acceptance"),
        pytest.param(
            "random-sparse-paving,duals-closure,count=300,max-n=8,"
            "seed=20261017",
            63, 82, 87, id="reject",
        ),
    ],
)
def test_duals_closure_dualizes_the_kept_classes(
    monkeypatch, text, kept_before, kept, labelings
):
    """``duals-closure`` builds one dual per class kept before it, not one
    per draw, and the class test labels only on degree-key collisions."""
    duals = []
    real = corpus.dual
    monkeypatch.setattr(corpus, "dual", lambda M: duals.append(M) or real(M))
    labelled = count_labelings(monkeypatch)
    tagged = generate_tagged(parse_corpus_spec(text))
    assert len(tagged) == kept
    assert len(duals) == kept_before
    assert sum(s != "duals-closure" for s, _ in tagged) == kept_before
    assert len(labelled) == labelings
