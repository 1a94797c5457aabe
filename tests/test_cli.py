from __future__ import annotations

import hashlib
import json

import pytest

from latmat import corpus
from latmat.cli import main
from latmat.catalog import build_by_name, p_n, wheel3
from latmat.kernel import (
    direct_sum,
    is_connected,
    matroid_from_text,
    matroid_to_text,
    uniform,
)
from latmat.lpm import IntervalPresentation, presentation_to_text, realize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_recognize_minors(tmp_path, capsys):
    path = tmp_path / "w3.mat"
    code, out, err = run(capsys, "gen", "--family", "W3", "-o", str(path))
    assert code == 0
    assert matroid_from_text(path.read_text()) == wheel3()
    code, out, err = run(capsys, "recognize", "--method", "minors", str(path))
    assert code == 1
    assert "W3" in out and "no" in out


def test_recognize_oracle_positive(tmp_path, capsys):
    path = tmp_path / "u24.mat"
    path.write_text(matroid_to_text(uniform(2, 4)))
    code, out, err = run(capsys, "recognize", "--method", "oracle", str(path))
    assert code == 0
    assert "order:" in out and "interval:" in out


def test_recognize_json_and_flats(tmp_path, capsys):
    path = tmp_path / "w3.mat"
    path.write_text(matroid_to_text(wheel3()))
    code, out, err = run(
        capsys, "recognize", "--method", "flats", "--json", str(path)
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witness"]["kind"] == "clause"
    assert payload["witness"]["clause"] == "i"


def test_gen_unknown_family(capsys):
    code, out, err = run(capsys, "gen", "--family", "Z9")
    assert code == 2 and "error:" in err


def test_info_table_and_json(tmp_path, capsys):
    path = tmp_path / "p3.mat"
    path.write_text(matroid_to_text(p_n(3)))
    code, out, err = run(capsys, "info", str(path))
    assert code == 0
    assert "matroid: n=6 rank=3 bases=18 connected=yes" in out
    assert "{0,1,2}" in out
    code, out, err = run(capsys, "info", "--json", str(path))
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["rank"] == 3
    flats = {tuple(f["elements"]): f for f in payload["flats"]}
    assert flats[(0, 1, 2)]["fundamental"] is True
    assert flats[(0, 1, 2)]["cyclic"] is True


def test_realize_and_diagram(tmp_path, capsys):
    pres = IntervalPresentation(6, ((0, 2), (1, 4), (3, 5)))
    ppath = tmp_path / "p3.lpm"
    ppath.write_text(presentation_to_text(pres))
    mpath = tmp_path / "p3.mat"
    code, out, err = run(capsys, "realize", str(ppath), "-o", str(mpath))
    assert code == 0
    assert matroid_from_text(mpath.read_text()) == realize(pres)
    code, out, err = run(capsys, "diagram", str(ppath))
    assert code == 0
    assert "lower: NNENEE" in out and "upper: EENENN" in out


def test_realize_past_ground_cap_exits_2(tmp_path, capsys):
    ppath = tmp_path / "big.lpm"
    ppath.write_text("LPM 13 2\n0 6\n1 12\n")
    mpath = tmp_path / "big.mat"
    code, out, err = run(capsys, "realize", str(ppath), "-o", str(mpath))
    assert code == 2 and "cap" in err
    assert not mpath.exists()


def test_minor_verb(tmp_path, capsys):
    host = tmp_path / "w3.mat"
    host.write_text(matroid_to_text(wheel3()))
    pattern = tmp_path / "u23.mat"
    pattern.write_text(matroid_to_text(uniform(2, 3)))
    code, out, err = run(capsys, "minor", "--pattern", str(pattern), str(host))
    assert code == 0
    assert "delete" in out and "contract" in out and "iso:" in out
    big = tmp_path / "u27.mat"
    big.write_text(matroid_to_text(uniform(2, 7)))
    code, out, err = run(capsys, "minor", "--pattern", str(big), str(host))
    assert code == 2  # pattern larger than host violates the precondition
    pattern2 = tmp_path / "p2.mat"
    pattern2.write_text(matroid_to_text(p_n(2)))
    host2 = tmp_path / "u24.mat"
    host2.write_text(matroid_to_text(uniform(2, 4)))
    code, out, err = run(capsys, "minor", "--pattern", str(pattern2), str(host2))
    assert code == 1 and "not found" in out


@pytest.mark.parametrize(
    "pattern, host, code, stdout",
    [
        pytest.param(
            uniform(2, 4), uniform(3, 6), 0,
            "minor: delete [1] contract [0]\niso: 0->0 1->1 2->2 3->3\n",
            id="U2,4-in-U3,6",
        ),
        pytest.param(
            wheel3(), direct_sum(build_by_name("B3,2"), uniform(1, 1)), 1,
            "minor: not found\n",
            id="W3-in-B3,2+U1,1",
        ),
    ],
)
def test_minor_verb_on_symmetric_hosts(
    tmp_path, capsys, pattern, host, code, stdout
):
    """Hosts whose elements fall into large clone classes keep the stdout
    bytes of the walk over every split."""
    ppath, hpath = tmp_path / "pattern.mat", tmp_path / "host.mat"
    ppath.write_text(matroid_to_text(pattern))
    hpath.write_text(matroid_to_text(host))
    assert run(capsys, "minor", "--pattern", str(ppath), str(hpath))[:2] == (
        code, stdout
    )


def test_verify_catalog_small(capsys):
    code, out, err = run(capsys, "verify-catalog", "--max-size", "6")
    assert code == 0
    for name in ("A3", "B2,2", "C4,2", "W3", "Whirl3"):
        assert name in out
    assert "all pass" in out


def test_verify_catalog_twelve_elements_exact_oracle(capsys):
    code, out, err = run(capsys, "verify-catalog", "--max-size", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["entries"]) == 28
    assert all(e["passed"] for e in payload["entries"])


def test_verify_catalog_max_size_out_of_range_exits_2(capsys):
    for value in ("5", "13", "x"):
        code, out, err = run(capsys, "verify-catalog", "--max-size", value)
        assert code == 2 and "--max-size" in err and out == "", value


def test_oracle_cap_flag_is_gone_exits_2(tmp_path, capsys):
    # the constructors' ground-set cap is the oracle's only bound, so
    # --max-n is an unknown flag on these verbs
    path = tmp_path / "u24.mat"
    path.write_text(matroid_to_text(uniform(2, 4)))
    for argv in (
        ("recognize", "--method", "oracle", "--max-n", "12", str(path)),
        ("verify-catalog", "--max-size", "6", "--max-n", "12"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "--max-n" in err and out == "", argv


def test_recognize_oracle_to_twelve_elements_matches_flats(tmp_path, capsys):
    lpm6 = realize(IntervalPresentation(6, ((0, 2), (1, 4), (3, 5))))
    for k, (M, code) in enumerate((
        (uniform(5, 10), 0),
        (build_by_name("A5"), 1),
        (uniform(6, 12), 0),
        (direct_sum(lpm6, wheel3()), 1),
    )):
        path = tmp_path / f"m{k}.mat"
        path.write_text(matroid_to_text(M))
        for method in ("oracle", "flats"):
            argv = ("recognize", "--method", method, str(path))
            assert run(capsys, *argv)[0] == code, (k, method)


def test_verify_theorem_catalog_minors(capsys):
    code, out, err = run(
        capsys, "verify-theorem", "--corpus", "catalog-minors,max-n=8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == []
    assert payload["total"] > 100


def test_verify_theorem_nine_elements(capsys):
    # past the oracle's default of 9 elements, the corpus cap is the
    # ground-set cap
    spec = ("random-sparse-paving,lpm-random,random-transversal,"
            "duals-closure,count=60,max-n={},seed=5")
    code, out, err = run(
        capsys, "verify-theorem", "--corpus", spec.format(9), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == []
    assert (payload["total"], payload["lpm"]) == (203, 175)
    code, out, err = run(
        capsys, "verify-theorem", "--corpus", spec.format(13), "--json"
    )
    assert code == 2 and "exceeds the cap of 12" in err and out == ""


def test_verify_theorem_requires_seed(capsys):
    code, out, err = run(
        capsys, "verify-theorem", "--corpus", "lpm-random,count=5"
    )
    assert code == 2 and "seed" in err


def test_verify_theorem_past_ground_cap_exits_2(capsys):
    code, out, err = run(
        capsys, "verify-theorem", "--corpus",
        "random-sparse-paving,count=3,max-n=24,seed=1",
    )
    assert code == 2 and "cap" in err and out == ""


def test_verify_theorem_rejects_undrawable_specs(capsys):
    for spec, word in (
        ("random-transversal,count=-3,seed=1", "count"),
        ("catalog-minors,max-n=-1", "max-n"),
        ("random-transversal,max-n=2,seed=1", "random-transversal"),
        ("lpm-random,max-n=1,seed=1", "lpm-random"),
    ):
        code, out, err = run(capsys, "verify-theorem", "--corpus", spec, "--json")
        assert code == 2 and word in err and out == "", spec


def test_recognize_minors_json_bytes(tmp_path, capsys):
    # the first witness of the split search, pinned so a reordered search fails
    np8 = corpus.generate(corpus.parse_corpus_spec(
        "random-sparse-paving,count=1,max-n=8,seed=20261017"
    ))[0]
    assert np8.n == 8 and np8.num_bases == 54
    cases = (
        (wheel3(), '{"method":"minors","verdict":false,"witness":{"contract":[],'
         '"delete":[],"iso":{"0":0,"1":1,"2":2,"3":3,"4":4,"5":5},'
         '"kind":"excluded-minor","pattern":"W3"}}\n'),
        (np8, '{"method":"minors","verdict":false,"witness":{"contract":[5,6],'
         '"delete":[],"iso":{"0":0,"1":5,"2":3,"3":4,"4":1,"5":2},'
         '"kind":"excluded-minor","pattern":"A3"}}\n'),
        # disconnected: W3 is found on its component, and the coloop 0, a
        # basis of the other component, is contracted
        (direct_sum(uniform(1, 1), wheel3()),
         '{"method":"minors","verdict":false,"witness":{"contract":[0],'
         '"delete":[],"iso":{"0":0,"1":1,"2":2,"3":3,"4":4,"5":5},'
         '"kind":"excluded-minor","pattern":"W3"}}\n'),
    )
    for M, expected in cases:
        path = tmp_path / "m.mat"
        path.write_text(matroid_to_text(M))
        code, out, err = run(
            capsys, "recognize", "--method", "minors", "--json", str(path)
        )
        assert code == 1 and out == expected


def test_verify_theorem_seed_flag(capsys):
    code1, out1, _ = run(
        capsys, "verify-theorem", "--corpus", "lpm-random,count=20,max-n=5",
        "--seed", "4", "--json",
    )
    code2, out2, _ = run(
        capsys, "verify-theorem", "--corpus", "lpm-random,count=20,max-n=5",
        "--seed", "4", "--json",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_error_paths(tmp_path, capsys):
    code, out, err = run(capsys, "info", str(tmp_path / "absent.mat"))
    assert code == 2
    bad = tmp_path / "bad.mat"
    bad.write_text("MATROID 4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2 and "exchange" in err
    lpm = tmp_path / "bad.lpm"
    lpm.write_text("LPM -1 0\n")
    for verb in ("diagram", "realize"):
        code, out, err = run(capsys, verb, str(lpm))
        assert code == 2 and "negative" in err and out == ""
    for text, message in (
        ("LPM 4 1\n0\n", "bad interval line: '0'"),
        ("LPM x 1\n0 1\n", "bad header line: 'LPM x 1'"),
        ("LPM 4 1\n0 1\nORDER 0 1 a 3\n", "bad ORDER line: 'ORDER 0 1 a 3'"),
        ("LPM 4 1\n0 1\nORDER 0 1 2 3\nORDER 3 2 1 0\n",
         "repeated ORDER line: 'ORDER 3 2 1 0'"),
        ("LPM 3 1\n0 2\nORDERING 2 1 0\n", "bad interval line: 'ORDERING 2 1 0'"),
        ("LPM 3 1\n0 2\nORDER\n", "ORDER line lists no elements: 'ORDER'"),
    ):
        lpm.write_text(text)
        code, out, err = run(capsys, "diagram", str(lpm))
        assert code == 2 and message in err and out == ""
    for text, message in (
        ("MATROID x 1\n0\n", "bad header line: 'MATROID x 1'"),
        ("MATROID 3 1\n0\nx\n", "bad basis line: 'x'"),
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "info", str(bad))
        assert code == 2 and message in err and out == ""
    for spec in ("seed=7", ""):
        code, out, err = run(capsys, "verify-theorem", "--corpus", spec, "--json")
        assert code == 2 and "names no generator" in err and out == ""


def test_usage_errors_exit_2(capsys):
    assert main(["recognize", "--method", "psychic", "x"]) == 2
    assert main([]) == 2
    assert main(["--version"]) == 0


@pytest.mark.parametrize(
    "spec, digest",
    [
        pytest.param(
            "catalog-minors,random-transversal,lpm-random,duals-closure,"
            "count=600,max-n=8,seed=20260808",
            "c1fd8b4924dd3cdc7a8070620e3294a17d2c03760317074e0f4c7282819d29de",
            id="acceptance",
        ),
        pytest.param(
            "random-sparse-paving,duals-closure,count=300,max-n=8,seed=20261017",
            "814584be1d884ef6f69dccb7a5f7a44e3041d793abb2a64da7de9023746696a5",
            id="reject",
        ),
    ],
)
def test_verify_theorem_json_bytes_are_pinned(capsys, spec, digest):
    """Acceptance criterion 9 across commits: the report bytes of the two
    benchmark specs never change."""
    code, out, err = run(capsys, "verify-theorem", "--corpus", spec, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _connected_lpm12():
    """A seeded connected LPM on 12 elements: rank 7, 730 bases."""
    spec = corpus.parse_corpus_spec("lpm-random,count=30,max-n=12,seed=42")
    return next(
        M for M in corpus.generate(spec) if M.n == 12 and is_connected(M)
    )


@pytest.mark.parametrize(
    "argv, digests",
    [
        pytest.param(
            ("info", "--json"),
            (
                "0fb8442e3d83605fd4b4fd3c1362429c277fa12075b76180fedb7625d2c4ead7",
                "447829aaf2a2e7009fe2cb71c664398aa9c2ec4d6ca75069df27637050b0e2c4",
            ),
            id="info",
        ),
        pytest.param(
            ("recognize", "--method", "flats", "--json"),
            (
                "7e5068235d68a7e80ea57605a3de6a7307e946b7b14e8bbc98b37a77fad6892a",
                "68b76f1ee0d35f4fb5c0f561e609c7d923bc36bf18aeaeed2a15886961ae248f",
            ),
            id="flats",
        ),
    ],
)
def test_flats_json_bytes_at_twelve_elements_are_pinned(
    tmp_path, capsys, argv, digests
):
    """The flat lattice read at the ground-set cap: A6 from ``gen`` and a
    seeded LPM, each through the text format, keep their stdout bytes."""
    a6 = tmp_path / "a6.mat"
    code, out, err = run(capsys, "gen", "--family", "A6", "-o", str(a6))
    assert code == 0
    lpm12 = tmp_path / "lpm12.mat"
    M = _connected_lpm12()
    assert (M.rank, M.num_bases) == (7, 730)
    lpm12.write_text(matroid_to_text(M))
    got = []
    for path in (a6, lpm12):
        code, out, err = run(capsys, *argv, str(path))
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == digests


def test_plain_and_commented_crlf_files_give_the_same_bytes(tmp_path, capsys):
    """A 12-element file from ``gen`` and the same file with a comment line
    and CRLF line ends give the same stdout and exit code."""
    plain = tmp_path / "a6.mat"
    code, out, err = run(capsys, "gen", "--family", "A6", "-o", str(plain))
    assert code == 0
    text = plain.read_text()
    assert text.startswith("MATROID 12 6\n")
    commented = tmp_path / "a6-commented.mat"
    commented.write_bytes(("# A6\n" + text).replace("\n", "\r\n").encode())
    for argv in (("recognize", "--method", "flats", "--json"), ("info", "--json")):
        got = [run(capsys, *argv, str(path))[:2] for path in (plain, commented)]
        assert got[0] == got[1]
