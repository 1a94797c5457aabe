from __future__ import annotations

import json

from latmat import corpus
from latmat.cli import main
from latmat.catalog import p_n, wheel3
from latmat.kernel import matroid_from_text, matroid_to_text, uniform
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


def test_verify_catalog_small(capsys):
    code, out, err = run(capsys, "verify-catalog", "--max-size", "6")
    assert code == 0
    for name in ("A3", "B2,2", "C4,2", "W3", "Whirl3"):
        assert name in out
    assert "all pass" in out


def test_verify_catalog_ten_elements_exact_oracle(capsys):
    code, out, err = run(
        capsys, "verify-catalog", "--max-size", "10", "--max-n", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["entries"]) == 19
    assert all(e["passed"] for e in payload["entries"])


def test_oracle_cap_out_of_range_exits_2(tmp_path, capsys):
    path = tmp_path / "u24.mat"
    path.write_text(matroid_to_text(uniform(2, 4)))
    for value in ("-1", "13", "ten"):
        for argv in (
            ("recognize", "--method", "oracle", "--max-n", value, str(path)),
            ("verify-catalog", "--max-size", "6", "--max-n", value),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "--max-n" in err and out == "", argv
    code, out, err = run(
        capsys, "recognize", "--method", "oracle", "--max-n", "12", str(path)
    )
    assert code == 0


def test_verify_theorem_catalog_minors(capsys):
    code, out, err = run(
        capsys, "verify-theorem", "--corpus", "catalog-minors,max-n=8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disagreements"] == []
    assert payload["total"] > 100


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


def test_usage_errors_exit_2(capsys):
    assert main(["recognize", "--method", "psychic", "x"]) == 2
    assert main([]) == 2
    assert main(["--version"]) == 0
