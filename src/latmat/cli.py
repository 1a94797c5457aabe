"""Command line front end.

Exit codes: 0 = success / affirmative verdict, 1 = negative verdict,
2 = error (malformed file, axiom violation, size cap, bad flags).
Randomized verbs require an explicit seed; nothing here draws entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__, catalog, corpus, flats, kernel, lpm, minors


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    M = catalog.build_by_name(args.family)
    _write_out(kernel.matroid_to_text(M), args.output)
    return 0


def _cmd_info(args) -> int:
    M = kernel.matroid_from_text(_read(args.file))
    report = flats.flats_report(M)
    if args.json:
        payload = {
            "n": M.n,
            "rank": M.rank,
            "bases": M.num_bases,
            "connected": kernel.is_connected(M),
            "flats": [
                {
                    "elements": sorted(e.flat),
                    "rank": e.rank,
                    "nullity": e.nullity,
                    "connected": e.is_connected,
                    "cyclic": e.is_cyclic,
                    "pnc": e.is_pnc,
                    "reducible": e.is_reducible,
                    "fundamental": e.is_fundamental,
                }
                for e in report.entries
            ],
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0
    print(f"matroid: n={M.n} rank={M.rank} bases={M.num_bases} "
          f"connected={'yes' if kernel.is_connected(M) else 'no'}")
    header = f"{'flat':<24}{'rk':>3}{'nul':>4}  conn cyc pnc red fund"
    print(header)
    print("-" * len(header))
    for e in report.entries:
        flat = "{" + ",".join(str(x) for x in sorted(e.flat)) + "}"
        flags = "  ".join(
            "Y" if v else "." for v in (
                e.is_connected, e.is_cyclic, e.is_pnc, e.is_reducible,
                e.is_fundamental,
            )
        )
        print(f"{flat:<24}{e.rank:>3}{e.nullity:>4}  {flags}")
    return 0


def _cmd_realize(args) -> int:
    P = lpm.presentation_from_text(_read(args.file))
    M = lpm.realize(P)
    _write_out(kernel.matroid_to_text(M), args.output)
    return 0


def _witness_json(w) -> object:
    if w is None:
        return None
    if isinstance(w, lpm.IntervalPresentation):
        return {
            "kind": "presentation",
            "order": list(w.order),
            "intervals": [list(iv) for iv in w.intervals],
        }
    if isinstance(w, lpm.ClauseViolation):
        return {
            "kind": "clause",
            "clause": w.clause,
            "component": sorted(w.component),
            "flats": [sorted(f) for f in w.flats],
        }
    if isinstance(w, minors.MinorWitness):
        return {
            "kind": "excluded-minor",
            "pattern": w.pattern_name,
            "delete": sorted(w.delete),
            "contract": sorted(w.contract),
            "iso": {str(k): v for k, v in sorted(w.iso.items())},
        }
    return str(w)


def _cmd_recognize(args) -> int:
    M = kernel.matroid_from_text(_read(args.file))
    result = lpm.recognize(M, args.method, max_n=args.max_n)
    if args.json:
        print(json.dumps(
            {
                "verdict": result.verdict,
                "method": result.method,
                "witness": _witness_json(result.witness),
            },
            sort_keys=True,
            separators=(",", ":"),
        ))
        return 0 if result.verdict else 1
    if result.verdict:
        print(f"lattice path matroid: yes ({result.method})")
        if isinstance(result.witness, lpm.IntervalPresentation):
            print("order: " + " ".join(str(e) for e in result.witness.order))
            for a, b in result.witness.intervals:
                print(f"interval: {a} {b}")
    else:
        print(f"lattice path matroid: no ({result.method})")
        w = result.witness
        if isinstance(w, lpm.ClauseViolation):
            print(f"violated clause ({w.clause}) on component "
                  "{" + ",".join(str(x) for x in sorted(w.component)) + "}")
            for f in w.flats:
                print("flat: {" + ",".join(str(x) for x in sorted(f)) + "}")
        elif isinstance(w, minors.MinorWitness):
            print(f"excluded minor {w.pattern_name}: "
                  f"delete {sorted(w.delete)} contract {sorted(w.contract)}")
    return 0 if result.verdict else 1


def _cmd_minor(args) -> int:
    pattern = kernel.matroid_from_text(_read(args.pattern))
    host = kernel.matroid_from_text(_read(args.file))
    witness = minors.has_minor(host, pattern)
    if witness is None:
        print("minor: not found")
        return 1
    print(f"minor: delete {sorted(witness.delete)} "
          f"contract {sorted(witness.contract)}")
    print("iso: " + " ".join(
        f"{k}->{v}" for k, v in sorted(witness.iso.items())
    ))
    return 0


def _cmd_diagram(args) -> int:
    P = lpm.presentation_from_text(_read(args.file))
    sys.stdout.write(lpm.diagram(P))
    return 0


def _cmd_verify_catalog(args) -> int:
    entries = catalog.catalog_up_to(args.max_size)
    reports = [
        lpm.verify_excluded_minor(e.matroid, max_n=args.max_n, name=e.name)
        for e in entries
    ]
    ok = all(r.passed for r in reports)
    if args.json:
        payload = {
            "max_size": args.max_size,
            "all_passed": ok,
            "entries": [
                {
                    "name": r.name,
                    "outside_class": r.outside_class,
                    "minors_in_class": r.minors_in_class,
                    "passed": r.passed,
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0 if ok else 1
    print(f"{'name':<10}{'outside':<9}{'minors-in-class':<17}verdict")
    for r in reports:
        print(f"{r.name:<10}{str(r.outside_class).lower():<9}"
              f"{str(r.minors_in_class).lower():<17}"
              f"{'PASS' if r.passed else 'FAIL'}")
    print(f"verified {len(reports)} catalog members: "
          f"{'all pass' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def _cmd_verify_theorem(args) -> int:
    spec = corpus.parse_corpus_spec(
        args.corpus, count=args.count, max_n=args.max_n, seed=args.seed
    )
    matroids = corpus.generate(spec)
    report = lpm.theorem_check(matroids, corpus_label=spec.label)
    if args.json:
        print(report.to_json())
    else:
        print(f"corpus {report.corpus_label}: {report.total} matroids, "
              f"{report.lpm_count} in class, {report.non_lpm_count} out")
        if report.disagreements:
            for d in report.disagreements:
                print(f"DISAGREEMENT: {d}")
        print(f"disagreements: {len(report.disagreements)}")
    return 0 if report.ok else 1


def _up_to_cap(least: int):
    """An argparse type: an integer from `least` to ``MAX_GROUND``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not least <= value <= kernel.MAX_GROUND:
            raise argparse.ArgumentTypeError(
                f"must be between {least} and the ground-set cap of "
                f"{kernel.MAX_GROUND}, got {value}"
            )
        return value

    return parse


# --max-n of the oracle, and --max-size of verify-catalog, whose smallest
# excluded minor has 6 elements
_oracle_cap = _up_to_cap(0)
_catalog_size = _up_to_cap(6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmat",
        description="lattice path matroid toolbox",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="write a catalog matroid file")
    p.add_argument("--family", required=True,
                   help="family name, e.g. W3, A3, B2,2, C4,2, P3, Pprime3")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="flat classification table")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("realize", help="presentation file -> matroid file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("recognize", help="is the matroid a lattice path matroid?")
    p.add_argument("--method", required=True,
                   choices=["oracle", "flats", "minors"])
    p.add_argument("--max-n", type=_oracle_cap, default=lpm.ORACLE_MAX_N,
                   help=f"oracle ground-set cap, at most {kernel.MAX_GROUND} "
                        f"(default {lpm.ORACLE_MAX_N})")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("minor", help="search for a pattern minor in the host")
    p.add_argument("--pattern", required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("diagram", help="render the lattice path region")
    p.add_argument("file")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("verify-catalog",
                       help="minor-minimality of every catalog member")
    p.add_argument("--max-size", type=_catalog_size, default=8,
                   help=f"largest catalog member, 6 to {kernel.MAX_GROUND} "
                        "(default 8)")
    p.add_argument("--max-n", type=_oracle_cap, default=lpm.ORACLE_MAX_N,
                   help=f"oracle ground-set cap, at most {kernel.MAX_GROUND} "
                        f"(default {lpm.ORACLE_MAX_N})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("verify-theorem",
                       help="recognizer agreement over a corpus")
    p.add_argument("--corpus", required=True,
                   help="e.g. catalog-minors,max-n=8 or "
                        "random-transversal,count=200,seed=7")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_theorem)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (kernel.MatroidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
