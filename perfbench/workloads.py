"""The benchmark's workloads: inputs from a seed, one timed pass, the gate.

A verdict is one three-way check of one matroid (oracle, flat
characterization, excluded-minor search, in the order ``theorem_check``
runs them) in the ``theorem-*`` workloads, and one ``recognize`` call
including text parsing in ``recognize-large``.  Every pass rebuilds its
``Matroid`` values from masks or text, so no per-matroid cache outlives a
pass; only the shared catalog, warmed during set-up, is reused.  A pass
calls ``after()`` once after each verdict, outside the verdict's timing;
the untraced runs sample the host's speed there (see ``calibrate``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

import inputs

# The acceptance spec and the reject-heavy spec, with the sha256 of
# ``latmat verify-theorem --corpus <spec> --json`` stdout at the commit that
# introduced this benchmark.  The bytes must never change (see ROADMAP).
ACCEPT_SPEC = (
    "catalog-minors,random-transversal,lpm-random,duals-closure,"
    "count=600,max-n=8,seed=20260808"
)
REJECT_SPEC = "random-sparse-paving,duals-closure,count=300,max-n=8,seed=20261017"
CLI_DIGESTS = {
    ACCEPT_SPEC: "c1fd8b4924dd3cdc7a8070620e3294a17d2c03760317074e0f4c7282819d29de",
    REJECT_SPEC: "814584be1d884ef6f69dccb7a5f7a44e3041d793abb2a64da7de9023746696a5",
}

# theorem-reject strata: (n, rank, circuit-hyperplanes, matroids).  Sparse
# paving matroids with three or more circuit-hyperplanes were all non-LPMs
# in a 918-matroid sample of the reject spec's generator, and one relaxed
# circuit-hyperplane gave an LPM every time.  The strata fix the mix that
# decides the time of a pass: 44 rejections that exhaust the 8-element
# order scan and 8 quick acceptances.  The scans' cost steps up with the
# rank, so the cheapest of them, at rank 4, are made the largest group: the
# median verdict then falls inside that group rather than on a step between
# two groups.  Within it one scan costs from 150 to 290 ms with the draw,
# so the group is large (36) and the quick acceptances few, which puts the
# median near the middle of the group: resampling the rank-4 scans of four
# seeds put the seed-to-seed spread of the median at 4% with this mix, and
# at 7% with 24 rank-4 scans and 17 acceptances.
REJECT_STRATA = (
    [(8, 4, k, 18) for k in (3, 4)]
    + [(8, r, k, 2) for r in (5, 6) for k in (3, 4)]
    + [(8, r, 1, 1) for r in range(2, 7)]
    + [(7, r, 1, 1) for r in (3, 4)]
    + [(6, 3, 1, 1)]
)

# recognize-large slots: (method, family, n, rank, target basis count or
# circuit-hyperplane count, inputs).  Flats at n = 12, where from_bases and
# rank_table dominate; minors at n = 10, where LPMs exhaust the catalog
# search and sparse paving non-LPMs exit at the first pattern found.  The
# ten 492-basis sparse paving inputs are the middle of the cost range, so
# the median verdict falls among inputs of one size.
LARGE_SLOTS = (
    ("flats", "sparse-paving", 12, 4, 3, 5),
    ("flats", "sparse-paving", 12, 8, 3, 5),
    ("flats", "sparse-paving", 12, 6, 3, 1),
    ("flats", "transversal", 12, 6, 840, 2),
    ("flats", "lpm-random", 12, 5, 195, 1),
    ("flats", "lpm-random", 12, 6, 235, 1),
    ("flats", "lpm-random", 12, 7, 175, 1),
    ("minors", "lpm-random", 10, 4, 63, 1),
    ("minors", "lpm-random", 10, 5, 80, 1),
    ("minors", "lpm-random", 10, 6, 56, 1),
    ("minors", "sparse-paving", 10, 4, 3, 1),
    ("minors", "sparse-paving", 10, 6, 3, 1),
)

# Draws per input for the families drawn to a target basis count.
_TARGETED = {"transversal": (inputs.transversal, 6), "lpm-random": (inputs.lattice_path, 64)}

# theorem-reject and recognize-large shuffle their inputs: the machine's
# speed drifts over seconds, and a stratum measured in one stretch of the
# pass would move the median verdict with it.


@dataclass
class Record:
    """One verdict: its input, what the recognizers returned, its time."""

    tag: str
    matroid: object
    results: tuple
    seconds: float

    def signature(self) -> tuple:
        """What must repeat exactly between passes over the same inputs."""
        out = [self.tag, self.matroid.n, self.matroid.basis_masks]
        for r in self.results:
            out.append(getattr(r, "verdict", r is None))
        return tuple(out)


def _three_way(mods, M) -> tuple:
    found = mods["lpm"].find_path_order(M, max_n=9)
    char = mods["lpm"].is_lpm_char(M)
    witness = mods["minors"].find_catalog_minor(M)
    return found, char, witness


class TheoremAccept:
    name = "theorem-accept"
    default_seed = 20260808
    three_way = True
    catalog_sizes = (6, 7, 8)
    cli_spec = ACCEPT_SPEC

    def build(self, mods, seed: int):
        # The headline job is pinned to the acceptance spec; the seed does
        # not enter.
        return mods["corpus"].parse_corpus_spec(ACCEPT_SPEC)

    def run_pass(self, mods, spec, clock, tracer, after) -> list[Record]:
        records = []
        for i, (tag, M) in enumerate(mods["corpus"].generate_tagged(spec)):
            if tracer is not None:
                tracer.verdict = i
            t0 = clock()
            results = _three_way(mods, M)
            seconds = clock() - t0
            records.append(Record(tag, M, results, seconds))
            after()
        return records


class TheoremReject:
    name = "theorem-reject"
    default_seed = 20261017
    three_way = True
    catalog_sizes = (6, 7, 8)
    cli_spec = REJECT_SPEC

    def build(self, mods, seed: int):
        rng = random.Random(f"theorem-reject:{seed}")
        corpus = [
            (n, tuple(inputs.sparse_paving(rng, n, r, k)))
            for n, r, k, count in REJECT_STRATA
            for _ in range(count)
        ]
        rng.shuffle(corpus)
        return corpus

    def run_pass(self, mods, corpus, clock, tracer, after) -> list[Record]:
        from_masks = mods["kernel"].Matroid._from_masks
        records = []
        for i, (n, masks) in enumerate(corpus):
            if tracer is not None:
                tracer.verdict = i
            t0 = clock()
            M = from_masks(n, masks)
            results = _three_way(mods, M)
            seconds = clock() - t0
            records.append(Record("sparse-paving", M, results, seconds))
            after()
        return records


class RecognizeLarge:
    name = "recognize-large"
    default_seed = 20261017
    three_way = False
    catalog_sizes = (10,)
    cli_spec = None

    def build(self, mods, seed: int):
        rng = random.Random(f"recognize-large:{seed}")
        out = []
        for method, family, n, r, param, count in LARGE_SLOTS:
            for _ in range(count):
                if family == "sparse-paving":
                    bases = inputs.sparse_paving(rng, n, r, param)
                else:
                    draw, tries = _TARGETED[family]
                    bases = inputs.nearest(rng, draw, n, r, param, tries)
                out.append((family, method, inputs.to_text(n, bases)))
        rng.shuffle(out)
        return out

    def run_pass(self, mods, texts, clock, tracer, after) -> list[Record]:
        parse = mods["kernel"].matroid_from_text
        recognize = mods["lpm"].recognize
        records = []
        for i, (tag, method, text) in enumerate(texts):
            if tracer is not None:
                tracer.verdict = i
            t0 = clock()
            M = parse(text)
            result = recognize(M, method)
            seconds = clock() - t0
            records.append(Record(tag, M, (result,), seconds))
            after()
        return records


WORKLOADS = {w.name: w for w in (TheoremAccept(), TheoremReject(), RecognizeLarge())}


# ---------------------------------------------------------------------------
# correctness gate


def _rank(bases, x: int) -> int:
    return max((b & x).bit_count() for b in bases)


def _clause_witness_ok(M, violation) -> bool:
    """The named flats lie in the named component and are closed there."""
    bases = M.basis_masks
    comp = sum(1 << e for e in violation.component)
    if not violation.flats:
        return False
    for flat in violation.flats:
        f = sum(1 << e for e in flat)
        if f & ~comp:
            return False
        rf = _rank(bases, f)
        for e in violation.component - flat:
            if _rank(bases, f | (1 << e)) == rf:
                return False
    return True


class Gate:
    """Checks each verdict without trusting the recognizer that gave it."""

    def __init__(self, mods, catalog_size: int):
        self.mods = mods
        entries = mods["catalog"].catalog_up_to(catalog_size)
        self.patterns = {e.name: e.matroid for e in entries}
        self.catalog_forms = {mods["kernel"].canonical_form(m) for m in self.patterns.values()}

    def _presentation_ok(self, M, P) -> bool:
        got = inputs.interval_bases(P.n, P.intervals, P.order)
        return P.n == M.n and tuple(got) == M.basis_masks

    def _minor_ok(self, M, w) -> bool:
        pattern = self.patterns.get(w.pattern_name)
        return pattern is not None and w.replay(M, pattern)

    def _is_catalog_member(self, M) -> bool:
        return self.mods["kernel"].canonical_form(M) in self.catalog_forms

    def theorem_failures(self, rec: Record) -> list[str]:
        found, char, witness = rec.results
        verdicts = (found is not None, char.verdict, witness is None)
        out = []
        if len(set(verdicts)) != 1:
            out.append(f"recognizers disagree {verdicts}")
        if rec.tag == "lpm-random" and not all(verdicts):
            out.append("an lpm-random draw was rejected")
        if any(verdicts) and self._is_catalog_member(rec.matroid):
            out.append("a catalog member was accepted")
        if found is not None and not self._presentation_ok(rec.matroid, found[1]):
            out.append("the oracle's presentation does not realize the input")
        if not char.verdict and not _clause_witness_ok(rec.matroid, char.witness):
            out.append("the clause witness names non-flats")
        if witness is not None and not self._minor_ok(rec.matroid, witness):
            out.append("the minor witness does not replay")
        return out

    def recognize_failures(self, rec: Record) -> list[str]:
        (result,) = rec.results
        M, out = rec.matroid, []
        if rec.tag == "lpm-random" and not result.verdict:
            out.append("an lpm-random draw was rejected")
        if result.method == "flats" and not result.verdict:
            if not _clause_witness_ok(M, result.witness):
                out.append("the clause witness names non-flats")
        if result.method == "minors":
            if not result.verdict and not self._minor_ok(M, result.witness):
                out.append("the minor witness does not replay")
            # the flat characterization is cheap at this size: cross-check
            if self.mods["lpm"].is_lpm_char(M).verdict != result.verdict:
                out.append("minors and flats disagree")
        return out


def gate_pass(workload, gate: Gate, records: list[Record]) -> list[str]:
    """Failure messages, one per failing verdict of the pass."""
    check = gate.theorem_failures if workload.three_way else gate.recognize_failures
    out = []
    for i, rec in enumerate(records):
        msgs = check(rec)
        if msgs:
            out.append(f"verdict {i} ({rec.tag}, n={rec.matroid.n}): " + "; ".join(msgs))
    return out


def cli_check(mods, spec: str) -> str | None:
    """Run ``verify-theorem --json`` in process; None when its bytes match."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods["cli"].main(["verify-theorem", "--corpus", spec, "--json"])
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    if code != 0 or digest != CLI_DIGESTS[spec]:
        return f"verify-theorem --json: exit {code}, sha256 {digest}"
    return None
