"""Layer benchmark for latmat.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem-reject --seed 7 --seconds 30 --trace 0

Imports the package from ``src/`` of the current directory (and fails when
there is none).  Set-up (a fresh import, the catalog warm-up and the
workload's inputs, drawn from the seed) is repeated and its median
reported.  Timed passes then run for about ``--seconds`` (at least two),
and every verdict of every pass goes through the correctness gate.

``--trace 0`` reports the end-to-end metrics of the untraced passes.  Their
times are reference seconds (``calibrate``): each pass is interleaved with
a fixed calibration loop, and its times are rescaled by the loop's speed in
that pass, because the host's own speed swings by more than any bound
worth gating.  The wall-clock figures are printed as ``wall.*``.
``--trace 1`` also runs the ``verify-theorem --json`` byte check of the
``theorem-*`` workloads, then two traced passes between two untraced ones;
it checks that the traced work counters repeat exactly and that all passes
give the same verdicts, and reports per-layer metrics of the first traced
pass plus the tracing overhead.

A report (spans included when traced) is written under ``perfbench/out/``;
the last line of stdout is the JSON result.  Everything runs in this one
process and thread, and the package is handed only the generated inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

MODULES = ("kernel", "_canonical", "catalog", "corpus", "flats", "lpm",
           "ordersearch", "minors", "cli")
# A fixed count: every set-up leaves memory behind, and peak_rss_mb
# must not depend on how fast the host was.
SETUP_REPEATS = 9
SETUP_UNITS = 200
MIN_PASSES = 2
P90_MIN_VERDICTS = 100


def import_latmat() -> dict:
    """A fresh import of every package module, so set-up can be repeated."""
    for name in [m for m in sys.modules if m == "latmat" or m.startswith("latmat.")]:
        del sys.modules[name]
    importlib.import_module("latmat.cli")
    return {m: sys.modules["latmat." + m] for m in MODULES}


def warm_catalog(mods, sizes) -> None:
    """Fill the catalog cache and the cached values of its shared members."""
    for m in sizes:
        for entry in mods["catalog"].catalog_up_to(m):
            entry.matroid.indep_masks


def set_up(workload, seed: int, tracer_factory=None):
    """(modules, inputs, seconds, tracer); the tracer is installed between
    import and catalog warm-up so that the catalog build is recorded."""
    t0 = time.perf_counter()
    mods = import_latmat()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory(mods)
        tracer.install()
    warm_catalog(mods, workload.catalog_sizes)
    built = workload.build(mods, seed)
    return mods, built, time.perf_counter() - t0, tracer


def _no_sample() -> None:
    pass


def timed_pass(workload, mods, built, tracer=None, cal=None):
    """(records, wall seconds, scale): with a calibrator, the wall seconds
    are those of the work alone, the calibration units taken out, and
    ``scale`` turns them into reference seconds; without one it is None."""
    # Start every pass from the same heap: the garbage of the last pass and
    # its gate is collected here, not at a random point inside the timing.
    gc.collect()
    clock = time.perf_counter
    after = _no_sample
    if cal is not None:
        cal.start()
        after = cal.after
    t0 = clock()
    records = workload.run_pass(mods, built, clock, tracer, after)
    wall = clock() - t0
    if tracer is not None:
        tracer.verdict = -1
    if cal is None:
        return records, wall, None
    return records, wall - cal.seconds, cal.scale()


def environment(mods) -> dict:
    return {
        "backend": mods["ordersearch"].backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "note": "results from different ordersearch backends are not comparable",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Collects verdicts, failures and self-check results of one run."""

    def __init__(self, workload, mods):
        self.workload = workload
        self.mods = mods
        self.gate = workloads.Gate(mods, max(workload.catalog_sizes))
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.signature = None

    def check(self, records) -> None:
        self.attempted += len(records)
        self.failures += workloads.gate_pass(self.workload, self.gate, records)
        sig = [r.signature() for r in records]
        if self.signature is None:
            self.signature = sig
        elif sig != self.signature:
            self.problems.append("passes over the same inputs gave different verdicts")

    def cli(self) -> None:
        if self.workload.cli_spec is not None:
            problem = workloads.cli_check(self.mods, self.workload.cli_spec)
            if problem is not None:
                self.problems.append(problem)


def run_untraced(workload, seed: int, seconds: float):
    """End-to-end metrics in reference seconds (see ``calibrate``), with the
    wall-clock figures they were scaled from alongside."""
    cal = calibrate.Calibrator()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        # Set-up is short: sample the host's speed on both sides of it.
        cal.start()
        cal.after(SETUP_UNITS)
        mods, built, secs, _ = set_up(workload, seed)
        cal.after(SETUP_UNITS)
        setups.append(secs * cal.scale())
        raw_setups.append(secs)
    run = Run(workload, mods)
    walls, scales, by_pass, raw_by_pass, rounds = [], [], [], [], []
    # At least MIN_PASSES, then as many more as fit in the remaining time.
    while len(walls) < MIN_PASSES or sum(rounds) + statistics.mean(rounds) <= seconds:
        t0 = time.perf_counter()
        records, wall, scale = timed_pass(workload, mods, built, cal=cal)
        walls.append(wall)
        scales.append(scale)
        raw_by_pass.append([r.seconds * 1e3 for r in records])
        by_pass.append([r.seconds * 1e3 * scale for r in records])
        run.check(records)
        rounds.append(time.perf_counter() - t0)
    per_pass = len(by_pass[0])
    times = [t for p in by_pass for t in p]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (
            statistics.median(per_pass / (w * s) for w, s in zip(walls, scales)), "1/s"),
        "verdict_p50_ms": (statistics.median(times), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"failed_frac": (len(run.failures) / run.attempted, "ratio")}
    if per_pass >= P90_MIN_VERDICTS:
        extra["verdict_p90_ms"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "ms")
    raw_times = [t for p in raw_by_pass for t in p]
    extra["wall.setup_s"] = (statistics.median(raw_setups), "s")
    extra["wall.verdicts_per_s"] = (statistics.median(per_pass / w for w in walls), "1/s")
    extra["wall.verdict_p50_ms"] = (statistics.median(raw_times), "ms")
    info = {"passes": len(walls), "verdicts_per_pass": per_pass, "setups": len(setups),
            "setup_s_all": setups, "wall_setup_s_all": raw_setups,
            "wall_pass_s_all": walls, "round_s_all": rounds, "scale_all": scales,
            "verdict_ms_by_pass": by_pass, "wall_verdict_ms_by_pass": raw_by_pass}
    return run, metrics, extra, info, None


def run_traced(workload, seed: int):
    mods, built, _, tracer = set_up(workload, seed, tracing.Tracer)
    # The whole catalog fill, canonical labelings included: set-up spans are
    # reported nowhere else, and this is the share of setup_s it explains.
    catalog_build_s = tracer.root_seconds("catalog.catalog_up_to")
    tracer.uninstall()
    tracer.reset()
    run = Run(workload, mods)
    run.cli()

    # Passes run untraced, traced, traced, untraced: the overhead is the
    # difference of the two means, which cancels a steady drift in speed.
    records, untraced_wall, _ = timed_pass(workload, mods, built)
    run.check(records)

    tracer.install()
    records, traced_wall, _ = timed_pass(workload, mods, built, tracer)
    metrics = tracing.layer_metrics(tracer, catalog_build_s)
    counters = tracer.counters()
    spans = tracer.span_records()
    tracer.reset()
    records_again, traced_wall_again, _ = timed_pass(workload, mods, built, tracer)
    counters_again = tracer.counters()
    tracer.uninstall()
    run.check(records)
    run.check(records_again)
    if counters != counters_again:
        diff = sorted(k for k in counters.keys() | counters_again.keys()
                      if counters.get(k) != counters_again.get(k))
        run.problems.append(f"work counters differ between traced passes: {diff}")

    records, untraced_wall_again, _ = timed_pass(workload, mods, built)
    run.check(records)
    overhead = (traced_wall + traced_wall_again - untraced_wall - untraced_wall_again) / 2
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.pass_s"] = (traced_wall, "s")
    extra = {"failed_frac": (len(run.failures) / run.attempted, "ratio")}
    info = {"untraced_pass_s": [untraced_wall, untraced_wall_again],
            "traced_pass_s": [traced_wall, traced_wall_again], "counters": counters}
    return run, metrics, extra, info, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latmat" / "__init__.py").is_file():
        print(f"error: no src/latmat under {root}; run from a latmat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    if args.trace:
        run, metrics, extra, info, spans = run_traced(workload, args.seed)
    else:
        run, metrics, extra, info, spans = run_untraced(workload, args.seed, args.seconds)
    env = environment(run.mods)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, (dict, list))))
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "note")
          + f" ({env['note']})")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<28}{value:>16.6g} {unit}")
    for msg in run.problems + run.failures[:20]:
        print(f"FAIL: {msg}")

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "failures": run.failures, "problems": run.problems,
    }
    if spans is not None:
        report["spans"] = spans
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n")

    result = {
        "correct": not run.failures and not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
