"""Per-layer tracing from outside the package.

The tracer replaces, on the imported module objects, the attributes through
which one layer calls into another, and restores them on ``uninstall``.
Nothing in the package changes: each wrapper times the call and records a
span (name, start, end, parent, verdict id), or for the hottest entry points
only counts it.  A layer's self time is its spans' durations minus the time
of the wrapped calls made inside them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module key, attribute, layer name, kind); kind is "span", "timed"
# (timed and counted, no span record) or "count" (counted only).  Where a
# layer imports a function by name, the importing module's binding is the
# one that is called, so it is wrapped there.
HOOKS = (
    ("corpus", "generate_tagged", "corpus.generate", "span"),
    ("catalog", "catalog_up_to", "catalog.catalog_up_to", "span"),
    ("kernel", "from_bases", "kernel.from_bases", "span"),
    ("minors", "_minor_masks", "kernel.minor_masks", "timed"),
    ("corpus", "_minor_masks", "kernel.minor_masks", "timed"),
    ("_canonical", "canonical_labeling", "canonical.labeling", "span"),
    ("flats", "_fundamental_masks", "flats.fundamental", "span"),
    ("flats", "_pnc_masks", "flats.pnc", "span"),
    ("lpm", "find_path_order", "lpm.oracle", "span"),
    ("lpm", "is_lpm_char", "lpm.char", "span"),
    ("ordersearch", "scan_path_orders", "ordersearch.scan", "span"),
    ("ordersearch", "transversal_count", "ordersearch.orders_tested", "count"),
    ("minors", "find_catalog_minor", "minors.catalog_search", "span"),
    ("minors", "has_minor", "minors.has_minor", "span"),
)


def _found(result) -> int:
    return result is not None


# Counts read off a layer's results: layer -> (counter, result -> amount).
# The recognizers return None on a miss, so their hit counts are found ones.
RESULT_COUNTS = {
    "corpus.generate": ("corpus.matroids", len),
    "lpm.oracle": ("lpm.oracle.hits", _found),
    "ordersearch.scan": ("ordersearch.scan.hits", _found),
    "minors.has_minor": ("minors.has_minor.hits", _found),
}


class Tracer:
    """Wrappers on the package's modules, and what they recorded."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.verdict = -1
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay installed."""
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()
        self.verdict = -1
        self._next_id = 0

    def _wrap(self, name: str, fn, kind: str):
        if kind == "count":
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        clock = self.clock
        keep = kind == "span"
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1] if parent else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[0]
                self.counts[name] += 1
                if parent is not None:
                    parent[0] += dur
                if keep:
                    self.spans.append((
                        span_id, name, parent[1] if parent else -1,
                        self.verdict, t0, t1,
                    ))
            if result_count is not None:
                key, amount = result_count
                self.counts[key] += amount(result)
            return result

        return timed

    def install(self) -> None:
        for mod_key, attr, name, kind in HOOKS:
            mod = self.modules[mod_key]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, kind))
        # Matroid.rank_table is a cached_property: wrap the function it
        # computes once per instance, so each count is one table built.
        matroid = self.modules["kernel"].Matroid
        prop = matroid.__dict__["rank_table"]
        wrapped = functools.cached_property(
            self._wrap("kernel.rank_table", prop.func, "span")
        )
        wrapped.__set_name__(matroid, "rank_table")
        self._saved.append((matroid, "rank_table", prop))
        setattr(matroid, "rank_table", wrapped)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def root_seconds(self, name: str) -> float:
        """Total duration of the outermost spans of a layer, children included."""
        return sum(s[5] - s[4] for s in self.spans if s[1] == name and s[2] == -1)

    def counters(self) -> dict[str, int]:
        """The work counts of everything recorded since the last reset."""
        return dict(sorted(self.counts.items()))

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "parent", "verdict", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(tr: Tracer, catalog_build_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    s, c = tr.self_s, tr.counts
    return {
        "catalog.build_s": (catalog_build_s, "s"),
        "corpus.generate_s": (s["corpus.generate"], "s"),
        "corpus.matroids": (c["corpus.matroids"], "count"),
        "kernel.from_bases_s": (s["kernel.from_bases"], "s"),
        "kernel.from_bases_calls": (c["kernel.from_bases"], "count"),
        "kernel.rank_table_s": (s["kernel.rank_table"], "s"),
        "kernel.rank_table_calls": (c["kernel.rank_table"], "count"),
        "kernel.minor_masks_s": (s["kernel.minor_masks"], "s"),
        "kernel.minor_masks_calls": (c["kernel.minor_masks"], "count"),
        "canonical.labeling_s": (s["canonical.labeling"], "s"),
        "canonical.labeling_calls": (c["canonical.labeling"], "count"),
        "flats.fundamental_s": (s["flats.fundamental"], "s"),
        "flats.fundamental_calls": (c["flats.fundamental"], "count"),
        "flats.pnc_s": (s["flats.pnc"], "s"),
        "flats.pnc_calls": (c["flats.pnc"], "count"),
        "lpm.oracle_s": (s["lpm.oracle"], "s"),
        "lpm.oracle_calls": (c["lpm.oracle"], "count"),
        "lpm.oracle_accept_ratio": (
            _ratio(c["lpm.oracle.hits"], c["lpm.oracle"]), "ratio"),
        "lpm.char_s": (s["lpm.char"], "s"),
        "lpm.char_calls": (c["lpm.char"], "count"),
        "ordersearch.scan_s": (s["ordersearch.scan"], "s"),
        "ordersearch.scan_calls": (c["ordersearch.scan"], "count"),
        "ordersearch.orders_tested": (c["ordersearch.orders_tested"], "count"),
        "ordersearch.accept_ratio": (
            _ratio(c["ordersearch.scan.hits"], c["ordersearch.scan"]), "ratio"),
        "minors.catalog_search_s": (s["minors.catalog_search"], "s"),
        "minors.has_minor_s": (s["minors.has_minor"], "s"),
        "minors.has_minor_calls": (c["minors.has_minor"], "count"),
        "minors.hit_ratio": (
            _ratio(c["minors.has_minor.hits"], c["minors.has_minor"]), "ratio"),
    }
