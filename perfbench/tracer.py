"""Traced CLI entry point and span aggregation.

Run as

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <farey-index arguments>

it behaves like `python -m farey_index <arguments>`, with a span recorded
around every call of the public functions listed in `TRACED`.  Each wrapper
is installed in every module namespace that holds the original function,
because `stats` and `bcz` import several of them by name.  A shim over
`stats.multiprocessing` records each process pool.  Spans stay in memory and
are written to SPANS.json when the command ends.  Pool children inherit the
wrappers but their spans are never written: the pool's own span and task
count are all that is recorded of them.

`layer_metrics` turns the span files of one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
import types

# module -> public functions wrapped in the traced run
TRACED = {
    "stats": ("autocorr_sum", "autocorr_sum_interval", "sum_index", "sum_index_power",
              "index_histogram", "lu_counts", "partial_index_sum", "hall_shiu_identity",
              "visible_points_count"),
    "farey": ("totient_summatory", "seek"),
    "bcz": ("autocorrelation_constant", "push_forward", "star_intersection_area",
            "intersection_area_table", "b_alpha", "orbit"),
    "geometry": ("clip_convex", "apply_map", "polygon_area"),
}
# functions whose spans carry a count taken from the result
_RESULT_COUNTS = {
    "bcz.push_forward": lambda result: len(result.pieces),
    "geometry.clip_convex": lambda result: 1 if result.vertices else 0,
}
# functions reported by time only: each runs once per command that uses it
TIME_ONLY = ("bcz.intersection_area_table", "bcz.b_alpha", "bcz.orbit")
POOL_SPAN = "stats.pool"
MAIN_SPAN = "cli.main"


class Tracer:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        count = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span[4] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Replace each traced function in every package module that holds it."""
        modules = [getattr(package, name) for name in ("geometry", "farey", "bcz", "stats", "cli")]
        for module_name, names in TRACED.items():
            home = getattr(package, module_name)
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for module in modules + [package]:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
        package.stats.multiprocessing = types.SimpleNamespace(Pool=self._pool)

    def _pool(self, *args, **kwargs):
        span = self.open(POOL_SPAN)
        record = {"tasks": 0, "fallback": 0}
        span[4] = record
        try:
            pool = multiprocessing.Pool(*args, **kwargs)
        except OSError:
            record["fallback"] = 1
            self.close(span)
            raise
        return _TracedPool(self, span, pool)


class _TracedPool:
    """Context manager over a real pool that counts tasks and closes the span."""

    def __init__(self, tracer: Tracer, span: list, pool):
        self.tracer, self.span, self.pool = tracer, span, pool

    def __enter__(self):
        return self

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.span[4]["tasks"] += len(tasks)
        return self.pool.map(fn, tasks)

    def __exit__(self, exc_type, exc, tb):
        try:
            return self.pool.__exit__(exc_type, exc, tb)
        finally:
            if exc_type is not None and issubclass(exc_type, OSError):
                self.span[4]["fallback"] = 1
            self.tracer.close(self.span)


def _cache_totals(bcz) -> list[int]:
    hits = misses = 0
    for value in vars(bcz).values():
        info = getattr(value, "cache_info", None) or getattr(
            getattr(value, "__wrapped__", None), "cache_info", None
        )
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return [hits, misses]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import farey_index
    from farey_index import cli

    tracer = Tracer()
    tracer.install(farey_index)
    code = 1
    try:
        code = tracer.wrap(MAIN_SPAN, cli.main)(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "bcz_cache": _cache_totals(farey_index.bcz)}, fh)
    return code


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

WALK_SPANS = tuple(f"stats.{name}" for name in TRACED["stats"])


def _summarise(spans: list[list]) -> dict:
    """Per name: calls, inclusive seconds (outermost spans only), self seconds, count."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, parent, start, end, extra) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "tasks": 0,
                                      "fallbacks": 0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["s"] += end - start
        if isinstance(extra, dict):
            entry["tasks"] += extra["tasks"]
            entry["fallbacks"] += extra["fallback"]
        elif extra is not None:
            entry["count"] += extra
    return out


def layer_metrics(dumps: list[dict], logical_elements: int) -> dict:
    """Per-layer metric values for one traced pass (all its command processes)."""
    totals: dict = {}
    hits = misses = 0
    for dump in dumps:
        for name, entry in _summarise(dump["spans"]).items():
            into = totals.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
        hits += dump["bcz_cache"][0]
        misses += dump["bcz_cache"][1]

    def get(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    metrics = {f"{MAIN_SPAN}.self_s": get(MAIN_SPAN, "self_s")}
    for module_name, names in TRACED.items():
        for name in names:
            full = f"{module_name}.{name}"
            if full not in TIME_ONLY:
                metrics[f"{full}.calls"] = get(full, "calls")
            metrics[f"{full}.s"] = get(full, "s")
    # time spent walking in the stats layer, pool waits included
    walk_self = sum(get(name, "self_s") for name in WALK_SPANS) + get(POOL_SPAN, "s")
    metrics["stats.elements_per_s"] = logical_elements / walk_self if walk_self > 0 else 0.0
    metrics["stats.pool.starts"] = get(POOL_SPAN, "calls")
    metrics["stats.pool.s"] = get(POOL_SPAN, "s")
    metrics["stats.pool.tasks"] = get(POOL_SPAN, "tasks")
    metrics["stats.pool.fallbacks"] = get(POOL_SPAN, "fallbacks")
    metrics["bcz.push_forward.pieces"] = get("bcz.push_forward", "count")
    metrics["bcz.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    clips = get("geometry.clip_convex", "calls")
    metrics["geometry.clip_convex.nonempty_ratio"] = (
        get("geometry.clip_convex", "count") / clips if clips else 0.0
    )
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
