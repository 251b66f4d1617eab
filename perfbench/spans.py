"""Spans around the public functions of each pnta module, recorded from outside.

The traced run replaces each function below with a wrapper where the
calling code looks it up, for example `pnta.parametric.zone_nonempty`,
so calls made inside the package are caught as well.  Spans are kept in
memory; self time (a span's duration minus its child spans) and the
per-layer metrics are computed at the end.  A function that no longer
exists is skipped, and its layer is reported as absent.
"""

from __future__ import annotations

import gc
import importlib
import json
from collections import defaultdict
from functools import wraps
from time import perf_counter

from workloads import region_caches

# (module where the function is looked up, attribute, span name "<layer>.<function>")
PATCHES = (
    ("pnta.cli", "main", "cli.main"),
    ("pnta.cli", "parse_automaton", "textio.parse_automaton"),
    ("pnta.cli", "validate", "core.validate"),
    ("pnta.cli", "ta_to_nrtta", "translate.ta_to_nrtta"),
    ("pnta.cli", "parametric_emptiness", "parametric.parametric_emptiness"),
    ("pnta.cli", "emptiness_fixed", "parametric.emptiness_fixed"),
    ("pnta.cli", "witness_word", "parametric.witness_word"),
    ("pnta.parametric", "parametric_emptiness", "parametric.parametric_emptiness"),
    ("pnta.parametric", "emptiness_fixed", "parametric.emptiness_fixed"),
    ("pnta.parametric", "witness_word", "parametric.witness_word"),
    ("pnta.parametric", "candidate_parameters", "parametric.candidate_parameters"),
    ("pnta.parametric", "prepare_fixed", "parametric.prepare_fixed"),
    ("pnta.parametric", "ta_to_nrtta", "translate.ta_to_nrtta"),
    ("pnta.parametric", "zone_nonempty", "zones.zone_nonempty"),
    ("pnta.parametric", "find_lasso", "regions.find_lasso"),
    ("pnta.parametric", "concretize_lasso", "regions.concretize_lasso"),
)
LAYERS = ("cli", "textio", "core", "translate", "parametric", "zones", "regions")
SWEEP = ("parametric.parametric_emptiness", "parametric.emptiness_fixed",
         "parametric.witness_word")
BUDGET_STOPS = ("RegionBudgetExceeded", "MemoryError")


def _zone_nodes(result):
    """Nodes explored, the first plain integer of zone_nonempty's result."""
    if isinstance(result, tuple):
        for x in result:
            if isinstance(x, int) and not isinstance(x, bool):
                return x
    return None


def _candidate_count(result):
    return len(getattr(result, "candidates", ()))


COUNTERS = {
    "zones.zone_nonempty": _zone_nodes,
    "parametric.candidate_parameters": _candidate_count,
}

# span fields
NAME, PARENT, OP, START, END, ERROR, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.present: set[str] = set()
        self.gc_s = 0.0
        self.gc_collections = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_entries = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gc_t0 = None
        self._in_op = False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    def _on_gc(self, phase, info):
        if not self._in_op:
            return
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    def install(self) -> None:
        for modname, attr, name in PATCHES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
            self.present.add(name)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def begin_op(self) -> None:
        self.op += 1
        self._in_op = True

    def end_op(self) -> None:
        """Close one operation and add its region-cache use; the caches start empty."""
        self._in_op = False
        infos = [fn.cache_info() for fn in region_caches()]
        self.cache_hits += sum(i.hits for i in infos)
        self.cache_misses += sum(i.misses for i in infos)
        self.cache_entries += sum(i.currsize for i in infos)

    def absent_layers(self) -> list[str]:
        layers = {name.split(".")[0] for name in self.present}
        return [layer for layer in LAYERS if layer not in layers]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op", "start", "end",
                                            "error", "count"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, n_ops: int, replay_s: float, overhead: float) -> dict:
        """Per-operation means of each layer's time and counters."""
        total = defaultdict(float)
        selftime = defaultdict(float)
        calls = defaultdict(int)
        counted = defaultdict(int)
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        stops = 0
        swept = 0
        sweep_candidates = 0
        for i, span in enumerate(self.spans):
            name = span[NAME]
            dur = span[END] - span[START]
            total[name] += dur
            selftime[name] += dur - child[i]
            calls[name] += 1
            if span[COUNT] is not None:
                counted[name] += span[COUNT]
            if name == "regions.find_lasso" and span[ERROR] in BUDGET_STOPS:
                stops += 1
            parent = self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            if parent == "parametric.parametric_emptiness":
                if name == "parametric.emptiness_fixed":
                    swept += 1
                elif name == "parametric.candidate_parameters":
                    sweep_candidates += span[COUNT] or 0

        per = 1.0 / max(n_ops, 1)
        zone_nodes = counted["zones.zone_nonempty"]
        lookups = self.cache_hits + self.cache_misses
        ms, count, ratio = "ms/op", "count/op", "ratio"
        values = {
            "zones.search_ms": (total["zones.zone_nonempty"] * 1e3 * per, ms),
            "zones.calls": (calls["zones.zone_nonempty"] * per, count),
            "zones.nodes": (zone_nodes * per, count),
            "zones.us_per_node": (total["zones.zone_nonempty"] * 1e6 / zone_nodes
                                  if zone_nodes else 0.0, "us"),
            "regions.lasso_ms": (total["regions.find_lasso"] * 1e3 * per, ms),
            "regions.lasso_calls": (calls["regions.find_lasso"] * per, count),
            "regions.lasso_stops": (stops * per, count),
            "regions.concretize_ms": (total["regions.concretize_lasso"] * 1e3 * per, ms),
            "regions.cache_entries": (self.cache_entries * per, "count"),
            "regions.cache_hit_ratio": (self.cache_hits / lookups if lookups else 0.0, ratio),
            "parametric.candidates_ms": (total["parametric.candidate_parameters"] * 1e3 * per, ms),
            "parametric.prepare_ms": (total["parametric.prepare_fixed"] * 1e3 * per, ms),
            "parametric.sweep_self_ms": (sum(selftime[n] for n in SWEEP) * 1e3 * per, ms),
            "parametric.candidates_checked": (calls["parametric.emptiness_fixed"] * per, count),
            "parametric.checked_ratio": (swept / sweep_candidates if sweep_candidates else 0.0,
                                         ratio),
            "translate.ms": (total["translate.ta_to_nrtta"] * 1e3 * per, ms),
            "translate.calls": (calls["translate.ta_to_nrtta"] * per, count),
            "textio.parse_ms": (total["textio.parse_automaton"] * 1e3 * per, ms),
            "core.validate_ms": (total["core.validate"] * 1e3 * per, ms),
            "cli.self_ms": (selftime["cli.main"] * 1e3 * per, ms),
            "runtime.gc_ms": (self.gc_s * 1e3 * per, ms),
            "runtime.gc_collections": (self.gc_collections * per, count),
            "semantics.replay_ms": (replay_s * 1e3 * per, ms),
            "trace.overhead": (overhead, ratio),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
