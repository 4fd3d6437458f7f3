"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each traced function under every name a znvce
module holds it by (for example `znvce.constructions.brute_force`, the name
`dispatch` calls it by), so calls the package makes to itself are seen too.
Spans stay in memory; `layer_metrics` turns them into the per-layer numbers
and `Tracer.uninstall` puts the original functions back.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, int] = field(default_factory=dict)
    label: str = ""


def _search_counts(args, out) -> dict[str, int]:
    status = out.status.value
    return {"examined": out.partitions_examined, "found": int(status == "Found"),
            "exhausted": int(status == "NoneExists" and out.partitions_examined > 0)}


def _dispatch_counts(args, cert) -> dict[str, int]:
    routed = getattr(cert, "source", None) is not None
    return {"routed": int(routed), "undecided": int(cert is None)}


# (module, function, counts from (args, result), label from args); the span
# is named module.function without the package prefix
_Counts = Callable[[tuple, Any], dict[str, int]]
TARGETS: list[tuple[str, str, _Counts | None, Callable[[tuple], str] | None]] = [
    ("rings", "factorize", None, None),
    ("rings", "classify", None, None),
    ("rings", "zero_divisors", None, None),
    ("rings", "nilpotents", None, None),
    ("graphs", "build_family", lambda a, g: {"vertices": g.n_vertices}, None),
    ("vce", "is_vce", None, None),
    ("vce", "check_bipartition", None, None),
    ("search", "brute_force", _search_counts, None),
    ("search", "isolated_obstruction", lambda a, v: {"hits": int(v is not None)}, None),
    ("search", "local_search", _search_counts, None),
    ("serialize", "graph_from_json", lambda a, r: {"bytes": len(a[0])}, None),
    ("serialize", "partition_from_json", None, None),
    ("serialize", "graph_to_json", None, None),
    ("constructions", "dispatch", _dispatch_counts, None),
    ("cli", "cmd_survey", None, None),
    ("cli", "cmd_check", None, None),
    # the survey's row boundary: each row becomes its own operation
    ("cli", "_survey_row", None, lambda a: f"{a[0]} {getattr(a[1], 'value', a[1])}"),
]


class Tracer:
    """Records spans while installed. Not thread-safe: the benchmark is a
    single closed loop."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def begin_op(self) -> None:
        self.op += 1

    def _wrap(self, fn, name: str, counts: _Counts | None, label: Callable[[tuple], str] | None):
        def traced(*args, **kwargs):
            if label is not None:
                self.begin_op()
            span = Span(len(self.spans), name, perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op,
                        label=label(args) if label is not None else "")
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == "znvce" or k.startswith("znvce.")]
        for mod_name, fn_name, counts, label in TARGETS:
            original = getattr(sys.modules[f"znvce.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", counts, label)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]


class NullTracer:
    """Stands in for a Tracer on untraced runs."""

    def begin_op(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        pass


def _self_times(spans: list[Span]) -> dict[int, float]:
    # calls are sequential, so children never overlap and their durations add
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - child[s.id] for s in spans}


def row_costs(spans: list[Span]) -> list[dict]:
    """Survey rows by wall time, slowest first."""
    rows = [s for s in spans if s.name == "cli._survey_row"]
    rows.sort(key=lambda s: s.end - s.start, reverse=True)
    return [{"row": s.label, "s": s.end - s.start} for s in rows]


def layer_metrics(spans: list[Span], wall_s: float, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit). `ops` is the number of
    workload operations (survey rows, certify operations, local rows)."""
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    self_t = _self_times(spans)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by[name])

    def calls(name: str) -> int:
        return len(by[name])

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    bf = "search.brute_force"
    m[f"{bf}.busy_s"] = (busy(bf), "s")
    m[f"{bf}.calls"] = (calls(bf), "count")
    m[f"{bf}.examined"] = (total(bf, "examined"), "count")
    m[f"{bf}.rate"] = (ratio(total(bf, "examined"), busy(bf)), "1/s")
    m[f"{bf}.exhausted"] = (total(bf, "exhausted"), "count")
    m[f"{bf}.found"] = (total(bf, "found"), "count")
    io_ = "search.isolated_obstruction"
    m[f"{io_}.calls"] = (calls(io_), "count")
    m[f"{io_}.hits"] = (total(io_, "hits"), "count")
    ls = "search.local_search"
    m[f"{ls}.busy_s"] = (busy(ls), "s")
    m[f"{ls}.calls"] = (calls(ls), "count")
    m[f"{ls}.steps"] = (total(ls, "examined"), "count")
    m[f"{ls}.steps_per_s"] = (ratio(total(ls, "examined"), busy(ls)), "1/s")
    m[f"{ls}.found_ratio"] = (ratio(total(ls, "found"), calls(ls)), "ratio")
    bfam = "graphs.build_family"
    m[f"{bfam}.busy_s"] = (busy(bfam), "s")
    m[f"{bfam}.calls"] = (calls(bfam), "count")
    m[f"{bfam}.calls_per_row"] = (ratio(calls(bfam), ops), "ratio")
    m[f"{bfam}.vertices"] = (total(bfam, "vertices"), "count")
    # computed, not measured: one byte per entry of the |V| x |V| bool matrix
    m[f"{bfam}.adj_bytes"] = (sum(s.counts["vertices"] ** 2 for s in by[bfam]), "B")
    m["vce.is_vce.busy_s"] = (busy("vce.is_vce"), "s")
    m["vce.is_vce.calls"] = (calls("vce.is_vce"), "count")
    m["vce.is_vce.calls_per_dispatch"] = (
        ratio(calls("vce.is_vce"), calls("constructions.dispatch")), "ratio")
    m["vce.check_bipartition.busy_s"] = (busy("vce.check_bipartition"), "s")
    m["vce.check_bipartition.calls"] = (calls("vce.check_bipartition"), "count")
    m["serialize.graph_from_json.busy_s"] = (busy("serialize.graph_from_json"), "s")
    m["serialize.graph_from_json.bytes"] = (total("serialize.graph_from_json", "bytes"), "B")
    m["serialize.partition_from_json.busy_s"] = (busy("serialize.partition_from_json"), "s")
    m["serialize.graph_to_json.busy_s"] = (busy("serialize.graph_to_json"), "s")
    d = "constructions.dispatch"
    m[f"{d}.busy_s"] = (busy(d), "s")
    m[f"{d}.self_s"] = (sum(self_t[s.id] for s in by[d]), "s")
    m[f"{d}.routed_ratio"] = (ratio(total(d, "routed"), calls(d)), "ratio")
    m[f"{d}.undecided"] = (total(d, "undecided"), "count")
    rings = [s for s in spans if s.name.startswith("rings.")]
    outer = [s for s in rings
             if s.parent is None or not spans[s.parent].name.startswith("rings.")]
    m["rings.busy_s"] = (sum(s.end - s.start for s in outer), "s")
    m["rings.calls"] = (len(rings), "count")
    m["cli.self_s"] = (sum(self_t[s.id] for s in spans if s.name.startswith("cli.")), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
