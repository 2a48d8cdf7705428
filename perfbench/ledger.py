"""Span recording, self-time arithmetic and metric rules of the benchmark.

Nothing here imports the program under test: the arithmetic is checked by
``test_ledger.py`` on hand-built spans.

A span is a tuple ``(span_id, name, start_ns, end_ns, parent_id)``; the
parent is the span that was open when this one started (``-1`` for a root).
A span's *self time* is its duration minus the part of that interval its
children cover.  Summed over every span of a traced interval, self times add
up to the time covered by root spans; the rest of the interval is
*unattributed* (benchmark glue between calls into the program).
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "METRIC_NAME",
    "SpanRecorder",
    "check_metric_name",
    "dump_json",
    "layer_of",
    "percentile",
    "self_times",
    "to_chrome_trace",
]

#: The pattern every metric name the benchmark prints must match.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Span-name prefix -> the program module (layer) the span's time belongs to.
#: Kernel work (``core.backend``) is counted, not timed, so it has no prefix.
LAYERS: Dict[str, str] = {
    "scenarios": "scenarios",
    "dispatch": "dispatch",
    "cache": "serve.session",
    "session": "serve.session",
    "checkpoint": "serve.session",
    "transitions": "offline.transitions",
    "dp": "offline.dp",
    "online": "online",
    "tracker": "online",
    "batch": "serve.batch",
    "feed": "serve.feed",
    "telemetry": "serve.telemetry",
    "exp": "exp",
}

Span = Tuple[int, str, int, int, int]


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r} (pattern {METRIC_NAME.pattern})")
    return name


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (``ValueError`` for an unknown prefix)."""
    prefix = span_name.split(".", 1)[0]
    try:
        return LAYERS[prefix]
    except KeyError:
        raise ValueError(f"span {span_name!r} has no layer (known prefixes: {sorted(LAYERS)})") from None


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``, if at least ten samples lie beyond it.

    A tail percentile read from fewer samples is one or two outliers, not a
    distribution, so it is refused (``ValueError``) rather than reported.
    The estimate is the nearest-rank value: the smallest sample with at least
    ``q`` percent of the samples at or below it.
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} samples beyond it; at least 10 are needed"
        )
    return float(sorted(samples)[rank - 1])


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never goes negative and never counts covered
    time twice.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, int] = {}
    for span_id, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


class SpanRecorder:
    """In-memory span log of one traced interval (single-threaded).

    ``begin(name)`` opens a span under the innermost open one and ``end()``
    closes it; closed spans are plain tuples appended to :attr:`spans`.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, str, int]] = []
        self._next_id = 0
        self.started_ns: Optional[int] = None
        self.stopped_ns: Optional[int] = None

    def start(self) -> None:
        self.started_ns = time.perf_counter_ns()

    def stop(self) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open at stop")
        self.stopped_ns = time.perf_counter_ns()

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span (``None`` outside any span)."""
        return self._stack[-1][1] if self._stack else None

    def begin(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, time.perf_counter_ns()))

    def end(self) -> None:
        now = time.perf_counter_ns()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, name, start, now, parent))

    @property
    def wall_ns(self) -> int:
        return self.stopped_ns - self.started_ns

    def ledger(self) -> dict:
        """Per-span-name and per-layer self times plus the reconciliation.

        Returns ``{"wall_ns", "root_ns", "unattributed_ns", "names": {name:
        {"calls", "self_ns"}}, "layers": {layer: self_ns}}``.  Raises
        ``AssertionError`` when the layer self times and the unattributed
        time do not add up to the wall time exactly (integer ns), which would
        mean a wrapper broke span nesting.
        """
        selfs = self_times(self.spans)
        names: Dict[str, dict] = {}
        layers: Dict[str, int] = {}
        root_ns = 0
        for span_id, name, start, end, parent in self.spans:
            if parent < 0:
                root_ns += end - start
            row = names.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += selfs[span_id]
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0) + selfs[span_id]
        wall = self.wall_ns
        unattributed = wall - root_ns
        if sum(layers.values()) + unattributed != wall or unattributed < 0:
            raise AssertionError(
                f"layer self times {sum(layers.values())} ns + unattributed "
                f"{unattributed} ns != traced wall {wall} ns"
            )
        return {
            "wall_ns": wall,
            "root_ns": root_ns,
            "unattributed_ns": unattributed,
            "names": names,
            "layers": layers,
        }


def to_chrome_trace(spans: Sequence[Span], meta: Optional[dict] = None, limit: int = 100_000) -> dict:
    """Spans as a Chrome ``trace_event`` object (complete "X" events, µs).

    Every event carries its span id and parent id in ``args`` and its layer
    as ``cat``; ``meta`` lands in ``otherData``.  At most ``limit`` spans are
    exported (the earliest ones); the count dropped is recorded.
    """
    ordered = sorted(spans, key=lambda s: s[2])
    origin = ordered[0][2] if ordered else 0
    events = [
        {
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "args": {"id": span_id, "parent": parent},
        }
        for span_id, name, start, end, parent in ordered[:limit]
    ]
    other = dict(meta or {})
    other["dropped_spans"] = max(0, len(ordered) - limit)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
