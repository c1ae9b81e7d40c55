"""Span recording for the traced run, from the benchmark's own files.

The traced run wraps each layer's public entry point (a module or class
attribute) with a function that records one span per call: name, start,
end, parent span and the id of the client request in flight. Spans are
held in memory and written once, as Chrome-trace JSON, when the run
ends. A layer's self time is its spans' duration minus the part of each
span that its child spans cover, so the rows of the self-time table plus
a residual add up to the measured makespan.

Threads: the client loop is closed (one request in flight), so a span
opened on a server thread whose own stack is empty takes the client's
in-flight request span as its parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "tid")

    def __init__(self, sid, name, start, parent, request, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.tid = tid


class SpanRecorder:
    """Collects spans while ``enabled``; a disabled recorder costs one
    attribute read per wrapped call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: Worker-side tile results seen by the parent:
        #: ``(wall_s, worker_s)`` per tile, wall from submit to resolve.
        self.tiles: list[tuple[float, float]] = []
        #: Byte and event totals of the fetch traces handed to replay.
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.ambient: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._undo: list[tuple] = []
        self._archive: list[Span] = []

    # -- recording --------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.ambient
        with self._lock:
            sid = self._next
            self._next += 1
        record = Span(sid, name, time.perf_counter_ns(), parent,
                      self.request, threading.get_ident())
        stack.append(sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def take(self) -> tuple[list[Span], list[tuple[float, float]], dict]:
        """Hand over (and clear) what was recorded since the last take;
        the spans stay archived for the Chrome trace."""
        with self._lock:
            spans, self.spans = self.spans, []
            tiles, self.tiles = self.tiles, []
            counts, self.counts = dict(self.counts), defaultdict(float)
            self._archive.extend(spans)
        return spans, tiles, counts

    # -- instrumentation ---------------------------------------------

    def wrap(self, owner, attr: str, name, before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's
        ``(args, kwargs)`` returning one; ``before(args, kwargs)`` runs
        outside the span (used to size replayed traces).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            with recorder.span(label):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_submit_tile(self, pool_cls) -> None:
        """``WorkerPool.submit_tile``: a span for the parent-side submit
        (pickling, scene shipping), plus the tile's wall time and the
        ``worker_seconds`` its future resolves with."""
        original = pool_cls.__dict__["submit_tile"]
        recorder = self

        @functools.wraps(original)
        def submit_tile(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            submitted = time.perf_counter()
            with recorder.span("pool.submit"):
                future = original(*args, **kwargs)

            def resolved(done) -> None:
                if done.cancelled() or done.exception() is not None:
                    return
                _, worker_s = done.result()
                with recorder._lock:
                    recorder.tiles.append(
                        (time.perf_counter() - submitted, float(worker_s)))

            future.add_done_callback(resolved)
            return future

        pool_cls.submit_tile = submit_tile
        self._undo.append((pool_cls, "submit_tile", original))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def write_chrome_trace(self, path, origin_ns: int) -> None:
        """All archived spans as Chrome-trace complete events."""
        events = []
        for span in self._archive:
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": span.tid,
                "ts": (span.start - origin_ns) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "args": {"id": span.sid, "parent": span.parent,
                         "request": span.request},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time (seconds) per span name: each span's duration minus the
    union of its children's intervals clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    rows: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = _covered_ns([
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())])
        rows[span.name] += (span.end - span.start - covered) / 1e9
    return dict(rows)
