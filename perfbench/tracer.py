"""Spans and call counts recorded from outside the program.

The tracer wraps methods on one driver's instances (and the two migration
functions where ``dualheap.collector`` looks them up), so calls the
program makes internally, such as ``allocate`` calling
``self.minor_collect()``, are caught without any change to ``src/``.

Calls at a layer boundary get a span each.  Calls made per object or per
word get a count and summed time only, because a span per call would
cost more than the call.
"""

from __future__ import annotations

import json
import time

import dualheap.collector as collector_module

_clock = time.perf_counter

# (owner path on the driver, method name, span name)
SPAN_METHODS = [
    ("rt", "minor_collect", "runtime.minor_collect"),
    ("rt", "major_collect", "runtime.major_collect"),
    ("rt.collector", "minor", "collector.minor"),
    ("rt.collector", "major", "collector.major"),
    ("rt.h1.cards", "dirty_indexes", "h1.cards.dirty_indexes"),
    ("rt.h2", "scan_dirty_cards", "h2.scan_dirty_cards"),
    ("rt.h2", "begin_mark", "h2.begin_mark"),
    ("rt.h2", "reclaim_free_regions", "h2.reclaim_free_regions"),
    ("serializer", "serialize", "workload.serialize"),
    ("serializer", "deserialize", "workload.deserialize"),
]
SPAN_FUNCTIONS = [
    ("etr_mark_closure", "migration.etr_mark_closure"),
    ("transfer_marked", "migration.transfer_marked"),
]
TIMED_METHODS = [
    ("rt", "allocate", "runtime.allocate"),
    ("rt", "write_ref", "runtime.write_ref"),
    ("rt", "write_scalar", "runtime.write_scalar"),
    ("rt.h2", "allocate_in_region", "h2.allocate_in_region"),
]
COUNTED_METHODS = [
    ("rt", "load_word", "runtime.load_word"),
    ("rt", "descriptor_of", "runtime.descriptor_of"),
    ("rt.h1", "load_word", "h1.load_word"),
    ("rt.h2", "load_word", "h2.load_word"),
]


def _owner(driver, path: str):
    obj = driver
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


class Tracer:
    """In-memory spans plus per-name call counts and times.

    Each span is ``(span_id, parent_id, event, name, start, end)``.  A trace
    event is a root span whose id is the event's line index; every span
    below it carries that index as ``event``.  Timed calls (not spans) get
    ``calls``, ``seconds`` and ``self_seconds``, the last being the call's
    time minus the spans opened directly inside it.
    """

    def __init__(self, first_child_id: int) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self._counts: dict[str, list[int]] = {}
        self._next_id = first_child_id
        # Open frames, innermost last.  A span's frame is [span_id, event,
        # covered, parent_id, name, start], a timed call's is [None, None,
        # covered]; covered sums the spans that closed directly inside it.
        self._stack: list[list] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, span_id: int | None = None) -> None:
        parent = next((f for f in reversed(self._stack) if f[0] is not None), None)
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        event = parent[1] if parent is not None else span_id
        parent_id = parent[0] if parent is not None else None
        self._stack.append([span_id, event, 0.0, parent_id, name, _clock()])

    def close(self) -> None:
        end = _clock()
        span_id, event, _covered, parent_id, name, start = self._stack.pop()
        self.spans.append((span_id, parent_id, event, name, start, end))
        if self._stack:
            self._stack[-1][2] += end - start

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    # -- per-call aggregates ---------------------------------------------------

    def timed(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)
        self.self_seconds.setdefault(name, 0.0)
        stack, calls, seconds, self_seconds = (
            self._stack, self.calls, self.seconds, self.self_seconds,
        )

        def timed_call(*args, **kwargs):
            frame = [None, None, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                calls[name] += 1
                seconds[name] += elapsed
                self_seconds[name] += elapsed - frame[2]

        return timed_call

    def counted(self, name: str, fn):
        cell = self._counts.setdefault(name, [0])

        def counted_call(*args):
            cell[0] += 1
            return fn(*args)

        return counted_call

    def call_count(self, name: str) -> int:
        if name in self.calls:
            return self.calls[name]
        return self._counts.get(name, [0])[0]

    # -- instrumentation -------------------------------------------------------

    def instrument(self, driver):
        """Wrap the driver's runtime, heaps and serializer; returns a
        function that restores the module-level functions it replaced."""
        for path, attr, name in SPAN_METHODS:
            obj = _owner(driver, path)
            setattr(obj, attr, self.span(name, getattr(obj, attr)))
        for path, attr, name in TIMED_METHODS:
            obj = _owner(driver, path)
            setattr(obj, attr, self.timed(name, getattr(obj, attr)))
        for path, attr, name in COUNTED_METHODS:
            obj = _owner(driver, path)
            setattr(obj, attr, self.counted(name, getattr(obj, attr)))
        saved = {attr: getattr(collector_module, attr) for attr, _ in SPAN_FUNCTIONS}
        for attr, name in SPAN_FUNCTIONS:
            setattr(collector_module, attr, self.span(name, saved[attr]))

        def restore() -> None:
            for attr, fn in saved.items():
                setattr(collector_module, attr, fn)

        return restore

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per line, times in microseconds from origin."""
        with open(path, "w") as fh:
            for span_id, parent, event, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "event": event,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")
