"""Arithmetic of the benchmark: percentiles, span self time and checksum
digests.  Pure functions with no dependency on the program, so
the tests beside this file can check them directly.
"""

from __future__ import annotations

import hashlib

TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples beyond it."""


def percentile_rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile among n sorted samples.

    Integer arithmetic, so 95% of 200 is exactly rank 190.
    """
    return max(1, (q * n + 99) // 100)


def reportable(n: int, q: int) -> bool:
    """True when n samples leave at least TAIL_SAMPLES beyond the q-th
    percentile: p50 needs 20 samples, p90 needs 100 and p95 needs 200."""
    return n > 0 and n - percentile_rank(n, q) >= TAIL_SAMPLES


def percentile(samples, q: int) -> float:
    ordered = sorted(samples)
    return ordered[percentile_rank(len(ordered), q) - 1]


def reportable_percentiles(samples, qs) -> dict[int, float]:
    """The q-th percentiles of samples, leaving out every q whose tail is
    too small to report."""
    n = len(samples)
    return {q: percentile(samples, q) for q in qs if reportable(n, q)}


def worst_per_step(replays) -> list[float]:
    """The highest latency of each step over several replays of one trace.

    ``replays`` holds one latency sequence per replay, in trace order; the
    trace is deterministic, so step i does the same work in every replay.
    """
    return [max(step) for step in zip(*replays)]


def covered_length(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)`` tuples; a root has
    parent ``None``.  Grandchildren lie inside their parent, so they are
    never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered_length(start, end, children.get(sid, ()))
        for sid, _parent, start, end in spans
    }


def checksum_digest(checksums) -> str:
    """Digest of an access-checksum list, computed the way
    ``TraceDriver`` computes ``MetricsReport.checksum_digest``."""
    return hashlib.sha256(repr(list(checksums)).encode()).hexdigest()[:16]

