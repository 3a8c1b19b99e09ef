"""Workloads, the replay loop and the metrics computed from it.

A replay is closed loop in one thread: ``TraceDriver.run`` hands the
program each trace event after the previous one returned.  Every event
and every ``minor_collect``/``major_collect`` call is timed from outside
the program.  A traced replay records spans instead (see ``tracer.py``).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from dualheap import H1Config, H2Config, HeapError, MetricsReport, RuntimeConfig, TraceDriver, parse_trace
from dualheap.config import KIB, MIB, MigrationConfig

import traces
from benchmath import checksum_digest, reportable_percentiles, self_times, worst_per_step
from tracer import Tracer

_clock = time.perf_counter

SETUP_SAMPLES = 3
"""Extra set-ups before each replay, so setup_s is a median of many
samples spread over the whole run."""

# The paper's criterion-6 geometry: a 72 KiB H1 next to a 4 MiB H2 whose
# 16 KiB regions hold 8 KiB stripes of two 4 KiB cards, so every H2 card
# is a boundary card and is never cleaned by a scan.
TIGHT_H2 = H2Config(
    size=4 * MIB, region_size=16 * KIB, stripe_size=8 * KIB, card_segment=4 * KIB,
    scan_threads=2, backing="anonymous",
)
TIGHT = RuntimeConfig(
    h1=H1Config(young_size=10 * KIB, old_size=62 * KIB),
    h2=TIGHT_H2,
    migration=MigrationConfig(strategy="direct_copy"),
)
# The default H2 geometry (1 GiB, 8 MiB regions, 4 MiB stripes, 8 KiB
# cards, 4 scan threads: 131,072 cards) next to a small H1.
BIG_H2 = RuntimeConfig(
    h1=H1Config(young_size=80 * KIB, old_size=256 * KIB),
    h2=H2Config(backing="anonymous"),
    migration=MigrationConfig(strategy="direct_copy"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    trace: Callable[[int], str]
    config: RuntimeConfig

    def reference_config(self) -> RuntimeConfig:
        """Config of the untimed MO replay that checks the outputs.  MO
        leaves H2 idle, so it gets the small H2; the old generation then
        defaults to 4 MiB, enough for every partition of both shapes."""
        return replace(self.config, h2=TIGHT_H2, mo_old_size=None)


WORKLOADS = {
    w.name: w
    for w in [
        # The headline dual-heap case: the cache is ~10x H1 and every H2
        # card is a boundary card, so each minor re-walks all migrated data.
        Workload("tc-tight", "TC", traces.pagerank_trace, TIGHT),
        # The same trace serialize-on-evict: H2 is idle and the time goes to
        # the serializer, the LRU and H1 majors.  It bypasses every H2 and
        # migration change.
        Workload("sd-tight", "SD", traces.pagerank_trace, TIGHT),
        # Tiny live data in the default 1 GiB H2: pauses are set by the card
        # tables' size, and cards are used from the write side (barrier hits
        # and backward references), not by object walks.
        Workload("tc-bigh2-write", "TC", traces.write_rounds_trace, BIG_H2),
    ]
}


# ---------------------------------------------------------------------------
# one replay


class TimedEvents(list):
    """The trace's events; iterating them times each one.

    ``TraceDriver.run`` asks for the next event only after the previous
    handler returned, so the gap between two requests is the event's
    latency.  With a tracer, each event is also a root span whose id is
    the event's line index.
    """

    def __init__(self, events, tracer: Tracer | None = None) -> None:
        super().__init__(events)
        self.tracer = tracer
        self.durations: list[tuple[str, float]] = []

    def __iter__(self):
        tracer = self.tracer
        durations = self.durations
        for evt in list.__iter__(self):
            if tracer is not None:
                tracer.open(f"event.{evt.op}", span_id=evt.index)
            start = _clock()
            yield evt
            durations.append((evt.op, _clock() - start))
            if tracer is not None:
                tracer.close()


def time_collections(rt, pauses: list[float]) -> None:
    """Append the wall time of every minor_collect/major_collect call on
    this runtime to ``pauses``.  A minor that escalates is one call."""
    for name in ("minor_collect", "major_collect"):
        def timed(fn=getattr(rt, name)):
            start = _clock()
            try:
                return fn()
            finally:
                pauses.append(_clock() - start)

        setattr(rt, name, timed)


@dataclass
class Replay:
    setup_s: float
    replay_s: float
    attempted: int
    durations: list[tuple[str, float]]
    pauses: list[float]
    collections: list[tuple[str, object]]
    report: MetricsReport | None
    error: str | None
    tracer: Tracer | None = None
    origin: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.durations)


def setup(wl: Workload, text: str, observer=None):
    """parse_trace plus TraceDriver construction, timed together."""
    start = _clock()
    events = parse_trace(text)
    driver = TraceDriver(wl.config, wl.mode, observer=observer)
    return events, driver, _clock() - start


def setup_seconds(wl: Workload, text: str) -> float:
    _events, driver, seconds = setup(wl, text)
    driver.close()
    return seconds


def replay(wl: Workload, text: str, traced: bool = False) -> Replay:
    gc.collect()
    collections: list[tuple[str, object]] = []
    events, driver, setup_s = setup(
        wl, text, observer=lambda _driver, kind, stats: collections.append((kind, stats))
    )
    tracer = restore = None
    pauses: list[float] = []
    try:
        if traced:
            tracer = Tracer(first_child_id=events[-1].index + 1)
            restore = tracer.instrument(driver)
        else:
            time_collections(driver.rt, pauses)
        timed = TimedEvents(events, tracer)
        report = error = None
        start = _clock()
        try:
            report = driver.run(timed)
        except HeapError as exc:
            error = f"{type(exc).__name__}: {exc}"
        replay_s = _clock() - start
    finally:
        if restore is not None:
            restore()
        driver.close()
    return Replay(setup_s, replay_s, len(events), timed.durations, pauses,
                  collections, report, error, tracer, start)


def reference_report(wl: Workload, text: str) -> MetricsReport:
    with TraceDriver(wl.reference_config(), "MO") as driver:
        return driver.run(parse_trace(text))


# ---------------------------------------------------------------------------
# end-to-end metrics

END_TO_END = {
    "replay_s": "s",
    "setup_s": "s",
    "gc_pause_p50_ms": "ms",
    "gc_pause_p90_ms": "ms",
    "access_p50_ms": "ms",
    "access_p95_ms": "ms",
    "mutate_p50_ms": "ms",
    "mutate_p95_ms": "ms",
    "build_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

# metric prefix -> (trace op, percentiles)
LATENCIES = {
    "access": ("access", (50, 95)),
    "mutate": ("mutate", (50, 95)),
    "build": ("build_partition", (50,)),
}


def latency_samples(r: Replay) -> dict[str, list[float]]:
    """Latencies of one replay in trace order: every event, every
    collection call, and the events of each op with a percentile."""
    samples = {"event": [d for _op, d in r.durations], "gc_pause": r.pauses}
    for prefix, (op, _qs) in LATENCIES.items():
        samples[prefix] = [d for o, d in r.durations if o == op]
    return samples


QUANTILES = {"gc_pause": (50, 90)} | {p: qs for p, (_op, qs) in LATENCIES.items()}


def run_metrics(replays: list[Outcome]) -> dict[str, float]:
    """Timings of a run's untraced replays.

    The trace is deterministic, so event i (and collection j) does the same
    work in every replay.  Each step's latency is its highest over the
    run's replays, and each percentile is taken over those per-step
    latencies; a percentile appears only where the trace has at least ten
    steps beyond it.  ``replay_s`` is the sum of the per-event latencies
    plus the highest time ``TraceDriver.run`` spent outside events.

    On a shared host the machine's speed swings between a contended level
    and brief uncontended stretches, whose share changes from minute to
    minute.  Anything that averages over both, or picks the fast stretches,
    moves with that share.  A step's worst latency over a run's replays
    is its latency at the contended level, which repeats from run to run.
    """
    events = worst_per_step([o.samples["event"] for o in replays])
    outside = max(o.replay_s - sum(o.samples["event"]) for o in replays)
    metrics = {"replay_s": sum(events) + outside}
    for prefix, qs in QUANTILES.items():
        steps = worst_per_step([o.samples[prefix] for o in replays])
        for q, value in reportable_percentiles(steps, qs).items():
            metrics[f"{prefix}_p{q}_ms"] = value * 1e3
    return metrics


def median_metrics(per_replay: list[dict[str, float]]) -> dict[str, float]:
    """The median of each metric over a run's replays, taken as one of the
    measured values, so that counts stay whole."""
    keys = set.intersection(*(set(m) for m in per_replay))
    return {k: statistics.median_low(m[k] for m in per_replay) for k in keys}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# per-layer metrics (traced replays)

# name -> (unit, ratio base or None)
PER_LAYER = {
    "h2.scan_dirty_cards.calls": ("count", None),
    "h2.scan_dirty_cards.s": ("s", None),
    "h2.scan.us_per_dirty_card": ("us", "h2.cards_scanned"),
    "h2.cards_scanned": ("count", None),
    "h2.bytes_walked": ("bytes", None),
    "h2.backward_refs_found": ("count", None),
    "h2.cards_dirtied": ("count", None),
    "h2.boundary_dirty": ("count", None),
    "h2.refs_per_scanned_card": ("ratio", "h2.cards_scanned"),
    "h2.allocate_in_region.calls": ("count", None),
    "h2.allocate_in_region.s": ("s", None),
    "h2.begin_mark.s": ("s", None),
    "h2.reclaim_free_regions.s": ("s", None),
    "h2.regions_freed": ("count", None),
    "h2.load_word.calls": ("count", None),
    "collector.minor.calls": ("count", None),
    "collector.minor.self_s": ("s", None),
    "collector.escalations": ("count", None),
    "collector.objects_copied_minor": ("count", None),
    "collector.objects_promoted": ("count", None),
    "collector.h1_cards_scanned": ("count", None),
    "collector.major.calls": ("count", None),
    "collector.major.mark_s": ("s", None),
    "collector.major.precompact_s": ("s", None),
    "collector.major.compact_s": ("s", None),
    "collector.major.adjust_s": ("s", None),
    "collector.major.reclaimed_frac": ("ratio", "old bytes before each major"),
    "h1.cards.dirty_indexes.s": ("s", None),
    "h1.load_word.calls": ("count", None),
    "migration.etr_mark_closure.s": ("s", None),
    "migration.transfer_marked.s": ("s", None),
    "migration.marked_objects": ("count", None),
    "migration.objects_moved_to_h2": ("count", None),
    "migration.bytes_moved_to_h2": ("bytes", None),
    "migration.h2_flush_ops": ("count", None),
    "runtime.allocate.calls": ("count", None),
    "runtime.allocate.self_s": ("s", None),
    "runtime.write_ref.calls": ("count", None),
    "runtime.write_ref.s": ("s", None),
    "runtime.write_scalar.calls": ("count", None),
    "runtime.write_scalar.s": ("s", None),
    "runtime.load_word.calls": ("count", None),
    "runtime.descriptor_of.calls": ("count", None),
    "runtime.barrier_h1_hits": ("count", None),
    "runtime.barrier_h2_hits": ("count", None),
    "workload.serialize.calls": ("count", None),
    "workload.serialize.s": ("s", None),
    "workload.deserialize.calls": ("count", None),
    "workload.deserialize.s": ("s", None),
    "workload.serialize.mib_per_s": ("MiB/s", "workload.serialize.s"),
    "workload.bytes_serialized": ("bytes", None),
    "workload.bytes_deserialized": ("bytes", None),
    "workload.evictions": ("count", None),
    "workload.build.self_s": ("s", None),
    "workload.access.self_s": ("s", None),
    "workload.mutate.self_s": ("s", None),
    "trace.replay_s": ("s", None),
    "trace.overhead_s": ("s", "median untraced replay wall time"),
}

# per-layer name -> MetricsReport counter
_COUNTERS = {
    "h2.cards_scanned": "h2_cards_scanned",
    "h2.bytes_walked": "h2_segment_bytes_walked",
    "h2.backward_refs_found": "backward_refs_found",
    "h2.cards_dirtied": "h2_cards_dirtied",
    "h2.boundary_dirty": "h2_boundary_dirty",
    "h2.regions_freed": "regions_freed",
    "collector.objects_copied_minor": "objects_copied_minor",
    "collector.objects_promoted": "objects_promoted",
    "collector.h1_cards_scanned": "h1_cards_scanned",
    "migration.objects_moved_to_h2": "objects_moved_to_h2",
    "migration.bytes_moved_to_h2": "bytes_moved_to_h2",
    "migration.h2_flush_ops": "h2_flush_ops",
    "runtime.barrier_h1_hits": "barrier_h1_hits",
    "runtime.barrier_h2_hits": "barrier_h2_hits",
    "workload.bytes_serialized": "bytes_serialized",
    "workload.bytes_deserialized": "bytes_deserialized",
    "workload.evictions": "evictions",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(r: Replay) -> dict[str, float]:
    """Per-layer numbers of one traced replay, without the rates, which
    are derived from the run's median times (see ``RunResult.per_layer``)."""
    t = r.tracer
    counters = r.report.counters
    selfs = self_times([(s[0], s[1], s[4], s[5]) for s in t.spans])
    names = {s[0]: s[3] for s in t.spans}
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_total: Counter[str] = Counter()
    escalations = 0
    for sid, parent, _event, name, start, end in t.spans:
        calls[name] += 1
        total[name] += end - start
        self_total[name] += selfs[sid]
        if name == "collector.major" and names.get(parent) == "runtime.minor_collect":
            escalations += 1
    majors = [stats for kind, stats in r.collections if kind == "major"]
    old_before = sum(s.old_bytes_before for s in majors)
    old_after = sum(s.old_bytes_after for s in majors)
    m = {name: counters[key] for name, key in _COUNTERS.items()}
    m.update({
        "h2.scan_dirty_cards.calls": calls["h2.scan_dirty_cards"],
        "h2.scan_dirty_cards.s": total["h2.scan_dirty_cards"],
        "h2.refs_per_scanned_card": _ratio(m["h2.backward_refs_found"], m["h2.cards_scanned"]),
        "h2.allocate_in_region.calls": t.call_count("h2.allocate_in_region"),
        "h2.allocate_in_region.s": t.seconds["h2.allocate_in_region"],
        "h2.begin_mark.s": total["h2.begin_mark"],
        "h2.reclaim_free_regions.s": total["h2.reclaim_free_regions"],
        "h2.load_word.calls": t.call_count("h2.load_word"),
        "collector.minor.calls": calls["collector.minor"],
        "collector.minor.self_s": self_total["collector.minor"],
        "collector.escalations": escalations,
        "collector.major.calls": calls["collector.major"],
        "collector.major.reclaimed_frac": _ratio(old_before - old_after, old_before),
        "h1.cards.dirty_indexes.s": total["h1.cards.dirty_indexes"],
        "h1.load_word.calls": t.call_count("h1.load_word"),
        "migration.etr_mark_closure.s": total["migration.etr_mark_closure"],
        "migration.transfer_marked.s": total["migration.transfer_marked"],
        "migration.marked_objects": sum(s.marked_objects for s in majors),
        "runtime.allocate.calls": t.call_count("runtime.allocate"),
        "runtime.allocate.self_s": t.self_seconds["runtime.allocate"],
        "runtime.write_ref.calls": t.call_count("runtime.write_ref"),
        "runtime.write_ref.s": t.seconds["runtime.write_ref"],
        "runtime.write_scalar.calls": t.call_count("runtime.write_scalar"),
        "runtime.write_scalar.s": t.seconds["runtime.write_scalar"],
        "runtime.load_word.calls": t.call_count("runtime.load_word"),
        "runtime.descriptor_of.calls": t.call_count("runtime.descriptor_of"),
        "workload.serialize.calls": calls["workload.serialize"],
        "workload.serialize.s": total["workload.serialize"],
        "workload.deserialize.calls": calls["workload.deserialize"],
        "workload.deserialize.s": total["workload.deserialize"],
        "workload.build.self_s": self_total["event.build_partition"],
        "workload.access.self_s": self_total["event.access"],
        "workload.mutate.self_s": self_total["event.mutate"],
        "trace.replay_s": r.replay_s,
    })
    for phase in ("mark", "precompact", "compact", "adjust"):
        m[f"collector.major.{phase}_s"] = sum(s.phase_seconds.get(phase, 0.0) for s in majors)
    return m


# ---------------------------------------------------------------------------
# a whole run


def work_counters(report: MetricsReport) -> dict[str, int]:
    """The deterministic counters: everything but the wall-clock columns."""
    return {k: v for k, v in report.counters.items() if not k.endswith("_seconds")}


@dataclass
class Outcome:
    """What a run keeps of one replay, so that memory, and with it
    peak_rss_mib, does not grow with the number of replays."""

    traced: bool
    setup_s: float
    replay_s: float
    attempted: int
    completed: int
    error: str | None
    metrics: dict[str, float] = field(default_factory=dict)
    # Untraced replays: latencies in seconds and trace order, by step kind.
    samples: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    # The reported checksum_digest and the digest of the checksum list.
    digests: tuple[str, str] = ("", "")
    # A warm-up replay is checked but not timed.
    warmup: bool = False


def outcome(r: Replay, warmup: bool = False) -> Outcome:
    traced = r.tracer is not None
    o = Outcome(traced, r.setup_s, r.replay_s, r.attempted, r.completed, r.error, warmup=warmup)
    if r.report is not None:
        if traced:
            o.metrics = layer_metrics(r)
        else:
            o.samples = latency_samples(r)
        o.counters = work_counters(r.report)
        o.digests = (r.report.checksum_digest, checksum_digest(r.report.checksums))
    return o


@dataclass
class RunResult:
    workload: Workload
    seed: int
    event_counts: dict[str, int]
    outcomes: list[Outcome]
    setup_samples: list[float]
    rss_mib: float
    reference: MetricsReport
    last_traced: Replay | None
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.attempted - o.completed for o in self.outcomes)

    def check(self) -> None:
        """Compare every replay's outputs with the MO replay, and its work
        counters with every other replay of the same seed."""
        ref = self.reference.checksum_digest
        first = None
        for i, o in enumerate(self.outcomes):
            if o.error is not None:
                self.problems.append(f"replay {i} failed: {o.error}")
                continue
            if o.digests != (ref, ref):
                self.problems.append(f"replay {i} digests {o.digests} != MO digest {ref}")
            if first is None:
                first = o.counters
            elif o.counters != first:
                diff = sorted(k for k in o.counters.keys() | first.keys() if o.counters.get(k) != first.get(k))
                self.problems.append(f"work counters of replay {i} differ from the first: {diff}")

    @property
    def correct(self) -> bool:
        return not self.problems

    def done(self, traced: bool) -> list[Outcome]:
        """The timed replays that completed."""
        return [o for o in self.outcomes if o.traced == traced and o.error is None and not o.warmup]

    def end_to_end(self) -> dict[str, float]:
        metrics = run_metrics(self.done(False))
        metrics["setup_s"] = statistics.median(self.setup_samples)
        metrics["peak_rss_mib"] = self.rss_mib
        return metrics

    def per_layer(self) -> dict[str, float]:
        m = median_metrics([o.metrics for o in self.done(True)])
        m["h2.scan.us_per_dirty_card"] = _ratio(m["h2.scan_dirty_cards.s"] * 1e6, m["h2.cards_scanned"])
        m["workload.serialize.mib_per_s"] = _ratio(m["workload.bytes_serialized"] / MIB, m["workload.serialize.s"])
        m["trace.overhead_s"] = m["trace.replay_s"] - statistics.median(o.replay_s for o in self.done(False))
        return m


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> RunResult:
    """Replay the workload's trace for about ``seconds``, then check the
    outputs against an untimed MO replay of the same trace.

    A first, untimed replay warms the interpreter and the allocator up.
    A traced run then alternates untraced and traced replays, so the
    tracing overhead compares replays made under the same conditions.
    """
    text = wl.trace(seed)
    event_counts = dict(sorted(Counter(e.op for e in parse_trace(text)).items()))
    setup_samples: list[float] = []
    start = _clock()
    warm = replay(wl, text)
    outcomes = [outcome(warm, warmup=True)]
    last_traced = None
    while warm.error is None:
        batch_start = _clock()
        setup_samples += [setup_seconds(wl, text) for _ in range(SETUP_SAMPLES)]
        batch = [replay(wl, text)]
        if traced:
            batch.append(last_traced := replay(wl, text, traced=True))
        outcomes += [outcome(r) for r in batch]
        setup_samples += [r.setup_s for r in batch]
        if any(r.error for r in batch):
            break
        now = _clock()
        if now - start + (now - batch_start) > seconds:
            break
    rss = peak_rss_mib()
    result = RunResult(wl, seed, event_counts, outcomes, setup_samples, rss,
                       reference_report(wl, text), last_traced)
    result.check()
    return result
