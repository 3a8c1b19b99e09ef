"""Tests of the benchmark's own arithmetic and inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import traces
from benchmath import (
    checksum_digest,
    percentile,
    reportable,
    reportable_percentiles,
    self_times,
    worst_per_step,
)


def test_percentile_needs_ten_samples_beyond():
    assert reportable(20, 50) and not reportable(19, 50)
    assert reportable(100, 90) and not reportable(99, 90)
    assert reportable(200, 95) and not reportable(199, 95)
    assert not reportable(0, 50)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))[::-1]
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert percentile([7.0], 50) == 7.0


def test_small_tail_is_omitted():
    samples = [float(i) for i in range(150)]
    assert reportable_percentiles(samples, (50, 90, 95)) == {50: 74.0, 90: 134.0}
    assert reportable_percentiles(samples[:15], (50,)) == {}


def test_worst_per_step_takes_each_steps_highest_latency():
    replays = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 1.0]]
    assert worst_per_step(replays) == [3.0, 6.0, 2.5]
    assert worst_per_step([[1.0, 2.0]]) == [1.0, 2.0]
    assert worst_per_step([]) == []


def test_self_time_with_nested_children():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 2.0, 6.0),
        (3, 2, 3.0, 5.0),  # grandchild: counted against 2 only
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 2.0}


def test_self_time_with_back_to_back_children():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 3.0),
        (3, 1, 3.0, 6.0),
        (4, 1, 9.0, 12.0),  # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 3.0 - 1.0)
    assert selfs[2] == 2.0 and selfs[3] == 3.0


def test_run_check_rejects_tampered_checksums_and_counters():
    pytest.importorskip("dualheap")
    import workloads

    checksums = [(3, 17), (5, 99), (8, 2**63)]
    good = checksum_digest(checksums)
    tampered = checksum_digest([(3, 17), (5, 98), (8, 2**63)])

    def outcome(listed, counters):
        return workloads.Outcome(False, 0.0, 1.0, 1, 1, None,
                                 counters=counters, digests=(good, listed))

    result = workloads.RunResult(
        workload=None, seed=1, event_counts={},
        outcomes=[outcome(good, {"a": 1}), outcome(tampered, {"a": 1}), outcome(good, {"a": 2})],
        setup_samples=[], rss_mib=0.0,
        reference=SimpleNamespace(checksum_digest=good), last_traced=None,
    )
    result.check()
    assert not result.correct
    assert [p.split()[0:2] for p in result.problems] == [["replay", "1"], ["work", "counters"]]


def test_digest_matches_the_drivers_digest():
    dualheap = pytest.importorskip("dualheap")
    text = traces.write_rounds_trace(3)
    cfg = dualheap.RuntimeConfig(
        h1=dualheap.H1Config(young_size=80 * 1024, old_size=4 * 1024 * 1024),
        h2=dualheap.H2Config(size=2 * 1024 * 1024, region_size=256 * 1024,
                             stripe_size=64 * 1024, card_segment=8 * 1024, scan_threads=2),
    )
    events = dualheap.parse_trace(text)[:200]
    report = dualheap.run_trace(events, "MO", cfg)
    assert report.checksums
    assert checksum_digest(report.checksums) == report.checksum_digest


@pytest.mark.parametrize("generate", [traces.pagerank_trace, traces.write_rounds_trace])
def test_traces_are_seeded_and_fixed_in_shape(generate):
    assert generate(traces.DEV_SEED) == generate(traces.DEV_SEED)
    assert generate(traces.DEV_SEED) != generate(traces.HELDOUT_SEED)

    def ops(text):
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        return Counter(ln.split()[0] for ln in lines)

    assert ops(generate(traces.DEV_SEED)) == ops(generate(traces.HELDOUT_SEED))
