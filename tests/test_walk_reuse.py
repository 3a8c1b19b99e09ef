"""The trace driver's closure-walk reuse.

`TraceDriver._order` hands mutates and point accesses the last closure
walk while its key (partition, root, minor index, major index) still
matches.  These tests count `Runtime.closure` calls around collections
and SD rebuilds, and compare every observable output with a driver that
walks on every event.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from dualheap import Runtime, RuntimeConfig, SdConfig
from dualheap.workload import PROFILES, TraceDriver, generate_trace, parse_trace

from conftest import KIB, make_config
from test_equality_gate import gate_config


class AlwaysWalks(TraceDriver):
    """The oracle: every order comes from a new walk."""

    def _order(self, part):
        order, descs, _checksum = self._traverse(part)
        return order, descs


@pytest.fixture
def closure_calls(monkeypatch):
    calls: list[int] = []
    closure = Runtime.closure
    monkeypatch.setattr(Runtime, "closure", lambda self, root: calls.append(root) or closure(self, root))
    return calls


def walks_per_event(driver, events, calls) -> list[int]:
    walks = []
    for evt in events:
        before = len(calls)
        driver.run([evt])
        walks.append(len(calls) - before)
    return walks


BUILD = "build_partition part={} family=1 count={} fanout=2 tfrac=0.25 seed={}"


@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
def test_walk_is_reused_until_a_collection(mode, closure_calls):
    # Partition 0's build collects part-way, and with a tenuring threshold
    # of 1 its root is promoted then: the later collections move none of
    # it or only its young tail, so the index terms of the key, not its
    # root, are what make the walks after them.
    script = [  # (event, closure walks it makes)
        ("define_class id=1 scalars=2", 0),
        (BUILD.format(0, 500, 5), 0),
        ("persist part=0", 0),
        (BUILD.format(1, 60, 6), 0),
        ("persist part=1", 0),
        ("access part=0 kind=scan", 1),
        ("mutate part=0 count=3 seed=1", 0),  # follows an access of part 0
        ("mutate part=0 count=3 seed=2", 0),  # follows a mutate of part 0
        ("access part=0 kind=point seed=4", 0),
        ("access part=1 kind=point seed=4", 1),  # another partition
        ("mutate part=1 count=3 seed=3", 0),
        ("mutate part=0 count=3 seed=3", 1),
        ("access part=0 kind=scan", 1),  # a scan always walks
        ("mutate part=0 count=3 seed=4", 0),
        ("gc_hint kind=minor", 0),
        ("mutate part=0 count=3 seed=5", 1),
        ("mutate part=0 count=3 seed=6", 0),
        (BUILD.format(2, 400, 7), 0),  # its allocation collects
        ("mutate part=0 count=3 seed=7", 1),
        ("mutate part=0 count=3 seed=8", 0),
        ("gc_hint kind=major", 0),
        ("mutate part=0 count=3 seed=9", 1),
        ("access part=0 kind=point seed=5", 0),
    ]
    events = parse_trace("\n".join(line for line, _ in script))
    major = next(i for i, (line, _) in enumerate(script) if "major" in line)
    with TraceDriver(make_config(young=20 * KIB, tenuring=1), mode) as driver:
        collector = driver.rt.collector
        walks = walks_per_event(driver, events[:2], closure_calls)
        assert collector.minor_index == 1
        root = driver._root_of(driver.partitions[0])
        walks += walks_per_event(driver, events[2:major], closure_calls)
        assert collector.minor_index == 3  # the hint's and the build's
        assert driver._root_of(driver.partitions[0]) == root
        walks += walks_per_event(driver, events[major:], closure_calls)
    assert walks == [n for _, n in script]


@pytest.mark.parametrize("mode", ["TC", "MO"])
def test_a_major_without_its_own_minor_makes_a_new_walk(mode, closure_calls):
    # An escalated minor runs the major with skip_minor=True, so only the
    # major index tells the walk key that this collection ran.  The first
    # major puts the partition where the second does not move its root
    # (H2 under TC, the base of the old generation under MO).
    lines = [
        "define_class id=1 scalars=2",
        BUILD.format(0, 200, 5),
        "persist part=0",
        "gc_hint kind=major",
        "mutate part=0 count=3 seed=1",
        "mutate part=0 count=3 seed=2",
    ]
    events = parse_trace("\n".join(lines))
    with TraceDriver(make_config(), mode) as driver:
        walks = walks_per_event(driver, events[:5], closure_calls)
        collector = driver.rt.collector
        minors, root = collector.minor_index, driver._root_of(driver.partitions[0])
        collector.major(skip_minor=True)
        assert (collector.minor_index, driver._root_of(driver.partitions[0])) == (minors, root)
        walks += walks_per_event(driver, events[5:], closure_calls)
    assert walks == [0, 0, 0, 0, 1, 1]


def test_sd_rebuild_gives_a_new_root_and_a_new_walk(closure_calls):
    # A cache that holds one partition: each admission evicts the other.
    # H1 is large enough that nothing collects.
    cfg = make_config(young=800 * KIB, sd=SdConfig(cache_fraction=0.005))
    lines = [
        "define_class id=1 scalars=2",
        BUILD.format(0, 100, 5),
        "persist part=0",
        "mutate part=0 count=3 seed=1",
        BUILD.format(1, 100, 6),
        "persist part=1",  # evicts part 0
        "mutate part=0 count=3 seed=2",  # rebuilds part 0, evicting part 1
        "mutate part=0 count=3 seed=3",
    ]
    events = parse_trace("\n".join(lines))
    with TraceDriver(cfg, "SD") as driver:
        walks = walks_per_event(driver, events[:4], closure_calls)
        root = driver._root_of(driver.partitions[0])
        walks += walks_per_event(driver, events[4:6], closure_calls)
        assert driver.partitions[0].slot_id is None  # evicted
        walks += walks_per_event(driver, events[6:], closure_calls)
        assert driver._root_of(driver.partitions[0]) != root
        assert driver.rt.counters["evictions"] == 2
        collector = driver.rt.collector
        assert (collector.minor_index, collector.major_index) == (0, 0)
    assert walks == [0, 0, 0, 1, 0, 0, 1, 0]


def tight_config() -> RuntimeConfig:
    """The equality gate's geometry with a 20 KiB young generation: every
    profile's builds collect."""
    cfg = gate_config()
    return replace(cfg, h1=replace(cfg.h1, young_size=20 * KIB)).validate()


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
def test_reuse_matches_a_driver_that_always_walks(mode, profile, seed, closure_calls):
    events = parse_trace(generate_trace(profile, 2, seed))
    reports, walks = [], []
    for driver_class in (TraceDriver, AlwaysWalks):
        closure_calls.clear()
        with driver_class(tight_config(), mode) as driver:
            collector = driver.rt.collector
            build_collections = 0
            for evt in events:
                before = (collector.minor_index, collector.major_index)
                driver.run([evt])
                if evt.op == "build_partition":
                    build_collections += (collector.minor_index, collector.major_index) != before
            reports.append(driver.run([]))
        assert build_collections > 0
        walks.append(len(closure_calls))
    reused, oracle = reports
    assert reused.checksums == oracle.checksums
    assert reused.checksum_digest == oracle.checksum_digest
    work = lambda report: {k: v for k, v in report.counters.items() if not k.endswith("_seconds")}
    assert work(reused) == work(oracle)
    assert walks[0] < walks[1]
