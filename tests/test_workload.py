"""Workload driver: graph builds, accesses, SD baseline, trace machinery."""

import struct
from random import Random

import pytest

from dualheap import FieldKind, HeapExhaustedError, SdConfig, TraceError
from dualheap.metrics import COUNTER_COLUMNS
from dualheap.workload import (
    BaselineSerializer,
    TraceDriver,
    derive_seed,
    generate_trace,
    parse_trace,
    run_trace,
    seed_of,
)

from conftest import KIB, MIB, make_config
from heap_oracle import graph_snapshot, nontransient_closure, reachable_addrs


def drive(lines, mode="TC", observer=None, **cfg_kw):
    cfg = make_config(**cfg_kw)
    events = parse_trace("\n".join(lines) + "\n")
    return run_trace(events, mode, cfg, observer=observer)


BASE = ["define_class id=1 scalars=2"]


# -- build_partition -------------------------------------------------------------


def test_build_single_isolated_object():
    cfg = make_config()
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=1 fanout=0 tfrac=0.0 seed=1\n"
    )
    with TraceDriver(cfg, mode="TC") as driver:
        driver.run(events)
        root = driver.rt.read_root(driver.partitions[0].slot_id)
        assert driver.rt.descriptor_of(root).ref_indexes == ()
        assert reachable_addrs(driver.rt) == {root}


def test_build_deterministic_per_seed():
    def snapshot(seed):
        cfg = make_config()
        events = parse_trace(
            "define_class id=1 scalars=2\n"
            f"build_partition part=0 family=1 count=100 fanout=2 tfrac=0.25 seed={seed}\n"
        )
        with TraceDriver(cfg, mode="TC") as driver:
            driver.run(events)
            return graph_snapshot(driver.rt)

    assert snapshot(77) == snapshot(77)
    assert snapshot(77) != snapshot(78)


def test_build_transient_fraction_cuts_closure():
    cfg = make_config()
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=200 fanout=2 tfrac=0.5 seed=3\n"
    )
    with TraceDriver(cfg, mode="TC") as driver:
        driver.run(events)
        rt = driver.rt
        root = rt.read_root(driver.partitions[0].slot_id)
        closure = nontransient_closure(rt, root)
        assert len(closure) < 200  # transient edges cut part of the graph


def test_build_duplicate_partition_rejected():
    with pytest.raises(TraceError, match="already built"):
        drive(BASE + [
            "build_partition part=0 family=1 count=1 fanout=0 tfrac=0.0 seed=1",
            "build_partition part=0 family=1 count=1 fanout=0 tfrac=0.0 seed=1",
        ])


@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
@pytest.mark.parametrize("args, message", [
    ("fanout=-3 tfrac=0.0", "fanout must be >= 0"),
    ("fanout=2 tfrac=nan", "tfrac nan outside"),
    ("fanout=2 tfrac=1.5", "tfrac 1.5 outside"),
    ("fanout=2 tfrac=-2", "tfrac -2.0 outside"),
], ids=["fanout-neg", "tfrac-nan", "tfrac-above-1", "tfrac-neg"])
def test_build_malformed_shape_is_a_trace_error(mode, args, message):
    with pytest.raises(TraceError, match=f"event 2: {message}"):
        drive(BASE + [f"build_partition part=0 family=1 count=5 {args} seed=1"], mode)


# -- access ----------------------------------------------------------------------


def test_scan_checksum_stable_after_build():
    lines = BASE + [
        "build_partition part=0 family=1 count=50 fanout=2 tfrac=0.0 seed=5",
        "access part=0 kind=scan",
        "access part=0 kind=scan",
    ]
    report = drive(lines)
    assert report.checksums[0][1] == report.checksums[1][1]


def test_tc_scan_after_migration_deserializes_nothing():
    lines = BASE + [
        "build_partition part=0 family=1 count=60 fanout=2 tfrac=0.0 seed=5",
        "persist part=0",
        "gc_hint kind=major",
        "access part=0 kind=scan",
    ]
    report = drive(lines, mode="TC")
    assert report.counters["objects_moved_to_h2"] == 60
    assert report.counters["bytes_deserialized"] == 0
    assert report.counters["bytes_serialized"] == 0


def test_sd_scan_of_evicted_partition_deserializes():
    lines = BASE + [
        "build_partition part=0 family=1 count=600 fanout=2 tfrac=0.0 seed=5",
        "persist part=0",
        "build_partition part=1 family=1 count=600 fanout=2 tfrac=0.0 seed=6",
        "persist part=1",
        "access part=0 kind=scan",
    ]
    # Tiny cache: two partitions cannot both stay resident.
    from dualheap import SdConfig

    report = drive(
        lines, mode="SD", young=80 * KIB, old=96 * KIB, sd=SdConfig(cache_fraction=0.3)
    )
    assert report.counters["evictions"] > 0
    assert report.counters["bytes_serialized"] > 0
    assert report.counters["bytes_deserialized"] > 0


def test_access_unknown_partition_fails():
    with pytest.raises(TraceError, match="not built"):
        drive(BASE + ["access part=9 kind=scan"])


def test_access_after_unpersist_fails():
    with pytest.raises(TraceError, match="unpersisted"):
        drive(BASE + [
            "build_partition part=0 family=1 count=5 fanout=1 tfrac=0.0 seed=1",
            "persist part=0",
            "unpersist part=0",
            "access part=0 kind=scan",
        ])


def test_point_access_deterministic():
    lines = BASE + [
        "build_partition part=0 family=1 count=50 fanout=2 tfrac=0.0 seed=5",
        "access part=0 kind=point seed=9",
        "access part=0 kind=point seed=9",
        "access part=0 kind=point seed=10",
    ]
    report = drive(lines)
    values = [c for _, c in report.checksums]
    assert values[0] == values[1]


# -- mutate -----------------------------------------------------------------------


def test_mutation_changes_checksum_deterministically():
    lines = BASE + [
        "build_partition part=0 family=1 count=50 fanout=2 tfrac=0.25 seed=5",
        "access part=0 kind=scan",
        "mutate part=0 count=5 seed=3",
        "access part=0 kind=scan",
    ]
    r1 = drive(lines)
    r2 = drive(lines)
    assert r1.checksums == r2.checksums
    assert r1.checksums[0][1] != r1.checksums[1][1]


@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
def test_mutate_negative_count_is_a_trace_error_and_zero_a_no_op(mode):
    build = BASE + [
        "build_partition part=0 family=1 count=20 fanout=2 tfrac=0.0 seed=5",
        "persist part=0",
        "access part=0 kind=scan",
    ]
    with pytest.raises(TraceError, match="event 5: count must be >= 0"):
        drive(build + ["mutate part=0 count=-1 seed=3"], mode)
    zero = drive(build + ["mutate part=0 count=0 seed=3", "access part=0 kind=scan"], mode)
    assert zero.checksums[0][1] == zero.checksums[1][1]
    assert zero.counters == drive(build, mode).counters


# -- run_trace --------------------------------------------------------------------


def test_empty_trace_zeroed_report():
    report = drive([])
    assert report.counters["mutator_steps"] == 0
    assert report.counters["minor_count"] == 0
    assert report.counters["major_count"] == 0
    assert report.checksums == []


def test_unpersist_then_gc_frees_oracle_counted_regions():
    freed_total = []

    def observer(driver, kind, stats):
        if kind == "major":
            freed_total.extend(stats.regions_freed)

    lines = BASE + [
        "build_partition part=0 family=1 count=120 fanout=2 tfrac=0.0 seed=1",
        "persist part=0",
        "build_partition part=1 family=1 count=120 fanout=2 tfrac=0.0 seed=2",
        "persist part=1",
        "gc_hint kind=major",
        "unpersist part=0",
        "gc_hint kind=major",
    ]
    cfg = make_config()
    events = parse_trace("\n".join(lines) + "\n")
    with TraceDriver(cfg, mode="TC", observer=observer) as driver:
        driver.run(events)
        # Region granularity oracle: partition 1's regions survive, and all
        # remaining H2 objects belong to partition 1.
        remaining = {driver.rt.h2.partition_ids[r] for r in driver.rt.h2.allocated_regions()}
        assert remaining == {1}
    assert freed_total != []


def test_mode_equivalence_on_generated_traces():
    for profile in ("pagerank_like", "cc_like", "uniform"):
        text = generate_trace(profile, 2, seed=13)
        events = parse_trace(text)
        cfg = make_config(young=80 * KIB, old=512 * KIB, h2_size=4 * MIB)
        digests = set()
        for mode in ("TC", "SD", "MO"):
            digests.add(run_trace(events, mode, cfg).checksum_digest)
        assert len(digests) == 1, profile


def test_counters_registry_holds_only_report_columns():
    """`Runtime.counters` accepts any name, so a misspelt counter would be
    silently dropped from the report; every name must be a report column
    (or the reclaim work count the tests read)."""
    allowed = set(COUNTER_COLUMNS) | {"reclaim_ops"}
    for profile in ("pagerank_like", "cc_like", "uniform"):
        events = parse_trace(generate_trace(profile, 2, seed=13))
        # A small SD cache makes SD evict, so the serializer counts too.
        cfg = make_config(
            young=80 * KIB, old=512 * KIB, h2_size=4 * MIB, sd=SdConfig(cache_fraction=0.05)
        )
        for mode in ("TC", "SD", "MO"):
            with TraceDriver(cfg, mode=mode) as driver:
                report = driver.run(events)
                assert set(driver.rt.counters) <= allowed, (profile, mode)
            assert list(report.counters) == COUNTER_COLUMNS, (profile, mode)


def test_mo_mode_sizes_old_generation_to_hold_everything():
    cfg = make_config(young=80 * KIB, old=256 * KIB, h2_size=4 * MIB)
    with TraceDriver(cfg, mode="MO") as driver:
        assert driver.config.h1.old_size == cfg.h2.size
        assert driver.rt.h1.old_end - driver.rt.h1.old_base == cfg.h2.size


# -- serializer --------------------------------------------------------------------


def test_serializer_round_trip_nulls_transients():
    cfg = make_config()
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=40 fanout=2 tfrac=0.5 seed=11\n"
    )
    with TraceDriver(cfg, mode="SD") as driver:
        driver.run(events)
        rt = driver.rt
        part = driver.partitions[0]
        root = rt.read_root(part.slot_id)
        ser = BaselineSerializer(rt)
        blob = ser.serialize(root)
        before = graph_snapshot(rt, roots=[root], include_transient=False)
        new_root, total = ser.deserialize(blob)
        slot = rt.add_root(new_root)
        after = graph_snapshot(rt, roots=[rt.read_root(slot)], include_transient=False)
        assert before == after  # non-transient data round-trips intact
        # every transient field of the restored copy reads null
        for addr in reachable_addrs(rt, roots=[rt.read_root(slot)]):
            desc = rt.descriptor_of(addr)
            for fi in desc.ref_indexes:
                if desc.fields[fi].transient:
                    assert rt.read_ref(addr, fi) is None
        restored = reachable_addrs(rt, roots=[rt.read_root(slot)])
        assert total == sum(rt.descriptor_of(a).instance_size for a in restored)


def test_serializer_blob_deterministic():
    cfg = make_config()
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=30 fanout=2 tfrac=0.25 seed=2\n"
    )
    blobs = []
    for _ in range(2):
        with TraceDriver(cfg, mode="SD") as driver:
            driver.run(events)
            rt = driver.rt
            root = rt.read_root(driver.partitions[0].slot_id)
            blobs.append(BaselineSerializer(rt).serialize(root))
    assert blobs[0] == blobs[1]


class RootedHandles:
    """A growable list of handles that survives collections: every element
    is parked in its own root slot, so get() returns the current address.
    The per-field oracles below build through it."""

    def __init__(self, rt) -> None:
        self.rt = rt
        self._slots: list[int] = []

    def append(self, handle: int) -> None:
        self._slots.append(self.rt.add_root(handle))

    def get(self, index: int) -> int:
        return self.rt.read_root(self._slots[index])

    def release(self) -> None:
        for slot in self._slots:
            self.rt.drop_root(slot)
        self._slots.clear()


def deserialize_per_field(rt, blob):
    """`BaselineSerializer.deserialize` wired field by field through the
    mutator API (`write_scalar`/`write_ref`, each with its barrier): the
    reference the image-installing path must match."""
    (count,) = struct.unpack_from("<Q", blob, 8)
    pos = 16
    records = []
    for _ in range(count):
        (class_id,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        desc = rt.registry.get(class_id)
        values = []
        for fs in desc.fields:
            if fs.kind is FieldKind.REF and fs.transient:
                values.append(0)
                continue
            (value,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            values.append(value)
        records.append((desc, values))
    roster = RootedHandles(rt)
    total = 0
    for desc, _values in records:
        roster.append(rt.allocate(desc))
        total += desc.instance_size
    for i, (desc, values) in enumerate(records):
        obj = roster.get(i)
        for fi, (fs, value) in enumerate(zip(desc.fields, values)):
            if fs.kind is FieldKind.SCALAR:
                rt.write_scalar(obj, fi, value)
            elif not fs.transient and value:
                rt.write_ref(obj, fi, roster.get(value - 1))
    root = roster.get(0)
    roster.release()
    return root, total


def _heap_state(rt):
    counters = {k: v for k, v in rt.counters.items() if not k.endswith("_seconds")}
    return (
        bytes(rt.h1.buf), bytes(rt.h1.cards.cards), list(rt.h1.first_obj),
        list(rt.h2.first_obj), counters,
    )


def test_deserialize_matches_per_field_wiring_when_allocation_promotes():
    # A 2 KiB eden and a tenuring threshold of 1: the allocations of one
    # partition run several minors, which promote the objects rebuilt so
    # far, so their references to later, young objects pass the barrier.
    cfg = make_config(young=2560, tenuring=1)
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=150 fanout=2 tfrac=0.25 seed=5\n"
    )
    drivers = [TraceDriver(cfg, mode="SD"), TraceDriver(cfg, mode="SD")]
    try:
        blobs = []
        for driver in drivers:
            driver.run(events)
            part = driver.partitions[0]
            blobs.append(BaselineSerializer(driver.rt).serialize(driver.rt.read_root(part.slot_id)))
            driver.rt.drop_root(part.slot_id)  # evicted: the original graph dies
        assert blobs[0] == blobs[1]
        blob = blobs[0]
        fast, slow = drivers[0].rt, drivers[1].rt
        for _round in range(3):
            hits = fast.counters["barrier_h1_hits"]
            fast_root, fast_total = BaselineSerializer(fast).deserialize(blob)
            slow_root, slow_total = deserialize_per_field(slow, blob)
            assert (fast_root, fast_total) == (slow_root, slow_total)
            assert fast.counters["barrier_h1_hits"] > hits
            assert _heap_state(fast) == _heap_state(slow)
            # the rebuilt graph encodes to the same blob
            assert BaselineSerializer(fast).serialize(fast_root) == blob
    finally:
        for driver in drivers:
            driver.close()


def build_per_field(driver, pid, family, count, fanout, tfrac, seed):
    """`build_partition` wired field by field through the mutator API: each
    object parked in a root slot and its scalars written (`write_scalar`)
    as it is allocated, then every reference stored with `write_ref`.
    Returns the partition's root slot and footprint."""
    rt = driver.rt
    variants = driver._variants(family, fanout, tfrac)
    rng = Random(derive_seed("build", pid, seed))
    roster = RootedHandles(rt)
    descs = []
    footprint = 0
    for i in range(count):
        desc = variants[rng.randrange(len(variants))]
        handle = rt.allocate(desc)
        roster.append(handle)
        descs.append(desc)
        footprint += desc.instance_size
        for k, si in enumerate(desc.scalar_indexes):
            rt.write_scalar(handle, si, seed_of(f"tag:{pid}:{i}:{k}"))
    for i, desc in enumerate(descs):
        obj = roster.get(i)
        for j, fi in enumerate(desc.ref_indexes):
            target_index = i + 1 if j == 0 and i + 1 < count else rng.randrange(count)
            rt.write_ref(obj, fi, roster.get(target_index))
    slot = rt.add_root(roster.get(0))
    roster.release()
    return slot, footprint


@pytest.mark.parametrize("tenuring", [1, 2])
def test_build_matches_per_field_wiring_when_allocation_collects(tenuring):
    # A 2 KiB eden: the build's allocations run minors that promote the
    # objects built so far, and with a tenuring threshold of 2 overflow the
    # 256-byte survivor half.  Partition 0 is garbage in a 12 KiB old
    # generation, so the promotions escalate to majors that reclaim it.
    cfg = make_config(young=2560, old=12 * KIB, tenuring=tenuring)
    events = parse_trace(
        "define_class id=1 scalars=2\n"
        "build_partition part=0 family=1 count=150 fanout=2 tfrac=0.25 seed=5\n"
        "persist part=0\n"
        "unpersist part=0\n"
    )
    build = parse_trace("build_partition part=1 family=1 count=150 fanout=2 tfrac=0.25 seed=6\n")
    collections = [[], []]
    drivers = [
        TraceDriver(cfg, mode="TC", observer=lambda _d, kind, stats, seen=seen: seen.append((kind, stats)))
        for seen in collections
    ]
    try:
        for driver, seen in zip(drivers, collections):
            driver.run(events)
            seen.clear()
        fast, slow = drivers
        fast.run(build)
        args = dict(build[0].args)
        slot, footprint = build_per_field(slow, args.pop("part"), **args)
        part = fast.partitions[1]
        assert (fast.rt.read_root(part.slot_id), part.footprint) == (slow.rt.read_root(slot), footprint)
        assert fast.rt.root_values() == slow.rt.root_values()
        assert _heap_state(fast.rt) == _heap_state(slow.rt)
        assert fast.rt.counters["barrier_h1_hits"] > 0
        # the build ran the collections the comment above describes
        minors = [stats for kind, stats in collections[0] if kind == "minor"]
        assert [kind for kind, _ in collections[0]] == [kind for kind, _ in collections[1]]
        assert any(stats.objects_promoted for stats in minors)
        assert any(kind == "major" for kind, _ in collections[0])
        if tenuring == 2:
            # more promoted than the survivor half could have aged: overflow
            surv_objects = fast.rt.h1.surv_size // (part.footprint // 150)
            assert any(stats.objects_promoted > surv_objects for stats in minors)
    finally:
        for driver in drivers:
            driver.close()


def test_failed_build_leaves_only_partition_roots():
    # Two live partitions of 150 objects (48 bytes each) fill most of a
    # 16 KiB old generation, so the third build runs out of heap part-way.
    cfg = make_config(young=2560, old=16 * KIB)
    lines = BASE + [
        f"build_partition part={p} family=1 count=150 fanout=2 tfrac=0.0 seed={p}" for p in range(3)
    ]
    with TraceDriver(cfg, mode="TC") as driver:
        with pytest.raises(HeapExhaustedError):
            driver.run(parse_trace("\n".join(lines) + "\n"))
        rt = driver.rt
        assert sorted(driver.partitions) == [0, 1]
        assert rt.root_values() == [rt.read_root(p.slot_id) for p in driver.partitions.values()]


# -- trace generation ---------------------------------------------------------------


def test_generate_trace_deterministic_bytes():
    a = generate_trace("pagerank_like", 4, seed=21)
    b = generate_trace("pagerank_like", 4, seed=21)
    assert a == b
    assert a != generate_trace("pagerank_like", 4, seed=22)


def test_pagerank_schedule_has_reaccess_gap_spanning_major():
    text = generate_trace("pagerank_like", 4, seed=21)
    events = parse_trace(text)
    accesses: dict[int, list[int]] = {}
    majors: list[int] = []
    for i, evt in enumerate(events):
        if evt.op == "access":
            accesses.setdefault(evt.args["part"], []).append(i)
        elif evt.op == "gc_hint" and evt.args["kind"] == "major":
            majors.append(i)
    assert accesses
    for part, indexes in accesses.items():
        assert len(indexes) >= 2, f"partition {part} accessed once"
        gaps = [
            any(a < m < b for m in majors)
            for a, b in zip(indexes, indexes[1:])
        ]
        assert any(gaps), f"partition {part} never re-accessed across a major"


def test_uniform_profile_access_counts_equal():
    text = generate_trace("uniform", 3, seed=4)
    counts: dict[int, int] = {}
    for evt in parse_trace(text):
        if evt.op == "access":
            counts[evt.args["part"]] = counts.get(evt.args["part"], 0) + 1
    values = set(counts.values())
    assert len(values) == 1 or max(values) - min(values) <= 1


# -- trace parsing ------------------------------------------------------------------


def test_parse_rejects_unknown_op():
    with pytest.raises(TraceError, match="event 1"):
        parse_trace("warp part=0\n")


def test_parse_rejects_missing_keys():
    with pytest.raises(TraceError, match="missing"):
        parse_trace("build_partition part=0\n")


@pytest.mark.parametrize(
    "line, key",
    [
        ("access part=0 part=1 kind=scan", "part"),
        ("mutate part=0 count=1 seed=2 count=1", "count"),
        ("gc_hint kind=minor kind=major", "kind"),
    ],
)
def test_parse_rejects_a_key_given_twice(line, key):
    # Before, the last value won: the first line read partition 1.
    with pytest.raises(TraceError, match=f"event 2: key '{key}' given twice"):
        parse_trace(f"define_class id=1 scalars=2\n{line}\n")


def test_parse_skips_comments_and_blanks():
    events = parse_trace("\n# hello\ndefine_class id=1 scalars=2  # tail\n")
    assert len(events) == 1
    assert events[0].op == "define_class"
