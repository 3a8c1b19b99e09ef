"""The first-object tables of both heaps, and header parsing in both heaps.

Entry `c` of a heap's `first_obj` must be the object covering the first
byte of card `c`, as a span walk finds it, and 0 where no object does.
The H1 table covers the old generation: promotion enters objects and
major compaction rebuilds the entries of the objects that moved.  The old
card scan walks from these entries and must find exactly the slots a
brute-force walk over every old object finds.
"""

from __future__ import annotations

from bisect import bisect_right

import pytest

from dualheap import HeapCorruptionError, Runtime
from dualheap.workload import TraceDriver, generate_trace, parse_trace

from conftest import KIB, MIB, make_config, register_node_class
from shadow_runner import ShadowScenario


def expected_first_obj(table, starts: list[int], end: int) -> list[int]:
    """Per card of `table`, the object of the gap-free run `starts`
    (ending at `end`) that covers the card's first byte, else 0."""
    out = []
    for idx in range(table.n_cards):
        card_start, _ = table.segment_bounds(idx)
        i = bisect_right(starts, card_start) - 1
        out.append(starts[i] if i >= 0 and card_start < end else 0)
    return out


def assert_first_obj_tables(rt) -> None:
    h1, h2 = rt.h1, rt.h2
    old = list(h1.iter_old_objects())
    assert h1.first_obj == expected_first_obj(h1.cards, old, h1.old_top)

    want = [0] * h2.cards.n_cards
    for region in h2.allocated_regions():
        start, end = h2.region_start(region), h2.region_alloc_end(region)
        region_want = expected_first_obj(h2.cards, list(h2.iter_span(start, end)), end)
        lo = h2.cards.index_of(start)
        hi = lo + h2.cards_per_region
        want[lo:hi] = region_want[lo:hi]
    assert h2.first_obj == want


def brute_force_old_card_slots(rt):
    """`Collector._collect_old_card_slots` by walking every old object."""
    h1 = rt.h1
    dirty = [i for i in range(h1.cards.n_cards) if h1.cards.is_dirty(i)]
    slots = []
    for idx in dirty:
        seg_start, seg_end = h1.cards.segment_bounds(idx)
        seg_end = min(seg_end, h1.old_top)
        for obj in h1.iter_old_objects():
            if obj < seg_end and obj + h1.object_size(obj) > seg_start:
                desc = rt.descriptor_of(obj)
                for offset in (desc.fields[fi].offset for fi in desc.ref_indexes):
                    value = h1.load_word(obj + offset)
                    if value and rt.layout.is_young(value):
                        slots.append((obj + offset, obj))
    return slots, dirty, len(dirty)


def check_every_collection(rt) -> None:
    """Check the old card scan before every minor and both tables after
    every collection."""
    collector = rt.collector
    minor, major = collector.minor, collector.major

    def checked_minor():
        assert collector._collect_old_card_slots() == brute_force_old_card_slots(rt)
        stats = minor()
        assert_first_obj_tables(rt)
        return stats

    def checked_major(*args, **kwargs):
        stats = major(*args, **kwargs)
        assert_first_obj_tables(rt)
        return stats

    collector.minor = checked_minor
    collector.major = checked_major


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_first_obj_tables_hold_in_random_scenarios(seed):
    scenario = ShadowScenario(seed)
    try:
        check_every_collection(scenario.rt)
        scenario.run(25)
        assert scenario.rt.counters["major_count"] > 0
    finally:
        scenario.close()


@pytest.mark.parametrize("profile", ["pagerank_like", "cc_like", "uniform"])
@pytest.mark.parametrize("mode", ["TC", "SD"])
def test_first_obj_tables_hold_across_trace_replays(profile, mode):
    """Small cards and a small young generation: many collections, dirty
    old cards, promotions and slides that move most of the old space."""
    cfg = make_config(
        young=40 * KIB, old=96 * KIB, h1_card=256, h2_size=4 * MIB,
        region=64 * KIB, h2_card=4 * KIB, stripe=16 * KIB, threads=4,
    )
    events = parse_trace(generate_trace(profile, 3, seed=5))
    with TraceDriver(cfg, mode=mode) as driver:
        check_every_collection(driver.rt)
        driver.run(events)
        assert driver.rt.counters["minor_count"] >= 4
        assert driver.rt.counters["h1_cards_scanned"] > 0


def test_compaction_keeps_the_old_index_exact():
    """Objects of three sizes, so a slide changes which object covers each
    card start; then everything moves, then everything dies."""
    with Runtime(make_config(h1_card=256)) as rt:
        descs = [register_node_class(rt, refs=r, scalars=1) for r in (1, 3, 6)]
        slots = [rt.add_root(rt.allocate(descs[i % 3])) for i in range(400)]
        rt.minor_collect()
        rt.minor_collect()  # all 400 promoted
        size = sum(d.instance_size for d in descs)
        assert rt.h1.old_used() == 400 // 3 * size + descs[0].instance_size
        assert_first_obj_tables(rt)
        for survivors in (slots[:100] + slots[201:], slots[201:], []):
            for slot in set(slots) - set(survivors):
                rt.drop_root(slot)
            slots = survivors
            rt.major_collect()
            assert_first_obj_tables(rt)
        assert rt.h1.old_used() == 0
        assert set(rt.h1.first_obj) == {0}


@pytest.mark.parametrize("heap", ["h1", "h2"])
def test_unparseable_header_is_heap_corruption(rt, heap):
    desc = register_node_class(rt)
    slot = rt.add_root(rt.allocate(desc))
    if heap == "h2":
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
    obj = rt.read_root(slot)
    assert rt.layout.is_h2(obj) == (heap == "h2")
    rt.store_word(obj, 0xDEAD << 32)  # a class id nobody registered
    space = getattr(rt, heap)
    with pytest.raises(HeapCorruptionError):
        space.object_size(obj)
    with pytest.raises(HeapCorruptionError):
        list(rt.iter_h1_objects() if heap == "h1" else rt.iter_h2_objects())
