"""Major collection: mark, compaction, H2 transfer and the adjust phase."""

import pytest

from dualheap import HeapExhaustedError, RegionExhaustedError, Runtime, SpaceKind
from dualheap.workload import TraceDriver, generate_trace, parse_trace

from conftest import KIB, build_chain, make_config, register_node_class
from heap_oracle import (
    graph_snapshot,
    nontransient_closure,
    physical_h1_addrs,
    reachable_addrs,
)


def test_unreachable_old_objects_leave_zero_occupancy(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 30)
    rt.minor_collect()
    rt.minor_collect()  # chain now old
    assert rt.h1.old_used() > 0
    rt.drop_root(slot)
    rt.major_collect()
    assert rt.h1.old_used() == 0
    assert physical_h1_addrs(rt) == set()


def test_persisted_closure_moves_entirely_to_h2(rt):
    desc = register_node_class(rt, refs=2, scalars=1)
    slot = build_chain(rt, desc, 25)
    root = rt.read_root(slot)
    expected = len(nontransient_closure(rt, root))  # independent count
    rt.persist(root, 5)
    stats = rt.major_collect()
    assert stats.objects_moved_to_h2 == expected
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H2
    for addr in reachable_addrs(rt):
        assert rt.classify_handle(addr) is SpaceKind.H2


def test_adjust_rewrites_h2_slot_after_old_compaction(rt):
    # Three objects: cached holder (H2 after migration), an H1 old target,
    # and H1 old garbage below it so compaction slides the target down.
    desc = register_node_class(rt, refs=1, scalars=1)
    holder_slot = build_chain(rt, desc, 1)
    garbage_slot = build_chain(rt, desc, 4)
    target_slot = build_chain(rt, desc, 1)
    rt.write_scalar(rt.read_root(target_slot), 1, 990011)
    rt.persist(rt.read_root(holder_slot), 1)
    rt.major_collect()
    holder = rt.read_root(holder_slot)
    assert rt.classify_handle(holder) is SpaceKind.H2

    rt.minor_collect()
    rt.minor_collect()  # target promotes to old
    target_old = rt.read_root(target_slot)
    assert rt.classify_handle(target_old) is SpaceKind.H1_OLD
    rt.write_ref(holder, 0, target_old)  # backward reference

    rt.drop_root(garbage_slot)
    rt.drop_root(target_slot)  # target stays live only through the H2 slot
    rt.major_collect()
    adjusted = rt.read_ref(holder, 0)
    assert adjusted is not None
    assert adjusted != target_old  # garbage below it vacated, so it slid
    assert rt.classify_handle(adjusted) is SpaceKind.H1_OLD
    assert rt.read_scalar(adjusted, 1) == 990011


def test_major_preserves_graph_shape_across_migration(rt):
    desc = register_node_class(rt, refs=2, scalars=2, transient=(1,))
    slot = build_chain(rt, desc, 40)
    root = rt.read_root(slot)
    handles = sorted(reachable_addrs(rt, roots=[root]))
    for i, h in enumerate(handles):
        rt.write_ref(h, 1, handles[(i * 3 + 1) % len(handles)])
        rt.write_scalar(h, 3, i * 17)
    before = graph_snapshot(rt)
    rt.persist(rt.read_root(slot), 9)
    rt.major_collect()
    assert graph_snapshot(rt) == before
    rt.major_collect()
    assert graph_snapshot(rt) == before


def test_promotion_overflow_escalates_then_exhausts():
    cfg = make_config(young=80 * KIB, old=96 * KIB, tenuring=1)
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        # Live data fits H1 but exceeds old: survives minors only while the
        # survivor space holds it, then promotion overflows and the forced
        # major absorbs it; growing further exhausts the heap.
        import pytest as _pytest

        from dualheap import HeapExhaustedError

        with _pytest.raises(HeapExhaustedError):
            build_chain(rt, desc, 6000)


def test_exhausted_major_leaves_h2_untouched():
    """A major whose H1 slide does not fit fails before it allocates in H2,
    so H2 stays parseable and a later major migrates the cache in full."""
    with Runtime(make_config(young=80 * KIB, old=96 * KIB)) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        cache = build_chain(rt, desc, 300)
        rt.persist(rt.read_root(cache), 1)
        filler = []
        with pytest.raises(HeapExhaustedError):
            while True:
                filler.append(rt.add_root(rt.allocate(desc)))
        assert rt.h2.allocated_regions() == []
        assert list(rt.iter_h2_objects()) == []

        for slot in filler[:2000]:
            rt.drop_root(slot)
        stats = rt.major_collect()
        assert stats.objects_moved_to_h2 == 300
        tags = []
        node = rt.read_root(cache)
        while node:
            assert rt.classify_handle(node) is SpaceKind.H2
            tags.append(rt.read_scalar(node, 1))
            node = rt.read_ref(node, 0)
        assert tags == list(range(1000, 1300))
        assert len(list(rt.iter_h2_objects())) == 300


def test_h2_overflow_in_major_leaves_h2_as_it_was():
    """A major whose marked objects do not fit the free H2 regions fails
    before it allocates any: regions, offsets and the first-object table
    are as they were before the collection, and H2 still walks."""
    events = parse_trace(generate_trace("cc_like", 6, seed=3))
    with TraceDriver(make_config(), mode="TC") as driver:
        h2 = driver.rt.h2
        before = []
        major = driver.rt.collector.major

        def snapshot_then_major(*args, **kwargs):
            before[:] = [
                list(h2.alloc_offsets),
                list(h2.partition_ids),
                list(h2.first_obj),
                list(h2._free),
                dict(h2._open_region),
            ]
            return major(*args, **kwargs)

        driver.rt.collector.major = snapshot_then_major
        with pytest.raises(RegionExhaustedError):
            driver.run(events)
        assert before
        assert [
            h2.alloc_offsets,
            h2.partition_ids,
            h2.first_obj,
            h2._free,
            h2._open_region,
        ] == before
        walked = list(driver.rt.iter_h2_objects())
        assert sum(h2.object_size(a) for a in walked) == sum(h2.alloc_offsets)


def test_major_runs_embedded_minor_first(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 3)
    before = rt.counters["minor_count"]
    rt.major_collect()
    assert rt.counters["minor_count"] == before + 1
    # Young generation fully absorbed: everything live is old now.
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H1_OLD
    for addr in rt.iter_h1_objects():
        assert rt.classify_handle(addr) is SpaceKind.H1_OLD


def test_h1_cards_clear_after_major(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 2)
    rt.minor_collect()
    rt.minor_collect()
    parent = rt.read_root(slot)
    child = rt.allocate(desc)
    rt.write_ref(parent, 0, child)  # old -> young dirties a card
    assert sum(rt.h1.cards.cards) > 0
    rt.major_collect()
    assert sum(rt.h1.cards.cards) == 0


def test_escalated_minor_scans_h2_cards_once():
    """The overflowing minor's H2 scan leaves the backward stack current, so
    the major it escalates to does not scan again."""
    cfg = make_config(young=80 * KIB, old=96 * KIB, tenuring=1)
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        garbage = build_chain(rt, desc, 2000)
        rt.minor_collect()  # tenuring 1: the whole chain is promoted
        rt.drop_root(garbage)
        slot = build_chain(rt, desc, 1200)  # too much to promote next to it
        before = graph_snapshot(rt)
        threads = []
        scan = rt.h2.scan_dirty_cards
        rt.h2.scan_dirty_cards = lambda tid: threads.append(tid) or scan(tid)
        stats = rt.minor_collect()
        assert stats.escalated_to_major
        assert rt.counters["major_count"] == 1
        assert threads == list(range(cfg.h2.scan_threads))
        assert graph_snapshot(rt) == before
        del slot


def test_major_reads_each_live_h1_object_once(rt):
    """Mark reads each live H1 object's image once.  Precompact and compact
    work from those images: no H1 object is read again or rewritten field
    by field, the slide is stored as one run, each object moved to H2 is
    stored with one call, and none is read back."""
    desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
    cached = build_chain(rt, desc, 12)
    rt.persist(rt.read_root(cached), 1)
    rt.major_collect()  # the first cache lands in H2
    garbage = build_chain(rt, desc, 10)
    old = build_chain(rt, desc, 30, tag_base=2000)
    rt.write_ref(rt.read_root(cached), 1, rt.read_root(old))  # a backward reference
    rt.minor_collect()
    rt.minor_collect()  # both chains are old; the backward stack is current
    rt.drop_root(garbage)  # the old chain slides down
    staged = build_chain(rt, desc, 15, tag_base=3000)  # young, migrates below
    rt.persist(rt.read_root(staged), 2)
    young = build_chain(rt, desc, 8, tag_base=4000)
    rt.write_ref(rt.read_root(old), 1, rt.read_root(young))  # old -> young
    live_h1 = {a for a in reachable_addrs(rt) if rt.layout.is_h1(a)}
    before = graph_snapshot(rt)

    calls = {}

    def count(owner, name):
        calls[(owner, name)] = 0
        fn = getattr(owner, name)

        def counted(*args):
            calls[(owner, name)] += 1
            return fn(*args)

        setattr(owner, name, counted)

    h1, h2 = rt.h1, rt.h2
    for name in ("object_words", "object_size", "store_word", "store_words"):
        count(h1, name)
    for name in ("object_words", "store_words"):
        count(h2, name)
    stats = rt.collector.major(skip_minor=True)

    assert stats.live_objects == len(live_h1) == 53
    assert stats.objects_moved_to_h2 == 15
    assert calls[(h1, "object_words")] == stats.live_objects
    assert calls[(h1, "object_size")] == 0
    assert calls[(h1, "store_word")] == 0
    assert calls[(h1, "store_words")] == 1  # the slide, as one run
    assert calls[(h2, "object_words")] == 0
    assert calls[(h2, "store_words")] == stats.objects_moved_to_h2  # one per image
    for name in ("object_words", "object_size", "store_word", "store_words"):
        delattr(h1, name)
    for name in ("object_words", "store_words"):
        delattr(h2, name)
    assert graph_snapshot(rt) == before


def test_unmoved_object_with_forwarded_reference_is_stored(rt):
    """An object in the slide's unmoved prefix whose own references were
    forwarded is stored: one target was absorbed from the young generation
    and the other moved to H2, while the object kept its place."""
    desc = register_node_class(rt, refs=2, scalars=1)
    holder_slot = build_chain(rt, desc, 1)
    rt.minor_collect()
    rt.minor_collect()
    holder = rt.read_root(holder_slot)
    assert holder == rt.h1.old_base  # nothing below it can die
    young_slot = build_chain(rt, desc, 3, tag_base=500)
    cached_slot = build_chain(rt, desc, 4, tag_base=700)
    rt.write_ref(holder, 0, rt.read_root(young_slot))
    rt.write_ref(holder, 1, rt.read_root(cached_slot))
    rt.persist(rt.read_root(cached_slot), 4)
    rt.drop_root(young_slot)
    rt.drop_root(cached_slot)
    before = graph_snapshot(rt)

    stats = rt.major_collect()

    assert stats.objects_moved_to_h2 == 4
    assert rt.read_root(holder_slot) == holder
    absorbed = rt.read_ref(holder, 0)
    assert rt.classify_handle(absorbed) is SpaceKind.H1_OLD
    assert rt.read_scalar(absorbed, 2) == 500
    moved = rt.read_ref(holder, 1)
    assert rt.classify_handle(moved) is SpaceKind.H2
    assert rt.read_scalar(moved, 2) == 700
    assert graph_snapshot(rt) == before
