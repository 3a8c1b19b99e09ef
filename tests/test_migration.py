"""Migration: persist marking, closure marking, transfer, bulk unpersist."""

from random import Random

import pytest

from dualheap import PersistHint, Runtime, SpaceKind
from dualheap.migration import etr_mark_closure
from dualheap.objmodel import cache_word_marked, cache_word_partition

from conftest import KIB, MIB, build_chain, make_config, register_node_class
from heap_oracle import (
    brute_force_backward_refs,
    current_backward_stack,
    graph_snapshot,
    marked_h1_objects,
    nontransient_closure,
    reachable_addrs,
)


def scan_all(rt):
    refs = []
    for tid in range(rt.config.h2.scan_threads):
        refs.extend(rt.h2.scan_dirty_cards(tid)[0])
    rt.backward_stack = refs
    return refs


# -- persist -------------------------------------------------------------------


def test_persist_sets_header_mark(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 1)
    h = rt.read_root(slot)
    rt.persist(h, 3)
    word = rt.cache_word_of(h)
    assert cache_word_marked(word)
    assert cache_word_partition(word) == 3


def test_persist_idempotent(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 1)
    h = rt.read_root(slot)
    rt.persist(h, 3)
    word = rt.cache_word_of(h)
    rt.persist(h, 3)
    assert rt.cache_word_of(h) == word
    assert rt.hints.roots().count(h) == 1


def test_persist_second_partition_last_writer_wins(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 1)
    h = rt.read_root(slot)
    rt.persist(h, 3)
    rt.persist(h, 8)
    assert cache_word_partition(rt.cache_word_of(h)) == 8


def test_persist_invalid_handle_rejected(rt):
    from dualheap import InvalidHandleError

    with pytest.raises(InvalidHandleError):
        rt.persist(12, 1)


@pytest.mark.parametrize("pid", [-1, 2**63])
def test_persist_rejects_partition_id_outside_63_bits(rt, pid):
    from dualheap import HeapError

    desc = register_node_class(rt)
    slot = rt.add_root(rt.allocate(desc))
    root = rt.read_root(slot)
    rt.persist(root, 3)
    with pytest.raises(HeapError, match="partition id"):
        rt.persist(root, pid)
    # Nothing changed: the slot keeps its tag, the root its mark and hint.
    assert rt.slots_tagged(3) == [slot]
    assert rt.slots_tagged(pid) == []
    assert cache_word_partition(rt.cache_word_of(root)) == 3
    assert rt.hints.roots() == [root]


def test_persist_defers_movement_to_major(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 5)
    rt.persist(rt.read_root(slot), 1)
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H1_YOUNG
    rt.minor_collect()
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H1_YOUNG
    rt.major_collect()
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H2


# -- closure marking --------------------------------------------------------------


def test_closure_marks_plain_chain(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 3)
    root = rt.read_root(slot)
    count = etr_mark_closure(rt, [PersistHint(root, 4)])
    assert count == 3
    assert set(marked_h1_objects(rt).values()) == {4}
    assert len(marked_h1_objects(rt)) == 3


def test_closure_stops_at_transient_field(rt):
    # root --transient--> t --> x : only the root is marked
    desc = register_node_class(rt, refs=1, scalars=1, transient=(0,))
    plain = register_node_class(rt, refs=1, scalars=1)
    slots = [build_chain(rt, plain, 1) for _ in range(2)]
    root = rt.allocate(desc)
    root_slot = rt.add_root(root)
    t = rt.read_root(slots[0])
    x = rt.read_root(slots[1])
    rt.write_ref(root, 0, t)
    rt.write_ref(t, 0, x)
    count = etr_mark_closure(rt, [PersistHint(rt.read_root(root_slot), 2)])
    assert count == 1
    marked = marked_h1_objects(rt)
    assert list(marked) == [rt.read_root(root_slot)]


def test_closure_diamond_marks_four_once(rt):
    desc = register_node_class(rt, refs=2, scalars=1)
    objs = []
    slots = []
    for _ in range(4):
        h = rt.allocate(desc)
        slots.append(rt.add_root(h))
    root, a, b, c = (rt.read_root(s) for s in slots)
    rt.write_ref(root, 0, a)
    rt.write_ref(root, 1, b)
    rt.write_ref(a, 0, c)
    rt.write_ref(b, 0, c)
    count = etr_mark_closure(rt, [PersistHint(root, 6)])
    assert count == 4
    assert len(marked_h1_objects(rt)) == 4
    del objs


def test_closure_first_hint_wins_on_shared_objects(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    shared_slot = build_chain(rt, desc, 1)
    shared = rt.read_root(shared_slot)
    roots = []
    for pid in (10, 20):
        h = rt.allocate(desc)
        roots.append(rt.add_root(h))
        rt.write_ref(h, 0, rt.read_root(shared_slot))
    hints = [
        PersistHint(rt.read_root(roots[0]), 10),
        PersistHint(rt.read_root(roots[1]), 20),
    ]
    etr_mark_closure(rt, hints)
    marked = marked_h1_objects(rt)
    assert marked[rt.read_root(shared_slot)] == 10
    del shared


def test_closure_agrees_with_serializer_oracle_randomized(rt):
    rng = Random(5150)
    desc = register_node_class(rt, refs=3, scalars=1, transient=(1,))
    for trial in range(20):
        slot = build_chain(rt, desc, 25, tag_base=trial * 100)
        root = rt.read_root(slot)
        objs = sorted(reachable_addrs(rt, roots=[root]))
        for h in objs:
            rt.write_ref(h, 1, objs[rng.randrange(len(objs))])
            rt.write_ref(h, 2, objs[rng.randrange(len(objs))])
        expected = nontransient_closure(rt, rt.read_root(slot))
        count = etr_mark_closure(rt, [PersistHint(rt.read_root(slot), trial)])
        marked = {a for a, p in marked_h1_objects(rt).items() if p == trial}
        assert marked == expected
        assert count == len(expected)
        rt.drop_root(slot)
        for h in expected:
            rt.clear_cache_mark(h)


# -- transfer ---------------------------------------------------------------------


def test_transfer_single_object_counts_and_card(rt):
    desc = register_node_class(rt, refs=1, scalars=5)  # 64-byte instance
    assert desc.instance_size == 64
    slot = build_chain(rt, desc, 1)
    rt.persist(rt.read_root(slot), 1)
    stats = rt.major_collect()
    assert stats.objects_moved_to_h2 == 1
    assert stats.bytes_moved_to_h2 == 64
    h = rt.read_root(slot)
    assert rt.h2.cards.is_dirty(rt.h2.cards.index_of(h))


def test_transferred_transient_field_becomes_backward_ref(rt):
    desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
    slot = build_chain(rt, desc, 2)
    root = rt.read_root(slot)
    keeper_slot = build_chain(rt, desc, 1, tag_base=9000)
    rt.write_ref(root, 1, rt.read_root(keeper_slot))  # transient edge
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    refs = scan_all(rt)
    migrated_root = rt.read_root(slot)
    expected_slot = migrated_root + rt.descriptor_of(migrated_root).fields[1].offset
    targets = dict(current_backward_stack(rt))
    assert expected_slot in targets
    assert targets[expected_slot] == rt.read_root(keeper_slot)
    assert current_backward_stack(rt) == brute_force_backward_refs(rt)
    del refs


def test_partition_spanning_regions_groups_on_cross_reference():
    cfg = make_config(h2_size=2 * MIB, region=64 * KIB, stripe=32 * KIB, h2_card=8 * KIB)
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=1, scalars=5)  # 64 bytes
        count = (64 * KIB // 64) + 40  # spills into a second region
        slot = build_chain(rt, desc, count)
        rt.persist(rt.read_root(slot), 1)
        stats = rt.major_collect()
        assert stats.objects_moved_to_h2 == count
        regions = {rt.h2.region_of(a) for a in rt.iter_h2_objects()}
        assert len(regions) >= 2
        assert all(rt.h2.partition_ids[r] == 1 for r in regions)
        # The spine crosses the region gap, so the regions share a group.
        roots = {rt.h2.group_root(r) for r in regions}
        assert len(roots) == 1


def test_post_transfer_graph_isomorphic(rt):
    desc = register_node_class(rt, refs=2, scalars=2, transient=(1,))
    slot = build_chain(rt, desc, 30)
    root = rt.read_root(slot)
    objs = sorted(reachable_addrs(rt, roots=[root]))
    rng = Random(7)
    for h in objs:
        rt.write_ref(h, 1, objs[rng.randrange(len(objs))])
    before = graph_snapshot(rt)
    rt.persist(rt.read_root(slot), 2)
    rt.major_collect()
    assert graph_snapshot(rt) == before


def test_unmutated_partition_scans_clean(rt):
    # Immutable cached data: after one scan pass, later scans visit only
    # boundary cards.
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 50)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    scan_all(rt)  # consumes migration-dirty cards (no backward refs)
    refs, cards = [], 0
    for tid in range(rt.config.h2.scan_threads):
        r, n = rt.h2.scan_dirty_cards(tid)
        refs.extend(r)
        cards += n
    assert refs == []
    for idx in range(rt.h2.cards.n_cards):
        if rt.h2.cards.is_dirty(idx):
            assert rt.h2.cards.is_boundary(idx)


# -- write strategies ----------------------------------------------------------


def test_strategy_equivalence_end_to_end():
    images = {}
    flushes = {}
    moved_objects = {}
    moved_bytes = {}
    for strategy in ("direct_copy", "batched_async"):
        cfg = make_config(strategy=strategy, batch_buffer=4 * KIB)
        with Runtime(cfg) as rt:
            desc = register_node_class(rt, refs=2, scalars=2, transient=(1,))
            for pid in range(3):
                slot = build_chain(rt, desc, 40, tag_base=pid * 1000)
                rt.persist(rt.read_root(slot), pid)
            stats = rt.major_collect()
            h2 = rt.h2
            spans = [
                h2.load_words(h2.region_start(r), h2.region_start(r) + h2.alloc_offsets[r])
                for r in h2.allocated_regions()
            ]
            images[strategy] = spans
            flushes[strategy] = stats.h2_flush_ops
            moved_objects[strategy] = stats.objects_moved_to_h2
            moved_bytes[strategy] = stats.bytes_moved_to_h2
    assert images["direct_copy"] == images["batched_async"]
    assert moved_objects["direct_copy"] == moved_objects["batched_async"] == 120
    assert flushes["direct_copy"] == moved_objects["direct_copy"]
    assert flushes["batched_async"] == -(-moved_bytes["batched_async"] // (4 * KIB))  # ceil
    assert flushes["batched_async"] > 1  # the images straddle several buffers


# -- unpersist ---------------------------------------------------------------------


def test_unpersist_then_major_frees_partition_regions(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 20)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    used_regions = {rt.h2.region_of(a) for a in rt.iter_h2_objects()}
    rt.unpersist(1)
    stats = rt.major_collect()
    assert set(stats.regions_freed) == used_regions
    assert list(rt.iter_h2_objects()) == []


def test_unpersist_survives_external_reference(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 5)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    # an independent H1 object still points at one cached object
    holder = rt.allocate(desc)
    holder_slot = rt.add_root(holder)
    rt.write_ref(holder, 0, rt.read_root(slot))
    rt.unpersist(1)
    stats = rt.major_collect()
    assert stats.regions_freed == []
    assert list(rt.iter_h2_objects()) != []
    del holder_slot


def test_unpersist_unknown_partition_noop(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 2)
    before = graph_snapshot(rt)
    rt.unpersist(424242)
    assert graph_snapshot(rt) == before
    del slot


def test_unpersist_before_major_revokes_marking(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 3)
    root = rt.read_root(slot)
    rt.persist(root, 1)
    rt.unpersist(1)
    stats = rt.major_collect()
    assert stats.objects_moved_to_h2 == 0
    assert list(rt.iter_h2_objects()) == []
