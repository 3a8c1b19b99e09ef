"""Minor collection: copying, promotion, card-table roots, backward roots."""

from collections import Counter
from random import Random

import pytest

from dualheap import HeapExhaustedError, Runtime, SpaceKind

from conftest import KIB, build_chain, make_config, register_node_class
from heap_oracle import graph_snapshot, physical_h1_addrs, reachable_addrs


def test_first_allocation_at_eden_base(rt):
    desc = register_node_class(rt)
    h = rt.allocate(desc)
    assert h == rt.h1.eden_base
    assert rt.classify_handle(h) is SpaceKind.H1_YOUNG


def test_allocation_when_eden_full_runs_one_minor():
    cfg = make_config(young=80 * KIB, old=256 * KIB)
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=0, scalars=2)
        per = desc.instance_size
        n_fit = rt.h1.eden_size // per
        for _ in range(n_fit):
            rt.allocate(desc)  # all garbage, no roots
        assert rt.counters["minor_count"] == 0
        assert rt.h1.eden_free() < per
        h = rt.allocate(desc)
        assert rt.counters["minor_count"] == 1
        assert rt.classify_handle(h) is SpaceKind.H1_YOUNG


def test_live_data_larger_than_h1_exhausts():
    cfg = make_config(young=80 * KIB, old=96 * KIB)
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        with pytest.raises(HeapExhaustedError):
            # A rooted chain bigger than young+old can never fit.
            build_chain(rt, desc, (cfg.h1.young_size + cfg.h1.old_size) // desc.instance_size + 10)


def test_single_rooted_object_survives_with_age_one(rt):
    desc = register_node_class(rt)
    h = rt.allocate(desc)
    rt.write_scalar(h, 1, 7777)
    slot = rt.add_root(h)
    stats = rt.minor_collect()
    assert stats.objects_copied == 1
    assert stats.objects_promoted == 0
    moved = rt.read_root(slot)
    assert moved != h
    assert rt.classify_handle(moved) is SpaceKind.H1_YOUNG
    assert (rt.load_word(moved) >> 1) & 0xFF == 1  # age
    assert rt.read_scalar(moved, 1) == 7777
    assert rt.h1.eden_top == rt.h1.eden_base


def test_unreferenced_object_is_dropped(rt):
    desc = register_node_class(rt)
    keep = rt.allocate(desc)
    rt.write_scalar(keep, 1, 1)
    slot = rt.add_root(keep)
    dead = rt.allocate(desc)
    rt.write_scalar(dead, 1, 2)
    rt.minor_collect()
    live = physical_h1_addrs(rt)
    assert len(live) == 1
    assert rt.read_scalar(rt.read_root(slot), 1) == 1
    del dead, slot


def test_object_ages_then_promotes(rt):
    desc = register_node_class(rt)
    slot = rt.add_root(rt.allocate(desc))
    rt.minor_collect()
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H1_YOUNG
    rt.minor_collect()  # age reaches the tenuring threshold (2)
    assert rt.classify_handle(rt.read_root(slot)) is SpaceKind.H1_OLD


def test_young_object_survives_via_h2_backward_reference(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    root_slot = build_chain(rt, desc, 1)
    rt.persist(rt.read_root(root_slot), 1)
    rt.major_collect()
    holder = rt.read_root(root_slot)
    assert rt.classify_handle(holder) is SpaceKind.H2

    # The young object's only reference comes from an H2 object field.
    young = rt.allocate(desc)
    rt.write_scalar(young, 1, 4242)
    rt.write_ref(holder, 0, young)
    stats = rt.minor_collect()
    assert stats.backward_refs >= 1
    target = rt.read_ref(holder, 0)
    assert rt.classify_handle(target) in (SpaceKind.H1_YOUNG, SpaceKind.H1_OLD)
    assert rt.read_scalar(target, 1) == 4242
    # Full-graph oracle agrees the object is reachable.
    assert target in reachable_addrs(rt)


def test_promoted_object_keeps_young_child_via_card(rt):
    # Parent promotes to old while its child stays young; the promotion
    # must leave a dirty card so the next minor still finds the child.
    desc = register_node_class(rt, refs=1, scalars=1)
    parent = rt.allocate(desc)
    slot = rt.add_root(parent)
    rt.minor_collect()
    rt.minor_collect()  # parent now old
    parent = rt.read_root(slot)
    assert rt.classify_handle(parent) is SpaceKind.H1_OLD
    child = rt.allocate(desc)
    rt.write_scalar(child, 1, 31337)
    rt.write_ref(parent, 0, child)
    rt.minor_collect()
    child2 = rt.read_ref(rt.read_root(slot), 0)
    assert rt.read_scalar(child2, 1) == 31337


def test_minor_preserves_graph_shape(rt):
    desc = register_node_class(rt, refs=2, scalars=1)
    slot = build_chain(rt, desc, 20)
    root = rt.read_root(slot)
    # add some cross edges
    handles = list(reachable_addrs(rt, roots=[root]))
    handles.sort()
    for i, h in enumerate(handles):
        rt.write_ref(h, 1, handles[(i * 7) % len(handles)])
    before = graph_snapshot(rt)
    rt.minor_collect()
    assert graph_snapshot(rt) == before
    rt.minor_collect()
    assert graph_snapshot(rt) == before


# -- old-to-young card table ---------------------------------------------------


def test_dirty_card_zero(rt):
    rt.h1.cards.dirty(rt.h1.old_base)
    assert rt.h1.cards.cards[0] == 1


def test_dirty_card_one_segment_over(rt):
    rt.h1.cards.dirty(rt.h1.old_base + rt.config.h1.card_segment)
    assert rt.h1.cards.cards[0] == 0
    assert rt.h1.cards.cards[1] == 1


def test_dirty_card_idempotent(rt):
    addr = rt.h1.old_base + 100
    rt.h1.cards.dirty(addr)
    rt.h1.cards.dirty(addr)
    assert sum(rt.h1.cards.cards) == 1


def test_minor_reports_phase_seconds(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 20)
    stats = rt.minor_collect()
    phases = stats.phase_seconds
    assert list(phases) == ["h2_scan", "h1_cards", "trace", "plan", "copy", "fixup"]
    assert all(t >= 0 for t in phases.values())
    assert sum(phases.values()) <= stats.seconds
    del slot


# -- zeroed free space ------------------------------------------------------------


def assert_free_h1_reads_zero(rt):
    h1 = rt.h1
    for lo, hi in (
        (h1.eden_top, h1.eden_base + h1.eden_size),
        (h1.surv_top[0], h1.surv_base[0] + h1.surv_size),
        (h1.surv_top[1], h1.surv_base[1] + h1.surv_size),
        (h1.old_top, h1.old_end),
    ):
        assert not any(h1.load_words(lo, hi)), f"non-zero word in free H1 [{lo:#x}, {hi:#x})"


def test_free_h1_space_reads_zero_after_every_collection():
    # `allocate` stores only the class word, so a fresh object's cache word
    # and fields are zero only because every collection zeroes what it frees.
    with Runtime(make_config(young=20480, old=32 * KIB, tenuring=2)) as rt:
        desc = register_node_class(rt, refs=2, scalars=2)
        seen = Counter()

        def listener(kind, stats):
            assert_free_h1_reads_zero(rt)
            if kind == "minor":
                seen["flip"] += stats.objects_copied > 0
                seen["promote"] += stats.objects_promoted > 0
            else:
                seen["slide_down"] += stats.old_bytes_after < stats.old_bytes_before

        rt.collection_listener = listener
        minor_collect = rt.minor_collect

        def counting_minor_collect():
            stats = minor_collect()
            seen["escalated"] += stats.escalated_to_major
            return stats

        rt.minor_collect = counting_minor_collect
        rng = Random(4242)
        slots = []
        for _ in range(600):
            op = rng.randrange(6)
            try:
                if op < 3:
                    objs = rt.allocate_many([desc] * rng.choice([1, 4, 16, 64]))
                    for a, b in zip(objs, objs[1:]):
                        rt.write_ref(a, 0, b)
                        rt.write_scalar(a, 2, rng.getrandbits(64) | 1)
                        rt.write_scalar(a, 3, rng.getrandbits(64) | 1)
                    slots.append(rt.add_root(objs[0]))
                elif op == 3 and slots:
                    rt.drop_root(slots.pop(rng.randrange(len(slots))))
                elif op == 4:
                    rt.minor_collect()
                else:
                    rt.major_collect()
            except HeapExhaustedError:
                for slot in slots[: len(slots) // 2]:
                    rt.drop_root(slot)
                del slots[: len(slots) // 2]
            assert_free_h1_reads_zero(rt)
        assert min(seen[k] for k in ("flip", "promote", "escalated", "slide_down")) >= 3, seen
