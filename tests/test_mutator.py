"""Mutator facade: field access, the dual-range write barrier, root slots."""

from random import Random

import pytest

from dualheap import (
    HeapCorruptionError,
    HeapExhaustedError,
    InvalidFieldError,
    InvalidHandleError,
    InvalidSlotError,
    Runtime,
    SpaceKind,
)
from dualheap.objmodel import class_age_word

from conftest import build_chain, make_config, register_node_class
from heap_oracle import reachable_addrs


def _old_object(rt, desc):
    slot = rt.add_root(rt.allocate(desc))
    rt.minor_collect()
    rt.minor_collect()
    handle = rt.read_root(slot)
    assert rt.classify_handle(handle) is SpaceKind.H1_OLD
    return slot, handle


def _h2_object(rt, desc, pid=1):
    slot = build_chain(rt, desc, 1)
    rt.persist(rt.read_root(slot), pid)
    rt.major_collect()
    handle = rt.read_root(slot)
    assert rt.classify_handle(handle) is SpaceKind.H2
    return slot, handle


# -- write_ref barrier ---------------------------------------------------------


def test_old_to_young_write_dirties_h1_card(rt):
    desc = register_node_class(rt)
    _slot, old = _old_object(rt, desc)
    young = rt.allocate(desc)
    assert sum(rt.h1.cards.cards) == 0
    rt.write_ref(old, 0, young)
    assert rt.h1.cards.cards[rt.h1.cards.index_of(old)] == 1
    assert rt.counters["barrier_h1_hits"] == 1


def test_h2_to_h1_write_dirties_h2_card(rt):
    desc = register_node_class(rt)
    _slot, cached = _h2_object(rt, desc)
    scan_all_clean(rt)
    young = rt.allocate(desc)
    rt.write_ref(cached, 0, young)
    assert rt.h2.cards.is_dirty(rt.h2.cards.index_of(cached))


def test_young_to_young_write_leaves_cards_clean(rt):
    desc = register_node_class(rt)
    a = rt.allocate(desc)
    b = rt.allocate(desc)
    rt.write_ref(a, 0, b)
    assert sum(rt.h1.cards.cards) == 0
    assert rt.h2.cards.count_dirty() == 0


def test_write_ref_to_scalar_index_rejected(rt):
    desc = register_node_class(rt)
    a = rt.allocate(desc)
    with pytest.raises(InvalidFieldError):
        rt.write_ref(a, 1, None)


def scan_all_clean(rt):
    """Drain dirty cards caused by migration so barrier tests start clean."""
    for tid in range(rt.config.h2.scan_threads):
        rt.h2.scan_dirty_cards(tid)


# -- write_scalar ----------------------------------------------------------------


def test_h1_scalar_write_no_card(rt):
    desc = register_node_class(rt)
    _slot, old = _old_object(rt, desc)
    rt.write_scalar(old, 1, 5)
    assert sum(rt.h1.cards.cards) == 0


def test_h2_scalar_write_dirties_then_scan_cleans(rt):
    desc = register_node_class(rt)
    _slot, cached = _h2_object(rt, desc)
    scan_all_clean(rt)
    idx = rt.h2.cards.index_of(cached)
    before = rt.h2.cards.is_dirty(idx)
    rt.write_scalar(cached, 1, 77)
    assert rt.read_scalar(cached, 1) == 77  # direct store/load round trip
    assert rt.h2.cards.is_dirty(idx)
    refs = []
    for tid in range(rt.config.h2.scan_threads):
        refs.extend(rt.h2.scan_dirty_cards(tid)[0])
    # A scalar write cannot create a backward reference; if the segment
    # held none and the card is interior, the scan cleaned it.
    assert all(slot_addr != cached + 24 for slot_addr, _ in refs)
    if not rt.h2.cards.is_boundary(idx):
        assert not rt.h2.cards.is_dirty(idx)
    del before


def test_write_to_null_handle_rejected(rt):
    register_node_class(rt)
    with pytest.raises(InvalidHandleError):
        rt.write_scalar(0, 0, 1)
    with pytest.raises(InvalidHandleError):
        rt.write_ref(0, 0, None)


def test_misaligned_handle_rejected(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    h = rt.allocate(desc)
    slot = rt.add_root(h)
    with pytest.raises(InvalidHandleError, match="aligned"):
        rt.read_scalar(h + 4, 1)
    with pytest.raises(InvalidHandleError, match="aligned"):
        rt.write_ref(h + 1, 0, None)
    with pytest.raises(InvalidHandleError, match="aligned"):
        rt.write_ref(h, 0, h + 4)
    with pytest.raises(InvalidHandleError, match="aligned"):
        rt.add_root(h + 2)
    del slot


def test_handle_without_header_rejected(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    h = rt.allocate(desc)
    slot = rt.add_root(h)
    bogus = h + 64  # zeroed eden: class id 0 is never registered
    with pytest.raises(HeapCorruptionError, match=f"{bogus:#x}"):
        rt.descriptor_of(bogus)
    with pytest.raises(InvalidHandleError, match=f"{bogus:#x}"):
        rt.read_scalar(bogus, 1)
    with pytest.raises(InvalidHandleError, match=f"{bogus:#x}"):
        rt.write_ref(bogus, 0, h)
    del slot


# -- reads -----------------------------------------------------------------------


def test_read_after_write_round_trip(rt):
    desc = register_node_class(rt)
    a = rt.allocate(desc)
    b = rt.allocate(desc)
    rt.write_ref(a, 0, b)
    assert rt.read_ref(a, 0) == b
    rt.write_ref(a, 0, None)
    assert rt.read_ref(a, 0) is None


def test_h2_read_equals_pre_migration_value(rt):
    desc = register_node_class(rt, refs=1, scalars=3)
    slot = build_chain(rt, desc, 1)
    h = rt.read_root(slot)
    rt.write_scalar(h, 2, 1111)
    rt.write_scalar(h, 3, 2222)
    before = rt.scalar_values(h)
    rt.persist(h, 1)
    rt.major_collect()
    migrated = rt.read_root(slot)
    assert rt.classify_handle(migrated) is SpaceKind.H2
    assert rt.scalar_values(migrated) == before
    # never-written field reads the same zero it had in H1
    assert rt.read_scalar(migrated, 1) == before[0]


def test_read_scalar_on_ref_field_rejected(rt):
    desc = register_node_class(rt)
    a = rt.allocate(desc)
    with pytest.raises(InvalidFieldError):
        rt.read_scalar(a, 0)
    with pytest.raises(InvalidFieldError):
        rt.read_ref(a, 1)
    with pytest.raises(InvalidFieldError):
        rt.read_ref(a, 9)


# -- roots -----------------------------------------------------------------------


def test_root_follows_object_across_major(rt):
    desc = register_node_class(rt)
    h = rt.allocate(desc)
    rt.write_scalar(h, 1, 123456)
    slot = rt.add_root(h)
    rt.major_collect()
    h2 = rt.read_root(slot)
    assert h2 != h
    assert rt.read_scalar(h2, 1) == 123456


def test_dropping_sole_root_unreaches_graph(rt):
    desc = register_node_class(rt)
    slot = build_chain(rt, desc, 10)
    rt.drop_root(slot)
    rt.major_collect()
    assert reachable_addrs(rt) == set()
    assert list(rt.iter_h1_objects()) == []


def test_double_drop_rejected(rt):
    desc = register_node_class(rt)
    slot = rt.add_root(rt.allocate(desc))
    rt.drop_root(slot)
    with pytest.raises(InvalidSlotError):
        rt.drop_root(slot)
    with pytest.raises(InvalidSlotError):
        rt.read_root(slot)


def test_allocate_many_pins_its_addresses_after_every_slot(rt):
    desc = register_node_class(rt, refs=0, scalars=1)
    keep = [rt.add_root(rt.allocate(desc)) for _ in range(2)]
    assert rt.allocate_many([]) == []
    assert rt.root_values() == [rt.read_root(s) for s in keep]
    allocate = rt.allocate
    first = []

    def tagged_allocate(d):
        # Collections inside the call: a minor before the 4th allocation, a
        # major before the 7th.
        n = len(first)
        if n == 3:
            rt.minor_collect()
        elif n == 6:
            rt.major_collect()
        values = rt.root_values()
        assert values[:2] == [rt.read_root(s) for s in keep]
        assert [rt.read_scalar(a, 0) for a in values[2:]] == list(range(n))
        addr = allocate(d)
        rt.write_scalar(addr, 0, n)
        first.append(addr)
        return addr

    rt.allocate = tagged_allocate
    addrs = rt.allocate_many([desc] * 8)
    del rt.allocate
    assert [rt.read_scalar(a, 0) for a in addrs] == list(range(8))
    assert addrs[0] != first[0] and addrs[3] != first[3]  # moved, and current
    assert addrs[6:] == first[6:]
    assert rt.root_values() == [rt.read_root(s) for s in keep]


def test_allocate_many_unpins_when_allocation_fails(rt):
    desc = register_node_class(rt)
    slot = rt.add_root(rt.allocate(desc))
    allocate = rt.allocate
    calls = []

    def failing_allocate(d):
        calls.append(d)
        if len(calls) == 4:
            raise HeapExhaustedError("full")
        return allocate(d)

    rt.allocate = failing_allocate
    with pytest.raises(HeapExhaustedError):
        rt.allocate_many([desc] * 8)
    del rt.allocate
    assert rt.root_values() == [rt.read_root(slot)]


# -- barrier shape ----------------------------------------------------------------


def test_barrier_work_constant_per_write():
    """The barrier adds a constant number of counter-visible steps per
    write regardless of heap population."""

    def steps_per_write(n_background):
        with Runtime(make_config()) as rt:
            desc = register_node_class(rt)
            build_chain(rt, desc, n_background)
            _s, old = _old_object(rt, desc)
            young = rt.allocate(desc)
            before = rt.counters["mutator_steps"], rt.counters["barrier_h1_hits"]
            for _ in range(50):
                rt.write_ref(old, 0, young)
            after = rt.counters["mutator_steps"], rt.counters["barrier_h1_hits"]
            return after[0] - before[0], after[1] - before[1]

    assert steps_per_write(5) == steps_per_write(500)


def test_barrier_completeness_under_replay(rt):
    """Replaying a random mutation log: every H2 object mutated since the
    last scan has a dirty card."""
    desc = register_node_class(rt, refs=2, scalars=1)
    slot = build_chain(rt, desc, 40)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    scan_all_clean(rt)
    rng = Random(99)
    h2_objs = sorted(a for a in rt.iter_h2_objects())
    mutated = set()
    for _ in range(100):
        obj = h2_objs[rng.randrange(len(h2_objs))]
        if rng.random() < 0.5:
            rt.write_scalar(obj, 2, rng.randrange(1 << 20))
        else:
            rt.write_ref(obj, rng.randrange(2), h2_objs[rng.randrange(len(h2_objs))])
        mutated.add(obj)
    dirty = {i for i in range(rt.h2.cards.n_cards) if rt.h2.cards.is_dirty(i)}
    assert {rt.h2.cards.index_of(o) for o in mutated} <= dirty


# -- fields past the end of a heap -------------------------------------------------


def _header_at_last_word(rt, desc, heap):
    """A parseable header in the last word of the old generation or of H2,
    so every field of the object lies past the end of that heap."""
    layout = rt.layout
    end = layout.old_end if heap == "h1" else layout.h2_end
    obj = end - 8
    getattr(rt, heap).store_word(obj, class_age_word(desc.class_id, 0))
    return obj


@pytest.mark.parametrize("heap", ["h1", "h2"])
def test_field_past_heap_end_is_outside_all_heap_spaces(rt, heap):
    desc = register_node_class(rt, refs=1, scalars=1)
    obj = _header_at_last_word(rt, desc, heap)
    assert rt.descriptor_of(obj) is desc
    ref_at, scalar_at = obj + 16, obj + 24
    for call, addr in [
        (lambda: rt.read_ref(obj, 0), ref_at),
        (lambda: rt.write_ref(obj, 0, None), ref_at),
        (lambda: rt.read_scalar(obj, 1), scalar_at),
        (lambda: rt.write_scalar(obj, 1, 5), scalar_at),
    ]:
        with pytest.raises(InvalidHandleError) as info:
            call()
        assert str(info.value) == f"address {addr:#x} outside all heap spaces"


# -- one resolution per field access -----------------------------------------------


def test_field_access_resolves_the_handle_once(rt, monkeypatch):
    """The accessors index the heap's word view directly: no per-word
    load/store and no descriptor lookup after the field is resolved."""
    desc = register_node_class(rt, refs=1, scalars=1)
    _slot, old = _old_object(rt, desc)
    _slot2, cached = _h2_object(rt, desc)
    young = rt.allocate(desc)
    calls = []
    for name in ("load_word", "store_word", "descriptor_of"):
        method = getattr(Runtime, name)
        monkeypatch.setattr(
            Runtime, name, lambda self, *a, _m=method, _n=name: calls.append(_n) or _m(self, *a)
        )
    for obj in (young, old, cached):
        rt.write_scalar(obj, 1, 7)
        assert rt.read_scalar(obj, 1) == 7
        rt.write_ref(obj, 0, young)
        assert rt.read_ref(obj, 0) == young
    assert calls == []
    assert rt.load_word(cached + 24) == 7  # the wrappers do count
    assert calls == ["load_word"]
