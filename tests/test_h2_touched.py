"""H2 `touched` bytes and remembered slots: a dirty card is walked only if
a reference store or an allocation has written it since its last walk,
otherwise only the slots that walk found are re-read, and the scan still
returns what a full walk of every visited card returns.

Every scan in these tests is checked against `reference_scan`, the per-card
loop that walks every visited card, run on a copy of the card bytes.
"""

from random import Random

import pytest

from dualheap import FieldKind, FieldSpec, Runtime

from conftest import KIB, build_chain, make_config, register_node_class
from test_h2_cards import reference_scan, scan_all


def check_scans_against_oracle(rt):
    """Wrap `rt.h2.scan_dirty_cards` so that every call, from a collection
    or a test, is compared with the oracle.  Returns the list of checked
    calls' `(refs, cards_scanned)`."""
    h2 = rt.h2
    real = h2.scan_dirty_cards
    checked = []

    def scan(thread_id):
        expected_cards = bytearray(h2.cards.cards)
        want_refs, want_visited = reference_scan(h2, thread_id, expected_cards)
        refs, scanned = real(thread_id)
        assert refs == want_refs
        assert scanned == len(want_visited)
        assert h2.cards.cards == expected_cards
        allocated = set(h2.allocated_regions())
        for idx, slots in h2.remembered.items():
            assert slots and h2.cards.is_dirty(idx)
            assert h2.region_of(h2.base + idx * h2.cards.segment) in allocated
        checked.append((refs, scanned))
        return refs, scanned

    h2.scan_dirty_cards = scan
    return checked


def spans_cards(rt, addr):
    seg = rt.h2.cards.segment
    size = rt.descriptor_of(addr).instance_size
    first = (addr - rt.h2.base) // seg
    return list(range(first, (addr + size - 1 - rt.h2.base) // seg + 1))


# -- a random mix of runtime operations -------------------------------------------


def _big_class(rt):
    """4,816 bytes, more than a 4 KiB card: references at the front, the
    middle (transient) and the last slot (transient)."""
    refs = {0: False, 300: True, 599: True}
    return rt.register_class(
        [
            FieldSpec(16 + 8 * i, FieldKind.REF if i in refs else FieldKind.SCALAR,
                      transient=refs.get(i, False))
            for i in range(600)
        ]
    )


def _random_runtime_ops(rt, rng, steps):
    node = register_node_class(rt, refs=2, scalars=1, transient=(1,))  # 40 bytes
    big = _big_class(rt)
    assert node.instance_size == 40 and big.instance_size > rt.h2.cards.segment
    kept: list[int] = []  # root slots of H1 objects
    cached: dict[int, list[int]] = {}  # partition id -> root slots

    def h1_target():
        live = [rt.read_root(s) for s in kept]
        live = [h for h in live if h and rt.layout.is_h1(h)]
        return rng.choice(live) if live else None

    for _ in range(steps):
        op = rng.random()
        h2_objs = sorted(rt.iter_h2_objects())
        if op < 0.15:  # build a structure, perhaps around a big object
            slot = build_chain(rt, node, rng.randrange(1, 25), tag_base=rng.randrange(1 << 20))
            if rng.random() < 0.5:
                obj = rt.allocate(big)
                rt.write_ref(obj, 0, rt.read_root(slot))
                rt.drop_root(slot)
                slot = rt.add_root(obj)
                young = rt.allocate(node)
                rt.write_ref(rt.read_root(slot), 300, young)  # transient: stays in H1
            kept.append(slot)
        elif op < 0.25 and kept:  # persist
            slot = kept.pop(rng.randrange(len(kept)))
            pid = rng.randrange(4)
            rt.persist(rt.read_root(slot), pid)
            cached.setdefault(pid, []).append(slot)
        elif op < 0.30 and cached:  # unpersist
            pid = rng.choice(sorted(cached))
            rt.unpersist(pid)
            del cached[pid]
        elif op < 0.60 and h2_objs:  # a reference store into H2
            obj = rng.choice(h2_objs)
            desc = rt.descriptor_of(obj)
            index = rng.choice(desc.ref_indexes)
            kind = rng.random()
            if kind < 0.35:
                target = rt.allocate(node)  # young
            elif kind < 0.6:
                target = h1_target()  # young or old, rooted
            elif kind < 0.85:
                target = rng.choice(h2_objs)
            else:
                target = None
            rt.write_ref(obj, index, target)
        elif op < 0.75 and h2_objs:  # a scalar store into H2
            obj = rng.choice(h2_objs)
            desc = rt.descriptor_of(obj)
            rt.write_scalar(obj, rng.choice(desc.scalar_indexes), rng.randrange(1 << 40))
        elif op < 0.80:
            for _ in range(rng.randrange(1, 40)):
                rt.allocate(node)  # garbage
        elif op < 0.93:
            rt.minor_collect()
        else:
            rt.major_collect()


@pytest.mark.parametrize("stripe", [8 * KIB, 16 * KIB])
@pytest.mark.parametrize("seed", range(6))
def test_every_scan_matches_oracle_over_random_runtime_operations(seed, stripe):
    cfg = make_config(
        old=512 * KIB, h2_size=1024 * KIB, region=32 * KIB, h2_card=4 * KIB, stripe=stripe
    )
    with Runtime(cfg) as rt:
        checked = check_scans_against_oracle(rt)
        _random_runtime_ops(rt, Random(seed), steps=300)
        rt.major_collect()
        scan_all(rt)
        assert len(checked) > 20
        assert any(refs for refs, _ in checked)  # backward references were seen


def test_store_into_object_spilling_into_clean_walked_boundary_card():
    """A minor walks every card clean of references; then a young reference
    is stored into an object whose header card is A and which spills into
    B, a dirty boundary card.  Both cards must be walked again, so the
    reference is reported from each."""
    cfg = make_config(h2_size=1024 * KIB, region=16 * KIB, h2_card=4 * KIB, stripe=8 * KIB)
    with Runtime(cfg) as rt:
        h2 = rt.h2
        desc = register_node_class(rt, refs=2, scalars=1)
        slot = build_chain(rt, desc, 300)  # about three 4 KiB cards
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        assert rt.minor_collect().h2_cards_scanned > 0  # walks every card, finds nothing
        obj = next(a for a in sorted(rt.iter_h2_objects()) if len(spans_cards(rt, a)) == 2)
        _, card_b = spans_cards(rt, obj)
        assert h2.cards.is_boundary(card_b) and h2.cards.is_dirty(card_b)
        young = rt.allocate(desc)
        rt.add_root(young)
        rt.write_ref(obj, 1, young)
        check_scans_against_oracle(rt)
        refs, _ = scan_all(rt)
        assert refs.count((obj + 24, young)) == 2


# -- the fast path, by call counts ---------------------------------------------------


def _criterion6_heap(rt):
    """A migrated chain at 4 KiB cards and 8 KiB stripes, where every H2
    card is a boundary card and so stays dirty; no backward references."""
    desc = register_node_class(rt, refs=1, scalars=2)  # 40 bytes
    big = rt.register_class(  # 5,616 bytes; its one reference field stays null
        [FieldSpec(16 + 8 * i, FieldKind.SCALAR if i else FieldKind.REF) for i in range(700)]
    )
    slot = build_chain(rt, desc, 250)
    obj = rt.allocate(big)
    rt.add_root(obj)
    rt.persist(rt.read_root(slot), 1)
    rt.persist(obj, 1)
    rt.major_collect()
    return slot


def _criterion6_config():
    return make_config(h2_size=1024 * KIB, region=16 * KIB, h2_card=4 * KIB, stripe=8 * KIB)


def _count_bulk_reads(h2):
    calls = []
    real = h2.load_words

    def load_words(start, stop):
        calls.append((start, stop))
        return real(start, stop)

    h2.load_words = load_words
    return calls


def _walked_cards(h2, calls):
    """The cards whose walk made one of `calls`: a walk reads from the
    card's first-object entry to the end of its allocated part."""
    table = h2.cards
    walked = []
    for idx in range(table.n_cards):
        seg_start, seg_end = table.segment_bounds(idx)
        walk_end = min(seg_end, h2.region_alloc_end(h2.region_of(seg_start)))
        if h2.first_obj[idx] and (h2.first_obj[idx], walk_end) in calls:
            walked.append(idx)
    return walked


def test_second_minor_without_h2_store_reads_no_h2_words():
    with Runtime(_criterion6_config()) as rt:
        _criterion6_heap(rt)
        first = rt.minor_collect()
        assert first.h2_cards_scanned > 0
        calls = _count_bulk_reads(rt.h2)
        load_word = rt.h2.load_word
        rt.h2.load_word = lambda addr: calls.append((addr, addr + 8)) or load_word(addr)
        scanned_before = rt.counters["h2_cards_scanned"]
        second = rt.minor_collect()
        assert calls == []
        assert second.h2_cards_scanned == first.h2_cards_scanned
        assert rt.counters["h2_cards_scanned"] - scanned_before == first.h2_cards_scanned


def _spanning_object(rt, big):
    """After one minor over the criterion-6 heap, an H2 object (a big one,
    or a 40-byte node) spanning two or more dirty cards."""
    _criterion6_heap(rt)
    rt.minor_collect()
    size = 5616 if big else 40
    obj = next(
        a for a in sorted(rt.iter_h2_objects())
        if rt.descriptor_of(a).instance_size == size and len(spans_cards(rt, a)) > 1
    )
    assert all(rt.h2.cards.is_dirty(c) for c in spans_cards(rt, obj))
    return obj


@pytest.mark.parametrize("big", [False, True])
def test_minor_after_h2_ref_store_walks_exactly_that_objects_cards(big):
    with Runtime(_criterion6_config()) as rt:
        obj = _spanning_object(rt, big)
        index = rt.descriptor_of(obj).ref_indexes[0]
        rt.write_ref(obj, index, rt.read_ref(obj, index))
        calls = _count_bulk_reads(rt.h2)
        rt.minor_collect()
        assert _walked_cards(rt.h2, calls) == spans_cards(rt, obj)


@pytest.mark.parametrize("big", [False, True])
def test_minor_after_h2_scalar_store_walks_no_card(big):
    """A scalar store dirties the object's card but touches none: it cannot
    add a backward reference, so the next minor reads no H2 word."""
    with Runtime(_criterion6_config()) as rt:
        obj = _spanning_object(rt, big)
        dirtied = rt.counters["h2_cards_dirtied"]
        rt.write_scalar(obj, rt.descriptor_of(obj).scalar_indexes[-1], 7)
        assert rt.counters["h2_cards_dirtied"] == dirtied  # the card was dirty already
        assert not any(rt.h2.touched[c] for c in spans_cards(rt, obj))
        calls = _count_bulk_reads(rt.h2)
        rt.minor_collect()
        assert calls == []


def test_card_level_dirty_rewalks_its_card():
    """`dirty_card(addr)` without a size says the card's words changed: a
    reference stored past the barrier, into an object on one card, must be
    found although a walk already cleared the card."""
    with Runtime(_criterion6_config()) as rt:
        _criterion6_heap(rt)
        rt.minor_collect()
        h2 = rt.h2
        obj = next(a for a in sorted(rt.iter_h2_objects()) if len(spans_cards(rt, a)) == 1)
        young = rt.allocate(rt.descriptor_of(obj))
        rt.add_root(young)
        h2.store_word(obj + 16, young)
        h2.dirty_card(obj)
        check_scans_against_oracle(rt)
        refs, _ = scan_all(rt)
        assert refs == [(obj + 16, young)]


# -- remembered slots ----------------------------------------------------------------


def _backward_heap(rt, n_refs=6):
    """A migrated chain of nodes whose transient field (index 1) holds a
    rooted young object in `n_refs` of them, after one minor has walked
    their cards.  Returns the node class and the H2 objects holding
    references, each with the root slot of its target."""
    desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))  # 40 bytes
    slot = build_chain(rt, desc, 300)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    objs = sorted(rt.iter_h2_objects())
    holders = []
    for obj in Random(3).sample(objs, n_refs):
        young = rt.allocate(desc)
        holders.append((obj, rt.add_root(young)))
        rt.write_ref(obj, 1, young)
    rt.minor_collect()
    return desc, holders


def _card_of(h2, addr):
    return (addr - h2.base) // h2.cards.segment


def test_minor_after_scalar_round_reads_only_remembered_slots():
    """After a round of scalar stores into every H2 object, a minor makes
    no bulk read, one `load_word` per remembered slot, no `rt.load_word`
    of an H2 slot, and reports what a walk of every visited card reports."""
    with Runtime(_criterion6_config()) as rt:
        desc, holders = _backward_heap(rt)
        h2 = rt.h2
        for obj in sorted(rt.iter_h2_objects()):
            rt.write_scalar(obj, desc.scalar_indexes[0], 11)
        want = []
        for tid in range(rt.config.h2.scan_threads):
            want += reference_scan(h2, tid, bytearray(h2.cards.cards))[0]
        assert len(want) >= len(holders)
        n_slots = sum(len(slots) for slots in h2.remembered.values())
        bulk = _count_bulk_reads(h2)
        slot_reads = []
        load_word = h2.load_word
        h2.load_word = lambda addr: slot_reads.append(addr) or load_word(addr)
        rt_h2_reads = []
        rt_load_word = rt.load_word

        def rt_load(addr):
            if rt.layout.is_h2(addr):
                rt_h2_reads.append(addr)
            return rt_load_word(addr)

        rt.load_word = rt_load
        rt.minor_collect()
        assert bulk == []
        assert len(slot_reads) == n_slots
        assert rt.backward_stack == want
        assert rt_h2_reads == []


def test_slot_stays_remembered_with_its_moved_young_target():
    with Runtime(_criterion6_config()) as rt:
        _, holders = _backward_heap(rt, n_refs=1)
        h2 = rt.h2
        (obj, target_slot), = holders
        slot = obj + 24
        young = rt.read_root(target_slot)
        assert slot in h2.remembered[_card_of(h2, obj)]
        check_scans_against_oracle(rt)
        rt.minor_collect()  # copies the target again
        moved = rt.read_root(target_slot)
        assert moved != young and rt.layout.is_h1(moved)
        assert h2.load_word(slot) == moved
        assert slot in h2.remembered[_card_of(h2, obj)]
        assert (slot, moved) in scan_all(rt)[0]


@pytest.mark.parametrize("boundary", [False, True])
def test_slot_whose_target_a_major_migrates_is_dropped(boundary):
    """The adjust phase rewrites a remembered slot to its target's new H2
    address; the next minor drops the slot and forgets the card, and cleans
    it unless it is a boundary card."""
    cfg = make_config(h2_size=1024 * KIB, region=32 * KIB, h2_card=4 * KIB, stripe=16 * KIB)
    with Runtime(cfg) as rt:
        h2 = rt.h2
        desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
        slot = build_chain(rt, desc, 300)
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # the migration's cards are walked clean
        obj = next(
            a for a in sorted(rt.iter_h2_objects())
            if len(spans_cards(rt, a)) == 1 and h2.cards.is_boundary(_card_of(h2, a)) == boundary
        )
        card = _card_of(h2, obj)
        target = rt.allocate(desc)
        target_slot = rt.add_root(target)
        rt.write_ref(obj, 1, target)
        rt.minor_collect()
        assert h2.remembered[card] == [obj + 24]
        rt.persist(rt.read_root(target_slot), 2)
        rt.major_collect()
        moved = rt.read_root(target_slot)
        assert rt.layout.is_h2(moved) and h2.load_word(obj + 24) == moved
        assert not h2.touched[card]
        check_scans_against_oracle(rt)
        rt.minor_collect()
        assert card not in h2.remembered
        assert h2.cards.is_dirty(card) == boundary


def test_freed_region_keeps_no_remembered_slot_or_touched_byte():
    cfg = make_config(h2_size=1024 * KIB, region=32 * KIB, h2_card=4 * KIB, stripe=16 * KIB)
    with Runtime(cfg) as rt:
        h2 = rt.h2
        node = register_node_class(rt, refs=1, scalars=1)
        # 9,616 bytes: a card wholly inside it holds no header, so no walk
        # visits it and its `touched` byte stays set from the allocation.
        big = rt.register_class(
            [FieldSpec(16, FieldKind.REF, transient=True)]
            + [FieldSpec(24 + 8 * i, FieldKind.SCALAR) for i in range(1199)]
        )
        obj = rt.allocate(big)
        obj_slot = rt.add_root(obj)
        rt.persist(obj, 5)
        rt.major_collect()
        obj = rt.read_root(obj_slot)
        young = rt.allocate(node)
        rt.add_root(young)
        rt.write_ref(obj, 0, young)
        rt.minor_collect()
        region = h2.region_of(obj)
        cards = range(region * h2.cards_per_region, (region + 1) * h2.cards_per_region)
        assert h2.remembered[_card_of(h2, obj)] == [obj + 16]
        assert any(h2.touched[c] for c in cards)
        rt.unpersist(5)
        stats = rt.major_collect()
        assert region in stats.regions_freed
        assert not any(c in h2.remembered for c in cards)
        assert not any(h2.touched[c] for c in cards)
