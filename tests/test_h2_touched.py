"""H2 `touched` bytes: a dirty card is walked only if written since its last
clean walk, and the scan still returns what a full walk of every visited
card returns.

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
    big = rt.register_class([FieldSpec(16 + 8 * i, FieldKind.SCALAR) for i in range(700)])
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


@pytest.mark.parametrize("big", [False, True])
def test_minor_after_h2_scalar_store_walks_exactly_that_objects_cards(big):
    with Runtime(_criterion6_config()) as rt:
        _criterion6_heap(rt)
        rt.minor_collect()
        h2 = rt.h2
        objs = sorted(rt.iter_h2_objects())
        size = 5616 if big else 40
        obj = next(
            a for a in objs
            if rt.descriptor_of(a).instance_size == size and len(spans_cards(rt, a)) > 1
        )
        assert all(h2.cards.is_dirty(c) for c in spans_cards(rt, obj))
        rt.write_scalar(obj, rt.descriptor_of(obj).scalar_indexes[-1], 7)
        calls = _count_bulk_reads(h2)
        rt.minor_collect()
        assert _walked_cards(h2, calls) == spans_cards(rt, obj)


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
