"""H2 card table: marking, striped scanning, boundary rules, soundness."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dualheap import Runtime

from conftest import KIB, build_chain, make_config, register_node_class
from heap_oracle import brute_force_backward_refs, current_backward_stack


def scan_all(rt):
    refs = []
    cards = 0
    for tid in range(rt.config.h2.scan_threads):
        r, n = rt.h2.scan_dirty_cards(tid)
        refs.extend(r)
        cards += n
    rt.backward_stack = refs
    return refs, cards


def test_dirty_card_at_base(rt):
    rt.h2.dirty_card(rt.h2.base)
    assert rt.h2.cards.cards[0] == 1


def test_dirty_card_floor_division(rt):
    seg = rt.config.h2.card_segment
    rt.h2.dirty_card(rt.h2.base + seg * 5 + 1)
    assert rt.h2.cards.cards[5] == 1
    assert sum(rt.h2.cards.cards) == 1


def test_dirty_card_repeat_single(rt):
    rt.h2.dirty_card(rt.h2.base + 17)
    rt.h2.dirty_card(rt.h2.base + 29)
    assert sum(rt.h2.cards.cards) == 1


# -- scanning ------------------------------------------------------------------


def test_scan_all_clean_is_empty(rt):
    refs, cards = scan_all(rt)
    assert refs == []
    assert cards == 0


class CountingCards(bytearray):
    """Card bytes that count the `find` calls made on them."""

    finds = 0

    def find(self, *args):
        self.finds += 1
        return super().find(*args)


def test_scan_of_clean_table_makes_one_find_per_thread():
    # 2 MiB of 16 KiB stripes: 128 stripes, 64 per scan thread.
    with Runtime(make_config(stripe=16 * KIB, threads=2)) as rt:
        table = rt.h2.cards
        assert table.n_stripes == 128
        table.cards = CountingCards(table.cards)
        assert scan_all(rt) == ([], 0)
        assert table.cards.finds <= rt.config.h2.scan_threads


def test_scan_skips_other_threads_stripes_without_missing_cards():
    # Dirty cards in every stripe position: each thread visits exactly the
    # cards of its own stripes, boundary cards staying dirty.
    with Runtime(make_config(stripe=32 * KIB, threads=2)) as rt:
        table = rt.h2.cards
        per = table.cards_per_stripe
        assert per == 4
        dirty = [s * per + pos for s in range(0, 40, 3) for pos in range(per)]
        for idx in dirty:
            table.cards[idx] = 1
        for tid in range(2):
            _refs, n = rt.h2.scan_dirty_cards(tid)
            assert n == sum(1 for idx in dirty if table.thread_of_card(idx) == tid)
        assert [i for i in range(table.n_cards) if table.is_dirty(i)] == [
            idx for idx in dirty if table.is_boundary(idx)
        ]


def _h2_object_with_field(rt, desc, partition=1):
    """Allocate one object image directly in H2 for card-scan tests."""
    addr = rt.h2.allocate_in_region(partition, desc.instance_size)
    from dualheap.objmodel import class_age_word

    rt.h2.store_word(addr, class_age_word(desc.class_id, 0))
    rt.h2.store_word(addr + 8, 0)
    for fs in desc.fields:
        rt.store_word(addr + fs.offset, 0)
    return addr


_FILLER_CLASSES: dict = {}


def _h2_filler(rt, size, partition=1):
    """A scalar-only object image of exactly `size` bytes, so card walks
    over the filler parse cleanly."""
    key = (id(rt), size)
    desc = _FILLER_CLASSES.get(key)
    if desc is None:
        desc = register_node_class(rt, refs=0, scalars=(size - 16) // 8)
        _FILLER_CLASSES[key] = desc
    assert desc.instance_size == size
    return _h2_object_with_field(rt, desc, partition)


def _nonboundary_card_addr(rt, region=0):
    """Address range start of the first non-boundary card of a region."""
    seg = rt.config.h2.card_segment
    base_card = (rt.h2.region_start(region) - rt.h2.base) // seg
    idx = base_card + 1
    assert not rt.h2.cards.is_boundary(idx)
    return idx


def test_scan_keeps_card_with_backward_ref(rt):
    seg = rt.config.h2.card_segment
    desc = register_node_class(rt, refs=1, scalars=1)
    _h2_filler(rt, seg)  # keep the object off the boundary card
    h2_obj = _h2_object_with_field(rt, desc)
    young = rt.allocate(desc)
    slot = rt.add_root(young)
    rt.write_ref(h2_obj, 0, young)  # barrier dirties the card
    card = rt.h2.cards.index_of(h2_obj)
    assert not rt.h2.cards.is_boundary(card)
    assert rt.h2.cards.is_dirty(card)
    refs, cards = scan_all(rt)
    assert cards == 1
    assert refs == [(h2_obj + 16, young)]
    assert rt.h2.cards.is_dirty(card)  # refs present: stays dirty
    del slot


def test_scan_cleans_refless_nonboundary_card(rt):
    seg = rt.config.h2.card_segment
    # Push allocation past the first card so the object sits on card 1,
    # which is not a stripe boundary.
    desc = register_node_class(rt, refs=1, scalars=1)
    _h2_filler(rt, seg)  # filler covering card 0
    obj = _h2_object_with_field(rt, desc)
    idx = rt.h2.cards.index_of(obj)
    assert not rt.h2.cards.is_boundary(idx)
    rt.h2.dirty_card(obj)
    refs, cards = scan_all(rt)
    assert refs == []
    assert cards >= 1
    assert not rt.h2.cards.is_dirty(idx)


def test_scan_of_unparseable_segment_reports_corruption(rt):
    from dualheap import HeapCorruptionError
    from dualheap.objmodel import class_age_word

    desc = register_node_class(rt, refs=1, scalars=1)
    obj = _h2_object_with_field(rt, desc)
    rt.h2.store_word(obj, class_age_word(0xDEAD, 0))  # unknown class id
    rt.h2.dirty_card(obj)
    import pytest as _pytest

    with _pytest.raises(HeapCorruptionError):
        scan_all(rt)


def test_boundary_card_never_cleaned_by_scan(rt):
    rt.h2.dirty_card(rt.h2.base)  # card 0: first card of stripe 0
    assert rt.h2.cards.is_boundary(0)
    refs, cards = scan_all(rt)
    assert refs == []
    assert cards == 1
    assert rt.h2.cards.is_dirty(0)
    # and it is rescanned every time
    _, cards = scan_all(rt)
    assert cards == 1


def test_scan_walks_object_spilling_from_previous_segment(rt):
    # Object starts near the end of one segment and its reference slot
    # physically lies in the next; scanning the start card must still find
    # the backward reference by walking the whole object.
    seg = rt.config.h2.card_segment
    desc = register_node_class(rt, refs=1, scalars=1)
    _h2_filler(rt, seg - 16)
    obj = _h2_object_with_field(rt, desc)  # header in card 0, slot in card 1
    assert rt.h2.cards.index_of(obj) == 0
    assert rt.h2.cards.index_of(obj + 16) == 1
    young = rt.allocate(desc)
    slot = rt.add_root(young)
    rt.write_ref(obj, 0, young)
    assert rt.h2.cards.is_dirty(0)
    assert not rt.h2.cards.is_dirty(1)
    refs, _ = scan_all(rt)
    assert (obj + 16, young) in refs
    # Scanning the spilled-into card alone also finds it via the cover walk.
    rt.h2.dirty_card(rt.h2.base + seg)
    refs2, _ = scan_all(rt)
    assert (obj + 16, young) in refs2
    del slot


def test_scan_against_brute_force_randomized(rt):
    desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
    rng = Random(1234)
    slots = []
    for pid in range(3):
        slot = build_chain(rt, desc, 30, tag_base=pid * 1000)
        rt.persist(rt.read_root(slot), pid)
        slots.append(slot)
    rt.major_collect()
    # Random mutations: some create backward refs, some do not.
    for _ in range(40):
        slot = slots[rng.randrange(3)]
        root = rt.read_root(slot)
        from heap_oracle import reachable_addrs

        objs = sorted(a for a in reachable_addrs(rt, roots=[root]) if rt.layout.is_h2(a))
        obj = objs[rng.randrange(len(objs))]
        choice = rng.random()
        if choice < 0.4:
            young = rt.allocate(desc)
            rt.write_ref(obj, rng.randrange(2), young)
        elif choice < 0.7:
            rt.write_ref(obj, rng.randrange(2), objs[rng.randrange(len(objs))])
        else:
            rt.write_scalar(obj, 2, rng.randrange(1 << 30))
    scan_all(rt)
    assert current_backward_stack(rt) == brute_force_backward_refs(rt)


# -- stripe partition ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    threads=st.sampled_from([1, 2, 4, 8]),
    segment=st.sampled_from([4 * KIB, 8 * KIB]),
    stripes_per_region=st.sampled_from([2, 4]),
)
def test_stripe_partition_covers_every_card_once(threads, segment, stripes_per_region):
    stripe = 8 * segment
    region = stripe * stripes_per_region
    n_regions = max(2, threads)  # keeps stripe count a multiple of threads
    cfg = make_config(
        h2_size=region * n_regions,
        region=region,
        h2_card=segment,
        stripe=stripe,
        threads=threads,
    )
    with Runtime(cfg) as rt:
        table = rt.h2.cards
        seen: dict[int, int] = {}
        for tid in range(threads):
            for idx in table.cards_for_thread(tid):
                assert idx not in seen, "card owned by two threads"
                seen[idx] = tid
        assert len(seen) == table.n_cards
        for idx, tid in seen.items():
            assert table.thread_of_card(idx) == tid


def test_boundary_fraction_is_two_per_stripe(rt):
    table = rt.h2.cards
    boundary = sum(1 for i in range(table.n_cards) if table.is_boundary(i))
    assert boundary * table.cards_per_stripe == 2 * table.n_cards


# -- find-based fast paths against the per-card loops ----------------------------


@settings(max_examples=60, deadline=None)
@given(
    per_stripe=st.sampled_from([1, 2, 3, 8]),
    n_stripes=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_card_counts_match_brute_force(per_stripe, n_stripes, data):
    # validate() requires two cards per stripe; the table itself also
    # handles one, where a card is both first and last of its stripe and
    # must still be counted once.
    from dualheap.h2 import H2CardTable

    n_cards = per_stripe * n_stripes
    table = H2CardTable(0, n_cards * 8, 8, per_stripe * 8, 1)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n_cards, max_size=n_cards))
    table.cards[:] = bytes(bits)
    assert table.count_dirty() == sum(1 for b in table.cards if b)
    assert table.count_dirty_boundary() == sum(
        1 for i, b in enumerate(table.cards) if b and table.is_boundary(i)
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_h1_dirty_indexes_match_enumerate_filter(bits):
    from dualheap.h1 import H1CardTable

    table = H1CardTable(1 << 16, len(bits) * 512, 512)
    table.cards[:] = bytes(bits)
    assert table.dirty_indexes() == [i for i, b in enumerate(table.cards) if b]


def reference_scan(h2, thread_id, cards):
    """The per-card loop the find-based scan replaced, run on `cards` (a
    copy of the card bytes).  Returns the backward refs and the visited
    card indexes."""
    from dualheap.objmodel import word_class_id

    table = h2.cards
    refs, visited = [], []
    for idx in table.cards_for_thread(thread_id):
        if cards[idx] != 1:
            continue
        visited.append(idx)
        seg_start, seg_end = table.segment_bounds(idx)
        walk_end = min(seg_end, h2.region_alloc_end(h2.region_of(seg_start)))
        found = 0
        addr = h2.first_obj[idx]
        while addr and addr < walk_end:
            desc = h2.registry.get(word_class_id(h2.load_word(addr)))
            for fi in desc.ref_indexes:
                slot = addr + desc.fields[fi].offset
                value = h2.load_word(slot)
                if value and h2.layout.is_h1(value):
                    refs.append((slot, value))
                    found += 1
            addr += desc.instance_size
        if found == 0 and not table.is_boundary(idx):
            cards[idx] = 0
    return refs, visited


class _RecordingList(list):
    """Records the indexes read, so a test sees which cards a scan visited."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, idx):
        self.reads.append(idx)
        return super().__getitem__(idx)


@pytest.fixture(scope="module")
def scan_heap():
    """Three migrated partitions spanning several cards and stripes of both
    scan threads, some of whose transient fields point back into H1."""
    with Runtime(make_config(h2_card=4 * KIB, stripe=16 * KIB)) as rt:
        desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
        for pid in range(3):
            slot = build_chain(rt, desc, 600, tag_base=1000 * pid)
            rt.persist(rt.read_root(slot), pid)
        rt.major_collect()
        rng = Random(5)
        h2_objs = sorted(rt.iter_h2_objects())
        for obj in rng.sample(h2_objs, 40):
            young = rt.allocate(desc)
            rt.add_root(young)
            rt.write_ref(obj, 1, young)
        yield rt


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_find_scan_matches_per_card_loop(scan_heap, data):
    rt = scan_heap
    h2 = rt.h2
    n = h2.cards.n_cards
    start = bytearray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    expected = bytearray(start)
    h2.cards.cards[:] = start
    original = h2.first_obj
    h2.first_obj = _RecordingList(original)
    try:
        for tid in range(rt.config.h2.scan_threads):
            want_refs, want_visited = reference_scan(h2, tid, expected)
            h2.first_obj.reads.clear()
            refs, scanned = h2.scan_dirty_cards(tid)
            assert h2.first_obj.reads == want_visited  # same cards, ascending
            assert want_visited == sorted(want_visited)
            assert scanned == len(want_visited)
            assert refs == want_refs
            assert h2.cards.cards == expected
    finally:
        h2.first_obj = original


def _mixed_size_heap(rt, plan, draw_target):
    """Lay out H2 objects of three kinds in the `(kind, partition)` order of
    `plan`: 40-byte nodes, 9,616-byte objects spanning three or more 4 KiB cards
    (reference fields at the front, middle and last slot), and scalar pads
    that end exactly at a card end.  Partition 3 always holds a big object,
    a pad and a node, so its region ends part-way through its last card.
    Scalar slots hold an H1 address, which the scan must not report."""
    from dualheap import FieldKind, FieldSpec
    from dualheap.objmodel import class_age_word

    h2 = rt.h2
    seg = h2.cards.segment
    small = register_node_class(rt, refs=2, scalars=1)
    big_refs = {0, 600, 1199}
    big = rt.register_class(
        [
            FieldSpec(16 + 8 * i, FieldKind.REF if i in big_refs else FieldKind.SCALAR)
            for i in range(1200)
        ]
    )
    pads: dict[int, object] = {}
    scalar_fill = rt.layout.young_base

    def place(kind, pid):
        if kind == "pad":
            open_idx = h2._open_region.get(pid)
            fill = 0 if open_idx is None else h2.alloc_offsets[open_idx]
            size = -fill % seg
            if size < 16:
                size += seg
            if fill + size > h2.region_size:
                size = seg  # a fresh region: the pad fills its first card
            if size not in pads:
                pads[size] = register_node_class(rt, refs=0, scalars=(size - 16) // 8)
            desc = pads[size]
        else:
            desc = small if kind == "small" else big
        addr = h2.allocate_in_region(pid, desc.instance_size)
        h2.store_words(addr + 16, [scalar_fill] * len(desc.fields))
        h2.store_word(addr, class_age_word(desc.class_id, 0))
        h2.store_word(addr + 8, 0)
        for fi in desc.ref_indexes:
            h2.store_word(addr + desc.fields[fi].offset, draw_target())
        if kind == "pad":
            assert (addr + desc.instance_size - h2.base) % seg == 0

    for kind in ("big", "pad", "small"):
        place(kind, 3)
    for kind, pid in plan:
        place(kind, pid)


@settings(max_examples=60, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.sampled_from(["small", "big", "pad"]), st.integers(0, 2)), max_size=40
    ),
    data=st.data(),
)
def test_bulk_scan_matches_per_card_loop_on_mixed_sizes(plan, data):
    cfg = make_config(h2_size=1024 * KIB, region=32 * KIB, h2_card=4 * KIB, stripe=16 * KIB)
    with Runtime(cfg) as rt:
        h2, layout = rt.h2, rt.layout
        targets = st.sampled_from(
            [0, layout.young_base, layout.old_end - 8, layout.old_base + 64, h2.base + 8]
        )
        _mixed_size_heap(rt, plan, lambda: data.draw(targets))
        n = h2.cards.n_cards
        start = bytearray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        expected = bytearray(start)
        h2.cards.cards[:] = start
        h2.first_obj = _RecordingList(h2.first_obj)
        for tid in range(rt.config.h2.scan_threads):
            want_refs, want_visited = reference_scan(h2, tid, expected)
            h2.first_obj.reads.clear()
            refs, scanned = h2.scan_dirty_cards(tid)
            assert h2.first_obj.reads == want_visited
            assert scanned == len(want_visited)
            assert refs == want_refs
            assert h2.cards.cards == expected


def test_minor_scan_reads_h2_in_bulk_once_or_twice_per_card():
    """The scan's reads go through `load_words`, at most twice per card
    (the card's walk and one spilling last object), never `load_word`."""
    with Runtime(make_config(h2_card=4 * KIB, stripe=16 * KIB)) as rt:
        desc = register_node_class(rt, refs=2, scalars=1)
        for pid in range(2):
            slot = build_chain(rt, desc, 600, tag_base=1000 * pid)
            rt.persist(rt.read_root(slot), pid)
        rt.major_collect()
        rng = Random(11)
        for obj in rng.sample(sorted(rt.iter_h2_objects()), 30):
            young = rt.allocate(desc)
            rt.add_root(young)
            rt.write_ref(obj, 0, young)
        h2 = rt.h2
        calls = {"load_word": 0, "load_words": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(h2, name)):
                calls[_name] += 1
                return _orig(*args)

            setattr(h2, name, counted)
        try:
            stats = rt.minor_collect()
        finally:
            del h2.load_word, h2.load_words
        assert stats.h2_cards_scanned > 0
        assert calls["load_word"] == 0
        assert stats.h2_cards_scanned <= calls["load_words"] <= 2 * stats.h2_cards_scanned


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([40, 4 * KIB + 8, 20 * KIB]), min_size=1, max_size=40),
    data=st.data(),
)
def test_reclaim_clears_the_same_cards_as_per_card_loop(sizes, data):
    cfg = make_config(h2_size=1024 * KIB, region=128 * KIB, stripe=32 * KIB, h2_card=4 * KIB)
    with Runtime(cfg) as rt:
        h2 = rt.h2
        for i, size in enumerate(sizes):
            h2.allocate_in_region(i % 3, size)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=h2.cards.n_cards, max_size=h2.cards.n_cards)
        )
        h2.cards.cards[:] = bytes(bits)
        allocated = h2.allocated_regions()
        keep = data.draw(st.sets(st.sampled_from(allocated)))
        h2.begin_mark()
        for r in keep:
            h2.set_used(r)
        cards, first_obj = bytearray(h2.cards.cards), list(h2.first_obj)
        freed = h2.reclaim_free_regions()
        assert freed == sorted(set(allocated) - keep)
        for r in freed:
            card_lo = (h2.region_start(r) - h2.base) // h2.cards.segment
            for c in range(card_lo, card_lo + h2.cards_per_region):
                cards[c] = 0
                first_obj[c] = 0
        assert h2.cards.cards == cards
        assert h2.first_obj == first_obj
