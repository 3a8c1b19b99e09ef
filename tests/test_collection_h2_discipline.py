"""Collections may only touch H2 payload bytes in sanctioned places.

Sanctioned reads: objects overlapping segments whose cards were dirty when
the collection began (the dirty-card scan, including spill-over fields).
Sanctioned writes: migration appends and the adjust-phase slot rewrites,
whose slots always belong to objects overlapping dirty segments.  Card
table and region metadata are not payload and are unrestricted.

The log sees H2 payload through the methods `AccessLog` wraps.  The
dirty-card scan reads through `H2Heap.load_words`, one range per card; the
wrapper logs it as one 8-byte read per word of the range, so the check is
as strict per word as for `load_word`.  Object walks read whole images
through `H2Heap.object_words`, logged as one read of the object's size.
Every multi-word H2 store, migration's included, goes through
`H2Heap.store_words`, logged as one write of `8 * len(words)` bytes.
"""

from random import Random

from dualheap import Runtime

from conftest import build_chain, make_config, register_node_class


class AccessLog:
    def __init__(self, rt):
        self.rt = rt
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int]] = []
        self.appends: list[tuple[int, int]] = []

    def install(self):
        rt = self.rt
        h2 = rt.h2

        orig_rt_load, orig_rt_store = rt.load_word, rt.store_word
        orig_h2_load, orig_h2_store = h2.load_word, h2.store_word
        orig_h2_load_words = h2.load_words
        orig_h2_object_words = h2.object_words
        orig_h2_store_words = h2.store_words
        orig_alloc = h2.allocate_in_region

        def in_h2(addr):
            return rt.layout.is_h2(addr)

        rt.load_word = lambda a: (self.reads.append((a, 8)) if in_h2(a) else None) or orig_rt_load(a)
        rt.store_word = lambda a, v: (self.writes.append((a, 8)) if in_h2(a) else None) or orig_rt_store(a, v)
        h2.load_word = lambda a: self.reads.append((a, 8)) or orig_h2_load(a)

        def load_words(start, stop):
            self.reads.extend((a, 8) for a in range(start, stop, 8))  # one read per word
            return orig_h2_load_words(start, stop)

        h2.load_words = load_words

        def object_words(addr):
            desc, words = orig_h2_object_words(addr)
            self.reads.append((addr, desc.instance_size))
            return desc, words

        h2.object_words = object_words
        h2.store_word = lambda a, v: self.writes.append((a, 8)) or orig_h2_store(a, v)
        h2.store_words = lambda a, w: self.writes.append((a, 8 * len(w))) or orig_h2_store_words(a, w)

        def alloc(pid, size):
            addr = orig_alloc(pid, size)
            self.appends.append((addr, addr + size))  # stored as (lo, hi)
            return addr

        h2.allocate_in_region = alloc
        self._restore = (
            orig_rt_load, orig_rt_store, orig_h2_load, orig_h2_store,
            orig_h2_store_words, orig_alloc, orig_h2_load_words,
            orig_h2_object_words,
        )

    def uninstall(self):
        rt, h2 = self.rt, self.rt.h2
        (rt.load_word, rt.store_word, h2.load_word, h2.store_word,
         h2.store_words, h2.allocate_in_region, h2.load_words,
         h2.object_words) = self._restore


def sanctioned_extents(rt):
    """Extents of every object overlapping a currently dirty segment."""
    extents = []
    table = rt.h2.cards
    dirty = [i for i in range(table.n_cards) if table.is_dirty(i)]
    objects = [(a, rt.descriptor_of(a).instance_size) for a in rt.iter_h2_objects()]
    for idx in dirty:
        seg_start, seg_end = table.segment_bounds(idx)
        extents.append((seg_start, seg_end))  # raw segment walk territory
        for addr, size in objects:
            if addr < seg_end and addr + size > seg_start:
                extents.append((addr, addr + size))
    return extents


def covered(extents, addr, size):
    return any(lo <= addr and addr + size <= hi for lo, hi in extents)


def run_disciplined(rt, collect):
    allowed = sanctioned_extents(rt)
    log = AccessLog(rt)
    log.install()
    try:
        collect()
    finally:
        log.uninstall()
    for addr, size in log.reads:
        ok = covered(allowed, addr, size) or covered(log.appends, addr, size)
        assert ok, f"collection read H2 payload outside dirty segments: {addr:#x}+{size}"
    for addr, size in log.writes:
        ok = covered(log.appends, addr, size) or covered(allowed, addr, size)
        assert ok, f"collection wrote H2 payload outside appends/slots: {addr:#x}+{size}"


def _cached_state(rt):
    desc = register_node_class(rt, refs=2, scalars=1, transient=(1,))
    rng = Random(8)
    for pid in range(3):
        slot = build_chain(rt, desc, 30, tag_base=1000 * pid)
        rt.persist(rt.read_root(slot), pid)
    rt.major_collect()
    h2_objs = sorted(rt.iter_h2_objects())
    for _ in range(15):
        obj = h2_objs[rng.randrange(len(h2_objs))]
        if rng.random() < 0.5:
            young = rt.allocate(desc)
            rt.write_ref(obj, 0, young)
        else:
            rt.write_scalar(obj, 2, rng.randrange(1 << 20))
    return desc


def test_minor_touches_only_dirty_segments():
    with Runtime(make_config()) as rt:
        _cached_state(rt)
        run_disciplined(rt, rt.minor_collect)


def test_major_touches_only_dirty_segments_and_appends():
    with Runtime(make_config()) as rt:
        desc = _cached_state(rt)
        # stage another partition for migration during the observed major
        slot = build_chain(rt, desc, 20, tag_base=9999)
        rt.persist(rt.read_root(slot), 7)
        run_disciplined(rt, rt.major_collect)


def test_collection_without_dirty_cards_reads_nothing():
    with Runtime(make_config()) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        slot = build_chain(rt, desc, 10)
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # consumes migration-dirtied cards
        boundary_dirty = rt.h2.cards.count_dirty()
        log = AccessLog(rt)
        allowed = sanctioned_extents(rt)
        log.install()
        try:
            rt.minor_collect()
        finally:
            log.uninstall()
        for addr, size in log.reads:
            assert covered(allowed, addr, size)
        assert log.writes == []
        del boundary_dirty


def test_minor_over_card_aligned_objects_touches_only_dirty_segments():
    # 64-byte objects end exactly at every card end, so a scan reading one
    # word past a dirty card would read the first object of the next,
    # clean card.
    with Runtime(make_config()) as rt:
        desc = register_node_class(rt, refs=2, scalars=4)
        assert rt.h2.cards.segment % desc.instance_size == 0
        slot = build_chain(rt, desc, 400)  # three and a bit 8 KiB cards
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # cleans every non-boundary card
        h2 = rt.h2
        seg = h2.cards.segment
        obj = next(a for a in sorted(rt.iter_h2_objects()) if a >= h2.base + seg)
        rt.write_scalar(obj, 2, 5)
        assert [i for i in range(4) if h2.cards.is_dirty(i)] == [0, 1]
        run_disciplined(rt, rt.minor_collect)
        del slot
