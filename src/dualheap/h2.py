"""The file-backed second heap (H2).

H2 holds cached objects and is never traversed by the collector.  It is
organized as a sequence of fixed-size regions, each bump-allocated and
bound to one partition id at a time.  Liveness is tracked per region, not
per object:

  * a USED bit per region, cleared at the start of every major-collection
    marking phase and set whenever marking encounters an H1 reference into
    the region (or when migration appends objects to it);
  * region groups, formed by union-find whenever a cross-region H2
    reference is created (`note_reference`, called by the barrier, the
    migration and the adjust phase).  A group is reclaimed only as a
    whole, so a region can never be freed while a sibling holding a
    reference into it survives.  Merging is a single link; member
    enumeration is deferred to reclaim time.

Free regions wait in a min-heap and are taken lowest index first; the
allocated ones are kept in a set, so clearing USED bits, reclaiming and
listing regions cost what is allocated, not the configured region count.

A major collection asks `check_room` whether its marked objects fit the
free regions before it allocates any, under the same bump rule as
`allocate_in_region`, so running out of regions leaves H2 as it was.

Updates to H2 objects are tracked by a card table with one byte per
`card_segment` bytes.  For parallel scanning the table is partitioned into
fixed-size stripes; `scan_threads` consecutive stripes form a slice, and
scan thread `t` owns stripe `t` of every slice.  The first and last card
of each stripe are boundary cards: two neighboring threads may both walk
objects spanning the stripe edge, so boundary cards are never cleaned
during scans (only a region reset cleans them).  Consequently a dirty
boundary card is visited on every collection.

A visited card is walked only when it is touched.  `touched` holds one
byte per card, set when the card's words may hold an H1 reference that no
walk has seen: on every card an object overlaps when the object is
allocated (`allocate_in_region`) or a reference is stored into it through
the barrier (`dirty_card(addr, size)`), and on the one card of
`dirty_card(addr)`.  A scalar store only dirties its card (`mark_card`),
since it cannot add an H1 reference.  Every walk clears `touched`.  A walk
that finds references keeps their slot addresses, in walk order, in
`remembered`; a walk that finds none forgets the card.  A dirty card that
is not touched reads only its remembered slots and reports those still
holding an H1 address, in the same order; the rest of its words are not
read again.  The slots the minor fixup and the adjust phase rewrite are
ones the scan just reported, so they stay remembered and need no hook; a
slot whose target an adjust phase moved into H2 is dropped at the next
scan.  Freeing a region drops its cards' slots and `touched` bytes.

A scan pass visits only dirty cards: it asks the card bytes for the next
dirty index (`bytearray.find`) from its position, and a dirty card in
another thread's stripe sends it to the start of its own next stripe.  Its
cost follows the number of dirty cards and the bytes they cover, not the
size of the table or its number of stripes: a clean table costs one
`find` per scan thread.
Objects overlapping a dirty segment are located via the first-object
table (see `HeapSpace`); allocation inside a region is gap-free, so a walk
from a covered segment's entry parses every object overlapping it.  The
walk reads a card's words with one `load_words` call, from the card's
entry to the end of its allocated part, plus one more for the tail of a
last object that spills past it; it then steps through that list, not
through a `load_word` call per word.  `load_words` and, for remembered
slots, `load_word` are the scan's only payload reads, both bound from the
instance, so a wrapper installed on it sees every word the scan reads.

Payload words go through the mapping's word view, so the backing file is
a raw little-endian image of the heap.
"""

from __future__ import annotations

import heapq
import mmap
from collections import defaultdict
from pathlib import Path

from .config import H2Config
from .errors import HeapCorruptionError, RegionExhaustedError
from .objmodel import (
    CARD_CLEAN,
    CARD_DIRTY,
    CardTable,
    ClassRegistry,
    HeapLayout,
    HeapSpace,
)

UNASSIGNED = -1


def open_backing(backing: str, size: int):
    """mmap the H2 image: a new sparse file, or anonymous memory for tests.

    The file is created exclusively, so an existing path raises
    `FileExistsError` and keeps its bytes; `H2Heap.close()` removes it.
    """
    if backing == "anonymous":
        return mmap.mmap(-1, size), None
    path = Path(backing)
    fh = open(path, "x+b")
    try:
        fh.truncate(size)
        return mmap.mmap(fh.fileno(), size), fh
    except BaseException:
        fh.close()
        path.unlink()
        raise


class H2CardTable(CardTable):
    """Dirtiness bytes for H2 segments, partitioned into stripes and slices."""

    def __init__(self, base: int, size: int, segment: int, stripe: int, scan_threads: int) -> None:
        super().__init__(base, size, segment)
        self.scan_threads = scan_threads
        self.cards_per_stripe = stripe // segment
        self.n_stripes = size // stripe

    def is_boundary(self, idx: int) -> bool:
        pos = idx % self.cards_per_stripe
        return pos == 0 or pos == self.cards_per_stripe - 1

    def stripe_of(self, idx: int) -> int:
        return idx // self.cards_per_stripe

    def thread_of_card(self, idx: int) -> int:
        return self.stripe_of(idx) % self.scan_threads

    def cards_for_thread(self, thread_id: int):
        """Ascending card indexes owned by one scan thread.

        Thread `t` owns global stripes t, t+T, t+2T, ...: the stripe with
        index t inside every slice.
        """
        for stripe in range(thread_id, self.n_stripes, self.scan_threads):
            start = stripe * self.cards_per_stripe
            yield from range(start, start + self.cards_per_stripe)

    def count_dirty_boundary(self) -> int:
        per = self.cards_per_stripe
        first = self.cards[::per].count(CARD_DIRTY)
        if per == 1:  # the first card of a stripe is also its last
            return first
        return first + self.cards[per - 1 :: per].count(CARD_DIRTY)


class H2Heap(HeapSpace):
    def __init__(
        self,
        layout: HeapLayout,
        cfg: H2Config,
        registry: ClassRegistry,
        counters: defaultdict[str, int],
    ) -> None:
        buf, self._fh = open_backing(cfg.backing, cfg.size)
        cards = H2CardTable(
            layout.h2_base, cfg.size, cfg.card_segment, cfg.stripe_size, cfg.scan_threads
        )
        super().__init__(layout.h2_base, buf, registry, cards)
        self.layout = layout
        self.cfg = cfg
        self.counters = counters

        self.size = cfg.size
        self.region_size = cfg.region_size
        self.n_regions = cfg.size // cfg.region_size
        self.cards_per_region = cfg.region_size // cfg.card_segment
        self.touched = bytearray(cards.n_cards)
        # Card index -> the slots its last walk found holding H1 addresses.
        self.remembered: dict[int, list[int]] = {}

        # Per-region metadata.
        self.alloc_offsets = [0] * self.n_regions
        self.partition_ids = [UNASSIGNED] * self.n_regions
        self.used_bits = [False] * self.n_regions
        # Union-find over region indexes; singleton set == ungrouped region.
        self._group_parent = list(range(self.n_regions))
        self._group_size = [1] * self.n_regions
        self._free: list[int] = list(range(self.n_regions))  # a min-heap
        self._allocated: set[int] = set()  # regions bound to a partition
        self._open_region: dict[int, int] = {}  # partition id -> region index

    def close(self) -> None:
        super().close()
        if self._fh is not None:
            self._fh.close()
            # This heap created the image, so a later run may reuse the path.
            Path(self._fh.name).unlink(missing_ok=True)

    # -- regions ------------------------------------------------------------

    def region_of(self, addr: int) -> int:
        return (addr - self.base) // self.region_size

    def region_start(self, idx: int) -> int:
        return self.base + idx * self.region_size

    def region_alloc_end(self, idx: int) -> int:
        return self.region_start(idx) + self.alloc_offsets[idx]

    def allocated_regions(self) -> list[int]:
        return sorted(self._allocated)

    def _take_free_region(self, partition_id: int) -> int:
        if not self._free:
            raise RegionExhaustedError("no free H2 region")
        idx = heapq.heappop(self._free)
        self._allocated.add(idx)
        self.partition_ids[idx] = partition_id
        self._open_region[partition_id] = idx
        return idx

    def _fits_open_region(self, fill: int | None, size: int) -> bool:
        """The bump rule: `size` bytes fit a partition's open region filled
        to `fill` bytes (None: no open region), or they open a fresh one."""
        if size > self.region_size:
            raise RegionExhaustedError(
                f"object of {size} bytes exceeds region size {self.region_size}"
            )
        return fill is not None and fill + size <= self.region_size

    def check_room(self, requests: list[tuple[int, int]]) -> None:
        """Raise `RegionExhaustedError`, changing nothing, unless allocating
        the `(partition_id, size)` requests in order fits the free regions."""
        fill = {pid: self.alloc_offsets[idx] for pid, idx in self._open_region.items()}
        fresh = 0
        for pid, size in requests:
            if not self._fits_open_region(fill.get(pid), size):
                fresh += 1
                fill[pid] = 0
            fill[pid] += size
        if fresh > len(self._free):
            raise RegionExhaustedError(f"{fresh} fresh H2 regions needed, {len(self._free)} free")

    def allocate_in_region(self, partition_id: int, size: int) -> int:
        """Bump-allocate `size` bytes in the partition's open region.

        Opens a fresh region when the current one cannot fit the object.
        The receiving region's USED bit is set: it holds live objects whose
        inbound references were just created, so it must survive the
        reclaim at the end of the cycle that populated it.
        """
        idx = self._open_region.get(partition_id)
        if not self._fits_open_region(None if idx is None else self.alloc_offsets[idx], size):
            idx = self._take_free_region(partition_id)
        addr = self.region_start(idx) + self.alloc_offsets[idx]
        self.alloc_offsets[idx] += size
        self.used_bits[idx] = True
        self.enter_objects([addr], addr + size)
        # Touch every card the object overlaps: no walk has seen its words.
        first = (addr - self.base) // self.cards.segment
        last = (addr + size - 1 - self.base) // self.cards.segment
        self.touched[first : last + 1] = b"\x01" * (last + 1 - first)
        return addr

    # -- cards --------------------------------------------------------------

    def mark_card(self, addr: int) -> int:
        """Dirty the card of `addr` without touching it, and return its
        index.  This is the barrier's path for a scalar store, which cannot
        add an H1 reference."""
        cards = self.cards.cards
        idx = (addr - self.base) // self.cards.segment
        if cards[idx] == CARD_CLEAN:
            cards[idx] = CARD_DIRTY
            self.counters["h2_cards_dirtied"] += 1
        return idx

    def dirty_card(self, addr: int, size: int = 8) -> None:
        """Dirty the card of `addr` and touch every card that the `size`
        bytes at `addr` overlap.

        The barrier passes the object's instance size, since each card's
        walk covers a whole spilling object.  The default, one word, keeps
        the call card-level: only the card of `addr` is touched.
        """
        idx = self.mark_card(addr)
        last = (addr - self.base + size - 1) // self.cards.segment
        if last == idx:  # most objects fit one card
            self.touched[idx] = 1
        else:
            self.touched[idx : last + 1] = b"\x01" * (last + 1 - idx)

    def scan_dirty_cards(self, thread_id: int) -> tuple[list[tuple[int, int]], int]:
        """Walk this thread's dirty cards and collect backward references.

        Returns ``(backward_refs, cards_scanned)`` where each backward
        reference is ``(slot_address, h1_target)``.  Cards are visited in
        ascending order.  A visited card is cleaned only when the walk over
        every object overlapping its segment found no H1-targeting slot and
        the card is not a boundary card.

        A visited card is walked only when it is touched, and every walk
        clears the card's `touched` byte.  The walk's H1-holding slots are
        remembered for the card.  An untouched card re-reads only its
        remembered slots, keeps and reports those still holding an H1
        address, and is otherwise counted and cleaned as if walked.  Dirty
        boundary cards are thus visited on every collection but walked only
        after a reference store or an allocation has written them.

        Each walked card costs one `load_words` read of the words from its
        first-object entry to the end of its allocated part, and a second
        one, of exactly the missing tail, when the last object runs past
        that end.  Headers and reference slots are then indexed in the list.
        An untouched card costs one `load_word` per remembered slot.
        """
        # Bound once: every payload read goes through these two.
        load_words = self.load_words
        load_word = self.load_word
        lookup = self.registry.maybe_get
        # HeapLayout.is_h1, inlined: this test runs once per reference slot.
        layout = self.layout
        young_lo, young_hi = layout.young_base, layout.young_end
        old_lo, old_hi = layout.old_base, layout.old_end
        table = self.cards
        cards = table.cards
        per = table.cards_per_stripe
        segment = table.segment
        per_region = self.cards_per_region
        base = self.base
        first_obj = self.first_obj
        touched = self.touched
        remembered = self.remembered
        refs: list[tuple[int, int]] = []
        cards_scanned = 0
        bytes_walked = 0
        threads = table.scan_threads
        # One search runs over the whole table.  A dirty card in another
        # thread's stripe sends it on to the start of this thread's next
        # stripe, so a clean table costs one `find`, however many stripes.
        idx = cards.find(CARD_DIRTY, thread_id * per)
        while idx >= 0:
            stripe = idx // per
            skip = (thread_id - stripe) % threads
            if skip:
                idx = cards.find(CARD_DIRTY, (stripe + skip) * per)
                continue
            cards_scanned += 1
            seg_start = base + idx * segment
            walk_end = min(seg_start + segment, self.region_alloc_end(idx // per_region))
            if walk_end > seg_start:
                bytes_walked += walk_end - seg_start
            start = first_obj[idx]
            slots: list[int] = []  # this card's slots holding H1 addresses
            if touched[idx]:
                touched[idx] = 0
                if start and start < walk_end:
                    # w[i] is the word at start + 8 * i; the walk ends at n.
                    w = load_words(start, walk_end)
                    n = len(w)
                    i = 0
                    while i < n:
                        desc = lookup(w[i] >> 32)
                        if desc is None:
                            raise HeapCorruptionError(
                                f"unparseable object header at {start + (i << 3):#x}"
                            )
                        end = i + (desc.instance_size >> 3)
                        if end > n:  # the last object spills past walk_end
                            w += load_words(walk_end, start + (end << 3))
                        for r in desc.ref_words:
                            value = w[i + r]
                            if young_lo <= value < young_hi or old_lo <= value < old_hi:
                                slot = start + ((i + r) << 3)
                                slots.append(slot)
                                refs.append((slot, value))
                        i = end
            else:
                for slot in remembered.get(idx, ()):
                    value = load_word(slot)
                    if young_lo <= value < young_hi or old_lo <= value < old_hi:
                        slots.append(slot)
                        refs.append((slot, value))
            if slots:
                remembered[idx] = slots
            else:
                remembered.pop(idx, None)
                if 0 < idx - stripe * per < per - 1:  # not a boundary card
                    cards[idx] = CARD_CLEAN
            idx = cards.find(CARD_DIRTY, idx + 1)
        counters = self.counters
        if bytes_walked:
            counters["h2_segment_bytes_walked"] += bytes_walked
        counters["h2_cards_scanned"] += cards_scanned
        counters["backward_refs_found"] += len(refs)
        return refs, cards_scanned

    # -- liveness: USED bits and region groups ------------------------------

    def begin_mark(self) -> None:
        used_bits = self.used_bits
        for i in self._allocated:  # a free region's bit is unread until allocation sets it
            used_bits[i] = False

    def set_used(self, region_index: int) -> None:
        self.used_bits[region_index] = True

    def group_root(self, idx: int) -> int:
        parent = self._group_parent
        root = idx
        while parent[root] != root:
            root = parent[root]
        while parent[idx] != root:  # path compression
            parent[idx], idx = root, parent[idx]
        return root

    def note_reference(self, slot: int, target: int) -> None:
        """Record that the H2 word at `slot` holds `target`.

        A target in another H2 region merges the two regions' groups, so
        the target's group cannot be reclaimed while this region still
        points into it.
        """
        if self.base <= target < self.base + self.size:
            src, dst = self.region_of(slot), self.region_of(target)
            if src != dst:
                self.merge_groups(src, dst)

    def merge_groups(self, src_region: int, dst_region: int) -> None:
        """Union the two regions' groups; constant-time link by size."""
        a, b = self.group_root(src_region), self.group_root(dst_region)
        if a == b:
            return
        if self._group_size[a] < self._group_size[b]:
            a, b = b, a
        self._group_parent[b] = a
        self._group_size[a] += self._group_size[b]

    def group_members(self, idx: int) -> list[int]:
        root = self.group_root(idx)
        return [i for i in sorted(self._allocated) if self.group_root(i) == root]

    def reclaim_free_regions(self) -> list[int]:
        """Free every group whose member regions all have USED clear.

        Freeing touches region metadata and cards only; the work is
        proportional to the allocated regions and the freed cards, never to
        object counts or to the configured number of regions.  Cleaning a
        freed region's cards is the one place boundary cards transition
        back to clean.
        """
        groups: dict[int, list[int]] = {}
        group_used: dict[int, bool] = {}
        for i in self._allocated:
            self.counters["reclaim_ops"] += 1
            root = self.group_root(i)
            groups.setdefault(root, []).append(i)
            group_used[root] = group_used.get(root, False) or self.used_bits[i]
        freed: list[int] = []
        for root, members in groups.items():
            if group_used[root]:
                continue
            for i in members:
                self.alloc_offsets[i] = 0
                pid = self.partition_ids[i]
                self.partition_ids[i] = UNASSIGNED
                self.used_bits[i] = False
                self._group_parent[i] = i
                self._group_size[i] = 1
                if self._open_region.get(pid) == i:
                    del self._open_region[pid]
                card_lo = i * self.cards_per_region
                card_hi = card_lo + self.cards_per_region
                self.cards.cards[card_lo:card_hi] = bytes(self.cards_per_region)
                self.touched[card_lo:card_hi] = bytes(self.cards_per_region)
                self.first_obj[card_lo:card_hi] = [0] * self.cards_per_region
                for c in range(card_lo, card_hi):
                    self.remembered.pop(c, None)
                self.counters["reclaim_ops"] += 3 + 2 * self.cards_per_region
                self._allocated.discard(i)
                heapq.heappush(self._free, i)
                freed.append(i)
        freed.sort()
        self.counters["regions_freed"] += len(freed)
        return freed
