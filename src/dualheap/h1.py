"""The garbage-collected primary heap (H1).

Spaces, from low addresses to high:

    eden | survivor 0 | survivor 1 | old generation

The young generation is split 8:1:1 between eden and the two survivor
halves.  Mutator allocation bumps eden; minor collections copy live young
objects into the idle survivor half (or promote them to the old
generation); major collections slide the old generation and absorb any
young survivors into it.

The old generation carries the classic old-to-young card table: one
dirtiness byte per `card_segment` bytes of old space.  The card for an
object is derived from the object's start address; scans therefore walk
every object overlapping a dirty segment, which is a superset of the
objects whose writes dirtied it.

Words are read and written through one `memoryview` of the heap buffer cast
to unsigned 64-bit words, indexed by the word offset from the young base.

Object starts in the old generation are tracked in a sorted list.  Old
space only grows by appending (promotion) and is rebuilt wholesale by
compaction, so the list stays sorted without ever being re-sorted.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, bisect_right

from .config import H1Config
from .objmodel import ClassRegistry, HeapLayout, word_class_id

CARD_CLEAN = 0
CARD_DIRTY = 1


class H1CardTable:
    """Old-to-young remembered set: one byte per old-generation segment."""

    def __init__(self, old_base: int, old_size: int, segment: int) -> None:
        self.base = old_base
        self.segment = segment
        self.n_cards = old_size // segment
        self.cards = bytearray(self.n_cards)

    def index_of(self, addr: int) -> int:
        return (addr - self.base) // self.segment

    def dirty(self, addr: int) -> None:
        self.cards[(addr - self.base) // self.segment] = CARD_DIRTY

    def clear_index(self, idx: int) -> None:
        self.cards[idx] = CARD_CLEAN

    def clear_all(self) -> None:
        self.cards[:] = bytes(self.n_cards)

    def dirty_indexes(self) -> list[int]:
        cards = self.cards
        out: list[int] = []
        idx = cards.find(CARD_DIRTY)
        while idx >= 0:
            out.append(idx)
            idx = cards.find(CARD_DIRTY, idx + 1)
        return out

    def segment_bounds(self, idx: int) -> tuple[int, int]:
        start = self.base + idx * self.segment
        return start, start + self.segment


class H1Heap:
    def __init__(
        self,
        layout: HeapLayout,
        cfg: H1Config,
        registry: ClassRegistry,
    ) -> None:
        self.layout = layout
        self.cfg = cfg
        self.registry = registry
        self.base = layout.young_base
        self.buf = mmap.mmap(-1, cfg.young_size + cfg.old_size)
        self.words = memoryview(self.buf).cast("Q")

        young = cfg.young_size
        self.eden_base = layout.young_base
        self.eden_size = young * 8 // 10
        self.surv_size = young // 10
        self.surv_base = (
            self.eden_base + self.eden_size,
            self.eden_base + self.eden_size + self.surv_size,
        )
        self.eden_top = self.eden_base
        # Index of the survivor half holding live objects between collections.
        self.live_surv = 0
        self.surv_top = list(self.surv_base)

        self.old_base = layout.old_base
        self.old_end = layout.old_end
        self.old_top = self.old_base
        self.old_starts: list[int] = []

        self.cards = H1CardTable(self.old_base, cfg.old_size, cfg.card_segment)

    def close(self) -> None:
        # The view must be released first: an mmap with exported buffers
        # refuses to close.
        self.words.release()
        self.buf.close()

    # -- raw word access ----------------------------------------------------

    def load_word(self, addr: int) -> int:
        return self.words[(addr - self.base) >> 3]

    def store_word(self, addr: int, value: int) -> None:
        self.words[(addr - self.base) >> 3] = value

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = addr - self.base
        return self.buf[off : off + size]

    def write_bytes(self, addr: int, data: bytes) -> None:
        off = addr - self.base
        self.buf[off : off + len(data)] = data

    def zero_range(self, start: int, end: int) -> None:
        if end > start:
            off = start - self.base
            self.buf[off : off + (end - start)] = bytes(end - start)

    # -- allocation ---------------------------------------------------------

    def alloc_eden(self, size: int) -> int | None:
        if self.eden_top + size > self.eden_base + self.eden_size:
            return None
        addr = self.eden_top
        self.eden_top += size
        return addr

    def eden_free(self) -> int:
        return self.eden_base + self.eden_size - self.eden_top

    def old_used(self) -> int:
        return self.old_top - self.old_base

    # -- object walking -----------------------------------------------------

    def object_size(self, addr: int) -> int:
        class_id = word_class_id(self.load_word(addr))
        return self.registry.get(class_id).instance_size

    def iter_span(self, start: int, end: int):
        """Yield object addresses for a gap-free bump-allocated span."""
        addr = start
        while addr < end:
            yield addr
            addr += self.object_size(addr)

    def iter_young_objects(self):
        yield from self.iter_span(self.eden_base, self.eden_top)
        base = self.surv_base[self.live_surv]
        yield from self.iter_span(base, self.surv_top[self.live_surv])

    def iter_old_objects(self):
        yield from self.iter_span(self.old_base, self.old_top)

    def old_objects_overlapping(self, seg_start: int, seg_end: int) -> list[int]:
        """Objects whose extent intersects [seg_start, seg_end).

        The candidate set is every object starting inside the segment plus
        at most one object spilling in from lower addresses.
        """
        starts = self.old_starts
        lo = bisect_left(starts, seg_start)
        out: list[int] = []
        if lo > 0:
            prev = starts[lo - 1]
            if prev + self.object_size(prev) > seg_start:
                out.append(prev)
        hi = bisect_right(starts, seg_end - 1, lo=lo)
        out.extend(starts[lo:hi])
        return out

    # -- space management during collections --------------------------------

    def reset_eden(self) -> None:
        self.zero_range(self.eden_base, self.eden_top)
        self.eden_top = self.eden_base

    def reset_survivor(self, idx: int) -> None:
        self.zero_range(self.surv_base[idx], self.surv_top[idx])
        self.surv_top[idx] = self.surv_base[idx]

    def reset_young(self) -> None:
        self.reset_eden()
        self.reset_survivor(0)
        self.reset_survivor(1)
        self.live_surv = 0
