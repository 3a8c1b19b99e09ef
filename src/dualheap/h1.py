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

Old-card scans find a card's objects through the first-object table over
the old cards, as in H2.  Promotion enters the promoted objects; compaction
re-enters the objects that moved and zeroes the entries past the new top.
"""

from __future__ import annotations

import mmap

from .config import H1Config
from .objmodel import CARD_CLEAN, CARD_DIRTY, CardTable, ClassRegistry, HeapLayout, HeapSpace


class H1CardTable(CardTable):
    """Old-to-young remembered set: one byte per old-generation segment."""

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


class H1Heap(HeapSpace):
    def __init__(
        self,
        layout: HeapLayout,
        cfg: H1Config,
        registry: ClassRegistry,
    ) -> None:
        buf = mmap.mmap(-1, cfg.young_size + cfg.old_size)
        cards = H1CardTable(layout.old_base, cfg.old_size, cfg.card_segment)
        super().__init__(layout.young_base, buf, registry, cards)
        self.layout = layout
        self.cfg = cfg

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

    def zero_range(self, start: int, end: int) -> None:
        if end > start:
            base = self.base
            zeros = memoryview(bytes(end - start)).cast("Q")
            self.words[(start - base) >> 3 : (end - base) >> 3] = zeros

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

    def iter_young_objects(self):
        yield from self.iter_span(self.eden_base, self.eden_top)
        base = self.surv_base[self.live_surv]
        yield from self.iter_span(base, self.surv_top[self.live_surv])

    def iter_old_objects(self):
        yield from self.iter_span(self.old_base, self.old_top)

    # -- space management during collections --------------------------------

    def finish_slide(self, moved: list[int], new_top: int) -> None:
        """Close a compaction of old space that ends at `new_top`.

        `moved` are the new addresses, in order, of the objects that moved;
        the objects below the first of them kept their places, so their
        first-object entries still hold.  The space and the entries past
        the new top are zeroed.
        """
        old_top = self.old_top
        self.zero_range(new_top, old_top)
        self.old_top = new_top
        self.enter_objects(moved, new_top)
        cards = self.cards
        lo = -((cards.base - new_top) // cards.segment)  # first card at or after new_top
        hi = -((cards.base - old_top) // cards.segment)
        self.first_obj[lo:hi] = [0] * (hi - lo)

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
