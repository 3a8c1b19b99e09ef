"""Stop-the-world collections over H1.

Minor collection is a copying collection of the young generation.  Its
root sources are the mutator root set, old-generation objects overlapping
dirty old-to-young cards, and backward references discovered by scanning
the H2 dirty cards.  Live young objects are copied into the idle survivor
half, or promoted to the old generation once their age reaches the
tenuring threshold (or when the survivor half overflows).  Relocation is
planned before any byte moves, so a promotion overflow aborts cleanly and
escalates to a major collection.

Major collection runs four phases over the whole of H1:

  mark        breadth-first from roots plus the backward-reference stack,
              keeping each live H1 object's image; never traverses into H2
              but records region usage (USED bits), then marks the
              non-transient closure of every persist hint
  precompact  relocation targets: unmarked survivors slide to compacted
              old addresses (surviving young objects are absorbed into
              old), then marked objects get H2 addresses from the region
              allocator; references are forwarded in the images, forward
              references into H2 are left untouched
  compact     marked objects' images are stored in H2, one store per
              image, then the slide is stored as one run of images from
              its first object that moves or changes
  adjust      every slot on the backward-reference stack is rewritten to
              its referent's new address

At the very end, unreachable H2 region groups are reclaimed in bulk.

Relocation maps live in side dictionaries keyed by pre-move address rather
than in overwritten header words.  The phases after mark work from mark's
images, so each live H1 object is read once, at mark, and written once, at
compact.  Apart from the cache marks that closure marking sets, nothing is
written to either heap before the slide is planned and the H2 room
checked, so a major that fails there leaves every object in place.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from .errors import HeapError, HeapExhaustedError
from .metrics import MajorStats, MinorStats
from .migration import PersistHint, etr_mark_closure, transfer_marked
from .objmodel import bump_age, cache_word_partition, word_age

if TYPE_CHECKING:
    from .runtime import Runtime


class PromotionOverflowError(HeapError):
    """Minor collection could not promote; a major collection is needed."""


class Collector:
    def __init__(self, rt: "Runtime") -> None:
        self.rt = rt
        self.minor_index = 0
        self.major_index = 0

    # ------------------------------------------------------------------
    # shared pieces

    def _scan_h2_cards(self) -> tuple[list[tuple[int, int]], int]:
        """Run every scan thread's stripe pass and merge the results.

        The per-thread passes touch disjoint cards (one stripe per slice
        each) and are executed here one after another; merging in thread-id
        order keeps the stack deterministic.
        """
        rt = self.rt
        stack: list[tuple[int, int]] = []
        cards = 0
        for tid in range(rt.config.h2.scan_threads):
            refs, n = rt.h2.scan_dirty_cards(tid)
            stack.extend(refs)
            cards += n
        rt.backward_stack = stack
        return stack, cards

    def _collect_old_card_slots(self) -> tuple[list[tuple[int, int]], list[int], int]:
        """Slots in dirty old segments whose value is young.

        Returns (slot, owner) pairs, the card indexes visited, and the
        number of dirty cards scanned.  Each card's objects are walked from
        its first-object entry, as in the H2 scan.  Cards are not cleared
        here; the commit phase clears and selectively re-dirties them.
        """
        h1 = self.rt.h1
        object_words = h1.object_words
        young_lo, young_hi = h1.layout.young_base, h1.layout.young_end
        first_obj = h1.first_obj
        slots: list[tuple[int, int]] = []
        dirty = h1.cards.dirty_indexes()
        for idx in dirty:
            seg_end = min(h1.cards.segment_bounds(idx)[1], h1.old_top)
            obj = first_obj[idx]
            while obj and obj < seg_end:
                desc, w = object_words(obj)
                for k in desc.ref_words:
                    if young_lo <= w[k] < young_hi:
                        slots.append((obj + (k << 3), obj))
                obj += desc.instance_size
        return slots, dirty, len(dirty)

    # ------------------------------------------------------------------
    # minor collection

    def minor(self) -> MinorStats:
        rt = self.rt
        h1 = rt.h1
        layout = rt.layout
        t0 = time.perf_counter()
        self.minor_index += 1
        stats = MinorStats(index=self.minor_index)
        phases = stats.phase_seconds

        backward, stats.h2_cards_scanned = self._scan_h2_cards()
        phases["h2_scan"] = time.perf_counter() - t0
        t_phase = time.perf_counter()
        old_slots, scanned_cards, stats.h1_cards_scanned = self._collect_old_card_slots()
        phases["h1_cards"] = time.perf_counter() - t_phase

        # Root values that live in the young generation seed the copy.
        t_phase = time.perf_counter()
        seeds: list[int] = []
        for value in rt.root_values():
            stats.roots_scanned += 1
            if value and layout.is_young(value):
                seeds.append(value)
        for slot, _owner in old_slots:
            seeds.append(h1.load_word(slot))
        # The scan reported each backward slot's value, and nothing writes
        # H2 before the fixup below.
        for _slot, value in backward:
            if layout.is_young(value):
                seeds.append(value)

        # Pass 1: trace the live young graph (read-only), keeping each live
        # object's image for the passes below.  Nothing writes a young
        # object before the copy, so the images stay current.
        object_words = h1.object_words
        young_lo, young_hi = layout.young_base, layout.young_end
        visited: set[int] = set()
        order: list[int] = []
        images: list[tuple] = []
        queue: deque[int] = deque()
        for addr in seeds:
            if addr not in visited:
                visited.add(addr)
                order.append(addr)
                queue.append(addr)
        while queue:
            desc, w = image = object_words(queue.popleft())
            images.append(image)
            for k in desc.ref_words:
                value = w[k]
                if young_lo <= value < young_hi and value not in visited:
                    visited.add(value)
                    order.append(value)
                    queue.append(value)
        phases["trace"] = time.perf_counter() - t_phase

        # Pass 2: plan destinations.  Aborting here leaves the heap intact.
        t_phase = time.perf_counter()
        to_idx = 1 - h1.live_surv
        to_cursor = h1.surv_base[to_idx]
        to_limit = h1.surv_base[to_idx] + h1.surv_size
        old_cursor = h1.old_top
        threshold = rt.config.h1.tenuring_threshold
        forwarded: dict[int, int] = {}
        promoted: list[int] = []  # destinations, in address order
        for addr, (desc, w) in zip(order, images):
            size = desc.instance_size
            wants_old = word_age(w[0]) + 1 >= threshold
            if not wants_old and to_cursor + size <= to_limit:
                forwarded[addr] = to_cursor
                to_cursor += size
            else:
                if old_cursor + size > h1.old_end:
                    raise PromotionOverflowError(
                        f"promotion of {size} bytes overflows the old generation"
                    )
                forwarded[addr] = old_cursor
                promoted.append(old_cursor)
                old_cursor += size
        phases["plan"] = time.perf_counter() - t_phase

        # Pass 3: copy and fix in one pass.  Scanned cards are consumed
        # first; a promoted object that still holds a young reference
        # re-dirties its card (its segment's stale dirt may just have been
        # consumed).  Each image gets its age bumped and its young
        # references forwarded, and is stored at its destination with one
        # write.  Destinations (the idle survivor half and the old top)
        # never overlap sources, so no image is stale when stored.
        # Promotion destinations grow from the old top, so the promoted
        # objects enter the first-object index as one run.
        t_phase = time.perf_counter()
        cards = h1.cards
        for idx in scanned_cards:
            cards.clear_index(idx)
        old_base = h1.old_base
        for addr, (desc, w) in zip(order, images):
            dest = forwarded[addr]
            w[0] = bump_age(w[0])
            has_young_ref = False
            for k in desc.ref_words:
                value = w[k]
                if value in forwarded:
                    value = w[k] = forwarded[value]
                if young_lo <= value < young_hi:
                    has_young_ref = True
            h1.store_words(dest, w)
            if has_young_ref and dest >= old_base:
                cards.dirty(dest)
            stats.bytes_copied += desc.instance_size
        h1.enter_objects(promoted, old_cursor)
        h1.old_top = old_cursor
        h1.surv_top[to_idx] = to_cursor
        stats.objects_promoted = len(promoted)
        stats.objects_copied = len(order) - len(promoted)
        phases["copy"] = time.perf_counter() - t_phase

        # Fix every other slot that can hold a young address.
        t_phase = time.perf_counter()
        rt.rewrite_roots(forwarded)
        for slot, _owner in old_slots:
            value = h1.load_word(slot)
            if value in forwarded:
                h1.store_word(slot, forwarded[value])
        for slot, value in dict(backward).items():  # a spilling slot may repeat
            if value in forwarded:
                rt.store_word(slot, forwarded[value])

        # Re-dirty owners whose scanned slots still hold young references
        # (their targets stayed in the young generation).
        for slot, owner in old_slots:
            value = h1.load_word(slot)
            if value and layout.is_young(value):
                h1.cards.dirty(owner)

        h1.reset_eden()
        h1.reset_survivor(h1.live_surv)
        h1.live_surv = to_idx
        phases["fixup"] = time.perf_counter() - t_phase

        stats.backward_refs = len(backward)
        stats.seconds = time.perf_counter() - t0
        self._account_minor(stats)
        return stats

    def _account_minor(self, stats: MinorStats) -> None:
        c = self.rt.counters
        c["minor_count"] += 1
        c["objects_copied_minor"] += stats.objects_copied
        c["objects_promoted"] += stats.objects_promoted
        c["h1_cards_scanned"] += stats.h1_cards_scanned
        c["minor_seconds"] += stats.seconds

    # ------------------------------------------------------------------
    # major collection

    def major(self, skip_minor: bool = False) -> MajorStats:
        rt = self.rt
        h1 = rt.h1
        h2 = rt.h2
        layout = rt.layout
        t0 = time.perf_counter()
        self.major_index += 1
        stats = MajorStats(index=self.major_index)

        # With skip_minor the caller is a minor collection that overflowed.
        # A minor that overflows does so after its H2 scan, so either way the
        # backward stack is current here; full compaction below absorbs the
        # young generation in place.
        if not skip_minor:
            try:
                self.minor()
            except PromotionOverflowError:
                pass
        stats.old_bytes_before = h1.old_used()

        # -- mark ----------------------------------------------------------
        # Each live H1 object's image is read once, here, and kept: the
        # phases below classify, forward and store from it.  Nothing writes
        # a live H1 object before compact except closure marking, which
        # updates the image too.
        t_phase = time.perf_counter()
        h2.begin_mark()
        object_words = h1.object_words
        live: dict[int, tuple] = {}  # address -> (descriptor, words)
        queue: deque[tuple] = deque()

        def note(value: int) -> None:
            if layout.is_h2(value):
                h2.set_used(h2.region_of(value))
            elif layout.is_h1(value) and value not in live:
                live[value] = image = object_words(value)
                queue.append(image)

        for value in rt.root_values():
            if value:
                note(value)
        for slot in dict.fromkeys(s for s, _ in rt.backward_stack):
            value = rt.load_word(slot)
            if value and layout.is_h1(value):
                note(value)
        h1_lo, h1_hi = layout.young_base, layout.old_end  # HeapLayout.is_h1, inlined
        while queue:
            desc, w = queue.popleft()
            for k in desc.ref_words:
                value = w[k]
                if h1_lo <= value < h1_hi:
                    if value not in live:
                        live[value] = image = object_words(value)
                        queue.append(image)
                elif value:
                    note(value)

        rt.hints = dict.fromkeys(root for root in rt.hints if root in live)
        hinted = [PersistHint(r, cache_word_partition(live[r][1][1])) for r in rt.hints]
        stats.marked_objects = etr_mark_closure(rt, hinted, live) if hinted else 0
        stats.phase_seconds["mark"] = time.perf_counter() - t_phase

        # -- precompact ------------------------------------------------------
        t_phase = time.perf_counter()
        old_base = h1.old_base
        forwarded: dict[int, int] = {}
        marked_list: list[int] = []
        requests: list[tuple[int, int]] = []  # (partition id, size) per marked object
        slide_old: list[int] = []
        absorb_young: list[int] = []
        for addr in sorted(live):
            desc, w = live[addr]
            if w[1] & 1:  # the cache-candidate mark
                marked_list.append(addr)
                requests.append((cache_word_partition(w[1]), desc.instance_size))
            elif addr >= old_base:
                slide_old.append(addr)
            else:
                absorb_young.append(addr)
        # The H1 slide is planned and the H2 room checked first, so either
        # failure leaves both heaps as they were.
        slide = slide_old + absorb_young
        cursor = old_base
        new_starts: list[int] = []
        unmoved = 0  # the slide's prefix that keeps its place
        for addr in slide:
            size = live[addr][0].instance_size
            if cursor + size > h1.old_end:
                raise HeapExhaustedError(
                    f"live data ({cursor + size - old_base} bytes) exceeds "
                    f"the old generation ({h1.old_end - old_base} bytes)"
                )
            forwarded[addr] = cursor
            if cursor == addr:
                unmoved += 1
            new_starts.append(cursor)
            cursor += size
        h2.check_room(requests)
        for addr, (pid, size) in zip(marked_list, requests):
            forwarded[addr] = h2.allocate_in_region(pid, size)
        # References are forwarded in the images; the heap is not written.
        changed: set[int] = set()
        for addr, (desc, w) in live.items():
            for k in desc.ref_words:
                new = forwarded.get(w[k])
                if new is not None and new != w[k]:
                    w[k] = new
                    changed.add(addr)
        rt.rewrite_roots(forwarded)
        stats.phase_seconds["precompact"] = time.perf_counter() - t_phase

        # -- compact ---------------------------------------------------------
        # The slide is stored as one run of images, from its first object
        # that moves or changes; the objects before it are in place already.
        t_phase = time.perf_counter()
        moves = [(forwarded[addr], live[addr]) for addr in marked_list]
        (stats.objects_moved_to_h2, stats.bytes_moved_to_h2,
         stats.h2_flush_ops) = transfer_marked(rt, moves)
        first = next((i for i in range(unmoved) if slide[i] in changed), unmoved)
        if first < len(slide):
            run: list[int] = []
            for addr in slide[first:]:
                run += live[addr][1]
            h1.store_words(new_starts[first], run)
        h1.finish_slide(new_starts[unmoved:], cursor)
        h1.reset_young()
        h1.cards.clear_all()
        stats.phase_seconds["compact"] = time.perf_counter() - t_phase

        # -- adjust ----------------------------------------------------------
        t_phase = time.perf_counter()
        for slot in dict.fromkeys(s for s, _ in rt.backward_stack):
            value = rt.load_word(slot)
            if value in forwarded:
                new = forwarded[value]
                rt.store_word(slot, new)
                h2.note_reference(slot, new)
        rt.backward_stack = []
        stats.phase_seconds["adjust"] = time.perf_counter() - t_phase

        stats.regions_freed = h2.reclaim_free_regions()
        # Closure marking marked every live hinted root, so precompact
        # forwarded each one into H2: no hint is pending any more.
        rt.hints.clear()

        stats.live_objects = len(live)
        stats.old_bytes_after = h1.old_used()
        stats.seconds = time.perf_counter() - t0
        self._account_major(stats)
        return stats

    def _account_major(self, stats: MajorStats) -> None:
        c = self.rt.counters
        c["major_count"] += 1
        c["major_seconds"] += stats.seconds
        for phase, secs in stats.phase_seconds.items():
            c[f"{phase}_seconds"] += secs
