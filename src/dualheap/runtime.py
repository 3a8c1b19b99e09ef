"""The application-facing heap runtime.

One `Runtime` owns both heaps, the class registry, the mutator root set
and the collector.  All object access goes through handles, which are
plain integer addresses in a combined address space:

    [young generation][old generation] ... gap ... [H2 regions]

Loads and stores resolve the heap with a single range check and then index
that heap's word view (its buffer cast to unsigned 64-bit words) at the word
offset from the heap base, so H1 and H2 objects share one code path and no
lookup or translation step.  Heap addresses of words are 8-byte aligned.

The mutator API (`read_ref`, `write_ref`, `read_scalar`, `write_scalar`)
resolves a handle once: one range test gives the heap's word view, the
field's index in it, the descriptor and the space, and the access then
indexes the view.  The trace driver's traversal (`closure`) reads each
object in place from the word views in the same way, with no per-object
call or copy.  The other object walkers (the serializer, the collections
and closure marking) read whole object images: `object_words` returns an
object's descriptor and all its words from one native read, and they
index that list.  Per-word access (`load_word`, `store_word`,
`descriptor_of`) serves single slots and header words: the collections'
slot fixes and the cache marks.

Roots are numbered slots (`add_root`) plus one pinned list:
`allocate_many` allocates a graph's objects one by one and keeps the
addresses allocated so far in that list, which `root_values` yields after
every slot and `rewrite_roots` rewrites, so a collection that an
allocation triggers moves them like any other root.  The persist hints
(`persist`) are weak roots: `rewrite_roots` forwards them too, but
`root_values` does not yield them, so a hint whose root dies is dropped.

The post-write barrier after every reference store performs one range
classification and at most one card-byte store: writes into old-generation
objects dirty the old-to-young card when the stored value is young, and
writes into H2 objects dirty the H2 card unconditionally.  Scalar stores
to H2 dirty the card as well (the barrier does not inspect the slot kind),
but do not touch it (`H2Heap.mark_card`): a scalar cannot add a backward
reference, so the next scan does not walk the card on its account.  An H2
reference store also sets the `touched` bytes of every card the object
overlaps (see `H2Heap.dirty_card`), from the instance size that the field
check already resolved.

Collections are stop-the-world: no mutator call may overlap a collection.
The runtime is single-mutator; the barrier itself is idempotent byte
stores and would tolerate more, but multi-mutator runs are out of scope.
"""

from __future__ import annotations

from collections import defaultdict

from .collector import Collector, PromotionOverflowError
from .config import RuntimeConfig
from .errors import (
    HeapCorruptionError,
    HeapError,
    HeapExhaustedError,
    InvalidFieldError,
    InvalidHandleError,
    InvalidSlotError,
)
from .h1 import H1Heap
from .h2 import H2Heap
from .metrics import MajorStats, MinorStats
from .objmodel import (
    HEADER_SIZE,
    PARTITION_ID_LIMIT,
    ClassDescriptor,
    ClassRegistry,
    FieldKind,
    FieldSpec,
    HeapLayout,
    SpaceKind,
    cache_word,
    class_age_word,
    word_class_id,
)

H1_BASE = 1 << 16
_MIB = 1 << 20

# Enum members bound once: on Python 3.11 each `SpaceKind.H2`-style class
# attribute lookup costs about as much as the rest of a field's resolution.
_REF, _SCALAR = FieldKind.REF, FieldKind.SCALAR
_YOUNG, _OLD, _H2 = SpaceKind.H1_YOUNG, SpaceKind.H1_OLD, SpaceKind.H2


def build_layout(cfg: RuntimeConfig) -> HeapLayout:
    young_base = H1_BASE
    young_end = young_base + cfg.h1.young_size
    old_base = young_end
    old_end = old_base + cfg.h1.old_size
    # Leave at least one MiB of unmapped addresses before H2 so one-past-end
    # H1 addresses can never be mistaken for the H2 base.
    h2_base = ((old_end // _MIB) + 2) * _MIB
    return HeapLayout(
        young_base=young_base,
        young_end=young_end,
        old_base=old_base,
        old_end=old_end,
        h2_base=h2_base,
        h2_end=h2_base + cfg.h2.size,
    )


class Runtime:
    def __init__(self, config: RuntimeConfig) -> None:
        config.validate()
        self.config = config
        self.layout = build_layout(config)
        self.registry = ClassRegistry()
        # The one registry of run totals: work counters and *_seconds sums.
        self.counters: defaultdict[str, int | float] = defaultdict(int)

        self.h1 = H1Heap(self.layout, config.h1, self.registry)
        try:
            self.h2 = H2Heap(self.layout, config.h2, self.registry, self.counters)
        except BaseException:
            self.h1.close()
            raise

        self._roots: dict[int, int] = {}
        self._root_tags: dict[int, int] = {}
        self._next_slot = 1
        # The addresses `allocate_many` has allocated so far, while it runs.
        self._pinned: list[int] = []

        # Pending persist hints: weak roots, in first-persist order.
        self.hints: dict[int, None] = {}
        self.backward_stack: list[tuple[int, int]] = []
        self.collector = Collector(self)
        # Optional callback fired after every top-level collection:
        # listener(kind, stats) with kind in {"minor", "major"}.
        self.collection_listener = None

    def close(self) -> None:
        self.h2.close()
        self.h1.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # word access: one range check resolves either heap

    def load_word(self, addr: int) -> int:
        layout = self.layout
        if layout.young_base <= addr < layout.old_end:
            return self.h1.words[(addr - layout.young_base) >> 3]
        if layout.h2_base <= addr < layout.h2_end:
            return self.h2.words[(addr - layout.h2_base) >> 3]
        raise InvalidHandleError(f"address {addr:#x} outside all heap spaces")

    def store_word(self, addr: int, value: int) -> None:
        layout = self.layout
        if layout.young_base <= addr < layout.old_end:
            self.h1.words[(addr - layout.young_base) >> 3] = value
            return
        if layout.h2_base <= addr < layout.h2_end:
            self.h2.words[(addr - layout.h2_base) >> 3] = value
            return
        raise InvalidHandleError(f"address {addr:#x} outside all heap spaces")

    def object_words(self, addr: int) -> tuple[ClassDescriptor, list[int]]:
        """The descriptor and image of the object at `addr`: one range
        check, then `HeapSpace.object_words` of the heap holding it."""
        layout = self.layout
        if layout.young_base <= addr < layout.old_end:
            return self.h1.object_words(addr)
        if layout.h2_base <= addr < layout.h2_end:
            return self.h2.object_words(addr)
        raise InvalidHandleError(f"address {addr:#x} outside all heap spaces")

    # ------------------------------------------------------------------
    # headers

    def descriptor_of(self, addr: int) -> ClassDescriptor:
        desc = self.registry.maybe_get(word_class_id(self.load_word(addr)))
        if desc is None:
            raise HeapCorruptionError(f"unparseable object header at {addr:#x}")
        return desc

    def cache_word_of(self, addr: int) -> int:
        return self.load_word(addr + 8)

    def set_cache_mark(self, addr: int, partition_id: int) -> None:
        self.store_word(addr + 8, cache_word(True, partition_id))

    def clear_cache_mark(self, addr: int) -> None:
        self.store_word(addr + 8, 0)

    # ------------------------------------------------------------------
    # classes and allocation

    def register_class(self, layout: list[FieldSpec]) -> ClassDescriptor:
        return self.registry.register(layout)

    def classify_handle(self, handle: int) -> SpaceKind:
        return self.layout.classify(handle)

    def allocate(self, desc: ClassDescriptor | int) -> int:
        if isinstance(desc, int):
            desc = self.registry.get(desc)
        size = desc.instance_size
        if size > self.h1.eden_size:
            raise HeapExhaustedError(
                f"object of {size} bytes can never fit eden ({self.h1.eden_size} bytes)"
            )
        addr = self.h1.alloc_eden(size)
        if addr is None:
            self.minor_collect()
            addr = self.h1.alloc_eden(size)
        if addr is None:
            self.major_collect()
            addr = self.h1.alloc_eden(size)
        if addr is None:
            raise HeapExhaustedError(f"cannot allocate {size} bytes")
        # Eden memory is zeroed at reset, so only the class word needs a store.
        self.h1.store_word(addr, class_age_word(desc.class_id, 0))
        self.counters["alloc_objects"] += 1
        self.counters["alloc_bytes"] += size
        self.counters["mutator_steps"] += 1
        return addr

    def allocate_many(self, descs) -> list[int]:
        """Allocate one object per descriptor, in order, through `allocate`,
        and return their addresses.  Until it returns, the addresses
        allocated so far are roots (the pinned list), so the returned ones
        are current after any collection an allocation ran.  Not
        reentrant."""
        self._pinned = addrs = []
        try:
            for desc in descs:
                addrs.append(self.allocate(desc))
        finally:
            self._pinned = []
        return addrs

    # ------------------------------------------------------------------
    # field access with the post-write barrier

    @staticmethod
    def _check_aligned(handle: int) -> None:
        # Word access would silently round a misaligned handle down.
        if handle & 7:
            raise InvalidHandleError(f"handle {handle:#x} is not 8-byte aligned")

    def _field(
        self, obj: int, index: int, kind: FieldKind
    ) -> tuple[memoryview, int, ClassDescriptor, SpaceKind]:
        """Resolve field `index` of `obj` with one range test: the word view
        of the heap holding `obj`, the field's index in it, the descriptor
        and the space.  A field past the end of its heap indexes past the
        end of the view; the accessors report it as `_past_end` does."""
        if not obj:
            raise InvalidHandleError("null handle")
        self._check_aligned(obj)
        layout = self.layout
        if layout.young_base <= obj < layout.old_end:
            words = self.h1.words
            i = (obj - layout.young_base) >> 3
            space = _OLD if obj >= layout.old_base else _YOUNG
        elif layout.h2_base <= obj < layout.h2_end:
            words = self.h2.words
            i = (obj - layout.h2_base) >> 3
            space = _H2
        else:
            raise InvalidHandleError(f"address {obj:#x} outside all heap spaces")
        desc = self.registry.maybe_get(words[i] >> 32)
        if desc is None:
            raise InvalidHandleError(f"handle {obj:#x} has no parseable object header")
        if index < 0 or index >= len(desc.fields):
            raise InvalidFieldError(f"field index {index} out of range")
        fs = desc.fields[index]
        if fs.kind is not kind:
            raise InvalidFieldError(f"field {index} is {fs.kind.value}, expected {kind.value}")
        return words, i + (fs.offset >> 3), desc, space

    @staticmethod
    def _past_end(obj: int, desc: ClassDescriptor, index: int) -> InvalidHandleError:
        # A field past the end of H1 lies in the gap before H2, and one past
        # the end of H2 lies above it: the field's address is in no heap.
        return InvalidHandleError(
            f"address {obj + desc.fields[index].offset:#x} outside all heap spaces"
        )

    def write_ref(self, obj: int, index: int, target: int | None) -> None:
        words, i, desc, space = self._field(obj, index, _REF)
        value = target or 0
        if value:
            self.layout.classify(value)  # reject bogus targets early
            self._check_aligned(value)
        try:
            words[i] = value
        except IndexError:
            raise self._past_end(obj, desc, index) from None
        self.counters["mutator_steps"] += 1
        if space is _H2:
            self.h2.dirty_card(obj, desc.instance_size)
            self.counters["barrier_h2_hits"] += 1
            self.h2.note_reference(obj, value)
        elif space is _OLD and value and self.layout.is_young(value):
            self.h1.cards.dirty(obj)
            self.counters["barrier_h1_hits"] += 1

    def write_scalar(self, obj: int, index: int, value: int) -> None:
        words, i, desc, space = self._field(obj, index, _SCALAR)
        try:
            words[i] = value & 0xFFFFFFFFFFFFFFFF
        except IndexError:
            raise self._past_end(obj, desc, index) from None
        self.counters["mutator_steps"] += 1
        if space is _H2:
            self.h2.mark_card(obj)
            self.counters["barrier_h2_hits"] += 1

    def read_ref(self, obj: int, index: int) -> int | None:
        words, i, desc, _ = self._field(obj, index, _REF)
        self.counters["mutator_steps"] += 1
        try:
            return words[i] or None
        except IndexError:
            raise self._past_end(obj, desc, index) from None

    def read_scalar(self, obj: int, index: int) -> int:
        words, i, desc, _ = self._field(obj, index, _SCALAR)
        self.counters["mutator_steps"] += 1
        try:
            return words[i]
        except IndexError:
            raise self._past_end(obj, desc, index) from None

    # ------------------------------------------------------------------
    # the closure walk of the trace driver

    def closure(self, root: int) -> tuple[list[int], list[ClassDescriptor], int]:
        """The objects reachable from `root` over non-transient references,
        breadth-first in field order, with the descriptor of each and the
        sum of all their scalar words (not masked).

        Each object is read in place from its heap's word view: one range
        test and one header parse per object, and no image copy.
        """
        layout = self.layout
        h1_base, h1_end = layout.young_base, layout.old_end
        h2_base, h2_end = layout.h2_base, layout.h2_end
        h1_words, h2_words = self.h1.words, self.h2.words
        maybe_get = self.registry.maybe_get
        seen = {root}
        order = [root]
        descs: list[ClassDescriptor] = []
        total = 0
        for addr in order:  # order grows while it is walked
            if h1_base <= addr < h1_end:
                words = h1_words
                i = (addr - h1_base) >> 3
            elif h2_base <= addr < h2_end:
                words = h2_words
                i = (addr - h2_base) >> 3
            else:
                raise InvalidHandleError(f"address {addr:#x} outside all heap spaces")
            desc = maybe_get(words[i] >> 32)
            if desc is None:
                raise HeapCorruptionError(f"unparseable object header at {addr:#x}")
            descs.append(desc)
            for k in desc.scalar_words:
                total += words[i + k]
            for k in desc.closure_words:
                target = words[i + k]
                if target and target not in seen:
                    seen.add(target)
                    order.append(target)
        return order, descs, total

    # ------------------------------------------------------------------
    # roots

    def add_root(self, handle: int | None) -> int:
        if handle:
            self.layout.classify(handle)
            self._check_aligned(handle)
        slot_id = self._next_slot
        self._next_slot += 1
        self._roots[slot_id] = handle or 0
        return slot_id

    def read_root(self, slot_id: int) -> int:
        try:
            return self._roots[slot_id]
        except KeyError:
            raise InvalidSlotError(f"unknown root slot {slot_id}") from None

    def drop_root(self, slot_id: int) -> None:
        if slot_id not in self._roots:
            raise InvalidSlotError(f"unknown root slot {slot_id}")
        del self._roots[slot_id]
        self._root_tags.pop(slot_id, None)

    def root_values(self):
        return [*self._roots.values(), *self._pinned]

    def rewrite_roots(self, forwarded: dict[int, int]) -> None:
        """Forward every address the runtime holds: root slots, the pinned
        list and the persist hints.  A hint is weak: one whose young root
        is not in `forwarded` died and is dropped."""
        for slot_id, value in self._roots.items():
            if value in forwarded:
                self._roots[slot_id] = forwarded[value]
        self._pinned[:] = [forwarded.get(value, value) for value in self._pinned]
        is_young = self.layout.is_young
        self.hints = {
            forwarded.get(addr, addr): None
            for addr in self.hints
            if addr in forwarded or not is_young(addr)
        }

    def tag_root_slots(self, handle: int, partition_id: int) -> None:
        for slot_id, value in self._roots.items():
            if value == handle:
                self._root_tags[slot_id] = partition_id

    def slots_tagged(self, partition_id: int) -> list[int]:
        return [s for s, p in self._root_tags.items() if p == partition_id]

    # ------------------------------------------------------------------
    # persist hints

    def persist(self, root: int, partition_id: int) -> None:
        """Mark `root` as a cache candidate for `partition_id`; the next
        major collection migrates its closure to H2.

        Idempotent for a repeated (root, id) pair; a second persist with a
        different id overwrites the partition id (last writer wins).  Roots
        already living in H2 are left untouched.
        """
        if not 0 <= partition_id < PARTITION_ID_LIMIT:
            raise HeapError(f"partition id {partition_id} outside [0, 2**63)")
        space = self.layout.classify(root)
        self.tag_root_slots(root, partition_id)
        if space is _H2:
            return
        self.set_cache_mark(root, partition_id)
        self.hints.setdefault(root)

    def unpersist(self, partition_id: int) -> None:
        """Drop the driver-side roots of a partition.

        No H2 work happens here: the partition's regions become reclaimable
        at the next major collection once nothing references them.  Unknown
        partition ids are a no-op.
        """
        for slot_id in self.slots_tagged(partition_id):
            value = self.read_root(slot_id)
            self.drop_root(slot_id)
            if self.layout.is_h1(value):
                self.hints.pop(value, None)
                self.clear_cache_mark(value)

    # ------------------------------------------------------------------
    # collections

    def minor_collect(self) -> MinorStats:
        try:
            stats = self.collector.minor()
        except PromotionOverflowError:
            major = self.collector.major(skip_minor=True)
            stats = MinorStats(index=self.collector.minor_index, escalated_to_major=True)
            if self.collection_listener:
                self.collection_listener("major", major)
            return stats
        if self.collection_listener:
            self.collection_listener("minor", stats)
        return stats

    def major_collect(self) -> MajorStats:
        stats = self.collector.major()
        if self.collection_listener:
            self.collection_listener("major", stats)
        return stats

    # ------------------------------------------------------------------
    # inspection (used by the harness and the test oracles)

    def iter_h1_objects(self):
        yield from self.h1.iter_young_objects()
        yield from self.h1.iter_old_objects()

    def iter_h2_objects(self):
        for r in self.h2.allocated_regions():
            yield from self.h2.iter_span(self.h2.region_start(r), self.h2.region_alloc_end(r))

    def scalar_values(self, addr: int) -> tuple[int, ...]:
        desc, words = self.object_words(addr)
        return tuple(words[k] for k in desc.scalar_words)
