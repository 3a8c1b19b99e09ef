"""Object layout, class descriptors and the header words.

Every object starts with a 16-byte header of two little-endian 64-bit words
(both heaps read words in the host's byte order, so importing this module
on a big-endian host fails):

  word 0   bit 0        reserved for a forwarding flag (must read 0 in a
                        parseable header; collection phases that relocate
                        objects keep forwarding information in side maps)
           bits 1..8    age, the number of minor collections survived
           bits 32..63  class id
  word 1   bit 0        cache-candidate mark
           bits 1..63   partition id (valid only while the mark is set)

Fields follow the header as 8-byte slots.  A field is either a reference
(holds an object address or 0 for null) or a scalar (an uninterpreted
64-bit word).  Reference fields may carry a transient flag: such fields are
excluded from cache-closure marking and from the baseline serializer, and
survive cache migration as plain cross-heap references.

Both heaps are a `HeapSpace`: a buffer of gap-free, bump-allocated objects
read and written through one word view, with a `CardTable` over it and a
per-card first-object table that locates the objects overlapping a card.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, field

from .errors import HeapCorruptionError, InvalidHandleError, LayoutError

if sys.byteorder != "little":
    raise ImportError(
        "dualheap needs a little-endian host: heap words are read in native "
        "byte order, and the H2 image is a little-endian file format"
    )

WORD_SIZE = 8
HEADER_SIZE = 16

_AGE_MAX = 0xFF
_CLASS_ID_MAX = 0xFFFFFFFF


class FieldKind(enum.Enum):
    REF = "reference"
    SCALAR = "scalar"


@dataclass(frozen=True)
class FieldSpec:
    """One 8-byte field slot: byte offset from the object start, kind, flags."""

    offset: int
    kind: FieldKind
    transient: bool = False


@dataclass(frozen=True)
class ClassDescriptor:
    class_id: int
    fields: tuple[FieldSpec, ...]
    instance_size: int
    # Precomputed index lists so the hot paths never filter.
    ref_indexes: tuple[int, ...] = field(default=(), compare=False)
    scalar_indexes: tuple[int, ...] = field(default=(), compare=False)
    # Word indexes (byte offset >> 3) into the object's image, in field
    # order: of every reference field, of the non-transient ones (the
    # fields cache-closure marking follows), and of every scalar field.
    ref_words: tuple[int, ...] = field(default=(), compare=False)
    closure_words: tuple[int, ...] = field(default=(), compare=False)
    scalar_words: tuple[int, ...] = field(default=(), compare=False)


class ClassRegistry:
    """Registers immutable class descriptors and resolves them by id."""

    def __init__(self) -> None:
        self._by_id: dict[int, ClassDescriptor] = {}
        self._next_id = 1
        # The descriptor for a class id, or None.  The dict's own method, so
        # the object walks of both heaps pay no Python call per object.
        self.maybe_get = self._by_id.get

    def register(self, layout: list[FieldSpec] | tuple[FieldSpec, ...]) -> ClassDescriptor:
        fields = tuple(layout)
        instance_size = HEADER_SIZE + WORD_SIZE * len(fields)
        seen: set[int] = set()
        for fs in fields:
            if fs.offset % WORD_SIZE != 0:
                raise LayoutError(f"field offset {fs.offset} is not 8-byte aligned")
            if fs.offset < HEADER_SIZE or fs.offset + WORD_SIZE > instance_size:
                raise LayoutError(
                    f"field offset {fs.offset} outside object body "
                    f"[{HEADER_SIZE}, {instance_size})"
                )
            if fs.offset in seen:
                raise LayoutError(f"overlapping fields at offset {fs.offset}")
            seen.add(fs.offset)
            if fs.transient and fs.kind is not FieldKind.REF:
                raise LayoutError("transient flag is only meaningful on reference fields")
        class_id = self._next_id
        if class_id > _CLASS_ID_MAX:
            raise LayoutError("class id space exhausted")
        self._next_id += 1
        refs = [f for f in fields if f.kind is FieldKind.REF]
        scalars = [f for f in fields if f.kind is FieldKind.SCALAR]
        desc = ClassDescriptor(
            class_id=class_id,
            fields=fields,
            instance_size=instance_size,
            ref_indexes=tuple(i for i, f in enumerate(fields) if f.kind is FieldKind.REF),
            scalar_indexes=tuple(i for i, f in enumerate(fields) if f.kind is FieldKind.SCALAR),
            ref_words=tuple(f.offset >> 3 for f in refs),
            closure_words=tuple(f.offset >> 3 for f in refs if not f.transient),
            scalar_words=tuple(f.offset >> 3 for f in scalars),
        )
        self._by_id[class_id] = desc
        return desc

    def get(self, class_id: int) -> ClassDescriptor:
        return self._by_id[class_id]

    def __len__(self) -> int:
        return len(self._by_id)


class SpaceKind(enum.Enum):
    H1_YOUNG = "h1-young"
    H1_OLD = "h1-old"
    H2 = "h2"


@dataclass(frozen=True)
class HeapLayout:
    """Address-range map of the combined heap: H1 young, H1 old, then H2.

    The old generation starts where the young generation ends, so H1 is one
    contiguous range.  A gap separates the end of the old generation from
    the H2 base so that one-past-the-end H1 addresses never alias the first
    H2 address.
    """

    young_base: int
    young_end: int
    old_base: int
    old_end: int
    h2_base: int
    h2_end: int

    def classify(self, addr: int) -> SpaceKind:
        if self.young_base <= addr < self.young_end:
            return SpaceKind.H1_YOUNG
        if self.old_base <= addr < self.old_end:
            return SpaceKind.H1_OLD
        if self.h2_base <= addr < self.h2_end:
            return SpaceKind.H2
        raise InvalidHandleError(f"address {addr:#x} outside all heap spaces")

    def is_h1(self, addr: int) -> bool:
        return self.young_base <= addr < self.old_end

    def is_young(self, addr: int) -> bool:
        return self.young_base <= addr < self.young_end

    def is_old(self, addr: int) -> bool:
        return self.old_base <= addr < self.old_end

    def is_h2(self, addr: int) -> bool:
        return self.h2_base <= addr < self.h2_end


# ---------------------------------------------------------------------------
# Header word codecs.  All functions are pure int -> int so both heaps and the
# tests can share them without touching buffers.

def class_age_word(class_id: int, age: int) -> int:
    return (class_id << 32) | ((age & _AGE_MAX) << 1)


def word_class_id(word: int) -> int:
    return (word >> 32) & _CLASS_ID_MAX


def word_age(word: int) -> int:
    return (word >> 1) & _AGE_MAX


def bump_age(word: int) -> int:
    age = word_age(word)
    if age < _AGE_MAX:
        age += 1
    return class_age_word(word_class_id(word), age)


# Partition ids fill the 63 bits of the cache word above the mark.
PARTITION_ID_LIMIT = 1 << 63


def cache_word(marked: bool, partition_id: int = 0) -> int:
    if not marked:
        return 0
    return (partition_id << 1) | 1


def cache_word_marked(word: int) -> bool:
    return bool(word & 1)


def cache_word_partition(word: int) -> int:
    return word >> 1


# ---------------------------------------------------------------------------
# What both heaps share: a card table and a space of gap-free objects.

CARD_CLEAN = 0
CARD_DIRTY = 1


class CardTable:
    """One dirtiness byte per `segment` bytes, starting at `base`."""

    def __init__(self, base: int, size: int, segment: int) -> None:
        self.base = base
        self.segment = segment
        self.n_cards = size // segment
        self.cards = bytearray(self.n_cards)

    def index_of(self, addr: int) -> int:
        return (addr - self.base) // self.segment

    def is_dirty(self, idx: int) -> bool:
        return self.cards[idx] == CARD_DIRTY

    def segment_bounds(self, idx: int) -> tuple[int, int]:
        start = self.base + idx * self.segment
        return start, start + self.segment

    def count_dirty(self) -> int:
        return self.cards.count(CARD_DIRTY)


class HeapSpace:
    """A buffer of gap-free objects starting at address `base`.

    Words are read and written through one `memoryview` of the buffer cast
    to unsigned 64-bit words, indexed by the word offset from `base`; no
    method reads or writes raw bytes.  Object walks read an object's whole
    image with `object_words`.  `store_words` is the one multi-word store:
    an object's image, a run of images or a migrated image, each in one
    native call.  `first_obj` has one entry per card of `cards`: the
    address of the object covering the card's first byte, or 0 when no
    object does.  As objects lie without gaps, a walk from a card's entry
    parses every object overlapping the card, including one spilling in
    from before it.
    """

    def __init__(self, base: int, buf, registry: ClassRegistry, cards: CardTable) -> None:
        self.base = base
        self.buf = buf
        self.words = memoryview(buf).cast("Q")
        self.registry = registry
        self.cards = cards
        self.first_obj = [0] * cards.n_cards

    def close(self) -> None:
        # The view must be released first: an mmap with exported buffers
        # refuses to close.
        self.words.release()
        self.buf.close()

    def load_word(self, addr: int) -> int:
        return self.words[(addr - self.base) >> 3]

    def load_words(self, start: int, stop: int) -> list[int]:
        """The words from address `start` up to `stop`, in one native read."""
        base = self.base
        return self.words[(start - base) >> 3 : (stop - base) >> 3].tolist()

    def store_word(self, addr: int, value: int) -> None:
        self.words[(addr - self.base) >> 3] = value

    def store_words(self, addr: int, words: list[int]) -> None:
        """Store `words` from address `addr` onward, in one native write:
        one object's image or a run of many objects' images."""
        i = (addr - self.base) >> 3
        self.words[i : i + len(words)] = array("Q", words)

    def object_words(self, addr: int) -> tuple[ClassDescriptor, list[int]]:
        """The descriptor of the object at `addr` and its image: every word
        of the object, in one native read, so that `words[k]` is the word
        at `addr + 8 * k`.  This is the read path of the object walks."""
        words = self.words
        i = (addr - self.base) >> 3
        desc = self.registry.maybe_get(words[i] >> 32)
        if desc is None:
            raise HeapCorruptionError(f"unparseable object header at {addr:#x}")
        return desc, words[i : i + (desc.instance_size >> 3)].tolist()

    def object_size(self, addr: int) -> int:
        desc = self.registry.maybe_get(word_class_id(self.load_word(addr)))
        if desc is None:
            raise HeapCorruptionError(f"unparseable object header at {addr:#x}")
        return desc.instance_size

    def iter_span(self, start: int, end: int):
        """Yield object addresses for a gap-free bump-allocated span."""
        addr = start
        while addr < end:
            yield addr
            addr += self.object_size(addr)

    def enter_objects(self, addrs: list[int], end: int) -> None:
        """Enter a gap-free run of objects in the first-object table.

        Each object of `addrs` ends where the next one starts, and the last
        ends at `end`.  Every card whose first byte an object covers gets
        that object's address.  A cursor on the next card start makes an
        object that covers none cost one comparison.
        """
        if not addrs:
            return
        cards = self.cards
        segment = cards.segment
        first_obj = self.first_obj
        idx = -((cards.base - addrs[0]) // segment)  # first card at or after the run
        card_start = cards.base + idx * segment
        for addr, next_addr in zip(addrs, addrs[1:] + [end]):
            while card_start < next_addr:
                first_obj[idx] = addr
                idx += 1
                card_start += segment
