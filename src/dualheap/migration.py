"""Cache migration: closure marking and the H2 transfer.

`Runtime.persist` stamps the header mark word of a partition's root object
and records the root as a pending hint; no object moves until the next
major collection.  During that collection's marking phase the closure of
every hinted root is computed over non-transient reference fields and
marked with the root's partition id (eager, non-transient closure).  The
compaction phase then appends every marked live object to its partition's
H2 region, one `store_words` per image; the configured write strategy only
sets how flushes are counted.

Transient reference fields are not followed by closure marking and keep
their H1 targets after the move, becoming backward references that the
dirty-card scans keep alive and the adjust phase keeps up to date.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .objmodel import ClassDescriptor, cache_word, cache_word_partition

if TYPE_CHECKING:
    from .runtime import Runtime


@dataclass(frozen=True)
class PersistHint:
    root: int
    partition_id: int


def etr_mark_closure(rt: "Runtime", hinted: list[PersistHint], images=None) -> int:
    """Mark the non-transient closure of every hinted root.

    Traversal never crosses a transient reference field and never enters
    H2.  An object reachable from several hinted roots keeps the partition
    id of the first hint that reaches it; hints are processed in order.
    `images` maps each H1 address the walk reaches to its `(descriptor,
    words)` image, as a major collection's mark keeps them; without it
    images are read with `rt.object_words`.  Setting a mark stores word 1
    in the heap and in the image.  Returns the number of distinct
    objects carrying a mark after the call.
    """
    image_of = rt.object_words if images is None else images.__getitem__

    def mark(addr: int, words: list[int], partition_id: int) -> None:
        rt.set_cache_mark(addr, partition_id)
        words[1] = cache_word(True, partition_id)

    visited: set[int] = set()
    for hint in hinted:
        root = hint.root
        rt.layout.classify(root)  # raises InvalidHandleError on a bogus root
        words = image_of(root)[1]
        if root not in visited:
            visited.add(root)
            if not words[1] & 1:
                mark(root, words, hint.partition_id)
        partition_id = cache_word_partition(words[1])
        stack = [root]
        while stack:
            addr = stack.pop()
            desc, words = image_of(addr)
            # An object is popped during the walk of the hint that reached
            # it, so marking it here, from its image, gives that hint's id.
            if not words[1] & 1:
                mark(addr, words, partition_id)
            for k in desc.closure_words:
                target = words[k]
                if not target or target in visited:
                    continue
                if rt.layout.is_h2(target):
                    continue
                visited.add(target)
                stack.append(target)
    return len(visited)


def transfer_marked(
    rt: "Runtime",
    moves: list[tuple[int, tuple[ClassDescriptor, list[int]]]],
) -> tuple[int, int, int]:
    """Store every marked object at its assigned H2 address.

    `moves` pairs each H2 address with the object's image, whose fields
    were already rewritten through the relocation map, so the image is
    final.  Each image is stored with one `store_words`, its card is
    dirtied, and the references in it merge the regions' groups where they
    cross regions, so H2 is not read back.  H1 targets remaining in
    (transient) fields become backward references and are picked up by
    the next dirty-card scan.

    Both write strategies store the same way and differ only in how they
    count flushes: `direct_copy` counts one per object, `batched_async`
    one per full or final `batch_buffer` of the bytes moved, that is
    ceil(bytes / batch_buffer).  Returns (objects, bytes, flushes).
    """
    h2 = rt.h2
    total = 0
    for dest, (desc, words) in moves:
        h2.store_words(dest, words)
        h2.dirty_card(dest)
        for k in desc.ref_words:
            h2.note_reference(dest, words[k])
        total += desc.instance_size
    moved = len(moves)
    cfg = rt.config.migration
    if cfg.strategy == "direct_copy":
        flushes = moved
    else:
        flushes = -(-total // cfg.batch_buffer)
    rt.counters["objects_moved_to_h2"] += moved
    rt.counters["bytes_moved_to_h2"] += total
    rt.counters["h2_flush_ops"] += flushes
    return moved, total, flushes
