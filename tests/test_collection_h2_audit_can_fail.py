"""The H2 payload audit must still be able to fail.

The audit in test_collection_h2_discipline.py sees a collection's H2 reads
and writes only through the methods it wraps.  A fast path that touches H2
payload another way would make it pass without checking anything, so here
a read or write outside the sanctioned extents is made to happen inside
the audited collection, and the audit has to report it.
"""

import pytest

from dualheap import Runtime

from conftest import build_chain, make_config, register_node_class
from test_collection_h2_discipline import run_disciplined


def test_scan_read_outside_dirty_segments_fails_the_audit():
    with Runtime(make_config()) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        slot = build_chain(rt, desc, 900)  # four 8 KiB cards of H2 data
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # cleans every non-boundary card
        h2 = rt.h2
        seg = h2.cards.segment
        objs = sorted(rt.iter_h2_objects())
        # An object wholly inside card 2, which stays clean, and one on card 3.
        size = desc.instance_size
        stray = next(a for a in objs if a >= h2.base + 2 * seg and a + size <= h2.base + 3 * seg)
        target = next(a for a in objs if a >= h2.base + 3 * seg)
        rt.write_ref(target, 0, rt.read_ref(target, 0))  # a reference store walks card 3
        assert [i for i in range(4) if h2.cards.is_dirty(i)] == [0, 3]
        # The scan of card 3 now starts its walk at the stray object.
        h2.first_obj[3] = stray
        with pytest.raises(AssertionError, match="outside dirty segments"):
            run_disciplined(rt, rt.minor_collect)
        del slot


def test_object_image_read_under_clean_card_fails_the_audit():
    # Object walks read H2 through `object_words`; the audit must see those
    # reads too, so an image read of an object under a clean card made
    # inside the audited callable has to be reported.
    with Runtime(make_config()) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        slot = build_chain(rt, desc, 900)  # four 8 KiB cards of H2 data
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # cleans every non-boundary card
        h2 = rt.h2
        seg = h2.cards.segment
        size = desc.instance_size
        stray = next(
            a for a in sorted(rt.iter_h2_objects())
            if a >= h2.base + 2 * seg and a + size <= h2.base + 3 * seg
        )
        assert not h2.cards.is_dirty(2)

        def collect_then_read_stray():
            rt.minor_collect()
            rt.object_words(stray)

        with pytest.raises(AssertionError, match="outside dirty segments"):
            run_disciplined(rt, collect_then_read_stray)
        del slot


def test_multi_word_store_under_clean_card_fails_the_audit():
    # Migration stores images through `store_words`; the audit must see
    # those writes too, so an image store to an object under a clean card
    # made inside the audited callable has to be reported.
    with Runtime(make_config()) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        slot = build_chain(rt, desc, 900)  # four 8 KiB cards of H2 data
        rt.persist(rt.read_root(slot), 1)
        rt.major_collect()
        rt.minor_collect()  # cleans every non-boundary card
        h2 = rt.h2
        seg = h2.cards.segment
        size = desc.instance_size
        stray = next(
            a for a in sorted(rt.iter_h2_objects())
            if a >= h2.base + 2 * seg and a + size <= h2.base + 3 * seg
        )
        assert not h2.cards.is_dirty(2)
        image = h2.object_words(stray)[1]

        def collect_then_store_stray():
            rt.minor_collect()
            h2.store_words(stray, image)  # the same words: the heap is unchanged

        with pytest.raises(AssertionError, match="outside appends/slots"):
            run_disciplined(rt, collect_then_store_stray)
        del slot
