"""`Runtime.closure`, the trace driver's in-place walk, against a walk that
reads each object's image through `object_words`."""

from __future__ import annotations

import pytest

from dualheap import HeapCorruptionError, InvalidHandleError, Runtime, SpaceKind
from dualheap.objmodel import HeapSpace
from dualheap.workload import TraceDriver, generate_trace, parse_trace

from conftest import KIB, MIB, make_config, register_node_class


def object_words_closure(rt, root):
    """The non-transient closure of `root`, breadth-first in field order,
    with each object's descriptor and the unmasked sum of its scalars,
    read one `object_words` image per object."""
    seen = {root}
    order = [root]
    descs = []
    total = 0
    for addr in order:
        desc, w = rt.object_words(addr)
        descs.append(desc)
        total += sum(w[k] for k in desc.scalar_words)
        for k in desc.closure_words:
            target = w[k]
            if target and target not in seen:
                seen.add(target)
                order.append(target)
    return order, descs, total


@pytest.mark.parametrize("profile", ["pagerank_like", "cc_like"])
@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
def test_closure_matches_the_image_walk_across_a_trace(profile, mode):
    """After every event, every resident partition's closure equals the
    oracle's, while collections move objects and migration moves them
    to H2.  `cc_like` adds transient fields, which the walk must skip,
    and H2 -> H1 references."""
    cfg = make_config(
        young=40 * KIB, old=96 * KIB, h1_card=256, h2_size=4 * MIB,
        region=64 * KIB, h2_card=4 * KIB, stripe=16 * KIB, threads=4,
    )
    events = parse_trace(generate_trace(profile, 3, seed=5))
    spaces = set()
    walks = 0
    with TraceDriver(cfg, mode=mode) as driver:
        rt = driver.rt
        for evt in events:
            driver.run([evt])
            for part in driver.partitions.values():
                if part.slot_id is None:
                    continue
                root = rt.read_root(part.slot_id)
                got = rt.closure(root)
                assert got == object_words_closure(rt, root)
                spaces.update(rt.classify_handle(a) for a in got[0])
                walks += 1
    assert walks > len(events)
    if mode == "TC":
        assert spaces == set(SpaceKind)
    else:
        assert SpaceKind.H2 not in spaces


def test_closure_errors_match_object_words(rt):
    desc = register_node_class(rt, refs=1, scalars=1)
    h = rt.allocate(desc)
    bogus = h + 64  # zeroed eden: class id 0 is never registered
    for addr, error in [(bogus, HeapCorruptionError), (8, InvalidHandleError)]:
        with pytest.raises(error) as expected:
            rt.object_words(addr)
        with pytest.raises(error) as got:
            rt.closure(addr)
        assert str(got.value) == str(expected.value)
    # an unparseable header reached through a reference
    rt.write_ref(h, 0, bogus)
    with pytest.raises(HeapCorruptionError, match=f"unparseable object header at {bogus:#x}"):
        rt.closure(h)


def test_traverse_reads_no_object_images(monkeypatch):
    """The driver's traversal reads the heaps in place: no per-object
    `object_words` call on the runtime or on either heap."""
    events = parse_trace(generate_trace("cc_like", 2, seed=3))
    with TraceDriver(make_config(), mode="TC") as driver:
        driver.run(events[: len(events) // 2])
        parts = [p for p in driver.partitions.values() if p.slot_id is not None]
        assert parts
        calls = []
        for owner in (Runtime, HeapSpace):
            method = owner.object_words
            monkeypatch.setattr(
                owner, "object_words", lambda self, a, _m=method: calls.append(a) or _m(self, a)
            )
        for part in parts:
            order, descs, _checksum = driver._traverse(part)
            assert len(order) == len(descs) > 1
        assert calls == []
        driver.rt.object_words(order[0])  # the wrappers do count
        assert len(calls) == 2
