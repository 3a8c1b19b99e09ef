"""Shared fixtures and tiny-heap config factories."""

from __future__ import annotations

import pytest

from dualheap import (
    FieldKind,
    FieldSpec,
    H1Config,
    H2Config,
    MigrationConfig,
    Runtime,
    RuntimeConfig,
)

KIB = 1024
MIB = 1024 * 1024


def make_config(
    young=80 * KIB,
    old=256 * KIB,
    tenuring=2,
    h1_card=512,
    h2_size=2 * MIB,
    region=256 * KIB,
    h2_card=8 * KIB,
    stripe=64 * KIB,
    threads=2,
    backing="anonymous",
    strategy="direct_copy",
    batch_buffer=2 * MIB,
    **kw,
) -> RuntimeConfig:
    return RuntimeConfig(
        h1=H1Config(
            young_size=young,
            old_size=old,
            tenuring_threshold=tenuring,
            card_segment=h1_card,
        ),
        h2=H2Config(
            size=h2_size,
            region_size=region,
            card_segment=h2_card,
            stripe_size=stripe,
            scan_threads=threads,
            backing=backing,
        ),
        migration=MigrationConfig(strategy=strategy, batch_buffer=batch_buffer),
        **kw,
    ).validate()


@pytest.fixture
def rt():
    with Runtime(make_config()) as runtime:
        yield runtime


def register_node_class(rt, refs=1, scalars=1, transient=()):
    """A class with `refs` reference fields then `scalars` scalar fields."""
    layout = []
    offset = 16
    for i in range(refs):
        layout.append(FieldSpec(offset, FieldKind.REF, transient=i in transient))
        offset += 8
    for _ in range(scalars):
        layout.append(FieldSpec(offset, FieldKind.SCALAR))
        offset += 8
    return rt.register_class(layout)


def build_chain(rt, desc, n, tag_base=1000):
    """Allocate a linked chain; returns (root_slot, list_slot_ids).

    Every node is parked in its own root slot during construction so
    collections triggered by allocation cannot invalidate handles.
    """
    slots = []
    for i in range(n):
        h = rt.allocate(desc)
        slots.append(rt.add_root(h))
        rt.write_scalar(h, desc.scalar_indexes[0], tag_base + i)
    for i in range(n - 1):
        rt.write_ref(rt.read_root(slots[i]), desc.ref_indexes[0], rt.read_root(slots[i + 1]))
    root_slot = slots[0]
    for s in slots[1:]:
        rt.drop_root(s)
    return root_slot
