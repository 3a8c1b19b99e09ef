"""Object model: class registration, handle classification, header codecs."""

import pytest
from hypothesis import given, strategies as st

from dualheap import (
    FieldKind,
    FieldSpec,
    InvalidHandleError,
    LayoutError,
    SpaceKind,
)
from dualheap.objmodel import (
    ClassRegistry,
    cache_word,
    cache_word_marked,
    cache_word_partition,
    class_age_word,
    word_age,
    word_class_id,
)
from dualheap.runtime import build_layout

from conftest import make_config


def test_register_ref_scalar_layout():
    reg = ClassRegistry()
    desc = reg.register([FieldSpec(16, FieldKind.REF), FieldSpec(24, FieldKind.SCALAR)])
    assert desc.instance_size == 32
    assert reg.get(desc.class_id) is desc
    assert desc.ref_indexes == (0,)
    assert desc.scalar_indexes == (1,)


def test_register_empty_layout():
    reg = ClassRegistry()
    desc = reg.register([])
    assert desc.instance_size == 16


def test_register_transient_field_echoed():
    reg = ClassRegistry()
    desc = reg.register(
        [FieldSpec(16, FieldKind.REF, transient=True), FieldSpec(24, FieldKind.REF)]
    )
    assert desc.fields[0].transient
    assert not desc.fields[1].transient


def test_register_overlapping_fields_rejected():
    reg = ClassRegistry()
    with pytest.raises(LayoutError):
        reg.register([FieldSpec(16, FieldKind.REF), FieldSpec(16, FieldKind.SCALAR)])


def test_register_out_of_range_offset_rejected():
    reg = ClassRegistry()
    with pytest.raises(LayoutError):
        reg.register([FieldSpec(40, FieldKind.SCALAR)])
    with pytest.raises(LayoutError):
        reg.register([FieldSpec(8, FieldKind.SCALAR)])


def test_transient_scalar_rejected():
    reg = ClassRegistry()
    with pytest.raises(LayoutError):
        reg.register([FieldSpec(16, FieldKind.SCALAR, transient=True)])


def test_class_ids_unique():
    reg = ClassRegistry()
    ids = {reg.register([]).class_id for _ in range(50)}
    assert len(ids) == 50


# -- classification ----------------------------------------------------------


def test_classify_young_range():
    layout = build_layout(make_config())
    assert layout.classify(layout.young_base) is SpaceKind.H1_YOUNG
    assert layout.classify(layout.young_end - 8) is SpaceKind.H1_YOUNG


def test_classify_h2_base_inclusive():
    layout = build_layout(make_config())
    assert layout.classify(layout.h2_base) is SpaceKind.H2


def test_classify_old_end_exclusive():
    layout = build_layout(make_config())
    with pytest.raises(InvalidHandleError):
        layout.classify(layout.old_end)


def test_classify_rejects_null_and_out_of_range():
    layout = build_layout(make_config())
    for addr in (0, layout.young_base - 8, layout.h2_end):
        with pytest.raises(InvalidHandleError):
            layout.classify(addr)


_LAYOUT = build_layout(make_config())
_EDGES = (_LAYOUT.young_base, _LAYOUT.old_base, _LAYOUT.old_end, _LAYOUT.h2_base, _LAYOUT.h2_end)


@given(
    st.integers(min_value=0, max_value=1 << 40)
    | st.builds(
        lambda edge, delta: edge + delta, st.sampled_from(_EDGES), st.integers(-4096, 4096)
    )
)
def test_classify_total_and_disjoint(addr):
    layout = _LAYOUT
    spaces = [
        layout.young_base <= addr < layout.young_end,
        layout.old_base <= addr < layout.old_end,
        layout.h2_base <= addr < layout.h2_end,
    ]
    if sum(spaces) == 1:
        space = layout.classify(addr)
        assert space in (
            SpaceKind.H1_YOUNG,
            SpaceKind.H1_OLD,
            SpaceKind.H2,
        )
    else:
        assert sum(spaces) == 0
        with pytest.raises(InvalidHandleError):
            layout.classify(addr)
        space = None
    # The predicates are the same classifier, one space at a time.
    assert layout.is_young(addr) == (space is SpaceKind.H1_YOUNG)
    assert layout.is_old(addr) == (space is SpaceKind.H1_OLD)
    assert layout.is_h1(addr) == (space in (SpaceKind.H1_YOUNG, SpaceKind.H1_OLD))
    assert layout.is_h2(addr) == (space is SpaceKind.H2)


# -- header codecs -----------------------------------------------------------


@given(
    class_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    age=st.integers(min_value=0, max_value=255),
)
def test_class_age_word_round_trip(class_id, age):
    word = class_age_word(class_id, age)
    assert word_class_id(word) == class_id
    assert word_age(word) == age
    assert word & 1 == 0  # bit 0 reserved for forwarding


@given(
    marked=st.booleans(),
    partition=st.integers(min_value=0, max_value=(1 << 40)),
)
def test_cache_word_round_trip(marked, partition):
    word = cache_word(marked, partition)
    assert cache_word_marked(word) == marked
    if marked:
        assert cache_word_partition(word) == partition
