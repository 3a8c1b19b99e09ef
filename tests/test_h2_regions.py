"""H2 region allocator: placement, USED bits, groups, bulk free."""

import pytest

from dualheap import RegionExhaustedError, Runtime, SpaceKind

from conftest import KIB, MIB, build_chain, make_config, register_node_class


def test_first_allocation_assigns_partition(rt):
    addr = rt.h2.allocate_in_region(7, 64)
    assert addr == rt.h2.region_start(0)
    assert rt.h2.partition_ids[0] == 7
    assert rt.classify_handle(addr) is SpaceKind.H2


def test_full_region_opens_fresh_one(rt):
    region_size = rt.config.h2.region_size
    # Fill region 0 until only 56 bytes remain, then ask for 64.
    rt.h2.allocate_in_region(1, 72)
    filled = 72
    while region_size - filled >= 64:
        rt.h2.allocate_in_region(1, 64)
        filled += 64
    assert region_size - rt.h2.alloc_offsets[0] == 56
    first_offset = rt.h2.alloc_offsets[0]
    addr = rt.h2.allocate_in_region(1, 64)
    assert rt.h2.region_of(addr) == 1
    assert rt.h2.alloc_offsets[0] == first_offset  # old region untouched
    assert rt.h2.partition_ids[1] == 1


def test_oversized_object_rejected(rt):
    with pytest.raises(RegionExhaustedError):
        rt.h2.allocate_in_region(1, rt.config.h2.region_size + 8)


def test_region_exhaustion_error(rt):
    n = rt.h2.n_regions
    for pid in range(n):
        rt.h2.allocate_in_region(pid, 64)  # each partition opens one region
    with pytest.raises(RegionExhaustedError):
        rt.h2.allocate_in_region(n + 1, 64)


def test_partitions_do_not_share_regions(rt):
    a = rt.h2.allocate_in_region(1, 64)
    b = rt.h2.allocate_in_region(2, 64)
    c = rt.h2.allocate_in_region(1, 64)
    assert rt.h2.region_of(a) == rt.h2.region_of(c)
    assert rt.h2.region_of(b) != rt.h2.region_of(a)


def test_alloc_offset_append_only_until_reclaim(rt):
    offsets = []
    for _ in range(10):
        rt.h2.allocate_in_region(3, 128)
        offsets.append(rt.h2.alloc_offsets[0])
    assert offsets == sorted(offsets)
    rt.h2.begin_mark()  # nothing marks the region
    freed = rt.h2.reclaim_free_regions()
    assert freed == [0]
    assert rt.h2.alloc_offsets[0] == 0


# -- USED bits ---------------------------------------------------------------


def test_set_used_on_forward_reference(rt):
    rt.h2.allocate_in_region(1, 64)
    rt.h2.begin_mark()
    assert rt.h2.used_bits[0] is False
    rt.h2.set_used(0)
    assert rt.h2.used_bits[0] is True


def test_set_used_idempotent(rt):
    rt.h2.allocate_in_region(1, 64)
    rt.h2.begin_mark()
    rt.h2.set_used(0)
    rt.h2.set_used(0)
    assert rt.h2.used_bits[0] is True


def test_begin_mark_clears_all_used(rt):
    for pid in (1, 2, 3):
        rt.h2.allocate_in_region(pid, 64)
    rt.h2.begin_mark()
    assert not any(rt.h2.used_bits)


# -- groups ------------------------------------------------------------------


def test_merge_two_singletons(rt):
    for pid in (1, 2):
        rt.h2.allocate_in_region(pid, 64)
    rt.h2.merge_groups(0, 1)
    assert rt.h2.group_root(0) == rt.h2.group_root(1)
    assert sorted(rt.h2.group_members(0)) == [0, 1]


def test_merge_transitive_union(rt):
    for pid in (1, 2, 3):
        rt.h2.allocate_in_region(pid, 64)
    rt.h2.merge_groups(0, 1)
    rt.h2.merge_groups(2, 0)
    assert sorted(rt.h2.group_members(1)) == [0, 1, 2]


def test_merge_within_group_is_noop(rt):
    for pid in (1, 2):
        rt.h2.allocate_in_region(pid, 64)
    rt.h2.merge_groups(0, 1)
    root = rt.h2.group_root(0)
    rt.h2.merge_groups(1, 0)
    assert rt.h2.group_root(0) == root
    assert sorted(rt.h2.group_members(0)) == [0, 1]


# -- reclaim -----------------------------------------------------------------


def test_group_freed_only_as_a_whole(rt):
    for pid in (1, 2):
        rt.h2.allocate_in_region(pid, 64)
    rt.h2.merge_groups(0, 1)
    rt.h2.begin_mark()
    rt.h2.set_used(1)  # one member referenced keeps both
    assert rt.h2.reclaim_free_regions() == []
    assert rt.h2.partition_ids[0] == 1

    rt.h2.begin_mark()  # next cycle: nothing referenced
    assert rt.h2.reclaim_free_regions() == [0, 1]
    assert rt.h2.alloc_offsets == [0] * rt.h2.n_regions


def test_reclaim_cleans_cards_including_boundary(rt):
    addr = rt.h2.allocate_in_region(1, 4096)
    rt.h2.dirty_card(addr)  # card 0 is a stripe boundary
    assert rt.h2.cards.is_boundary(0)
    rt.h2.begin_mark()
    rt.h2.reclaim_free_regions()
    assert rt.h2.cards.count_dirty() == 0
    assert rt.h2.first_obj[0] == 0


def test_reclaim_cost_independent_of_object_count():
    def reclaim_ops(n_objects: int) -> int:
        with Runtime(make_config(h2_size=4 * MIB, region=1 * MIB, stripe=128 * KIB)) as rt:
            size = 64
            for _ in range(n_objects):
                rt.h2.allocate_in_region(1, size)
            assert rt.h2.region_of(rt.h2.region_alloc_end(0) - 8) == 0
            rt.h2.begin_mark()
            before = rt.counters["reclaim_ops"]
            freed = rt.h2.reclaim_free_regions()
            assert freed == [0]
            return rt.counters["reclaim_ops"] - before

    assert reclaim_ops(100) == reclaim_ops(10000)


def test_unreclaimed_partition_keeps_open_region(rt):
    rt.h2.allocate_in_region(1, 64)
    rt.h2.begin_mark()
    rt.h2.set_used(0)
    rt.h2.reclaim_free_regions()
    # next allocation continues in the same region
    addr = rt.h2.allocate_in_region(1, 64)
    assert rt.h2.region_of(addr) == 0


def test_freed_regions_are_taken_lowest_index_first(rt):
    h2 = rt.h2
    for pid in range(4):
        h2.allocate_in_region(pid, 64)  # regions 0..3
    h2.begin_mark()
    h2.set_used(1)
    h2.set_used(3)
    assert h2.reclaim_free_regions() == [0, 2]
    taken = [h2.region_of(h2.allocate_in_region(pid, 64)) for pid in (10, 11, 12)]
    assert taken == [0, 2, 4]


class _WriteRecordingList(list):
    """Records the indexes stored to."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = []

    def __setitem__(self, idx, value):
        self.writes.append(idx)
        super().__setitem__(idx, value)


def test_empty_major_visits_only_allocated_regions():
    """On 65,536 regions with two allocated, a major with nothing to move
    sets USED bits and visits groups for those two only, so its region
    work does not grow with the configured region count."""
    cfg = make_config(h2_size=128 * MIB, region=2 * KIB, h2_card=1 * KIB, stripe=2 * KIB)
    with Runtime(cfg) as rt:
        h2 = rt.h2
        assert h2.n_regions == 65536
        desc = register_node_class(rt)
        for pid in (1, 2):
            slot = build_chain(rt, desc, 3)
            rt.persist(rt.read_root(slot), pid)
        rt.major_collect()
        allocated = h2.allocated_regions()
        assert len(allocated) == 2
        h2.used_bits = _WriteRecordingList(h2.used_bits)
        visited = []
        group_root = h2.group_root
        h2.group_root = lambda idx: visited.append(idx) or group_root(idx)
        ops = rt.counters["reclaim_ops"]
        rt.major_collect()
        assert h2.used_bits.writes and set(h2.used_bits.writes) == set(allocated)
        assert visited and set(visited) == set(allocated)
        assert h2.allocated_regions() == allocated
        assert rt.counters["reclaim_ops"] - ops == 2
