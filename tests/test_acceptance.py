"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; trend criteria assert direction of effect on deterministic
work counters, never wall-clock.
"""

from random import Random

import pytest

from dualheap import Runtime, generate_trace, parse_trace, run_trace
from dualheap.cli import sweep_reports
from dualheap.migration import PersistHint, etr_mark_closure
from dualheap.workload import TraceDriver

from conftest import KIB, MIB, build_chain, make_config, register_node_class
from heap_oracle import (
    assert_no_dangling_h2,
    brute_force_backward_refs,
    current_backward_stack,
    nontransient_closure,
    marked_h1_objects,
)
from shadow_runner import run_shadow_scenario

N_SHADOW_SCENARIOS = 700
N_TRACE_TRIPLES = 350
N_CLOSURE_GRAPHS = 1000
N_FREE_TRIALS = 10_000


def _announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {message}")


# ---------------------------------------------------------------------------
# criterion 1: correctness oracle suite


def _random_trace_lines(rng: Random) -> list[str]:
    lines = ["define_class id=1 scalars=2"]
    alive: list[int] = []
    persisted: set[int] = set()
    next_pid = 0
    for _ in range(rng.randint(1, 3)):
        pid = next_pid
        next_pid += 1
        count = rng.randint(4, 120)
        fanout = rng.randint(0, 3)
        tfrac = rng.choice([0.0, 0.25, 0.5, 1.0])
        lines.append(
            f"build_partition part={pid} family=1 count={count} "
            f"fanout={fanout} tfrac={tfrac} seed={rng.randrange(1 << 20)}"
        )
        alive.append(pid)
        if rng.random() < 0.8:
            lines.append(f"persist part={pid}")
            persisted.add(pid)
    for _ in range(rng.randint(3, 14)):
        roll = rng.random()
        if roll < 0.35 and alive:
            pid = alive[rng.randrange(len(alive))]
            kind = "point" if rng.random() < 0.3 else "scan"
            seed = f" seed={rng.randrange(1 << 20)}" if kind == "point" else ""
            lines.append(f"access part={pid} kind={kind}{seed}")
        elif roll < 0.55 and alive:
            pid = alive[rng.randrange(len(alive))]
            lines.append(
                f"mutate part={pid} count={rng.randint(1, 5)} seed={rng.randrange(1 << 20)}"
            )
        elif roll < 0.75:
            lines.append(f"gc_hint kind={'major' if rng.random() < 0.5 else 'minor'}")
        elif roll < 0.85 and len(alive) > 1:
            pid = alive[rng.randrange(len(alive))]
            if pid in persisted:
                lines.append(f"unpersist part={pid}")
                alive.remove(pid)
        elif alive:
            pid = alive[rng.randrange(len(alive))]
            lines.append(f"access part={pid} kind=scan")
    return lines


def test_criterion_01_correctness_oracle_suite():
    """Randomized workloads against the brute-force oracles, zero tolerance.

    Shadow scenarios mirror every heap operation into a collection-free
    Python object graph and assert, after every collection: exact graph
    correspondence (live set and payloads), equality of the backward
    reference stack with a brute-force H2 walk, bounded H1 retention, and
    no reachable object in a freed region.  Trace triples replay one
    random trace under TC, SD and MO and require identical access
    checksums; the TC run carries the state-only oracle checks.
    """
    collections_checked = 0
    for seed in range(N_SHADOW_SCENARIOS):
        collections_checked += run_shadow_scenario(10_000 + seed)
    assert collections_checked > 2 * N_SHADOW_SCENARIOS

    cfg = make_config(young=80 * KIB, old=256 * KIB, h2_size=2 * MIB)

    def observer(driver, kind, stats):
        assert_no_dangling_h2(driver.rt)
        if kind == "minor":
            assert current_backward_stack(driver.rt) == brute_force_backward_refs(driver.rt)

    for seed in range(N_TRACE_TRIPLES):
        rng = Random(("acceptance-1", seed).__repr__())
        events = parse_trace("\n".join(_random_trace_lines(rng)) + "\n")
        digests = {
            run_trace(events, "TC", cfg, observer=observer).checksum_digest,
            run_trace(events, "SD", cfg).checksum_digest,
            run_trace(events, "MO", cfg).checksum_digest,
        }
        assert len(digests) == 1, f"checksum divergence on trace seed {seed}"
    _announce(
        1,
        f"{N_SHADOW_SCENARIOS} shadow scenarios ({collections_checked} collections "
        f"checked) + {N_TRACE_TRIPLES} trace triples agree with the oracles",
    )


# ---------------------------------------------------------------------------
# criterion 2: closure marking equals the serializer oracle


def test_criterion_02_closure_equals_serializer_oracle():
    fractions = [0.0, 0.25, 0.5, 1.0]
    per_fraction = N_CLOSURE_GRAPHS // len(fractions)
    checked = 0
    for fraction in fractions:
        cfg = make_config()
        with Runtime(cfg) as rt:
            rng = Random(f"acceptance-2:{fraction}")
            descs = []
            for v in range(8):
                n_refs = rng.randint(1, 3)
                transient = tuple(i for i in range(n_refs) if rng.random() < fraction)
                if fraction == 1.0:
                    transient = tuple(range(n_refs))
                descs.append(
                    register_node_class(rt, refs=n_refs, scalars=1, transient=transient)
                )
            for trial in range(per_fraction):
                count = rng.randint(2, 60)
                slots = []
                for i in range(count):
                    h = rt.allocate(descs[rng.randrange(len(descs))])
                    slots.append(rt.add_root(h))
                    rt.write_scalar(h, rt.descriptor_of(h).scalar_indexes[0], trial * 1000 + i)
                for i in range(count):
                    h = rt.read_root(slots[i])
                    desc = rt.descriptor_of(h)
                    for k, fi in enumerate(desc.ref_indexes):
                        if k == 0 and i + 1 < count:
                            target = rt.read_root(slots[i + 1])
                        else:
                            target = rt.read_root(slots[rng.randrange(count)])
                        rt.write_ref(h, fi, target)
                root = rt.read_root(slots[0])
                expected = nontransient_closure(rt, root)
                marked_count = etr_mark_closure(rt, [PersistHint(root, trial + 1)])
                marked = {
                    a for a, p in marked_h1_objects(rt).items() if p == trial + 1
                }
                assert marked == expected, (fraction, trial)
                assert marked_count == len(expected)
                checked += 1
                for addr in expected:
                    rt.clear_cache_mark(addr)
                for s in slots:
                    rt.drop_root(s)
                if trial % 50 == 49:
                    rt.major_collect()
    assert checked >= N_CLOSURE_GRAPHS
    _announce(2, f"{checked} randomized typed graphs, closure == serializer oracle")


# ---------------------------------------------------------------------------
# criterion 3: bulk free independent of object count


def test_criterion_03_bulk_free_object_count_independent():
    def reclaim_ops(n_objects: int) -> int:
        cfg = make_config(
            young=10 * MIB, old=16 * MIB, h2_size=16 * MIB,
            region=8 * MIB, stripe=1 * MIB, h2_card=8 * KIB,
        )
        with Runtime(cfg) as rt:
            desc = register_node_class(rt, refs=1, scalars=1)  # 40-byte objects
            slot = build_chain(rt, desc, n_objects)
            rt.persist(rt.read_root(slot), 1)
            rt.major_collect()
            assert rt.h2.allocated_regions() == [0]
            rt.unpersist(1)
            before = rt.counters["reclaim_ops"]
            stats = rt.major_collect()
            assert stats.regions_freed == [0]
            return rt.counters["reclaim_ops"] - before

    small = reclaim_ops(100)
    large = reclaim_ops(100_000)
    assert small == large, f"reclaim ops differ: {small} vs {large}"
    _announce(3, f"reclaim of 10^2 vs 10^5 objects: identical {small} primitive ops")


# ---------------------------------------------------------------------------
# criterion 4: card-segment sweep trend


def test_criterion_04_card_segment_trend(tmp_path):
    trace = tmp_path / "uniform.trace"
    trace.write_text(generate_trace("uniform", 3, seed=17))
    base = make_config(
        young=80 * KIB, old=512 * KIB, h2_size=4 * MIB,
        region=256 * KIB, stripe=64 * KIB, h2_card=8 * KIB,
        trace=str(trace),
    )
    values = ["512", "1024", "4096", "8192", "16384"]
    reports = sweep_reports(base, "card_segment", values)
    scanned = [rep.counters["h2_cards_scanned"] for _v, rep in reports]
    assert all(a >= b for a, b in zip(scanned, scanned[1:])), scanned
    for (value, rep) in reports:
        walked = rep.counters["h2_segment_bytes_walked"]
        assert walked <= rep.counters["h2_cards_scanned"] * int(value)
    _announce(4, f"cards scanned over 512B..16KiB: {scanned} (non-increasing, walk bounded)")


# ---------------------------------------------------------------------------
# criterion 5: boundary-card fraction


def test_criterion_05_boundary_fraction_exact():
    cases = [
        # (stripe, segment, h2 size, region, expected numerator/denominator)
        (64 * KIB, 8 * KIB, 2 * MIB, 256 * KIB, (2, 8)),
        (8 * MIB, 8 * KIB, 16 * MIB, 8 * MIB, (2, 1024)),
    ]
    measured = []
    for stripe, segment, h2_size, region, (num, den) in cases:
        cfg = make_config(
            h2_size=h2_size, region=region, stripe=stripe, h2_card=segment, threads=2
        )
        with Runtime(cfg) as rt:
            table = rt.h2.cards
            for idx in range(table.n_cards):
                rt.h2.dirty_card(rt.h2.base + idx * segment)
            assert table.count_dirty() == table.n_cards
            for tid in range(cfg.h2.scan_threads):
                rt.h2.scan_dirty_cards(tid)
            remaining = table.count_dirty()
            assert remaining * den == table.n_cards * num, (
                f"stripe={stripe} segment={segment}: {remaining}/{table.n_cards}"
            )
            assert all(
                table.is_boundary(i) for i in range(table.n_cards) if table.is_dirty(i)
            )
            measured.append(f"{remaining}/{table.n_cards}")
    _announce(5, f"always-dirty boundary fractions measured {measured} == 2/8 and 2/1024")


# ---------------------------------------------------------------------------
# criterion 6 and 7: major-collection ordering, serialization elimination


@pytest.fixture(scope="module")
def mode_comparison_runs():
    events = parse_trace(generate_trace("pagerank_like", 30, seed=42))
    total_objects = sum(e.args["count"] for e in events if e.op == "build_partition")
    footprint = total_objects * 48
    cfg = make_config(
        young=10240, old=63488,
        h2_size=4 * MIB, region=16 * KIB, stripe=8 * KIB, h2_card=4 * KIB,
    )
    ratio = footprint / (cfg.h1.young_size + cfg.h1.old_size)
    assert 8.0 <= ratio <= 12.0, f"footprint/H1 ratio {ratio:.1f} not near 10"
    out = {}
    for mode in ("TC", "SD"):
        majors = []

        def observer(driver, kind, stats, majors=majors):
            if kind == "major":
                majors.append(stats)

        report = run_trace(events, mode, cfg, observer=observer)
        out[mode] = (report, majors)
    return out


def test_criterion_06_major_collection_ordering(mode_comparison_runs):
    tc_report, tc_majors = mode_comparison_runs["TC"]
    sd_report, sd_majors = mode_comparison_runs["SD"]
    assert tc_report.checksum_digest == sd_report.checksum_digest

    tc_count = tc_report.counters["major_count"]
    sd_count = sd_report.counters["major_count"]
    assert tc_count < sd_count, f"TC {tc_count} majors vs SD {sd_count}"

    def avg_reclaimed_fraction(majors):
        fracs = [
            (s.old_bytes_before - s.old_bytes_after) / s.old_bytes_before
            for s in majors
            if s.old_bytes_before > 0
        ]
        return sum(fracs) / len(fracs)

    tc_frac = avg_reclaimed_fraction(tc_majors)
    sd_frac = avg_reclaimed_fraction(sd_majors)
    assert sd_frac < tc_frac, f"SD reclaims {sd_frac:.3f} vs TC {tc_frac:.3f}"
    _announce(
        6,
        f"majors TC={tc_count} < SD={sd_count}; per-cycle reclaimed fraction "
        f"SD={sd_frac:.3f} < TC={tc_frac:.3f}",
    )


def test_criterion_07_serialization_elimination(mode_comparison_runs):
    tc_report, _ = mode_comparison_runs["TC"]
    sd_report, _ = mode_comparison_runs["SD"]
    assert tc_report.counters["bytes_serialized"] == 0
    assert tc_report.counters["bytes_deserialized"] == 0
    assert sd_report.counters["evictions"] > 0
    assert sd_report.counters["bytes_serialized"] > 0
    # TC never serializes on any trace: spot-check the other profiles too.
    for profile in ("cc_like", "uniform"):
        events = parse_trace(generate_trace(profile, 2, seed=3))
        cfg = make_config(young=80 * KIB, old=256 * KIB, h2_size=2 * MIB)
        rep = run_trace(events, "TC", cfg)
        assert rep.counters["bytes_serialized"] == 0
        assert rep.counters["bytes_deserialized"] == 0
    _announce(
        7,
        f"TC bytes serialized/deserialized = 0 everywhere; SD serialized "
        f"{sd_report.counters['bytes_serialized']} bytes over "
        f"{sd_report.counters['evictions']} evictions",
    )


# ---------------------------------------------------------------------------
# criterion 8: write-strategy equivalence


def test_criterion_08_strategy_equivalence(tmp_path):
    events = parse_trace(generate_trace("uniform", 3, seed=29))
    buffer_size = 8 * KIB
    images = {}
    cycles = {}
    for strategy in ("direct_copy", "batched_async"):
        majors = []

        def observer(driver, kind, stats, majors=majors):
            if kind == "major":
                majors.append(stats)

        cfg = make_config(
            young=80 * KIB, old=512 * KIB, h2_size=4 * MIB,
            strategy=strategy, batch_buffer=buffer_size,
        )
        with TraceDriver(cfg, mode="TC", observer=observer) as driver:
            driver.run(events)
            h2 = driver.rt.h2
            images[strategy] = [
                (r, h2.partition_ids[r],
                 h2.load_words(h2.region_start(r), h2.region_start(r) + h2.alloc_offsets[r]))
                for r in h2.allocated_regions()
            ]
        cycles[strategy] = majors
    assert images["direct_copy"] == images["batched_async"]
    flush_total = 0
    for stats in cycles["batched_async"]:
        limit = -(-stats.bytes_moved_to_h2 // buffer_size)  # ceil
        assert stats.h2_flush_ops <= limit, (stats.h2_flush_ops, limit)
        flush_total += stats.h2_flush_ops
    _announce(
        8,
        f"direct_copy and batched_async images byte-identical; "
        f"{flush_total} flushes all within ceil(bytes/buffer)",
    )


# ---------------------------------------------------------------------------
# criterion 9: stripe-scan partition


def test_criterion_09_stripe_scan_partition():
    lines = [
        "define_class id=1 scalars=2",
        "build_partition part=0 family=1 count=150 fanout=2 tfrac=0.5 seed=8",
        "persist part=0",
        "build_partition part=1 family=1 count=150 fanout=2 tfrac=0.25 seed=9",
        "persist part=1",
        "gc_hint kind=major",
        "mutate part=0 count=10 seed=3",
        "mutate part=1 count=10 seed=4",
        "gc_hint kind=minor",
        "access part=0 kind=scan",
        "gc_hint kind=minor",
    ]
    events = parse_trace("\n".join(lines) + "\n")
    outcomes = {}
    for threads in (1, 2, 4, 8):
        cfg = make_config(
            young=80 * KIB, old=512 * KIB,
            h2_size=2 * MIB, region=256 * KIB, stripe=64 * KIB, h2_card=8 * KIB,
            threads=threads,
        )
        with TraceDriver(cfg, mode="TC") as driver:
            driver.run(events)
            rt = driver.rt
            table = rt.h2.cards
            owner = {}
            for tid in range(threads):
                for idx in table.cards_for_thread(tid):
                    assert idx not in owner, "card visited by two threads"
                    owner[idx] = tid
            assert len(owner) == table.n_cards, "cards not fully covered"
            outcomes[threads] = (
                frozenset(current_backward_stack(rt)),
                bytes(table.cards),
                rt.counters["h2_cards_scanned"],
            )
            assert current_backward_stack(rt) == brute_force_backward_refs(rt)
    baseline = outcomes[1]
    for threads in (2, 4, 8):
        assert outcomes[threads] == baseline, f"scan_threads={threads} diverged"
    _announce(
        9,
        "scan_threads in {1,2,4,8}: exact once-cover of all cards, identical "
        f"backward sets, card states and scan counts ({baseline[2]} cards)",
    )


# ---------------------------------------------------------------------------
# criterion 10: group free-together safety


def test_criterion_10_group_free_together():
    cfg = make_config(h2_size=2 * MIB, region=32 * KIB, stripe=16 * KIB,
                      h2_card=8 * KIB, threads=2)
    rng = Random("acceptance-10")
    done = 0
    freed_regions = 0
    injected = 0
    while done < N_FREE_TRIALS:
        with Runtime(cfg) as rt:
            desc_plain = register_node_class(rt, refs=2, scalars=1)
            desc_trans = register_node_class(rt, refs=2, scalars=1, transient=(1,))
            pid = 0
            while done < N_FREE_TRIALS and pid + 2 <= 50:
                d1 = desc_trans if rng.random() < 0.5 else desc_plain
                d2 = desc_trans if rng.random() < 0.5 else desc_plain
                s1 = build_chain(rt, d1, rng.randint(4, 14), tag_base=pid * 100)
                s2 = build_chain(rt, d2, rng.randint(4, 14), tag_base=pid * 100 + 50)
                rt.persist(rt.read_root(s1), pid)
                rt.persist(rt.read_root(s2), pid + 1)
                if rng.random() < 0.5:
                    # cross-partition reference injected while still in H1
                    rt.write_ref(rt.read_root(s1), rng.randrange(2), rt.read_root(s2))
                    injected += 1
                rt.major_collect()
                if rng.random() < 0.5:
                    # cross-region reference injected directly between
                    # migrated objects
                    objs = list(rt.iter_h2_objects())
                    if len(objs) >= 2:
                        rt.write_ref(
                            objs[rng.randrange(len(objs))], 0,
                            objs[rng.randrange(len(objs))],
                        )
                        injected += 1
                drop = rng.randrange(3)
                if drop != 1:
                    rt.unpersist(pid)
                if drop != 0:
                    rt.unpersist(pid + 1)
                stats = rt.major_collect()
                freed_regions += len(stats.regions_freed)
                assert_no_dangling_h2(rt)
                pid += 2
                done += 1
    assert freed_regions > 0
    _announce(
        10,
        f"{done} injection trials ({injected} refs injected, {freed_regions} "
        "regions freed): no freed region ever reachable",
    )
