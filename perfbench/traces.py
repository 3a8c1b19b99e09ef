"""Seeded trace generators owned by the benchmark.

Each generator emits text in the public trace grammar (see the
``dualheap.workload`` docstring).  They do not call
``dualheap.workload.generate_trace``, so a change to the program's own
generator cannot change the benchmark's inputs.

The seed only picks graph wiring, point-access targets and mutation
values.  Partition sizes and the number of events of each op are fixed by
the shape, so every seed gives the same sample counts per op and the same
set of reportable percentiles.
"""

from __future__ import annotations

import hashlib
from random import Random

DEV_SEED = 1
"""Seed used while writing the benchmark and tuning against it."""

HELDOUT_SEED = 9001
"""Seed kept out of development; a claimed gain should also hold on it."""


def _rng(shape: str, seed: int) -> Random:
    digest = hashlib.sha256(f"perfbench:{shape}:{seed}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "little"))


class _Lines:
    def __init__(self, shape: str, seed: int) -> None:
        self.rng = _rng(shape, seed)
        self.lines = [f"# perfbench shape={shape} seed={seed}", "define_class id=1 scalars=2"]

    def _seed(self) -> int:
        return self.rng.randrange(1 << 30)

    def build(self, part: int, count: int, tfrac: float) -> None:
        self.lines.append(
            f"build_partition part={part} family=1 count={count} fanout=2 "
            f"tfrac={tfrac} seed={self._seed()}"
        )
        self.lines.append(f"persist part={part}")

    def scan(self, part: int) -> None:
        self.lines.append(f"access part={part} kind=scan")

    def point(self, part: int) -> None:
        self.lines.append(f"access part={part} kind=point seed={self._seed()}")

    def mutate(self, part: int, count: int) -> None:
        self.lines.append(f"mutate part={part} count={count} seed={self._seed()}")

    def unpersist(self, part: int) -> None:
        self.lines.append(f"unpersist part={part}")

    def gc(self, kind: str) -> None:
        self.lines.append(f"gc_hint kind={kind}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


PAGERANK_GROUPS = 30
PAGERANK_PER_GROUP = 3
PAGERANK_PASSES = 2


def pagerank_trace(seed: int) -> str:
    """Immutable partitions built in waves, two iteration passes across a
    hinted major, then unpersisted in two cohorts.

    The cache footprint (90 partitions of 120/180/240 objects of 48 bytes)
    is about ten times a 72 KiB H1.  Every pass ends each group with a
    minor hint, the superstep barrier, so the trace has well over 100
    collection pauses in either mode.  Each scan is followed by two small
    mutates, which gives the mutate p95 twenty samples beyond it.
    """
    t = _Lines("pagerank", seed)
    parts = lambda g: [g * PAGERANK_PER_GROUP + i for i in range(PAGERANK_PER_GROUP)]
    for g in range(PAGERANK_GROUPS):
        for p in parts(g):
            t.build(p, 120 + 60 * (p % 3), tfrac=0.0)
            t.scan(p)
    t.gc("major")
    for _ in range(PAGERANK_PASSES):
        for g in range(PAGERANK_GROUPS):
            for p in parts(g):
                t.scan(p)
                t.mutate(p, 3)
                t.mutate(p, 3)
            t.point(parts(g)[0])
            t.gc("minor")
    half = PAGERANK_GROUPS // 2
    for g in range(half):
        for p in parts(g):
            t.unpersist(p)
    t.gc("major")
    for g in range(half, PAGERANK_GROUPS):
        for p in parts(g):
            t.scan(p)
            t.mutate(p, 3)
            t.mutate(p, 3)
    for g in range(half, PAGERANK_GROUPS):
        for p in parts(g):
            t.unpersist(p)
    t.gc("major")
    return t.text()


WRITE_PARTITIONS = 20
WRITE_ROUNDS = 130
WRITE_MUTATIONS = 60


def write_rounds_trace(seed: int) -> str:
    """Partitions with 25% transient reference fields, migrated once by a
    hinted major, then rounds of point reads and scalar writes.

    Each round gives every cached partition one point access and one
    mutate, builds and drops one short-lived partition to churn H1, and
    ends with a minor hint.
    """
    t = _Lines("write_rounds", seed)
    for p in range(WRITE_PARTITIONS):
        t.build(p, 100 + 50 * (p % 3), tfrac=0.25)
    t.gc("major")
    for r in range(WRITE_ROUNDS):
        for p in range(WRITE_PARTITIONS):
            t.point(p)
            t.mutate(p, WRITE_MUTATIONS)
        churn = WRITE_PARTITIONS + r
        t.build(churn, 120, tfrac=0.25)
        t.unpersist(churn)
        t.gc("minor")
    for p in range(WRITE_PARTITIONS):
        t.unpersist(p)
    t.gc("major")
    return t.text()
