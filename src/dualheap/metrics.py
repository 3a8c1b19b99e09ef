"""Collection statistics and run-level metrics.

Run totals have one registry, `Runtime.counters`, a `defaultdict(int)`
that every layer increments in place.  It holds the deterministic work
counters (objects visited, cards scanned, bytes copied), which make trend
comparisons machine-independent, and the `*_seconds` wall-clock sums,
which are excluded from determinism guarantees.  `MinorStats` and
`MajorStats` are the per-collection records.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MinorStats:
    index: int = 0
    seconds: float = 0.0
    objects_copied: int = 0
    objects_promoted: int = 0
    bytes_copied: int = 0
    h2_cards_scanned: int = 0
    backward_refs: int = 0
    h1_cards_scanned: int = 0
    roots_scanned: int = 0
    escalated_to_major: bool = False
    # h2_scan, h1_cards, trace, plan, copy, fixup; not part of the CSV schema.
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class MajorStats:
    index: int = 0
    seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    live_objects: int = 0
    marked_objects: int = 0
    objects_moved_to_h2: int = 0
    bytes_moved_to_h2: int = 0
    h2_flush_ops: int = 0
    regions_freed: list[int] = field(default_factory=list)
    old_bytes_before: int = 0
    old_bytes_after: int = 0


# Report columns that are run totals, read from `Runtime.counters`.
COUNTER_COLUMNS = [
    "mutator_steps",
    "alloc_objects",
    "alloc_bytes",
    "minor_count",
    "major_count",
    "minor_seconds",
    "major_seconds",
    "mark_seconds",
    "precompact_seconds",
    "compact_seconds",
    "adjust_seconds",
    "h2_cards_scanned",
    "h2_segment_bytes_walked",
    "backward_refs_found",
    "h2_cards_dirtied",
    "h2_boundary_dirty",
    "h1_cards_scanned",
    "objects_copied_minor",
    "objects_promoted",
    "objects_moved_to_h2",
    "bytes_moved_to_h2",
    "regions_freed",
    "h2_flush_ops",
    "bytes_serialized",
    "bytes_deserialized",
    "evictions",
    "barrier_h1_hits",
    "barrier_h2_hits",
]

# Column order is fixed: the CSV schema is a function of the tool version.
REPORT_COLUMNS = [
    "run_id",
    "config_hash",
    "mode",
    "seed",
    "wall_seconds",
    *COUNTER_COLUMNS,
    "checksum_digest",
]

# Deterministic work counters eligible for normalized sweep columns.
WORK_COUNTER_COLUMNS = [
    "mutator_steps",
    "minor_count",
    "major_count",
    "h2_cards_scanned",
    "h2_segment_bytes_walked",
    "backward_refs_found",
    "objects_copied_minor",
    "objects_promoted",
    "objects_moved_to_h2",
    "bytes_moved_to_h2",
    "h2_flush_ops",
    "bytes_serialized",
    "bytes_deserialized",
]


@dataclass
class MetricsReport:
    run_id: str
    config_hash: str
    mode: str
    seed: int
    wall_seconds: float
    counters: dict[str, int | float]
    checksums: list[tuple[int, int]] = field(default_factory=list)
    checksum_digest: str = ""

    def row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "run_id": self.run_id,
            "config_hash": self.config_hash,
            "mode": self.mode,
            "seed": self.seed,
            "wall_seconds": f"{self.wall_seconds:.6f}",
            "checksum_digest": self.checksum_digest,
        }
        for col in COUNTER_COLUMNS:
            row[col] = self.counters.get(col, 0)
        return row
