"""Equality gate: work counters and checksum digests match a golden file.

Replays `pagerank_like`, `cc_like` and `uniform` at scale 4, seed 7, in
TC, SD and MO under a small config that exercises H1 card scans, SD
evictions and backward references, and compares every work counter (all
report counters except the `*_seconds` columns) and the checksum digest
with `equality_gate_golden.json`.

A change that is meant to move a counter regenerates the file and says
which counters moved and why:

    PYTHONPATH=src python tests/test_equality_gate.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from dualheap import H1Config, H2Config, RuntimeConfig, SdConfig
from dualheap.workload import generate_trace, parse_trace, run_trace

GOLDEN = Path(__file__).with_name("equality_gate_golden.json")
PROFILES = ("pagerank_like", "cc_like", "uniform")
MODES = ("TC", "SD", "MO")
SCALE = 4
SEED = 7
KIB = 1024


def gate_config() -> RuntimeConfig:
    return RuntimeConfig(
        h1=H1Config(young_size=80 * KIB, old_size=96 * KIB, card_segment=256),
        h2=H2Config(
            size=4096 * KIB,
            region_size=64 * KIB,
            card_segment=4 * KIB,
            stripe_size=16 * KIB,
            scan_threads=4,
        ),
        sd=SdConfig(cache_fraction=0.1),
    ).validate()


def replay(profile: str, mode: str) -> dict:
    events = parse_trace(generate_trace(profile, SCALE, seed=SEED))
    report = run_trace(events, mode, gate_config())
    counters = {k: v for k, v in report.counters.items() if not k.endswith("_seconds")}
    return {"counters": counters, "checksum_digest": report.checksum_digest}


def all_replays() -> dict:
    return {f"{p}-{m}": replay(p, m) for p in PROFILES for m in MODES}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("mode", MODES)
def test_counters_and_digest_match_golden(profile, mode):
    golden = json.loads(GOLDEN.read_text())
    assert replay(profile, mode) == golden[f"{profile}-{mode}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN.write_text(json.dumps(all_replays(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
