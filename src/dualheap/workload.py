"""Synthetic cache workload: typed object graphs built and replayed from a
line-oriented trace, with three run modes.

  TC  dual heap: persist hints the runtime, objects migrate to H2 at the
      next major collection, accesses read H2 directly.
  SD  single H1 heap with a serialize-on-evict baseline: persisted
      partitions live on-heap until the cached bytes exceed a fraction of
      H1, then the least-recently-used partition is serialized out and
      deserialized back on access.
  MO  single H1 heap sized to hold every partition on-heap.

The observable behavior (the sequence of access checksums) is identical
across modes by construction: graph wiring, access order and mutations are
driven purely by event seeds and traversal order, never by addresses.

Trace grammar: one event per line, ``op key=value ...``; blank lines and
``#`` comments are skipped.

    define_class id=1 scalars=2
    build_partition part=0 family=1 count=200 fanout=2 tfrac=0.25 seed=7
    persist part=0
    access part=0 kind=scan
    access part=0 kind=point seed=3
    mutate part=0 count=5 seed=11
    unpersist part=0
    gc_hint kind=major
"""

from __future__ import annotations

import hashlib
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple

from .config import RuntimeConfig
from .errors import HeapError, TraceError
from .metrics import COUNTER_COLUMNS, MetricsReport
from .objmodel import PARTITION_ID_LIMIT, FieldKind, FieldSpec, HEADER_SIZE, WORD_SIZE
from .runtime import Runtime

_MASK64 = 0xFFFFFFFFFFFFFFFF
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

N_CLASS_VARIANTS = 8


def seed_of(text: str) -> int:
    """The 64-bit seed of a pre-joined `derive_seed` key, for hot loops
    that format the key in one f-string: ``seed_of(f"delta:{seed}:{k}")``
    equals ``derive_seed("delta", seed, k)``."""
    return _U64.unpack_from(hashlib.sha256(text.encode()).digest())[0]


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derivation (independent of PYTHONHASHSEED): the
    first 8 bytes, little-endian, of the SHA-256 of the parts joined by
    ':'."""
    return seed_of(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# trace events


class TraceEvent(NamedTuple):
    op: str
    args: dict
    index: int = 0


_EVENT_ARGS = {
    "define_class": {"id": int, "scalars": int},
    "build_partition": {
        "part": int,
        "family": int,
        "count": int,
        "fanout": int,
        "tfrac": float,
        "seed": int,
    },
    "persist": {"part": int},
    "access": {"part": int, "kind": str, "seed": int},
    "mutate": {"part": int, "count": int, "seed": int},
    "unpersist": {"part": int},
    "gc_hint": {"kind": str},
}

_OPTIONAL_ARGS = {"access": {"seed"}}

_REQUIRED_ARGS = {op: set(spec) - _OPTIONAL_ARGS.get(op, set()) for op, spec in _EVENT_ARGS.items()}


def parse_trace(text: str) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        parts = raw.split()
        if not parts:
            continue
        op = parts[0]
        spec = _EVENT_ARGS.get(op)
        if spec is None:
            raise TraceError(f"event {lineno}: unknown op {op!r}")
        args = {}
        for token in parts[1:]:
            key, eq, value = token.partition("=")
            if not eq:
                raise TraceError(f"event {lineno}: malformed token {token!r}")
            convert = spec.get(key)
            if convert is None:
                raise TraceError(f"event {lineno}: unknown key {key!r} for {op}")
            try:
                args[key] = convert(value)
            except ValueError:
                raise TraceError(f"event {lineno}: bad value {value!r} for {key}") from None
        if len(args) < len(parts) - 1:  # a key given twice
            keys = [token.partition("=")[0] for token in parts[1:]]
            twice = next(key for key in keys if keys.count(key) > 1)
            raise TraceError(f"event {lineno}: key {twice!r} given twice for {op}")
        if len(args) < len(spec):  # every key of args is one of spec's
            missing = _REQUIRED_ARGS[op] - args.keys()
            if missing:
                raise TraceError(f"event {lineno}: {op} missing {sorted(missing)}")
        events.append(TraceEvent(op, args, lineno))
    return events


# ---------------------------------------------------------------------------
# trace generation

PROFILES = ("pagerank_like", "cc_like", "uniform")


def generate_trace(profile: str, scale: int, seed: int) -> str:
    """Emit a deterministic trace; identical arguments give identical bytes.

    pagerank_like / cc_like stage partitions in waves, re-access them in
    long "lines" that cross a hinted major collection, and unpersist them
    in lifetime cohorts.  uniform touches every partition equally often
    and keeps transient fractions at zero, which makes it backward-
    reference-sparse.
    """
    if profile not in PROFILES:
        raise TraceError(f"unknown profile {profile!r}")
    if scale < 1:
        raise TraceError("scale must be >= 1")
    rng = Random(derive_seed("trace", profile, scale, seed))
    lines = [f"# profile={profile} scale={scale} seed={seed}"]
    lines.append("define_class id=1 scalars=2")

    def build(part: int, count: int, fanout: int, tfrac: float) -> None:
        lines.append(
            f"build_partition part={part} family=1 count={count} "
            f"fanout={fanout} tfrac={tfrac} seed={rng.randrange(1 << 30)}"
        )
        lines.append(f"persist part={part}")

    def access(part: int, kind: str = "scan") -> None:
        if kind == "point":
            lines.append(f"access part={part} kind=point seed={rng.randrange(1 << 30)}")
        else:
            lines.append(f"access part={part} kind=scan")

    def mutate(part: int, count: int) -> None:
        lines.append(f"mutate part={part} count={count} seed={rng.randrange(1 << 30)}")

    if profile == "uniform":
        n_parts = 2 * scale
        counts = [80 + 40 * (p % 3) for p in range(n_parts)]
        for p in range(n_parts):
            build(p, counts[p], fanout=2, tfrac=0.0)
        lines.append("gc_hint kind=major")
        for _round in range(3):
            for p in range(n_parts):
                access(p)
                mutate(p, 4)
            lines.append("gc_hint kind=minor")
        for p in range(n_parts):
            lines.append(f"unpersist part={p}")
        lines.append("gc_hint kind=major")
        return "\n".join(lines) + "\n"

    groups = max(2, scale)
    per_group = 3 if profile == "pagerank_like" else 2
    repeats = 2 if profile == "pagerank_like" else 1
    # Fully immutable partitions for the pagerank-like profile: transient
    # fields pin their targets in H1 for as long as the cache lives, which
    # would swamp a deliberately tight H1 at high footprint ratios.
    tfrac = 0.0 if profile == "pagerank_like" else 0.25
    parts_of = lambda g: [g * per_group + i for i in range(per_group)]
    for g in range(groups):
        for p in parts_of(g):
            build(p, 120 + 60 * (p % 3), fanout=2, tfrac=tfrac)
            access(p)  # creation-time access
    lines.append("gc_hint kind=major")
    for _it in range(repeats):
        for g in range(groups):
            for p in parts_of(g):
                access(p)
                if profile == "cc_like":
                    access(p)  # paired accesses in quick succession
                if rng.random() < 0.4:
                    mutate(p, 3)
            access(parts_of(g)[0], kind="point")
    # Staged unpersist: groups leave the cache in two cohorts.
    half = groups // 2
    for g in range(half):
        for p in parts_of(g):
            lines.append(f"unpersist part={p}")
    lines.append("gc_hint kind=major")
    for g in range(half, groups):
        for p in parts_of(g):
            access(p)
    for g in range(half, groups):
        for p in parts_of(g):
            lines.append(f"unpersist part={p}")
    lines.append("gc_hint kind=major")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# baseline serializer (SD mode)


class BaselineSerializer:
    """Length-prefixed depth-first encoding of the non-transient closure.

    Record stream: u64 payload length, u64 object count, then one record
    per object in depth-first preorder: u32 class id followed by one entry
    per field in layout order (scalars as raw u64, non-transient reference
    fields as the u64 preorder id of the target, 1-based, 0 for null).
    Transient fields are omitted entirely and read back as null.
    """

    def __init__(self, rt: Runtime) -> None:
        self.rt = rt
        # class id -> (record struct, (word index, is reference) per
        # encoded field): the record layout, derived once per class.
        self._records: dict[int, tuple[struct.Struct, tuple[tuple[int, bool], ...]]] = {}

    def _record(self, desc) -> tuple[struct.Struct, tuple[tuple[int, bool], ...]]:
        rec = self._records.get(desc.class_id)
        if rec is None:
            fields = tuple(
                (fs.offset >> 3, fs.kind is FieldKind.REF)
                for fs in desc.fields
                if not fs.transient
            )
            rec = self._records[desc.class_id] = (struct.Struct(f"<I{len(fields)}Q"), fields)
        return rec

    def serialize(self, root: int) -> bytes:
        """Encode the closure of `root`, reading each object's image once."""
        object_words = self.rt.object_words
        ids: dict[int, int] = {}
        images: list[tuple] = []
        stack = [root]
        while stack:
            addr = stack.pop()
            if addr in ids:
                continue
            ids[addr] = len(images) + 1
            desc, w = image = object_words(addr)
            images.append(image)
            stack.extend(w[k] for k in reversed(desc.closure_words) if w[k])
        out = [_U64.pack(len(images))]
        for desc, w in images:
            record, fields = self._record(desc)
            out.append(record.pack(
                desc.class_id, *[ids.get(w[k], 0) if is_ref else w[k] for k, is_ref in fields]
            ))
        body = b"".join(out)
        return _U64.pack(len(body)) + body

    def deserialize(self, blob: bytes) -> tuple[int, int]:
        """Rebuild the graph through `install`; returns (root handle, total
        instance bytes)."""
        rt = self.rt
        (length,) = _U64.unpack_from(blob, 0)
        if length != len(blob) - 8:
            raise TraceError("corrupt serialized partition")
        pos = 8
        (count,) = _U64.unpack_from(blob, pos)
        pos += 8
        records: list[tuple] = []
        total = 0
        for _ in range(count):
            (class_id,) = _U32.unpack_from(blob, pos)
            desc = rt.registry.get(class_id)
            record, fields = self._record(desc)
            values = record.unpack_from(blob, pos)
            pos += record.size
            w = [0] * ((desc.instance_size - HEADER_SIZE) >> 3)  # the words after the header
            for (k, _is_ref), value in zip(fields, values[1:]):
                w[k - 2] = value
            records.append((desc, w))
            total += desc.instance_size
        return install(rt, records)[0], total


def install(rt: Runtime, records: list[tuple]) -> list[int]:
    """Allocate and wire a graph; returns the objects' addresses.

    One record per object: its descriptor and the words after its header,
    where a reference is the 1-based number of its target's record (0 for
    null); the reference words are rewritten in place.  Every object is
    allocated first, through `Runtime.allocate_many`, since an allocation
    may collect.  After the last one nothing moves, so each object's words
    are then stored as one image (the header words keep what allocation
    and collections set), with the post-write barrier applied per
    reference word, and a mutator step counted per scalar and per
    non-null reference, as `write_scalar`/`write_ref` would.
    """
    addrs = rt.allocate_many([desc for desc, _w in records])
    h1 = rt.h1
    layout = rt.layout
    young_lo, young_hi = layout.young_base, layout.young_end
    old_lo, old_hi = layout.old_base, layout.old_end
    steps = hits = 0
    for obj, (desc, w) in zip(addrs, records):
        if not young_lo <= obj < old_hi:
            raise HeapError(f"installed object {obj:#x} lies outside H1")
        is_old = obj >= old_lo
        for k in desc.ref_words:
            value = w[k - 2]
            if value:
                w[k - 2] = value = addrs[value - 1]
                if is_old and young_lo <= value < young_hi:
                    h1.cards.dirty(obj)
                    hits += 1
                steps += 1
        steps += len(desc.scalar_words)
        h1.store_words(obj + HEADER_SIZE, w)
    counters = rt.counters
    counters["mutator_steps"] += steps
    if hits:
        counters["barrier_h1_hits"] += hits
    return addrs


# ---------------------------------------------------------------------------
# driver


@dataclass
class _Partition:
    pid: int
    family: int
    footprint: int
    slot_id: int | None
    status: str = "built"  # built | persisted | unpersisted


class TraceDriver:
    def __init__(
        self,
        config: RuntimeConfig,
        mode: str | None = None,
        observer=None,
    ) -> None:
        self.mode = mode or config.mode
        cfg = config.with_mode(self.mode)
        if self.mode == "MO":
            old = cfg.h2.size if cfg.mo_old_size is None else cfg.mo_old_size
            cfg = replace(cfg, h1=replace(cfg.h1, old_size=old))
        cfg.validate()
        self.config = cfg
        self.rt = Runtime(cfg)
        self.observer = observer
        if observer is not None:
            self.rt.collection_listener = lambda kind, stats: observer(self, kind, stats)
        self.serializer = BaselineSerializer(self.rt)
        self.families: dict[int, int] = {}
        self._variant_cache: dict[tuple, list] = {}
        self.partitions: dict[int, _Partition] = {}
        # SD state: resident cached partitions (pid -> footprint) in LRU
        # order, their total footprint, and the evicted blobs.
        self._sd_lru: OrderedDict[int, int] = OrderedDict()
        self._sd_bytes = 0
        self._sd_blobs: dict[int, bytes] = {}
        # The last closure walk: its key (see `_walk_key`), order and
        # descriptors.
        self._walk: tuple = (None, [], [])
        self.checksums: list[tuple[int, int]] = []

    def close(self) -> None:
        self.rt.close()

    def __enter__(self) -> "TraceDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- class variants ------------------------------------------------

    def _variants(self, family: int, fanout: int, tfrac: float):
        scalars = self.families[family]
        key = (family, fanout, repr(tfrac))
        cached = self._variant_cache.get(key)
        if cached is not None:
            return cached
        variants = []
        for v in range(N_CLASS_VARIANTS):
            rng = Random(derive_seed("variant", family, fanout, repr(tfrac), v))
            layout: list[FieldSpec] = []
            offset = HEADER_SIZE
            for _ in range(fanout):
                layout.append(
                    FieldSpec(offset, FieldKind.REF, transient=rng.random() < tfrac)
                )
                offset += WORD_SIZE
            for _ in range(scalars):
                layout.append(FieldSpec(offset, FieldKind.SCALAR))
                offset += WORD_SIZE
            variants.append(self.rt.register_class(layout))
        self._variant_cache[key] = variants
        return variants

    # -- event handlers --------------------------------------------------

    def run(self, events: list[TraceEvent]) -> MetricsReport:
        t0 = time.perf_counter()
        handlers = {
            "define_class": self._ev_define_class,
            "build_partition": self._ev_build,
            "persist": self._ev_persist,
            "access": self._ev_access,
            "mutate": self._ev_mutate,
            "unpersist": self._ev_unpersist,
            "gc_hint": self._ev_gc_hint,
        }
        for evt in events:
            try:
                handlers[evt.op](evt)
            except TraceError:
                raise
            except KeyError as exc:
                raise TraceError(f"event {evt.index}: missing entity {exc}") from exc
        return self._report(time.perf_counter() - t0)

    def _fail(self, evt: TraceEvent, message: str) -> TraceError:
        return TraceError(f"event {evt.index}: {message}")

    def _ev_define_class(self, evt: TraceEvent) -> None:
        fam = evt.args["id"]
        if fam in self.families:
            raise self._fail(evt, f"family {fam} already defined")
        if evt.args["scalars"] < 1:
            raise self._fail(evt, "family needs at least one scalar field")
        self.families[fam] = evt.args["scalars"]

    def _ev_build(self, evt: TraceEvent) -> None:
        a = evt.args
        pid = a["part"]
        if not 0 <= pid < PARTITION_ID_LIMIT:
            raise self._fail(evt, f"partition id {pid} outside [0, 2**63)")
        if pid in self.partitions:
            raise self._fail(evt, f"partition {pid} already built")
        if a["family"] not in self.families:
            raise self._fail(evt, f"family {a['family']} not defined")
        if a["count"] < 1:
            raise self._fail(evt, "count must be >= 1")
        if a["fanout"] < 0:
            raise self._fail(evt, "fanout must be >= 0")
        if not 0.0 <= a["tfrac"] <= 1.0:  # also false for NaN
            raise self._fail(evt, f"tfrac {a['tfrac']} outside [0, 1]")
        variants = self._variants(a["family"], a["fanout"], a["tfrac"])
        rng = Random(derive_seed("build", pid, a["seed"]))
        count = a["count"]
        descs = [variants[rng.randrange(len(variants))] for _ in range(count)]
        records = []
        for i, desc in enumerate(descs):
            w = [0] * ((desc.instance_size - HEADER_SIZE) >> 3)
            for j, k in enumerate(desc.ref_words):
                # The spine (first reference to the next object) keeps the
                # graph connected; references are 1-based record numbers.
                w[k - 2] = i + 2 if j == 0 and i + 1 < count else rng.randrange(count) + 1
            for n, k in enumerate(desc.scalar_words):
                w[k - 2] = seed_of(f"tag:{pid}:{i}:{n}")
            records.append((desc, w))
        root = install(self.rt, records)[0]
        footprint = sum(desc.instance_size for desc in descs)
        self.partitions[pid] = _Partition(pid, a["family"], footprint, self.rt.add_root(root))

    def _partition(self, evt: TraceEvent, pid: int) -> _Partition:
        part = self.partitions.get(pid)
        if part is None:
            raise self._fail(evt, f"partition {pid} not built")
        if part.status == "unpersisted":
            raise self._fail(evt, f"partition {pid} was unpersisted")
        return part

    def _root_of(self, part: _Partition) -> int:
        return self.rt.read_root(part.slot_id)

    def _ev_persist(self, evt: TraceEvent) -> None:
        part = self._partition(evt, evt.args["part"])
        if self.mode == "TC":
            self.rt.persist(self._root_of(part), part.pid)
        elif self.mode == "SD":
            if part.pid not in self._sd_lru and part.pid not in self._sd_blobs:
                self._sd_admit(part)
            else:
                self._sd_touch(part.pid)
        part.status = "persisted"

    # -- SD cache management ----------------------------------------------

    def _sd_touch(self, pid: int) -> None:
        if pid in self._sd_lru:
            self._sd_lru.move_to_end(pid)

    def _sd_admit(self, part: _Partition) -> None:
        self._sd_lru[part.pid] = part.footprint
        self._sd_bytes += part.footprint
        self._sd_enforce_capacity(protect=part.pid)

    def _sd_capacity(self) -> int:
        h1 = self.config.h1
        return int((h1.young_size + h1.old_size) * self.config.sd.cache_fraction)

    def _sd_enforce_capacity(self, protect: int | None = None) -> None:
        cap = self._sd_capacity()
        while self._sd_bytes > cap:
            victim = next((p for p in self._sd_lru if p != protect), None)
            if victim is None:
                break
            self._sd_evict(victim)

    def _sd_evict(self, pid: int) -> None:
        part = self.partitions[pid]
        blob = self.serializer.serialize(self._root_of(part))
        self._sd_blobs[pid] = blob
        self.rt.counters["bytes_serialized"] += len(blob)
        self.rt.counters["evictions"] += 1
        self.rt.drop_root(part.slot_id)
        part.slot_id = None
        self._sd_bytes -= self._sd_lru.pop(pid)

    def _sd_ensure_resident(self, part: _Partition) -> None:
        if part.pid not in self._sd_blobs:
            self._sd_touch(part.pid)
            return
        blob = self._sd_blobs.pop(part.pid)
        root, total = self.serializer.deserialize(blob)
        self.rt.counters["bytes_deserialized"] += len(blob)
        part.slot_id = self.rt.add_root(root)
        part.footprint = total
        self._sd_admit(part)

    # -- access / mutate ----------------------------------------------------

    def _walk_key(self, part: _Partition) -> tuple[int, int, int, int]:
        """What a closure walk's order depends on: the partition, its root,
        and the collection indexes.  Objects move only inside a collection,
        and each collection bumps one index as it starts, failed and
        escalated ones too (a major bumps only its own index when a minor
        escalated into it); an SD rebuild gives the partition a new root;
        and the driver stores no reference after `install`."""
        collector = self.rt.collector
        return part.pid, self._root_of(part), collector.minor_index, collector.major_index

    def _traverse(self, part: _Partition) -> tuple[list[int], list, int]:
        """The partition's objects in `Runtime.closure` order (breadth-first
        over non-transient references), their descriptors, and the
        checksum: the scalar sum masked to 64 bits, mixed with the object
        count.  Every call walks, and keeps the walk with its key (the
        partition, its root and the two collection indexes) for `_order`."""
        key = self._walk_key(part)
        order, descs, total = self.rt.closure(key[1])
        self._walk = key, order, descs
        checksum = ((total & _MASK64) * 0x100000001B3 + len(order)) & _MASK64
        return order, descs, checksum

    def _order(self, part: _Partition) -> tuple[list[int], list]:
        """The partition's closure order and descriptors: the last walk's
        when its key still matches, else a new walk through `_traverse`."""
        key, order, descs = self._walk
        if key != self._walk_key(part):
            order, descs, _ = self._traverse(part)
        return order, descs

    def _object_checksum(self, addr: int) -> int:
        return sum(self.rt.scalar_values(addr)) & _MASK64

    def _ev_access(self, evt: TraceEvent) -> None:
        part = self._partition(evt, evt.args["part"])
        kind = evt.args["kind"]
        if kind not in ("scan", "point"):
            raise self._fail(evt, f"unknown access kind {kind!r}")
        if self.mode == "SD":
            self._sd_ensure_resident(part)
        if kind == "scan":
            # A scan always walks: it reads every scalar for the checksum.
            checksum = self._traverse(part)[2]
        else:
            order, _ = self._order(part)
            rng = Random(derive_seed("point", part.pid, evt.args.get("seed", 0)))
            checksum = self._object_checksum(order[rng.randrange(len(order))])
        self.checksums.append((evt.index, checksum))

    def _ev_mutate(self, evt: TraceEvent) -> None:
        """Add a derived delta to the last scalar of `count` objects picked
        by position in the partition's closure order.  The order comes from
        `_order`, so a mutate reuses the partition's last walk when no
        collection has run and no SD rebuild has given it a new root since
        (see `_walk_key`); scalar stores do not change the order."""
        part = self._partition(evt, evt.args["part"])
        count = evt.args["count"]
        if count < 0:
            raise self._fail(evt, "count must be >= 0")
        if self.mode == "SD":
            self._sd_ensure_resident(part)
        order, descs = self._order(part)
        seed = evt.args["seed"]
        rng = Random(derive_seed("mutate", part.pid, seed))
        rt = self.rt
        for k in range(count):
            j = rng.randrange(len(order))
            addr = order[j]
            index = descs[j].scalar_indexes[-1]
            value = rt.read_scalar(addr, index)
            delta = seed_of(f"delta:{seed}:{k}")
            rt.write_scalar(addr, index, (value + delta) & _MASK64)

    def _ev_unpersist(self, evt: TraceEvent) -> None:
        pid = evt.args["part"]
        part = self.partitions.get(pid)
        if part is None or part.status != "persisted":
            return  # unpersisting uncached data is a framework no-op
        if self.mode == "TC":
            self.rt.unpersist(pid)
        elif self.mode == "SD":
            if pid in self._sd_blobs:
                del self._sd_blobs[pid]
            if pid in self._sd_lru:
                self._sd_bytes -= self._sd_lru.pop(pid)
            if part.slot_id is not None:
                self.rt.drop_root(part.slot_id)
        else:
            self.rt.drop_root(part.slot_id)
        part.slot_id = None
        part.status = "unpersisted"

    def _ev_gc_hint(self, evt: TraceEvent) -> None:
        kind = evt.args["kind"]
        if kind == "minor":
            self.rt.minor_collect()
        elif kind == "major":
            self.rt.major_collect()
        else:
            raise self._fail(evt, f"unknown gc kind {kind!r}")

    # -- reporting -----------------------------------------------------------

    def _report(self, wall: float) -> MetricsReport:
        digest = hashlib.sha256(repr(self.checksums).encode()).hexdigest()[:16]
        counters = {k: self.rt.counters.get(k, 0) for k in COUNTER_COLUMNS}
        counters["h2_boundary_dirty"] = self.rt.h2.cards.count_dirty_boundary()
        return MetricsReport(
            run_id=f"{self.mode.lower()}-{self.config.seed}",
            config_hash=self.config.config_hash(),
            mode=self.mode,
            seed=self.config.seed,
            wall_seconds=wall,
            counters=counters,
            checksums=list(self.checksums),
            checksum_digest=digest,
        )


def run_trace(
    trace: str | list[TraceEvent],
    mode: str,
    config: RuntimeConfig,
    observer=None,
) -> MetricsReport:
    events = parse_trace(trace) if isinstance(trace, str) else trace
    with TraceDriver(config, mode=mode, observer=observer) as driver:
        return driver.run(events)
