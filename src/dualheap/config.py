"""Runtime configuration: sizes, policies, validation and file loading.

Config files are YAML.  All byte sizes accept either plain integers or
suffixed strings such as "512", "8K", "4M", "1G".
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import yaml

from .errors import ConfigError

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

_SIZE_RE = re.compile(r"^\s*(\d+)\s*([KMGkmg]?)(i?[Bb])?\s*$")
_SUFFIX = {"": 1, "K": KIB, "M": MIB, "G": GIB}

MODES = ("TC", "SD", "MO")
WRITE_STRATEGIES = ("direct_copy", "batched_async")


def parse_size(value) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"not a size: {value!r}")
    if isinstance(value, int):
        return value
    m = _SIZE_RE.match(str(value))
    if not m:
        raise ConfigError(f"cannot parse size {value!r}")
    try:
        number = int(m.group(1))
    except ValueError:  # more digits than int() converts
        raise ConfigError(f"size has too many digits ({len(m.group(1))})") from None
    return number * _SUFFIX[m.group(2).upper()]


@dataclass(frozen=True)
class H1Config:
    young_size: int = 10 * MIB
    old_size: int = 54 * MIB
    tenuring_threshold: int = 2
    card_segment: int = 512


@dataclass(frozen=True)
class H2Config:
    size: int = 1 * GIB
    region_size: int = 8 * MIB
    card_segment: int = 8 * KIB
    stripe_size: int = 4 * MIB
    scan_threads: int = 4
    backing: str = "anonymous"


@dataclass(frozen=True)
class MigrationConfig:
    strategy: str = "direct_copy"
    batch_buffer: int = 2 * MIB


@dataclass(frozen=True)
class SdConfig:
    # On-heap cache capacity as a fraction of total H1 before LRU eviction.
    cache_fraction: float = 0.5


@dataclass(frozen=True)
class RuntimeConfig:
    mode: str = "TC"
    seed: int = 0
    trace: str | None = None
    metrics_out: str = "metrics.csv"
    h1: H1Config = field(default_factory=H1Config)
    h2: H2Config = field(default_factory=H2Config)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    sd: SdConfig = field(default_factory=SdConfig)
    # Old-generation size used in MO mode, where the single heap must hold
    # every cached partition; defaults to the H2 size.
    mo_old_size: int | None = None

    # -- validation ---------------------------------------------------------

    def validate(self) -> "RuntimeConfig":
        h1, h2 = self.h1, self.h2
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} not one of {MODES}")
        for name, val in (
            ("h1.young_size", h1.young_size),
            ("h1.old_size", h1.old_size),
            ("h1.card_segment", h1.card_segment),
            ("h2.size", h2.size),
            ("h2.region_size", h2.region_size),
            ("h2.card_segment", h2.card_segment),
            ("h2.stripe_size", h2.stripe_size),
        ):
            if val <= 0:
                raise ConfigError(f"{name} must be positive, got {val}")
        for name, val in (("h1.card_segment", h1.card_segment), ("h2.card_segment", h2.card_segment)):
            # Every other size is a multiple of a card segment, so this keeps
            # both heaps and every region a whole number of 8-byte words.
            if val % 8 != 0:
                raise ConfigError(f"{name} ({val}) must be a multiple of the 8-byte word")
        if h1.young_size % 80 != 0:
            raise ConfigError(
                f"h1.young_size ({h1.young_size}) must be a multiple of 80 "
                "so the 8:1:1 eden/survivor split stays 8-byte aligned"
            )
        if h1.young_size % h1.card_segment != 0:
            raise ConfigError(
                f"h1.young_size ({h1.young_size}) must be a multiple of "
                f"h1.card_segment ({h1.card_segment})"
            )
        if h1.old_size % h1.card_segment != 0:
            raise ConfigError(
                f"h1.old_size ({h1.old_size}) must be a multiple of "
                f"h1.card_segment ({h1.card_segment})"
            )
        if h1.tenuring_threshold < 1:
            raise ConfigError("h1.tenuring_threshold must be >= 1")
        if h2.stripe_size % h2.card_segment != 0:
            raise ConfigError(
                f"h2.stripe_size ({h2.stripe_size}) must be a multiple of "
                f"h2.card_segment ({h2.card_segment})"
            )
        if h2.stripe_size < 2 * h2.card_segment:
            raise ConfigError(
                f"h2.stripe_size ({h2.stripe_size}) must cover at least two "
                f"h2.card_segment ({h2.card_segment}) segments"
            )
        if h2.region_size % h2.stripe_size != 0:
            raise ConfigError(
                f"h2.region_size ({h2.region_size}) must be a multiple of "
                f"h2.stripe_size ({h2.stripe_size})"
            )
        if h2.size % h2.region_size != 0:
            raise ConfigError(
                f"h2.size ({h2.size}) must be a multiple of "
                f"h2.region_size ({h2.region_size})"
            )
        if h2.scan_threads < 1:
            raise ConfigError("h2.scan_threads must be >= 1")
        if (h2.size // h2.stripe_size) % h2.scan_threads != 0:
            raise ConfigError(
                f"stripe count ({h2.size // h2.stripe_size}) must be a "
                f"multiple of h2.scan_threads ({h2.scan_threads}) so every "
                "slice holds one stripe per scan thread"
            )
        mig = self.migration
        if mig.strategy not in WRITE_STRATEGIES:
            raise ConfigError(
                f"migration.strategy {mig.strategy!r} not one of {WRITE_STRATEGIES}"
            )
        if mig.batch_buffer <= 0:
            raise ConfigError("migration.batch_buffer must be positive")
        if not (0.0 < self.sd.cache_fraction <= 1.0):
            raise ConfigError("sd.cache_fraction must be in (0, 1]")
        if self.mo_old_size is not None and self.mo_old_size <= 0:
            raise ConfigError(f"mo_old_size must be positive, got {self.mo_old_size}")
        if self.mo_old_size is not None and self.mo_old_size % h1.card_segment != 0:
            raise ConfigError(
                f"mo_old_size ({self.mo_old_size}) must be a multiple of "
                f"h1.card_segment ({h1.card_segment})"
            )
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def with_mode(self, mode: str) -> "RuntimeConfig":
        return replace(self, mode=mode)


# Accepted value types per field annotation: a bool is not an int, and an
# int is a valid float (stored as a float, so equal configs hash equally).
_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "str | None": (str, type(None)),
}


def _typed(path: str, value, annotation: str):
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[annotation]):
        raise ConfigError(f"{path} must be {annotation}, got {value!r}")
    return float(value) if annotation == "float" else value


def _build_section(cls, raw, size_keys: set[str], path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {path} must be a mapping, got {raw!r}")
    kwargs = {}
    for key, value in raw.items():
        if key not in cls.__dataclass_fields__:
            raise ConfigError(f"unknown config key {path}.{key}")
        if key in size_keys:
            kwargs[key] = parse_size(value)
        else:
            kwargs[key] = _typed(f"{path}.{key}", value, cls.__dataclass_fields__[key].type)
    return cls(**kwargs)


def config_from_dict(raw: dict | None) -> RuntimeConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    kwargs = {}
    if "h1" in raw:
        kwargs["h1"] = _build_section(
            H1Config, raw.pop("h1"), {"young_size", "old_size", "card_segment"}, "h1"
        )
    if "h2" in raw:
        kwargs["h2"] = _build_section(
            H2Config,
            raw.pop("h2"),
            {"size", "region_size", "card_segment", "stripe_size"},
            "h2",
        )
    if "migration" in raw:
        kwargs["migration"] = _build_section(
            MigrationConfig, raw.pop("migration"), {"batch_buffer"}, "migration"
        )
    if "sd" in raw:
        kwargs["sd"] = _build_section(SdConfig, raw.pop("sd"), set(), "sd")
    if "mo_old_size" in raw:
        kwargs["mo_old_size"] = parse_size(raw.pop("mo_old_size"))
    for key in ("mode", "seed", "trace", "metrics_out"):
        if key in raw:
            kwargs[key] = _typed(key, raw.pop(key), RuntimeConfig.__dataclass_fields__[key].type)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(map(str, raw))}")
    return RuntimeConfig(**kwargs).validate()


def load_config(path: str | Path) -> RuntimeConfig:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int too long for int()
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    return config_from_dict(raw)
