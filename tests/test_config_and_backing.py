"""Config validation, size parsing, and the file-backed H2 image."""

import struct
import subprocess
import sys
from pathlib import Path

import pytest

import dualheap

from dualheap import ConfigError, Runtime, SpaceKind
from dualheap.cli import main
from dualheap.config import (
    H1Config,
    H2Config,
    RuntimeConfig,
    config_from_dict,
    parse_size,
)
from dualheap.objmodel import word_class_id

from conftest import KIB, MIB, build_chain, make_config, register_node_class


@pytest.mark.parametrize(
    "text,expected",
    [
        ("512", 512),
        (4096, 4096),
        ("8K", 8 * KIB),
        ("8KiB", 8 * KIB),
        ("4M", 4 * MIB),
        ("1g", 1024 * MIB),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


def test_parse_size_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_size("4 megabytes")


@pytest.mark.parametrize(
    "kw,fragment",
    [
        (dict(young=80 * KIB + 8), "multiple of 80"),
        (dict(young=80 * KIB, old=100 * KIB + 8), "h1.card_segment"),
        (dict(h2_size=3 * MIB + 512, region=256 * KIB), "h2.region_size"),
        (dict(region=96 * KIB, stripe=64 * KIB), "h2.stripe_size"),
        (dict(stripe=12 * KIB, h2_card=8 * KIB), "h2.card_segment"),
        (dict(threads=3), "scan_threads"),
        (dict(strategy="teleport"), "strategy"),
        (dict(h1_card=500), "h1.card_segment .* 8-byte word"),
        (dict(h2_card=8 * KIB + 4), "h2.card_segment .* 8-byte word"),
    ],
)
def test_validation_names_offending_fields(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        make_config(**kw)


@pytest.mark.parametrize(
    "raw",
    [
        {"h1": "x"},
        {"h2": None},
        {"h2": {"scan_threads": "2"}},
        {"h1": {"tenuring_threshold": "2"}},
        {"h1": {"tenuring_threshold": True}},
        {"migration": {"strategy": 5}},
        {"sd": {"cache_fraction": "0.5"}},
        {"seed": "x"},
        {"trace": 5},
        {"metrics_out": ["m.csv"]},
        {"h2": {"backing": 5}},
        {"mo_old_size": 0},
        {"mo_old_size": -512},
        {1: "x", "mode": "TC", "z": 0},
        ["mode", "TC"],
    ],
)
def test_malformed_config_input_is_a_config_error(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_an_int_is_a_valid_float_field():
    as_int = config_from_dict({"sd": {"cache_fraction": 1}})
    assert as_int.config_hash() == config_from_dict({"sd": {"cache_fraction": 1.0}}).config_hash()


@pytest.mark.parametrize(
    "text,env_seed,fragment",
    [
        ("seed: x\n", None, "seed"),
        ("h1: x\n", None, "h1"),
        ("mode: [TC\n", None, "YAML"),
        ("mode: TC\n", "abc", "DUALHEAP_SEED"),
    ],
)
def test_cli_malformed_config_input_exits_2(tmp_path, monkeypatch, capsys, text, env_seed, fragment):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    if env_seed is not None:
        monkeypatch.setenv("DUALHEAP_SEED", env_seed)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and fragment in err


def test_mode_must_be_known():
    with pytest.raises(ConfigError, match="mode"):
        RuntimeConfig(mode="XX", h1=H1Config(), h2=H2Config()).validate()


def test_file_backed_h2_is_a_raw_image(tmp_path):
    """The H2 file holds the raw heap image: headers and fields as
    little-endian words at region offsets, readable without the runtime."""
    backing = tmp_path / "h2.img"
    cfg = make_config(backing=str(backing))
    with Runtime(cfg) as rt:
        desc = register_node_class(rt, refs=1, scalars=1)
        slot = build_chain(rt, desc, 3)
        rt.write_scalar(rt.read_root(slot), 1, 0xDEADBEEF)
        rt.persist(rt.read_root(slot), 9)
        rt.major_collect()
        migrated = rt.read_root(slot)
        assert rt.classify_handle(migrated) is SpaceKind.H2
        file_offset = migrated - rt.h2.base
        in_heap = bytes(rt.h2.buf[file_offset : file_offset + desc.instance_size])

        raw = backing.read_bytes()
        assert len(raw) == cfg.h2.size
        on_disk = raw[file_offset : file_offset + desc.instance_size]
        assert on_disk == in_heap
        (header,) = struct.unpack_from("<Q", raw, file_offset)
        assert word_class_id(header) == desc.class_id
        (scalar,) = struct.unpack_from("<Q", raw, file_offset + 24)
        assert scalar == 0xDEADBEEF


def test_existing_backing_file_is_refused_and_kept(tmp_path):
    backing = tmp_path / "h2.img"
    data = bytes(range(256)) * 27 + bytes(88)  # 7,000 bytes
    backing.write_bytes(data)
    with pytest.raises(FileExistsError):
        Runtime(make_config(backing=str(backing)))
    assert backing.read_bytes() == data


def test_backing_file_is_removed_on_close_so_the_path_can_be_reused(tmp_path):
    backing = tmp_path / "h2.img"
    for _ in range(2):
        with Runtime(make_config(backing=str(backing))):
            assert backing.stat().st_size == 2 * MIB
        assert not backing.exists()


def test_file_backed_mode_behaves_like_anonymous(tmp_path):
    from dualheap.workload import generate_trace, parse_trace, run_trace

    events = parse_trace(generate_trace("uniform", 2, seed=6))
    anon = run_trace(events, "TC", make_config())
    disk = run_trace(events, "TC", make_config(backing=str(tmp_path / "h2.img")))
    assert anon.checksum_digest == disk.checksum_digest
    assert anon.counters["objects_moved_to_h2"] == disk.counters["objects_moved_to_h2"]


def test_close_after_collections_releases_both_heaps(tmp_path):
    cfg = make_config(backing=str(tmp_path / "h2.img"))
    rt = Runtime(cfg)
    desc = register_node_class(rt, refs=1, scalars=1)
    slot = build_chain(rt, desc, 50)
    rt.persist(rt.read_root(slot), 1)
    rt.major_collect()
    rt.write_scalar(rt.read_root(slot), 1, 7)
    rt.minor_collect()
    rt.major_collect()
    rt.close()  # raises BufferError if a view of either mapping is still exported
    assert rt.h1.buf.closed and rt.h2.buf.closed


def test_failed_h2_setup_closes_the_h1_heap(tmp_path, monkeypatch):
    import dualheap.runtime as runtime_module

    built = []

    class RecordingH1Heap(runtime_module.H1Heap):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(runtime_module, "H1Heap", RecordingH1Heap)
    cfg = make_config(backing=str(tmp_path / "no-such-dir" / "h2.img"))
    with pytest.raises(FileNotFoundError):
        Runtime(cfg)
    assert len(built) == 1
    assert built[0].buf.closed


def test_import_refuses_big_endian_host():
    src = Path(dualheap.__file__).resolve().parent.parent
    code = "import sys; sys.byteorder = 'big'; sys.path.insert(0, sys.argv[1]); import dualheap"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "little-endian" in proc.stderr
