"""CLI: run, sweep, gen-trace, config loading, exit codes."""

import csv

import pytest

from dualheap.cli import main
from dualheap.config import load_config
from dualheap.errors import ConfigError

CONFIG_TEMPLATE = """\
mode: TC
seed: 11
trace: {trace}
metrics_out: {out}
h1:
  young_size: 80K
  old_size: 512K
h2:
  size: 4M
  region_size: 256K
  card_segment: {card}
  stripe_size: {stripe}
  scan_threads: 2
"""


@pytest.fixture
def workdir(tmp_path):
    trace = tmp_path / "t.trace"
    assert main(["gen-trace", "--profile", "uniform", "--scale", "2",
                 "--seed", "5", "--out", str(trace)]) == 0
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "metrics.csv"
    cfg.write_text(CONFIG_TEMPLATE.format(trace=trace, out=out, card="8K", stripe="64K"))
    return tmp_path, cfg, out


def test_run_writes_header_and_one_row(workdir, capsys):
    _tmp, cfg, out = workdir
    assert main(["run", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["mode"] == "TC"
    assert int(rows[0]["mutator_steps"]) > 0


def test_run_appends_second_row(workdir):
    _tmp, cfg, out = workdir
    main(["run", "--config", str(cfg)])
    main(["run", "--config", str(cfg)])
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[0]["checksum_digest"] == rows[1]["checksum_digest"]


@pytest.mark.parametrize("first", ["run", "sweep"])
def test_output_with_another_commands_header_is_refused(workdir, monkeypatch, capsys, first):
    # run and sweep write different columns; appending one's rows under
    # the other's header would corrupt the file, so the second command
    # fails before it replays anything and leaves the file as it was.
    _tmp, cfg, out = workdir
    run = ["run", "--config", str(cfg)]
    sweep = ["sweep", "--config", str(cfg), "--param", "mode", "--values", "TC,SD"]
    first_cmd, second_cmd = (run, sweep) if first == "run" else (sweep, run)
    assert main(first_cmd) == 0
    before = out.read_bytes()

    def no_replay(_cfg):
        raise AssertionError("replayed a trace despite the header mismatch")

    monkeypatch.setattr("dualheap.cli._run_one", no_replay)
    assert main(second_cmd) == 2
    assert "different CSV header" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_invalid_stripe_config_names_both_fields(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("define_class id=1 scalars=2\n")
    cfg = tmp_path / "bad.yaml"
    out = tmp_path / "m.csv"
    cfg.write_text(CONFIG_TEMPLATE.format(trace=trace, out=out, card="8K", stripe="12K"))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stripe_size" in err and "card_segment" in err


def test_missing_trace_file_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "m.csv"
    cfg.write_text(CONFIG_TEMPLATE.format(trace=tmp_path / "nope.trace", out=out,
                                          card="8K", stripe="64K"))
    assert main(["run", "--config", str(cfg)]) == 1


def test_gen_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    main(["gen-trace", "--profile", "cc_like", "--scale", "3", "--seed", "9", "--out", str(a)])
    main(["gen-trace", "--profile", "cc_like", "--scale", "3", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_writes_normalized_columns(workdir):
    tmp, cfg, _out = workdir
    sweep_out = tmp / "sweep.csv"
    assert main([
        "sweep", "--config", str(cfg), "--param", "card_segment",
        "--values", "512,1K,4K", "--out", str(sweep_out),
    ]) == 0
    rows = list(csv.DictReader(sweep_out.open()))
    assert [r["value"] for r in rows] == ["512", "1K", "4K"]
    assert rows[0]["h2_cards_scanned_rel"] == "1.000000"
    assert all(float(r["h2_cards_scanned_rel"]) <= 1.0 for r in rows[1:])


def test_mode_sweep_tc_never_serializes(workdir):
    tmp, cfg, _out = workdir
    sweep_out = tmp / "modes.csv"
    assert main([
        "sweep", "--config", str(cfg), "--param", "mode",
        "--values", "TC,SD", "--out", str(sweep_out),
    ]) == 0
    rows = {r["value"]: r for r in csv.DictReader(sweep_out.open())}
    assert int(rows["TC"]["bytes_serialized"]) == 0
    assert int(rows["TC"]["bytes_deserialized"]) == 0


def test_env_overrides_seed_and_output(workdir, monkeypatch, tmp_path):
    _tmp, cfg, out = workdir
    other = tmp_path / "other.csv"
    monkeypatch.setenv("DUALHEAP_SEED", "999")
    monkeypatch.setenv("DUALHEAP_METRICS_OUT", str(other))
    assert main(["run", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(other.open()))
    assert rows[0]["seed"] == "999"
    assert not out.exists() or not list(csv.DictReader(out.open()))


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mode: TC\nwhatever: 3\n")
    with pytest.raises(ConfigError, match="whatever"):
        load_config(cfg)


def test_config_hash_stable_and_sensitive(workdir):
    _tmp, cfg, _out = workdir
    c1 = load_config(cfg)
    c2 = load_config(cfg)
    assert c1.config_hash() == c2.config_hash()
    assert c1.with_mode("SD").config_hash() != c1.config_hash()
