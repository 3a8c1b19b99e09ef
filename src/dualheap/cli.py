"""Command-line harness: single runs, sensitivity sweeps, trace generation.

    dualheap run --config cfg.yaml
    dualheap sweep --config cfg.yaml --param card_segment --values 512,1K,4K,8K,16K
    dualheap gen-trace --profile pagerank_like --scale 4 --seed 7 --out pr.trace

Environment overrides: DUALHEAP_SEED and DUALHEAP_METRICS_OUT take
precedence over the config file.

Metrics are appended to a CSV with a fixed column set; sweep output adds
one normalized column per work counter (each value divided by the first
run's value) so trend checks need no external joins.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import RuntimeConfig, load_config, parse_size
from .errors import ConfigError, HeapError, TraceError
from .metrics import REPORT_COLUMNS, WORK_COUNTER_COLUMNS, MetricsReport
from .workload import PROFILES, generate_trace, parse_trace, run_trace

SWEEP_PARAMS = ("card_segment", "stripe_size", "h1_size", "write_strategy", "mode")


def _apply_env_overrides(cfg: RuntimeConfig) -> RuntimeConfig:
    seed = os.environ.get("DUALHEAP_SEED")
    if seed is not None:
        try:
            cfg = replace(cfg, seed=int(seed))
        except ValueError:
            raise ConfigError(f"DUALHEAP_SEED must be an integer, got {seed!r}") from None
    out = os.environ.get("DUALHEAP_METRICS_OUT")
    if out is not None:
        cfg = replace(cfg, metrics_out=out)
    return cfg


def _snap_down(value: int, multiple: int) -> int:
    return max(multiple, value - value % multiple)


def apply_sweep_value(cfg: RuntimeConfig, param: str, raw: str) -> RuntimeConfig:
    if param == "card_segment":
        return replace(cfg, h2=replace(cfg.h2, card_segment=parse_size(raw)))
    if param == "stripe_size":
        return replace(cfg, h2=replace(cfg.h2, stripe_size=parse_size(raw)))
    if param == "h1_size":
        total = parse_size(raw)
        h1 = cfg.h1
        ratio = h1.young_size / (h1.young_size + h1.old_size)
        young = _snap_down(int(total * ratio), 80 * h1.card_segment)
        old = _snap_down(total - young, h1.card_segment)
        return replace(cfg, h1=replace(h1, young_size=young, old_size=old))
    if param == "write_strategy":
        return replace(cfg, migration=replace(cfg.migration, strategy=raw))
    if param == "mode":
        return replace(cfg, mode=raw)
    raise ConfigError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")


def _write_rows(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    out = Path(path)
    exists = out.exists() and out.stat().st_size > 0
    with out.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        if not exists:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _run_one(cfg: RuntimeConfig) -> MetricsReport:
    if not cfg.trace:
        raise ConfigError("config has no trace path")
    trace_text = Path(cfg.trace).read_text()
    events = parse_trace(trace_text)
    return run_trace(events, cfg.mode, cfg)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_env_overrides(load_config(args.config))
    report = _run_one(cfg)
    _write_rows(cfg.metrics_out, REPORT_COLUMNS, [report.row()])
    print(f"run {report.run_id}: wrote 1 row to {cfg.metrics_out}")
    return 0


def sweep_reports(
    base: RuntimeConfig, param: str, values: list[str]
) -> list[tuple[str, MetricsReport]]:
    reports = []
    for raw in values:
        cfg = apply_sweep_value(base, param, raw).validate()
        reports.append((raw, _run_one(cfg)))
    return reports


def sweep_rows(reports: list[tuple[str, MetricsReport]], param: str) -> list[dict]:
    rows = []
    first = reports[0][1]
    for raw, report in reports:
        row = report.row()
        row["param"] = param
        row["value"] = raw
        for col in WORK_COUNTER_COLUMNS:
            base_value = first.counters.get(col, 0)
            this_value = report.counters.get(col, 0)
            row[f"{col}_rel"] = (
                f"{this_value / base_value:.6f}" if base_value else ""
            )
        rows.append(row)
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _apply_env_overrides(load_config(args.config))
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    reports = sweep_reports(base, args.param, values)
    fieldnames = ["param", "value"] + REPORT_COLUMNS + [
        f"{c}_rel" for c in WORK_COUNTER_COLUMNS
    ]
    out = args.out or base.metrics_out
    _write_rows(out, fieldnames, sweep_rows(reports, args.param))
    print(f"sweep {args.param}: wrote {len(reports)} rows to {out}")
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    text = generate_trace(args.profile, args.scale, args.seed)
    Path(args.out).write_text(text)
    print(f"wrote {args.profile} trace (scale {args.scale}, seed {args.seed}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualheap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay one trace and append a metrics row")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one trace across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-trace", help="emit a deterministic workload trace")
    p_gen.add_argument("--profile", required=True, choices=PROFILES)
    p_gen.add_argument("--scale", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TraceError, HeapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
