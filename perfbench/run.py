"""Trace-replay benchmark of the dual-heap runtime.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload tc-tight --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with a per-layer summary of each and
an optional trajectory file:

    python3 perfbench/run.py --all --seed 1 [--out perfbench/results/BENCH_x.json]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from traces import DEV_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SECONDS = 40  # run_seconds in BENCHMARK.json


def import_program():
    """Import the runtime from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import dualheap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dualheap from {SRC}: {exc}")
    if Path(dualheap.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: dualheap imported from {dualheap.__file__}, not {SRC}")
    import workloads

    return workloads


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_untraced(result, wk) -> dict:
    done = result.done(traced=False)
    metrics = result.end_to_end() if done else {}
    if done:
        print(f"timed replays: {len(done)} after one warm-up; steps per replay: "
              + " ".join(f"{k}={len(v)}" for k, v in done[0].samples.items()))
        missing = [name for name in wk.END_TO_END if name not in metrics]
        if missing:
            result.problems.append(f"trace shape too small to report {missing}")
    for name, unit in wk.END_TO_END.items():
        if name in metrics:
            print(f"  {name:<18} {_fmt(metrics[name]):>12} {unit}")
    frac = result.failed / result.attempted
    print(f"  {'ops_failed_frac':<18} {_fmt(frac):>12} ratio ({result.failed} of {result.attempted} events)")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in wk.END_TO_END.items() if name in metrics}


def report_traced(result, wk) -> dict:
    traced = result.done(traced=True)
    if not traced or not result.done(traced=False):
        return {}
    metrics = result.per_layer()
    print(f"per-layer summary: median of {len(traced)} traced replays "
          f"(tracing overhead {metrics['trace.overhead_s']:.3f} s over the median untraced replay)")
    layer = None
    for name, (unit, base) in wk.PER_LAYER.items():
        if name.split(".")[0] != layer:
            layer = name.split(".")[0]
            print(f"  [{layer}]")
        note = f"  (base: {base})" if base else ""
        print(f"    {name:<34} {_fmt(metrics[name]):>14} {unit}{note}")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{result.workload.name}-seed{result.seed}.jsonl"
    last = result.last_traced
    last.tracer.write_spans(spans, last.origin)
    print(f"spans of the last traced replay: {spans.relative_to(ROOT)} ({len(last.tracer.spans)} spans)")
    return {name: {"value": metrics[name], "unit": unit} for name, (unit, _b) in wk.PER_LAYER.items()}


def run_one(args) -> int:
    wk = import_program()
    if args.workload not in wk.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wk.WORKLOADS)}")
    wl = wk.WORKLOADS[args.workload]
    traced = bool(args.trace)
    result = wk.run(wl, args.seed, args.seconds, traced)
    print(f"workload {wl.name}: mode {wl.mode}, seed {args.seed}, trace {int(traced)}")
    print("events per replay: " + " ".join(f"{op}={n}" for op, n in result.event_counts.items()))
    metrics = report_traced(result, wk) if traced else report_untraced(result, wk)
    n = len(result.outcomes)
    if result.correct:
        print(f"check digest: ok, {n} replays match the MO replay (digest {result.reference.checksum_digest})")
        print(f"check counters: ok, {len(result.outcomes[0].counters)} work counters identical in {n} replays")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    if result.problems:
        print(f"perfbench: {len(result.problems)} checks failed on {wl.name}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def _revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_all(args) -> int:
    wk = import_program()
    results = {}
    status = 0
    for name in wk.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            results[name]["per_layer" if trace else "end_to_end"] = out
    summary = {
        "revision": _revision(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r[k].get("attempted", 0) for r in results.values() for k in r),
        "failed": sum(r[k].get("failed", 0) for r in results.values() for k in r),
        "metrics": {},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results to this JSON file")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
