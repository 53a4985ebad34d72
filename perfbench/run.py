"""Run one benchmark workload and print every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_open --seed 1 [--seconds 20] [--trace 0|1]

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it puts spans around each layer's
entry points, attaches the program's stage profiler, and reports the
per-layer metrics instead.  Each metric is printed by name with its unit
and sample count; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record, with the environment, goes to ``.perfbench/out/``.

The program is imported from ``src/`` beside this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.env import environment
    from perfbench.harness import Run
    from perfbench.layers import PER_LAYER
    from perfbench.spans import SpanLog
    from perfbench.workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench" / "out"
    work_dir = ROOT / ".perfbench" / "work"
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), str(work_dir))
    log = SpanLog()
    try:
        WORKLOADS[args.workload](run, log)
    finally:
        log.unpatch()
    run.put("ok_frac", (run.attempted - run.failed) / max(run.attempted, 1), "frac", run.attempted)
    run.peak_rss()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        table = log.table()
        run.details["spans_written"] = log.write(out_dir / f"{stem}.spans.jsonl", table)
        catalog = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        catalog = {name: spec[0] for name, spec in END_TO_END.items()}
    metrics = {
        name: run.metrics.get(name, {"value": 0.0, "unit": unit, "samples": 0})
        for name, unit in catalog.items()
    }
    correct = not run.problems and run.mismatches == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(ROOT),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "details": run.details,
        "layer_map": {name: spec[2] for name, spec in PER_LAYER.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for name, value in sorted(run.details.items()):
        print(f"  {name}: {value}")
    print(f"env: {json.dumps(record['env'])}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
