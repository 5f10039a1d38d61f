"""Benchmark for segaltopos: one closed-loop client in a single process.

    python3 perfbench/run.py --workload finset_sweep --seed 1 --seconds 45 --trace 0

Workloads (README.md says why each was chosen):

  finset_sweep  enumerate_univalent over FinSet, |E|, |B| <= 3 (18 maps)
  cli_mix       seeded order of fresh `segaltopos ... --json` processes
  s3_action     is_univalent on the natural S3 action; about a minute per
                op, so it is run by hand and not listed in BENCHMARK.json

Operations run back to back until the next one would end past --seconds;
at least one always runs.  Every output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 is a separate run
that wraps the package's public functions (tracer.py), prints per-layer
metrics and writes its spans to .perfbench/ in the checkout; for cli_mix
it runs the same command list through cli.main in this process.

One line per metric goes to stdout, then a JSON object as the last line.
Exit status: 0 when every output was right, 1 when any was not, 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Fresh interpreters per run for the set-up and import timings; the
# median over them is reported.
SETUP_REPEATS = 15
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from workloads import WORKLOADS; WORKLOADS[sys.argv[2]](0).setup()"
)
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import segaltopos.cli; "
    "print(time.perf_counter() - t)"
)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def run_python(args: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter from the checkout root; return its wall
    time from spawn to exit and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def measure_ops(wl, seconds: float, tracer):
    """Run operations until the next would end past `seconds`."""
    times, problems = [], []
    failed = 0
    began = time.perf_counter()
    i = 0
    while True:
        start = time.perf_counter()
        try:
            with tracer.span("op") if tracer else nullcontext():
                out = wl.op(i)
            dt = time.perf_counter() - start
            errs = wl.check(i, out)
        except Exception:
            dt = time.perf_counter() - start
            errs = [f"op {i} raised:\n{traceback.format_exc()}"]
        times.append(dt)
        if errs:
            failed += 1
            problems.extend(f"op {i}: {e}" for e in errs)
        i += 1
        if time.perf_counter() - began + dt > seconds:
            break
    return times, failed, problems, time.perf_counter() - began


def end_to_end(wl, times) -> tuple[dict, dict]:
    setups = [run_python(["-c", SETUP_SNIPPET, str(HERE), wl.name])[0] for _ in range(SETUP_REPEATS)]
    tail_s, tail_pct = tail(times)
    peak, peak_note = wl.peak_rss_mib()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    notes = {
        "setup_s": f"n={len(setups)} fresh interpreters, median",
        "op_p50_s": f"n={len(times)} ops, median",
        "op_tail_s": f"n={len(times)} ops, p{tail_pct:.1f}",
        "peak_rss_mib": peak_note,
    }
    return metrics, notes


def per_layer(tracer, times) -> tuple[dict, dict]:
    stats = tracer.layer_stats()

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    imports = [float(run_python(["-c", IMPORT_SNIPPET])[1]) for _ in range(SETUP_REPEATS)]
    metrics = {}
    for name in ("segal.tso_validate", "segal.validate_category_object", "fincat.fin_limit",
                 "univalence.is_univalent", "workspace.decode_workspace", "topos.ps_limit"):
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in ("segal.tso_validate", "segal.validate_category_object", "fincat.fin_limit",
                 "segal.z3", "segal.is_complete", "topos.dependent_product",
                 "topos.enumerate_nat_trans", "univalence.fiber_oracle_univalent",
                 "univalence.arrows_isomorphic", "workspace.decode_workspace"):
        metrics[f"{name}.s"] = (stat(name, "s"), "s")
    for name in ("topos.ps_limit", "segal.nerve_truncation", "segal.segal_check",
                 "segal.hoequiv", "univalence.nerve_of_map"):
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name, value in tracer.counters.items():
        metrics[name] = (value, "ratio" if name.endswith("_frac_max") else "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.op_p50_s"] = (statistics.median(times), "s")
    metrics["trace.top_cover_frac"] = (tracer.top_cover_frac(), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    notes = {name: "traced run" for name in metrics}
    notes["cli.import_s"] = f"n={len(imports)} fresh interpreters, median"
    notes["trace.op_p50_s"] = f"n={len(times)} ops, median"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segaltopos" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        wl.in_process = True  # cli_mix sends its commands through cli.main

    with tracer or nullcontext():
        with tracer.span("setup") if tracer else nullcontext():
            wl.setup()
        times, failed, problems, wall = measure_ops(wl, args.seconds, tracer)

    if tracer:
        metrics, notes = per_layer(tracer, times)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(wl, times)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(times)} ops, {failed} failed")
    print(f"failed_frac = {failed / len(times):.4f} (n={len(times)} ops)")
    if wl.maps_per_op:
        # With one closed-loop client this is maps_per_op / mean op time,
        # so it is printed for reference and not listed as a metric.
        print(f"maps_per_s = {wl.maps_per_op * len(times) / wall:.6g} 1/s (n={len(times)} ops over {wall:.3f} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({notes[name]})")
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
