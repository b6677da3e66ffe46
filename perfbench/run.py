"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice for half the time each, untraced
then traced; it reports the per-layer metrics of the traced half, the
tracing overhead between the two, and writes every span to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the line before it is a JSON object with every end-to-end metric
uncalibrated and the run's median probe time.  The exit code is
1 when any correctness check failed, 0 otherwise.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "train": ("perfbench.train", "TrainSetup"),
    "forecast": ("perfbench.forecast", "ForecastSetup"),
    "serve": ("perfbench.serve", "ServeSetup"),
}
#: set-ups per run, each in a fresh process; ``setup_s`` is their median
SETUP_REPEATS = 11
#: probe runs that calibrate one set-up
SETUP_PROBES = 21


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the loops under test are single-threaded, and on a
    # small shared machine a second BLAS thread mostly waits for the first
    # (same wall time, twice the CPU time, a wider run-to-run spread)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    # the checkout's sources, and the benchmark as a package (not its directory)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if not (args.setup_only or args.trace):
        setups = [timed_setup(args) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(cal for cal, _ in setups)
        setup_raw_s = statistics.median(raw for _, raw in setups)
    t0 = perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload][0])
    from perfbench.common import PROBE_REF_MS, Outcome, Probe, peak_rss_mb
    from perfbench.layers import PER_LAYER, SERVE_LAYERS
    from perfbench.spans import OFF, Tracer

    out_dir = Path.cwd() / ".perfbench_out"
    setup = getattr(module, WORKLOADS[args.workload][1])(args.seed, out_dir / f"work-{args.workload}-{args.seed}")
    if args.setup_only:
        raw = perf_counter() - t0
        setup.close()
        probe = Probe()
        slowdown = statistics.median(probe() for _ in range(SETUP_PROBES)) / PROBE_REF_MS
        print(raw / slowdown, raw)
        return 0

    outcome = Outcome()
    try:
        if args.trace:
            untraced = Outcome()
            plain = module.measure(setup, args.seconds / 2, OFF, untraced)
            tracer = Tracer()
            traced = module.measure(setup, args.seconds / 2, tracer, outcome)
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
            outcome.errors += untraced.errors
            overhead = traced / plain - 1.0
            outcome.layers["trace.overhead_share"] = (overhead, "ratio")
            outcome.bases["trace.overhead_share"] = f"traced {traced:.4f} ms / untraced {plain:.4f} ms - 1"
        else:
            module.measure(setup, args.seconds, OFF, outcome)
    finally:
        setup.close()

    if args.trace:
        listed = {**PER_LAYER, **(SERVE_LAYERS if args.workload == "serve" else {})}
        metrics = {name: outcome.layers.get(name, (0.0, unit)) for name, unit in listed.items()}
        table = tracer.layer_times()
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "layers": {
                name: {"calls": row["calls"], "self_ms": row["self_seconds"] * 1e3, "total_ms": row["seconds"] * 1e3}
                for name, row in sorted(table.items())
            },
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "bases": outcome.bases,
            "tracing_overhead_share": outcome.layers["trace.overhead_share"][0],
        }
        counts = {name: value for name, (value, unit) in metrics.items() if unit in ("count", "B")}
        path = tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json", counts, summary)
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(Path.cwd())}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_seconds"]):
            print(f"  span {name:<22} calls {row['calls']:>7}  self {row['self_seconds'] * 1e3:10.1f} ms")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "throughput_per_s": (outcome.e2e["throughput_per_s"], "1/s"),
            "latency_p50_ms": (outcome.e2e["latency_p50_ms"], "ms"),
            "latency_tail_ms": (outcome.e2e["latency_tail_ms"], "ms"),
        }
        print(f"setup_s = {setup_s:.4f} s (n={SETUP_REPEATS} fresh processes, uncalibrated {setup_raw_s:.4f})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
        for name, (value, unit, samples, raw) in outcome.named.items():
            print(f"{name} = {value:.4f} {unit} (n={samples}, uncalibrated {raw:.4f})")
    for name, (value, unit) in metrics.items():
        base = outcome.bases.get(name)
        print(f"  {name} = {value:.6g} {unit}" + (f"  [{base}]" if base else ""))
    fail_share = outcome.failed / max(outcome.attempted, 1)
    print(f"fail_share = {fail_share:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    for message in outcome.errors:
        print(f"FAILED: {message}")
    correct = outcome.failed == 0
    if not args.trace:
        # what the calibration divided out, for comparing two trees' runs
        uncalibrated = {"setup_s": setup_raw_s, "peak_rss_mb": metrics["peak_rss_mb"][0], **outcome.raw}
        print(json.dumps({"uncalibrated": uncalibrated, "probe_ms_p50": outcome.probe_ms, "probe_ref_ms": PROBE_REF_MS}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def timed_setup(args):
    """Seconds a fresh process takes to import the program and set up,
    calibrated and as measured."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    calibrated_s, raw_s = done.stdout.split()[-2:]
    return float(calibrated_s), float(raw_s)


if __name__ == "__main__":
    sys.exit(main())
