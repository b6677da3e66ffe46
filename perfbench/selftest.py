"""The benchmark's self-test.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it makes a short untraced run, a short traced run and a
run with a seeded wrong output, each in its own process, and checks:

- the untraced run prints every end-to-end metric of ``BENCHMARK.json``
  with its unit, plus the workload's own named metrics and ``fail_share``;
- the traced run prints every per-layer metric with its unit and writes
  its trace file (spans, counts, per-layer summary, tracing overhead);
- the seeded wrong output (a NaN loss, a perturbed forecast, a served
  forecast checked against the history one write earlier) raises
  ``fail_share`` and makes the run exit 1.

The wrong output is seeded from outside: the seeded run is a child
process that replaces one method of the workload (the same
instance-method replacement the traced run uses) and then calls
``run.main``, so neither the program nor the benchmark's measured code
knows about it.

Untraced ``train`` and ``forecast`` runs must pass every correctness
check.  ``serve`` is not held to that: the server can return a cached
forecast computed before the series' last write (see README.md).

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import PER_LAYER, SERVE_LAYERS  # noqa: E402

SEED = 7
CASES = (
    # workload, seconds, names the untraced run prints
    ("train", 4, ("train_windows_per_s", "train_step_ms_p50", "train_step_ms_p95")),
    ("forecast", 4, ("forecast_windows_per_s", "forecast_batch_ms_p50", "forecast_batch_ms_p95")),
    ("serve", 16, ("serve_p50_ms", "serve_p99_ms", "serve_max_rps")),
)

#: per workload, what the seeded run gets wrong and the code that does it
SEEDED = {
    "train": ("a NaN loss at the third step", """
from perfbench import train
init = train.TrainSetup.__init__
def seeded_init(self, *args):
    init(self, *args)
    compute_loss, calls = self.model.compute_loss, []
    def nan_at_third_step(*a, **k):
        loss = compute_loss(*a, **k)
        calls.append(None)
        # call 1 is the gradient oracle, calls 2.. the measured steps
        return loss * float("nan") if len(calls) == 4 else loss
    self.model.compute_loss = nan_at_third_step
train.TrainSetup.__init__ = seeded_init
"""),
    "forecast": ("a perturbed forecast", """
from perfbench import forecast
predict = forecast.ForecastSetup.predict
forecast.ForecastSetup.predict = lambda self, batch: predict(self, batch) + 1e-2
"""),
    "serve": ("expected forecasts of the history one write earlier", """
from perfbench import serve
reference = serve.reference_forecasts
def one_write_earlier(setup, keys):
    earlier = reference(setup, [(sid, n - 1) for sid, n in keys])
    return {(sid, n): earlier[(sid, n - 1)] for sid, n in keys}
serve.reference_forecasts = one_write_earlier
"""),
}

#: the seeded run's child process: patch, then run the benchmark
CHILD = """
import sys
sys.path[0:0] = {paths!r}
{patch}
from perfbench.run import main
sys.exit(main({argv!r}))
"""


def run(workload: str, seconds: float, trace: int, seeded: bool = False):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    if seeded:
        code = CHILD.format(paths=[str(ROOT / "src"), str(ROOT)], patch=SEEDED[workload][1], argv=argv)
        command = [sys.executable, "-c", code]
    else:
        command = [sys.executable, "perfbench/run.py", *argv]
    # one BLAS thread before numpy loads, as run.py sets it for itself
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            problems.append(message)

    expect(per_layer == PER_LAYER, "BENCHMARK.json per_layer matches perfbench/layers.py")
    for workload, seconds, named in CASES:
        done, result = run(workload, seconds, trace=0)
        expect(result is not None, f"{workload}: untraced run prints a result")
        if result is None:
            print(done.stderr[-2000:])
            continue
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(units == e2e, f"{workload}: every end-to-end metric, with its unit")
        lines = done.stdout.strip().splitlines()
        detail = json.loads(lines[-2]) if len(lines) > 1 and lines[-2].startswith("{") else {}
        expect(set(detail.get("uncalibrated", ())) == set(e2e) and "probe_ms_p50" in detail,
               f"{workload}: prints every end-to-end metric uncalibrated and the probe time")
        for name in named + ("fail_share", "setup_s", "peak_rss_mb"):
            expect(re.search(rf"^{name} = \S+", done.stdout, re.M) is not None, f"{workload}: prints {name}")
        clean_share = result["failed"] / result["attempted"]
        if workload != "serve":
            expect(done.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload}: untraced run passes its checks")
        else:
            print(f"     serve: {result['failed']} of {result['attempted']} operations failed untraced")

        done, result = run(workload, seconds, trace=1)
        expect(result is not None, f"{workload}: traced run prints a result")
        if result is not None:
            listed = {**PER_LAYER, **(SERVE_LAYERS if workload == "serve" else {})}
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == listed, f"{workload}: every per-layer metric, with its unit")
            trace = ROOT / ".perfbench_out" / f"trace-{workload}-seed{SEED}.json"
            payload = json.loads(trace.read_text(encoding="utf-8")) if trace.is_file() else {}
            expect(bool(payload.get("spans")) and "tracing_overhead_share" in payload.get("summary", {}),
                   f"{workload}: trace file holds spans, summary and overhead")

        wrong = SEEDED[workload][0]
        done, result = run(workload, seconds, trace=0, seeded=True)
        expect(result is not None and done.returncode == 1 and not result["correct"],
               f"{workload}: seeded {wrong} fails the run")
        if result is None:
            print(done.stderr[-2000:])
        else:
            share = result["failed"] / result["attempted"]
            expect(share > clean_share, f"{workload}: seeded {wrong} raises fail_share ({clean_share:.4f} -> {share:.4f})")
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
