"""driftfluid benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/driftfluid`; nothing is installed.

--trace 0 measures the end-to-end metrics without any wrapper installed:
  wall_s       median wall time of one workload iteration, summed over its
               cli.run calls (call until manifest written)
  setup_s      median over SETUP_PROBES fresh interpreters of import +
               RunConfig.from_dict + cli.validate
  peak_rss_mb  peak resident memory of the process that ran the workload
  pass_frac    experiment runs that passed / attempted (fail_frac is its
               complement and is printed too)
--trace 1 runs one untraced and one traced iteration, each in a fresh
  process, and reports the per-layer metrics of tracing.PER_LAYER plus
  trace_overhead_s, fail_frac and src.lines. Spans go to
  .perfbench_out/trace-<workload>.json.

Every experiment run is checked: its manifest must say passed, its key
outputs must match reference.json within RTOL/ATOL, and its reference-mode
CSVs must be byte-identical to those of the first iteration. The last
stdout line is the JSON result; any other outcome exits nonzero without one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "driftfluid"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# numpy's pocketfft is single-threaded; BLAS-backed calls are pinned to
# one thread too, so a run is one serial chain on one core
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 5
# rounding-level agreement with the outputs recorded in reference.json
RTOL = 1e-9
ATOL = 1e-14
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = {**os.environ, **THREAD_PINS}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def check(iterations: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every experiment run."""
    attempted = failed = 0
    problems = []
    first = iterations[0]["runs"]
    for i, it in enumerate(iterations):
        for j, rec in enumerate(it["runs"]):
            attempted += 1
            errors = list(rec["errors"])
            for key, want in reference.get(rec["experiment"], {}).items():
                got = rec["outputs"].get(key)
                if got is None:
                    errors.append(f"{key} missing")
                elif not _close(got, want):
                    errors.append(f"{key} = {got!r}, reference {want!r}")
            if i > 0 and rec["csv_sha256"] != first[j]["csv_sha256"]:
                differ = sorted(set(rec["csv_sha256"].items())
                                ^ set(first[j]["csv_sha256"].items()))
                errors.append(f"CSVs differ from iteration 0: {differ}")
            if errors:
                failed += 1
                problems.append(f"iteration {i} {rec['experiment']}: {errors}")
    return attempted, failed, problems


def src_lines() -> int:
    return sum(1 for path in SRC.rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def environment(numpy_version: str) -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}={size}")
    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    return (f"python={platform.python_version()} numpy={numpy_version} "
            f"nproc={os.cpu_count()} cpu=\"{model}\" "
            f"caches: {' '.join(caches) or 'unknown'} "
            f"pins: {pins}")


def tail_note(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} = {statistics.quantiles(walls, n=100)[p - 1]:.4f} s (n={n})"


def measure(args, deadline: float) -> tuple[dict, list[dict], str]:
    """End-to-end metrics, the iterations run, and the numpy version."""
    setup_args = ["setup", "--workload", args.workload, "--seed", str(args.seed)]
    worker(setup_args, deadline)      # writes bytecode caches; not timed
    setups = [worker(setup_args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--out", str(OUT / "runs")],
                 deadline)
    walls = [it["wall_s"] for it in res["iterations"]]
    print(f"wall_s per iteration: {[round(w, 4) for w in walls]}; tail: "
          f"{tail_note(walls)}")
    print(f"setup_s per probe: {[round(s, 4) for s in setups]}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    return metrics, res["iterations"], res["numpy"]


def measure_layers(args, deadline: float) -> tuple[dict, list[dict], str]:
    """Per-layer metrics of one traced iteration, the iterations run (the
    untraced one first), and the numpy version."""
    common = ["run", "--workload", args.workload, "--seed", str(args.seed),
              "--iterations", "1"]
    plain = worker(common + ["--out", str(OUT / "runs")], deadline)
    trace_file = OUT / f"trace-{args.workload}.json"   # the last run's spans
    traced = worker(common + ["--out", str(OUT / "runs"),
                              "--trace-file", str(trace_file)], deadline)
    if traced["absent"]:
        print(f"absent (metrics left out): {traced['absent']}")
    metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
    metrics["trace_overhead_s"] = (
        traced["iterations"][0]["wall_s"] - plain["iterations"][0]["wall_s"], "s")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, plain["iterations"] + traced["iterations"], plain["numpy"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no driftfluid sources at {SRC.relative_to(ROOT)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ({workloads.WHY[args.workload]})")
    try:
        if args.trace:
            metrics, iterations, numpy_version = measure_layers(args, deadline)
        else:
            metrics, iterations, numpy_version = measure(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "runs", ignore_errors=True)

    reference = json.loads(REFERENCE.read_text())
    attempted, failed, problems = check(iterations, reference)
    fail_frac = failed / attempted
    lines = src_lines()
    if args.trace:
        metrics["fail_frac"] = (fail_frac, "ratio")
        metrics["src.lines"] = (lines, "count")
    else:
        metrics["pass_frac"] = (1.0 - fail_frac, "ratio")
    print(f"env: {environment(numpy_version)}")
    print(f"static: src.lines={lines}")
    print(f"correctness: {attempted} experiment runs, {failed} failed "
          f"(fail_frac={fail_frac:g}); outputs vs reference.json at "
          f"rtol={RTOL:g} atol={ATOL:g}; CSVs byte-identical across "
          f"{len(iterations)} iterations")
    for problem in problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
