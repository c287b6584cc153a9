"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run --workload W --seed N --seconds S \
        --out DIR [--iterations K] [--trace-file PATH]

`setup` times `import driftfluid`, `RunConfig.from_dict` and `cli.validate`
of the workload's configs; numpy is not imported before its clock starts.
`run` executes the workload through `cli.run(..., reference_mode=True)`,
either for K iterations or, without --iterations, for at least
MIN_ITERATIONS and then while another iteration still fits in S seconds.
With --trace-file the run is traced (see tracing.py) and the spans are
written to PATH. Either mode prints one JSON object as its last line; the
correctness verdicts are made by run.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402  (patches nothing on import)
import workloads  # noqa: E402

# two iterations give every run a pair for the byte-identity check
MIN_ITERATIONS = 2


def setup(workload: str, seed: int) -> dict:
    raws = workloads.configs(workload, seed)
    start = time.perf_counter()
    from driftfluid import cli
    for raw in raws:
        cli.validate(cli.RunConfig.from_dict(raw))
    return {"setup_s": time.perf_counter() - start}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def key_outputs(experiment: str, out: Path) -> dict[str, float]:
    """The outputs checked against perfbench/reference.json."""
    if experiment == "eps_sweep":
        return {f"convergence.{col}[{i}]": float(val)
                for i, row in enumerate(_read_csv(out / "convergence.csv"))
                for col, val in row.items()}
    if experiment == "contraction":
        data = json.loads((out / "contraction.json").read_text())
        return {"contraction.eta": data["eta"],
                "contraction.max_ratio": data["max_ratio"]}
    if experiment == "growth":
        return {f"growth.sigma_meas[k={row['k']}]": float(row["sigma_meas"])
                for row in _read_csv(out / "growth.csv")}
    if experiment == "dichotomy":
        data = json.loads((out / "dichotomy.json").read_text())
        return {f"dichotomy.{branch}.{eps}.H_final": entry["H_final"]
                for branch in ("stable", "unstable")
                for eps, entry in sorted(data[branch].items())}
    return {}


def csv_hashes(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def _one_run(cli, raw: dict, out: Path) -> tuple[float, dict]:
    """(wall seconds of cli.run, record); failures are recorded, not raised."""
    rec = {"experiment": raw["experiment"], "errors": [], "outputs": {},
           "csv_sha256": {}}
    wall = 0.0
    shutil.rmtree(out, ignore_errors=True)
    try:
        cfg = cli.RunConfig.from_dict(raw)
        report = cli.validate(cfg)
        rec["errors"] += [f"validate: {f}" for f in report["findings"]]
        start = time.perf_counter()
        cli.run(cfg, out, reference_mode=True)
        wall = time.perf_counter() - start
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest.get("passed") is not True:
            failed = [k for k, ok in manifest.get("checks", {}).items() if not ok]
            rec["errors"].append(f"manifest passed is not true; failed checks {failed}")
        rec["outputs"] = key_outputs(raw["experiment"], out)
        rec["csv_sha256"] = csv_hashes(out)
    except Exception as exc:  # one failed run is counted; the workload goes on
        rec["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, rec


def run(workload: str, seed: int, seconds: float, out_root: Path,
        iterations: int | None, trace_file: Path | None) -> dict:
    raws = workloads.configs(workload, seed)
    from driftfluid import cli
    import numpy

    tracer = None
    if trace_file is not None:
        tracer = tracing.Tracer()
        tracer.install()
    result = {"numpy": numpy.__version__, "iterations": []}
    start = time.perf_counter()
    while True:
        if tracer is None and tracing.find_wrappers():
            raise RuntimeError(f"wrappers installed in an untraced run: "
                               f"{tracing.find_wrappers()}")
        it_start = time.perf_counter()
        it = {"wall_s": 0.0, "runs": []}
        for idx, raw in enumerate(raws):
            if tracer is not None:
                tracer.run_id = idx
            wall, rec = _one_run(cli, raw, out_root / f"run{idx}")
            it["wall_s"] += wall
            it["runs"].append(rec)
        result["iterations"].append(it)
        done = len(result["iterations"])
        now = time.perf_counter()
        if iterations is not None:
            if done >= iterations:
                break
        elif done >= MIN_ITERATIONS and now - start + (now - it_start) > seconds:
            break
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["absent"] = tracer.absent
        result["layers"] = tracer.layer_metrics()
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                          **tracer.dump()}))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        if args.out is None:
            parser.error("run needs --out")
        result = run(args.workload, args.seed, args.seconds, args.out,
                     args.iterations, args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
