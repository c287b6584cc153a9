"""Record reference.json: the key outputs of one iteration of every workload.

    python3 perfbench/record_reference.py

The checked outputs do not depend on the workload seed (see NOTES.md), so
seed 0 stands for all seeds. Re-record only in a change that is allowed to
move those outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import time

import run
import workloads


def main() -> None:
    reference = {}
    for name in workloads.WORKLOADS:
        res = run.worker(["run", "--workload", name, "--seed", "0",
                          "--iterations", "1", "--out", str(run.OUT / "runs")],
                         time.monotonic() + 600.0)
        for rec in res["iterations"][0]["runs"]:
            if rec["errors"]:
                raise SystemExit(f"{name} {rec['experiment']}: {rec['errors']}")
            if rec["outputs"]:
                reference[rec["experiment"]] = rec["outputs"]
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
