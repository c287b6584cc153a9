"""Benchmark workloads: the experiment configs each workload runs.

A workload is a list of `driftfluid` run configs executed in order through
`cli.run(..., reference_mode=True)`; one pass over the list is one
iteration. The seed only jitters preset amplitudes inside ranges that keep
every step count, iterate count and inline check unchanged. Workloads
whose checked outputs would move with any input change take no jitter
(see NOTES.md). This module imports nothing heavy, so a set-up probe can
import it before it starts its clock.
"""

from __future__ import annotations

import random

WHY = {
    "eps_sweep_small": "4x4x16 eps sweep: per-call overhead regime (256-point "
                       "transforms), epsilon/limit/oscillations and CSV writes",
    "ck_contraction": "CK contraction at 4x4x8: the only workload in ck and "
                      "spectral.shrinking_norm",
    "eps_run_large": "32x32x64 eps run with norms and .spec snapshots: "
                     "transform-bound regime",
    "reductions_1d": "growth then dichotomy: the only workload in the "
                     "twostream and toymodel line-grid steppers",
}

WORKLOADS = tuple(WHY)


def _jitter(rng: random.Random, base: float, rel: float = 0.1) -> float:
    return base * (1.0 + rel * (2.0 * rng.random() - 1.0))


def configs(name: str, seed: int) -> list[dict]:
    """The run configs of workload `name` for `seed` (same seed, same configs)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "eps_sweep_small":
        # convergence.csv comes from fixed matched data; the jitter reaches
        # only the per-eps timeseries runs
        return [{
            "experiment": "eps_sweep", "grid": [4, 4, 16],
            "eps": [0.1, 0.025], "horizon": 2.5,
            "initial_data": {"preset": "single_mode",
                             "params": {"amplitude": _jitter(rng, 0.05)}},
        }]
    if name == "ck_contraction":
        # max_ratio sits at 0.499 against its 0.5 check: no jitter
        return [{"experiment": "contraction", "eps": [0.25]}]
    if name == "eps_run_large":
        return [{
            "experiment": "eps_run", "grid": [32, 32, 64], "eps": [0.01],
            "horizon": 0.1, "snapshot_every": 5,
            "initial_data": {"preset": "single_mode", "params": {
                "amplitude": _jitter(rng, 0.05),
                "perp_amplitude": _jitter(rng, 0.05),
                "v_amplitude": _jitter(rng, 0.05)}},
        }]
    if name == "reductions_1d":
        # growth.csv and dichotomy.json are checked against recorded
        # values, and every input moves them: no jitter
        return [
            {"experiment": "growth", "horizon": 2.5, "experiment_params": {
                "background": [0.5, 1.0, -1.0], "k_max": 5}},
            {"experiment": "dichotomy", "eps": [0.1, 0.01, 0.001]},
        ]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
