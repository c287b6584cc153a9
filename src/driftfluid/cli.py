"""Batch orchestration: declarative JSON configs, experiment dispatch,
deterministic manifests, CSV/snapshot/plot-script emission.

Config schema (JSON object; unknown keys are rejected with their path):

    {
      "experiment": "eps_run" | "eps_sweep" | "contraction"
                    | "growth" | "dichotomy",
      "grid": [n1, n2, npar],          # or [n1, npar] (shear), [npar]
      "eps": [0.1, 0.025],             # one entry for eps_run
      "horizon": 2.5,
      "dt": {"samples_per_period": 120, "cfl": 0.4, "dt": null},
      "norms": {"delta0": 1.5, "delta": 1.1, "eta": 1.0, "beta": 0.5},
      "initial_data": {"preset": "single_mode", "params": {...}},
      "experiment_params": {...},      # keyword arguments of the experiment
      "adm_const": 10.0,
      "seed": 0
    }

Only "experiment" is required; everything else has defaults. The keys of
"experiment_params" are the keyword arguments of the experiment's function
that its runner does not supply (eps_run takes none). Outputs per
run: RFC-4180 CSV tables, `.spec` snapshots, gnuplot-compatible plot
scripts, and a manifest.json (written atomically) listing every file,
the config echo, versions, wall time, and inline invariant check results.
Exit status is nonzero iff an inline check fails.

In "eps_sweep", "grid" and "eps" govern every table. The per-eps
eps_<eps>/timeseries.csv follow "horizon", "dt", "initial_data",
"adm_const" and "seed". convergence.csv, and limit_timeseries.csv and
correctors.csv at the smallest eps, come from the same runs of
experiments.quasineutral_sweep on matched well-prepared data, with
"experiment_params" forwarded to it (its horizon defaults to
min(horizon, 2.5)).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, epsilon, experiments, presets, toymodel, twostream
from .errors import AdmissibilityError, ConfigError
from .oscillations import corrector_rows
from .quadrature import states_at
from .specio import write_csv, write_json_atomic, write_spec
from .spectral import Grid, NormParams

EXPERIMENTS = ("eps_run", "eps_sweep", "contraction", "growth", "dichotomy")

_DEFAULTS = {
    "experiment": None,
    "grid": [4, 4, 16],
    "eps": [1e-2],
    "horizon": 2.5,
    "dt": {"samples_per_period": 120, "cfl": 0.4, "dt": None},
    "norms": {"delta0": 1.5, "delta": 1.1, "eta": 1.0, "beta": 0.5},
    "initial_data": {"preset": "single_mode", "params": {}},
    "experiment_params": {},
    "adm_const": 10.0,
    "seed": 0,
    "snapshot_every": 0,
}

# the function each experiment forwards "experiment_params" to, and the
# arguments its runner supplies itself; eps_run takes none
_EXPERIMENT_FUNCTIONS = {
    "eps_sweep": (experiments.quasineutral_sweep, ("eps_list", "grid")),
    "contraction": (experiments.contraction_study, ("params",)),
    "growth": (twostream.growth_experiment, ("horizon", "seed")),
    "dichotomy": (toymodel.dichotomy_experiment, ("eps_list",)),
}


@dataclass
class RunConfig:
    experiment: str
    grid: list
    eps: list
    horizon: float
    dt: dict
    norms: dict
    initial_data: dict
    experiment_params: dict
    adm_const: float
    seed: int
    snapshot_every: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        def check_keys(d, allowed, path):
            for key in d:
                if key not in allowed:
                    raise ConfigError(f"unknown config key {path}{key}")

        check_keys(raw, _DEFAULTS.keys(), "")
        merged = {}
        for key, default in _DEFAULTS.items():
            val = raw.get(key, default)
            if isinstance(default, dict) and val is not default \
                    and key != "experiment_params":
                check_keys(val, default.keys() if key != "initial_data"
                           else ("preset", "params"), f"{key}.")
                val = {**default, **val}
            merged[key] = val
        if merged["experiment"] not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got "
                f"{merged['experiment']!r}")
        fn, supplied = _EXPERIMENT_FUNCTIONS.get(merged["experiment"], (None, ()))
        allowed = set(inspect.signature(fn).parameters) - set(supplied) if fn else ()
        check_keys(merged["experiment_params"], allowed, "experiment_params.")
        if not merged["eps"] or any(e <= 0 for e in merged["eps"]):
            raise ConfigError("eps must be a non-empty list of positive values")
        if merged["horizon"] <= 0:
            raise ConfigError("horizon must be positive")
        return cls(**merged)

    def make_grid(self) -> Grid:
        dims = list(self.grid)
        if len(dims) == 3:
            return Grid.torus3d(*dims)
        if len(dims) == 2:
            return Grid.shear2d(*dims)
        if len(dims) == 1:
            return Grid.line(dims[0])
        raise ConfigError(f"grid must have 1-3 entries, got {dims}")

    def norm_params(self) -> NormParams:
        return NormParams(**self.norms)

    def policy_dt(self, eps: float) -> float:
        if self.dt.get("dt"):
            return float(self.dt["dt"])
        return epsilon.dt_policy(eps,
                                 samples_per_period=self.dt["samples_per_period"],
                                 cfl=self.dt["cfl"])


@dataclass
class Manifest:
    config: dict
    version: str = __version__
    wall_time: float = 0.0
    files: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def add(self, path: Path, root: Path):
        self.files.append({"path": str(path.relative_to(root)),
                           "bytes": path.stat().st_size})

    def ok(self) -> bool:
        return all(self.checks.values())


def _plot_script(path: Path, csv_name: str, columns: list[tuple[int, str]],
                 title: str, logy: bool = False) -> None:
    lines = [
        "# gnuplot script",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
        "set xlabel 't'",
    ]
    if logy:
        lines.append("set logscale y")
    plots = ", ".join(f"'{csv_name}' using 1:{i} with lines title '{name}'"
                      for i, name in columns)
    lines.append(f"plot {plots}")
    path.write_text("\n".join(lines) + "\n")


def _build_eps_state(cfg: RunConfig, grid: Grid, eps: float):
    name = cfg.initial_data["preset"]
    params = dict(cfg.initial_data.get("params", {}))
    if name == "random_band":
        params.setdefault("seed", cfg.seed)
    made = presets.build(name, grid, eps=eps, **params)
    if len(made) != 2:
        raise ConfigError(f"preset {name!r} does not define (rho, v) data")
    rho0, v0 = made
    return epsilon.make_eps_state(rho0, v0, eps, adm_const=cfg.adm_const)


def _run_eps_single(cfg: RunConfig, eps: float,
                    out: Path) -> tuple[list[Path], dict]:
    """One eps run; returns the emitted files and its inline checks."""
    grid = cfg.make_grid()
    state = _build_eps_state(cfg, grid, eps)
    dt = cfg.policy_dt(eps)
    n_steps = int(math.ceil(cfg.horizon / dt))
    snap_every = cfg.snapshot_every
    probes = epsilon.diagnostic_probes(cfg.norm_params())
    names = ["t", *probes]       # the CSV columns; snapshot states are not one
    if snap_every > 0:
        probes["state"] = states_at(range(0, n_steps + 1, snap_every))
    traj = epsilon.run(state, dt, n_steps, probes)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    csv_path = out / "timeseries.csv"
    write_csv(csv_path, names,
              ({"t": float(t), **{k: float(traj[k][i]) for k in names[1:]}}
               for i, t in enumerate(traj.times)))
    files.append(csv_path)
    gp = out / "timeseries.gp"
    _plot_script(gp, "timeseries.csv",
                 [(3, "energy"), (5, "|rho-1|_delta"), (7, "|sqrt(eps)Epar|_delta")],
                 f"eps = {eps}")
    files.append(gp)
    if snap_every > 0:
        for i, st in enumerate(traj["state"]):
            if st is None:
                continue
            sp = out / f"state_{i:06d}.spec"
            write_spec(sp, {"rho": st.rho, "v": st.v}, time=st.t, eps=eps)
            files.append(sp)
    checks = {
        f"mass_drift_eps_{eps:g}": bool(np.max(np.abs(traj["mass"] - 1.0)) < 1e-12),
        f"positivity_eps_{eps:g}": bool(np.all(traj["min_rho"] > 0.0)),
    }
    return files, checks


def _sweep_member(raw_cfg: dict, eps: float, out_dir: str):
    """Worker-pool entry point (must be picklable)."""
    cfg = RunConfig.from_dict(raw_cfg)
    files, checks = _run_eps_single(cfg, eps, Path(out_dir))
    return [str(f) for f in files], checks


def _run_eps_sweep(cfg: RunConfig, out: Path, manifest: Manifest,
                   workers: int) -> None:
    jobs = [(eps, out / f"eps_{eps:g}") for eps in cfg.eps]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        raw = _config_echo(cfg)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_member, raw, eps, str(d))
                       for eps, d in jobs]
            members = [fut.result() for fut in futures]  # submission order
    else:
        members = [_run_eps_single(cfg, eps, d) for eps, d in jobs]
    for files, checks in members:
        for f in files:
            manifest.add(Path(f), out)
        manifest.checks.update(checks)

    kwargs = dict(cfg.experiment_params)
    kwargs.setdefault("horizon", min(cfg.horizon, 2.5))
    res = experiments.quasineutral_sweep(cfg.eps, grid=cfg.make_grid(), **kwargs)
    csv_path = out / "convergence.csv"
    write_csv(csv_path,
              ["eps", "rho_error", "v_error_filtered", "v_error_raw",
               "residual", "mass_drift", "energy_drift"],
              ({"eps": e.eps, "rho_error": e.rho_error,
                "v_error_filtered": e.v_error_filtered,
                "v_error_raw": e.v_error_raw, "residual": e.residual,
                "mass_drift": e.mass_drift, "energy_drift": e.energy_drift}
               for e in res.entries))
    manifest.add(csv_path, out)

    # the limit flow at the smallest eps's sampling over the horizon, with
    # the constraint-residual column, and the demodulated corrector table
    lim = res.limit_trajectory
    n = math.ceil(res.horizon / lim.dt) + 1
    lim_csv = out / "limit_timeseries.csv"
    write_csv(lim_csv, ["t", "mass", "constraint_residual"],
              ({"t": float(t), "mass": float(m), "constraint_residual": float(r)}
               for t, m, r in zip(lim.times[:n], lim["mass"], lim["residual"])))
    manifest.add(lim_csv, out)
    corr_csv = out / "correctors.csv"
    write_csv(corr_csv, ["t", "k_par", "re_eplus", "im_eplus", "residual"],
              corrector_rows(res.correctors))
    manifest.add(corr_csv, out)

    gp = out / "convergence.gp"
    gp.write_text("\n".join([
        "# gnuplot script", "set datafile separator ','",
        "set key autotitle columnhead", "set logscale xy",
        "set xlabel 'eps'", "set title 'quasineutral convergence'",
        "plot 'convergence.csv' using 1:2 with linespoints title 'rho error',"
        " 'convergence.csv' using 1:3 with linespoints title 'v error'",
    ]) + "\n")
    manifest.add(gp, out)
    manifest.checks["rho_error_decreasing"] = res.strictly_decreasing("rho_error")
    manifest.checks["v_error_decreasing"] = res.strictly_decreasing("v_error_filtered")
    manifest.checks["residual_decreasing"] = res.strictly_decreasing("residual")


def _run_contraction(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    kwargs = dict(cfg.experiment_params)
    kwargs.setdefault("eps", cfg.eps[0])
    study = experiments.contraction_study(params=cfg.norm_params(), **kwargs)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "contraction.csv"
    write_csv(csv_path,
              ["n", "norm_rho_diff", "norm_w_diff", "norm_G_diff",
               "norm_E_diff", "ratio"],
              ({"n": r.n, "norm_rho_diff": r.d_rho, "norm_w_diff": r.d_w,
                "norm_G_diff": r.d_G, "norm_E_diff": r.d_E, "ratio": r.ratio}
               for r in study.rows))
    manifest.add(csv_path, out)
    write_json_atomic(out / "contraction.json", {
        "eta": study.eta, "max_ratio": study.max_ratio,
        "sup_l2_vs_rk4": study.sup_l2_vs_rk4})
    manifest.add(out / "contraction.json", out)
    manifest.checks["contraction_rate"] = study.max_ratio <= 0.5
    manifest.checks["fixed_point_matches_rk4"] = study.sup_l2_vs_rk4 <= 1e-6


def _run_growth(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    p = dict(cfg.experiment_params)
    background = tuple(p.pop("background", (0.5, 1.0, -1.0)))
    k_max = int(p.pop("k_max", 5))
    res = twostream.growth_experiment(background, k_max, cfg.horizon,
                                      seed=cfg.seed, **p)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "growth.csv"
    write_csv(csv_path,
              ["k", "re_sigma_lin", "im_sigma_lin", "sigma_meas", "r_squared"],
              ({"k": r.k, "re_sigma_lin": r.sigma_lin.real,
                "im_sigma_lin": r.sigma_lin.imag, "sigma_meas": r.sigma_meas,
                "r_squared": r.r_squared} for r in res.rows))
    manifest.add(csv_path, out)
    within = [abs(r.sigma_meas - r.sigma_lin.real) <= 0.1 * abs(r.sigma_lin.real)
              for r in res.rows if r.sigma_lin.real > 1e-9]
    manifest.checks["growth_matches_linear_theory"] = bool(all(within)) if within else True
    manifest.checks["growth_run_completed"] = not res.blew_up


def _run_dichotomy(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    report = toymodel.dichotomy_experiment(cfg.eps, **cfg.experiment_params)
    trajectories = report.pop("trajectories")
    out.mkdir(parents=True, exist_ok=True)
    write_json_atomic(out / "dichotomy.json", report)
    manifest.add(out / "dichotomy.json", out)
    # per-branch time series at the largest eps (t, energy, H, masses)
    eps = max(report["eps"])
    for branch in ("stable", "unstable"):
        traj = trajectories[branch][eps]
        path = out / f"{branch}_timeseries.csv"
        names = ["t", "energy", "relative_entropy"] + \
            [f"mass_{i}" for i in range(traj["masses"].shape[1])]
        write_csv(path, names,
                  ({"t": float(t), "energy": float(e), "relative_entropy": float(h),
                    **{f"mass_{i}": float(m) for i, m in enumerate(ms)}}
                   for t, e, h, ms in zip(traj.times, traj["energy"],
                                          traj["entropy"], traj["masses"])))
        manifest.add(path, out)
    manifest.checks["stable_branch_decreasing"] = report["stable_strictly_decreasing"]
    manifest.checks["unstable_branch_nondecreasing"] = report["unstable_nondecreasing"]


def run(cfg: RunConfig, out_dir, reference_mode: bool = False,
        workers: int = 1) -> Manifest:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if reference_mode:
        workers = 1
    manifest = Manifest(config=_config_echo(cfg))
    start = time.perf_counter()
    if cfg.experiment == "eps_run":
        files, checks = _run_eps_single(cfg, cfg.eps[0], root / "run")
        for f in files:
            manifest.add(f, root)
        manifest.checks.update(checks)
    elif cfg.experiment == "eps_sweep":
        _run_eps_sweep(cfg, root, manifest, workers)
    elif cfg.experiment == "contraction":
        _run_contraction(cfg, root, manifest)
    elif cfg.experiment == "growth":
        _run_growth(cfg, root, manifest)
    elif cfg.experiment == "dichotomy":
        _run_dichotomy(cfg, root, manifest)
    manifest.wall_time = time.perf_counter() - start
    write_json_atomic(root / "manifest.json", {
        "config": manifest.config,
        "version": manifest.version,
        "wall_time_s": manifest.wall_time,
        "files": sorted(manifest.files, key=lambda f: f["path"]),
        "checks": manifest.checks,
        "passed": manifest.ok(),
    })
    return manifest


def _config_echo(cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in _DEFAULTS}


def validate(cfg: RunConfig) -> dict:
    """Dry-run validation; findings are reported, never raised."""
    findings = []
    try:
        grid = cfg.make_grid()
    except ConfigError as exc:
        return {"ok": False, "findings": [f"grid: {exc}"]}
    if cfg.experiment in ("eps_run", "eps_sweep"):
        for eps in cfg.eps:
            try:
                _build_eps_state(cfg, grid, eps)
            except AdmissibilityError as exc:
                findings.append(f"eps={eps:g}: admissibility failure: {exc}")
                continue
            except ConfigError as exc:
                findings.append(f"eps={eps:g}: {exc}")
                continue
            dt = cfg.policy_dt(eps)
            resolve = 2.0 * math.pi * math.sqrt(eps) / epsilon.MIN_SAMPLES_PER_PERIOD
            if dt > resolve:
                findings.append(
                    f"eps={eps:g}: dt = {dt:.3e} exceeds the oscillation "
                    f"resolution bound 2 pi sqrt(eps)/"
                    f"{epsilon.MIN_SAMPLES_PER_PERIOD} = {resolve:.3e}")
    return {"ok": not findings, "findings": findings}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftfluid",
        description="pseudo-spectral drift-fluid experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--reference-mode", action="store_true",
                       help="single worker, bitwise-reproducible outputs")
    run_p.add_argument("--workers", type=int, default=1)

    val_p = sub.add_parser("validate", help="dry-run checks on a config")
    val_p.add_argument("--config", required=True)

    sub.add_parser("list-presets", help="list initial-data presets")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        for name in presets.PRESETS:
            print(name)
        return 0

    import json
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = RunConfig.from_dict(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        report = validate(cfg)
        for finding in report["findings"]:
            print(f"finding: {finding}")
        print("ok" if report["ok"] else "invalid")
        return 0 if report["ok"] else 1

    manifest = run(cfg, args.out, reference_mode=args.reference_mode,
                   workers=args.workers)
    for name, passed in manifest.checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    return 0 if manifest.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
