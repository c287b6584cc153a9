"""Batch orchestration: declarative JSON configs, experiment dispatch,
deterministic manifests, CSV/snapshot/plot-script emission.

Config schema (JSON object; unknown keys are rejected with their path):

    {
      "experiment": "eps_run" | "eps_sweep" | "contraction"
                    | "growth" | "dichotomy",
      "grid": [n1, n2, npar],          # or [n1, npar] (shear), [npar]
      "eps": [0.1, 0.025],             # one entry for eps_run
      "horizon": 2.5,
      "dt": {"samples_per_period": 120, "dt": null},   # dt overrides
      "norms": {"delta0": 1.5, "delta": 1.1, "eta": 1.0, "beta": 0.5},
      "initial_data": {"preset": "single_mode", "params": {...}},
      "experiment_params": {...},      # keyword arguments of the experiment
      "adm_const": 10.0,
      "seed": 0,
      "snapshot_every": 0              # a .spec every n samples, 0: none
    }

Only "experiment" is required; everything else has defaults. "dt.dt",
when set, and "dt.samples_per_period" must be positive, "snapshot_every"
(of each eps time series) non-negative, and no two "eps" entries may
print alike under `:g` (each names its run's outputs and report key).
Every value has a type: an
object wherever the default is one; a list for "grid" and "eps"; a
string for "experiment" and "initial_data.preset"; an integer for the
"grid" entries, "seed" and "snapshot_every"; any other number an int or
a float, never a bool. "dt.dt" and "adm_const" may also be null (a null
"adm_const" skips the admissibility check). A mistyped value is a config
error naming its key.

"experiment_params" and "initial_data.params" are keyword arguments,
admitted by one rule against the signature of the function that takes
them: the experiment's function less the arguments its prepare step
supplies (eps_run takes none), and the preset's function less "grid"
and "eps". A key that names no such parameter, or one whose default has
no JSON form (contraction's grid=None), is an unknown config key. A
value must have its default's JSON type: an integer for an int, a
number for a float, a string for a str, a bool for a bool, a list of as
many numbers for a tuple. Defaults are not filled in, so the manifest
echoes the config as given. "experiment_params" is admitted with the
rest of the config; "initial_data.params" by the eps experiments, the
only ones that read it, when they build their initial data.

Each experiment is one row of `_EXPERIMENTS`: its prepare step, the
function that receives its "experiment_params", and the arguments the
prepare step supplies to that function itself. prepare(cfg) maps the
config to arguments once, makes every check and builds every grid,
initial state, NormParams and Run, but steps nothing; it returns
finish, and finish(out) steps, writes the files and returns them with
the inline checks. `run` is prepare, then finish. `validate` is
prepare alone: what prepare raises, a ConfigError or an
AdmissibilityError, is its finding ("admissibility failure: ..." for the
latter), and it stops at the first; it adds a finding for each eps whose
dt exceeds the oscillation resolution bound. So `validate` refuses a
config exactly when `run` exits 2 before its first step. One error
only a computed result can show is left to `run`: contraction's "no
contracting eta found above 1e-8", met while bisecting eta.

Outputs per run: RFC-4180 CSV tables, `.spec` snapshots,
gnuplot-compatible plot scripts, and a manifest.json (written
atomically, by `run` alone) listing every file, the config echo,
versions, wall time, and inline invariant check results. Snapshots are
written as they are sampled (a _Snapshots hook on each eps Run), so a
run's memory does not grow with their count.
A blow-up (BlowUpError) of an eps or limit run ends the experiment: the
manifest is still written, with passed false, a "blow_up" entry giving
the system and the time of its last finite state, and the snapshots
written before the blow-up, which stay on disk. A per-eps run of an
"eps_run" or an "eps_sweep" also writes and lists its timeseries.csv up
to that last finite state, and a sweep whose own runs completed writes
its tables too. Exit status is nonzero iff an inline check fails or a
run blows up. A ConfigError or an AdmissibilityError met while running
ends the run like a config error met in the config: exit status 2, no
manifest, and no output directory made, because each is raised before
finish writes its first file.

Every run is one process with byte-identical outputs for an identical
config and seed; an "eps_sweep" steps all its eps as one ensemble.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, epsilon, experiments, presets, toymodel, twostream
from .errors import AdmissibilityError, BlowUpError, ConfigError
from .oscillations import corrector_rows
from .poisson import check_eps
from .quadrature import Run, Trajectory, evolve
from .specio import write_csv, write_json_atomic, write_spec
from .spectral import Grid, NormParams

_DEFAULTS = {
    "experiment": None,
    "grid": [4, 4, 16],
    "eps": [1e-2],
    "horizon": 2.5,
    "dt": {"samples_per_period": 120, "dt": None},
    "norms": {"delta0": 1.5, "delta": 1.1, "eta": 1.0, "beta": 0.5},
    "initial_data": {"preset": "single_mode", "params": {}},
    "experiment_params": {},
    "adm_const": 10.0,
    "seed": 0,
    "snapshot_every": 0,
}
# the type rule beyond "an object or a list where the default is one"
# and "any other value a number, int or float but never bool"
_STRINGS = ("experiment", "initial_data.preset")
_INTEGERS = ("grid", "seed", "snapshot_every")   # of grid: its entries
_NULLABLE = ("dt.dt", "adm_const")
# objects of keyword arguments, admitted against the function that takes
# them (_admitted)
_PARAMS = ("experiment_params", "initial_data.params")
_GRIDS = {3: Grid.torus3d, 2: Grid.shear2d, 1: Grid.line}

# each JSON type by the Python type it stands for: its name and its test
_JSON = {bool: ("a bool", lambda v: isinstance(v, bool)),
         int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
         float: ("a number",
                 lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
         str: ("a string", lambda v: isinstance(v, str))}


def _check_value(path: str, val, default) -> None:
    """Refuse `val` at `path` unless it has the type the rule gives it;
    a list default asks for a list, checked entry by entry, and an object
    of keyword arguments (_PARAMS) for an object."""
    if isinstance(default, list):
        if not isinstance(val, list):
            raise ConfigError(f"{path} must be a list, got {val!r}")
        for i, entry in enumerate(val):
            _check_value(f"{path}[{i}]", entry, None)
        return
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ConfigError(f"{path} must be an object, got {val!r}")
        return
    key = path.partition("[")[0]
    if val is None and key in _NULLABLE:
        return
    kind, ok = _JSON[str if key in _STRINGS else int if key in _INTEGERS else float]
    if not ok(val):
        raise ConfigError(f"{path} must be {kind}, got {val!r}")


def _merged(raw, defaults: dict, path: str) -> dict:
    """`raw` over `defaults`, one nesting level at a time, with unknown
    keys and mistyped values refused by their path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path[:-1] or 'config'} must be an object, got {raw!r}")
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key}")
    merged = {}
    for key, default in defaults.items():
        val = raw.get(key, default)
        if isinstance(default, dict) and f"{path}{key}" not in _PARAMS:
            val = _merged(val, default, f"{path}{key}.")
        else:
            _check_value(f"{path}{key}", val, default)
        merged[key] = val
    return merged


def _admitted(raw: dict, fn, supplied, path: str) -> dict:
    """`raw`, the keyword arguments of `fn` set at `path`, each refused by
    its path unless it names a parameter of `fn` outside `supplied` whose
    default has a JSON form, and has that default's JSON type: an integer
    for an int, a number for a float, a string for a str, a bool for a
    bool, a list of as many numbers for a tuple. No default is filled in."""
    params = inspect.signature(fn).parameters if fn else {}
    for key, val in raw.items():
        default = params[key].default if key in params and key not in supplied else None
        if isinstance(default, tuple):
            kind = f"a list of {len(default)} numbers"
            ok = isinstance(val, list) and len(val) == len(default) \
                and all(map(_JSON[float][1], val))
        elif type(default) in _JSON:
            kind, test = _JSON[type(default)]
            ok = test(val)
        else:
            raise ConfigError(f"unknown config key {path}{key}")
        if not ok:
            raise ConfigError(f"{path}{key} must be {kind}, got {val!r}")
    return raw


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
        merged = _merged(raw, _DEFAULTS, "")
        if merged["experiment"] not in _EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {tuple(_EXPERIMENTS)}, got "
                f"{merged['experiment']!r}")
        _, fn, supplied = _EXPERIMENTS[merged["experiment"]]
        _admitted(merged["experiment_params"], fn, supplied, "experiment_params.")
        if not merged["eps"]:
            raise ConfigError("eps must be a non-empty list")
        for eps in merged["eps"]:
            check_eps(eps)
        names = [f"{eps:g}" for eps in merged["eps"]]
        if len(set(names)) < len(names):
            raise ConfigError(f"eps must not repeat a value (as printed, {names}): "
                              "each names one run's outputs")
        if merged["horizon"] <= 0:
            raise ConfigError("horizon must be positive")
        dt = merged["dt"]
        if dt["dt"] is not None and dt["dt"] <= 0:
            raise ConfigError(f"dt.dt must be positive, got {dt['dt']}")
        if dt["samples_per_period"] <= 0:
            raise ConfigError("dt.samples_per_period must be positive, got "
                              f"{dt['samples_per_period']}")
        if merged["snapshot_every"] < 0:
            raise ConfigError("snapshot_every must be non-negative, got "
                              f"{merged['snapshot_every']}")
        return cls(**merged)

    def make_grid(self) -> Grid:
        if len(self.grid) not in _GRIDS:
            raise ConfigError(f"grid must have 1-3 entries, got {self.grid}")
        return _GRIDS[len(self.grid)](*self.grid)

    def norm_params(self) -> NormParams:
        return NormParams(**self.norms)

    def policy_dt(self, eps: float) -> float:
        if self.dt["dt"] is not None:
            return float(self.dt["dt"])
        return epsilon.dt_policy(eps, samples_per_period=self.dt["samples_per_period"])


@dataclass
class Manifest:
    config: dict
    version: str = __version__
    wall_time: float = 0.0
    files: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    blow_up: dict | None = None   # the system and last finite time of a blow-up

    def ok(self) -> bool:
        return self.blow_up is None and all(self.checks.values())


def _plot_script(path: Path, csv_name: str, columns: list[tuple[int, str]],
                 title: str) -> None:
    lines = [
        "# gnuplot script",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
        "set xlabel 't'",
    ]
    plots = ", ".join(f"'{csv_name}' using 1:{i} with lines title '{name}'"
                      for i, name in columns)
    lines.append(f"plot {plots}")
    path.write_text("\n".join(lines) + "\n")


def _build_eps_state(cfg: RunConfig, grid: Grid, eps: float):
    name = cfg.initial_data["preset"]
    params = dict(_admitted(cfg.initial_data["params"], presets.maker(name),
                            ("grid", "eps"), "initial_data.params."))
    if name == "random_band":
        params.setdefault("seed", cfg.seed)
    made = presets.build(name, grid, eps=eps, **params)
    if len(made) != 2:
        raise ConfigError(f"preset {name!r} does not define (rho, v) data")
    rho0, v0 = made
    return epsilon.make_eps_state(rho0, v0, eps, adm_const=cfg.adm_const)


def _eps_run(cfg: RunConfig, eps: float) -> Run:
    """The Run behind one eps's time series: the preset's data, the
    configured dt over the horizon and the diagnostic probes. Its
    snapshots are written by a _Snapshots hook, which finish attaches."""
    state = _build_eps_state(cfg, cfg.make_grid(), eps)
    dt = cfg.policy_dt(eps)
    n_steps = int(math.ceil(cfg.horizon / dt))
    return Run(state, dt, n_steps, epsilon.diagnostic_probes(cfg.norm_params()))


@dataclass
class _Snapshots:
    """The on_sample hook of one eps run: every `every`-th sample (none if
    0) written as it is sampled to out/state_<sample>.spec, and the paths
    written, in order. So no run holds a trajectory of states."""

    eps: float
    every: int
    out: Path
    paths: list = field(default_factory=list)

    def __call__(self, index: int, st) -> None:
        if self.every == 0 or index % self.every:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / f"state_{index:06d}.spec"
        write_spec(path, {"rho": st.rho, "v": st.v}, time=st.t, eps=self.eps)
        self.paths.append(path)


def _streamed(snapshots: list, step: Callable):
    """step(), the evolve behind the hooks `snapshots`. A blow-up keeps the
    snapshots written before it: its BlowUpError carries their paths, as
    `files`, for the manifest."""
    try:
        return step()
    except BlowUpError as exc:
        exc.files = [path for snaps in snapshots for path in snaps.paths]
        raise


def _write_eps_run(eps: float, traj: Trajectory, snapshots: _Snapshots,
                   out: Path) -> tuple[list[Path], dict]:
    """The files of one eps run, its snapshots among them, and its inline
    checks. A run that blew up (an incomplete trajectory) keeps its record
    up to its last finite state: timeseries.csv is written, and it and the
    snapshots are the `files` of the BlowUpError raised then."""
    names = ["t", *traj.series]   # CSV columns
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "timeseries.csv"
    write_csv(csv_path, names,
              ({"t": float(t), **{k: float(traj[k][i]) for k in names[1:]}}
               for i, t in enumerate(traj.times)))
    if not traj.complete:
        exc = traj.blow_up("eps")
        exc.files = [csv_path, *snapshots.paths]
        raise exc
    gp = out / "timeseries.gp"
    _plot_script(gp, "timeseries.csv",
                 [(3, "energy"), (5, "|rho-1|_delta"), (7, "|sqrt(eps)Epar|_delta")],
                 f"eps = {eps}")
    return [csv_path, gp, *snapshots.paths], {
        f"mass_drift_eps_{eps:g}": bool(np.max(np.abs(traj["mass"] - 1.0)) < 1e-12),
        f"positivity_eps_{eps:g}": bool(np.all(traj["min_rho"] > 0.0))}


def _prepare_eps_run(cfg: RunConfig) -> Callable:
    """The one eps run. Finish takes its Run out of `prepared` and hands
    it to evolve, so nothing else holds the initial state once it is
    stepped. It steps with `partial`, so a blow-up ends the run with the
    record up to the last finite state, which _write_eps_run writes."""
    eps = cfg.eps[0]
    prepared = [_eps_run(cfg, eps)]

    def finish(out: Path) -> tuple:
        snapshots = _Snapshots(eps, cfg.snapshot_every, out / "run")
        traj = evolve(epsilon.steps, [replace(prepared.pop(), on_sample=snapshots)],
                      partial=True)[0]
        return _write_eps_run(eps, traj, snapshots, out / "run")
    return finish


def _prepare_eps_sweep(cfg: RunConfig) -> Callable:
    """The per-eps time series, stepped in the sweep's eps ensemble, then
    the sweep's own tables."""
    kwargs = dict(cfg.experiment_params)
    kwargs.setdefault("horizon", min(cfg.horizon, 2.5))
    grid = cfg.make_grid()
    runs = [_eps_run(cfg, eps) for eps in cfg.eps]
    experiments.prepare_quasineutral_sweep(cfg.eps, grid=grid, extra_runs=runs,
                                           **kwargs)

    def finish(out: Path) -> tuple:
        snapshots = [_Snapshots(eps, cfg.snapshot_every, out / f"eps_{eps:g}")
                     for eps in cfg.eps]
        res = _streamed(snapshots, lambda: experiments.quasineutral_sweep(
            cfg.eps, grid=grid, extra_runs=[
                replace(r, on_sample=snaps) for r, snaps in zip(runs, snapshots)],
            **kwargs))
        return _write_eps_sweep(cfg.eps, snapshots, res, out)
    return finish


def _write_eps_sweep(eps_list, snapshots: list, res: experiments.SweepResult,
                     out: Path) -> tuple:
    """The files and inline checks of an eps sweep. A per-eps run that blew
    up keeps its record (see _write_eps_run) and the sweep's tables are
    still written; then the first such BlowUpError is raised, with every
    file as its `files`."""
    files, checks, blown = [], {}, None
    for eps, snaps, traj in zip(eps_list, snapshots, res.extra_trajectories):
        try:
            member_files, member_checks = _write_eps_run(eps, traj, snaps,
                                                         out / f"eps_{eps:g}")
        except BlowUpError as exc:
            blown, member_files, member_checks = blown or exc, exc.files, {}
        files += member_files
        checks.update(member_checks)

    csv_path = out / "convergence.csv"
    write_csv(csv_path,
              ["eps", "rho_error", "v_error_filtered", "v_error_raw",
               "residual", "mass_drift", "energy_drift"],
              ({"eps": e.eps, "rho_error": e.rho_error,
                "v_error_filtered": e.v_error_filtered,
                "v_error_raw": e.v_error_raw, "residual": e.residual,
                "mass_drift": e.mass_drift, "energy_drift": e.energy_drift}
               for e in res.entries))

    # the limit flow at the smallest eps's sampling over the horizon, with
    # the constraint-residual column, and the demodulated corrector table
    lim = res.limit_trajectory
    n = math.ceil(res.horizon / lim.dt) + 1
    lim_csv = out / "limit_timeseries.csv"
    write_csv(lim_csv, ["t", "mass", "constraint_residual"],
              ({"t": float(t), "mass": float(m), "constraint_residual": float(r)}
               for t, m, r in zip(lim.times[:n], lim["mass"], lim["residual"])))
    corr_csv = out / "correctors.csv"
    write_csv(corr_csv, ["t", "k_par", "re_eplus", "im_eplus", "residual"],
              corrector_rows(res.correctors))

    gp = out / "convergence.gp"
    gp.write_text("\n".join([
        "# gnuplot script", "set datafile separator ','",
        "set key autotitle columnhead", "set logscale xy",
        "set xlabel 'eps'", "set title 'quasineutral convergence'",
        "plot 'convergence.csv' using 1:2 with linespoints title 'rho error',"
        " 'convergence.csv' using 1:3 with linespoints title 'v error'",
    ]) + "\n")
    checks["rho_error_decreasing"] = res.strictly_decreasing("rho_error")
    checks["v_error_decreasing"] = res.strictly_decreasing("v_error_filtered")
    checks["residual_decreasing"] = res.strictly_decreasing("residual")
    files += [csv_path, lim_csv, corr_csv, gp]
    if blown is not None:
        blown.files = files
        raise blown
    return files, checks


def _prepare_contraction(cfg: RunConfig) -> Callable:
    kwargs = {"eps": cfg.eps[0], **cfg.experiment_params,
              "params": cfg.norm_params()}
    experiments.prepare_contraction_study(**kwargs)
    return lambda out: _write_contraction(experiments.contraction_study(**kwargs),
                                          out)


def _write_contraction(study: experiments.ContractionStudy, out: Path) -> tuple:
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "contraction.csv"
    write_csv(csv_path,
              ["n", "norm_rho_diff", "norm_w_diff", "norm_G_diff",
               "norm_E_diff", "ratio"],
              ({"n": r.n, "norm_rho_diff": r.d_rho, "norm_w_diff": r.d_w,
                "norm_G_diff": r.d_G, "norm_E_diff": r.d_E, "ratio": r.ratio}
               for r in study.rows))
    write_json_atomic(out / "contraction.json", {
        "eta": study.eta, "max_ratio": study.max_ratio,
        "sup_l2_vs_rk4": study.sup_l2_vs_rk4})
    return [csv_path, out / "contraction.json"], {
        "contraction_rate": study.max_ratio <= 0.5,
        "fixed_point_matches_rk4": study.sup_l2_vs_rk4 <= 1e-6}


def _prepare_growth(cfg: RunConfig) -> Callable:
    kwargs = {**cfg.experiment_params, "horizon": cfg.horizon, "seed": cfg.seed}
    twostream.prepare_growth_experiment(**kwargs)
    return lambda out: _write_growth(twostream.growth_experiment(**kwargs), out)


def _write_growth(res: twostream.GrowthResult, out: Path) -> tuple:
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "growth.csv"
    write_csv(csv_path,
              ["k", "re_sigma_lin", "im_sigma_lin", "sigma_meas", "r_squared"],
              ({"k": r.k, "re_sigma_lin": r.sigma_lin.real,
                "im_sigma_lin": r.sigma_lin.imag, "sigma_meas": r.sigma_meas,
                "r_squared": r.r_squared} for r in res.rows))
    within = [abs(r.sigma_meas - r.sigma_lin.real) <= 0.1 * abs(r.sigma_lin.real)
              for r in res.rows if r.sigma_lin.real > 1e-9]
    return [csv_path], {
        "growth_matches_linear_theory": bool(all(within)) if within else True,
        "growth_run_completed": not res.blew_up}


def _prepare_dichotomy(cfg: RunConfig) -> Callable:
    toymodel.prepare_dichotomy_experiment(cfg.eps, **cfg.experiment_params)
    return lambda out: _write_dichotomy(toymodel.dichotomy_experiment(
        cfg.eps, **cfg.experiment_params), out)


def _write_dichotomy(report: dict, out: Path) -> tuple:
    trajectories = report.pop("trajectories")
    out.mkdir(parents=True, exist_ok=True)
    write_json_atomic(out / "dichotomy.json", report)
    files = [out / "dichotomy.json"]
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
        files.append(path)
    return files, {
        "stable_branch_decreasing": report["stable_strictly_decreasing"],
        "unstable_branch_nondecreasing": report["unstable_nondecreasing"]}


class _Experiment(NamedTuple):
    # cfg -> finish: every check made and every state built, nothing
    # stepped; finish(out) steps, writes and returns (files written, checks)
    prepare: Callable
    function: Callable | None   # receives "experiment_params"
    supplied: tuple = ()  # the arguments of `function` its prepare step sets


_EXPERIMENTS = {
    "eps_run": _Experiment(_prepare_eps_run, None),
    "eps_sweep": _Experiment(_prepare_eps_sweep, experiments.quasineutral_sweep,
                             ("eps_list", "grid", "extra_runs")),
    "contraction": _Experiment(_prepare_contraction, experiments.contraction_study,
                               ("params",)),
    "growth": _Experiment(_prepare_growth, twostream.growth_experiment,
                          ("horizon", "seed")),
    "dichotomy": _Experiment(_prepare_dichotomy, toymodel.dichotomy_experiment,
                             ("eps_list",)),
}


def run(cfg: RunConfig, out_dir, reference_mode: bool = True) -> Manifest:
    """Run the experiment into `out_dir` and write its manifest: its
    prepare step, then its finish. A ConfigError (an unknown preset, a
    grid that cannot be built) or an AdmissibilityError (initial data that
    breaks the admissibility bound) propagates with no manifest written
    and no directory made. The prepare step raises every one of them but
    contraction's "no contracting eta found above 1e-8", which only the
    bisection's iterates can show; finish raises that one before it
    writes its first file. Every run is in one process with
    byte-identical outputs; `reference_mode` is accepted and ignored,
    because the benchmark worker (perfbench/worker.py) still passes it."""
    root = Path(out_dir)
    manifest = Manifest(config=_config_echo(cfg))
    start = time.perf_counter()
    finish = _EXPERIMENTS[cfg.experiment].prepare(cfg)
    try:
        files, manifest.checks = finish(root)
    except BlowUpError as exc:
        files = getattr(exc, "files", [])   # written before the blow-up
        manifest.blow_up = {"system": exc.system, "time": exc.last_time}
    manifest.files = [{"path": str(Path(f).relative_to(root)),
                       "bytes": Path(f).stat().st_size} for f in files]
    manifest.wall_time = time.perf_counter() - start
    record = {
        "config": manifest.config,
        "version": manifest.version,
        "wall_time_s": manifest.wall_time,
        "files": sorted(manifest.files, key=lambda f: f["path"]),
        "checks": manifest.checks,
        "passed": manifest.ok(),
    }
    if manifest.blow_up is not None:
        record["blow_up"] = manifest.blow_up
    root.mkdir(parents=True, exist_ok=True)
    write_json_atomic(root / "manifest.json", record)
    return manifest


def _config_echo(cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in _DEFAULTS}


def validate(cfg: RunConfig) -> dict:
    """`run` stopped before its first step: the experiment's prepare step,
    whose ConfigError or AdmissibilityError, the first one met, is a
    finding, plus a finding for each eps whose dt exceeds the oscillation
    resolution bound. Findings are reported, never raised."""
    findings = []
    try:
        _EXPERIMENTS[cfg.experiment].prepare(cfg)
    except AdmissibilityError as exc:
        findings.append(f"admissibility failure: {exc}")
    except ConfigError as exc:
        findings.append(str(exc))
    if cfg.experiment in ("eps_run", "eps_sweep"):
        for eps in cfg.eps:
            dt = cfg.policy_dt(eps)
            resolve = epsilon.dt_policy(eps, epsilon.MIN_SAMPLES_PER_PERIOD)
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

    try:
        manifest = run(cfg, args.out)
    except (ConfigError, AdmissibilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name, passed in manifest.checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    if manifest.blow_up is not None:
        print(f"blow-up: {manifest.blow_up['system']} state non-finite after "
              f"t = {manifest.blow_up['time']}")
    return 0 if manifest.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
