"""Per-layer tracing for the traced benchmark run.

`Tracer.install` wraps the registered public functions of every driftfluid
module, in every module namespace that bound them (`from .spectral import
product` makes `epsilon.product` a second name for the same function), and
counts numpy.fft transforms and `SpectralField` constructions. The modules
themselves are not edited; `Tracer.uninstall` restores every name.

Two kinds of boundary:

* span: a function of a layer above the kernel. Each call is kept as a span
  (id, name, start, end, parent span id, run id); its self time is its
  duration minus the durations of the spans it caused.
* inner: the `spectral` kernel layer. Calls are counted and timed, but no
  span is kept and their time stays in the enclosing span's self time, so
  tracing the hottest boundaries does not swamp the workload. numpy.fft
  entry points and `SpectralField` constructions are counted only.

Importing this module patches nothing.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time

MARKER = "_perfbench_wrapper"

# One registry of wrapped public functions per module. A name a later
# change removes or renames is reported absent, never looked up blindly.
REGISTRY = {
    "spectral": ("zeros", "constant", "from_modes", "forward", "inverse",
                 "derivative", "gradient", "product", "dealias",
                 "perp_average", "embed_parallel", "translate", "mean",
                 "inner", "l2_norm", "analytic_norm", "gradient_norm",
                 "second_derivative_norm", "shrinking_norm"),
    "poisson": ("solve_phi", "solve_V", "perp_field", "parallel_force",
                "solve_fields"),
    "epsilon": ("make_eps_state", "dt_policy", "oscillation_period",
                "tendencies", "rhs", "wave_source", "eps_dtE0", "step",
                "energy", "diagnostics", "run"),
    "oscillations": ("duhamel_sqrt_eps_E", "duhamel_G", "decompose",
                     "extract_correctors", "corrector_initial_data",
                     "advect_correctors", "oscillation_residual",
                     "reconstruct_W", "analyze", "corrector_rows"),
    "quadrature": ("interval_integrals", "cumulative_integral", "midpoints",
                   "oscillatory_convolutions"),
    "limit": ("pressure_gradient", "constraint_residuals", "project_initial",
              "tendencies", "rhs", "step", "run", "shear_flow",
              "two_slab_indicator", "embed_two_phase", "restrict_two_phase"),
    "ck": ("time_grid", "initialize", "iterate", "iterate_difference",
           "contraction_report", "run_scheme", "max_ratio", "bisect_eta"),
    "twostream": ("make_two_phase", "pressure_gradient",
                  "momentum_flux_residual", "tendencies", "step", "run",
                  "symbol_matrix", "linear_growth", "max_growth_rate",
                  "decay_profile", "seeded_state", "perturbation_norm",
                  "mode_matched_points", "growth_experiment",
                  "survival_time"),
    "toymodel": ("make_multi_phase", "total_density", "solve_potential",
                 "electric_field", "tendencies", "step", "energy",
                 "relative_entropy", "run", "dichotomy_data",
                 "dichotomy_experiment"),
    "experiments": ("matched_well_prepared_data", "quasineutral_sweep",
                    "filtering_sweep", "contraction_study"),
    "specio": ("write_spec", "read_spec", "format_float", "write_csv",
               "write_json_atomic"),
    "cli": ("run", "validate", "main"),
    "presets": ("build", "equilibrium", "single_mode", "shear", "two_stream",
                "random_band"),
}
INNER_MODULES = ("spectral",)

# numpy.fft entry points by the side that is real: neither, input, output
FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_REAL_IN = ("rfft", "rfft2", "rfftn", "ihfft")
FFT_REAL_OUT = ("irfft", "irfft2", "irfftn", "hfft")
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")


class Stat:
    __slots__ = ("calls", "total", "self_time", "ffts", "allocs", "bytes",
                 "steps")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.ffts = 0
        self.allocs = 0
        self.bytes = 0
        self.steps = 0


def _transform_size(shape, name, args, kwargs) -> int:
    """Points along the transformed axes of the real-space array; the axis
    argument is the third positional one of every numpy.fft entry point."""
    if name in FFT_1D:
        axes = (args[2] if len(args) > 2 else kwargs.get("axis", -1),)
    else:
        axes = args[2] if len(args) > 2 else kwargs.get("axes")
        if axes is None:
            axes = (-2, -1) if name in FFT_2D else range(len(shape))
    return math.prod(shape[a] for a in axes) if shape else 1


def _package_modules(package: str) -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def find_wrappers(package: str = "driftfluid") -> list[str]:
    """Names in the package's modules and numpy.fft that hold a wrapper."""
    found = []
    mods = _package_modules(package)
    fft_mod = sys.modules.get("numpy.fft")
    if fft_mod is not None:
        mods.append(fft_mod)
    for mod in mods:
        for attr, obj in vars(mod).items():
            if getattr(obj, MARKER, False):
                found.append(f"{mod.__name__}.{attr}")
    cls = getattr(sys.modules.get(package + ".spectral"), "SpectralField", None)
    if cls is not None and getattr(cls.__init__, MARKER, False):
        found.append(f"{package}.spectral.SpectralField.__init__")
    return found


class Tracer:
    """Spans and counters of one traced run; state lives on the instance."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.step_seconds: dict[str, list[float]] = {}
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_flop = 0.0
        self.fft_bytes = 0.0
        self.allocs = 0
        self.run_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self, package: str = "driftfluid") -> None:
        import numpy.fft

        modules = {}
        for name in REGISTRY:
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError:
                modules[name] = None
        wrappers = {}   # id(original) -> wrapper
        for mod_name, names in REGISTRY.items():
            for fn_name in names:
                orig = getattr(modules[mod_name], fn_name, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrappers[id(orig)] = self._wrap(f"{mod_name}.{fn_name}", orig,
                                                inner=mod_name in INNER_MODULES)
        for ns in _package_modules(package):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        for name in FFT_COMPLEX + FFT_REAL_IN + FFT_REAL_OUT:
            orig = getattr(numpy.fft, name, None)
            if callable(orig):
                self._patch(numpy.fft, name, self._wrap_fft(name, orig))
        cls = getattr(modules["spectral"], "SpectralField", None)
        if cls is None:
            self.absent.append("spectral.SpectralField")
        else:
            self._patch(cls, "__init__", self._wrap_init(cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers -----------------------------------------------------
    def _wrap(self, name: str, fn, inner: bool):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if inner:
                sid = parent[4] if parent else -1
            else:
                sid = tracer._next_span
                tracer._next_span += 1
            # [span child time, inner child time, ffts, allocs, span id]
            frame = [0.0, 0.0, tracer.fft_calls, tracer.allocs, sid]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.ffts += tracer.fft_calls - frame[2]
                stat.allocs += tracer.allocs - frame[3]
                if inner:
                    stat.self_time += dur - frame[0] - frame[1]
                    if parent:
                        parent[1] += dur
                else:
                    stat.self_time += dur - frame[0]
                    if parent:
                        parent[0] += dur
                    spans.append((sid, name, start, end,
                                  parent[4] if parent else -1, tracer.run_id))
                if done and after is not None:
                    after(tracer, stat, args, kwargs, dur)

        setattr(wrapper, MARKER, True)
        return wrapper

    def _wrap_fft(self, name: str, fn):
        tracer = self
        complex_ = name in FFT_COMPLEX
        real_out = name in FFT_REAL_OUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            real_side = out if (complex_ or real_out) else \
                (args[0] if args else kwargs["a"])
            shape = getattr(real_side, "shape", ())
            points = math.prod(shape)
            n = max(_transform_size(shape, name, args, kwargs), 1)
            scale = 1.0 if complex_ else 0.5
            tracer.fft_calls += 1
            tracer.fft_points += points
            tracer.fft_flop += scale * 5.0 * points * math.log2(n)
            tracer.fft_bytes += scale * 32.0 * points
            return out

        setattr(wrapper, MARKER, True)
        return wrapper

    def _wrap_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            tracer.allocs += 1
            init(obj, *args, **kwargs)

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- results ------------------------------------------------------
    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "functions": {name: {"calls": s.calls, "total_s": s.total,
                                 "self_s": s.self_time, "ffts": s.ffts,
                                 "allocs": s.allocs, "bytes": s.bytes}
                          for name, s in sorted(self.stats.items()) if s.calls},
            "fft": {"calls": self.fft_calls, "points": self.fft_points,
                    "flop_computed": self.fft_flop,
                    "bytes_computed": self.fft_bytes},
            "field_allocs": self.allocs,
            "absent": self.absent,
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
        }

    def layer_metrics(self) -> dict:
        """{metric: (value, unit)} for PER_LAYER; metrics of absent functions
        are left out."""
        out = {}
        for name, unit, needs, value in PER_LAYER:
            if any(n in self.absent for n in needs):
                continue
            out[name] = (value(self), unit)
        return out


def _after_file(tracer, stat, args, kwargs, dur):
    path = args[0] if args else kwargs.get("path")
    stat.bytes += os.path.getsize(path)


def _after_step(tracer, stat, args, kwargs, dur):
    state = args[0] if args else kwargs["state"]
    key = "x".join(str(n) for n in state.rho.grid.shape)
    tracer.step_seconds.setdefault(key, []).append(dur)


def _after_run(tracer, stat, args, kwargs, dur):
    stat.steps += args[2] if len(args) > 2 else kwargs["n_steps"]


_AFTER = {
    "specio.write_spec": _after_file,
    "specio.write_csv": _after_file,
    "epsilon.step": _after_step,
    "epsilon.run": _after_run,
}


def _stat(tr: Tracer, name: str) -> Stat:
    return tr.stats.get(name) or Stat()


def _calls(name):
    return (f"{name}.calls", "count", (name,), lambda tr: _stat(tr, name).calls)


def _self(name):
    return (f"{name}.self_s", "s", (name,), lambda tr: _stat(tr, name).self_time)


def _total(name):
    return (f"{name}.s", "s", (name,), lambda tr: _stat(tr, name).total)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _step_us(shape):
    def value(tr):
        durs = tr.step_seconds.get(shape)
        return 1e6 * statistics.median(durs) if durs else 0.0
    return (f"epsilon.step.us.{shape}", "us", ("epsilon.step",), value)


# (metric, unit, registered functions it needs, value)
PER_LAYER = [
    ("spectral.fft.calls", "count", (), lambda tr: tr.fft_calls),
    ("spectral.fft.points", "count", (), lambda tr: tr.fft_points),
    ("spectral.fft.flop_computed", "flop", (), lambda tr: tr.fft_flop),
    ("spectral.fft.bytes_computed", "B", (), lambda tr: tr.fft_bytes),
    ("spectral.field.allocs", "count", ("spectral.SpectralField",),
     lambda tr: tr.allocs),
    _calls("spectral.product"), _self("spectral.product"),
    _calls("spectral.shrinking_norm"), _self("spectral.shrinking_norm"),
    _calls("spectral.analytic_norm"), _calls("spectral.gradient_norm"),
    _calls("poisson.solve_fields"), _self("poisson.solve_fields"),
    _calls("epsilon.step"), _self("epsilon.step"),
    _step_us("4x4x16"), _step_us("4x4x8"), _step_us("32x32x64"),
    _calls("epsilon.tendencies"),
    ("epsilon.fft_per_step", "count", ("epsilon.step",),
     lambda tr: _ratio(_stat(tr, "epsilon.step").ffts,
                       _stat(tr, "epsilon.step").calls)),
    ("epsilon.allocs_per_step", "count", ("epsilon.step",),
     lambda tr: _ratio(_stat(tr, "epsilon.step").allocs,
                       _stat(tr, "epsilon.step").calls)),
    _calls("epsilon.run"),
    ("epsilon.steps.total", "count", ("epsilon.run",),
     lambda tr: _stat(tr, "epsilon.run").steps),
    ("epsilon.record.self_s", "s", ("epsilon.run",),
     lambda tr: _stat(tr, "epsilon.run").self_time),
    ("epsilon.record.share", "ratio", ("epsilon.run",),
     lambda tr: _ratio(_stat(tr, "epsilon.run").self_time,
                       _stat(tr, "epsilon.run").total)),
    _self("epsilon.wave_source"), _self("epsilon.energy"),
    _self("epsilon.diagnostics"),
    _calls("limit.step"), _self("limit.step"), _calls("limit.run"),
    _self("oscillations.analyze"), _self("oscillations.decompose"),
    _self("oscillations.advect_correctors"),
    _calls("ck.iterate"), _self("ck.iterate"),
    _calls("ck.iterate_difference"), _self("ck.iterate_difference"),
    _calls("ck.run_scheme"),
    ("ck.diff_per_iterate", "ratio", ("ck.iterate", "ck.iterate_difference"),
     lambda tr: _ratio(_stat(tr, "ck.iterate_difference").calls,
                       _stat(tr, "ck.iterate").calls)),
    _calls("twostream.step"), _self("twostream.step"),
    _calls("toymodel.step"), _self("toymodel.step"),
    _self("toymodel.relative_entropy"),
    ("specio.write_spec.bytes", "B", ("specio.write_spec",),
     lambda tr: _stat(tr, "specio.write_spec").bytes),
    _self("specio.write_spec"),
    ("specio.write_csv.bytes", "B", ("specio.write_csv",),
     lambda tr: _stat(tr, "specio.write_csv").bytes),
    _self("specio.write_csv"),
    _total("presets.build"), _total("epsilon.make_eps_state"),
    _total("cli.validate"),
    _total("experiments.quasineutral_sweep"),
    _total("experiments.contraction_study"), _total("cli.run"),
]
