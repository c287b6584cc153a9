"""Time-series quadrature helpers and the shared time integrator.

Two tools used throughout the trajectory analysis:

* cumulative_integral: running integral of uniformly sampled data, fourth
  order, obtained by integrating the local cubic through four neighbouring
  samples on every interval (one-sided stencils at the ends);

* oscillatory convolutions int_0^t K(omega (t-s)) g(s) ds for K in
  {sin, cos}, evaluated at every sample time with a rotation recurrence
  and Filon-type local integrals: the cubic interpolant of g on each
  interval is integrated against the trigonometric kernel exactly, so the
  error is O(dt^4) in the sampling of g and independent of how fast the
  kernel oscillates. A plain trapezoid variant is kept for comparison.

Every time-stepped system (the eps system, its limit, the two-phase and
multi-phase reductions, corrector transport) advances with the one RK4
step here. All but corrector transport take it through `ensemble_step`,
the one place that knows the ensemble format: it stacks the members'
evolved fields on a leading axis of their band-layout arrays, hands the
first stage their collocation values when every member has them cached,
completes the result to the full layout and reports a blow-up per
member. Each system's `steps` adds only its tendency and the rebuilding
of its states, and runs through the one loop, `evolve`. It steps an
ensemble: a list of `Run`s of one system on one grid, each with its own
data, dt, step count, probes and optional `on_sample` hook, advanced
together by one call of the system's `steps` per iteration, and it
records only the probes each caller names into that run's `Trajectory`.
A member holds only the state it steps: the hook, not the record, is
where a caller puts what must outlive a sample (a snapshot on disk, say),
and a run handed to `evolve` frees its initial state once it is stepped.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError
from .spectral import SpectralField, check_band_limited, full_coeffs

# weights of the cubic through 4 samples on the first interval (nodes
# 0 .. 3), an interior one j (nodes j-1 .. j+2) and the last (nodes
# n-4 .. n-1): its integral over the interval, times 1/dt, ...
_W_INTEGRAL = (np.array([9.0, 19.0, -5.0, 1.0]) / 24.0,
               np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0,
               np.array([1.0, -5.0, 19.0, 9.0]) / 24.0)
# ... and its value at the interval midpoint
_W_MIDPOINT = (np.array([5.0, 15.0, -5.0, 1.0]) / 16.0,
               np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0,
               np.array([1.0, -5.0, 15.0, 5.0]) / 16.0)


def rk4_step(f, y: tuple, dt) -> tuple:
    """One classical RK4 step of dy/dt = f(y, c).

    The state y is a tuple of arrays or fields (every system steps
    coefficient arrays: band-layout ones for the real systems, full-layout
    ones for the complex correctors), and f returns the tuple of their
    tendencies; c is the stage's fraction of the step (0, 1/2, 1/2, 1),
    for tendencies with an explicitly time-dependent coefficient or with
    values cached for the first stage. `dt` is a number, or one per member
    of an ensemble stacked on the leading axis of every array of y.
    """
    dt = [dt if np.ndim(dt) == 0 else np.reshape(dt, (-1,) + (1,) * (a.ndim - 1))
          for a in y]
    k1 = f(y, 0.0)
    k2 = f(tuple(a + 0.5 * h * k for a, h, k in zip(y, dt, k1)), 0.5)
    k3 = f(tuple(a + 0.5 * h * k for a, h, k in zip(y, dt, k2)), 0.5)
    k4 = f(tuple(a + h * k for a, h, k in zip(y, dt, k3)), 1.0)
    return tuple(a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s)
                 for a, h, p, q, r, s in zip(y, dt, k1, k2, k3, k4))


def ensemble_step(tendency, states: list, dts: list, fields, system: str,
                  cached: int = 0) -> tuple:
    """The RK4 step of an ensemble of states of one system on one grid, one
    dt per member: the mechanics every system's stacked step shares.

    fields(state) lists the real fields a state evolves; a tuple of fields
    (phases) stands for one array with a phase axis. Each is stacked over
    the members on a new leading axis of its band-layout coefficients (see
    spectral) and advanced by rk4_step with tendency(y, values):
    values is, at the first stage only, the stacked collocation values of
    the first `cached` fields when every member has them cached (by a
    probe that read them), else None, and the tendency makes them in its
    own stacked inverse. Returns the new arrays completed to the full layout,
    and per member None or the BlowUpError of a non-finite result carrying
    the state its step started from.
    """
    per_field = list(zip(*(fields(st) for st in states)))   # its members

    def stack(parts, attr):
        arrays = [np.stack([getattr(f, attr) for f in p]) if isinstance(p, tuple)
                  else getattr(p, attr) for p in parts]
        return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

    firsts = [f for parts in per_field[:cached] for p in parts
              for f in (p if isinstance(p, tuple) else (p,))]
    values = tuple(stack(parts, "_values") for parts in per_field[:cached]) \
        if all("_values" in vars(f) for f in firsts) else None
    y = rk4_step(lambda y, c: tendency(y, values if c == 0.0 else None),
                 tuple(stack(parts, "band_coeffs") for parts in per_field), dts)
    grids = [(p[0] if isinstance(p, tuple) else p).grid for p, *_ in per_field]
    y = tuple(full_coeffs(grid, a) for grid, a in zip(grids, y))
    finite = np.logical_and.reduce(
        [np.isfinite(a).reshape(len(states), -1).all(axis=1) for a in y])
    return y, [None if ok else BlowUpError(
        f"non-finite {system} state at t = {st.t + dt}", last_state=st,
        last_time=st.t, system=system) for ok, st, dt in zip(finite, states, dts)]


def check_band(state) -> None:
    """Raise InvariantError if a real field of `state` has a nonzero
    coefficient outside the 2/3-rule band, which a step would drop
    silently (see ensemble_step). A state is a dataclass whose fields, or
    tuples of fields, are the ones it evolves; anything else holds none.
    Stepping makes band-limited states, so a state is checked where it
    enters stepping (solo, evolve), never per step."""
    if not dataclasses.is_dataclass(state):
        return
    for entry in dataclasses.fields(state):
        value = getattr(state, entry.name)
        for field in value if isinstance(value, tuple) else (value,):
            if isinstance(field, SpectralField):
                check_band_limited(field, f"{type(state).__name__}.{entry.name}")


def solo(steps, state, dt: float):
    """One step of one state through the ensemble step `steps` (the state
    checked by check_band first); a blow-up raises its BlowUpError."""
    check_band(state)
    (result,) = steps([state], [dt])
    if isinstance(result, BlowUpError):
        raise result
    return result


@dataclass
class Trajectory:
    """Samples of one run, at t = 0 and after every completed step: their
    times, one series per probe (the probe's values stacked along time),
    the last state reached, and whether every requested step completed
    (False only when a blow-up ended the run)."""

    times: np.ndarray
    series: dict
    final_state: object
    complete: bool
    dt: float

    def __getitem__(self, name: str):
        return self.series[name]

    def blow_up(self, system: str) -> BlowUpError:
        """The BlowUpError of a run of `system` that a blow-up ended at its
        last finite state (complete False, see evolve's `partial`)."""
        last = self.final_state
        return BlowUpError(f"non-finite {system} state after t = {last.t}",
                           last_state=last, last_time=last.t, system=system)


@dataclass
class Run:
    """One member of an ensemble: initial state, time step, step count, the
    probes (functions of the state) to sample, an optional
    `stop_when(state)`, checked after each sample, that ends it early, and
    an optional `on_sample(index, state)`, called after the probes at each
    sample (index 0 at t = 0): the run's one side-effect hook (writing
    snapshots, say), where probes stay pure functions of the state."""

    state: object
    dt: float
    n_steps: int
    probes: dict
    stop_when: object = None
    on_sample: object = None


def _stacked(values: list):
    """Numbers and arrays stack along a leading time axis; other values
    (states, say) stay a list."""
    if isinstance(values[0], (numbers.Number, np.ndarray, list)):
        return np.array(values)
    return values


class _Member:
    """A run in progress: its settings, its state, steps taken and samples.
    It keeps the settings of its Run, not the Run, so once it has stepped
    nothing of it holds the initial state."""

    def __init__(self, run: Run):
        self.dt, self.n_steps, self.probes = run.dt, run.n_steps, run.probes
        self.stop_when, self.on_sample = run.stop_when, run.on_sample
        self.state, self.taken, self.complete = run.state, 0, True
        self.times, self.samples = [], {name: [] for name in run.probes}

    def sample(self) -> None:
        self.times.append(self.state.t)
        for name, probe in self.probes.items():
            self.samples[name].append(probe(self.state))
        if self.on_sample is not None:
            self.on_sample(self.taken, self.state)

    def running(self) -> bool:
        stop = self.stop_when
        return self.complete and self.taken < self.n_steps \
            and not (self.taken and stop is not None and stop(self.state))

    def advance(self, result, partial: bool) -> None:
        """Take one step's result: the new state, or the BlowUpError that
        ends the run (raised unless `partial`)."""
        if isinstance(result, BlowUpError):
            if not partial:
                raise result
            self.complete = False
            return
        self.state, self.taken = result, self.taken + 1
        self.sample()

    def trajectory(self) -> Trajectory:
        return Trajectory(times=np.array(self.times),
                          series={k: _stacked(v) for k, v in self.samples.items()},
                          final_state=self.state, complete=self.complete,
                          dt=self.dt)


def evolve(steps, runs: list, partial: bool = False) -> list:
    """The one time loop: advance an ensemble of `Run`s of one system on
    one grid, sampling each run's probes, then its on_sample hook, on its
    own state at t = 0 and after each of its steps, and return their
    Trajectories in order.

    Each iteration advances every unfinished run by its own dt through one
    call of steps(states, dts), the system's stacked step, which returns
    per member the new state or the BlowUpError of a non-finite one. A run
    leaves the stack after n_steps steps, when its stop_when fires, or on
    blow-up: that BlowUpError propagates, unless `partial`, where the run
    ends at its last finite state with complete False; no sample follows a
    blow-up. Each member's record is the one it would get alone. Each
    run's state is checked by check_band before anything is sampled or
    stepped. Only the members hold what the loop needs, and `runs` is let
    go before the first step: so when the caller hands its runs over (keeps
    no reference to them), each initial state is freed once it is stepped.
    """
    members = [_Member(run) for run in runs]
    del runs
    for m in members:
        check_band(m.state)
    for m in members:
        m.sample()
    live = [m for m in members if m.running()]
    while live:
        results = steps([m.state for m in live], [m.dt for m in live])
        for m, result in zip(live, results):
            m.advance(result, partial)
        live = [m for m in live if m.running()]
    return [m.trajectory() for m in members]


def states_at(samples):
    """A probe that keeps the state at the chosen sample indices (0 is the
    sample at t = 0) and records None at every other sample, so a run holds
    only the states its caller uses. Each run needs a probe of its own."""
    index = itertools.count()
    return lambda st: st if next(index) in samples else None


def _check_series(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if y.shape[0] < 4:
        raise ConfigError("need at least 4 samples along axis 0")
    return y


def _per_interval(y: np.ndarray, weights: tuple) -> np.ndarray:
    """The weights (first, interior, last) of a cubic stencil (see
    _W_INTEGRAL) applied on each interval; shape (n-1, ...)."""
    first, interior, last = weights
    y = _check_series(y)
    out = np.empty((y.shape[0] - 1,) + y.shape[1:], dtype=y.dtype)
    out[0] = np.tensordot(first, y[:4], axes=(0, 0))
    out[-1] = np.tensordot(last, y[-4:], axes=(0, 0))
    stack = np.stack([y[i: i + y.shape[0] - 3] for i in range(4)])
    out[1:-1] = np.tensordot(interior, stack, axes=(0, 0))
    return out


def interval_integrals(y: np.ndarray, dt: float) -> np.ndarray:
    """Integral of the local cubic over each interval; shape (n-1, ...)."""
    return _per_interval(y, _W_INTEGRAL) * dt


def cumulative_integral(y: np.ndarray, dt: float) -> np.ndarray:
    """Running integral along axis 0, zero at the first sample."""
    y = _check_series(y)
    out = np.zeros_like(np.asarray(y, dtype=np.result_type(y, float)))
    np.cumsum(interval_integrals(y, dt), axis=0, out=out[1:])
    return out


def midpoints(y: np.ndarray) -> np.ndarray:
    """Cubic-interpolated values at interval midpoints; shape (n-1, ...)."""
    return _per_interval(y, _W_MIDPOINT)


def _trig_monomial_moments(theta: float, nmax: int = 3):
    """m_n^s = int_0^1 w^n sin(theta w) dw and the cosine analogue.

    Closed forms suffer catastrophic cancellation for small theta, where a
    rapidly converging series is used instead.
    """
    if abs(theta) < 0.05:
        ms, mc = [], []
        for n in range(nmax + 1):
            s = sum((-1) ** m * theta ** (2 * m + 1) /
                    (math.factorial(2 * m + 1) * (n + 2 * m + 2)) for m in range(8))
            c = sum((-1) ** m * theta ** (2 * m) /
                    (math.factorial(2 * m) * (n + 2 * m + 1)) for m in range(8))
            ms.append(s)
            mc.append(c)
        return np.array(ms), np.array(mc)
    st, ct = np.sin(theta), np.cos(theta)
    t = theta
    ms = np.array([
        (1 - ct) / t,
        (st - t * ct) / t**2,
        (2 * t * st - (t**2 - 2) * ct - 2) / t**3,
        ((3 * t**2 - 6) * st - (t**3 - 6 * t) * ct) / t**4,
    ])
    mc = np.array([
        st / t,
        (ct + t * st - 1) / t**2,
        ((t**2 - 2) * st + 2 * t * ct) / t**3,
        ((t**3 - 6 * t) * st + (3 * t**2 - 6) * ct + 6) / t**4,
    ])
    return ms, mc


# Lagrange cubics on stencil offsets, as monomial coefficient rows:
# p_i(u) = sum_n _L[stencil][i, n] u^n reproduces data at the offsets.
def _lagrange_monomial(offsets):
    V = np.vander(np.asarray(offsets, dtype=float), 4, increasing=True)
    return np.linalg.inv(V).T  # row i: monomial coeffs of basis cubic i


_L_INTERIOR = _lagrange_monomial([-1.0, 0.0, 1.0, 2.0])
_L_FIRST = _lagrange_monomial([0.0, 1.0, 2.0, 3.0])
_L_LAST = _lagrange_monomial([-2.0, -1.0, 0.0, 1.0])


def _filon_weights(theta: float):
    """Weight triples (first, interior, last), as for _per_interval, of the
    sine kernel and of the cosine kernel: per interval

        int_0^1 p(u) sin(theta (1-u)) du = w_sin . y_stencil

    for the cubic p through the stencil samples (and the cosine kernel
    alike). Kernel argument runs backwards across the interval, matching
    K(omega (t_{m+1} - s)).
    """
    ms, mc = _trig_monomial_moments(theta)
    # expand sin(theta(1-u)) = sin th cos(th u) ... instead integrate in w=1-u:
    # int_0^1 p(u) sin(theta(1-u)) du = int_0^1 p(1-w) sin(theta w) dw.
    # Build monomial moments of q(w) = p(1-w): binomial re-expansion.
    binom = np.array([[math.comb(n, j) * (-1.0) ** j for j in range(4)]
                      for n in range(4)])
    # q coefficients: q_j = sum_n p_n * C(n,j) (-1)^j  (from (1-w)^n)
    Q = [L @ binom for L in (_L_FIRST, _L_INTERIOR, _L_LAST)]
    return tuple(q @ ms for q in Q), tuple(q @ mc for q in Q)


def oscillatory_convolutions(g: np.ndarray, dt: float, omega: float,
                             rule: str = "filon"):
    """S[m] = int_0^{t_m} sin(omega (t_m - s)) g(s) ds and the cosine
    analogue C[m], for uniformly sampled g along axis 0.
    """
    g = _check_series(np.asarray(g, dtype=complex))
    theta = omega * dt
    ct, st = np.cos(theta), np.sin(theta)
    # the local integrals over each interval [t_j, t_{j+1}]
    if rule == "filon":
        ws, wc = _filon_weights(theta)
        ls, lc = dt * _per_interval(g, ws), dt * _per_interval(g, wc)
    elif rule == "trapezoid":
        # endpoint values of the full integrand
        ls = 0.5 * dt * (st * g[:-1])
        lc = 0.5 * dt * (ct * g[:-1] + g[1:])
    else:
        raise ConfigError(f"unknown quadrature rule {rule!r}")

    S = np.zeros_like(g)
    C = np.zeros_like(g)
    for j in range(g.shape[0] - 1):
        S[j + 1] = ct * S[j] + st * C[j] + ls[j]
        C[j + 1] = -st * S[j] + ct * C[j] + lc[j]
    return S, C
