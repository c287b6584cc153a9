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
step here; all but corrector transport then apply the one blow-up check
and run through the one loop, `evolve`, which records only the probes its
caller names into a `Trajectory`.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError

# integral over one interval of the cubic through 4 samples, times 1/dt
_W_INTERIOR = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0     # nodes j-1 .. j+2
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0          # nodes 0 .. 3
_W_LAST = _W_FIRST[::-1].copy()                             # nodes n-4 .. n-1

# value of the cubic through 4 samples at the interval midpoint
_W_MID_INTERIOR = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_W_MID_FIRST = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_W_MID_LAST = _W_MID_FIRST[::-1].copy()


def rk4_step(f, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of dy/dt = f(y, c).

    The state y is a tuple of arrays or fields, and f returns the tuple of
    their tendencies; c is the stage's fraction of the step (0, 1/2, 1/2,
    1), for tendencies with an explicitly time-dependent coefficient.
    """
    k1 = f(y, 0.0)
    k2 = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k1)), 0.5)
    k3 = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k2)), 0.5)
    k4 = f(tuple(a + dt * k for a, k in zip(y, k3)), 1.0)
    return tuple(a + (dt / 6.0) * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4))


def check_finite(y: tuple, last_state, dt: float, system: str) -> None:
    """Raise BlowUpError carrying `last_state` (the state a step of length
    dt started from) unless every field of y is finite."""
    if not all(np.all(np.isfinite(f.coeffs)) for f in y):
        raise BlowUpError(f"non-finite {system} state at t = {last_state.t + dt}",
                          last_state=last_state, last_time=last_state.t)


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


def _stacked(values: list):
    """Numbers and arrays stack along a leading time axis; other values
    (states, say) stay a list."""
    if isinstance(values[0], (numbers.Number, np.ndarray, list)):
        return np.array(values)
    return values


def evolve(step, state, dt: float, n_steps: int, probes: dict,
           stop_when=None, partial: bool = False) -> Trajectory:
    """Advance `state` by n_steps calls of step(state, dt), sampling every
    probe (a function of the state) at t = 0 and after each step.

    `stop_when(state)`, checked after each sample, may end the run early.
    A BlowUpError from the step propagates, unless `partial`: then the run
    ends at the last finite state with complete False.
    """
    samples = {name: [] for name in probes}
    times = []

    def record(st):
        times.append(st.t)
        for name, probe in probes.items():
            samples[name].append(probe(st))

    record(state)
    complete = True
    for _ in range(n_steps):
        try:
            state = step(state, dt)
        except BlowUpError:
            if not partial:
                raise
            complete = False
            break
        record(state)
        if stop_when is not None and stop_when(state):
            break
    return Trajectory(times=np.array(times),
                      series={k: _stacked(v) for k, v in samples.items()},
                      final_state=state, complete=complete, dt=dt)


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


def interval_integrals(y: np.ndarray, dt: float) -> np.ndarray:
    """Integral of the local cubic over each interval; shape (n-1, ...)."""
    y = _check_series(y)
    out = np.empty((y.shape[0] - 1,) + y.shape[1:], dtype=y.dtype)
    out[0] = np.tensordot(_W_FIRST, y[:4], axes=(0, 0))
    out[-1] = np.tensordot(_W_LAST, y[-4:], axes=(0, 0))
    if y.shape[0] > 4:
        stack = np.stack([y[i: i + y.shape[0] - 3] for i in range(4)])
        out[1:-1] = np.tensordot(_W_INTERIOR, stack, axes=(0, 0))
    return out * dt


def cumulative_integral(y: np.ndarray, dt: float) -> np.ndarray:
    """Running integral along axis 0, zero at the first sample."""
    y = _check_series(y)
    out = np.zeros_like(np.asarray(y, dtype=np.result_type(y, float)))
    np.cumsum(interval_integrals(y, dt), axis=0, out=out[1:])
    return out


def midpoints(y: np.ndarray) -> np.ndarray:
    """Cubic-interpolated values at interval midpoints; shape (n-1, ...)."""
    y = _check_series(y)
    out = np.empty((y.shape[0] - 1,) + y.shape[1:], dtype=y.dtype)
    out[0] = np.tensordot(_W_MID_FIRST, y[:4], axes=(0, 0))
    out[-1] = np.tensordot(_W_MID_LAST, y[-4:], axes=(0, 0))
    if y.shape[0] > 4:
        stack = np.stack([y[i: i + y.shape[0] - 3] for i in range(4)])
        out[1:-1] = np.tensordot(_W_MID_INTERIOR, stack, axes=(0, 0))
    return out


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
    """Per-interval weights so that

        int_0^1 p(u) sin(theta (1-u)) du = w_sin . y_stencil

    for the cubic p through the stencil samples (and the cosine kernel
    alike). Kernel argument runs backwards across the interval, matching
    K(omega (t_{m+1} - s)).
    """
    ms, mc = _trig_monomial_moments(theta)
    # expand sin(theta(1-u)) = sin th cos(th u) ... instead integrate in w=1-u:
    # int_0^1 p(u) sin(theta(1-u)) du = int_0^1 p(1-w) sin(theta w) dw.
    # Build monomial moments of q(w) = p(1-w): binomial re-expansion.
    binom = np.zeros((4, 4))
    for n in range(4):
        for j in range(n + 1):
            binom[n, j] = math.comb(n, j) * (-1.0) ** j
    out = {}
    for name, L in (("interior", _L_INTERIOR), ("first", _L_FIRST), ("last", _L_LAST)):
        # q coefficients: q_j = sum_n p_n * C(n,j) (-1)^j  (from (1-w)^n)
        Q = L @ binom
        out[name] = (Q @ ms, Q @ mc)
    return out


def oscillatory_convolutions(g: np.ndarray, dt: float, omega: float,
                             rule: str = "filon"):
    """S[m] = int_0^{t_m} sin(omega (t_m - s)) g(s) ds and the cosine
    analogue C[m], for uniformly sampled g along axis 0.
    """
    g = _check_series(np.asarray(g, dtype=complex))
    n = g.shape[0]
    theta = omega * dt
    if rule == "filon":
        weights = _filon_weights(theta)

        def local(j):
            if j == 0:
                ws, wc = weights["first"]
                stencil = g[0:4]
            elif j == n - 2:
                ws, wc = weights["last"]
                stencil = g[n - 4: n]
            else:
                ws, wc = weights["interior"]
                stencil = g[j - 1: j + 3]
            ls = dt * np.tensordot(ws, stencil, axes=(0, 0))
            lc = dt * np.tensordot(wc, stencil, axes=(0, 0))
            return ls, lc
    elif rule == "trapezoid":
        st, ct = np.sin(theta), np.cos(theta)

        def local(j):
            # endpoint values of the full integrand on [t_j, t_{j+1}]
            ls = 0.5 * dt * (st * g[j] + 0.0 * g[j + 1])
            lc = 0.5 * dt * (ct * g[j] + 1.0 * g[j + 1])
            return ls, lc
    else:
        raise ConfigError(f"unknown quadrature rule {rule!r}")

    S = np.zeros_like(g)
    C = np.zeros_like(g)
    ct, st = np.cos(theta), np.sin(theta)
    for j in range(n - 1):
        ls, lc = local(j)
        S[j + 1] = ct * S[j] + st * C[j] + ls
        C[j + 1] = -st * S[j] + ct * C[j] + lc
    return S, C
