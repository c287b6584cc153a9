"""Two-phase counter-streaming reduction and its growth-rate analysis.

The two-phase system on the parallel circle,

    d_t rho_a + d_par(v_a rho_a) = 0,      a = 1, 2,    rho_1 + rho_2 = 1,
    d_t v_a  + v_a d_par v_a = -d_par p,

closes exactly like the full limit system: the volume constraint forces
d_par(rho_1 v_1 + rho_2 v_2) = 0, and

    -d_par p = d_par(rho_1 v_1^2 + rho_2 v_2^2)

keeps that flux constant in time. Only (rho_1, v_1, v_2) are evolved;
rho_2 = 1 - rho_1 is implied, so the mass constraint is exact by
construction and the momentum flux residual is monitored.

Linearised about constants the system is elliptic in space-time whenever
the streams differ: the growth rate of wavenumber k is proportional to k,
which is the operational signature of Hadamard ill-posedness in Sobolev
spaces (while analytic-decay data keeps a finite lifespan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigError
from .quadrature import check_finite, rk4_step
from .spectral import (
    Grid,
    SpectralField,
    dealias,
    derivative,
    inverse,
    l2_norm,
    mean,
    product,
)


@dataclass(frozen=True)
class TwoPhaseState:
    t: float
    rho1: SpectralField
    v1: SpectralField
    v2: SpectralField

    @property
    def grid(self) -> Grid:
        return self.rho1.grid

    def rho2(self) -> SpectralField:
        c = -np.array(self.rho1.coeffs, copy=True)
        c[0] += 1.0
        return SpectralField(self.grid, c, self.rho1.real)

    def interior_margin(self) -> float:
        """min(rho1, 1 - rho1) on the collocation grid."""
        vals = inverse(self.rho1)
        return float(min(np.min(vals), np.min(1.0 - vals)))


def make_two_phase(rho1: SpectralField, v1: SpectralField, v2: SpectralField,
                   margin: float = 0.0) -> TwoPhaseState:
    if not (rho1.grid == v1.grid == v2.grid) or rho1.grid.ndim != 1:
        raise ConfigError("two-phase fields must share one parallel grid")
    state = TwoPhaseState(t=0.0, rho1=dealias(rho1), v1=dealias(v1), v2=dealias(v2))
    if state.interior_margin() <= margin:
        raise ConfigError("rho1 must take values strictly inside (0, 1)")
    return state


def pressure_gradient(state: TwoPhaseState) -> SpectralField:
    """d_par p = -d_par(rho1 v1^2 + rho2 v2^2), zero mean."""
    flux = product(state.rho1, product(state.v1, state.v1)) \
        + product(state.rho2(), product(state.v2, state.v2))
    return -derivative(flux, 0)


def momentum_flux_residual(state: TwoPhaseState) -> float:
    """|d_par(rho1 v1 + rho2 v2)| in L2; zero on the constraint manifold."""
    total = product(state.rho1, state.v1) + product(state.rho2(), state.v2)
    return l2_norm(derivative(total, 0))


def tendencies(state: TwoPhaseState):
    dp = pressure_gradient(state)
    drho1 = -derivative(product(state.v1, state.rho1), 0)
    dv1 = -product(state.v1, derivative(state.v1, 0)) - dp
    dv2 = -product(state.v2, derivative(state.v2, 0)) - dp
    return drho1, dv1, dv2


def step(state: TwoPhaseState, dt: float) -> TwoPhaseState:
    y = rk4_step(lambda y, c: tendencies(TwoPhaseState(state.t, *y)),
                 (state.rho1, state.v1, state.v2), dt)
    check_finite(y, state, dt, "two-phase")
    return TwoPhaseState(state.t + dt, *y)


@dataclass
class TwoPhaseTrajectory:
    grid: Grid
    times: np.ndarray
    rho1: np.ndarray          # [n_t, n_par] coefficients
    v1: np.ndarray
    v2: np.ndarray
    mass1: np.ndarray
    flux_residual: np.ndarray
    interior_ok: bool
    states: list = field(default_factory=list)


def run(state: TwoPhaseState, dt: float, n_steps: int, record_every: int = 1,
        margin: float = 1e-3, keep_states: bool = False,
        stop_when=None) -> TwoPhaseTrajectory:
    """Advance the two-phase system, flagging loss of the strict interior
    0 < rho1 < 1. `stop_when(state)` may truncate the run early (used by
    growth fits); partial output is returned, never an exception."""
    if n_steps % record_every != 0:
        raise ConfigError("record_every must divide n_steps")
    n_rec = n_steps // record_every + 1
    npar = state.grid.shape[0]
    times = np.empty(n_rec)
    r1 = np.empty((n_rec, npar), dtype=complex)
    u1 = np.empty_like(r1)
    u2 = np.empty_like(r1)
    mass1 = np.empty(n_rec)
    resid = np.empty(n_rec)
    states = []
    interior_ok = True

    def record(i, st):
        nonlocal interior_ok
        times[i] = st.t
        r1[i] = st.rho1.coeffs
        u1[i] = st.v1.coeffs
        u2[i] = st.v2.coeffs
        mass1[i] = mean(st.rho1)
        resid[i] = momentum_flux_residual(st)
        if st.interior_margin() <= margin:
            interior_ok = False
        if keep_states:
            states.append(st)

    record(0, state)
    current = state
    filled = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            try:
                current = step(current, dt)
            except BlowUpError:
                break
            if n % record_every == 0:
                record(n // record_every, current)
                filled += 1
            if stop_when is not None and stop_when(current):
                break
    return TwoPhaseTrajectory(
        grid=state.grid, times=times[:filled], rho1=r1[:filled], v1=u1[:filled],
        v2=u2[:filled], mass1=mass1[:filled], flux_residual=resid[:filled],
        interior_ok=interior_ok, states=states)


# -- linear theory ---------------------------------------------------------

def symbol_matrix(rho1_bar: float, v1_bar: float, v2_bar: float) -> np.ndarray:
    """Advection matrix A of the constant-coefficient linearisation in the
    variables (rho1, rho2, v1, v2): perturbations obey d_t X = -i 2 pi k A X
    after eliminating the pressure with the closure."""
    r1, r2 = rho1_bar, 1.0 - rho1_bar
    a, b = v1_bar, v2_bar
    return np.array([
        [a, 0.0, r1, 0.0],
        [0.0, b, 0.0, r2],
        [-a**2, -b**2, a - 2 * r1 * a, -2 * r2 * b],
        [-a**2, -b**2, -2 * r1 * a, b - 2 * r2 * b],
    ])


def linear_growth(background: tuple[float, float, float], k: float) -> np.ndarray:
    """Eigenvalues sigma of the linearised symbol at wavenumber k, i.e.
    the roots of det(sigma I + i 2 pi k A) = 0. A real background pairs
    them under sigma -> -conj(sigma); for a symmetric two-stream
    background (rho1 = 1/2, v1 = -v2) the spectrum is real +- pairs and
    hence also conjugation-closed."""
    r1, v1b, v2b = background
    if not 0.0 < r1 < 1.0:
        raise ConfigError("background volume fraction must lie in (0, 1)")
    A = symbol_matrix(r1, v1b, v2b)
    return np.linalg.eigvals(-2j * np.pi * k * A)


def max_growth_rate(background: tuple[float, float, float], k: float) -> float:
    return float(np.max(linear_growth(background, k).real))


# -- nonlinear growth measurement ------------------------------------------

def decay_profile(kind: str, param: float, kvec: np.ndarray) -> np.ndarray:
    """Mode weights for seeded perturbations: analytic r^|k| or algebraic
    |k|^-s decay (k = 0 weight is zero)."""
    k = np.abs(kvec).astype(float)
    if kind == "analytic":
        w = param ** k
    elif kind == "algebraic":
        with np.errstate(divide="ignore"):
            w = np.where(k > 0, k, 1.0) ** (-param)
    else:
        raise ConfigError(f"unknown decay kind {kind!r}")
    return np.where(k == 0, 0.0, w)


def _random_band(grid: Grid, kind: str, param: float, k_max: int,
                 rng) -> SpectralField:
    kvec = grid.modes(0)
    weights = decay_profile(kind, param, kvec)
    weights[np.abs(kvec) > k_max] = 0.0
    npos = grid.shape[0] // 2
    phases = np.exp(2j * np.pi * rng.random(npos + 1))
    coeffs = np.zeros(grid.shape[0], dtype=complex)
    for k in range(1, min(k_max, npos - 1) + 1):
        coeffs[k] = weights[k] * phases[k]
        coeffs[-k] = np.conj(coeffs[k])
    field = SpectralField(grid, coeffs)
    if l2_norm(field) == 0.0:
        raise ConfigError("empty perturbation")
    return field


def seeded_state(grid: Grid, background: tuple[float, float, float],
                 kind: str, param: float, k_max: int, l2_amplitude: float,
                 seed: int = 0) -> TwoPhaseState:
    """Background plus density and velocity perturbations with the given
    spectral decay, random phases, and prescribed joint L2 norm.

    Both rho1 and v1 are seeded: for symmetric backgrounds (equal squared
    stream speeds) a pure density perturbation decouples from the growing
    velocity subsystem and would only measure neutral transport.
    """
    r1, v1b, v2b = background
    rng = np.random.default_rng(seed)
    pert_r = _random_band(grid, kind, param, k_max, rng)
    pert_v = _random_band(grid, kind, param, k_max, rng)
    amp = l2_amplitude / math.sqrt(2.0)
    pert_r = (amp / l2_norm(pert_r)) * pert_r
    pert_v = (amp / l2_norm(pert_v)) * pert_v
    base = np.zeros(grid.shape[0], dtype=complex)
    base[0] = r1
    rho1 = SpectralField(grid, base + pert_r.coeffs)
    c1 = np.zeros_like(base); c1[0] = v1b
    c2 = np.zeros_like(base); c2[0] = v2b
    return make_two_phase(rho1, SpectralField(grid, c1 + pert_v.coeffs),
                          SpectralField(grid, c2))


@dataclass
class GrowthRow:
    k: int
    sigma_lin: complex
    sigma_meas: float
    r_squared: float
    n_fit: int


@dataclass
class GrowthResult:
    background: tuple[float, float, float]
    rows: list[GrowthRow]
    blew_up: bool


def perturbation_norm(traj: TwoPhaseTrajectory, background) -> np.ndarray:
    r1, v1b, v2b = background
    out = np.zeros(len(traj.times))
    with np.errstate(over="ignore"):
        for series, base in ((traj.rho1, r1), (traj.v1, v1b), (traj.v2, v2b)):
            d = np.array(series, copy=True)
            d[:, 0] -= base
            out += np.sum(np.abs(d) ** 2, axis=1)
    return np.sqrt(out)


def mode_matched_points(k: int) -> int:
    """Smallest even grid size whose 2/3-rule cutoff retains wavenumber k
    and nothing above it. Every retained mode grows at a rate rising with
    its wavenumber from mere rounding noise, so a measurement run for
    mode k must not retain any faster mode."""
    return max(4, 3 * k + 1 if k % 2 == 1 else 3 * k + 2)


def _single_mode_state(grid: Grid, background, k: int, amplitude: float,
                       rng) -> TwoPhaseState:
    r1, v1b, v2b = background
    a = amplitude / math.sqrt(2.0)
    cr = np.zeros(grid.shape[0], dtype=complex)
    cv = np.zeros_like(cr)
    pr, pv = np.exp(2j * np.pi * rng.random(2))
    cr[k] = a * pr / math.sqrt(2.0); cr[-k] = np.conj(cr[k])
    cv[k] = a * pv / math.sqrt(2.0); cv[-k] = np.conj(cv[k])
    cr[0] += r1
    cv[0] += v1b
    c2 = np.zeros_like(cr); c2[0] = v2b
    return make_two_phase(SpectralField(grid, cr), SpectralField(grid, cv),
                          SpectralField(grid, c2))


def _fit_mode(times, amp, floor, ceiling):
    window = np.nonzero((amp > floor) & (amp < ceiling))[0]
    if len(window) < 3:
        # never left the seed level (neutral background): fit everything
        window = np.nonzero(amp > 1e-300)[0]
    if len(window) < 3:
        return float("nan"), 0.0, len(window)
    t_fit = np.asarray(times)[window]
    y = np.log(amp[window])
    coef, res = np.polyfit(t_fit, y, 1, full=True)[:2]
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss_tot if ss_tot > 0 and len(res) else 1.0
    return float(coef[0]), r2, len(window)


def growth_experiment(background, k_max: int, horizon: float,
                      kind: str = "analytic", param: float = 0.5,
                      l2_amplitude: float = 1e-8,
                      seed: int = 0, fit_floor: float = 10.0,
                      fit_ceiling: float = 1e-3) -> GrowthResult:
    """Measure the nonlinear growth rate of each wavenumber k <= k_max.

    Each mode is seeded in its own run on a mode-matched grid (see
    mode_matched_points) with amplitude l2_amplitude * decay(k), where the
    decay profile is normalised to 1 at k = 1; the growth of
    |rho1_hat(k, t)| is fitted inside [fit_floor * seed, fit_ceiling *
    rho1_bar] and compared against the leading linearised eigenvalue. A
    run that blows up before its window closes contributes a partial fit.
    """
    rng = np.random.default_rng(seed)
    weights = decay_profile(kind, param, np.arange(k_max + 1))
    weights = weights / weights[1]
    rows = []
    blew_up = False
    for k in range(1, k_max + 1):
        grid = Grid.line(mode_matched_points(k))
        amp0 = l2_amplitude * weights[k]
        state = _single_mode_state(grid, background, k, amp0, rng)
        sig = linear_growth(background, k)
        sig_lead = sig[np.argmax(sig.real)]
        rate = max(sig_lead.real, 0.0)
        vmax = max(abs(background[1]), abs(background[2]), 1e-3)
        dt = min(0.12 / rate if rate > 1e-6 else horizon,
                 0.25 / (grid.shape[0] * vmax), horizon / 64.0)
        n_steps = int(math.ceil(horizon / dt))
        ceiling = fit_ceiling * background[0]
        traj = run(state, dt, n_steps,
                   stop_when=lambda st, k=k, c=4 * ceiling:
                   abs(st.rho1.coeffs[k]) > c)
        if len(traj.times) < n_steps + 1 and np.abs(traj.rho1[-1, k]) < ceiling:
            blew_up = True
        sigma_meas, r2, n_fit = _fit_mode(
            traj.times, np.abs(traj.rho1[:, k]),
            fit_floor * np.abs(traj.rho1[0, k]), ceiling)
        rows.append(GrowthRow(k=k, sigma_lin=complex(sig_lead),
                              sigma_meas=sigma_meas, r_squared=r2, n_fit=n_fit))
    return GrowthResult(background=tuple(background), rows=rows,
                        blew_up=blew_up)


def survival_time(background, kind: str, param: float, k_max: int,
                  l2_amplitude: float, n_par: int = 32, seed: int = 0,
                  horizon: float = 1.0, factor: float = 2.0) -> float | None:
    """First time at which the L2 perturbation norm of a full-spectrum
    seeded run grows by `factor` (linear interpolation between samples);
    None if the threshold is not reached before the horizon."""
    grid = Grid.line(n_par)
    state = seeded_state(grid, background, kind, param, k_max,
                         l2_amplitude, seed)
    sigma_max = max(max_growth_rate(background, k)
                    for k in range(1, k_max + 1))
    dt = min(0.12 / max(sigma_max, 1e-6), horizon / 64.0)
    n_steps = int(math.ceil(horizon / dt))
    traj = run(state, dt, n_steps)
    pert = perturbation_norm(traj, background)
    target = factor * pert[0]
    above = np.nonzero(pert >= target)[0]
    if not len(above):
        return None
    j = int(above[0])
    if j == 0:
        return float(traj.times[0])
    p0, p1 = pert[j - 1], pert[j]
    frac = float((target - p0) / (p1 - p0))
    return float(traj.times[j - 1] + frac * (traj.times[j] - traj.times[j - 1]))
