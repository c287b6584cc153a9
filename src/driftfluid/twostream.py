"""Two-phase counter-streaming reduction and its growth-rate analysis.

The two-phase system on the parallel circle,

    d_t rho_a + d_par(v_a rho_a) = 0,      a = 1, 2,    rho_1 + rho_2 = 1,
    d_t v_a  + v_a d_par v_a = -d_par p,

closes exactly like the full limit system: the volume constraint forces
d_par(rho_1 v_1 + rho_2 v_2) = 0, and

    -d_par p = d_par(rho_1 v_1^2 + rho_2 v_2^2)

keeps that flux constant in time. Only (rho_1, v_1, v_2) are evolved;
rho_2 = 1 - rho_1 is implied, so the mass constraint is exact by
construction; the momentum flux residual |d_par(rho_1 v_1 + rho_2 v_2)|
is monitored by the tests (tests/test_twostream.py), from the arrays a
step advances. As in the toy model, the tendency is the drift-advection
kernel on the phases stacked on an axis after the ensemble's member axis
(quadrature.ensemble_step), plus the closure summed over the phases.

Linearised about constants the system is elliptic in space-time whenever
the streams differ: the growth rate of wavenumber k is proportional to k,
which is the operational signature of Hadamard ill-posedness in Sobolev
spaces (while analytic-decay data keeps a finite lifespan).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .epsilon import drift_advection
from .errors import ConfigError
from .limit import pressure_gradient_coeffs
from .quadrature import Run, Trajectory, ensemble_step, evolve, solo
from .spectral import (
    Grid,
    SpectralField,
    check_real,
    constant,
    dealias,
    inverse,
    l2_norm,
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

    def interior_margin(self) -> float:
        """min(rho1, 1 - rho1) on the collocation grid."""
        vals = inverse(self.rho1)
        return float(min(np.min(vals), np.min(1.0 - vals)))


def make_two_phase(rho1: SpectralField, v1: SpectralField,
                   v2: SpectralField) -> TwoPhaseState:
    if not (rho1.grid == v1.grid == v2.grid) or rho1.grid.ndim != 1:
        raise ConfigError("two-phase fields must share one parallel grid")
    check_real(v1)
    check_real(v2)
    state = TwoPhaseState(t=0.0, rho1=dealias(rho1), v1=dealias(v1), v2=dealias(v2))
    if state.interior_margin() <= 0.0:
        raise ConfigError("rho1 must take values strictly inside (0, 1)")
    return state


def tendencies(grid: Grid, rho1: np.ndarray, v: np.ndarray):
    """(d_t rho1, d_t [v1, v2]) on the arrays a step advances, the
    band-layout coefficients of rho1 and of [v1, v2] stacked on a phase
    axis after any member axis: the drift-advection tendency of both
    phases, with [rho1, rho2] stacked alike (rho2 = 1 - rho1 is implied),
    and the pressure closure summed over the phases. rho2's tendency is
    made with rho1's and dropped."""
    rho = np.stack([rho1, -rho1], axis=-2)
    rho[..., 1, 0] += 1.0
    drho, dv, flux = drift_advection(grid, rho, v, pressure=True)
    dv -= pressure_gradient_coeffs(grid, flux).sum(axis=-2)[..., None, :]
    return drho[..., 0, :], dv


def steps(states: list, dts: list) -> list:
    """The two-phase step of an ensemble of states on one grid, each with
    its own dt (quadrature.ensemble_step; see quadrature.evolve): the
    member axis comes before the phase axis of [v1, v2]. A member's entry
    is its new state or its BlowUpError."""
    grid = states[0].grid
    (rho1, v), errors = ensemble_step(
        lambda y, _: tendencies(grid, *y), states, dts,
        lambda st: (st.rho1, (st.v1, st.v2)), "two-phase")
    return [err or TwoPhaseState(st.t + dt, SpectralField(grid, rho1[i]),
                                 *(SpectralField(grid, c) for c in v[i]))
            for i, (st, dt, err) in enumerate(zip(states, dts, errors))]


def step(state: TwoPhaseState, dt: float) -> TwoPhaseState:
    """One RK4 step (see steps); blow-up raises BlowUpError carrying
    `state`."""
    return solo(steps, state, dt)


def run(state: TwoPhaseState, dt: float, n_steps: int, probes: dict,
        stop_when=None) -> Trajectory:
    """Advance n_steps, recording each probe at t = 0 and after every step
    (quadrature.evolve of one run). `stop_when(state)` may truncate the run
    early (used by growth fits); a blow-up ends the record at the last
    finite state with complete False, never with an exception."""
    with np.errstate(over="ignore", invalid="ignore"):
        return evolve(steps, [Run(state, dt, n_steps, probes, stop_when)],
                      partial=True)[0]


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
    return make_two_phase(constant(grid, r1) + pert_r,
                          constant(grid, v1b) + pert_v, constant(grid, v2b))


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


def perturbation_norm(state: TwoPhaseState, background) -> float:
    """L2 distance of (rho1, v1, v2) from the constant background."""
    total = 0.0
    for f, base in zip((state.rho1, state.v1, state.v2), background):
        d = np.array(f.coeffs, copy=True)
        d[0] -= base
        total += float(np.sum(np.abs(d) ** 2))
    return math.sqrt(total)


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
    return make_two_phase(constant(grid, r1) + SpectralField(grid, cr),
                          constant(grid, v1b) + SpectralField(grid, cv),
                          constant(grid, v2b))


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


def growth_experiment(background=(0.5, 1.0, -1.0), k_max: int = 5,
                      horizon: float = 2.5, kind: str = "analytic",
                      param: float = 0.5, l2_amplitude: float = 1e-8,
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
    return prepare_growth_experiment(background, k_max, horizon, kind, param,
                                     l2_amplitude, seed, fit_floor, fit_ceiling)()


def prepare_growth_experiment(background=(0.5, 1.0, -1.0), k_max: int = 5,
                              horizon: float = 2.5, kind: str = "analytic",
                              param: float = 0.5, l2_amplitude: float = 1e-8,
                              seed: int = 0, fit_floor: float = 10.0,
                              fit_ceiling: float = 1e-3) -> Callable[[], GrowthResult]:
    """growth_experiment up to its first step: every mode's state, time
    step and step count made and checked, nothing stepped. The returned
    function steps the modes and returns the experiment's result."""
    if k_max < 1:
        raise ConfigError(f"k_max must be at least 1, got {k_max}")
    rng = np.random.default_rng(seed)
    weights = decay_profile(kind, param, np.arange(k_max + 1))
    if not (math.isfinite(weights[1]) and weights[1] > 0):
        raise ConfigError(f"the {kind} profile with param {param} gives mode 1 "
                          f"the weight {weights[1]}; the seeds are scaled by it")
    weights = weights / weights[1]
    ceiling = fit_ceiling * background[0]
    modes = []
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
        modes.append((k, state, dt, int(math.ceil(horizon / dt)), sig_lead))

    def finish() -> GrowthResult:
        rows = []
        blew_up = False
        for k, state, dt, n_steps, sig_lead in modes:
            traj = run(state, dt, n_steps, {"rho1": lambda st: st.rho1.coeffs},
                       stop_when=lambda st, k=k, c=4 * ceiling:
                       abs(st.rho1.coeffs[k]) > c)
            amp = np.abs(traj["rho1"][:, k])
            if not traj.complete and amp[-1] < ceiling:
                blew_up = True
            sigma_meas, r2, n_fit = _fit_mode(traj.times, amp, fit_floor * amp[0],
                                              ceiling)
            rows.append(GrowthRow(k=k, sigma_lin=complex(sig_lead),
                                  sigma_meas=sigma_meas, r_squared=r2, n_fit=n_fit))
        return GrowthResult(background=tuple(background), rows=rows,
                            blew_up=blew_up)
    return finish


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
    traj = run(state, dt, n_steps,
               {"pert": lambda st: perturbation_norm(st, background)})
    pert = traj["pert"]
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
