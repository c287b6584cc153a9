"""Multi-phase pressureless Euler-Poisson toy model with energy and
relative-entropy monitors.

N phases of equal weight 1/N share one scaled Poisson field,

    d_t rho_th + d_par(rho_th u_th) = 0,
    d_t u_th + u_th d_par u_th = E,      E = -d_par V,
    -eps d_par^2 V = (1/N) sum_th rho_th - 1,

on the parallel circle T^1. The energy

    (1/2N) sum_th int rho_th |u_th|^2 + (eps/2) int |d_par V|^2

is conserved by smooth flows; the relative entropy against a reference
flow (u, V) with theta-independent, divergence-free (here constant) u,

    H = (1/2N) sum_th int rho_th |u_th - u|^2 + (eps/2) int |d_par V_eps - d_par V|^2,

obeys a Gronwall bound and vanishes with eps for well-prepared data.
With theta-dependent streaming the coupling term is O(1/sqrt(eps)) and
the bound is lost: the dichotomy experiment below measures both branches.

The tendency is the eps system's drift-advection kernel on the phases,
stacked on a leading axis, plus E from the Poisson symbol solve. A step
is quadrature.ensemble_step of it for an ensemble of states (one eps and
dt each), its members on a further leading axis.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .epsilon import drift_advection, dt_policy
from .errors import ConfigError, SolvabilityError
from .poisson import TWO_PI_SQ, V_coeffs, check_eps
from .quadrature import Run, Trajectory, ensemble_step, evolve, solo
from .spectral import (
    Grid,
    SpectralField,
    check_real,
    dealias,
    derivative_coeffs,
    forward,
    inverse,
    mean,
)


@dataclass(frozen=True)
class MultiPhaseState:
    """Phases of equal weight 1/N: one density and one velocity each."""

    t: float
    eps: float
    rho: tuple[SpectralField, ...]
    u: tuple[SpectralField, ...]

    @property
    def grid(self) -> Grid:
        return self.rho[0].grid

    @property
    def n_phases(self) -> int:
        return len(self.rho)


def make_multi_phase(rho_list, u_list, eps: float) -> MultiPhaseState:
    check_eps(eps)
    if len(rho_list) != len(u_list) or not rho_list:
        raise ConfigError("need matching non-empty phase lists")
    grid = rho_list[0].grid
    if grid.ndim != 1:
        raise ConfigError("the toy model runs on a line grid")
    for r, u in zip(rho_list, u_list):
        if r.grid != grid or u.grid != grid:
            raise ConfigError("all phase fields must share one grid")
        check_real(u)
        if float(np.min(inverse(r))) < -1e-12:
            raise ConfigError("phase densities must be nonnegative")
    state = MultiPhaseState(t=0.0, eps=eps,
                            rho=tuple(dealias(r) for r in rho_list),
                            u=tuple(dealias(u) for u in u_list))
    if abs(_total(np.stack([r.coeffs for r in state.rho]))[0].real - 1.0) > 1e-8:
        raise SolvabilityError("total phase density must have mean 1")
    return state


def _total(rho: np.ndarray) -> np.ndarray:
    """(1/N) sum_th rho_th of line-grid coefficients stacked on a phase
    axis, the last leading one."""
    return (1.0 / rho.shape[-2]) * rho.sum(axis=-2)


def tendencies(grid: Grid, rho: np.ndarray, u: np.ndarray, eps,
               values: tuple | None = None):
    """(d_t rho, d_t u) on band- or half-layout coefficient arrays, the
    phases stacked on the last leading axis (after an ensemble's member
    axis, with eps one per member): the drift-advection tendency of every phase
    plus the shared field E = -d_par V. `values`, the collocation values
    of rho and u, saves their transforms when the caller has them."""
    drho, du = drift_advection(grid, rho, u, values=values)
    du -= derivative_coeffs(grid, V_coeffs(grid, _total(rho), eps), 0)[..., None, :]
    return drho, du


def steps(states: list, dts: list) -> list:
    """The toy model's step of an ensemble of states on one grid, each
    with its own eps and dt (quadrature.ensemble_step; see
    quadrature.evolve): the member axis comes before the phase axis, and
    the first stage reuses the values of the phases when every member has
    them cached. A member's entry is its new state or its BlowUpError."""
    grid = states[0].grid
    eps = [st.eps for st in states]
    (rho, u), errors = ensemble_step(
        lambda y, values: tendencies(grid, *y, eps, values),
        states, dts, lambda st: (st.rho, st.u), "toy-model", cached=2)
    return [err or MultiPhaseState(st.t + dt, st.eps,
                                   tuple(SpectralField(grid, c) for c in rho[i]),
                                   tuple(SpectralField(grid, c) for c in u[i]))
            for i, (st, dt, err) in enumerate(zip(states, dts, errors))]


def step(state: MultiPhaseState, dt: float) -> MultiPhaseState:
    """One RK4 step of one state (see steps); blow-up raises BlowUpError
    carrying `state`."""
    return solo(steps, state, dt)


def energy(state: MultiPhaseState) -> float:
    """The conserved energy: the relative entropy against the zero
    reference velocity with zero potential."""
    return relative_entropy(state, 0.0)


def relative_entropy(state: MultiPhaseState, velocity: float) -> float:
    """H >= 0 against the reference flow with constant (hence
    divergence-free) theta-independent `velocity` and zero potential;
    zero iff the state matches the reference on the grid."""
    total = _total(np.stack([r.coeffs for r in state.rho]))
    V = V_coeffs(state.grid, total, state.eps)
    kin = 0.0
    for r, u in zip(state.rho, state.u):
        kin += float(np.mean(r._values * (u._values - velocity) ** 2))
    kin *= 0.5 / state.n_phases
    k = state.grid.modes(0).astype(float)
    grad2 = TWO_PI_SQ * float(np.sum(k**2 * np.abs(V) ** 2))
    return kin + 0.5 * state.eps * grad2


def run(state: MultiPhaseState, dt: float, n_steps: int, probes: dict) -> Trajectory:
    """Advance n_steps, recording each probe at t = 0 and after every step
    (quadrature.evolve of one run); a blow-up ends the record at the last
    finite state with complete False."""
    return evolve(steps, [Run(state, dt, n_steps, probes)], partial=True)[0]


# -- the stability/instability dichotomy ------------------------------------

def dichotomy_data(grid: Grid, eps: float, streaming: float,
                   mean_velocity: float = 0.1, structure: float = 0.05,
                   offset: float = 0.01, ripple: float = 0.1,
                   ripple_modes: int = 6) -> MultiPhaseState:
    """Admissible two-phase data for one branch of the dichotomy.

    Densities carry opposite O(structure) modulations that cancel in the
    total (the initial field vanishes exactly); the shared
    theta-independent velocity is mean_velocity + sqrt(eps) * offset, a
    constant (divergence-free), so the distance to the reference flow
    vanishes with eps as the admissibility hypotheses require. `streaming`
    adds the theta-dependent part +- streaming * chi(x) with
    chi = 1 + ripple * (modes 2..ripple_modes+1, decaying); zero streaming
    is the stable branch. The ripple is orthogonal to the density bump
    (mode 1), so the branches' entropies differ only through the
    theta-dependent term, and it seeds the counter-streaming instability
    across a band of wavenumbers.
    """
    if grid.ndim != 1:
        raise ConfigError("dichotomy experiment runs on the 1D torus")
    x = grid.meshgrid()[0]
    bump = np.cos(2.0 * np.pi * x)
    rho0 = forward(grid, 1.0 + structure * bump)
    rho1 = forward(grid, 1.0 - structure * bump)
    chi = np.ones(grid.shape)
    for k in range(2, ripple_modes + 2):
        chi += ripple * 0.5**(k - 2) * np.cos(2.0 * np.pi * k * x + 0.7 * k)
    common = mean_velocity + math.sqrt(eps) * offset
    u0 = forward(grid, common + streaming * chi)
    u1 = forward(grid, common - streaming * chi)
    return make_multi_phase([rho0, rho1], [u0, u1], eps)


def dichotomy_experiment(eps_list, streaming: float = 0.5,
                         mean_velocity: float = 0.1, structure: float = 0.05,
                         offset: float = 0.01, ripple: float = 0.1,
                         horizon: float = 0.3, n_points: int = 32,
                         rtol: float = 1e-4) -> dict:
    """Relative entropy at the horizon across the eps sweep for the
    theta-independent (stable) and counter-streaming (unstable) branches.

    With a constant reference velocity the relative entropy is itself a
    conserved modulation of the energy (energy, momentum and mass are all
    conserved), so H(T) inherits the eps-scaling of the admissible data:
    the stable branch vanishes like eps while the unstable branch stays
    pinned at the O(1) streaming energy that no theta-independent
    reference can remove. The non-decreasing check on the unstable branch
    carries the relative tolerance `rtol` for the shared O(eps) data terms
    and the integration drift, both orders of magnitude below the branch
    separation. Blow-up in a branch yields a partial entry evaluated at
    the last valid sample. The branch x eps runs are stepped as one
    ensemble; the run behind each entry is kept under
    report["trajectories"][branch][eps].
    """
    return prepare_dichotomy_experiment(eps_list, streaming, mean_velocity,
                                        structure, offset, ripple, horizon,
                                        n_points, rtol)()


def prepare_dichotomy_experiment(eps_list, streaming: float = 0.5,
                                 mean_velocity: float = 0.1,
                                 structure: float = 0.05, offset: float = 0.01,
                                 ripple: float = 0.1, horizon: float = 0.3,
                                 n_points: int = 32,
                                 rtol: float = 1e-4) -> Callable[[], dict]:
    """dichotomy_experiment up to its first step: every branch x eps state
    and run made and checked, nothing stepped. The returned function steps
    them as one ensemble and returns the experiment's report."""
    if not horizon > 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    grid = Grid.line(n_points)
    probes = {"energy": energy,
              "entropy": lambda st: relative_entropy(st, mean_velocity),
              "masses": lambda st: [mean(r) for r in st.rho]}
    members, runs = [], []
    for branch, stream in (("stable", 0.0), ("unstable", streaming)):
        for eps in eps_list:
            state = dichotomy_data(grid, eps, stream, mean_velocity,
                                   structure, offset, ripple)
            dt = min(dt_policy(eps), horizon / 64.0)
            members.append((branch, float(eps)))
            runs.append(Run(state, dt, int(math.ceil(horizon / dt)), probes))

    def finish() -> dict:
        report: dict = {"eps": list(map(float, eps_list)),
                        "horizon": horizon, "stable": {}, "unstable": {},
                        "trajectories": {"stable": {}, "unstable": {}}}
        for (branch, eps), traj in zip(members, evolve(steps, runs, partial=True)):
            report["trajectories"][branch][eps] = traj
            report[branch][eps] = {
                "H_initial": float(traj["entropy"][0]),
                "H_final": float(traj["entropy"][-1]),
                "t_final": float(traj.times[-1]),
                "complete": traj.complete,
            }
        eps_sorted = sorted(report["eps"], reverse=True)   # decreasing eps
        stable = [report["stable"][e]["H_final"] for e in eps_sorted]
        unstable = [report["unstable"][e]["H_final"] for e in eps_sorted]
        report["stable_strictly_decreasing"] = bool(
            all(b < a for a, b in zip(stable, stable[1:])))
        report["unstable_nondecreasing"] = bool(
            all(b >= a * (1.0 - rtol) for a, b in zip(unstable, unstable[1:])))
        report["unstable_stays_order_one"] = bool(
            min(unstable) > 100.0 * max(stable))
        return report
    return finish
