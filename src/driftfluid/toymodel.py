"""Multi-phase pressureless Euler-Poisson toy model with energy and
relative-entropy monitors.

N phases of equal weight 1/N share one scaled Poisson field,

    d_t rho_th + div(rho_th u_th) = 0,
    d_t u_th + (u_th . grad) u_th = E,      E = -grad V,
    -eps Lap V = (1/N) sum_th rho_th - 1,

on T^1 by default (T^3 supported through the same code paths). The
energy

    (1/2N) sum_th int rho_th |u_th|^2 + (eps/2) int |grad V|^2

is conserved by smooth flows; the relative entropy against a reference
flow (u, V) with theta-independent, divergence-free u,

    H = (1/2N) sum_th int rho_th |u_th - u|^2 + (eps/2) int |grad V_eps - grad V|^2,

obeys a Gronwall bound and vanishes with eps for well-prepared data.
With theta-dependent streaming the coupling term is O(1/sqrt(eps)) and
the bound is lost: the dichotomy experiment below measures both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolvabilityError
from .poisson import TWO_PI_SQ, V_coeffs
from .quadrature import Trajectory, check_finite, evolve, rk4_step
from .spectral import (
    Grid,
    SpectralField,
    dealias,
    derivative,
    forward,
    inverse,
    mean,
    product,
    translate,
    zeros,
)


@dataclass(frozen=True)
class MultiPhaseState:
    """Phases of equal weight 1/N; u has one component per grid axis."""

    t: float
    eps: float
    rho: tuple[SpectralField, ...]
    u: tuple[tuple[SpectralField, ...], ...]

    @property
    def grid(self) -> Grid:
        return self.rho[0].grid

    @property
    def n_phases(self) -> int:
        return len(self.rho)


def make_multi_phase(rho_list, u_list, eps: float) -> MultiPhaseState:
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    if len(rho_list) != len(u_list) or not rho_list:
        raise ConfigError("need matching non-empty phase lists")
    grid = rho_list[0].grid
    for r, uu in zip(rho_list, u_list):
        if r.grid != grid or any(c.grid != grid for c in uu):
            raise ConfigError("all phase fields must share one grid")
        if len(uu) != grid.ndim:
            raise ConfigError("velocity needs one component per axis")
        if float(np.min(inverse(r))) < -1e-12:
            raise ConfigError("phase densities must be nonnegative")
    state = MultiPhaseState(
        t=0.0, eps=eps,
        rho=tuple(dealias(r) for r in rho_list),
        u=tuple(tuple(dealias(c) for c in uu) for uu in u_list))
    total = total_density(state)
    if abs(mean(total) - 1.0) > 1e-8:
        raise SolvabilityError("total phase density must have mean 1")
    return state


def total_density(state: MultiPhaseState) -> SpectralField:
    acc = zeros(state.grid)
    for r in state.rho:
        acc = acc + r
    return (1.0 / state.n_phases) * acc


def electric_field(state: MultiPhaseState) -> tuple[SpectralField, ...]:
    V = SpectralField(state.grid, V_coeffs(state.grid, total_density(state).coeffs,
                                           state.eps))
    return tuple(-derivative(V, i) for i in range(state.grid.ndim))


def tendencies(state: MultiPhaseState):
    E = electric_field(state)
    grid = state.grid
    drho, du = [], []
    for r, uu in zip(state.rho, state.u):
        dr = zeros(grid)
        for i in range(grid.ndim):
            dr = dr - derivative(product(uu[i], r), i)
        drho.append(dr)
        comps = []
        for i in range(grid.ndim):
            adv = zeros(grid)
            for j in range(grid.ndim):
                adv = adv + product(uu[j], derivative(uu[i], j))
            comps.append(E[i] - adv)
        du.append(tuple(comps))
    return drho, du


def step(state: MultiPhaseState, dt: float) -> MultiPhaseState:
    n = state.n_phases
    dim = state.grid.ndim

    def unflatten(y):
        return y[:n], tuple(y[n + i * dim: n + (i + 1) * dim] for i in range(n))

    def f(y, c):
        drho, du = tendencies(MultiPhaseState(state.t, state.eps, *unflatten(y)))
        return (*drho, *(dc for duu in du for dc in duu))

    y = rk4_step(f, (*state.rho, *(c for uu in state.u for c in uu)), dt)
    check_finite(y, state, dt, "toy-model")
    return MultiPhaseState(state.t + dt, state.eps, *unflatten(y))


def energy(state: MultiPhaseState) -> float:
    """The conserved energy: the relative entropy against the zero
    reference velocity with zero potential."""
    return relative_entropy(state, ReferenceFlow(velocity=(0.0,) * state.grid.ndim))


@dataclass(frozen=True)
class ReferenceFlow:
    """Limit reference: constant (hence divergence-free) theta-independent
    velocity, zero potential, densities transported rigidly."""

    velocity: tuple[float, ...]

    def velocity_fields(self, grid: Grid) -> tuple[SpectralField, ...]:
        out = []
        for i in range(grid.ndim):
            c = np.zeros(grid.shape, dtype=complex)
            c[(0,) * grid.ndim] = self.velocity[i]
            out.append(SpectralField(grid, c))
        return tuple(out)

    def transported(self, rho0: SpectralField, t: float) -> SpectralField:
        return translate(rho0, tuple(v * t for v in self.velocity))


def relative_entropy(state: MultiPhaseState, ref: ReferenceFlow) -> float:
    """H >= 0, zero iff the state matches the reference on the grid."""
    if len(ref.velocity) != state.grid.ndim:
        raise ConfigError("reference velocity dimension mismatch")
    V = V_coeffs(state.grid, total_density(state).coeffs, state.eps)
    kin = 0.0
    for r, uu in zip(state.rho, state.u):
        rv = inverse(r)
        dev2 = sum((inverse(c) - ref.velocity[i]) ** 2 for i, c in enumerate(uu))
        kin += float(np.mean(rv * dev2))
    kin *= 0.5 / state.n_phases
    grad2 = 0.0
    for i in range(state.grid.ndim):
        k = state.grid.mode_grid(i).astype(float)
        grad2 += TWO_PI_SQ * float(np.sum(k**2 * np.abs(V) ** 2))
    return kin + 0.5 * state.eps * grad2


def run(state: MultiPhaseState, dt: float, n_steps: int, probes: dict) -> Trajectory:
    """Advance n_steps, recording each probe at t = 0 and after every step
    (see quadrature.evolve); a blow-up ends the record at the last finite
    state with complete False."""
    return evolve(step, state, dt, n_steps, probes, partial=True)


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
    return make_multi_phase([rho0, rho1], [(u0,), (u1,)], eps)


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
    the last valid sample. The run behind each entry is kept under
    report["trajectories"][branch][eps].
    """
    grid = Grid.line(n_points)
    ref = ReferenceFlow(velocity=(mean_velocity,))
    report: dict = {"eps": list(map(float, eps_list)),
                    "horizon": horizon, "stable": {}, "unstable": {},
                    "trajectories": {"stable": {}, "unstable": {}}}
    for branch, stream in (("stable", 0.0), ("unstable", streaming)):
        for eps in eps_list:
            state = dichotomy_data(grid, eps, stream, mean_velocity,
                                   structure, offset, ripple)
            dt = min(2.0 * math.pi * math.sqrt(eps) / 120.0, horizon / 64.0)
            n_steps = int(math.ceil(horizon / dt))
            traj = run(state, dt, n_steps, {
                "energy": energy,
                "entropy": lambda st: relative_entropy(st, ref),
                "masses": lambda st: [mean(r) for r in st.rho]})
            report["trajectories"][branch][float(eps)] = traj
            report[branch][float(eps)] = {
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
