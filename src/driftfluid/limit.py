"""The quasineutral limit system: drift advection in the perpendicular
plane, Burgers-type parallel transport, and the one-dimensional pressure
closure.

The constraint <rho>_perp = 1 replaces the parallel Poisson equation.
Averaging continuity gives d_par <rho v>_perp = 0, and averaging the
conservative momentum balance turns the pressure into an exact parallel
derivative,

    -d_par p = d_par <rho v^2>_perp,

so no elliptic solve is needed: the closure is algebraic and evaluated
from the instantaneous state at every stage. With it, d_t <rho v>_perp = 0
pointwise, so both constraints propagate; the discrete residual (from
dealiasing truncation of triple products) is monitored and the k_perp = 0
tendency modes are projected to zero, which keeps <rho>_perp = 1 exact.

Like the eps step, a limit step runs its RK4 stages on half-layout
coefficient arrays (see spectral) and converts only at its boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epsilon import drift_advection
from .errors import AdmissibilityError, ConfigError
from .poisson import perp_field_coeffs, phi_coeffs
from .quadrature import Trajectory, check_finite, evolve, rk4_step
from .spectral import (
    Grid,
    SpectralField,
    collocation_values,
    dealias,
    derivative,
    derivative_coeffs,
    embed_parallel,
    forward,
    full_coeffs,
    inverse,
    l2_norm,
    mean,
    perp_average,
    product,
    product_coeffs,
)


@dataclass(frozen=True)
class LimitState:
    t: float
    rho: SpectralField
    v: SpectralField

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def pressure_gradient_coeffs(grid: Grid, rho_vals: np.ndarray,
                             v_vals: np.ndarray) -> np.ndarray:
    """d_par p = -d_par <rho v^2>_perp from the collocation values of rho
    and v: half-layout coefficients on the parallel grid."""
    vv = collocation_values(grid, product_coeffs(grid, v_vals, v_vals, True), True)
    flux = product_coeffs(grid, rho_vals, vv, True)[grid._par_line]
    return -derivative_coeffs(grid.par_grid, flux, 0)


def pressure_gradient(rho: SpectralField, v: SpectralField) -> SpectralField:
    """d_par p = -d_par <rho v^2>_perp, a zero-mean parallel field."""
    line = rho.grid.par_grid
    return SpectralField(line, full_coeffs(
        line, pressure_gradient_coeffs(rho.grid, rho._values, v._values)))


def constraint_residuals(rho: SpectralField, v: SpectralField) -> tuple[float, float]:
    """(|<rho>_perp - 1|, |d_par <rho v>_perp|) in L2, the two data
    constraints of the limit system."""
    rb = perp_average(rho)
    c = np.array(rb.coeffs, copy=True)
    c[0] -= 1.0
    mom = perp_average(product(rho, v))
    dmom = derivative(mom, 0)
    return (float(np.sqrt(np.sum(np.abs(c) ** 2))), l2_norm(dmom))


def project_initial(rho0: SpectralField, v0: SpectralField) -> LimitState:
    """Project arbitrary data onto the constraint manifold.

    rho: zero out all k_perp = 0, k_par != 0 modes and pin the mean to 1.
    v:   subtract the minimal parallel-only correction
            (<rho v>_perp - its mean) / <rho>_perp,
    which enforces d_par <rho v>_perp = 0 and is idempotent.
    """
    if rho0.grid != v0.grid:
        raise ConfigError("rho and v must share a grid")
    rho0 = dealias(rho0)
    v0 = dealias(v0)
    if float(np.min(inverse(rho0))) <= 0.0:
        raise AdmissibilityError("density must be strictly positive")
    grid = rho0.grid
    coeffs = np.array(rho0.coeffs, copy=True)
    coeffs[grid._par_line] = 0.0
    coeffs[(0,) * grid.ndim] = 1.0
    rho = SpectralField(grid, coeffs, rho0.real)

    mom = perp_average(product(rho, v0))
    mom_vals = inverse(mom) - mean(mom)
    rb_vals = inverse(perp_average(rho))
    corr = embed_parallel(forward(grid.par_grid, mom_vals / rb_vals), grid)
    v = dealias(v0 - corr)
    return LimitState(t=0.0, rho=rho, v=v)


def tendencies(grid: Grid, rho: np.ndarray, v: np.ndarray,
               with_pressure: bool = True, values: tuple | None = None):
    """(d_t rho, d_t v, constraint flux residual) on half-layout
    coefficient arrays: the drift-advection tendency with E_perp from the
    eps = 0 symbol, plus the pressure closure. `values`, the collocation
    values of rho and v, saves their transforms when the caller has them.

    The k_perp = 0 modes of d_t rho are analytically -d_par <rho v>_perp,
    zero on the constraint manifold; their discrete magnitude (the L2 norm
    over the full line) is returned as the residual and they are projected
    out so the constraint holds identically.
    """
    rho_vals, v_vals = values or (collocation_values(grid, rho, True),
                                  collocation_values(grid, v, True))
    e1, e2 = perp_field_coeffs(grid, phi_coeffs(grid, rho, 0.0))
    # the closure reuses the collocation values of rho and v
    drho, dv = drift_advection(grid, rho_vals, v_vals, v, e1, e2)
    if with_pressure:
        dv[grid._par_line] -= pressure_gradient_coeffs(grid, rho_vals, v_vals)
    line = full_coeffs(grid.par_grid, drho[grid._par_line])
    residual = float(np.sqrt(np.sum(np.abs(line) ** 2)))
    drho[grid._par_line] = 0.0
    return drho, dv, residual


def step(state: LimitState, dt: float, with_pressure: bool = True) -> LimitState:
    """Classical RK4 step on the half layout; raises BlowUpError on
    non-finite output."""
    grid = state.grid
    values = (state.rho._values, state.v._values)
    rho, v = rk4_step(
        lambda y, c: tendencies(grid, *y, with_pressure,
                                values if c == 0.0 else None)[:2],
        (state.rho.half_coeffs, state.v.half_coeffs), dt)
    rho, v = (SpectralField(grid, full_coeffs(grid, c)) for c in (rho, v))
    check_finite((rho, v), state, dt, "limit")
    return LimitState(t=state.t + dt, rho=rho, v=v)


def run(state: LimitState, dt: float, n_steps: int, probes: dict,
        with_pressure: bool = True) -> Trajectory:
    """Advance n_steps, recording each probe at t = 0 and after every step
    (see quadrature.evolve); blow-up raises BlowUpError with the last
    valid state."""
    return evolve(lambda st, h: step(st, h, with_pressure), state, dt,
                  n_steps, probes)


def shear_flow(grid: Grid, phi_profile, v_profile) -> LimitState:
    """Shear-flow data: E_perp0 = (0, phi(x1, xpar), 0), so the density
    fluctuation is the shear vorticity -d1 phi and nothing depends on the
    second perpendicular direction. The perpendicular nonlinear terms then
    vanish identically and stay zero under evolution.

    Profiles may be callables of the collocation coordinates or value
    arrays on the grid.
    """
    if "perp1" not in grid.axes:
        raise ConfigError("shear flows need a perp1 axis")
    mesh = grid.meshgrid()

    def evaluate(profile):
        if callable(profile):
            coords = [mesh[grid.axis_index("perp1")], mesh[grid.par_axis]]
            return np.broadcast_to(profile(*coords), grid.shape)
        return np.broadcast_to(np.asarray(profile, dtype=float), grid.shape)

    phi = forward(grid, evaluate(phi_profile))
    if "perp2" in grid.axes:
        k2 = grid.mode_grid("perp2")
        if np.max(np.abs(phi.coeffs[np.broadcast_to(k2 != 0, grid.shape)])) > 1e-12:
            raise ConfigError("shear profile must not depend on perp2")
    rho_vals = 1.0 - inverse(derivative(phi, "perp1"))
    rho = forward(grid, rho_vals)
    v = forward(grid, evaluate(v_profile))
    return project_initial(rho, v)


def two_slab_indicator(grid: Grid) -> SpectralField:
    """Band-limited indicator of the first half of the perp1 axis.

    Requires exactly 4 collocation points along perp1, where
    s = (1 + cos(2 pi x1) + sin(2 pi x1))/2 takes the values {1, 1, 0, 0}.
    Products of fields built from s have perp1 content only at the Nyquist
    sine, which vanishes at all collocation points, so two-valued slab
    dynamics is exact under the 2/3 rule.
    """
    i1 = grid.axis_index("perp1")
    if grid.shape[i1] != 4:
        raise ConfigError("two-slab embedding needs exactly 4 perp1 points")
    x1 = grid.meshgrid()[i1]
    return forward(grid, 0.5 * (1.0 + np.cos(2 * np.pi * x1) + np.sin(2 * np.pi * x1)))


def embed_two_phase(rho1: SpectralField, v1: SpectralField, v2: SpectralField,
                    grid: Grid) -> LimitState:
    """Exact shear embedding of a two-phase state: the first slab carries
    (2 rho1, v1), the second (2 (1 - rho1), v2); slab averages then
    reproduce the two-phase pressure closure identically."""
    s_vals = inverse(two_slab_indicator(grid))
    shape = [1] * grid.ndim
    shape[grid.par_axis] = grid.shape[grid.par_axis]
    r1 = inverse(rho1).reshape(shape)
    rho_vals = 2.0 * r1 * s_vals + 2.0 * (1.0 - r1) * (1.0 - s_vals)
    v_vals = inverse(v1).reshape(shape) * s_vals + inverse(v2).reshape(shape) * (1.0 - s_vals)
    return LimitState(t=0.0, rho=forward(grid, rho_vals), v=forward(grid, v_vals))


def restrict_two_phase(state: LimitState):
    """Inverse of embed_two_phase on a shear grid: read the two slab
    values back off the collocation grid (perp1 indices 0 and 2)."""
    grid = state.grid
    if grid.ndim != 2:
        raise ConfigError("restrict_two_phase expects a shear grid")
    i1 = grid.axis_index("perp1")
    rho_vals = inverse(state.rho)
    v_vals = inverse(state.v)

    def slab(vals, j):
        index = [slice(None)] * grid.ndim
        index[i1] = j
        return vals[tuple(index)]

    par = grid.par_grid
    rho1 = forward(par, 0.5 * slab(rho_vals, 0))
    v1 = forward(par, slab(v_vals, 0))
    v2 = forward(par, slab(v_vals, 2))
    return rho1, v1, v2
