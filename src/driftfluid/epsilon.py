"""Time integration of the anisotropic drift-fluid system at fixed eps.

State is (rho, v) on a 3D (or shear-reduced) grid plus the running time
integral G of the parallel electric field E_par = -d_par V, advanced with
the same RK4 stages as the dynamical variables (Simpson on the stages).
The filtered current is w = v - G. Potentials and forces are derived from
rho on demand and never integrated. The transport part of the tendency,
drift_advection, is the one shared with the limit system and the CK
iteration. A step is the shared RK4 step on half-layout coefficient
arrays (see spectral): the state's fields are cut to their k_par >= 0 half
once on entry and completed to the full layout once on exit, and the
first stage reuses any collocation values a recording probe has cached on
them.

The density mean is a conserved, pinned quantity: the k = 0 tendency of
rho vanishes identically (it is a divergence) and the coefficient is reset
to exactly one after every step to stop rounding drift.

The default time step resolves the plasma oscillation of period
2 pi sqrt(eps) with 120 samples; 40 samples per period would resolve the
frequency but lets the RK4 amplitude damping (per step 1 - (omega dt)^6/72
on the energy) eat ~1e-4 of the oscillation energy over ten periods,
far above the 1e-6 conservation target, so the default is stricter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ConfigError
from .poisson import (
    Forces,
    Potentials,
    field_coeffs,
    parallel_coeffs,
    phi_coeffs,
    solve_fields,
)
from .quadrature import Trajectory, check_finite, evolve, rk4_step
from .spectral import (
    PERP1,
    PERP2,
    Grid,
    NormParams,
    SpectralField,
    analytic_norm,
    collocation_values,
    constant,
    dealias,
    derivative,
    derivative_coeffs,
    embed_parallel,
    full_coeffs,
    inverse,
    mean,
    perp_average,
    product,
    product_coeffs,
    zeros,
)

DEFAULT_SAMPLES_PER_PERIOD = 120
MIN_SAMPLES_PER_PERIOD = 40   # bare resolvability; the policy warns below this


@dataclass(frozen=True)
class EpsState:
    """Solver state at one instant; fields are immutable values."""

    t: float
    eps: float
    rho: SpectralField
    v: SpectralField
    G: SpectralField   # parallel-only running integral of E_par, G(0) = 0

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    @property
    def w(self) -> SpectralField:
        """Filtered current v - G."""
        return self.v - embed_parallel(self.G, self.grid)

    def fields(self) -> tuple[Potentials, Forces]:
        return solve_fields(self.rho, self.eps)

    def min_rho(self) -> float:
        return float(np.min(inverse(self.rho)))


def make_eps_state(rho: SpectralField, v: SpectralField, eps: float,
                   adm_const: float | None = None) -> EpsState:
    """Validate and normalise initial data.

    Enforces mean(rho) = 1 (pinned), strict positivity on the collocation
    grid, dealiased inputs, and optionally the quasineutral admissibility
    bound |<rho>_perp - 1|_1 <= adm_const * sqrt(eps) in the Wiener norm.
    """
    if eps <= 0.0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if rho.grid != v.grid:
        raise ConfigError("rho and v must share a grid")
    rho = dealias(rho)
    v = dealias(v)
    m = mean(rho)
    if abs(m - 1.0) > 1e-6:
        raise AdmissibilityError(f"mean(rho) = {m!r}, expected 1")
    coeffs = np.array(rho.coeffs, copy=True)
    coeffs[(0,) * rho.grid.ndim] = 1.0
    rho = SpectralField(rho.grid, coeffs, rho.real)
    if float(np.min(inverse(rho))) <= 0.0:
        raise AdmissibilityError("initial density must be strictly positive")
    if adm_const is not None:
        fluct = perp_average(rho) - constant(rho.grid.par_grid, 1.0)
        bound = adm_const * math.sqrt(eps)
        val = analytic_norm(fluct, 1.0)
        if val > bound:
            raise AdmissibilityError(
                f"|<rho>_perp - 1|_1 = {val:.3e} exceeds C sqrt(eps) = {bound:.3e}")
    return EpsState(t=0.0, eps=eps, rho=rho, v=v, G=zeros(rho.grid.par_grid))


def dt_policy(eps: float, max_speed_par: float = 0.0, max_speed_perp: float = 0.0,
              grid: Grid | None = None,
              samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
              cfl: float = 0.4) -> float:
    """dt = min(advective CFL, oscillation period / samples_per_period)."""
    dt = 2.0 * math.pi * math.sqrt(eps) / samples_per_period
    if grid is not None:
        if max_speed_par > 0.0:
            dt = min(dt, cfl / (grid.shape[grid.par_axis] * max_speed_par))
        if max_speed_perp > 0.0:
            n_perp = max(grid.shape[i] for i in grid.perp_axes)
            dt = min(dt, cfl / (n_perp * max_speed_perp))
    return dt


def oscillation_period(eps: float) -> float:
    return 2.0 * math.pi * math.sqrt(eps)


def drift_advection(grid: Grid, rho_vals: np.ndarray, v_vals: np.ndarray,
                    v: np.ndarray, e1: np.ndarray,
                    e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transport operator shared by the eps system, its limit and the
    CK iteration: E x B drift in the perpendicular plane plus parallel
    advection,

        (-d_par(v rho) - div_perp(E_perp rho), -v d_par v - div_perp(E_perp v)),

    on half-layout coefficient arrays of real fields, leading axes
    evaluated at once. rho and v enter through their collocation values
    (v also through its coefficients, for d_par v), so a caller that needs
    those values again transforms them once. The perpendicular drift
    needs both perpendicular axes: on a grid without one, E_perp has no
    component whose divergence is non-zero, and nothing is computed.
    """
    par = grid.par_axis
    # few live temporaries (d_par v values freed at once, in-place sums):
    # on large grids each freed one can be re-faulted from the OS
    drho = -derivative_coeffs(grid, product_coeffs(grid, v_vals, rho_vals, True), par)
    dv = -product_coeffs(grid, v_vals, collocation_values(
        grid, derivative_coeffs(grid, v, par), True), True)
    if PERP1 not in grid.axes or PERP2 not in grid.axes:
        return drho, dv
    for comp, label in ((e1, PERP1), (e2, PERP2)):
        comp_vals = collocation_values(grid, comp, True)
        drho -= derivative_coeffs(
            grid, product_coeffs(grid, comp_vals, rho_vals, True), label)
        dv -= derivative_coeffs(
            grid, product_coeffs(grid, comp_vals, v_vals, True), label)
    return drho, dv


def tendencies(grid: Grid, rho: np.ndarray, v: np.ndarray, eps: float,
               values: tuple | None = None):
    """Tendencies (d_t rho, d_t v, d_t G) of the full system on half-layout
    coefficient arrays (d_t G on the parallel grid's): the drift-advection
    tendency plus the forces -eps d_par phi + E_par, and dG/dt = E_par.
    `values`, the collocation values of rho and v, saves their transforms
    when the caller has them.

    d_t rho is a pure divergence so its k = 0 and exact k_perp = 0
    bookkeeping follow from the spectral derivative (zero at k = 0).
    """
    rho_vals, v_vals = values or (collocation_values(grid, rho, True),
                                  collocation_values(grid, v, True))
    forces = field_coeffs(grid, rho, eps)
    drho, dv = drift_advection(grid, rho_vals, v_vals, v,
                               forces.Eperp1, forces.Eperp2)
    dv -= forces.eps_dpar_phi
    dv[grid._par_line] += forces.Epar
    return drho, dv, forces.Epar


def wave_source(rho: SpectralField, v: SpectralField, forces: Forces,
                eps: float) -> SpectralField:
    """Source of the plasma-wave equation for the parallel field,

        g = d_par^2 <rho v^2>_perp - eps d_par(E_par d_par E_par)
            + d_par <rho (eps d_par phi)>_perp,

    a zero-mean parallel-only field (every term is a parallel derivative).

    Derivation: eps d_par E_par = <rho>_perp - 1, so eps d_t^2 d_par E_par
    = d_t^2 <rho>_perp; continuity gives d_t <rho>_perp = -d_par m with
    m = <rho v>_perp, and the perp-averaged conservative momentum equation
    gives d_t m = -d_par <rho v^2>_perp - <rho eps d_par phi>_perp
    + E_par <rho>_perp. Substituting <rho>_perp = 1 + eps d_par E_par
    yields the force signs above.
    """
    a = perp_average(product(rho, product(v, v)))
    b = product(forces.Epar, derivative(forces.Epar, 0))
    c = perp_average(product(rho, forces.eps_dpar_phi))
    return derivative(derivative(a, 0), 0) - eps * derivative(b, 0) \
        + derivative(c, 0)


def eps_dtE0(rho: SpectralField, v: SpectralField) -> SpectralField:
    """eps * d_t E_par at t = 0, derived from continuity:

        eps d_t E_par = -( <rho v>_perp - its parallel mean ).
    """
    m = perp_average(product(rho, v))
    c = np.array(m.coeffs, copy=True)
    c[0] = 0.0
    return SpectralField(m.grid, -c, m.real)


def step(state: EpsState, dt: float) -> EpsState:
    """Classical RK4 step on the half layout; G advances through the same
    stage quadrature. The conserved density mean is pinned to one
    afterwards."""
    grid, line = state.grid, state.G.grid
    values = (state.rho._values, state.v._values)
    rho, v, G = rk4_step(
        lambda y, c: tendencies(grid, y[0], y[1], state.eps,
                                values if c == 0.0 else None),
        (state.rho.half_coeffs, state.v.half_coeffs, state.G.half_coeffs), dt)
    rho[(0,) * grid.ndim] = 1.0
    rho, v = (SpectralField(grid, full_coeffs(grid, c)) for c in (rho, v))
    G = SpectralField(line, full_coeffs(line, G))
    check_finite((rho, v, G), state, dt, "eps")
    return EpsState(t=state.t + dt, eps=state.eps, rho=rho, v=v, G=G)


def energy(state: EpsState) -> float:
    """Conserved energy of the system:

        1/2 int rho v^2 dx
        + eps/2 int (|grad_perp phi|^2 + eps^2 |d_par phi|^2) dx
        + eps/2 int |d_par V|^2 dxpar.

    The kinetic integrand has bandwidth below the collocation Nyquist for
    dealiased states, so the grid mean is the exact integral; the field
    terms are Parseval sums. Conservation by the semi-discrete dynamics is
    exact when the cubic energy fluxes fit under the dealias cutoff
    (3 kmax < N/3 per axis); otherwise it holds up to that truncation.
    """
    grid, e = state.grid, state.eps
    rho_vals = inverse(state.rho)
    v_vals = inverse(state.v)
    kinetic = 0.5 * float(np.mean(rho_vals * v_vals**2))
    kpar = grid.mode_grid(grid.par_axis).astype(float)
    four_pi_sq = (2.0 * np.pi) ** 2
    phi2 = np.abs(phi_coeffs(grid, state.rho.coeffs, e)) ** 2
    perp_energy = four_pi_sq * float(np.sum(grid.kperp_sq * phi2))
    par_energy = four_pi_sq * float(np.sum(kpar**2 * phi2))
    kpar_line = grid.par_grid.modes(0).astype(float)
    V, _ = parallel_coeffs(grid, state.rho.coeffs, e)
    v_energy = four_pi_sq * float(np.sum(kpar_line**2 * np.abs(V) ** 2))
    return kinetic + 0.5 * e * (perp_energy + e**2 * par_energy) + 0.5 * e * v_energy


def mass(state) -> float:
    """Mean density of an eps or limit state (pinned to one)."""
    return mean(state.rho)


def parallel_field(state: EpsState) -> np.ndarray:
    """Coefficients of E_par."""
    return parallel_coeffs(state.grid, state.rho.coeffs, state.eps)[1]


def mean_current(state) -> np.ndarray:
    """Coefficients of <rho v>_perp of an eps or limit state (the limit's
    mean parallel current u-bar)."""
    return perp_average(product(state.rho, state.v)).coeffs


def diagnostic_probes(params: NormParams) -> dict:
    """Probes (functions of the state, see run) of the mass, the energy,
    the minimum density and the analytic norms |rho - 1|_delta, |v|_delta
    and |sqrt(eps) E_par|_delta."""
    d = params.delta
    return {
        "mass": mass,
        "energy": energy,
        "min_rho": EpsState.min_rho,
        "norm_rho_fluct": lambda st: analytic_norm(st.rho - constant(st.grid, 1.0), d),
        "norm_v": lambda st: analytic_norm(st.v, d),
        "norm_sqrt_eps_Epar": lambda st: analytic_norm(
            math.sqrt(st.eps) * SpectralField(st.grid.par_grid, parallel_field(st)), d),
    }


def diagnostics(state: EpsState, params: NormParams | None = None) -> dict:
    """The time and every diagnostic probe of one state."""
    probes = diagnostic_probes(params or NormParams())
    return {"t": state.t, **{name: probe(state) for name, probe in probes.items()}}


def run(state: EpsState, dt: float, n_steps: int, probes: dict) -> Trajectory:
    """Advance n_steps, recording each probe at t = 0 and after every step
    (see quadrature.evolve). A positivity breach is not fatal; NaN blow-up
    raises BlowUpError carrying the last valid state."""
    return evolve(step, state, dt, n_steps, probes)
