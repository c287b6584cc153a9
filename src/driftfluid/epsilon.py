"""Time integration of the anisotropic drift-fluid system at fixed eps.

State is (rho, v) on a 3D (or shear-reduced) grid plus the running time
integral G of the parallel electric field E_par = -d_par V, advanced with
the same RK4 stages as the dynamical variables (Simpson on the stages).
The filtered current is w = v - G. Potentials and forces are derived from
rho on demand and never integrated. The transport part of the tendency,
drift_advection, is the one shared with the limit system, the CK
iteration and the line-grid reductions; each stage of it is one stacked
inverse and one stacked forward transform on small grids. A step is
quadrature.ensemble_step of this system's tendency, taken for an
ensemble of states at once (`steps`, the body quadrature.evolve calls),
with one eps and one dt per member: the stages run on band-layout
coefficient arrays (see spectral), and the first reuses any collocation
values a recording probe has cached on rho and v. `step` and `run` are
one-member calls of it.

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
from .poisson import Forces, check_eps, field_coeffs, parallel_coeffs, phi_coeffs
from .quadrature import Run, Trajectory, ensemble_step, evolve, solo
from .spectral import (
    PERP1,
    PERP2,
    Grid,
    NormParams,
    SpectralField,
    analytic_norm,
    band_to_half,
    block_rows,
    check_real,
    collocation_values,
    constant,
    dealias,
    dealiased_coeffs,
    derivative,
    derivative_coeffs,
    embed_parallel,
    inverse,
    mean,
    perp_average,
    product,
    product_coeffs,
    row_stack,
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

    def min_rho(self) -> float:
        return float(np.min(self.rho._values))


def make_eps_state(rho: SpectralField, v: SpectralField, eps: float,
                   adm_const: float | None = None) -> EpsState:
    """Validate and normalise initial data.

    Enforces mean(rho) = 1 (pinned), strict positivity on the collocation
    grid, dealiased inputs, and optionally the quasineutral admissibility
    bound |<rho>_perp - 1|_1 <= adm_const * sqrt(eps) in the Wiener norm.
    """
    check_eps(eps)
    if rho.grid != v.grid:
        raise ConfigError("rho and v must share a grid")
    check_real(v)
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


def dt_policy(eps: float,
              samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD) -> float:
    """dt = oscillation period / samples_per_period."""
    if not samples_per_period > 0:
        raise ConfigError("samples_per_period must be positive, got "
                          f"{samples_per_period}")
    return oscillation_period(eps) / samples_per_period


def oscillation_period(eps: float) -> float:
    return 2.0 * math.pi * math.sqrt(eps)


def drift_advection(grid: Grid, rho: np.ndarray, v: np.ndarray,
                    e1: np.ndarray | None = None, e2: np.ndarray | None = None,
                    values: tuple | None = None, pressure: bool = False) -> tuple:
    """The transport operator shared by the eps system, its limit, the CK
    iteration and the line-grid reductions: E x B drift in the
    perpendicular plane plus parallel advection,

        (-d_par(v rho) - div_perp(E_perp rho), -v d_par v - div_perp(E_perp v)),

    on coefficient arrays of real fields with common leading axes
    (members, phases: flattened into rows), all on the band layout, as the
    steppers pass them, or all on the half layout, whose modes outside the
    band are read too (see spectral). Every product is dealiased onto the
    band, and the tendencies are returned in the input's layout. E_perp =
    (e1, e2) is left out when not given, and on a grid without both
    perpendicular axes, where its divergence vanishes. `values` may hold
    rho's and v's values.

    Products are taken in groups of k = max(1, block_rows(grid) // rows).
    While a group lacks values, an inverse transform makes those of the next
    k fields in the order d_par v, rho, v, E_perp1, E_perp2; one blocked
    forward transform makes its products, each is summed into its tendency,
    and values no later product reads are dropped: one transform each way on
    4x4x16 and line grids, one field per call at 32x32x64.

    With `pressure`, the closure flux <rho (v v)>_perp (both products
    dealiased; one more transform each way) is returned third, on the
    parallel line per leading row.
    """
    par = grid.par_axis
    on_band = v.shape[-1] == grid.band.shape[-1]
    lead = v.shape[:v.ndim - grid.ndim]
    n = math.prod(lead)
    rho, v, e1, e2 = (a if a is None else row_stack(grid, a) for a in (rho, v, e1, e2))
    # fields 0 d_par v, 1 rho, 2 v, 3 E_perp1, 4 E_perp2 (row stacks): the
    # coefficients left to transform, in this order, and the values made
    coeffs = [derivative_coeffs(grid, v, par), rho, v, None, None]
    vals = [None] * 5
    if values is not None:
        vals[1:3], coeffs[1:3] = (row_stack(grid, a) for a in values), (None, None)
    # products (factor, factor, tendency: 0 rho, 1 v or None, axis of its
    # derivative or None); the first of each tendency sets it
    table = [(2, 0, 1, None), (2, 1, 0, par)]
    if e1 is not None and PERP1 in grid.axes and PERP2 in grid.axes:
        coeffs[3:] = e1, e2
        for f, axis in ((3, grid.axis_index(PERP1)), (4, grid.axis_index(PERP2))):
            table += [(f, 1, 0, axis), (f, 2, 1, axis)]
    table += [(2, 2, None, None)] * pressure
    k = max(1, block_rows(grid) // n)
    tend = [None, None]                           # d_t rho, d_t v
    for g in range(0, len(table), k):
        group = table[g:g + k]
        while any(vals[f] is None for p in group for f in p[:2]):
            take = [f for f, c in enumerate(coeffs) if c is not None][:k]
            made = collocation_values(grid, np.concatenate(
                [coeffs[f] for f in take]) if len(take) > 1 else coeffs[take[0]], True)
            for i, f in enumerate(take):
                vals[f], coeffs[f] = made[i * n:(i + 1) * n], None
            del made
        prods = np.empty((len(group) * n,) + grid.shape)
        for i, (a, b, *_) in enumerate(group):
            np.multiply(vals[a], vals[b], out=prods[i * n:(i + 1) * n])
        out = dealiased_coeffs(grid, prods, True)
        del prods
        for i, (*_, t, axis) in enumerate(group):
            part = out[i * n:(i + 1) * n]
            if axis is not None:
                part *= grid.band.derivative_mults[axis]
            if t is None:
                vv = part
            elif tend[t] is None:
                tend[t] = np.negative(part)
            else:
                tend[t] -= part
        del out, part                             # before the next group
        # rho's values outlive the table when rho (v v) follows it
        keep = {f for p in table[g + k:] for f in p[:2]} | ({1} if pressure else set())
        vals = [a if f in keep else None for f, a in enumerate(vals)]
    if pressure:
        tend.append(product_coeffs(grid, vals[1], collocation_values(grid, vv, True), True))
    result = [a.reshape(lead + grid.band.shape) for a in tend]
    if not on_band:
        result = [band_to_half(grid, a) for a in result]
    if pressure:
        result[2] = result[2][grid._par_line]
    return tuple(result)


def tendencies(grid: Grid, rho: np.ndarray, v: np.ndarray, eps: float,
               values: tuple | None = None):
    """Tendencies (d_t rho, d_t v, d_t G) of the full system on band- or
    half-layout coefficient arrays, in their layout (d_t G on the parallel
    grid's): the drift-advection tendency plus the forces
    -eps d_par phi + E_par, and dG/dt = E_par.
    `values`, the collocation values of rho and v, saves their transforms
    when the caller has them.

    d_t rho is a pure divergence so its k = 0 and exact k_perp = 0
    bookkeeping follow from the spectral derivative (zero at k = 0).
    """
    forces = field_coeffs(grid, rho, eps)
    drho, dv = drift_advection(grid, rho, v, forces.Eperp1, forces.Eperp2, values)
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


def steps(states: list, dts: list) -> list:
    """The eps system's step of an ensemble of states on one grid, each
    with its own eps and dt (quadrature.ensemble_step; see
    quadrature.evolve): G advances through the same stage quadrature, the
    first stage reuses the values of rho and v when every member has them
    cached, and the conserved density mean is pinned to one afterwards. A
    member's entry is its new state or its BlowUpError."""
    grid, line = states[0].grid, states[0].G.grid
    eps = [st.eps for st in states]
    (rho, v, G), errors = ensemble_step(
        lambda y, values: tendencies(grid, y[0], y[1], eps, values),
        states, dts, lambda st: (st.rho, st.v, st.G), "eps", cached=2)
    rho[(...,) + (0,) * grid.ndim] = 1.0
    return [err or EpsState(t=st.t + dt, eps=st.eps, rho=SpectralField(grid, rho[i]),
                            v=SpectralField(grid, v[i]), G=SpectralField(line, G[i]))
            for i, (st, dt, err) in enumerate(zip(states, dts, errors))]


def step(state: EpsState, dt: float) -> EpsState:
    """One RK4 step of one state (see steps); blow-up raises BlowUpError
    carrying `state`."""
    return solo(steps, state, dt)


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
    kinetic = 0.5 * float(np.mean(state.rho._values * state.v._values**2))
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
    (quadrature.evolve of one run). A positivity breach is not fatal; NaN
    blow-up raises BlowUpError carrying the last valid state."""
    return evolve(steps, [Run(state, dt, n_steps, probes)])[0]
