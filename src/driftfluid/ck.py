"""Cauchy-Kovalevskaya-style iterative solution construction.

Instead of stepping the PDE, the solution on a whole time slab is built by
recursion: the n+1-st iterate integrates (in time, by quadrature) the
tendencies evaluated on the n-th iterate,

    rho^{n+1}(t) = rho(0) + int_0^t [ -div_perp(Eperp^n rho^n)
                                      - d_par((w^n + G^n) rho^n) ] ds,
    w^{n+1}(t)   = w(0)   + int_0^t [ -div_perp(Eperp^n (w^n + G^n))
                                      - (w^n + G^n) d_par(w^n + G^n)
                                      - eps d_par phi^n ] ds,

after which the potentials of rho^{n+1} are solved and
G^{n+1}(t) = int_0^t E_par^{n+1} ds. The zeroth iterate freezes the data:
rho^0(t) = rho(0), G^0(t) = t E_par(0), w^0(t) = v(0) - G^0(t).

An iterate is evaluated over its whole time axis at once: the samples are
stacked along a leading axis, and the field solves, dealiased products and
derivatives of all of them are single array-level calls (the helpers behind
spectral.product and poisson.solve_fields, so every sample gets the same
arithmetic as a one-field call). An iterate holds its coefficient arrays
with that leading time axis, in the full layout; the recursion step cuts
them to their half layout (see spectral) once, computes on it, and
completes the new iterate once. The transport term is the drift-advection
tendency of the eps integrator (epsilon.drift_advection). The shrinking
norm of a difference is two matrix products over all (delta, t) pairs;
run_scheme returns each consecutive distance once, next to the iterates,
and the contraction report and the rate certificate read those distances.

On a short enough slab (eta small) consecutive differences contract
geometrically in the shrinking analytic norms; the fixed point solves the
same system as the RK4 integrator. The slab length is eta (delta0 -
delta1): shrinking the strip-consumption rate eta both shortens the slab
and strengthens the weights, which is how the bisection helper below
finds a certified contraction rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .epsilon import drift_advection
from .errors import ConfigError
from .poisson import field_coeffs, parallel_coeffs
from .quadrature import cumulative_integral
from .spectral import (
    Grid,
    NormParams,
    SpectralField,
    collocation_values,
    embed_parallel_coeffs,
    full_coeffs,
    shrinking_norm,
)


@dataclass
class Iterate:
    """One iterate: coefficient trajectories over a fixed uniform time grid,
    stacked along a leading time axis."""

    n: int
    eps: float
    grid: Grid
    times: np.ndarray
    rho: np.ndarray      # [n_t, *grid.shape]
    w: np.ndarray        # [n_t, *grid.shape]
    G: np.ndarray        # [n_t, n_par]
    Epar: np.ndarray     # [n_t, n_par]

    @property
    def v(self) -> np.ndarray:
        """Velocity coefficients w + G, [n_t, *grid.shape]."""
        return self.w + embed_parallel_coeffs(self.grid, self.G)


def time_grid(params: NormParams, delta1: float, dt_target: float,
              safety: float = 0.95) -> np.ndarray:
    """Uniform samples on [0, safety * eta * (delta0 - delta1)]."""
    if not params.delta0 > delta1 > 1.0:
        raise ConfigError("need 1 < delta1 < delta0")
    horizon = safety * params.eta * (params.delta0 - delta1)
    n_t = max(9, int(math.ceil(horizon / dt_target)) + 1)
    return np.linspace(0.0, horizon, n_t)


def initialize(rho0: SpectralField, v0: SpectralField, eps: float,
               times: np.ndarray) -> Iterate:
    """Constant-in-time zeroth iterate with its induced field integral."""
    times = np.asarray(times, dtype=float)
    grid = rho0.grid
    E0 = parallel_coeffs(grid, rho0.coeffs, eps)[1]
    G = times[:, None] * E0[None, :]
    return Iterate(n=0, eps=eps, grid=grid, times=times,
                   rho=np.broadcast_to(rho0.coeffs, (len(times), *grid.shape)),
                   w=v0.coeffs - embed_parallel_coeffs(grid, G), G=G,
                   Epar=np.broadcast_to(E0, G.shape))


def iterate(prev: Iterate, rho0: SpectralField, v0: SpectralField) -> Iterate:
    """One recursion step: quadrature of the previous iterate's tendencies,
    then a fresh field solve, all samples at once on the half layout."""
    grid, line = prev.grid, prev.grid.par_grid
    eps = prev.eps
    dt = float(prev.times[1] - prev.times[0])
    m = grid.half.shape[-1]
    rho, v = prev.rho[..., :m], prev.v[..., :m]
    forces = field_coeffs(grid, rho, eps)
    drho, dw = drift_advection(grid, collocation_values(grid, rho, True),
                               collocation_values(grid, v, True), v,
                               forces.Eperp1, forces.Eperp2)
    dw -= forces.eps_dpar_phi
    rho = rho0.half_coeffs[None] + cumulative_integral(drho, dt)
    w = v0.half_coeffs[None] + cumulative_integral(dw, dt)
    epar = parallel_coeffs(grid, rho, eps)[1]
    return Iterate(n=prev.n + 1, eps=eps, grid=grid, times=prev.times,
                   rho=full_coeffs(grid, rho), w=full_coeffs(grid, w),
                   G=full_coeffs(line, cumulative_integral(epar, dt)),
                   Epar=full_coeffs(line, epar))


@dataclass
class ContractionRow:
    n: int
    d_rho: float
    d_w: float
    d_G: float
    d_E: float
    total: float
    ratio: float            # total_n / total_{n-1}, nan for the first row


def iterate_difference(a: Iterate, b: Iterate, params: NormParams) -> dict:
    """Shrinking-norm distances between two iterates, per quantity. A
    non-finite coefficient gives +inf (see shrinking_norm), so the invalid
    operations it meets on the way are expected."""
    times = a.times
    sq = math.sqrt(a.eps)
    with np.errstate(invalid="ignore"):
        return {
            "rho": shrinking_norm(times, a.rho - b.rho, params),
            "w": shrinking_norm(times, a.w - b.w, params),
            "G": shrinking_norm(times, a.G - b.G, params),
            "E": shrinking_norm(times, sq * (a.Epar - b.Epar), params),
        }


def contraction_report(distances: list[dict]) -> list[ContractionRow]:
    """Consecutive-difference norms and their ratios, from the distances
    of run_scheme (distances[n - 1] between iterates n and n - 1).

    Flags live in the rows: the paper-rate certificate is max ratio <= 1/2
    over the reported range, checked by the caller."""
    if len(distances) < 2:
        raise ConfigError("need at least 3 iterates for a contraction report")
    rows = []
    prev_total = None
    for n, d in enumerate(distances, start=1):
        total = max(d.values())
        ratio = float("nan") if prev_total is None else (
            total / prev_total if prev_total > 0 else float("inf"))
        rows.append(ContractionRow(n=n, d_rho=d["rho"], d_w=d["w"],
                                   d_G=d["G"], d_E=d["E"], total=total,
                                   ratio=ratio))
        prev_total = total
    return rows


def run_scheme(rho0: SpectralField, v0: SpectralField, eps: float,
               params: NormParams, delta1: float, dt_target: float,
               n_max: int = 40, tol: float = 1e-10):
    """Iterate to convergence (shrinking-norm difference below tol) or
    n_max; 2^-40 underflows double-precision differences anyway.

    Returns (iterates, distances), distances[n - 1] being the
    iterate_difference between iterates n and n - 1 under params."""
    times = time_grid(params, delta1, dt_target)
    iterates = [initialize(rho0, v0, eps, times)]
    distances = []
    for _ in range(n_max):
        iterates.append(iterate(iterates[-1], rho0, v0))
        distances.append(iterate_difference(iterates[-1], iterates[-2], params))
        if max(distances[-1].values()) < tol:
            break
    return iterates, distances


def max_ratio(distances: list[dict], first: int = 2,
              last: int | None = None) -> float:
    """Largest consecutive-difference ratio over iterations [first, last].

    A non-finite total in the range (a diverged iteration) gives +inf, so
    it can never certify a rate. Ratios after an exactly zero total (a
    converged tail, 0/0) are skipped."""
    rows = [r for r in contraction_report(distances)
            if r.n >= first and (last is None or r.n <= last)]
    if any(not math.isfinite(r.total) for r in rows):
        return math.inf
    picked = [r.ratio for r in rows if math.isfinite(r.ratio)]
    if not picked:
        return math.inf
    return max(picked)


def bisect_eta(rho0: SpectralField, v0: SpectralField, eps: float,
               params: NormParams, delta1: float, dt_target: float,
               target: float = 0.5, n_probe: int = 7, n_bisect: int = 10,
               eta_max: float = 64.0) -> float:
    """Largest eta (within bisection resolution) whose first n_probe
    iterations contract at rate <= target in the shrinking norms. The
    underlying theory only asserts that some small eta works, so the
    search starts from params.eta, brackets by doubling/halving, then
    bisects."""

    def feasible(eta: float) -> bool:
        p = replace(params, eta=eta)
        _, distances = run_scheme(rho0, v0, eps, p, delta1, dt_target,
                                  n_max=n_probe, tol=0.0)
        return max_ratio(distances, first=2, last=n_probe - 1) <= target

    eta = params.eta
    if feasible(eta):
        lo = eta
        hi = None
        while eta < eta_max:
            eta *= 2.0
            if not feasible(eta):
                hi = eta
                break
            lo = eta
        if hi is None:
            return lo
    else:
        while eta > 1e-8:
            eta *= 0.5
            if feasible(eta):
                break
        else:
            raise ConfigError("no contracting eta found above 1e-8")
        lo, hi = eta, eta * 2.0
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
