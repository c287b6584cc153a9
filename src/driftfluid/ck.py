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
arithmetic as a one-field call). The transport term is the drift-advection
tendency of the eps integrator (epsilon.drift_advection). The shrinking norm of a difference is two
matrix products over all (delta, t) pairs, and run_scheme records each
consecutive difference once on the newer iterate, where the contraction
report finds it again.

On a short enough slab (eta small) consecutive differences contract
geometrically in the shrinking analytic norms; the fixed point solves the
same system as the RK4 integrator. The slab length is eta (delta0 -
delta1): shrinking the strip-consumption rate eta both shortens the slab
and strengthens the weights, which is how the bisection helper below
finds a certified contraction rate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .epsilon import drift_advection
from .errors import ConfigError
from .poisson import field_coeffs
from .quadrature import cumulative_integral
from .spectral import (
    Grid,
    NormParams,
    SpectralField,
    collocation_values,
    embed_parallel,
    embed_parallel_coeffs,
    shrinking_norm,
)


@dataclass
class Iterate:
    """One iterate: trajectories over a fixed uniform time grid."""

    n: int
    eps: float
    times: np.ndarray
    rho: list[SpectralField]
    w: list[SpectralField]
    G: np.ndarray        # [n_t, n_par] coefficients
    Epar: np.ndarray     # [n_t, n_par] coefficients
    # (weak reference to the previous iterate, params, iterate_difference to
    # it), recorded by run_scheme; weak so that dropped iterates are freed
    diff: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def grid(self) -> Grid:
        return self.rho[0].grid

    def v(self, j: int) -> SpectralField:
        return self.w[j] + embed_parallel(
            SpectralField(self.grid.par_grid, self.G[j]), self.grid)


def time_grid(params: NormParams, delta1: float, dt_target: float,
              safety: float = 0.95) -> np.ndarray:
    """Uniform samples on [0, safety * eta * (delta0 - delta1)]."""
    if not params.delta0 > delta1 > 1.0:
        raise ConfigError("need 1 < delta1 < delta0")
    horizon = safety * params.eta * (params.delta0 - delta1)
    n_t = max(9, int(math.ceil(horizon / dt_target)) + 1)
    return np.linspace(0.0, horizon, n_t)


def _stack(fields: list[SpectralField]) -> np.ndarray:
    return np.stack([f.coeffs for f in fields])


def _unstack(coeffs: np.ndarray, grid: Grid, real: bool = True) -> list[SpectralField]:
    return [SpectralField(grid, c, real) for c in coeffs]


def initialize(rho0: SpectralField, v0: SpectralField, eps: float,
               times: np.ndarray) -> Iterate:
    """Constant-in-time zeroth iterate with its induced field integral."""
    times = np.asarray(times, dtype=float)
    grid = rho0.grid
    E0 = field_coeffs(grid, rho0.coeffs, eps).Epar
    G = times[:, None] * E0[None, :]
    w = _unstack(v0.coeffs - embed_parallel_coeffs(grid, G), grid)
    return Iterate(n=0, eps=eps, times=times, rho=[rho0] * len(times), w=w,
                   G=G, Epar=np.broadcast_to(E0, G.shape).copy())


def iterate(prev: Iterate, rho0: SpectralField, v0: SpectralField) -> Iterate:
    """One recursion step: quadrature of the previous iterate's tendencies,
    then a fresh field solve, all samples at once."""
    grid = prev.grid
    eps = prev.eps
    dt = float(prev.times[1] - prev.times[0])
    v = _stack(prev.w) + embed_parallel_coeffs(grid, prev.G)
    rho = _stack(prev.rho)
    forces = field_coeffs(grid, rho, eps)
    drho, dw = drift_advection(grid, collocation_values(grid, rho),
                               collocation_values(grid, v), v,
                               forces.Eperp1, forces.Eperp2)
    dw -= forces.eps_dpar_phi
    rho_new = rho0.coeffs[None] + cumulative_integral(drho, dt)
    w_new = v0.coeffs[None] + cumulative_integral(dw, dt)
    epar = field_coeffs(grid, rho_new, eps).Epar
    G_new = cumulative_integral(epar, dt)
    return Iterate(n=prev.n + 1, eps=eps, times=prev.times,
                   rho=_unstack(rho_new, grid), w=_unstack(w_new, grid),
                   G=G_new, Epar=epar)


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
    """Shrinking-norm distances between two iterates, per quantity."""
    times = a.times
    sq = math.sqrt(a.eps)
    return {
        "rho": shrinking_norm(times, _stack(a.rho) - _stack(b.rho), params),
        "w": shrinking_norm(times, _stack(a.w) - _stack(b.w), params),
        "G": shrinking_norm(times, a.G - b.G, params),
        "E": shrinking_norm(times, sq * (a.Epar - b.Epar), params),
    }


def _recorded_difference(a: Iterate, b: Iterate, params: NormParams) -> dict:
    """iterate_difference(a, b, params), reusing the one run_scheme
    recorded when it built a from b."""
    if a.diff is not None:
        prev, p, d = a.diff
        if prev() is b and p == params:
            return d
    return iterate_difference(a, b, params)


def contraction_report(iterates: list[Iterate],
                       params: NormParams) -> list[ContractionRow]:
    """Consecutive-difference norms and their ratios.

    Flags live in the rows: the paper-rate certificate is max ratio <= 1/2
    over the reported range, checked by the caller."""
    if len(iterates) < 3:
        raise ConfigError("need at least 3 iterates for a contraction report")
    rows = []
    prev_total = None
    for a, b in zip(iterates[1:], iterates[:-1]):
        d = _recorded_difference(a, b, params)
        total = max(d.values())
        ratio = float("nan") if prev_total is None else (
            total / prev_total if prev_total > 0 else float("inf"))
        rows.append(ContractionRow(n=a.n, d_rho=d["rho"], d_w=d["w"],
                                   d_G=d["G"], d_E=d["E"], total=total,
                                   ratio=ratio))
        prev_total = total
    return rows


def run_scheme(rho0: SpectralField, v0: SpectralField, eps: float,
               params: NormParams, delta1: float, dt_target: float,
               n_max: int = 40, tol: float = 1e-10,
               keep_all: bool = True):
    """Iterate to convergence (shrinking-norm difference below tol) or
    n_max; 2^-40 underflows double-precision differences anyway."""
    times = time_grid(params, delta1, dt_target)
    iterates = [initialize(rho0, v0, eps, times)]
    for _ in range(n_max):
        prev = iterates[-1]
        nxt = iterate(prev, rho0, v0)
        iterates.append(nxt)
        d = iterate_difference(nxt, prev, params)
        nxt.diff = (weakref.ref(prev), params, d)
        if max(d.values()) < tol:
            break
        if not keep_all and len(iterates) > 3:
            iterates.pop(0)
    return iterates


def max_ratio(iterates: list[Iterate], params: NormParams,
              first: int = 2, last: int | None = None) -> float:
    """Largest consecutive-difference ratio over iterations [first, last].

    A non-finite total in the range (a diverged iteration) gives +inf, so
    it can never certify a rate. Ratios after an exactly zero total (a
    converged tail, 0/0) are skipped."""
    rows = [r for r in contraction_report(iterates, params)
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
        its = run_scheme(rho0, v0, eps, p, delta1, dt_target,
                         n_max=n_probe, tol=0.0)
        return max_ratio(its, p, first=2, last=n_probe - 1) <= target

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
