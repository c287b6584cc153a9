"""Composite experiments shared by the CLI runner and the acceptance
suite: the quasineutral convergence sweep, the oscillation-filtering
sweep, and the contraction study."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ck, epsilon, limit, oscillations
from .quadrature import Trajectory, states_at
from .spectral import (
    Grid,
    NormParams,
    SpectralField,
    embed_parallel,
    forward,
    l2_norm,
)


def matched_well_prepared_data(grid: Grid, amplitude: float = 0.05):
    """Initial data admissible for every eps and already on the limit
    constraint manifold: <rho>_perp = 1 exactly and <rho v>_perp = 0
    exactly (perpendicular structures on orthogonal modes)."""
    mesh = grid.meshgrid()
    x1 = mesh[grid.axis_index("perp1")]
    x2 = mesh[grid.axis_index("perp2")]
    xp = mesh[grid.par_axis]
    rho = 1.0 + amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp)
    v = amplitude * np.cos(2 * np.pi * x2) * np.sin(2 * np.pi * xp)
    return forward(grid, rho), forward(grid, v)


# what oscillation filtering reads off an eps run: E_par, and <rho v>_perp
# for the initial filtered primitive
FILTER_PROBES = {"Epar": epsilon.parallel_field, "mom_bar": epsilon.mean_current}


def _analyze(times, Epar, mom_bar, eps: float, par_grid: Grid,
             window_periods: int) -> oscillations.OscillationRecord:
    """oscillations.analyze of an eps run, the filtered primitive starting
    from the fluctuation of <rho v>_perp at t = 0."""
    W0 = np.array(mom_bar[0], copy=True)
    W0[0] = 0.0
    return oscillations.analyze(times, Epar, eps, SpectralField(par_grid, W0),
                                window_periods=window_periods)


class _EpsEntries:
    """Results with one entry per eps."""

    def strictly_decreasing(self, attr: str) -> bool:
        vals = [getattr(e, attr) for e in
                sorted(self.entries, key=lambda e: -e.eps)]
        return all(b < a for a, b in zip(vals, vals[1:]))


@dataclass
class SweepEntry:
    eps: float
    rho_error: float            # |rho_eps - rho|_L2 at the comparison time
    v_error_filtered: float     # |v_eps - osc. correctors - v|_L2
    v_error_raw: float
    residual: float             # averaged corrector-subtraction residual
    mass_drift: float
    energy_drift: float


@dataclass
class SweepResult(_EpsEntries):
    grid: Grid
    horizon: float
    compare_time: float
    entries: list[SweepEntry]
    # at the smallest eps: the limit run, with "mass" and constraint
    # "residual" probes over at least the horizon, and the demodulated
    # corrector record (two-period window)
    limit_trajectory: Trajectory
    correctors: oscillations.OscillationRecord


def quasineutral_sweep(eps_list, grid: Grid | None = None,
                       amplitude: float = 0.05, horizon: float = 2.5,
                       compare_time: float = 2.25,
                       average_range: tuple[float, float] = (0.5, 2.5),
                       samples_per_period: int = 120) -> SweepResult:
    """Convergence of the eps system to the limit system from matched
    well-prepared data.

    The correctors follow the limit theorem's construction: initial
    envelopes from the data (zero here, computed generically) transported
    by the mean parallel current of the limit flow. Reported per eps:
    density error and corrector-filtered velocity error at compare_time,
    and the corrector-subtraction residual averaged over average_range
    (common to all sweep members). Each eps and limit trajectory is run
    once; at the smallest eps both go on as long as the limit table and
    the demodulated correctors of the result need."""
    grid = grid or Grid.torus3d(4, 4, 16)
    rho0, v0 = matched_well_prepared_data(grid, amplitude)
    lim0 = limit.project_initial(rho0, v0)
    eps_min = min(eps_list)
    entries = []
    for eps in sorted(eps_list, reverse=True):
        dt = epsilon.dt_policy(eps, samples_per_period=samples_per_period)
        n1 = int(round(compare_time / dt))
        n = n1 + max(math.ceil((horizon - compare_time) / dt), 4)
        eps_probes = {**FILTER_PROBES, "mass": epsilon.mass,
                      "energy": epsilon.energy, "mid": states_at([n1])}
        lim_probes = {"ubar": epsilon.mean_current, "mid": states_at([n1])}
        n_eps = n_lim = n
        if eps == eps_min:
            # the demodulation spends one oscillation period on the
            # decomposition and two on its centred window
            n_corr = math.ceil(max(horizon, 3.5 * epsilon.oscillation_period(eps)) / dt)
            n_eps = max(n, n_corr)
            n_lim = max(n, math.ceil(horizon / dt))
            lim_probes["mass"] = epsilon.mass
            lim_probes["residual"] = lambda st: limit.constraint_residuals(st.rho, st.v)[1]
        traj = epsilon.run(epsilon.make_eps_state(rho0, v0, eps), dt, n_eps,
                           eps_probes)
        lim_traj = limit.run(lim0, dt, n_lim, lim_probes)
        if eps == eps_min:
            record = _analyze(traj.times[: n_corr + 1], traj["Epar"][: n_corr + 1],
                              traj["mom_bar"], eps, grid.par_grid, 2)
        times = traj.times[: n + 1]
        Epar = traj["Epar"][: n + 1]
        mass = traj["mass"][: n + 1]
        energy = traj["energy"][: n + 1]

        # correctors: initial data from the eps data, transport by the
        # limit flow's mean parallel current
        sq = math.sqrt(eps)
        E0 = SpectralField(grid.par_grid, sq * Epar[0])
        m0 = SpectralField(grid.par_grid, traj["mom_bar"][0])
        ep0, em0 = oscillations.corrector_initial_data(E0, m0)
        corr = oscillations.advect_correctors(ep0, em0, times,
                                              lim_traj["ubar"][: n + 1])

        res = oscillations.oscillation_residual(
            times, sq * Epar, corr.Eplus, corr.Eminus, eps)
        sel = (times >= average_range[0]) & (times <= average_range[1])

        j = int(np.argmin(np.abs(times - compare_time)))
        osc = oscillations.reconstruct_W(times[j: j + 1], corr.Eplus[j: j + 1],
                                         corr.Eminus[j: j + 1], eps)[0]
        osc_field = SpectralField(grid.par_grid, osc, real=False)
        eps_mid, lim_mid = traj["mid"][n1], lim_traj["mid"][n1]
        dv_raw = eps_mid.v - lim_mid.v
        dv_filt = dv_raw - embed_parallel(osc_field, grid)
        drho = eps_mid.rho - lim_mid.rho
        entries.append(SweepEntry(
            eps=float(eps),
            rho_error=l2_norm(drho),
            v_error_filtered=float(np.sqrt(np.sum(np.abs(dv_filt.coeffs) ** 2))),
            v_error_raw=l2_norm(dv_raw),
            residual=float(np.mean(res[sel])),
            mass_drift=float(np.max(np.abs(mass - 1.0))),
            energy_drift=float(np.max(np.abs(energy - energy[0]))),
        ))
    return SweepResult(grid=grid, horizon=horizon, compare_time=compare_time,
                       entries=entries, limit_trajectory=lim_traj,
                       correctors=record)


@dataclass
class FilterEntry:
    eps: float
    residual: float      # demodulated corrector subtraction, averaged
    w_average: float     # |time-average of W|_L2 (weak smallness)


@dataclass
class FilterResult(_EpsEntries):
    entries: list[FilterEntry]


def filtering_sweep(eps_list, n_par: int = 16, alpha: float = 0.05,
                    horizon: float = 11.0,
                    average_range: tuple[float, float] = (4.0, 4.6),
                    window_periods: int = 2) -> FilterResult:
    """Demodulation efficacy on ill-prepared (oscillation-carrying) but
    admissible data: rho = 1 + alpha sqrt(eps) cos(2 pi xpar) carries an
    O(1) envelope of sqrt(eps) E_par. Both the residual after subtracting
    the demodulated correctors and the filtered primitive W shrink along
    the sweep. Perp-independent data keeps the long horizon needed by the
    largest-eps demodulation window free of drift instabilities."""
    grid = Grid.shear2d(4, n_par)
    xp = grid.meshgrid()[grid.par_axis]
    entries = []
    for eps in sorted(eps_list, reverse=True):
        rho0 = forward(grid, 1.0 + alpha * math.sqrt(eps) * np.cos(2 * np.pi * xp))
        state = epsilon.make_eps_state(rho0, forward(grid, np.zeros(grid.shape)),
                                       eps, adm_const=2.0 * alpha)
        dt = epsilon.dt_policy(eps)
        n_steps = int(math.ceil(horizon / dt))
        traj = epsilon.run(state, dt, n_steps, FILTER_PROBES)
        record = _analyze(traj.times, traj["Epar"], traj["mom_bar"], eps,
                          grid.par_grid, window_periods)
        corr, dec = record.correctors, record.decomposition
        sel_r = (corr.times >= average_range[0]) & (corr.times <= average_range[1])
        # weak smallness: W oscillates at O(1) amplitude but its time
        # average over a fixed window shrinks like sqrt(eps)
        sel_w = (dec.times >= average_range[0]) & (dec.times <= average_range[1])
        w_mean_field = np.mean(dec.W[sel_w], axis=0)
        entries.append(FilterEntry(
            eps=float(eps),
            residual=float(np.mean(record.residual[sel_r])),
            w_average=float(np.sqrt(np.sum(np.abs(w_mean_field) ** 2)))))
    return FilterResult(entries=entries)


@dataclass
class ContractionStudy:
    eta: float
    rows: list
    max_ratio: float
    sup_l2_vs_rk4: float


def contraction_study(eps: float = 0.25, amplitude: float = 0.01,
                      grid: Grid | None = None,
                      params: NormParams | None = None,
                      delta1: float = 1.1, n_keep: int = 10,
                      target: float = 0.5) -> ContractionStudy:
    """Bisect eta for the halving contraction rate, report the
    consecutive-difference table, and compare the converged iterate with
    the RK4 trajectory on the same time grid."""
    grid = grid or Grid.torus3d(4, 4, 8)
    mesh = grid.meshgrid()
    x1 = mesh[grid.axis_index("perp1")]
    xp = mesh[grid.par_axis]
    rho0 = forward(grid, 1.0 + amplitude * math.sqrt(eps) * np.cos(2 * np.pi * xp)
                   + 0.5 * amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp))
    v0 = forward(grid, 0.5 * amplitude * np.sin(2 * np.pi * xp))
    state = epsilon.make_eps_state(rho0, v0, eps)
    params = params or NormParams(delta0=1.5, delta=1.1, eta=1.0, beta=0.5)
    dt_target = epsilon.dt_policy(eps)
    eta = ck.bisect_eta(state.rho, state.v, eps, params, delta1, dt_target,
                        target=target)
    tuned = replace(params, eta=eta)
    iterates, distances = ck.run_scheme(state.rho, state.v, eps, tuned, delta1,
                                        dt_target, n_max=max(n_keep, 12),
                                        tol=1e-12)

    times = iterates[0].times
    dt = float(times[1] - times[0])
    traj = epsilon.run(state, dt, len(times) - 1,
                       {"rho": lambda st: st.rho.coeffs, "v": lambda st: st.v.coeffs})
    final = iterates[-1]

    def l2_per_sample(coeffs):
        return np.sqrt(np.sum(np.abs(coeffs.reshape(len(times), -1)) ** 2, axis=1))

    sup = np.sqrt(l2_per_sample(final.rho - traj["rho"]) ** 2
                  + l2_per_sample(final.v - traj["v"]) ** 2)
    return ContractionStudy(eta=eta, rows=ck.contraction_report(distances),
                            max_ratio=ck.max_ratio(distances, first=2, last=8),
                            sup_l2_vs_rk4=float(np.max(sup)))
