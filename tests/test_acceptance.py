"""Acceptance gate: one test per criterion, each printed as a single
pass/fail line with its runtime. Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete.

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from driftfluid import epsilon, experiments, limit, oscillations, toymodel, twostream
from driftfluid.poisson import V_coeffs, phi_coeffs, solve_fields
from driftfluid.spectral import (
    Grid,
    SpectralField,
    analytic_norm,
    derivative,
    forward,
    inverse,
    product,
    zeros,
)

from conftest import random_band_field
from oracles import Euler2DReference


def _report(number, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number:2d}] {status}  {description} "
          f"({elapsed:.2f} s / budget {budget:.0f} s)")
    assert ok, f"criterion {number}: {description}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.2f} s"


def test_criterion_01_spectral_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    g = Grid.torus3d(8, 8, 8)
    values = rng.standard_normal(g.shape)
    round_trip = np.max(np.abs(inverse(forward(g, values)) - values))

    rho = random_band_field(g, 3, rng, amplitude=0.2, mean=1.0)
    worst_phi = 0.0
    for eps in (1.0, 0.1):
        phi = SpectralField(g, phi_coeffs(g, rho.coeffs, eps))
        lhs = (-eps**2 * derivative(derivative(phi, "par"), "par")
               - derivative(derivative(phi, "perp1"), "perp1")
               - derivative(derivative(phi, "perp2"), "perp2"))
        target = np.array(rho.coeffs, copy=True)
        target[0, 0, :] = 0.0
        worst_phi = max(worst_phi, float(np.max(np.abs(lhs.coeffs - target))))

    line = Grid.line(8)
    rho_bar = random_band_field(line, 2, rng, amplitude=0.2, mean=1.0)
    worst_v = 0.0
    for eps in (1.0, 0.1):
        V = SpectralField(line, V_coeffs(line, rho_bar.coeffs, eps))
        lhs = -eps * derivative(derivative(V, 0), 0)
        target = np.array(rho_bar.coeffs, copy=True)
        target[0] = 0.0
        worst_v = max(worst_v, float(np.max(np.abs(lhs.coeffs - target))))

    ok = round_trip <= 1e-12 and worst_phi <= 1e-11 and worst_v <= 1e-11
    _report(1, "transform round-trip and Poisson forward operators",
            ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_analytic_norm_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    g = Grid.torus3d(8, 8, 8)
    violations = 0
    for _ in range(200):
        f = random_band_field(g, 2, rng)
        h = random_band_field(g, 2, rng)
        lo, hi = np.sort(1.0 + rng.random(2) * 0.8 + 1e-3)
        for delta in (1.0, lo, hi):
            if analytic_norm(product(f, h), delta) > \
                    analytic_norm(f, delta) * analytic_norm(h, delta) + 1e-10:
                violations += 1
        axis = int(rng.integers(0, 3))
        lhs = analytic_norm(derivative(f, axis), lo) / (2 * np.pi)
        if lhs > hi / (hi - lo) * analytic_norm(f, hi) + 1e-10:
            violations += 1
    _report(2, "Banach algebra and derivative-loss inequalities, 200 pairs",
            violations == 0, time.perf_counter() - t0, 10.0)


def test_criterion_03_symbol_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    g = Grid.torus3d(8, 8, 8)
    ok = True
    for eps in (1.0, 0.1, 0.01):
        for _ in range(50):
            rho = random_band_field(g, 3, rng, amplitude=0.5, mean=1.0)
            target = np.array(rho.coeffs, copy=True)
            target[0, 0, :] = 0.0
            _, forces = solve_fields(rho, eps)
            mag = np.sqrt(np.abs(forces.Eperp1.coeffs) ** 2
                          + np.abs(forces.Eperp2.coeffs) ** 2)
            ok &= bool(np.all(mag <= np.abs(target) + 1e-13))
            ok &= bool(np.all(np.abs(forces.eps_dpar_phi.coeffs)
                              <= 0.5 * np.abs(target) + 1e-13))
    _report(3, "mode-wise perpendicular and parallel force bounds",
            ok, time.perf_counter() - t0, 5.0)


def _single_mode_run(eps, n_periods, amplitude=0.05):
    g = Grid.torus3d(4, 4, 16)
    xp = g.meshgrid()[2]
    st = epsilon.make_eps_state(
        forward(g, 1 + amplitude * math.sqrt(eps) * np.cos(2 * np.pi * xp)),
        zeros(g), eps, adm_const=2 * amplitude)
    dt = epsilon.dt_policy(eps)
    n = int(round(n_periods * epsilon.oscillation_period(eps) / dt))
    return epsilon.run(st, dt, n, {"Epar": epsilon.parallel_field,
                                   "energy": epsilon.energy}), st


def test_criterion_04_oscillation_frequency():
    t0 = time.perf_counter()
    eps = 1e-2
    traj, _ = _single_mode_run(eps, 20)
    series = math.sqrt(eps) * traj["Epar"][:, 1]
    series = series - series.mean()
    amp = np.abs(np.fft.fft(series))
    freqs = 2 * np.pi * np.fft.fftfreq(len(series), d=traj.dt)
    half = len(series) // 2
    peak = freqs[int(np.argmax(amp[:half]))]
    bin_width = 2 * np.pi / (traj.times[-1] - traj.times[0])
    ok = abs(peak - 1.0 / math.sqrt(eps)) <= bin_width
    _report(4, "time-FFT peak of sqrt(eps) E_par at 1/sqrt(eps) within one bin",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_05_duhamel_consistency():
    t0 = time.perf_counter()
    eps = 1e-2
    g = Grid.torus3d(4, 4, 16)
    x1, x2, xp = g.meshgrid()
    rho0 = forward(g, 1 + 0.05 * math.sqrt(eps) * np.cos(2 * np.pi * xp)
                   + 0.04 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp))
    v0 = forward(g, 0.02 * np.sin(2 * np.pi * xp) + 0.02 * np.cos(2 * np.pi * x2))
    st = epsilon.make_eps_state(rho0, v0, eps)
    dt = epsilon.dt_policy(eps)
    n = int(round(2 * epsilon.oscillation_period(eps) / dt))
    probes = {"Epar": epsilon.parallel_field,
              "source": lambda s: epsilon.wave_source(
                  s.rho, s.v, solve_fields(s.rho, s.eps)[1], s.eps).coeffs}
    traj = epsilon.run(st, dt, n, probes)
    src = oscillations.WaveSource(grid=g.par_grid, times=traj.times,
                                  coeffs=traj["source"])
    rec = oscillations.duhamel_sqrt_eps_E(
        src, eps, SpectralField(g.par_grid, traj["Epar"][0]),
        epsilon.eps_dtE0(st.rho, st.v))
    sqrt_eps_Epar = math.sqrt(eps) * traj["Epar"]
    err = float(np.max(np.abs(rec - sqrt_eps_Epar)))
    refined = epsilon.run(st, dt / 2, 2 * n, {"Epar": epsilon.parallel_field})
    richardson = float(np.max(np.abs(sqrt_eps_Epar - math.sqrt(eps)
                                     * refined["Epar"][::2]))) * 16.0 / 15.0
    ok = err <= 5.0 * richardson
    _report(5, f"wave-equation reconstruction error {err:.2e} within 5x "
            f"Richardson estimate {richardson:.2e}",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_energy_conservation():
    t0 = time.perf_counter()
    eps = 1e-2
    traj, _ = _single_mode_run(eps, 10)
    rel_drift = float(np.max(np.abs(traj["energy"] - traj["energy"][0]))
                      / traj["energy"][0])

    grid = Grid.line(32)
    st = toymodel.dichotomy_data(grid, 1e-2, streaming=0.4)
    dt = 2 * math.pi * 0.1 / 120
    toy = toymodel.run(st, dt, 240, {"energy": toymodel.energy})
    max_increase = float(np.max(np.diff(toy["energy"]), initial=0.0))

    ok = rel_drift < 1e-6 and max_increase < 1e-8
    _report(6, f"energy drift {rel_drift:.2e} < 1e-6 over 10 periods; "
            f"toy energy non-increasing (max increase {max_increase:.1e})",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_07_contraction():
    t0 = time.perf_counter()
    study = experiments.contraction_study(eps=0.25, amplitude=0.01)
    ratios_ok = study.max_ratio <= 0.5
    fp_ok = study.sup_l2_vs_rk4 <= 1e-6
    _report(7, f"bisected eta {study.eta:.3f}: ratios (n = 2..8) max "
            f"{study.max_ratio:.3f} <= 0.5; converged iterate vs RK4 "
            f"{study.sup_l2_vs_rk4:.2e} <= 1e-6",
            ratios_ok and fp_ok, time.perf_counter() - t0, 120.0)


def test_criterion_08_quasineutral_convergence():
    t0 = time.perf_counter()
    res = experiments.quasineutral_sweep([1e-1, 2.5e-2, 6.25e-3])
    ok = (res.strictly_decreasing("rho_error")
          and res.strictly_decreasing("v_error_filtered")
          and res.strictly_decreasing("residual"))
    desc = "; ".join(f"eps={e.eps:g}: rho {e.rho_error:.2e}, "
                     f"v {e.v_error_filtered:.2e}, res {e.residual:.2e}"
                     for e in res.entries)
    _report(8, f"strict decrease along the sweep ({desc})",
            ok, time.perf_counter() - t0, 300.0)


def test_criterion_09_ill_posedness_signature():
    t0 = time.perf_counter()
    bg = (0.5, 1.0, -1.0)
    rates = np.array([twostream.max_growth_rate(bg, k) / k for k in (1, 2, 3, 4)])
    linear_ok = float(np.max(np.abs(rates - rates[0])) / rates[0]) < 1e-6

    res = twostream.growth_experiment(bg, k_max=5, horizon=2.5,
                                      l2_amplitude=1e-8)
    meas_ok = all(abs(r.sigma_meas - r.sigma_lin.real) <= 0.1 * r.sigma_lin.real
                  for r in res.rows)

    t_analytic = twostream.survival_time(bg, "analytic", 0.3, k_max=10,
                                         l2_amplitude=1e-7, n_par=32, seed=3)
    t_algebraic = twostream.survival_time(bg, "algebraic", 1.5, k_max=10,
                                          l2_amplitude=1e-7, n_par=32, seed=3)
    seed_ok = (t_analytic is not None and t_algebraic is not None
               and t_analytic >= 2.0 * t_algebraic)
    _report(9, f"Re sigma/k constant; sigma_meas within 10%; analytic seed "
            f"survives {t_analytic / t_algebraic:.1f}x longer",
            linear_ok and meas_ok and seed_ok, time.perf_counter() - t0, 120.0)


def test_criterion_10_dichotomy():
    t0 = time.perf_counter()
    report = toymodel.dichotomy_experiment([1e-1, 1e-2, 1e-3])
    ok = (report["stable_strictly_decreasing"]
          and report["unstable_nondecreasing"]
          and report["unstable_stays_order_one"])
    stable = [report["stable"][e]["H_final"] for e in
              sorted(report["eps"], reverse=True)]
    _report(10, f"stable branch H(T) strictly decreasing "
            f"({', '.join(f'{v:.1e}' for v in stable)}); unstable branch "
            "pinned at its streaming energy",
            ok, time.perf_counter() - t0, 120.0)


def test_criterion_11_reductions():
    t0 = time.perf_counter()
    # parallel-independent data against the standalone 2D Euler reference
    n1 = n2 = 16
    g = Grid.torus3d(n1, n2, 4)
    x1, x2, _ = g.meshgrid()
    w_vals = 0.3 * np.cos(2 * np.pi * x1) + 0.2 * np.sin(2 * np.pi * x2) \
        + 0.15 * np.cos(2 * np.pi * (x1 + x2))
    v_vals = 0.1 * np.cos(2 * np.pi * x2)
    st = limit.project_initial(forward(g, 1.0 + w_vals), forward(g, v_vals))
    dt = 0.01
    traj = limit.run(st, dt, 100, {})
    ref = Euler2DReference(n1, n2)
    w_hat = np.fft.fft2(w_vals[:, :, 0]) * ref.mask
    s_hat = np.fft.fft2(v_vals[:, :, 0]) * ref.mask
    for _ in range(100):
        w_hat, s_hat = ref.step(w_hat, s_hat, dt)
    euler_err = max(
        float(np.max(np.abs(inverse(traj.final_state.rho)[:, :, 0]
                            - 1.0 - np.fft.ifft2(w_hat).real))),
        float(np.max(np.abs(inverse(traj.final_state.v)[:, :, 0]
                            - np.fft.ifft2(s_hat).real))))

    # shear-flow two-slab embedding against the two-phase module
    gs = Grid.shear2d(4, 32)
    line = gs.par_grid
    x = line.coordinates(0)
    rho1 = forward(line, 0.5 + 0.05 * np.cos(2 * np.pi * x))
    # moderate stream contrast: the exponential (in k |v1 - v2|) growth of
    # rounding-level constraint defects stays below the target over 100 steps
    v1 = forward(line, 0.4 * np.ones(32))
    v2 = forward(line, (0.0 - inverse(rho1) * 0.4) / (1.0 - inverse(rho1)))
    tp = twostream.make_two_phase(rho1, v1, v2)
    lim_state = limit.embed_two_phase(rho1, v1, v2, gs)
    dt2 = 2e-3
    for _ in range(100):
        tp = twostream.step(tp, dt2)
    traj2 = limit.run(lim_state, dt2, 100, {})
    r1b, v1b, v2b = limit.restrict_two_phase(traj2.final_state)
    shear_err = max(float(np.max(np.abs(r1b.coeffs - tp.rho1.coeffs))),
                    float(np.max(np.abs(v1b.coeffs - tp.v1.coeffs))),
                    float(np.max(np.abs(v2b.coeffs - tp.v2.coeffs))))

    ok = euler_err <= 1e-8 and shear_err <= 1e-8
    _report(11, f"2D Euler reduction err {euler_err:.1e} <= 1e-8; two-phase "
            f"shear embedding err {shear_err:.1e} <= 1e-8",
            ok, time.perf_counter() - t0, 60.0)
