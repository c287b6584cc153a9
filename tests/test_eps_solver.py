"""Time integration of the eps system: tendencies, conservation,
oscillation physics, and state validation."""

import math

import numpy as np
import pytest

from driftfluid.epsilon import (
    EpsState,
    dt_policy,
    energy,
    eps_dtE0,
    diagnostics,
    make_eps_state,
    mass,
    oscillation_period,
    run,
    step,
    tendencies,
    wave_source,
)
from driftfluid.errors import AdmissibilityError, BlowUpError
from driftfluid.poisson import solve_fields
from driftfluid.spectral import (
    Grid,
    NormParams,
    SpectralField,
    constant,
    forward,
    full_coeffs,
    inverse,
    l2_norm,
    perp_average,
    zeros,
)

from conftest import random_band_field
from oracles import fd8_derivative


def field_tendencies(rho, v, eps):
    """epsilon.tendencies of two fields (it runs on half-layout arrays),
    completed to full-layout fields."""
    grid, line = rho.grid, rho.grid.par_grid
    drho, dv, dG = tendencies(grid, rho.half_coeffs, v.half_coeffs, eps)
    return (SpectralField(grid, full_coeffs(grid, drho)),
            SpectralField(grid, full_coeffs(grid, dv)),
            SpectralField(line, full_coeffs(line, dG)))


def equilibrium_state(grid, eps=0.1):
    return make_eps_state(constant(grid, 1.0), zeros(grid), eps)


class TestTendencies:
    def test_equilibrium_is_stationary(self):
        st = equilibrium_state(Grid.torus3d(4, 4, 8))
        drho, dv, dE = field_tendencies(st.rho, st.v, st.eps)
        for f in (drho, dv, dE):
            assert np.max(np.abs(f.coeffs)) == 0.0

    def test_galilean_stream(self):
        g = Grid.torus3d(4, 4, 8)
        st = make_eps_state(constant(g, 1.0), constant(g, 0.7), 0.2)
        drho, dv, dE = field_tendencies(st.rho, st.v, st.eps)
        for f in (drho, dv, dE):
            assert np.max(np.abs(f.coeffs)) < 1e-14

    def test_matches_finite_difference_evaluation(self, rng):
        g = Grid.torus3d(32, 32, 32)
        eps = 0.3
        rho = random_band_field(g, 2, rng, amplitude=0.02, mean=1.0)
        v = random_band_field(g, 2, rng, amplitude=0.02)
        drho, dv, _ = field_tendencies(rho, v, eps)
        pots, forces = solve_fields(rho, eps)

        rv, vv = inverse(rho), inverse(v)
        e1, e2 = inverse(forces.Eperp1), inverse(forces.Eperp2)
        epar = inverse(forces.Epar)[None, None, :]
        eps_dphi = inverse(forces.eps_dpar_phi)

        drho_fd = -(fd8_derivative(e1 * rv, 0) + fd8_derivative(e2 * rv, 1)
                    + fd8_derivative(vv * rv, 2))
        dv_fd = -(fd8_derivative(e1 * vv, 0) + fd8_derivative(e2 * vv, 1)) \
            - vv * fd8_derivative(vv, 2) - eps_dphi + epar

        scale = np.max(np.abs(inverse(drho))) + np.max(np.abs(inverse(dv)))
        err = max(np.max(np.abs(inverse(drho) - drho_fd)),
                  np.max(np.abs(inverse(dv) - dv_fd)))
        assert err / scale < 2e-3   # FD8 truncation at this bandwidth

    def test_density_tendency_mean_free(self, rng):
        g = Grid.torus3d(4, 4, 16)
        rho = random_band_field(g, 1, rng, amplitude=0.1, mean=1.0)
        v = random_band_field(g, 1, rng, amplitude=0.1)
        drho, _, _ = field_tendencies(rho, v, 0.05)
        assert drho.coeffs[0, 0, 0] == 0.0


class TestStep:
    def test_equilibrium_unchanged(self):
        st = equilibrium_state(Grid.torus3d(4, 4, 8), eps=0.02)
        out = step(st, 0.01)
        assert np.max(np.abs(out.rho.coeffs - st.rho.coeffs)) < 1e-14
        assert np.max(np.abs(out.v.coeffs)) < 1e-14

    def test_single_mode_linear_oscillation(self):
        g = Grid.torus3d(4, 4, 16)
        eps = 1e-2
        a = 1e-4
        xp = g.meshgrid()[2]
        st = make_eps_state(forward(g, 1 + a * math.sqrt(eps) * np.cos(2 * np.pi * xp)),
                            zeros(g), eps)
        dt = dt_policy(eps)
        period = oscillation_period(eps)
        traj = run(st, dt, int(round(period / dt)),
                   {"rho_bar": lambda s: perp_average(s.rho).coeffs})
        omega = 1.0 / math.sqrt(eps)
        # linearised mode oracle: rho_hat oscillates at omega, v follows
        rb = traj["rho_bar"][:, 1]
        pred_r = rb[0] * np.cos(omega * traj.times)
        amp = abs(rb[0])
        assert np.max(np.abs(rb - pred_r)) / amp < 0.01
        # after one full period the mode returns to its start
        assert abs(rb[-1] - rb[0]) / amp < 0.01

    def test_richardson_fourth_order(self):
        g = Grid.torus3d(4, 4, 16)
        eps = 1e-2
        xp = g.meshgrid()[2]
        st = make_eps_state(
            forward(g, 1 + 0.05 * math.sqrt(eps) * np.cos(2 * np.pi * xp)),
            forward(g, 0.02 * np.sin(2 * np.pi * xp)), eps)
        # 80 samples per period puts RK4 inside its asymptotic regime
        dt = dt_policy(eps, samples_per_period=80)
        n = 48

        def final(dt_run, n_run):
            cur = st
            for _ in range(n_run):
                cur = step(cur, dt_run)
            return cur

        ref = final(dt / 16, 16 * n)
        e_coarse = l2_norm(final(dt, n).v - ref.v)
        e_fine = l2_norm(final(dt / 2, 2 * n).v - ref.v)
        assert e_coarse / e_fine == pytest.approx(16.0, rel=0.2)

    def test_mass_pinned_exactly(self, rng):
        g = Grid.torus3d(4, 4, 16)
        rho = random_band_field(g, 1, rng, amplitude=0.05, mean=1.0)
        v = random_band_field(g, 1, rng, amplitude=0.05)
        st = make_eps_state(rho, v, 0.04)
        traj = run(st, dt_policy(0.04), 50, {"mass": mass})
        assert np.max(np.abs(traj["mass"] - 1.0)) == 0.0

    def test_blow_up_reports_last_state(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        st = make_eps_state(forward(g, 1 + 0.4 * np.cos(2 * np.pi * xp)),
                            forward(g, 30.0 * np.sin(2 * np.pi * xp)), 1e-4)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                cur = st
                for _ in range(200):
                    cur = step(cur, 0.5)
        assert isinstance(info.value.last_state, EpsState)


class TestEnergy:
    def test_equilibrium_zero(self):
        assert energy(equilibrium_state(Grid.torus3d(4, 4, 8))) == 0.0

    def test_galilean_stream_value(self):
        g = Grid.torus3d(4, 4, 8)
        st = make_eps_state(constant(g, 1.0), constant(g, 0.8), 0.3)
        assert energy(st) == pytest.approx(0.32)

    def test_conserved_along_exact_dynamics(self, rng):
        """Finite-difference-in-time validation of the functional: over a
        short RK4 step the reservoirs exchange O(dt * rate) energy while
        the total moves at the integrator-error level. The grid is chosen
        so the cubic energy fluxes fit under the dealias cutoff (on
        coarser grids conservation holds only up to that truncation)."""
        g = Grid.torus3d(12, 12, 16)
        eps = 0.05
        rho = random_band_field(g, 1, rng, amplitude=0.04, mean=1.0)
        v = random_band_field(g, 1, rng, amplitude=0.04)
        st = make_eps_state(rho, v, eps)
        e0 = energy(st)
        dt = dt_policy(eps) / 4
        st1 = step(st, dt)
        total_flow = abs(energy(st1) - e0)
        kinetic0 = 0.5 * float(np.mean(inverse(st.rho) * inverse(st.v) ** 2))
        kinetic1 = 0.5 * float(np.mean(inverse(st1.rho) * inverse(st1.v) ** 2))
        reservoir_flow = abs(kinetic1 - kinetic0)
        assert reservoir_flow > 1e-7          # the exchange is really there
        assert total_flow < 1e-6 * reservoir_flow + 1e-14

    def test_long_run_drift_small(self):
        g = Grid.torus3d(4, 4, 16)
        eps = 1e-2
        xp = g.meshgrid()[2]
        st = make_eps_state(
            forward(g, 1 + 0.05 * math.sqrt(eps) * np.cos(2 * np.pi * xp)),
            zeros(g), eps)
        dt = dt_policy(eps)
        traj = run(st, dt, int(round(2 * oscillation_period(eps) / dt)),
                   {"energy": energy})
        rel = np.max(np.abs(traj["energy"] - traj["energy"][0])) / traj["energy"][0]
        assert rel < 2e-7


class TestRun:
    def test_records_only_the_requested_probes(self, monkeypatch):
        """A run computes what its probes ask for and nothing else: with the
        wave source broken, a run recording the mass still succeeds."""
        from driftfluid import epsilon

        def broken(*args, **kwargs):
            raise AssertionError("wave source computed without being asked for")

        monkeypatch.setattr(epsilon, "wave_source", broken)
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        st = make_eps_state(forward(g, 1 + 0.05 * np.cos(2 * np.pi * xp)),
                            forward(g, 0.02 * np.sin(2 * np.pi * xp)), 0.1)
        traj = run(st, dt_policy(0.1), 5, {"mass": mass})
        assert list(traj.series) == ["mass"]
        assert np.array_equal(traj["mass"], np.ones(6))


class TestDiagnostics:
    def test_equilibrium_record(self):
        st = equilibrium_state(Grid.torus3d(4, 4, 8))
        rec = diagnostics(st, NormParams(delta0=1.5, delta=1.2))
        assert rec["mass"] == pytest.approx(1.0)
        assert rec["norm_rho_fluct"] == 0.0
        assert rec["norm_v"] == 0.0
        assert rec["norm_sqrt_eps_Epar"] == 0.0
        assert rec["min_rho"] == pytest.approx(1.0)

    def test_symbol_arithmetic_norm(self):
        """|sqrt(eps) E_par|_delta for rho_bar - 1 = sqrt(eps) cos(2 pi x):
        the solve_V symbol gives exactly delta / (2 pi)."""
        g = Grid.torus3d(4, 4, 16)
        eps = 0.04
        xp = g.meshgrid()[2]
        st = make_eps_state(
            forward(g, 1 + math.sqrt(eps) * np.cos(2 * np.pi * xp)),
            zeros(g), eps)
        delta = 1.25
        rec = diagnostics(st, NormParams(delta0=1.5, delta=delta))
        assert rec["norm_sqrt_eps_Epar"] == pytest.approx(delta / (2 * np.pi),
                                                          rel=1e-12)


class TestStateValidation:
    def test_admissibility_enforced(self):
        g = Grid.torus3d(4, 4, 16)
        xp = g.meshgrid()[2]
        rho = forward(g, 1 + 0.5 * np.cos(2 * np.pi * xp))   # O(1) imbalance
        with pytest.raises(AdmissibilityError):
            make_eps_state(rho, zeros(g), eps=1e-4, adm_const=1.0)
        # same data is admissible at eps = 1 with a generous constant
        make_eps_state(rho, zeros(g), eps=1.0, adm_const=2.0)

    def test_nonpositive_density_rejected(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        with pytest.raises(AdmissibilityError):
            make_eps_state(forward(g, 1 + 1.5 * np.cos(2 * np.pi * xp)),
                           zeros(g), 0.1)

    def test_positivity_monitor_flags_not_raises(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        st = make_eps_state(forward(g, 1 + 0.9 * np.cos(2 * np.pi * xp)),
                            forward(g, 2.0 * np.sin(2 * np.pi * xp)), 0.5,
                            adm_const=10.0)
        traj = run(st, 0.02, 40, {"min_rho": EpsState.min_rho})
        assert traj.complete and len(traj["min_rho"]) == 41   # flag, not an exception


class TestWaveSourceAndFiltering:
    def test_source_mean_free(self, rng):
        g = Grid.torus3d(4, 4, 16)
        rho = random_band_field(g, 1, rng, amplitude=0.1, mean=1.0)
        v = random_band_field(g, 1, rng, amplitude=0.1)
        _, forces = solve_fields(rho, 0.05)
        src = wave_source(rho, v, forces, 0.05)
        assert abs(src.coeffs[0]) < 1e-15

    def test_eps_dtE0_identity(self, rng):
        """eps d_t E_par(0) equals the zero-mean part of -<rho v>_perp:
        cross-checked against a tiny finite difference of the solver."""
        g = Grid.torus3d(4, 4, 16)
        eps = 0.05
        rho = random_band_field(g, 1, rng, amplitude=0.05, mean=1.0)
        v = random_band_field(g, 1, rng, amplitude=0.05)
        st = make_eps_state(rho, v, eps)
        predicted = eps_dtE0(st.rho, st.v)
        dt = 1e-6
        _, f0 = solve_fields(st.rho, eps)
        st1 = step(st, dt)
        _, f1 = solve_fields(st1.rho, eps)
        fd = eps * (f1.Epar.coeffs - f0.Epar.coeffs) / dt
        assert np.max(np.abs(fd - predicted.coeffs)) < 1e-5

    def test_filtered_current_time_derivative_uniform_in_eps(self):
        """sup |d_t w| grows by less than 2x when eps is reduced 4x
        (w = v - G absorbs the oscillatory force)."""
        from driftfluid.experiments import matched_well_prepared_data
        g = Grid.torus3d(4, 4, 16)
        rho0, v0 = matched_well_prepared_data(g, 0.05)

        def sup_dtw(eps):
            st = make_eps_state(rho0, v0, eps)
            dt = dt_policy(eps)
            sup = 0.0
            cur = st
            from driftfluid.spectral import embed_parallel
            for _ in range(40):
                drho, dv, dE = field_tendencies(cur.rho, cur.v, cur.eps)
                dtw = dv - embed_parallel(dE, g)
                sup = max(sup, l2_norm(dtw))
                cur = step(cur, dt)
            return sup

        s1 = sup_dtw(4e-2)
        s2 = sup_dtw(1e-2)
        assert s2 < 2.0 * s1
