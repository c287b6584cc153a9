"""Two-phase counter-streaming system: closure, conservation, the
linearised symbol, and the nonlinear growth measurements."""

import math

import numpy as np
import pytest

from driftfluid import toymodel
from driftfluid.epsilon import drift_advection
from driftfluid.errors import ConfigError
from driftfluid.limit import pressure_gradient_coeffs
from driftfluid.quadrature import Run, evolve
from driftfluid.spectral import (
    Grid,
    SpectralField,
    collocation_values,
    derivative,
    forward,
    full_coeffs,
    inverse,
    l2_norm,
    mean,
    product_coeffs,
)
from driftfluid.twostream import (
    decay_profile,
    growth_experiment,
    linear_growth,
    make_two_phase,
    max_growth_rate,
    mode_matched_points,
    run,
    step,
    survival_time,
    seeded_state,
    tendencies,
)

from oracles import two_phase_field_step


def half(st):
    """The arrays a two-phase step advances: the half-layout coefficients
    of rho1 and of [v1, v2], stacked on a leading phase axis."""
    return st.rho1.half_coeffs, np.stack([st.v1.half_coeffs, st.v2.half_coeffs])


def field_tendencies(st):
    """twostream.tendencies of a state (it runs on half-layout arrays with
    the velocities stacked), completed to full-layout fields."""
    grid = st.grid
    drho1, dv = tendencies(grid, *half(st))
    return (SpectralField(grid, full_coeffs(grid, drho1)),
            *(SpectralField(grid, c) for c in full_coeffs(grid, dv)))


def constant_state(npar, r1, v1, v2):
    grid = Grid.line(npar)
    ones = np.ones(npar)
    return make_two_phase(forward(grid, r1 * ones), forward(grid, v1 * ones),
                          forward(grid, v2 * ones))


class TestTendencies:
    def test_rigid_translation(self):
        st = constant_state(16, 0.5, 0.7, 0.7)
        for d in field_tendencies(st):
            assert np.max(np.abs(d.coeffs)) < 1e-14

    def test_stationary_counter_stream(self):
        st = constant_state(16, 0.5, 1.0, -1.0)
        for d in field_tendencies(st):
            assert np.max(np.abs(d.coeffs)) < 1e-14

    def test_interior_guard(self):
        grid = Grid.line(16)
        x = grid.coordinates(0)
        rho1 = forward(grid, 0.5 + 0.6 * np.cos(2 * np.pi * x))
        with pytest.raises(ConfigError):
            make_two_phase(rho1, forward(grid, np.ones(16)),
                           forward(grid, -np.ones(16)))


    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_steps_match_field_reference(self, n):
        """The stacked half-layout step reproduces the field-level
        reference to rounding: the pressure is summed per phase after its
        derivative rather than before."""
        st = seeded_state(Grid.line(n), (0.5, 1.0, -1.0), "analytic", 0.5, 4,
                          1e-2, seed=n)
        ref = (st.rho1, st.v1, st.v2)
        dt = 2e-3
        for _ in range(4):
            st = step(st, dt)
            ref = two_phase_field_step(*ref, dt)
        for new, old in zip((st.rho1, st.v1, st.v2), ref):
            scale = np.max(np.abs(old.coeffs))
            assert np.max(np.abs(new.coeffs - old.coeffs)) <= 1e-14 * scale


class TestConservation:
    def test_phase_masses(self):
        grid = Grid.line(32)
        x = grid.coordinates(0)
        rho1 = forward(grid, 0.5 + 0.05 * np.cos(2 * np.pi * x))
        v1 = forward(grid, 0.6 * np.ones(32))
        v2_vals = (0.0 - inverse(rho1) * 0.6) / (1.0 - inverse(rho1))
        st = make_two_phase(rho1, v1, forward(grid, v2_vals))
        traj = run(st, 2e-3, 100, {"mass1": lambda s: mean(s.rho1)})
        assert np.max(np.abs(traj["mass1"] - traj["mass1"][0])) < 1e-12

    def test_momentum_flux_stays_small(self):
        grid = Grid.line(32)
        x = grid.coordinates(0)
        rho1 = forward(grid, 0.5 + 0.02 * np.cos(2 * np.pi * x))
        v1 = forward(grid, 0.3 * np.ones(32))
        v2_vals = (0.0 - inverse(rho1) * 0.3) / (1.0 - inverse(rho1))
        st = make_two_phase(rho1, v1, forward(grid, v2_vals))

        def momentum_flux_residual(s):
            """|d_par(rho1 v1 + rho2 v2)| in L2, rho2 = 1 - rho1."""
            rho1, v = half(s)
            rho = collocation_values(grid, rho1, True)
            flux = product_coeffs(grid, np.stack([rho, 1.0 - rho]),
                                  collocation_values(grid, v, True), True).sum(axis=0)
            return l2_norm(derivative(SpectralField(grid, full_coeffs(grid, flux)), 0))

        assert momentum_flux_residual(st) < 1e-13
        traj = run(st, 2e-3, 100, {"flux_residual": momentum_flux_residual})
        assert np.max(traj["flux_residual"]) < 1e-8

    def test_pressure_gradient_zero_mean(self):
        grid = Grid.line(32)
        x = grid.coordinates(0)
        st = make_two_phase(forward(grid, 0.5 + 0.1 * np.sin(2 * np.pi * x)),
                            forward(grid, 1.0 + 0.1 * np.cos(2 * np.pi * x)),
                            forward(grid, -np.ones(32)))
        rho1, v = half(st)
        rho = np.stack([rho1, -rho1])
        rho[1, 0] += 1.0
        flux = drift_advection(grid, rho, v, pressure=True)[2]
        dp = pressure_gradient_coeffs(grid, flux).sum(axis=0)
        assert abs(dp[0]) < 1e-16


class TestLinearGrowth:
    def test_single_stream_neutral(self):
        for bg in ((0.5, 0.7, 0.7), (0.3, -0.4, -0.4)):
            sig = linear_growth(bg, 3.0)
            assert np.max(np.abs(sig.real)) < 1e-6

    def test_growth_linear_in_wavenumber(self):
        bg = (0.5, 1.0, -1.0)
        s1 = max_growth_rate(bg, 1.0)
        s2 = max_growth_rate(bg, 2.0)
        assert s2 / s1 == pytest.approx(2.0, abs=1e-8)

    def test_reduced_system_closed_form(self):
        """Independent oracle: eliminating one phase with the momentum
        constraint gives a 2x2 system whose eigenvalues are
        (1-r) v1 + r v2 -+ i sqrt(r (1-r)) |v1 - v2| times -i 2 pi k, so
        the growth rate is 2 pi k sqrt(r(1-r)) |v1 - v2| exactly."""
        for bg in ((0.5, 1.0, -1.0), (0.3, 1.0, -0.5), (0.7, 0.2, -0.9)):
            r, v1, v2 = bg
            for k in (1.0, 2.0, 5.0):
                predicted = 2 * np.pi * k * math.sqrt(r * (1 - r)) * abs(v1 - v2)
                assert max_growth_rate(bg, k) == pytest.approx(predicted,
                                                               rel=1e-10)

    def test_real_system_spectrum_symmetry(self):
        """A real advection symbol pairs eigenvalues as sigma(-k) =
        conj(sigma(k)); for the symmetric two-stream background the
        spectrum at fixed k is real pairs plus neutrals, hence closed
        under conjugation on its own."""
        bg = (0.37, 0.8, -0.3)
        plus = np.sort_complex(linear_growth(bg, 2.0))
        minus = np.sort_complex(np.conj(linear_growth(bg, -2.0)))
        assert np.allclose(plus, minus, atol=1e-8)

        sym = linear_growth((0.5, 1.0, -1.0), 3.0)
        assert np.allclose(np.sort_complex(sym), np.sort_complex(np.conj(sym)),
                           atol=1e-6)

    def test_symbol_matrix_background_validation(self):
        with pytest.raises(ConfigError):
            linear_growth((1.2, 1.0, -1.0), 1.0)


class TestGrowthExperiment:
    def test_unstable_background_matches_theory(self):
        res = growth_experiment((0.5, 1.0, -1.0), k_max=3, horizon=2.5,
                                l2_amplitude=1e-8)
        assert not res.blew_up
        for row in res.rows:
            rel = abs(row.sigma_meas - row.sigma_lin.real) / row.sigma_lin.real
            assert rel < 0.05
            assert row.r_squared > 0.999

    def test_stable_background_near_neutral(self):
        """Single stream: defective neutral modes grow at most linearly in
        time, so the fitted exponential rate is far below the unstable
        scale 2 pi k."""
        res = growth_experiment((0.5, 0.7, 0.7), k_max=2, horizon=2.0,
                                l2_amplitude=1e-8)
        for row in res.rows:
            assert abs(row.sigma_meas) < 0.25 * 2 * np.pi * row.k

    def test_mode_matched_grids(self):
        for k in range(1, 9):
            n = mode_matched_points(k)
            grid = Grid.line(n)
            kept = np.abs(grid.modes(0)[grid.dealias_mask]).max()
            assert kept == k

    def test_decay_profiles(self):
        k = np.array([0, 1, 2, 3])
        analytic = decay_profile("analytic", 0.5, k)
        assert analytic[0] == 0.0
        assert analytic[2] == pytest.approx(0.25)
        algebraic = decay_profile("algebraic", 2.0, k)
        assert algebraic[3] == pytest.approx(1.0 / 9.0)
        with pytest.raises(ConfigError):
            decay_profile("gaussian", 1.0, k)


class TestSeedSurvival:
    def test_analytic_seed_outlives_algebraic(self):
        bg = (0.5, 1.0, -1.0)
        t_analytic = survival_time(bg, "analytic", 0.3, k_max=10,
                                   l2_amplitude=1e-7, n_par=32, seed=3)
        t_algebraic = survival_time(bg, "algebraic", 1.5, k_max=10,
                                    l2_amplitude=1e-7, n_par=32, seed=3)
        assert t_analytic is not None and t_algebraic is not None
        assert t_analytic >= 2.0 * t_algebraic

    def test_stable_background_never_doubles(self):
        t = survival_time((0.5, 0.4, 0.4), "analytic", 0.3, k_max=5,
                          l2_amplitude=1e-7, n_par=16, horizon=0.5)
        assert t is None


class TestQuasineutralLimit:
    def test_toy_model_converges_to_the_two_phase_system(self):
        """The two-phase system is the eps -> 0 limit of the two-phase toy
        model (weights 1/2, rho_a = 2 rho1, rho_b = 2 rho2, u_a = v1,
        u_b = v2). On data of zero total flux, the sup-in-time L2 errors
        of u_a against v1 and of (rho_a - rho_b)/4 + 1/2 against rho1, on
        the coarsest member's sample times, fall strictly along the eps
        sweep, as criterion 8 asks of the 3D limit, and the velocity error
        is O(sqrt(eps)), the rate of ill-prepared data (measured ratios
        0.80-1.14). The time stays short: the counter-streaming
        instability grows at 2 pi k and stalls the error on finer grids."""
        grid = Grid.line(16)
        x = grid.coordinates(0)
        rho1 = 0.5 + 0.05 * np.cos(2 * np.pi * x)
        v1 = 1.0 + 0.05 * np.sin(2 * np.pi * x)
        v2 = -rho1 * v1 / (1.0 - rho1)
        horizon, n_ref, eps_list = 0.1, 640, [1e-2, 2.5e-3, 6.25e-4, 1.5625e-4]
        ref = run(make_two_phase(*(forward(grid, f) for f in (rho1, v1, v2))),
                  horizon / n_ref, n_ref,
                  {"rho1": lambda st: st.rho1.coeffs, "v1": lambda st: st.v1.coeffs})
        assert ref.complete
        n_steps = [20, 40, 80, 160]
        toys = evolve(toymodel.steps, [
            Run(toymodel.make_multi_phase(
                [forward(grid, 2.0 * rho1), forward(grid, 2.0 * (1.0 - rho1))],
                [forward(grid, v1), forward(grid, v2)], eps), horizon / n, n,
                {"rho1": lambda st: (st.rho[0].coeffs - st.rho[1].coeffs) / 4.0,
                 "v1": lambda st: st.u[0].coeffs})
            for eps, n in zip(eps_list, n_steps)])
        def sup_l2(diff):
            return np.max(np.linalg.norm(diff, axis=1))

        stride = n_ref // n_steps[0]
        rho_err, v_err = [], []
        for n, toy in zip(n_steps, toys):
            every = n // n_steps[0]
            assert np.allclose(toy.times[::every], ref.times[::stride],
                               rtol=0.0, atol=1e-14)
            rho = toy["rho1"][::every]
            rho[:, 0] += 0.5
            rho_err.append(sup_l2(rho - ref["rho1"][::stride]))
            v_err.append(sup_l2(toy["v1"][::every] - ref["v1"][::stride]))
        assert all(a > b for a, b in zip(rho_err, rho_err[1:])), rho_err
        assert all(a > b for a, b in zip(v_err, v_err[1:])), v_err
        assert all(e < 1.25 * math.sqrt(eps) for e, eps in zip(v_err, eps_list)), v_err
