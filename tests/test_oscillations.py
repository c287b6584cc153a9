"""Plasma-oscillation analysis: Duhamel formulas, slow/fast splitting,
corrector demodulation and transport."""

import math

import numpy as np
import pytest

from driftfluid.epsilon import (
    dt_policy,
    eps_dtE0,
    make_eps_state,
    oscillation_period,
    parallel_field,
    run,
    wave_source,
)
from driftfluid.errors import ConfigError, InvariantError
from driftfluid.poisson import solve_fields
from driftfluid.oscillations import (
    WaveSource,
    advect_correctors,
    corrector_initial_data,
    decompose,
    duhamel_G,
    duhamel_sqrt_eps_E,
    extract_correctors,
    oscillation_residual,
    reconstruct_W,
)
from driftfluid.spectral import (
    Grid,
    SpectralField,
    forward,
    from_modes,
    inverse,
    zeros,
)

from conftest import count_transforms, random_band_field
from oracles import characteristic_foot, oscillator_reference


def line_field(npar, entries):
    return from_modes(Grid.line(npar), entries)


def zero_line(npar):
    return SpectralField(Grid.line(npar), np.zeros(npar, dtype=complex))


class TestWaveSource:
    def test_rejects_nonzero_mean(self):
        grid = Grid.line(8)
        times = np.linspace(0, 1, 8)
        coeffs = np.zeros((8, 8), dtype=complex)
        coeffs[:, 0] = 1.0
        with pytest.raises(InvariantError):
            WaveSource(grid=grid, times=times, coeffs=coeffs)

    def test_rejects_nonuniform_times(self):
        grid = Grid.line(8)
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ConfigError):
            WaveSource(grid=grid, times=times,
                       coeffs=np.zeros((3, 8), dtype=complex))


class TestDuhamel:
    def test_zero_source_zero_data(self):
        grid = Grid.line(8)
        times = np.linspace(0, 1, 33)
        src = WaveSource(grid=grid, times=times,
                         coeffs=np.zeros((33, 8), dtype=complex))
        G = duhamel_G(src, 0.01, zero_line(8), zero_line(8))
        E = duhamel_sqrt_eps_E(src, 0.01, zero_line(8), zero_line(8))
        assert np.max(np.abs(G)) == 0.0
        assert np.max(np.abs(E)) == 0.0

    def test_homogeneous_G_formula(self):
        """Zero source, E(0) = c cos(2 pi x), d_t E(0) = 0:
        G = sqrt(eps) c sin(t/sqrt(eps)) cos(2 pi x)."""
        eps, c = 0.04, 0.7
        grid = Grid.line(8)
        times = np.linspace(0, 1, 65)
        src = WaveSource(grid=grid, times=times,
                         coeffs=np.zeros((65, 8), dtype=complex))
        E0 = line_field(8, {1: 0.5 * c})
        G = duhamel_G(src, eps, E0, zero_line(8))
        expected = (math.sqrt(eps) * np.sin(times / math.sqrt(eps)))[:, None] \
            * E0.coeffs[None, :]
        assert np.max(np.abs(G - expected)) < 1e-13

    def test_homogeneous_E_formula(self):
        """Zero source: sqrt(eps) E = sqrt(eps) c cos(t/sqrt(eps)) cos(2 pi x)."""
        eps, c = 0.09, 1.3
        grid = Grid.line(8)
        times = np.linspace(0, 2, 101)
        src = WaveSource(grid=grid, times=times,
                         coeffs=np.zeros((101, 8), dtype=complex))
        E0 = line_field(8, {1: 0.5 * c})
        E = duhamel_sqrt_eps_E(src, eps, E0, zero_line(8))
        expected = (math.sqrt(eps) * np.cos(times / math.sqrt(eps)))[:, None] \
            * E0.coeffs[None, :]
        assert np.max(np.abs(E - expected)) < 1e-13

    def test_initial_time_derivative_term(self):
        """Zero source, E(0) = 0: sqrt(eps) E = D sin(t/sqrt(eps)) and
        G = -D (cos(t/sqrt(eps)) - 1) for D = eps d_t E(0)."""
        eps = 0.02
        grid = Grid.line(8)
        times = np.linspace(0, 1, 81)
        src = WaveSource(grid=grid, times=times,
                         coeffs=np.zeros((81, 8), dtype=complex))
        D = line_field(8, {2: 0.25j})
        E = duhamel_sqrt_eps_E(src, eps, zero_line(8), D)
        G = duhamel_G(src, eps, zero_line(8), D)
        ph = times / math.sqrt(eps)
        assert np.max(np.abs(E - np.sin(ph)[:, None] * D.coeffs[None, :])) < 1e-13
        assert np.max(np.abs(G + (np.cos(ph) - 1.0)[:, None] * D.coeffs[None, :])) < 1e-13

    def test_constant_single_mode_source_vs_ode_oracle(self):
        """eps u'' + u = g with g(t) = const per mode: the reconstructed
        sqrt(eps) E matches a high-accuracy stiff ODE solve through
        u = E_hat/(i 2 pi k)-weighting."""
        eps = 4e-3
        grid = Grid.line(8)
        dt = dt_policy(eps) / 2
        times = np.arange(0, 401) * dt
        coeffs = np.zeros((len(times), 8), dtype=complex)
        coeffs[:, 1] = 0.5
        coeffs[:, -1] = 0.5
        src = WaveSource(grid=grid, times=times, coeffs=coeffs)
        E = duhamel_sqrt_eps_E(src, eps, zero_line(8), zero_line(8))
        # per-mode oracle: sqrt(eps) E_hat solves eps y'' + y = sqrt(eps) ghat/(i 2 pi k)
        ghat = 0.5 / (2j * np.pi * 1.0)
        ref = oscillator_reference(eps, lambda t: 1.0, times) * ghat * math.sqrt(eps)
        assert np.max(np.abs(E[:, 1] - ref)) < 1e-6

    def test_time_varying_source_vs_ode_oracle(self):
        eps = 0.01
        grid = Grid.line(8)
        dt = dt_policy(eps)
        times = np.arange(0, 301) * dt
        envelope = np.cos(1.7 * times) + 0.3 * np.sin(3.1 * times)
        coeffs = np.zeros((len(times), 8), dtype=complex)
        coeffs[:, 1] = 0.4 * envelope
        coeffs[:, -1] = 0.4 * envelope
        src = WaveSource(grid=grid, times=times, coeffs=coeffs)
        E = duhamel_sqrt_eps_E(src, eps, zero_line(8), zero_line(8))
        ghat = 0.4 / (2j * np.pi)
        ref = oscillator_reference(
            eps, lambda t: np.cos(1.7 * t) + 0.3 * np.sin(3.1 * t), times)
        assert np.max(np.abs(E[:, 1] - math.sqrt(eps) * ghat * ref)) < 1e-6

    def test_G_derivative_consistency(self, rng):
        """d/dt of the G reconstruction equals E_par at the sample times
        (G is the running integral of the field)."""
        eps = 0.01
        grid = Grid.shear2d(4, 16)
        xp = grid.meshgrid()[1]
        st = make_eps_state(
            forward(grid, 1 + 0.1 * math.sqrt(eps) * np.cos(2 * np.pi * xp)),
            forward(grid, 0.05 * np.sin(2 * np.pi * xp)), eps)
        dt = dt_policy(eps)
        traj = run(st, dt, 160, {
            "Epar": parallel_field,
            "source": lambda s: wave_source(s.rho, s.v, solve_fields(s.rho, s.eps)[1],
                                            s.eps).coeffs})
        src = WaveSource(grid=grid.par_grid, times=traj.times, coeffs=traj["source"])
        E0 = SpectralField(grid.par_grid, traj["Epar"][0])
        D = eps_dtE0(st.rho, st.v)
        G = duhamel_G(src, eps, E0, D)
        E = duhamel_sqrt_eps_E(src, eps, E0, D) / math.sqrt(eps)
        dG = np.gradient(G, dt, axis=0)
        # centred differencing of the oscillation has O((omega dt)^2) error
        tol = (dt / math.sqrt(eps)) ** 2 * np.max(np.abs(E))
        interior = slice(1, -1)
        assert np.max(np.abs(dG[interior] - E[interior])) < 2 * tol


class TestDecompose:
    def test_pure_oscillation_is_all_fast(self):
        eps = 0.01
        npar = 8
        dt = oscillation_period(eps) / 80
        times = np.arange(0, 201) * dt
        A = np.zeros(npar, complex)
        A[1] = 0.3 - 0.1j
        A[-1] = np.conj(A[1])
        series = A[None, :] * np.cos(times / math.sqrt(eps))[:, None]
        dec = decompose(times, series, eps, zero_line(npar))
        assert np.max(np.abs(dec.E2)) < 1e-14
        assert np.max(np.abs(dec.E1 - series[: len(dec.times)])) < 1e-14
        expected_W = math.sqrt(eps) * A[None, :] \
            * np.sin(dec.times / math.sqrt(eps))[:, None]
        assert np.max(np.abs(dec.W - expected_W)) < 1e-7

    def test_constant_is_all_slow(self):
        eps = 0.04
        npar = 8
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 161) * dt
        B = np.zeros(npar, complex)
        B[2] = 0.5j
        B[-2] = -0.5j
        series = np.broadcast_to(B, (161, npar)).copy()
        W0 = line_field(npar, {1: 0.2})
        dec = decompose(times, series, eps, W0)
        assert np.max(np.abs(dec.E2 - series[: len(dec.times)])) < 1e-13
        assert np.max(np.abs(dec.E1)) < 1e-13
        # W stays at W(0) plus the integral of E1 = 0
        assert np.max(np.abs(dec.W - W0.coeffs[None, :])) < 1e-12

    def test_mixed_signal_window_average_oracle(self):
        eps = 0.0025
        npar = 8
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 401) * dt
        A, B = 0.4, 0.15
        series = np.zeros((401, npar), complex)
        osc = A * np.cos(times / math.sqrt(eps)) + B
        series[:, 1] = 0.5 * osc
        series[:, -1] = 0.5 * osc
        dec = decompose(times, series, eps, zero_line(npar))
        assert np.max(np.abs(dec.E2[:, 1] - 0.5 * B)) < 1e-12
        fast = 0.5 * A * np.cos(dec.times / math.sqrt(eps))
        assert np.max(np.abs(dec.E1[:, 1] - fast)) < 1e-12

    def test_mean_zero_preserved(self):
        """int E1 dxpar = int E2 dxpar = 0 whenever the input has zero
        mean (the k = 0 coefficient), at every sampled time."""
        eps = 0.01
        rng = np.random.default_rng(7)
        npar = 16
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 161) * dt
        series = rng.standard_normal((161, npar)) * 0.1 + 0j
        series[:, 0] = 0.0
        dec = decompose(times, series, eps, zero_line(npar))
        assert np.max(np.abs(dec.E1[:, 0])) < 1e-15
        assert np.max(np.abs(dec.E2[:, 0])) < 1e-15

    def test_too_short_trajectory(self):
        eps = 1.0
        times = np.linspace(0, 1.0, 11)   # period 2 pi > 1
        with pytest.raises(ConfigError):
            decompose(times, np.zeros((11, 8), complex), eps, zero_line(8))


class TestCorrectors:
    def test_pure_tone_demodulation(self):
        eps = 0.01
        npar = 8
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 401) * dt
        c = np.zeros(npar, complex)
        c[1] = 0.2 - 0.1j
        c[-1] = 0.05 + 0.02j
        phase = np.exp(1j * times / math.sqrt(eps))[:, None]
        series = c[None, :] * phase + np.conj(_reflect(c))[None, :] * np.conj(phase)
        cs = extract_correctors(times, series, eps, window_periods=4)
        assert np.max(np.abs(cs.Eplus - c[None, :])) < 1e-13
        assert np.max(np.abs(cs.Eminus - np.conj(_reflect(c))[None, :])) < 1e-13

    def test_zero_input(self):
        eps = 0.04
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 201) * dt
        cs = extract_correctors(times, np.zeros((201, 8), complex), eps)
        assert np.max(np.abs(cs.Eplus)) == 0.0

    def test_slow_envelope_bias(self):
        """Two-tone input with a slow envelope: the demodulated envelope
        tracks the true one to O((window * envelope rate)^2)."""
        eps = 0.0025
        npar = 8
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 1201) * dt
        omega_env = 1.1
        env = 0.3 + 0.1 * np.cos(omega_env * times)
        c_t = np.zeros((len(times), npar), complex)
        c_t[:, 1] = env
        c_t[:, -1] = env
        phase = np.exp(1j * times / math.sqrt(eps))[:, None]
        series = (c_t * phase + np.conj(c_t) * np.conj(phase)).astype(complex)
        cs = extract_correctors(times, series, eps, window_periods=4)
        sel = slice(0, len(cs.times))
        width = 4 * oscillation_period(eps)
        bound = 0.5 * 0.1 * (omega_env * width) ** 2 + 1e-10
        i0 = int(np.searchsorted(times, cs.times[0] - 1e-12))
        err = np.max(np.abs(cs.Eplus[:, 1] - env[i0: i0 + len(cs.times)]))
        assert err < bound

    def test_window_validation(self):
        eps = 0.01
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 201) * dt
        data = np.zeros((201, 8), complex)
        with pytest.raises(ConfigError):
            extract_correctors(times, data, eps, window_periods=1)
        with pytest.raises(ConfigError):
            extract_correctors(times[:40], data[:40], eps, window_periods=4)

    def test_conjugate_symmetry_for_real_fields(self, rng):
        """E- equals the pointwise conjugate field of E+ when the input
        series represents a real field."""
        eps = 0.01
        npar = 16
        grid = Grid.line(npar)
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 401) * dt
        f = random_band_field(grid, 3, rng)
        series = f.coeffs[None, :] * np.cos(times / math.sqrt(eps))[:, None]
        cs = extract_correctors(times, series, eps)
        minus_expected = np.stack([np.conj(_reflect(ep)) for ep in cs.Eplus])
        assert np.max(np.abs(cs.Eminus - minus_expected)) < 1e-13


def _reflect(coeffs):
    """coeff(k) -> coeff(-k) on a 1D coefficient array."""
    return np.roll(coeffs[::-1], 1)


class TestAdvection:
    def test_frozen_without_current(self):
        grid = Grid.line(16)
        e0 = SpectralField(grid, np.linspace(0, 1, 16) * (1 + 1j) * 0.01,
                           real=False)
        times = np.linspace(0, 1, 33)
        ubar = np.zeros((33, 16), complex)
        cs = advect_correctors(e0, e0, times, ubar)
        assert np.max(np.abs(cs.Eplus - e0.coeffs[None, :])) < 1e-14

    def test_constant_current_translates(self):
        grid = Grid.line(32)
        c_speed = 0.37
        e0 = from_modes(grid, {2: 0.1 - 0.05j}, real=False)
        times = np.linspace(0, 1, 401)
        ubar = np.zeros((401, 32), complex)
        ubar[:, 0] = c_speed
        cs = advect_correctors(e0, e0, times, ubar)
        t_final = times[-1]
        expected = e0.coeffs * np.exp(-2j * np.pi * grid.modes(0) * c_speed * t_final)
        assert np.max(np.abs(cs.Eplus[-1] - expected)) < 1e-9

    def test_distinct_correctors_translate_each_to_its_own_solution(self):
        """E+ and E- advance as the two rows of one array: under a constant
        current each row is its own initial data translated, at every
        sample, with neither swapped for nor mixed into the other."""
        grid = Grid.line(32)
        c_speed = 0.37
        plus0 = from_modes(grid, {2: 0.1 - 0.05j}, real=False)
        minus0 = from_modes(grid, {-2: 0.05 + 0.02j, 1: 0.08j}, real=False)
        times = np.linspace(0, 1, 401)
        ubar = np.zeros((401, 32), complex)
        ubar[:, 0] = c_speed
        cs = advect_correctors(plus0, minus0, times, ubar)
        shift = np.exp(-2j * np.pi * np.outer(c_speed * times, grid.modes(0)))
        assert np.max(np.abs(cs.Eplus - plus0.coeffs * shift)) < 1e-9
        assert np.max(np.abs(cs.Eminus - minus0.coeffs * shift)) < 1e-9

    def test_time_dependent_current_translates(self):
        """A uniform current growing in time, u(t) = 0.3 + 0.8 t, translates
        each row by its integral 0.3 t + 0.4 t^2 at every sample: the half
        stages take ubar at the interval midpoints, so RK4 keeps its
        order (ubar at the samples there would err by about 4e-4)."""
        grid = Grid.line(32)
        plus0 = from_modes(grid, {1: 0.1 - 0.05j}, real=False)
        minus0 = from_modes(grid, {-1: 0.05 + 0.02j}, real=False)
        times = np.linspace(0, 1, 401)
        ubar = np.zeros((401, 32), complex)
        ubar[:, 0] = 0.3 + 0.8 * times
        cs = advect_correctors(plus0, minus0, times, ubar)
        shift = np.exp(-2j * np.pi * np.outer(0.3 * times + 0.4 * times**2,
                                              grid.modes(0)))
        assert np.max(np.abs(cs.Eplus - plus0.coeffs * shift)) < 1e-8
        assert np.max(np.abs(cs.Eminus - minus0.coeffs * shift)) < 1e-8

    def test_two_transforms_per_stage(self, monkeypatch):
        """The values of ubar at every sample and at every midpoint are made
        in one inverse transform each, before the first step; then each
        RK4 stage makes one inverse transform for both d_par E+- and one
        forward transform for both products."""
        grid = Grid.line(16)
        e0 = from_modes(grid, {1: 0.5, -2: 0.1j}, real=False)
        times = np.linspace(0, 0.1, 6)
        ubar = np.broadcast_to(from_modes(grid, {0: 0.3, 1: 0.05}).coeffs,
                               (6, 16)).copy()
        calls = count_transforms(monkeypatch)
        advect_correctors(e0, e0.conj(), times, ubar)
        assert len(calls) == 2 * 4 * (len(times) - 1) + 2
        assert {name for name, _ in calls} == {"ifftn", "fftn"}

    def test_smooth_current_vs_characteristics(self):
        grid = Grid.line(64)
        x = grid.coordinates(0)
        ubar_vals = 0.3 + 0.1 * np.cos(2 * np.pi * x)
        e0 = from_modes(grid, {1: 0.5}, real=False)   # exp(2 pi i x)/... one mode
        t_final = 0.5
        n_steps = 512
        times = np.linspace(0, t_final, n_steps + 1)
        ubar = np.broadcast_to(forward(grid, ubar_vals).coeffs, (n_steps + 1, 64)).copy()
        cs = advect_correctors(e0, e0, times, ubar)
        numeric = np.fft.ifft(cs.Eplus[-1]) * 64
        def u_func(p):
            return 0.3 + 0.1 * np.cos(2 * np.pi * p)
        exact = np.array([np.exp(2j * np.pi * characteristic_foot(u_func, xx, t_final))
                          * 0.5 for xx in x])
        assert np.max(np.abs(numeric - exact)) < 1e-6

    def test_time_grid_mismatch(self):
        grid = Grid.line(16)
        e0 = zeros(grid)
        with pytest.raises(ConfigError):
            advect_correctors(e0, e0, np.linspace(0, 1, 11),
                              np.zeros((12, 16), complex))


class TestFilteringEfficacy:
    def test_residual_and_weak_W_shrink_along_sweep(self):
        """Demodulated corrector subtraction: the residual and the norm of
        the time-averaged filtered primitive W both decrease monotonically
        along the eps sweep (ill-prepared but admissible data)."""
        from driftfluid.experiments import filtering_sweep
        res = filtering_sweep([1e-1, 2.5e-2, 6.25e-3])
        assert res.strictly_decreasing("residual")
        assert res.strictly_decreasing("w_average")


class TestAnalyzePipeline:
    def test_record_consistency(self):
        """analyze() glues decomposition, demodulation and residual: the
        split satisfies Epar = E1 + E2 on its horizon and a pure-tone
        input yields exact envelopes and a vanishing residual."""
        from driftfluid.oscillations import analyze
        eps = 0.01
        npar = 8
        dt = oscillation_period(eps) / 40
        times = np.arange(0, 401) * dt
        c = np.zeros(npar, complex)
        c[1] = 0.1 - 0.07j
        c[-1] = np.conj(c[1])
        phase = np.exp(1j * times / math.sqrt(eps))[:, None]
        epar = (c[None, :] * phase + np.conj(_reflect(c))[None, :]
                * np.conj(phase)) / math.sqrt(eps)
        record = analyze(times, epar, eps, zero_line(npar), window_periods=2)
        dec = record.decomposition
        n_valid = len(dec.times)
        assert np.max(np.abs(dec.E1 + dec.E2 - epar[:n_valid])) < 1e-12
        assert np.max(record.residual) < 1e-12
        from driftfluid.oscillations import corrector_rows
        rows = list(corrector_rows(record))
        assert set(rows[0]) == {"t", "k_par", "re_eplus", "im_eplus", "residual"}


class TestReconstruction:
    def test_residual_of_exact_tone_vanishes(self):
        eps = 0.01
        npar = 8
        times = np.linspace(0, 1, 101)
        c = np.zeros((101, npar), complex)
        c[:, 1] = 0.3
        series = c * np.exp(1j * times / math.sqrt(eps))[:, None] \
            + np.conj(c) * np.exp(-1j * times / math.sqrt(eps))[:, None]
        res = oscillation_residual(times, series, c, np.conj(c), eps)
        assert np.max(res) < 1e-13

    def test_reconstruct_W_matches_initial_current(self):
        """(1/i)(E+ - E-) at t = 0 recovers the zero-mean part of
        <rho v>_perp, the filtered primitive's initial value."""
        npar = 16
        grid = Grid.line(npar)
        rng = np.random.default_rng(5)
        m0 = random_band_field(grid, 3, rng)
        E0 = random_band_field(grid, 3, rng)
        ep, em = corrector_initial_data(E0, m0)
        w0 = reconstruct_W(np.array([0.0]), ep.coeffs[None, :],
                           em.coeffs[None, :], 0.01)[0]
        target = np.array(m0.coeffs, copy=True)
        target[0] = 0.0
        assert np.max(np.abs(w0 - target)) < 1e-14
