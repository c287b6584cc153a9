"""Multi-phase toy model: tendencies, energy, relative entropy, and the
stability/instability dichotomy."""

import math

import numpy as np
import pytest

from driftfluid.errors import ConfigError, SolvabilityError
from driftfluid.spectral import (
    Grid,
    SpectralField,
    forward,
    full_coeffs,
    inverse,
    mean,
    zeros,
)
from driftfluid.toymodel import (
    MultiPhaseState,
    dichotomy_data,
    dichotomy_experiment,
    energy,
    make_multi_phase,
    relative_entropy,
    run,
    step,
    tendencies,
)

from oracles import fd8_derivative, toy_field_step


def field_tendencies(st):
    """toymodel.tendencies of a state (it runs on half-layout arrays with
    the phases stacked), completed to tuples of full-layout fields."""
    grid = st.grid
    drho, du = tendencies(grid, np.stack([r.half_coeffs for r in st.rho]),
                          np.stack([u.half_coeffs for u in st.u]), st.eps)
    return tuple(tuple(SpectralField(grid, c) for c in full_coeffs(grid, d))
                 for d in (drho, du))


def electric_field(st):
    """E = -d_par V: the velocity tendency of the same densities at rest."""
    rest = MultiPhaseState(st.t, st.eps, st.rho, tuple(zeros(st.grid) for _ in st.rho))
    return field_tendencies(rest)[1][0]


def uniform_state(grid, n_phases, eps, velocity=0.0):
    ones = np.ones(grid.shape)
    rho = [forward(grid, ones) for _ in range(n_phases)]
    u = [forward(grid, velocity * ones) for _ in range(n_phases)]
    return make_multi_phase(rho, u, eps)


class TestTendencies:
    def test_equilibrium(self):
        st = uniform_state(Grid.line(16), 2, 0.1)
        drho, du = field_tendencies(st)
        for d in drho:
            assert np.max(np.abs(d.coeffs)) == 0.0
        for d in du:
            assert np.max(np.abs(d.coeffs)) == 0.0

    def test_single_phase_reduction(self):
        """N = 1 is the scaled Euler-Poisson system; the field follows
        from the single density alone."""
        grid = Grid.line(32)
        x = grid.coordinates(0)
        eps = 0.05
        rho = forward(grid, 1.0 + 0.1 * np.cos(2 * np.pi * x))
        u = forward(grid, 0.2 * np.sin(2 * np.pi * x))
        st = make_multi_phase([rho], [u], eps)
        drho, du = field_tendencies(st)
        expected_E = -2 * np.pi * (0.1 / (eps * (2 * np.pi) ** 2)) \
            * -np.sin(2 * np.pi * x)
        E = electric_field(st)
        assert np.max(np.abs(inverse(E) - expected_E)) < 1e-12
        rv, uv = inverse(rho), inverse(u)
        drho_fd = -fd8_derivative(rv * uv, 0)
        assert np.max(np.abs(inverse(drho[0]) - drho_fd)) < 1e-5

    def test_two_phase_fd_oracle(self, rng):
        grid = Grid.line(64)
        x = grid.coordinates(0)
        eps = 0.2
        rho0 = forward(grid, 1.0 + 0.1 * np.cos(2 * np.pi * x))
        rho1 = forward(grid, 1.0 - 0.1 * np.cos(2 * np.pi * x)
                       + 0.05 * np.sin(4 * np.pi * x))
        u0 = forward(grid, 0.2 + 0.05 * np.sin(2 * np.pi * x))
        u1 = forward(grid, -0.1 + 0.04 * np.cos(4 * np.pi * x))
        st = make_multi_phase([rho0, rho1], [u0, u1], eps)
        drho, du = field_tendencies(st)
        E_vals = inverse(electric_field(st))
        for r, uu, dr, duu in zip(st.rho, st.u, drho, du):
            rv, uv = inverse(r), inverse(uu)
            dr_fd = -fd8_derivative(rv * uv, 0)
            du_fd = -uv * fd8_derivative(uv, 0) + E_vals
            assert np.max(np.abs(inverse(dr) - dr_fd)) < 2e-4
            assert np.max(np.abs(inverse(duu) - du_fd)) < 2e-4

    def test_poisson_mean_guard(self):
        grid = Grid.line(16)
        st = MultiPhaseState(0.0, 0.1, (forward(grid, 1.2 * np.ones(16)),),
                             (zeros(grid),))
        with pytest.raises(SolvabilityError):
            electric_field(st)

    def test_refuses_non_line_grid(self):
        """The shared transport kernel is the toy operator on a line grid
        only: other grids are refused where the data enters."""
        for grid in (Grid.torus3d(8, 8, 8), Grid.shear2d(4, 8)):
            ones = np.ones(grid.shape)
            with pytest.raises(ConfigError):
                make_multi_phase([forward(grid, ones)] * 2, [zeros(grid)] * 2, 0.1)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_steps_match_field_reference(self, n):
        """The stacked half-layout step reproduces the field-level
        reference bit for bit."""
        st = dichotomy_data(Grid.line(n), 0.01, 0.5)
        rho, u = st.rho, st.u
        dt = 2e-3
        for _ in range(4):
            st = step(st, dt)
            rho, u = toy_field_step(rho, u, st.eps, dt)
        for new, ref in zip(st.rho + st.u, rho + u):
            assert np.array_equal(new.coeffs, ref.coeffs)


class TestEnergy:
    def test_equilibrium_zero(self):
        assert energy(uniform_state(Grid.line(16), 2, 0.1)) == 0.0

    def test_rigid_stream_value(self):
        st = uniform_state(Grid.line(16), 3, 0.1, velocity=0.4)
        assert energy(st) == pytest.approx(0.08)

    def test_non_increasing_along_flow(self):
        grid = Grid.line(32)
        eps = 1e-2
        st = dichotomy_data(grid, eps, streaming=0.4)
        dt = 2 * math.pi * math.sqrt(eps) / 120
        traj = run(st, dt, 200, {"energy": energy})
        increases = np.diff(traj["energy"])
        assert np.max(increases, initial=0.0) < 1e-8


class TestRelativeEntropy:
    def test_zero_iff_matching(self):
        grid = Grid.line(16)
        st = uniform_state(grid, 2, 0.1, velocity=0.3)
        assert relative_entropy(st, 0.3) == 0.0

    def test_quadratic_displacement(self):
        grid = Grid.line(16)
        delta = 0.25
        st = uniform_state(grid, 2, 0.1, velocity=0.3 + delta)
        assert relative_entropy(st, 0.3) == pytest.approx(0.5 * delta**2)

    def test_nonnegative(self, rng):
        grid = Grid.line(32)
        x = grid.coordinates(0)
        rho0 = forward(grid, 1.0 + 0.2 * np.cos(2 * np.pi * x))
        rho1 = forward(grid, 1.0 - 0.2 * np.cos(2 * np.pi * x))
        u0 = forward(grid, 0.1 * np.sin(2 * np.pi * x))
        u1 = forward(grid, -0.2 * np.ones(32))
        st = make_multi_phase([rho0, rho1], [u0, u1], 0.05)
        assert relative_entropy(st, 0.15) > 0.0

    def test_gronwall_envelope_across_sweep(self):
        """Constant reference: the Gronwall factor is 1, so H(T) stays
        within H(0) + o(1), the o(1) shrinking with eps."""
        grid = Grid.line(32)
        overshoots = []
        finals = []
        for eps in (1e-1, 1e-2, 1e-3):
            st = dichotomy_data(grid, eps, streaming=0.0)
            dt = min(2 * math.pi * math.sqrt(eps) / 120, 0.3 / 64)
            traj = run(st, dt, int(math.ceil(0.3 / dt)),
                       {"entropy": lambda s: relative_entropy(s, 0.1)})
            overshoots.append(np.max(traj["entropy"]) - traj["entropy"][0])
            finals.append(traj["entropy"][-1])
        assert all(o < 1e-10 for o in overshoots)
        assert finals[0] > finals[1] > finals[2]

    def test_per_phase_mass_conserved(self):
        grid = Grid.line(32)
        st = dichotomy_data(grid, 1e-2, streaming=0.5)
        dt = 2 * math.pi * 0.1 / 120
        traj = run(st, dt, 150, {"masses": lambda s: [mean(r) for r in s.rho]})
        assert np.max(np.abs(traj["masses"] - traj["masses"][0])) < 1e-12


class TestDichotomy:
    def test_sweep_report(self):
        report = dichotomy_experiment([1e-1, 1e-2, 1e-3])
        assert report["stable_strictly_decreasing"]
        assert report["unstable_nondecreasing"]
        assert report["unstable_stays_order_one"]
        for eps in report["eps"]:
            assert report["stable"][eps]["complete"]

    def test_vanishing_streaming_degenerates_to_stable(self):
        rep = dichotomy_experiment([1e-2], streaming=1e-5, horizon=0.1)
        stable = rep["stable"][1e-2]["H_final"]
        unstable = rep["unstable"][1e-2]["H_final"]
        assert unstable == pytest.approx(stable, rel=1e-2, abs=1e-8)

    def test_requires_line_grid(self):
        with pytest.raises(ConfigError):
            dichotomy_data(Grid.torus3d(4, 4, 4), 0.1, 0.5)
