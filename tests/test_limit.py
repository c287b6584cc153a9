"""Limit system: pressure closure, constraint propagation, data
projection, shear flows, and the dimensional reductions."""

import numpy as np
import pytest

from driftfluid.errors import AdmissibilityError
from driftfluid.limit import (
    LimitState,
    constraint_residuals,
    embed_two_phase,
    pressure_gradient,
    project_initial,
    restrict_two_phase,
    run,
    shear_flow,
    step,
    tendencies,
    two_slab_indicator,
)
from driftfluid.spectral import (
    Grid,
    SpectralField,
    constant,
    derivative,
    forward,
    full_coeffs,
    inverse,
    mean,
    perp_average,
    zeros,
)
from driftfluid import twostream

from conftest import random_band_field
from oracles import Euler2DReference


# the flux constraint |d_par <rho v>_perp| as a recording probe
RESIDUAL = {"residual": lambda s: constraint_residuals(s.rho, s.v)[1]}


def field_tendencies(rho, v):
    """limit.tendencies of two fields (it runs on half-layout arrays),
    completed to full-layout fields, with the residual."""
    grid = rho.grid
    drho, dv, residual = tendencies(grid, rho.half_coeffs, v.half_coeffs)
    return (SpectralField(grid, full_coeffs(grid, drho)),
            SpectralField(grid, full_coeffs(grid, dv)), residual)


def admissible_random_state(grid, rng, amplitude=0.05):
    rho0 = random_band_field(grid, 1, rng, amplitude=amplitude, mean=1.0)
    v0 = random_band_field(grid, 1, rng, amplitude=amplitude)
    return project_initial(rho0, v0)


class TestPressureClosure:
    def test_zero_velocity(self):
        g = Grid.torus3d(4, 4, 8)
        dp = pressure_gradient(constant(g, 1.0), zeros(g))
        assert np.max(np.abs(dp.coeffs)) == 0.0

    def test_no_perp_structure(self):
        """rho = 1, v = v(xpar): d_par p = -d_par(v^2)."""
        g = Grid.torus3d(4, 4, 16)
        xp = g.meshgrid()[2]
        v = forward(g, 0.3 * np.sin(2 * np.pi * xp))
        dp = pressure_gradient(constant(g, 1.0), v)
        line = Grid.line(16)
        xl = line.coordinates(0)
        expected = forward(line, (0.3 * np.sin(2 * np.pi * xl)) ** 2)
        expected = -derivative(expected, 0)
        assert np.max(np.abs(dp.coeffs - expected.coeffs)) < 1e-14

    def test_zero_mean(self, rng):
        g = Grid.torus3d(4, 4, 16)
        st = admissible_random_state(g, rng)
        dp = pressure_gradient(st.rho, st.v)
        assert abs(dp.coeffs[0]) < 1e-16

    def test_constraint_drift_with_and_without_closure(self, rng):
        """The closure keeps d_par <rho v>_perp below 1e-8 over 100 steps;
        with p = 0 the same data drifts six orders of magnitude more. The
        amplitude stays small because any constraint defect is itself
        amplified at the ill-posed rate of the retained wavenumbers."""
        g = Grid.torus3d(4, 4, 16)
        st = admissible_random_state(g, rng, amplitude=0.002)
        dt = 0.01
        with_p = run(st, dt, 100, RESIDUAL)["residual"]
        without_p = run(st, dt, 100, RESIDUAL, with_pressure=False)["residual"]
        assert np.max(with_p) < 1e-8
        assert np.max(without_p) > 1e4 * np.max(with_p)


class TestTendencies:
    def test_equilibrium(self):
        g = Grid.torus3d(4, 4, 8)
        st = LimitState(0.0, constant(g, 1.0), zeros(g))
        drho, dv, resid = field_tendencies(st.rho, st.v)
        assert np.max(np.abs(drho.coeffs)) == 0.0
        assert np.max(np.abs(dv.coeffs)) == 0.0
        assert resid == 0.0

    def test_perp_average_tendency_vanishes_identically(self, rng):
        g = Grid.torus3d(4, 4, 16)
        st = admissible_random_state(g, rng)
        drho, _, _ = field_tendencies(st.rho, st.v)
        assert np.max(np.abs(perp_average(drho).coeffs)) == 0.0


class TestProjection:
    def test_idempotent(self, rng):
        g = Grid.torus3d(4, 4, 16)
        st = admissible_random_state(g, rng)
        again = project_initial(st.rho, st.v)
        assert np.max(np.abs(again.rho.coeffs - st.rho.coeffs)) < 1e-14
        assert np.max(np.abs(again.v.coeffs - st.v.coeffs)) < 1e-14

    def test_parallel_velocity_forced_constant(self):
        """rho = 1 with a parallel-only v: the constraint forces the
        velocity down to its mean."""
        g = Grid.torus3d(4, 4, 16)
        xp = g.meshgrid()[2]
        v0 = forward(g, 0.4 + 0.2 * np.sin(2 * np.pi * xp))
        st = project_initial(constant(g, 1.0), v0)
        assert np.max(np.abs(inverse(st.v) - 0.4)) < 1e-13

    def test_random_data_lands_on_manifold(self, rng):
        g = Grid.torus3d(4, 4, 16)
        rho0 = random_band_field(g, 1, rng, amplitude=0.1, mean=1.0)
        v0 = random_band_field(g, 1, rng, amplitude=0.3)
        st = project_initial(rho0, v0)
        mass_res, mom_res = constraint_residuals(st.rho, st.v)
        assert mass_res < 1e-12
        assert mom_res < 1e-12

    def test_rejects_nonpositive_density(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        with pytest.raises(AdmissibilityError):
            project_initial(forward(g, 1 + 2.0 * np.cos(2 * np.pi * xp)), zeros(g))


class TestPerpendicularReduction:
    def test_matches_standalone_euler2d(self, rng):
        """Data independent of the parallel direction: rho - 1 evolves as
        2D Euler vorticity and v is passively transported; checked against
        the independent reference stepper over 100 steps."""
        n1 = n2 = 16
        g = Grid.torus3d(n1, n2, 4)
        x1, x2, _ = g.meshgrid()
        w_vals = 0.3 * np.cos(2 * np.pi * x1) + 0.2 * np.sin(2 * np.pi * x2) \
            + 0.15 * np.cos(2 * np.pi * (x1 + x2))
        v_vals = 0.1 * np.cos(2 * np.pi * x2)
        st = project_initial(forward(g, 1.0 + w_vals), forward(g, v_vals))
        dt = 0.01
        traj = run(st, dt, 100, {})
        final = traj.final_state

        ref = Euler2DReference(n1, n2)
        w_hat = np.fft.fft2(w_vals[:, :, 0]) * ref.mask
        s_hat = np.fft.fft2(v_vals[:, :, 0]) * ref.mask
        for _ in range(100):
            w_hat, s_hat = ref.step(w_hat, s_hat, dt)
        rho_ref = 1.0 + np.fft.ifft2(w_hat).real
        v_ref = np.fft.ifft2(s_hat).real

        rho_err = np.max(np.abs(inverse(final.rho)[:, :, 0] - rho_ref))
        v_err = np.max(np.abs(inverse(final.v)[:, :, 0] - v_ref))
        assert rho_err < 1e-8
        assert v_err < 1e-8


class TestShearFlows:
    def test_zero_profiles_equilibrium(self):
        g = Grid.shear2d(8, 16)
        st = shear_flow(g, lambda x1, xp: 0.0 * x1, lambda x1, xp: 0.0 * x1)
        drho, dv, _ = field_tendencies(st.rho, st.v)
        assert np.max(np.abs(drho.coeffs)) == 0.0
        assert np.max(np.abs(dv.coeffs)) == 0.0

    def test_par_independent_profile_is_pure_shear(self):
        """phi independent of xpar: rho0 = 1 - d1 phi and the dynamics
        reduces to parallel-only transport (all tendencies vanish for
        v = 0)."""
        g = Grid.shear2d(16, 8)
        st = shear_flow(g, lambda x1, xp: 0.1 * np.sin(2 * np.pi * x1),
                        lambda x1, xp: 0.0 * x1)
        x1 = g.meshgrid()[0]
        expected_rho = 1.0 - 0.1 * 2 * np.pi * np.cos(2 * np.pi * x1)
        assert np.max(np.abs(inverse(st.rho) - expected_rho)) < 1e-12
        drho, dv, _ = field_tendencies(st.rho, st.v)
        assert np.max(np.abs(drho.coeffs)) < 1e-14
        assert np.max(np.abs(dv.coeffs)) < 1e-14

    def test_perp_terms_vanish_under_evolution(self, rng):
        """Shear states keep their perpendicular nonlinearity identically
        zero: the perpendicular advection contribution to the tendencies
        is exactly absent on a shear grid."""
        g = Grid.shear2d(8, 16)
        st = shear_flow(g,
                        lambda x1, xp: 0.05 * np.sin(2 * np.pi * x1)
                        * (1 + 0.3 * np.cos(2 * np.pi * xp)),
                        lambda x1, xp: 0.05 * np.sin(2 * np.pi * xp)
                        * np.cos(2 * np.pi * x1))
        cur = st
        for _ in range(5):
            cur = step(cur, 0.01)
        # E_perp has only a perp2 component and nothing depends on perp2,
        # so the full perp advection of any field is zero; verify through
        # the solve: the perp1 force component vanishes identically
        from driftfluid.poisson import perp_field, solve_phi
        e1, _ = perp_field(solve_phi(cur.rho, 0.0))
        assert np.max(np.abs(e1.coeffs)) == 0.0


class TestTwoPhaseEmbedding:
    def test_two_slab_indicator_values(self):
        g = Grid.shear2d(4, 8)
        s = inverse(two_slab_indicator(g))
        assert np.allclose(s[0], 1.0) and np.allclose(s[1], 1.0)
        assert np.allclose(s[2], 0.0) and np.allclose(s[3], 0.0)

    def test_embedding_round_trip(self, rng):
        g = Grid.shear2d(4, 32)
        line = g.par_grid
        rho1 = random_band_field(line, 3, rng, amplitude=0.05, mean=0.5)
        v1 = random_band_field(line, 3, rng, amplitude=0.1, mean=1.0)
        v2 = random_band_field(line, 3, rng, amplitude=0.1, mean=-1.0)
        st = embed_two_phase(rho1, v1, v2, g)
        r1b, v1b, v2b = restrict_two_phase(st)
        for a, b in ((rho1, r1b), (v1, v1b), (v2, v2b)):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13

    def test_embedded_dynamics_matches_two_phase_module(self, rng):
        """The two-slab shear embedding evolves exactly as the two-phase
        system: slab restriction after 50 limit steps equals 50 two-phase
        steps (cross-module equivalence)."""
        g = Grid.shear2d(4, 32)
        line = g.par_grid
        x = line.coordinates(0)
        rho1 = forward(line, 0.5 + 0.05 * np.cos(2 * np.pi * x))
        # momentum-compatible velocities: rho1 v1 + rho2 v2 constant
        v1 = forward(line, 0.6 * np.ones(32))
        m = 0.5 * 0.6 - 0.5 * 0.6   # zero total momentum
        v2_vals = (m - inverse(rho1) * 0.6) / (1.0 - inverse(rho1))
        v2 = forward(line, v2_vals)
        tp = twostream.make_two_phase(rho1, v1, v2)
        lim = embed_two_phase(rho1, v1, v2, g)

        dt = 2e-3
        n = 50
        for _ in range(n):
            tp = twostream.step(tp, dt)
        traj = run(lim, dt, n, {})
        r1b, v1b, v2b = restrict_two_phase(traj.final_state)
        assert np.max(np.abs(r1b.coeffs - tp.rho1.coeffs)) < 1e-8
        assert np.max(np.abs(v1b.coeffs - tp.v1.coeffs)) < 1e-8
        assert np.max(np.abs(v2b.coeffs - tp.v2.coeffs)) < 1e-8


class TestConstraintPropagation:
    def test_mass_exact_momentum_small(self, rng):
        g = Grid.torus3d(4, 4, 16)
        st = admissible_random_state(g, rng, amplitude=0.002)
        traj = run(st, 0.01, 100, {"mass": lambda s: mean(s.rho), **RESIDUAL})
        assert np.max(np.abs(traj["mass"] - 1.0)) < 1e-14
        assert np.max(traj["residual"]) < 1e-8
