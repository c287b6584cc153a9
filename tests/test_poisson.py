"""Anisotropic Poisson solvers: closed-form modes, forward-operator
round trips, and the mode-wise symbol bounds."""

import numpy as np
import pytest

from driftfluid.errors import SolvabilityError
from driftfluid.poisson import (
    V_coeffs,
    parallel_coeffs,
    perp_field_coeffs,
    phi_coeffs,
    solve_fields,
)
from driftfluid.spectral import (
    Grid,
    SpectralField,
    constant,
    derivative,
    forward,
    inverse,
    perp_average,
)

from conftest import random_band_field

TWO_PI_SQ = (2 * np.pi) ** 2


def perp_zero_removed(rho):
    """rho minus its perpendicular average (the solvable right-hand side)."""
    grid = rho.grid
    c = np.array(rho.coeffs, copy=True)
    index = [0] * grid.ndim
    index[grid.par_axis] = slice(None)
    c[tuple(index)] = 0.0
    return SpectralField(grid, c, rho.real)


class TestSolvePhi:
    def test_single_perp_mode(self):
        g = Grid.torus3d(8, 8, 8)
        x1 = g.meshgrid()[0]
        rho = forward(g, 1.0 + np.cos(2 * np.pi * x1))
        for eps in (1e-3, 0.3, 1.0):
            phi = SpectralField(g, phi_coeffs(g, rho.coeffs, eps))
            expected = np.cos(2 * np.pi * x1) / TWO_PI_SQ
            assert np.max(np.abs(inverse(phi) - expected)) < 1e-14

    def test_mixed_mode_symbol(self):
        g = Grid.torus3d(8, 8, 8)
        x1, _, xp = g.meshgrid()
        rho_vals = np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * xp)
        phi = SpectralField(g, phi_coeffs(g, forward(g, rho_vals).coeffs, 1.0))
        expected = rho_vals / (TWO_PI_SQ * 2.0)
        assert np.max(np.abs(inverse(phi) - expected)) < 1e-14

    def test_forward_operator_round_trip(self, rng):
        g = Grid.torus3d(8, 8, 8)
        rho = random_band_field(g, 3, rng, amplitude=0.5, mean=1.0)
        for eps in (1.0, 0.1, 0.01):
            phi = SpectralField(g, phi_coeffs(g, rho.coeffs, eps))
            lhs = (-eps**2 * derivative(derivative(phi, "par"), "par")
                   - derivative(derivative(phi, "perp1"), "perp1")
                   - derivative(derivative(phi, "perp2"), "perp2"))
            target = perp_zero_removed(rho)
            assert np.max(np.abs(lhs.coeffs - target.coeffs)) < 1e-11

    def test_gauge_zero_perp_average(self, rng):
        g = Grid.torus3d(8, 8, 8)
        phi = SpectralField(g, phi_coeffs(
            g, random_band_field(g, 3, rng, mean=1.0).coeffs, 0.2))
        assert np.max(np.abs(perp_average(phi).coeffs)) == 0.0

    def test_shear_reduction(self, rng):
        g = Grid.shear2d(8, 16)
        rho = random_band_field(g, 3, rng, mean=1.0)
        phi = SpectralField(g, phi_coeffs(g, rho.coeffs, 0.5))
        lhs = (-0.25 * derivative(derivative(phi, "par"), "par")
               - derivative(derivative(phi, "perp1"), "perp1"))
        target = perp_zero_removed(rho)
        assert np.max(np.abs(lhs.coeffs - target.coeffs)) < 1e-11


class TestPerpField:
    def test_constant_potential(self):
        g = Grid.torus3d(4, 4, 4)
        e1, e2 = (SpectralField(g, c)
                  for c in perp_field_coeffs(g, constant(g, 2.0).coeffs))
        assert np.max(np.abs(e1.coeffs)) == 0.0
        assert np.max(np.abs(e2.coeffs)) == 0.0

    def test_analytic_gradient(self):
        g = Grid.torus3d(8, 8, 4)
        x2 = g.meshgrid()[1]
        phi = forward(g, np.sin(2 * np.pi * x2))
        e1, e2 = (SpectralField(g, c) for c in perp_field_coeffs(g, phi.coeffs))
        assert np.max(np.abs(inverse(e1) + 2 * np.pi * np.cos(2 * np.pi * x2))) < 1e-12
        assert np.max(np.abs(e2.coeffs)) < 1e-14

    def test_divergence_free(self, rng):
        g = Grid.torus3d(8, 8, 8)
        phi = random_band_field(g, 3, rng)
        e1, e2 = (SpectralField(g, c) for c in perp_field_coeffs(g, phi.coeffs))
        div = derivative(e1, "perp1") + derivative(e2, "perp2")
        assert np.max(np.abs(div.coeffs)) < 1e-12


class TestSolveV:
    def test_quasineutral_rest(self):
        line = Grid.line(16)
        V = SpectralField(line, V_coeffs(line, constant(line, 1.0).coeffs, 0.3))
        assert np.max(np.abs(V.coeffs)) == 0.0

    def test_single_mode_scaling(self):
        line = Grid.line(16)
        x = line.coordinates(0)
        for eps in (1.0, 1e-2):
            rho_bar = forward(line, 1.0 + np.sqrt(eps) * np.cos(2 * np.pi * x))
            V = SpectralField(line, V_coeffs(line, rho_bar.coeffs, eps))
            expected = np.cos(2 * np.pi * x) / (np.sqrt(eps) * TWO_PI_SQ)
            assert np.max(np.abs(inverse(V) - expected)) < 1e-11 / eps

    def test_forward_operator(self, rng):
        line = Grid.line(16)
        rho_bar = random_band_field(line, 5, rng, amplitude=0.3, mean=1.0)
        for eps in (1.0, 0.1, 0.01):
            V = SpectralField(line, V_coeffs(line, rho_bar.coeffs, eps))
            lhs = -eps * derivative(derivative(V, 0), 0)
            c = np.array(rho_bar.coeffs, copy=True)
            c[0] = 0.0
            assert np.max(np.abs(lhs.coeffs - c)) < 1e-11

    def test_solvability_guard(self):
        line = Grid.line(8)
        with pytest.raises(SolvabilityError):
            V_coeffs(line, constant(line, 1.1).coeffs, 0.1)


class TestSymbolBounds:
    """Mode-wise estimates pinned with the explicit 2 pi constants."""

    def test_perp_field_bound(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for eps in (1.0, 0.1, 0.01):
            for _ in range(10):
                rho = random_band_field(g, 3, rng, mean=1.0)
                rho_p = perp_zero_removed(rho)
                _, forces = solve_fields(rho, eps)
                mag = np.sqrt(np.abs(forces.Eperp1.coeffs) ** 2
                              + np.abs(forces.Eperp2.coeffs) ** 2)
                bound = np.abs(rho_p.coeffs) / (2 * np.pi)
                assert np.all(mag <= bound + 1e-13)

    def test_parallel_force_smallness(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for eps in (1.0, 0.1, 0.01):
            for _ in range(10):
                rho = random_band_field(g, 3, rng, mean=1.0)
                rho_p = perp_zero_removed(rho)
                _, forces = solve_fields(rho, eps)
                bound = np.abs(rho_p.coeffs) / (4 * np.pi)
                assert np.all(np.abs(forces.eps_dpar_phi.coeffs) <= bound + 1e-13)

    def test_parallel_force_consistency(self, rng):
        line = Grid.line(16)
        rho_bar = random_band_field(line, 4, rng, amplitude=0.2, mean=1.0)
        V, E = (SpectralField(line, c)
                for c in parallel_coeffs(line, rho_bar.coeffs, 0.4))
        assert np.max(np.abs((E + derivative(V, 0)).coeffs)) == 0.0
