"""Spectral core: transforms, derivatives, dealiased products, averages,
analytic norms, and their inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftfluid.errors import ConfigError, InvariantError
from driftfluid.spectral import (
    Grid,
    NormParams,
    SpectralField,
    analytic_norm,
    collocation_values,
    constant,
    derivative,
    embed_parallel,
    forward,
    from_modes,
    full_coeffs,
    gradient_norm,
    inner,
    inverse,
    mean,
    perp_average,
    product,
    product_coeffs,
    shrinking_norm,
    translate,
    zeros,
)

from conftest import PROPERTY_GRIDS, random_band_field
from oracles import direct_convolution, direct_dft, direct_series_sum, fd8_derivative


class TestGrid:
    def test_axis_bookkeeping(self):
        g = Grid.torus3d(4, 8, 16)
        assert g.par_axis == 2
        assert g.perp_axes == (0, 1)
        assert g.par_grid == Grid.line(16)
        assert list(g.modes("par")) == list(np.fft.fftfreq(16) * 16)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ConfigError):
            Grid.torus3d(5, 4, 4)
        with pytest.raises(ConfigError):
            Grid.line(2)

    def test_dealias_mask_two_thirds(self):
        g = Grid.line(8)
        kept = sorted(g.modes(0)[g.dealias_mask])
        assert kept == [-2, -1, 0, 1, 2]

    def test_reductions(self):
        g = Grid.shear2d(4, 16)
        assert g.axes == ("perp1", "par")
        assert g.par_axis == 1


class TestTransforms:
    def test_constant_field(self):
        g = Grid.torus3d(4, 4, 4)
        f = forward(g, np.ones(g.shape))
        assert abs(f.coeffs[0, 0, 0] - 1.0) < 1e-14
        others = np.abs(f.coeffs).sum() - abs(f.coeffs[0, 0, 0])
        assert others < 1e-13

    def test_single_cosine_coefficients(self):
        g = Grid.torus3d(8, 8, 8)
        x1 = g.meshgrid()[0]
        f = forward(g, np.cos(2 * np.pi * x1))
        assert abs(f.coeffs[1, 0, 0] - 0.5) < 1e-14
        assert abs(f.coeffs[-1, 0, 0] - 0.5) < 1e-14

    def test_forward_matches_direct_dft(self, rng):
        g = Grid.torus3d(8, 8, 8)
        values = rng.standard_normal(g.shape)
        f = forward(g, values)
        assert np.max(np.abs(f.coeffs - direct_dft(values))) < 1e-12

    def test_round_trip(self, rng):
        for g in (Grid.torus3d(8, 8, 8), Grid.shear2d(8, 16), Grid.line(32)):
            values = rng.standard_normal(g.shape)
            back = inverse(forward(g, values))
            assert np.max(np.abs(back - values)) < 1e-12 * (1 + np.max(np.abs(values)))

    def test_inverse_constant_and_cosine(self):
        g = Grid.torus3d(4, 4, 8)
        assert np.allclose(inverse(constant(g, 2.5)), 2.5)
        f = from_modes(g, {(0, 0, 1): 0.5})
        xp = g.meshgrid()[2]
        assert np.max(np.abs(inverse(f) - np.cos(2 * np.pi * xp))) < 1e-13

    def test_inverse_matches_direct_summation(self, rng):
        g = Grid.torus3d(8, 8, 8)
        f = random_band_field(g, 3, rng)
        direct = direct_series_sum(f.coeffs)
        assert np.max(np.abs(direct.imag)) < 1e-10
        assert np.max(np.abs(inverse(f) - direct.real)) < 1e-12

    def test_forward_size_mismatch(self):
        with pytest.raises(ConfigError):
            forward(Grid.line(8), np.ones(9))

    @pytest.mark.parametrize("grid", [Grid.line(8), Grid.shear2d(4, 8),
                                      Grid.torus3d(4, 4, 8)],
                             ids=["line", "shear2d", "torus3d"])
    def test_inverse_rejects_broken_symmetry(self, grid):
        c = np.zeros(grid.shape, dtype=complex)
        c[(0,) * (grid.ndim - 1) + (1,)] = 1.0  # no conjugate partner
        with pytest.raises(InvariantError):
            inverse(SpectralField(grid, c, real=True))

    def test_inverse_rejects_a_defect_at_negative_kpar_only(self, rng):
        """The real transform reads k_par >= 0 alone, so a broken partner
        at k_par < 0 must be caught from the full coefficients."""
        g = Grid.torus3d(4, 4, 8)
        c = random_band_field(g, 2, rng).coeffs.copy()
        c[1, 2, -2] += 0.5
        with pytest.raises(InvariantError):
            inverse(SpectralField(g, c, real=True))

    @pytest.mark.parametrize("real", [True, False])
    def test_inverse_reuses_the_cached_values(self, real, rng, monkeypatch):
        """inverse() reads the field's one cached transform, and what it
        returns is the caller's own array."""
        g = Grid.torus3d(4, 4, 8)
        f = random_band_field(g, 2, rng)
        if not real:
            f = SpectralField(g, f.coeffs * (1 + 2j), real=False)
        name = "irfftn" if real else "ifftn"
        direct = getattr(np.fft, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return direct(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
        first = inverse(f)
        first[...] = 0.0
        second = inverse(f)
        assert len(calls) == 1
        expected = (direct(f.half_coeffs, s=g.shape, axes=(0, 1, 2)) if real
                    else direct(f.coeffs)) * g.size
        assert np.array_equal(second, expected)


class TestDerivative:
    def test_constant_derivative_vanishes(self):
        g = Grid.torus3d(4, 4, 4)
        d = derivative(constant(g, 3.0), "par")
        assert np.max(np.abs(d.coeffs)) == 0.0

    def test_cosine_derivative(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        f = forward(g, np.cos(2 * np.pi * xp))
        d = inverse(derivative(f, "par"))
        assert np.max(np.abs(d + 2 * np.pi * np.sin(2 * np.pi * xp))) < 1e-12

    def test_against_finite_differences(self, rng):
        g = Grid.line(64)
        f = random_band_field(g, 2, rng)
        vals = inverse(f)
        spectral = inverse(derivative(f, 0))
        fd = fd8_derivative(vals, axis=0)
        scale = np.max(np.abs(spectral))
        assert np.max(np.abs(spectral - fd)) / scale < 1e-8

    def test_axis_resolution(self):
        g = Grid.shear2d(4, 8)
        f = random_band_field(g, 1, np.random.default_rng(0))
        assert np.allclose(derivative(f, "par").coeffs,
                           derivative(f, 1).coeffs)
        with pytest.raises(ConfigError):
            derivative(f, "perp2")


class TestProduct:
    def test_identity(self, rng):
        g = Grid.torus3d(8, 8, 8)
        f = random_band_field(g, 2, rng)
        p = product(constant(g, 1.0), f)
        assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-14

    def test_cosine_squared(self):
        g = Grid.line(16)
        x = g.meshgrid()[0]
        f = forward(g, np.cos(2 * np.pi * x))
        p = inverse(product(f, f))
        assert np.max(np.abs(p - (0.5 + 0.5 * np.cos(4 * np.pi * x)))) < 1e-13

    def test_matches_direct_convolution(self, rng):
        g = Grid.torus3d(8, 8, 8)
        # supports within |k| <= 1: products reach |k| <= 2 < 8/3, exact
        f = random_band_field(g, 1, rng)
        h = random_band_field(g, 1, rng)
        p = product(f, h)
        conv = direct_convolution(f.coeffs, h.coeffs)
        assert np.max(np.abs(p.coeffs - conv)) < 1e-12

    def test_dealiased_after_product(self, rng):
        g = Grid.line(16)
        f = random_band_field(g, 5, rng)   # at the cutoff for N = 16
        p = product(f, f)
        assert p.is_dealiased()

    def test_grid_mismatch(self, rng):
        f = random_band_field(Grid.line(8), 1, rng)
        h = random_band_field(Grid.line(16), 1, rng)
        with pytest.raises(ConfigError):
            product(f, h)


class TestPerpAverage:
    def test_pure_perp_mode_averages_to_zero(self):
        g = Grid.torus3d(8, 4, 8)
        x1 = g.meshgrid()[0]
        f = forward(g, np.cos(2 * np.pi * x1))
        avg = perp_average(f)
        assert np.max(np.abs(avg.coeffs)) < 1e-14

    def test_parallel_mode_passes_through(self):
        g = Grid.torus3d(4, 4, 8)
        xp = g.meshgrid()[2]
        f = forward(g, np.cos(2 * np.pi * xp))
        avg = perp_average(f)
        line = Grid.line(8)
        expected = forward(line, np.cos(2 * np.pi * line.coordinates(0)))
        assert np.max(np.abs(avg.coeffs - expected.coeffs)) < 1e-14

    def test_matches_real_space_quadrature(self, rng):
        g = Grid.torus3d(8, 8, 8)
        f = random_band_field(g, 3, rng)
        quad = np.mean(inverse(f), axis=(0, 1))
        assert np.max(np.abs(inverse(perp_average(f)) - quad)) < 1e-12

    def test_embed_round_trip(self, rng):
        g = Grid.torus3d(4, 4, 16)
        line = random_band_field(g.par_grid, 4, rng)
        embedded = embed_parallel(line, g)
        back = perp_average(embedded)
        assert np.max(np.abs(back.coeffs - line.coeffs)) < 1e-15


class TestAnalyticNorm:
    def test_constant(self):
        g = Grid.line(8)
        assert analytic_norm(constant(g, -3.0), 1.7) == pytest.approx(3.0)

    def test_two_modes_at_weight(self):
        g = Grid.torus3d(8, 4, 4)
        x1 = g.meshgrid()[0]
        f = forward(g, np.cos(2 * np.pi * x1))
        assert analytic_norm(f, 2.0) == pytest.approx(2.0, abs=1e-13)

    def test_matches_direct_weighted_sum(self, rng):
        g = Grid.torus3d(8, 8, 8)
        f = random_band_field(g, 2, rng)
        delta = 1.3
        total = 0.0
        for idx in np.ndindex(g.shape):
            k = [g.modes(i)[j] for i, j in enumerate(idx)]
            total += abs(f.coeffs[idx]) * delta ** sum(abs(kk) for kk in k)
        assert analytic_norm(f, delta) == pytest.approx(total, rel=1e-14)

    def test_overflow_saturates(self):
        g = Grid.line(64)
        f = random_band_field(g, 21, np.random.default_rng(1))
        assert analytic_norm(f, 1e12) == math.inf

    def test_rejects_delta_below_one(self, rng):
        f = random_band_field(Grid.line(8), 1, rng)
        with pytest.raises(ConfigError):
            analytic_norm(f, 0.9)


class TestNormLaws:
    """The algebra, derivative-loss, contraction and embedding laws."""

    def test_banach_algebra(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for _ in range(40):
            f = random_band_field(g, 2, rng)
            h = random_band_field(g, 2, rng)
            for delta in (1.0, 1.4, 2.0):
                lhs = analytic_norm(product(f, h), delta)
                rhs = analytic_norm(f, delta) * analytic_norm(h, delta)
                assert lhs <= rhs + 1e-10

    def test_derivative_loss(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for _ in range(40):
            f = random_band_field(g, 2, rng)
            lo, hi = sorted(1.0 + rng.random(2) + 1e-3)
            for axis in range(3):
                lhs = analytic_norm(derivative(f, axis), lo) / (2 * np.pi)
                rhs = hi / (hi - lo) * analytic_norm(f, hi)
                assert lhs <= rhs + 1e-10

    def test_perp_average_contracts(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for _ in range(20):
            f = random_band_field(g, 2, rng)
            delta = 1.0 + rng.random()
            line = perp_average(f)
            assert analytic_norm(line, delta) <= analytic_norm(f, delta) + 1e-12

    def test_embedding_monotone(self, rng):
        g = Grid.torus3d(8, 8, 8)
        for _ in range(20):
            f = random_band_field(g, 2, rng)
            lo, hi = sorted(1.0 + rng.random(2))
            assert analytic_norm(f, lo) <= analytic_norm(f, hi) + 1e-12


class TestShrinkingNorm:
    def params(self, **kw):
        base = dict(delta0=1.5, delta=1.2, eta=2.0, beta=0.5)
        base.update(kw)
        return NormParams(**base)

    def test_constant_trajectory(self):
        g = Grid.line(8)
        p = self.params()
        fields = [constant(g, 2.0)] * 4
        times = np.linspace(0.0, 0.5 * p.horizon, 4)
        assert shrinking_norm(times, fields, p) == pytest.approx(2.0)

    def test_single_snapshot_top_delta_weight_vanishes(self, rng):
        g = Grid.line(8)
        p = self.params(n_delta=1)   # delta grid = {delta0}
        f = random_band_field(g, 2, rng)
        val = shrinking_norm([0.0], [f], p)
        assert val == pytest.approx(analytic_norm(f, p.delta0), rel=1e-12)

    @pytest.mark.parametrize("g,n_delta", [(Grid.line(8), 4),
                                           (Grid.torus3d(4, 4, 8), 16)],
                             ids=["line", "torus3d"])
    def test_matches_hand_rolled_sup(self, rng, g, n_delta):
        p = self.params(n_delta=n_delta)
        f1 = random_band_field(g, 2, rng)
        f2 = random_band_field(g, 2, rng)
        times = np.array([0.0, 0.3 * p.horizon])
        best = 0.0
        for delta in p.delta_grid():
            for t, f in zip(times, (f1, f2)):
                if t > p.eta * (p.delta0 - delta) + 1e-15:
                    continue
                w = max(p.delta0 - delta - t / p.eta, 0.0) ** p.beta
                best = max(best, analytic_norm(f, delta) + w * gradient_norm(f, delta))
        assert shrinking_norm(times, [f1, f2], p) == pytest.approx(best, rel=1e-14)

    def test_rejects_time_outside_window(self, rng):
        g = Grid.line(8)
        p = self.params()
        f = random_band_field(g, 1, rng)
        with pytest.raises(ConfigError):
            shrinking_norm([p.horizon * 1.01], [f], p)

    def test_stacked_coefficients_match_fields(self, rng):
        g = Grid.torus3d(4, 4, 8)
        p = self.params()
        fields = [random_band_field(g, 2, rng) for _ in range(3)]
        times = np.linspace(0.0, 0.5 * p.horizon, 3)
        stacked = np.stack([f.coeffs for f in fields])
        assert shrinking_norm(times, stacked, p) == shrinking_norm(times, fields, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_saturates(self, rng, bad):
        g = Grid.torus3d(4, 4, 8)
        p = self.params()
        fields = [random_band_field(g, 2, rng) for _ in range(2)]
        coeffs = fields[1].coeffs.copy()
        coeffs[1, 0, 2] = bad
        fields[1] = SpectralField(g, coeffs)
        times = [0.0, 0.2 * p.horizon]
        assert shrinking_norm(times, fields, p) == math.inf
        stacked = np.stack([f.coeffs for f in fields])
        assert shrinking_norm(times, stacked, p) == math.inf

    def test_rejects_fields_on_different_grids(self, rng):
        p = self.params()
        f = random_band_field(Grid.line(8), 1, rng)
        h = random_band_field(Grid.line(16), 1, rng)
        with pytest.raises(ConfigError):
            shrinking_norm([0.0, 0.1], [f, h], p)


class TestSecondDerivativeDiagnostic:
    def test_shrinking_norm_controls_second_derivatives(self, rng):
        """Diagnostic inequality: for u in the shrinking-norm ball,
        |d_i d_j u(t)|_delta <= 2^(1+beta) ||u|| delta0
        (delta0 - delta - t/eta)^(-beta-1) on the admissible wedge."""
        from driftfluid.spectral import second_derivative_norm
        g = Grid.torus3d(8, 8, 8)
        p = NormParams(delta0=1.6, delta=1.2, eta=1.5, beta=0.5, n_delta=8)
        for _ in range(10):
            f = random_band_field(g, 2, rng)
            t = float(rng.random()) * 0.3 * p.horizon
            norm = shrinking_norm([t], [f], p)
            for delta in (1.05, 1.2):
                gap = p.delta0 - delta - t / p.eta
                if gap <= 0:
                    continue
                bound = 2 ** (1 + p.beta) * norm * p.delta0 * gap ** (-p.beta - 1)
                for i in range(3):
                    for j in range(3):
                        assert second_derivative_norm(f, i, j, delta) <= bound + 1e-10


class TestBatchedProductProperty:
    @settings(max_examples=60)
    @given(grid=st.sampled_from(PROPERTY_GRIDS), n_batch=st.integers(1, 4),
           kmax=st.integers(0, 3), mean=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_leading_axis_matches_per_slice(self, grid, n_batch, kmax, mean, seed):
        """A dealiased product over a leading axis equals the one-field
        product() of every slice bitwise, and stays Hermitian."""
        rng = np.random.default_rng(seed)
        fs = [random_band_field(grid, kmax, rng, mean=mean) for _ in range(n_batch)]
        gs = [random_band_field(grid, kmax, rng) for _ in range(n_batch)]
        batched = full_coeffs(grid, product_coeffs(
            grid, collocation_values(grid, np.stack([f.half_coeffs for f in fs]), True),
            collocation_values(grid, np.stack([g.half_coeffs for g in gs]), True), True))
        per_slice = np.stack([product(f, g).coeffs for f, g in zip(fs, gs)])
        assert np.array_equal(batched, per_slice)
        for coeffs in batched:
            assert SpectralField(grid, coeffs).hermitian_defect() <= 1e-14


class TestFieldUtilities:
    def test_translate(self, rng):
        g = Grid.line(32)
        f = random_band_field(g, 4, rng)
        shifted = translate(f, [0.25])
        x = g.coordinates(0)
        expected = direct_series_sum(f.coeffs).real
        rolled = inverse(shifted)
        # f(x - 0.25) sampled on the grid equals values rolled by 8 points
        assert np.max(np.abs(rolled - np.roll(expected, 8))) < 1e-12

    def test_inner_is_parseval(self, rng):
        g = Grid.torus3d(4, 4, 8)
        f = random_band_field(g, 1, rng)
        h = random_band_field(g, 1, rng)
        quad = np.mean(inverse(f) * inverse(h))
        assert inner(f, h) == pytest.approx(quad, rel=1e-12)

    def test_mean(self, rng):
        g = Grid.line(16)
        f = random_band_field(g, 2, rng, mean=1.5)
        assert mean(f) == pytest.approx(1.5)
        assert mean(zeros(g)) == 0.0
