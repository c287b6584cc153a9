"""The inequalities and conservation laws behind the Cauchy-Kovalevskaya
argument, as properties over random band-limited fields on line, shear
and torus grids: the Banach algebra of the analytic norm, the monotonicity
of the shrinking norm in the strip-consumption rate eta, and the mass
conservation of the drift-advection tendency."""

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from driftfluid.epsilon import drift_advection
from driftfluid.spectral import (
    NormParams,
    analytic_norm,
    collocation_values,
    constant,
    product,
    shrinking_norm,
)

from conftest import PROPERTY_GRIDS, random_band_field

grids = st.sampled_from(PROPERTY_GRIDS)
seeds = st.integers(0, 2**32 - 1)


@given(grid=grids, kmax=st.integers(0, 3), delta=st.floats(1.0, 2.0),
       mean_f=st.floats(-2.0, 2.0), mean_g=st.floats(-2.0, 2.0), seed=seeds)
def test_banach_algebra(grid, kmax, delta, mean_f, mean_g, seed):
    """|fg|_delta <= |f|_delta |g|_delta for the dealiased product."""
    rng = np.random.default_rng(seed)
    f = random_band_field(grid, kmax, rng, mean=mean_f)
    g = random_band_field(grid, kmax, rng, mean=mean_g)
    lhs = analytic_norm(product(f, g), delta)
    assert lhs <= analytic_norm(f, delta) * analytic_norm(g, delta) * (1 + 1e-12) + 1e-13


@given(grid=grids, n_t=st.integers(1, 5), kmax=st.integers(0, 3),
       etas=st.lists(st.floats(0.05, 4.0), min_size=2, max_size=2),
       beta=st.floats(0.05, 0.95), seed=seeds)
def test_shrinking_norm_non_decreasing_in_eta(grid, n_t, kmax, etas, beta, seed):
    """A larger eta widens the admissible (delta, t) wedge and every gap
    weight in it, so the shrinking norm of a fixed trajectory cannot fall."""
    rng = np.random.default_rng(seed)
    lo, hi = sorted(etas)
    p_lo = NormParams(delta0=1.5, delta=1.1, eta=lo, beta=beta, n_delta=8)
    times = np.sort(rng.random(n_t)) * 0.99 * p_lo.horizon
    coeffs = np.stack([random_band_field(grid, kmax, rng).coeffs for _ in range(n_t)])
    assert shrinking_norm(times, coeffs, p_lo) <= \
        shrinking_norm(times, coeffs, replace(p_lo, eta=hi))


def _tendency(grid, rho, v, e1, e2):
    return drift_advection(grid, collocation_values(grid, rho),
                           collocation_values(grid, v), v, e1, e2)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3), seed=seeds)
def test_drift_advection_conserves_mass(grid, n_batch, kmax, seed):
    """d_t rho is a divergence: its k = 0 coefficient is exactly zero, with
    or without a leading axis of samples."""
    rng = np.random.default_rng(seed)
    shape = (max(n_batch, 1),)

    def draw(mean=0.0):
        arr = np.stack([random_band_field(grid, kmax, rng, mean=mean).coeffs
                        for _ in range(shape[0])])
        return arr if n_batch else arr[0]

    drho, _ = _tendency(grid, draw(1.0), draw(), draw(), draw())
    assert np.all(drho[(..., *(0,) * grid.ndim)] == 0.0)


@given(grid=grids, rho=st.floats(0.1, 3.0), v=st.floats(-2.0, 2.0))
def test_drift_advection_vanishes_on_constant_fields(grid, rho, v):
    """Constant density and velocity, with the zero E_perp of a constant
    density, are stationary."""
    zero = np.zeros(grid.shape, dtype=complex)
    drho, dv = _tendency(grid, constant(grid, rho).coeffs,
                         constant(grid, v).coeffs, zero, zero)
    assert np.max(np.abs(drho)) <= 1e-13 and np.max(np.abs(dv)) <= 1e-13
