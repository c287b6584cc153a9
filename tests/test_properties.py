"""The inequalities and conservation laws behind the Cauchy-Kovalevskaya
argument, as properties over random band-limited fields on line, shear
and torus grids: the Banach algebra of the analytic norm, the monotonicity
of the shrinking norm in the strip-consumption rate eta, the mass
conservation of the drift-advection tendency, Parseval, and the Poisson
solves (phi free of k_perp = 0 content, the mean-1 solvability). The
half-layout kernel (drift advection, field solves, the completion to the
full layout) is checked against full-layout references written here."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftfluid.epsilon import drift_advection
from driftfluid.errors import SolvabilityError
from driftfluid.poisson import TWO_PI_SQ, field_coeffs, phi_coeffs, solve_phi
from driftfluid.spectral import (
    PERP1,
    PERP2,
    NormParams,
    analytic_norm,
    collocation_values,
    constant,
    full_coeffs,
    inner,
    inverse,
    l2_norm,
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
    """drift_advection of half-layout arrays."""
    return drift_advection(grid, collocation_values(grid, rho, True),
                           collocation_values(grid, v, True), v, e1, e2)


def _draw(grid, kmax, rng, n_batch, mean=0.0):
    """Full-layout coefficients of random fields: n_batch of them along a
    leading axis, or one without it when n_batch is 0."""
    arr = np.stack([random_band_field(grid, kmax, rng, mean=mean).coeffs
                    for _ in range(max(n_batch, 1))])
    return arr if n_batch else arr[0]


def _half(grid, coeffs):
    return coeffs[..., :grid.half.shape[-1]]


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3), seed=seeds)
def test_drift_advection_conserves_mass(grid, n_batch, kmax, seed):
    """d_t rho is a divergence: its k = 0 coefficient is exactly zero, with
    or without a leading axis of samples."""
    rng = np.random.default_rng(seed)
    rho, v, e1, e2 = (_half(grid, _draw(grid, kmax, rng, n_batch, mean))
                      for mean in (1.0, 0.0, 0.0, 0.0))
    drho, _ = _tendency(grid, rho, v, e1, e2)
    assert np.all(drho[(..., *(0,) * grid.ndim)] == 0.0)


@given(grid=grids, rho=st.floats(0.1, 3.0), v=st.floats(-2.0, 2.0))
def test_drift_advection_vanishes_on_constant_fields(grid, rho, v):
    """Constant density and velocity, with the zero E_perp of a constant
    density, are stationary."""
    zero = np.zeros(grid.half.shape, dtype=complex)
    drho, dv = _tendency(grid, constant(grid, rho).half_coeffs,
                         constant(grid, v).half_coeffs, zero, zero)
    assert np.max(np.abs(drho)) <= 1e-13 and np.max(np.abs(dv)) <= 1e-13


# -- full-layout references, complex transforms and symbols written out ---

def _axes(grid):
    return tuple(range(-grid.ndim, 0))


def _ref_values(grid, coeffs):
    return (np.fft.ifftn(coeffs, axes=_axes(grid)) * grid.size).real


def _ref_product(grid, f_vals, g_vals):
    mask = np.ones(grid.shape, dtype=bool)
    for i, n in enumerate(grid.shape):
        mask &= np.abs(grid.mode_grid(i)) < n / 3.0
    return np.fft.fftn(f_vals * g_vals, axes=_axes(grid)) / grid.size * mask


def _ref_derivative(grid, coeffs, axis):
    i = grid.axis_index(axis)
    k = grid.mode_grid(i)
    return coeffs * np.where(np.abs(k) == grid.shape[i] // 2, 0.0, 2j * np.pi * k)


def _ref_drift_advection(grid, rho, v, e1, e2):
    par = grid.par_axis
    rv, vv = _ref_values(grid, rho), _ref_values(grid, v)
    drho = -_ref_derivative(grid, _ref_product(grid, vv, rv), par)
    dv = -_ref_product(grid, vv, _ref_values(grid, _ref_derivative(grid, v, par)))
    if PERP1 in grid.axes and PERP2 in grid.axes:
        for comp, label in ((e1, PERP1), (e2, PERP2)):
            cv = _ref_values(grid, comp)
            drho = drho - _ref_derivative(grid, _ref_product(grid, cv, rv), label)
            dv = dv - _ref_derivative(grid, _ref_product(grid, cv, vv), label)
    return drho, dv


def _ref_field_coeffs(grid, rho, eps):
    """phi, V, E_perp, eps d_par phi and E_par of full-layout densities."""
    kpar = grid.mode_grid(grid.par_axis)
    kperp_sq = sum(grid.mode_grid(i) ** 2 for i in grid.perp_axes)
    kperp_sq = np.broadcast_to(kperp_sq, grid.shape)
    symbol = TWO_PI_SQ * (eps**2 * kpar**2 + kperp_sq)
    phi = np.where(kperp_sq == 0, 0.0, rho / np.where(kperp_sq == 0, 1.0, symbol))
    line = grid.par_grid
    k = line.mode_grid(0)
    rho_bar = rho[grid._par_line]
    V = np.where(k == 0, 0.0, rho_bar / np.where(k == 0, 1.0, eps * TWO_PI_SQ * k**2))
    zero = np.zeros(phi.shape, dtype=complex)
    return {
        "phi": phi, "V": V,
        "Eperp1": -_ref_derivative(grid, phi, PERP2) if PERP2 in grid.axes else zero,
        "Eperp2": _ref_derivative(grid, phi, PERP1) if PERP1 in grid.axes else zero,
        "eps_dpar_phi": eps * _ref_derivative(grid, phi, grid.par_axis),
        "Epar": -_ref_derivative(line, V, 0),
    }


def _close(got, want, rel=1e-15):
    return np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3), seed=seeds)
def test_half_completion_is_bitwise_on_hermitian_arrays(grid, n_batch, kmax, seed):
    """Completing the half layout of Hermitian coefficients to the full
    layout gives them back bit for bit, with or without a leading axis."""
    coeffs = _draw(grid, kmax, np.random.default_rng(seed), n_batch, mean=0.5)
    assert np.array_equal(full_coeffs(grid, _half(grid, coeffs)), coeffs)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3), seed=seeds)
def test_half_drift_advection_matches_full_reference(grid, n_batch, kmax, seed):
    rng = np.random.default_rng(seed)
    rho, v, e1, e2 = (_draw(grid, kmax, rng, n_batch, mean)
                      for mean in (1.0, 0.3, 0.0, 0.0))
    half = _tendency(grid, *(_half(grid, c) for c in (rho, v, e1, e2)))
    for got, want in zip(half, _ref_drift_advection(grid, rho, v, e1, e2)):
        assert _close(full_coeffs(grid, got), want)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       eps=st.floats(0.01, 1.0), seed=seeds)
def test_half_field_coeffs_match_full_reference(grid, n_batch, kmax, eps, seed):
    rho = _draw(grid, kmax, np.random.default_rng(seed), n_batch, mean=1.0)
    half = field_coeffs(grid, _half(grid, rho), eps)._asdict()
    for name, want in _ref_field_coeffs(grid, rho, eps).items():
        on = grid.par_grid if name in ("V", "Epar") else grid
        assert _close(full_coeffs(on, half[name]), want), name


@given(grid=grids, kmax=st.integers(0, 3), mean_f=st.floats(-2.0, 2.0),
       mean_g=st.floats(-2.0, 2.0), seed=seeds)
def test_parseval(grid, kmax, mean_f, mean_g, seed):
    """inner and l2_norm are the collocation means of f g and f^2."""
    rng = np.random.default_rng(seed)
    f = random_band_field(grid, kmax, rng, mean=mean_f)
    g = random_band_field(grid, kmax, rng, mean=mean_g)
    fv, gv = inverse(f), inverse(g)
    scale = np.mean(np.abs(fv * gv))
    assert abs(inner(f, g) - np.mean(fv * gv)) <= 1e-13 * scale + 1e-15
    assert l2_norm(f) ** 2 == pytest.approx(np.mean(fv**2), rel=1e-13, abs=1e-15)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       eps=st.floats(0.0, 1.0), seed=seeds)
def test_phi_has_no_perp_zero_content(grid, n_batch, kmax, eps, seed):
    """The screened solve leaves the k_perp = 0 line of phi exactly zero,
    for a field and for half-layout arrays with a leading axis."""
    rng = np.random.default_rng(seed)
    rho = _draw(grid, kmax, rng, n_batch, mean=1.0)
    assert np.all(phi_coeffs(grid, _half(grid, rho), eps)[grid._par_line] == 0.0)
    phi = solve_phi(random_band_field(grid, kmax, rng, mean=1.0), eps)
    assert np.all(phi.coeffs[grid._par_line] == 0.0)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       mean=st.floats(-2.0, 2.0).filter(lambda m: abs(m - 1.0) > 1e-6),
       seed=seeds)
def test_density_mean_other_than_one_is_unsolvable(grid, n_batch, kmax, mean, seed):
    """-eps d_par^2 V = <rho>_perp - 1 needs mean 1: one sample off is
    enough to raise, on either layout."""
    rho = _draw(grid, kmax, np.random.default_rng(seed), n_batch, mean=1.0)
    rho[(..., *(0,) * grid.ndim)] = 1.0
    rho[(0,) * rho.ndim] = mean
    with pytest.raises(SolvabilityError):
        field_coeffs(grid, _half(grid, rho), 0.1)
    with pytest.raises(SolvabilityError):
        field_coeffs(grid, rho, 0.1)
