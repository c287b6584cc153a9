"""The inequalities and conservation laws behind the Cauchy-Kovalevskaya
argument, as properties over random band-limited fields on line, shear
and torus grids: the Banach algebra of the analytic norm, the monotonicity
of the analytic and gradient norms in delta and of the shrinking norm in
the strip-consumption rate eta, the mass conservation of the
drift-advection tendency, Parseval, and the Poisson solves (phi free of
k_perp = 0 content, the mean-1 solvability, the mode-wise force bounds). The
half-layout kernel (drift advection, field solves, the completion to the
full layout) is checked against full-layout references written here, the
band layout's pruned transforms and completion byte for byte against
irfftn, the masked rfftn and the half completion, and the kernel's
stacked, blocked transforms bit for bit against one numpy.fft call
per field and per product (tests/oracles.py), with the number of
transforms of the stepped systems and of a CK iteration counted and the
peak memory of a kernel call bounded."""

import contextlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from driftfluid import ck, epsilon, limit, spectral, toymodel, twostream
from driftfluid.epsilon import drift_advection
from driftfluid.errors import SolvabilityError
from driftfluid.poisson import TWO_PI_SQ, field_coeffs, phi_coeffs
from driftfluid.spectral import (
    PERP1,
    PERP2,
    Grid,
    NormParams,
    analytic_norm,
    band_coeffs,
    block_rows,
    collocation_values,
    constant,
    dealias,
    dealiased_coeffs,
    full_coeffs,
    gradient_norm,
    inner,
    inverse,
    l2_norm,
    product,
    product_coeffs,
    shrinking_norm,
)

from conftest import PROPERTY_GRIDS, count_transforms, random_band_field
from oracles import (
    per_field_values,
    per_product_coeffs,
    per_product_drift_advection,
    per_row_product_coeffs,
    per_row_values,
)

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


@given(grid=grids, kmax=st.integers(0, 3), mean=st.floats(-2.0, 2.0),
       deltas=st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2), seed=seeds)
def test_analytic_and_gradient_norms_non_decreasing_in_delta(grid, kmax, mean,
                                                             deltas, seed):
    """Each weight, delta^|k| and |k| delta^|k|, is non-decreasing in
    delta >= 1, and so are the analytic and gradient norms."""
    f = random_band_field(grid, kmax, np.random.default_rng(seed), mean=mean)
    lo, hi = sorted(deltas)
    assert analytic_norm(f, lo) <= analytic_norm(f, hi)
    assert gradient_norm(f, lo) <= gradient_norm(f, hi)


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
    return drift_advection(grid, rho, v, e1, e2)


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


@contextlib.contextmanager
def _fft_path():
    """A context in which no grid has band matrices (MATRIX_BYTES 0), so
    every band transform is the pruned FFT one: the path the pocketfft
    checks below were written for."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "MATRIX_BYTES", 0)
        yield patch


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
    with _fft_path():
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
    phi = phi_coeffs(grid, random_band_field(grid, kmax, rng, mean=1.0).coeffs, eps)
    assert np.all(phi[grid._par_line] == 0.0)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       eps=st.floats(1e-300, 1.0), half=st.booleans(), seed=seeds)
def test_force_symbol_bounds(grid, n_batch, kmax, eps, half, seed):
    """Mode by mode, on either layout and with or without a leading axis:
    |E_perp(k)| <= |rho(k)|/(2 pi), as |k_perp| >= 1 off the k_perp = 0
    line, and |eps d_par phi(k)| <= |rho(k)|/(4 pi), as eps^2 k_par^2 +
    |k_perp|^2 >= 2 eps |k_par| |k_perp|; on the line both forces vanish.
    TestSymbolBounds pins the same constants on one 8^3 grid. eps stops at
    1e-300: below it the parallel potential, of order 1/eps, overflows."""
    rho = _draw(grid, kmax, np.random.default_rng(seed), n_batch, mean=1.0)
    if half:
        rho = _half(grid, rho)
    forces = field_coeffs(grid, rho, eps)
    off_line = np.abs(rho)
    off_line[grid._par_line] = 0.0
    e_perp = np.sqrt(np.abs(forces.Eperp1) ** 2 + np.abs(forces.Eperp2) ** 2)
    assert np.all(e_perp <= off_line / (2 * np.pi) + 1e-13)
    assert np.all(np.abs(forces.eps_dpar_phi) <= off_line / (4 * np.pi) + 1e-13)


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


# -- the stacked, blocked transforms of the kernel ---------------------------

def _stacked_kernel(grid, n_batch, kmax, cached, seed):
    """Random inputs, and drift_advection of them with the pressure
    closure's flux."""
    rng = np.random.default_rng(seed)
    inputs = tuple(_half(grid, _draw(grid, kmax, rng, n_batch, mean))
                   for mean in (1.0, 0.3, 0.0, 0.0))
    rho, v = inputs[:2]
    values = ((collocation_values(grid, rho, True),
               collocation_values(grid, v, True)) if cached else None)
    got = drift_advection(grid, *inputs, values, pressure=True)
    return inputs, got


def _assert_per_transform(grid, inputs, got):
    """The kernel's outputs equal the one-call-per-transform oracle's bit
    for bit."""
    want = per_product_drift_advection(grid, *inputs)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       cached=st.booleans(), seed=seeds)
def test_stacked_kernel_is_bitwise_per_transform(grid, n_batch, kmax, cached, seed):
    """One stacked inverse and one stacked forward transform per stage,
    with or without a leading axis and with rho's and v's values cached
    or not, move no bit of the tendencies."""
    with _fft_path():
        outputs = _stacked_kernel(grid, n_batch, kmax, cached, seed)
    _assert_per_transform(grid, *outputs)


@example(grid=Grid.torus3d(4, 4, 8), n_batch=3, kmax=2, cached=False, rows=2, seed=1)
@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       cached=st.booleans(), rows=st.integers(1, 4), seed=seeds)
def test_kernel_blocks_are_bitwise_per_transform(grid, n_batch, kmax, cached,
                                                 rows, seed):
    """With a budget of `rows` fields per numpy.fft call, the fields and
    products of a stage span several calls, and a field's leading rows
    are cut into chunks, the last one partial (the example: 3 rows in
    chunks of 2 and 1). No call takes more rows, and the tendencies still
    match bit for bit."""
    with _fft_path() as patch:
        patch.setattr(spectral, "FFT_BLOCK_POINTS", rows * grid.size)
        calls = count_transforms(patch)
        outputs = _stacked_kernel(grid, n_batch, kmax, cached, seed)
    assert max(math.prod(shape[:-grid.ndim]) for _, shape in calls) <= rows
    _assert_per_transform(grid, *outputs)


# -- the band layout and its pruned transforms -----------------------------

@pytest.mark.parametrize("grid", PROPERTY_GRIDS + [
    Grid.line(12), Grid.shear2d(6, 18), Grid.torus3d(6, 12, 24), Grid.torus3d(32, 32, 64)])
def test_band_holds_exactly_the_dealiased_modes(grid):
    """The band layout keeps every mode of the half layout that the 2/3
    rule keeps and no other, also where n/3 is itself a mode."""
    assert grid.band.dealias_mask.all()
    assert math.prod(grid.band.shape) == np.count_nonzero(grid.half.dealias_mask)
    assert grid.symbols(np.zeros(grid.band.shape)) is grid.band


def _band_limited(grid, kmax, rng, n_batch, mean=0.0):
    """Full-layout coefficients of random dealiased fields (see _draw)."""
    return _draw(grid, kmax, rng, n_batch, mean) * grid.dealias_mask


def _on_band(grid, half):
    """The band entries of half-layout arrays, read off the 2/3 mask."""
    lead = half.shape[:half.ndim - grid.ndim]
    return half[..., grid.half.dealias_mask].reshape(lead + grid.band.shape)


@example(grid=Grid.torus3d(6, 6, 12), n_batch=2, kmax=3, rows=1, seed=0)
@given(grid=grids, n_batch=st.integers(0, 3), kmax=st.integers(0, 3),
       rows=st.integers(1, 4), seed=seeds)
def test_band_transforms_are_bytewise_irfftn_and_masked_rfftn(grid, n_batch, kmax,
                                                             rows, seed):
    """On dealiased fields, with any leading rows and a budget of `rows`
    of them per numpy.fft call, the band's pruned inverse gives the bytes
    of irfftn, and its pruned forward of a product the bytes of the
    band entries of rfftn with the 2/3 mask, signed zeros included."""
    rng = np.random.default_rng(seed)
    f, g = (_band_limited(grid, kmax, rng, n_batch, mean) for mean in (1.0, 0.3))
    with _fft_path() as patch:
        patch.setattr(spectral, "FFT_BLOCK_POINTS", rows * grid.size)
        calls = count_transforms(patch)
        f_vals, g_vals = (collocation_values(grid, band_coeffs(grid, c), True)
                          for c in (f, g))
        got = product_coeffs(grid, f_vals, g_vals, True)
    assert max(math.prod(shape[:-grid.ndim]) for _, shape in calls) <= rows
    want_f, want_g = (per_field_values(grid, _half(grid, c)) for c in (f, g))
    assert f_vals.tobytes() == want_f.tobytes() and g_vals.tobytes() == want_g.tobytes()
    want = _on_band(grid, per_product_coeffs(grid, want_f, want_g))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(grid=grids, n_batch=st.integers(0, 3), seed=seeds)
def test_band_completion_is_bytewise_the_half_completion(grid, n_batch, seed):
    """Completing a band array gives the bytes of completing its scatter
    into a half array, Hermitian or not."""
    rng = np.random.default_rng(seed)
    lead = (n_batch,) if n_batch else ()
    band = (rng.standard_normal(lead + grid.band.shape)
            + 1j * rng.standard_normal(lead + grid.band.shape))
    half = np.zeros(lead + grid.half.shape, dtype=complex)
    half[..., grid.half.dealias_mask] = band.reshape(lead + (-1,))
    assert full_coeffs(grid, band).tobytes() == full_coeffs(grid, half).tobytes()


def _state_fields(grid):
    rng = np.random.default_rng(3)
    rho = random_band_field(grid, 2, rng, amplitude=0.02, mean=1.0)
    return rho, random_band_field(grid, 2, rng, amplitude=0.1)


# a band transform (see spectral) is one numpy.fft call per grid axis
BAND_3D = {"ifft", "irfft", "fft", "rfft"}
BAND_LINE = {"irfft", "rfft"}


def test_eps_step_transforms_once_each_way_per_stage(monkeypatch):
    """One eps step at 4x4x16 whose fields hold cached values (as after a
    recorded sample) makes 8 real transforms: one stacked inverse and one
    stacked forward per RK4 stage (42 with one call per field), each one
    numpy.fft call per grid axis."""
    monkeypatch.setattr(spectral, "MATRIX_BYTES", 0)
    grid = Grid.torus3d(4, 4, 16)
    state = epsilon.make_eps_state(*_state_fields(grid), 0.05)
    state.rho._values, state.v._values
    calls = count_transforms(monkeypatch)
    epsilon.step(state, 1e-3)
    assert len(calls) <= 8 * grid.ndim and {name for name, _ in calls} == BAND_3D


def test_limit_step_transforms_per_stage(monkeypatch):
    """One limit step at 4x4x16 makes 16 real transforms: per RK4 stage
    one stacked inverse and one stacked forward (the closure's v v among
    the products), then the inverse of v v and the forward of rho (v v)
    (54 with one call per field), each one numpy.fft call per grid axis."""
    monkeypatch.setattr(spectral, "MATRIX_BYTES", 0)
    grid = Grid.torus3d(4, 4, 16)
    state = limit.project_initial(*_state_fields(grid))
    state.rho._values, state.v._values
    calls = count_transforms(monkeypatch)
    limit.step(state, 1e-3)
    assert len(calls) <= 16 * grid.ndim and {name for name, _ in calls} == BAND_3D


def test_reduction_and_ck_transform_counts(monkeypatch):
    """The kernel's grouping keeps the transforms of the stepped reductions
    and of a CK iteration: at most 6 real transforms per iteration at
    4x4x8 with 43 samples (two fields per call: d_par v with rho, v with
    E_perp1, then E_perp2; one forward per pair of products), each one
    numpy.fft call per grid axis, 16 per two-phase step and 8 per
    toy-model step on a line of 16 points (the fresh state's phases have
    no cached values, so the first stage makes them in its own stacked
    inverse, not by one irfftn per field)."""
    monkeypatch.setattr(spectral, "MATRIX_BYTES", 0)
    grid, line = Grid.torus3d(4, 4, 8), Grid.line(16)
    rho, v = (dealias(f) for f in _state_fields(grid))   # k_perp = 2 is off the band
    first = ck.initialize(rho, v, 0.05, np.linspace(0.0, 0.1, 43))
    r, u = _state_fields(line)
    two = twostream.make_two_phase(0.5 * r, u, -1.0 * u)
    toy = toymodel.make_multi_phase([r, r], [u, -1.0 * u], 0.1)
    calls = count_transforms(monkeypatch)
    for bound, names, run in [(6 * grid.ndim, BAND_3D, lambda: ck.iterate(first, rho, v)),
                              (16, BAND_LINE, lambda: twostream.step(two, 1e-3)),
                              (8, BAND_LINE, lambda: toymodel.step(toy, 1e-3))]:
        calls.clear()
        run()
        assert len(calls) <= bound and {name for name, _ in calls} == names


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the peaks are those of numpy 2's pocketfft")
@pytest.mark.parametrize("cached, bound", [(False, 8.5), (True, 6.5)])
def test_kernel_peak_memory_one_field_per_call(monkeypatch, cached, bound):
    """With one field per numpy.fft call, as at 32x32x64, an eps-kernel
    call at 16x16x32 allocates at most `bound` real-field arrays at its
    peak, the returned tendencies included (8.34 and 6.33 with numpy 2.4; a
    kernel that kept every value and product of a stage alive at once
    would take 21.7 and 19.7): the stand-in for the peak RSS of the
    32x32x64 run among the tests."""
    grid = Grid.torus3d(16, 16, 32)
    monkeypatch.setattr(spectral, "FFT_BLOCK_POINTS", grid.size)
    rho, v = _state_fields(grid)
    forces = field_coeffs(grid, rho.half_coeffs, 0.05)
    args = (grid, rho.half_coeffs, v.half_coeffs, forces.Eperp1, forces.Eperp2,
            (rho._values, v._values) if cached else None)
    drift_advection(*args)                  # the grid's symbols, once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = drift_advection(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(result) == 2
    assert peak <= bound * grid.size * 8


# -- the band matrices ------------------------------------------------------

# the grids of PROPERTY_GRIDS whose band matrices fit in MATRIX_BYTES, and
# those of the small workloads
MATRIX_GRIDS = [g for g in PROPERTY_GRIDS if g.shape != (8, 8, 8)] + [
    Grid.torus3d(4, 4, 16), Grid.line(64)]


def _band_rows(grid, n, rng):
    """n rows of random band coefficients and n rows of random values."""
    shape = (n,) + grid.band.shape
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.standard_normal((n,) + grid.shape))


@pytest.mark.parametrize("grid", MATRIX_GRIDS)
def test_matrix_transforms_are_bitwise_per_row(grid):
    """On a grid with band matrices, a stack of 1 to 40 rows, or of one
    more than a block, transformed either way gives each row bit for bit
    as a one-row call does: past GEMM_TERMS terms (37 rows at 4x4x16) the
    rows span two products, and a one-row product (the last part of 37
    rows there, and of every stack one row over a block) runs as two."""
    assert grid.band_matrices is not None
    rows = block_rows(grid) + 1
    coeffs, vals = _band_rows(grid, rows, np.random.default_rng(7))
    want_vals, want_coeffs = per_row_values(grid, coeffs), \
        per_row_product_coeffs(grid, vals, np.ones_like(vals))
    for n in [*range(1, 41), rows]:
        assert np.array_equal(collocation_values(grid, coeffs[:n], True), want_vals[:n])
        assert np.array_equal(dealiased_coeffs(grid, vals[:n], True), want_coeffs[:n])


@given(grid=st.sampled_from(MATRIX_GRIDS), n_batch=st.integers(0, 3),
       kmax=st.integers(0, 3), cached=st.booleans(), rows=st.integers(1, 4), seed=seeds)
def test_matrix_kernel_is_bitwise_per_row(grid, n_batch, kmax, cached, rows, seed):
    """On the band layout of a grid with band matrices, as the steppers
    call it, with any leading rows, a budget of `rows` fields per call and
    rho's and v's values cached or not, the kernel's tendencies and
    closure flux equal bit for bit those of one-row calls of the matrix
    transforms per field and per product."""
    rng = np.random.default_rng(seed)
    inputs = tuple(band_coeffs(grid, _band_limited(grid, kmax, rng, n_batch, mean))
                   for mean in (1.0, 0.3, 0.0, 0.0))
    values = ((collocation_values(grid, inputs[0], True),
               collocation_values(grid, inputs[1], True)) if cached else None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "FFT_BLOCK_POINTS", rows * grid.size)
        got = drift_advection(grid, *inputs, values, pressure=True)
    want = per_product_drift_advection(grid, *inputs, values=per_row_values,
                                       products=per_row_product_coeffs)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@given(grid=st.sampled_from(MATRIX_GRIDS), n_batch=st.integers(0, 3),
       kmax=st.integers(0, 3), seed=seeds)
def test_matrix_transforms_match_pocketfft(grid, n_batch, kmax, seed):
    """The matrix path agrees with pocketfft at rounding level: band
    values with irfftn's, a dealiased product with the masked rfftn of
    irfftn's values, and the kernel's tendencies with the full-layout
    reference, each within 1e-14 of the larger of 1 (the scale of the
    data) and the reference's largest entry. Relative to that entry alone,
    over 40 seeds x kmax 0-3 x 1 and 3 rows on every grid here (numpy 2.4,
    OpenBLAS 0.3.31 Haswell), the worst were 8.2e-16, 4.8e-15 (4x4x16)
    and 3.2e-15 (line 64); the bound is twice the worst. Constant data has
    exact-zero tendencies, which the matrices miss by about 1e-16."""
    rng = np.random.default_rng(seed)
    fields = tuple(_band_limited(grid, kmax, rng, n_batch, mean)
                   for mean in (1.0, 0.3, 0.0, 0.0))
    band = tuple(band_coeffs(grid, c) for c in fields)
    f_vals, g_vals = (collocation_values(grid, c, True) for c in band[:2])
    want_f, want_g = (per_field_values(grid, _half(grid, c)) for c in fields[:2])
    pairs = [(f_vals, want_f), (g_vals, want_g),
             (product_coeffs(grid, f_vals, g_vals, True),
              _on_band(grid, per_product_coeffs(grid, want_f, want_g)))]
    pairs += [(full_coeffs(grid, got), want) for got, want in zip(
        drift_advection(grid, *band), _ref_drift_advection(grid, *fields))]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_eps_step_makes_one_matrix_product_each_way_per_stage(monkeypatch):
    """One eps step at 4x4x16 whose fields hold cached values makes 8
    matrix products, one stacked inverse and one stacked forward per RK4
    stage, and no numpy.fft call."""
    grid = Grid.torus3d(4, 4, 16)
    state = epsilon.make_eps_state(*_state_fields(grid), 0.05)
    state.rho._values, state.v._values
    products, gemm = [], spectral._gemm

    def counted(rows, matrix):
        products.append(matrix.shape)
        return gemm(rows, matrix)
    monkeypatch.setattr(spectral, "_gemm", counted)
    calls = count_transforms(monkeypatch)
    epsilon.step(state, 1e-3)
    assert products == [(108, 256), (256, 108)] * 4 and calls == []


def test_only_grids_whose_matrices_fit_build_them(monkeypatch):
    """4x4x16 builds its band matrices (442 KB) at its first transform;
    8x8x16 (4.9 MB) and 32x32x64 (10 GB) take the pruned FFTs and build
    none."""
    built, build = [], spectral._band_matrix_pair

    def recorded(grid):
        built.append(grid.shape)
        return build(grid)
    monkeypatch.setattr(spectral, "_band_matrix_pair", recorded)
    for grid in (Grid.torus3d(4, 4, 16), Grid.torus3d(8, 8, 16), Grid.torus3d(32, 32, 64)):
        coeffs, vals = _band_rows(grid, 1, np.random.default_rng(0))
        collocation_values(grid, coeffs, True)
        dealiased_coeffs(grid, vals, True)
        assert built[:1] == [(4, 4, 16)], grid
    assert set(built) == {(4, 4, 16)}
    assert sum(m.nbytes for m in Grid.torus3d(4, 4, 16).band_matrices) == 442368
