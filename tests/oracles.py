"""Independent reference computations used to pin expected values.

Everything here is deliberately written against raw numpy (or scipy for
stiff ODE integration), without using the package's spectral machinery,
so each oracle exercises a different code path from the operation it
checks. The exceptions are the kernels at the end: the real transforms of
one field and of one dealiased product as numpy's irfftn and rfftn with the
2/3 mask, against which the band layout's pruned transforms are pinned,
one-row calls of the package's own band transforms, against which its
stacked matrix products are pinned, the shared transport kernel with one
call per field and per product of either kind, against which the stacked,
blocked transforms of `epsilon.drift_advection` are pinned, and the two-phase and toy-model tendencies written with
full-layout `SpectralField` arithmetic, one dealiased product at a time,
against which the stacked kernels of `twostream` and `toymodel` are
pinned."""

import numpy as np

from driftfluid.poisson import V_coeffs
from driftfluid.quadrature import rk4_step
from driftfluid.spectral import (
    PERP1,
    PERP2,
    SpectralField,
    collocation_values,
    dealiased_coeffs,
    derivative,
    derivative_coeffs,
    product,
)


def direct_dft(values):
    """Brute-force DFT with the package's normalisation, O(N^2)."""
    shape = values.shape
    out = np.zeros(shape, dtype=complex)
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    for idx in np.ndindex(shape):
        k = [(np.fft.fftfreq(n) * n).astype(int)[i] for n, i in zip(shape, idx)]
        phase = sum(kk * g / n for kk, g, n in zip(k, grids, shape))
        out[idx] = np.sum(values * np.exp(-2j * np.pi * phase)) / values.size
    return out


def direct_series_sum(coeffs):
    """Evaluate the truncated Fourier series by direct summation."""
    shape = coeffs.shape
    out = np.zeros(shape, dtype=complex)
    grids = np.meshgrid(*[np.arange(n) / n for n in shape], indexing="ij")
    for idx in np.ndindex(shape):
        k = [(np.fft.fftfreq(n) * n).astype(int)[i] for n, i in zip(shape, idx)]
        phase = sum(kk * g for kk, g in zip(k, grids))
        out += coeffs[idx] * np.exp(2j * np.pi * phase)
    return out


def direct_convolution(f_coeffs, g_coeffs):
    """Exact (circular in index space, exact in mode space) convolution of
    two coefficient arrays over their common mode set; modes produced
    outside the representable range are dropped, which is harmless when
    the inputs are band-limited well inside the grid."""
    shape = f_coeffs.shape
    mode_axes = [(np.fft.fftfreq(n) * n).astype(int) for n in shape]
    index = [dict(zip(m, range(len(m)))) for m in mode_axes]
    out = np.zeros(shape, dtype=complex)
    nz_f = np.argwhere(f_coeffs != 0)
    nz_g = np.argwhere(g_coeffs != 0)
    for fi in nz_f:
        kf = [m[i] for m, i in zip(mode_axes, fi)]
        for gi in nz_g:
            kg = [m[i] for m, i in zip(mode_axes, gi)]
            ks = [a + b for a, b in zip(kf, kg)]
            if any(k not in ix for k, ix in zip(ks, index)):
                continue
            out[tuple(ix[k] for k, ix in zip(ks, index))] += \
                f_coeffs[tuple(fi)] * g_coeffs[tuple(gi)]
    return out


_FD8 = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])


def fd8_derivative(values, axis, period=1.0):
    """8th-order centred finite difference on a periodic axis."""
    n = values.shape[axis]
    dx = period / n
    out = np.zeros_like(values, dtype=float)
    for m, c in enumerate(_FD8, start=1):
        out += c * (np.roll(values, -m, axis=axis) - np.roll(values, m, axis=axis))
    return out / dx


def fd2_derivative(values, axis, period=1.0):
    n = values.shape[axis]
    dx = period / n
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * dx)


class Euler2DReference:
    """Standalone 2D incompressible Euler reference in vorticity form,

        d_t w + u . grad w = 0,   u = (d2 psi, -d1 psi),  Lap psi = w,

    with 2/3-rule dealiasing and RK4, written directly on numpy arrays.
    A passive scalar is transported by the same velocity."""

    def __init__(self, n1, n2):
        self.shape = (n1, n2)
        k1 = (np.fft.fftfreq(n1) * n1).astype(int).reshape(-1, 1)
        k2 = (np.fft.fftfreq(n2) * n2).astype(int).reshape(1, -1)
        self.k1, self.k2 = k1, k2
        self.lap = -(2 * np.pi) ** 2 * (k1**2 + k2**2).astype(float)
        self.lap_safe = np.where(self.lap == 0.0, 1.0, self.lap)
        self.mask = (np.abs(k1) < n1 / 3.0) & (np.abs(k2) < n2 / 3.0)

    def velocity(self, w_hat):
        # unnormalised fft2 conventions throughout: ifft2(fft2(v)) = v
        psi = np.where(self.lap == 0.0, 0.0, w_hat / self.lap_safe)
        u1 = np.fft.ifft2(2j * np.pi * self.k2 * psi).real
        u2 = np.fft.ifft2(-2j * np.pi * self.k1 * psi).real
        return u1, u2

    def tendency(self, w_hat, s_hat):
        u1, u2 = self.velocity(w_hat)

        def advect(f_hat):
            fx = np.fft.ifft2(2j * np.pi * self.k1 * f_hat).real
            fy = np.fft.ifft2(2j * np.pi * self.k2 * f_hat).real
            return self.mask * (-np.fft.fft2(u1 * fx + u2 * fy))

        return advect(w_hat), advect(s_hat)

    def step(self, w_hat, s_hat, dt):
        k1 = self.tendency(w_hat, s_hat)
        k2 = self.tendency(w_hat + 0.5 * dt * k1[0], s_hat + 0.5 * dt * k1[1])
        k3 = self.tendency(w_hat + 0.5 * dt * k2[0], s_hat + 0.5 * dt * k2[1])
        k4 = self.tendency(w_hat + dt * k3[0], s_hat + dt * k3[1])
        w = w_hat + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        s = s_hat + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return w, s


def oscillator_reference(eps, g_of_t, t_eval, u0=0.0, du0=0.0):
    """High-accuracy solution of eps u'' + u = g(t) via scipy DOP853."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], (g_of_t(t) - y[0]) / eps]

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), [u0, du0], t_eval=t_eval,
                    method="DOP853", rtol=1e-11, atol=1e-13, max_step=np.sqrt(eps))
    return sol.y[0]


def characteristic_foot(ubar_func, x, t, n_sub=2000):
    """Backward characteristic of d_t X = ubar(X) from (t, x) to time 0,
    integrated with fine RK4 steps."""
    dt = -t / n_sub
    pos = float(x)
    for _ in range(n_sub):
        k1 = ubar_func(pos)
        k2 = ubar_func(pos + 0.5 * dt * k1)
        k3 = ubar_func(pos + 0.5 * dt * k2)
        k4 = ubar_func(pos + dt * k3)
        pos += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return pos


def per_field_values(grid, coeffs):
    """Collocation values of half-layout coefficients, one irfftn."""
    axes = tuple(range(-grid.ndim, 0))
    return np.fft.irfftn(coeffs, s=grid.shape, axes=axes) * grid.size


def per_product_coeffs(grid, f_vals, g_vals):
    """Dealiased half-layout coefficients of one product, one rfftn."""
    coeffs = np.fft.rfftn(f_vals * g_vals, axes=tuple(range(-grid.ndim, 0)))
    coeffs /= grid.size
    coeffs *= grid.half.dealias_mask
    return coeffs


def _per_row(grid, array, transform):
    """transform(grid, row) of every grid-sized row of `array`, one call
    per row, with the leading axes of `array`."""
    lead = array.shape[:array.ndim - grid.ndim]
    rows = [transform(grid, row[None])[0]
            for row in array.reshape((-1,) + array.shape[len(lead):])]
    return np.stack(rows).reshape(lead + rows[0].shape)


def per_row_values(grid, coeffs):
    """Real collocation values of band- or half-layout rows, one
    collocation_values call per row."""
    return _per_row(grid, coeffs, lambda grid, row: collocation_values(grid, row, True))


def per_row_product_coeffs(grid, f_vals, g_vals):
    """Band-layout coefficients of the dealiased products of value rows,
    one dealiased_coeffs call per row."""
    return _per_row(grid, f_vals * g_vals,
                    lambda grid, row: dealiased_coeffs(grid, row, True))


def per_product_drift_advection(grid, rho, v, e1=None, e2=None,
                                values=per_field_values, products=per_product_coeffs):
    """epsilon.drift_advection with one transform call per field (`values`)
    and per dealiased product (`products`): by default one numpy.fft call
    each, on half-layout arrays with any leading axes; and the flux
    <rho (v v)>_perp of the pressure closure the same way."""
    par = grid.par_axis
    rho_vals, v_vals = values(grid, rho), values(grid, v)
    drho = -derivative_coeffs(grid, products(grid, v_vals, rho_vals), par)
    dv = -products(grid, v_vals, values(grid, derivative_coeffs(grid, v, par)))
    if PERP1 in grid.axes and PERP2 in grid.axes:
        for comp, label in ((e1, PERP1), (e2, PERP2)):
            comp_vals = values(grid, comp)
            drho -= derivative_coeffs(grid, products(grid, comp_vals, rho_vals), label)
            dv -= derivative_coeffs(grid, products(grid, comp_vals, v_vals), label)
    vv = values(grid, products(grid, v_vals, v_vals))
    flux = products(grid, rho_vals, vv)[grid._par_line]
    return drho, dv, flux


def two_phase_field_tendencies(rho1, v1, v2):
    """(d_t rho1, d_t v1, d_t v2) of the two-phase system on fields: the
    pressure closure d_par p = -d_par(rho1 v1^2 + rho2 v2^2), rho2 = 1 - rho1."""
    c = -np.array(rho1.coeffs, copy=True)
    c[0] += 1.0
    rho2 = SpectralField(rho1.grid, c)
    flux = product(rho1, product(v1, v1)) + product(rho2, product(v2, v2))
    dp = -derivative(flux, 0)
    drho1 = -derivative(product(v1, rho1), 0)
    dv1 = -product(v1, derivative(v1, 0)) - dp
    dv2 = -product(v2, derivative(v2, 0)) - dp
    return drho1, dv1, dv2


def toy_field_tendencies(rho, u, eps):
    """(d_t rho, d_t u) of the line-grid toy model on tuples of phase
    fields: E = -d_par V with -eps d_par^2 V = (1/N) sum rho - 1."""
    grid = rho[0].grid
    total = rho[0]
    for r in rho[1:]:
        total = total + r
    total = (1.0 / len(rho)) * total
    E = -derivative(SpectralField(grid, V_coeffs(grid, total.coeffs, eps)), 0)
    drho = tuple(-derivative(product(uu, r), 0) for r, uu in zip(rho, u))
    du = tuple(E - product(uu, derivative(uu, 0)) for uu in u)
    return drho, du


def two_phase_field_step(rho1, v1, v2, dt):
    """One RK4 step of the field-level two-phase tendencies."""
    return rk4_step(lambda y, c: two_phase_field_tendencies(*y), (rho1, v1, v2), dt)


def toy_field_step(rho, u, eps, dt):
    """One RK4 step of the field-level toy-model tendencies."""
    n = len(rho)
    y = rk4_step(lambda y, c: sum(toy_field_tendencies(y[:n], y[n:], eps), ()),
                 (*rho, *u), dt)
    return y[:n], y[n:]
