"""Fourier representation of real periodic fields on the unit torus.

Conventions (fixed once, used everywhere):

* physical domain is the unit torus in every axis, period 1;
* coeff(k) = (1/prod N_i) sum_x f(x) exp(-i 2 pi k.x), i.e. the k-th Fourier
  coefficient of the trigonometric interpolant, so derivatives multiply by
  i 2 pi k_axis;
* anisotropy is carried by axis labels: two perpendicular axes ("perp1",
  "perp2") and one parallel axis ("par"); reduced grids drop axes;
* nonlinear products are dealiased with the 2/3 rule per axis (quadratic
  nonlinearities only), so a product of two fields supported under the
  cutoff is exact;
* the analytic norm |f|_delta = sum_k |coeff(k)| delta^|k| uses the l1
  wavevector length |k| = |k1|+|k2|+|kpar|, which makes the Banach-algebra
  inequality exact by the triangle inequality on exponents.

The transforms, products, derivatives and averages behind the field
functions are array-level helpers (`collocation_values`, `product_coeffs`,
`derivative_coeffs`, `perp_average_coeffs`, `embed_parallel_coeffs`) that
act on the trailing grid axes of a coefficient array. A leading axis, such
as the time samples of a trajectory, is evaluated in one call with the same
arithmetic as one field at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvariantError

PERP1 = "perp1"
PERP2 = "perp2"
PAR = "par"

_AXIS_ALIASES = {
    PERP1: PERP1,
    PERP2: PERP2,
    PAR: PAR,
    "1": PERP1,
    "2": PERP2,
    "parallel": PAR,
    "par": PAR,
}


@dataclass(frozen=True)
class Grid:
    """Per-axis mode counts plus axis labels on the unit torus."""

    shape: tuple[int, ...]
    axes: tuple[str, ...]

    def __post_init__(self):
        if len(self.shape) != len(self.axes):
            raise ConfigError("shape and axes must have equal length")
        if len(set(self.axes)) != len(self.axes):
            raise ConfigError(f"duplicate axis labels: {self.axes}")
        for n, ax in zip(self.shape, self.axes):
            if ax not in (PERP1, PERP2, PAR):
                raise ConfigError(f"unknown axis label {ax!r}")
            if n % 2 != 0 or n < 4:
                raise ConfigError(f"axis {ax}: mode count {n} must be even and >= 4")

    @classmethod
    def torus3d(cls, n1: int, n2: int, npar: int) -> "Grid":
        return cls((n1, n2, npar), (PERP1, PERP2, PAR))

    @classmethod
    def shear2d(cls, n1: int, npar: int) -> "Grid":
        """Reduction with no dependence on the second perpendicular axis."""
        return cls((n1, npar), (PERP1, PAR))

    @classmethod
    def line(cls, npar: int) -> "Grid":
        """Parallel-only fields (perpendicular averages, wave sources, ...)."""
        return cls((npar,), (PAR,))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis_index(self, axis) -> int:
        if isinstance(axis, (int, np.integer)):
            if not 0 <= axis < self.ndim:
                raise ConfigError(f"axis index {axis} out of range")
            return int(axis)
        label = _AXIS_ALIASES.get(str(axis))
        if label is None or label not in self.axes:
            raise ConfigError(f"grid {self.axes} has no axis {axis!r}")
        return self.axes.index(label)

    @property
    def par_axis(self) -> int:
        return self.axis_index(PAR)

    @property
    def perp_axes(self) -> tuple[int, ...]:
        return tuple(i for i, ax in enumerate(self.axes) if ax != PAR)

    def modes(self, axis) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT ordering."""
        n = self.shape[self.axis_index(axis)]
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    @cached_property
    def _mode_grids(self) -> tuple[np.ndarray, ...]:
        out = []
        for i in range(self.ndim):
            shape = [1] * self.ndim
            shape[i] = self.shape[i]
            out.append(self.modes(i).reshape(shape))
        return tuple(out)

    @cached_property
    def _derivative_mults(self) -> tuple[np.ndarray, ...]:
        # i 2 pi k per axis with the Nyquist mode zeroed (see derivative())
        out = []
        for i, n in enumerate(self.shape):
            k = self._mode_grids[i]
            out.append(np.where(np.abs(k) == n // 2, 0.0, 2j * np.pi * k))
        return tuple(out)

    def mode_grid(self, axis) -> np.ndarray:
        """Integer wavenumbers along `axis`, broadcast to the full shape."""
        return self._mode_grids[self.axis_index(axis)]

    @cached_property
    def ell1(self) -> np.ndarray:
        """l1 wavevector length |k1|+|k2|+|kpar| on the coefficient array."""
        return _ell1(self.shape)

    @cached_property
    def kperp_sq(self) -> np.ndarray:
        """|k_perp|^2 broadcast to the full shape (0 on line grids)."""
        total = np.zeros(self.shape, dtype=int)
        for i in self.perp_axes:
            total = total + self.mode_grid(i) ** 2
        return total

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_i| < N_i/3 on every axis."""
        mask = np.ones(self.shape, dtype=bool)
        for i, n in enumerate(self.shape):
            mask &= np.abs(self.mode_grid(i)) < n / 3.0
        return mask

    @cached_property
    def par_grid(self) -> "Grid":
        return Grid.line(self.shape[self.par_axis]) if self.ndim > 1 else self

    def _fft_axes(self, array: np.ndarray) -> tuple[int, ...] | None:
        """The grid's axes of `array`, counted from its end so that leading
        (batch) axes are left alone. None (numpy's every-axis default,
        which skips a per-call shape lookup) when there is no leading axis."""
        return None if array.ndim == self.ndim else tuple(range(-self.ndim, 0))

    @cached_property
    def _par_line(self) -> tuple:
        """Index of the k_perp = 0 line of a coefficient array with any
        leading axes."""
        index = [0] * self.ndim
        index[self.par_axis] = slice(None)
        return (Ellipsis, *index)

    def coordinates(self, axis) -> np.ndarray:
        n = self.shape[self.axis_index(axis)]
        return np.arange(n) / n

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Collocation coordinates of every axis, ij indexing."""
        return np.meshgrid(*(self.coordinates(i) for i in range(self.ndim)),
                           indexing="ij")


def _ell1(shape: tuple[int, ...]) -> np.ndarray:
    """|k1|+|k2|+|kpar| on a coefficient array of the given mode counts."""
    total = np.zeros(shape, dtype=int)
    for i, n in enumerate(shape):
        k = np.abs(np.rint(np.fft.fftfreq(n) * n).astype(int))
        total = total + k.reshape([n if j == i else 1 for j in range(len(shape))])
    return total


def _conjugate_reflection(coeffs: np.ndarray) -> np.ndarray:
    """conj(coeff(-k)) with indices taken mod N on every axis."""
    out = np.conj(coeffs)
    for ax in range(coeffs.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


@dataclass(frozen=True)
class SpectralField:
    """Immutable set of Fourier coefficients of a (usually real) field."""

    grid: Grid
    coeffs: np.ndarray
    real: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.grid.shape:
            raise ConfigError(
                f"coefficient shape {c.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def _values(self) -> np.ndarray:
        vals = collocation_values(self.grid, self.coeffs)
        vals.setflags(write=False)
        return vals

    def hermitian_defect(self, scale_floor: float = 1e-12) -> float:
        """Largest |coeff(k) - conj(coeff(-k))| relative to the coefficient
        scale. Fields below `scale_floor` in magnitude are numerically
        zero and report no defect (rounding noise has no symmetry)."""
        scale = max(float(np.max(np.abs(self.coeffs))), scale_floor)
        return float(np.max(np.abs(self.coeffs - _conjugate_reflection(self.coeffs)))) / scale

    def is_dealiased(self, tol: float = 0.0) -> bool:
        outside = self.coeffs[~self.grid.dealias_mask]
        return bool(outside.size == 0 or np.max(np.abs(outside)) <= tol)

    # -- arithmetic (linear operations stay in coefficient space) ---------

    def _binary_guard(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise ConfigError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._binary_guard(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.real and other.real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._binary_guard(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.real and other.real)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, SpectralField):
            raise TypeError("use product() for field*field (dealiased) products")
        real = self.real and not isinstance(scalar, complex)
        return SpectralField(self.grid, self.coeffs * scalar, real)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs, self.real)

    def conj(self) -> "SpectralField":
        return SpectralField(self.grid, _conjugate_reflection(self.coeffs), self.real)

    def mean(self) -> complex | float:
        m = complex(self.coeffs[(0,) * self.grid.ndim])
        return m.real if self.real else m


def zeros(grid: Grid, real: bool = True) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=complex), real)


def constant(grid: Grid, value: float) -> SpectralField:
    c = np.zeros(grid.shape, dtype=complex)
    c[(0,) * grid.ndim] = value
    return SpectralField(grid, c, real=not isinstance(value, complex))


def from_modes(grid: Grid, entries: dict, real: bool = True) -> SpectralField:
    """Build a field from {wavevector tuple: coefficient}.

    With real=True the conjugate entry at -k is filled in automatically.
    """
    c = np.zeros(grid.shape, dtype=complex)
    mode_index = [dict(zip(grid.modes(i), range(grid.shape[i])))
                  for i in range(grid.ndim)]
    for kvec, val in entries.items():
        kvec = (kvec,) if np.isscalar(kvec) else tuple(kvec)
        if len(kvec) != grid.ndim:
            raise ConfigError(f"wavevector {kvec} has wrong dimension")
        idx = tuple(mode_index[i][k] for i, k in enumerate(kvec))
        c[idx] += val
        if real and any(k != 0 for k in kvec):
            jdx = tuple(mode_index[i][-k] for i, k in enumerate(kvec))
            c[jdx] += np.conj(val)
    return SpectralField(grid, c, real)


def forward(grid: Grid, values: np.ndarray) -> SpectralField:
    """Real collocation values -> Fourier coefficients (no dealiasing)."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ConfigError(f"value shape {values.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(values):
        if np.max(np.abs(values.imag)) > 1e-13 * (1.0 + np.max(np.abs(values.real))):
            raise ConfigError("forward() expects real values")
        values = values.real
    return SpectralField(grid, np.fft.fftn(values) / grid.size, real=True)


def inverse(field: SpectralField, tol: float = 1e-6) -> np.ndarray:
    """Evaluate the truncated Fourier series at the collocation points.

    For real fields the imaginary residue is rounding-level and discarded;
    a residue or Hermitian defect above `tol` (relative) signals genuinely
    broken symmetry and raises.
    """
    if field.real and field.hermitian_defect() > tol:
        raise InvariantError(
            f"Hermitian symmetry broken (defect {field.hermitian_defect():.2e})")
    vals = np.fft.ifftn(field.coeffs) * field.grid.size
    if field.real:
        scale = 1.0 + float(np.max(np.abs(vals.real)))
        residue = float(np.max(np.abs(vals.imag)))
        if residue > tol * scale:
            raise InvariantError(f"imaginary residue {residue:.2e} above {tol:.0e}")
        return np.ascontiguousarray(vals.real)
    return vals


# -- array-level helpers: coefficient arrays [..., *grid.shape] -----------

def collocation_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Complex values of the trigonometric interpolant at the collocation
    points, over the trailing grid axes."""
    return np.fft.ifftn(coeffs, axes=grid._fft_axes(coeffs)) * grid.size


def product_coeffs(grid: Grid, f_vals: np.ndarray, g_vals: np.ndarray,
                   real: bool) -> np.ndarray:
    """Dealiased coefficients of the pointwise product of two sets of
    collocation values (see product())."""
    vals = f_vals.real * g_vals.real if real else f_vals * g_vals
    coeffs = np.fft.fftn(vals, axes=grid._fft_axes(vals)) / grid.size
    return coeffs * grid.dealias_mask


def derivative_coeffs(grid: Grid, coeffs: np.ndarray, axis) -> np.ndarray:
    """Coefficients of the partial derivative along `axis` (see derivative())."""
    return coeffs * grid._derivative_mults[grid.axis_index(axis)]


def perp_average_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The k_perp = 0 line of every coefficient array (see perp_average())."""
    return np.array(coeffs[grid._par_line], copy=True)


def embed_parallel_coeffs(grid: Grid, line: np.ndarray) -> np.ndarray:
    """Parallel-only coefficients placed on the k_perp = 0 line of `grid`,
    keeping leading axes (see embed_parallel())."""
    coeffs = np.zeros(line.shape[:-1] + grid.shape, dtype=complex)
    coeffs[grid._par_line] = line
    return coeffs


def derivative(field: SpectralField, axis) -> SpectralField:
    """Spectral partial derivative: multiply by i 2 pi k_axis.

    The Nyquist mode is dropped: an odd derivative of the unpaired
    highest cosine has no real representation on the grid.
    """
    return SpectralField(field.grid, derivative_coeffs(field.grid, field.coeffs, axis),
                         field.real)


def gradient(field: SpectralField) -> list[SpectralField]:
    return [derivative(field, i) for i in range(field.grid.ndim)]


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased (2/3 rule) spectral coefficients of the pointwise product.

    For real fields the collocation values are re-projected onto their
    real parts first, so rounding-level imaginary residues cannot feed
    back into the spectrum step after step.
    """
    if f.grid != g.grid:
        raise ConfigError("product() requires both fields on the same grid")
    real = f.real and g.real
    return SpectralField(f.grid, product_coeffs(f.grid, f._values, g._values, real),
                         real)


def dealias(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask, field.real)


def perp_average(field: SpectralField) -> SpectralField:
    """Average over the perpendicular plane: keep only the k_perp = 0 modes.

    The result lives on the 1D parallel grid. For parallel-only input this
    is the identity.
    """
    grid = field.grid
    if grid.ndim == 1:
        return field
    return SpectralField(grid.par_grid, perp_average_coeffs(grid, field.coeffs),
                         field.real)


def embed_parallel(field: SpectralField, grid: Grid) -> SpectralField:
    """Place a parallel-only field on a larger grid (k_perp = 0 modes)."""
    if field.grid.ndim != 1:
        raise ConfigError("embed_parallel() expects a parallel-only field")
    if grid.shape[grid.par_axis] != field.grid.shape[0]:
        raise ConfigError("parallel mode counts differ")
    return SpectralField(grid, embed_parallel_coeffs(grid, field.coeffs), field.real)


def translate(field: SpectralField, shifts) -> SpectralField:
    """Exact translation f(x) -> f(x - shift) via phase factors."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if shifts.size != field.grid.ndim:
        raise ConfigError("one shift per axis required")
    phase = np.ones(field.grid.shape, dtype=complex)
    for i, s in enumerate(shifts):
        phase = phase * np.exp(-2j * np.pi * s * field.grid.mode_grid(i))
    return SpectralField(field.grid, field.coeffs * phase, field.real)


# -- integrals and norms (unit-volume torus, Parseval) --------------------

def mean(field: SpectralField) -> float:
    return float(np.real(field.coeffs[(0,) * field.grid.ndim]))


def inner(f: SpectralField, g: SpectralField) -> float:
    """integral f*g dx for real fields, exact for the trig interpolants."""
    if f.grid != g.grid:
        raise ConfigError("inner() requires both fields on the same grid")
    return float(np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def l2_norm(field: SpectralField) -> float:
    return float(np.sqrt(np.sum(np.abs(field.coeffs) ** 2)))


def analytic_norm(field: SpectralField, delta: float) -> float:
    """|f|_delta = sum_k |coeff(k)| delta^|k|, |k| the l1 length.

    delta = 1 gives the Wiener norm. Overflow saturates to +inf: analytic
    norms legitimately diverge for under-resolved fields.
    """
    if delta < 1.0:
        raise ConfigError(f"delta must be >= 1, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.power(float(delta), field.grid.ell1)
        total = float(np.sum(np.abs(field.coeffs) * weights))
    return total if math.isfinite(total) else math.inf


def gradient_norm(field: SpectralField, delta: float) -> float:
    """Analytic norm of the gradient in the convention of the norm itself.

    Each component derivative is weighted by 1/(2 pi), i.e. the weight on
    coeff(k) is |k|_l1 delta^|k|. This keeps the loss-of-derivative
    inequality |grad f|_delta' <= delta/(delta-delta') |f|_delta exact.
    """
    if delta < 1.0:
        raise ConfigError(f"delta must be >= 1, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = field.grid.ell1 * np.power(float(delta), field.grid.ell1)
        total = float(np.sum(np.abs(field.coeffs) * weights))
    return total if math.isfinite(total) else math.inf


def second_derivative_norm(field: SpectralField, axis_i, axis_j,
                           delta: float) -> float:
    """Analytic norm of d_i d_j f in the 1/(2 pi)^2 gradient convention,
    i.e. the weight on coeff(k) is |k_i k_j| delta^|k|. Used only for the
    diagnostic inequality

        |d^2_{ij} u(t)|_delta <= 2^{1+beta} ||u|| delta0
                                 (delta0 - delta - t/eta)^(-beta-1),

    a consequence of the shrinking-norm bound, never as a solver bound.
    """
    if delta < 1.0:
        raise ConfigError(f"delta must be >= 1, got {delta}")
    grid = field.grid
    ki = np.abs(grid.mode_grid(axis_i))
    kj = np.abs(grid.mode_grid(axis_j))
    with np.errstate(over="ignore", invalid="ignore"):
        weights = ki * kj * np.power(float(delta), grid.ell1)
        total = float(np.sum(np.abs(field.coeffs) * weights))
    return total if math.isfinite(total) else math.inf


@dataclass(frozen=True)
class NormParams:
    """Parameters of the shrinking-strip analytic norms.

    delta0: analyticity radius (> 1) carried by the initial data;
    delta:  evaluation radius in (1, delta0] for single-time diagnostics;
    eta:    rate at which the strip is spent per unit time (> 0);
    beta:   exponent of the gradient weight, fixed in (0, 1).
    """

    delta0: float = 1.5
    delta: float = 1.1
    eta: float = 1.0
    beta: float = 0.5
    n_delta: int = 16

    def __post_init__(self):
        if not self.delta0 > 1.0:
            raise ConfigError("delta0 must be > 1")
        if not 1.0 < self.delta <= self.delta0:
            raise ConfigError("delta must lie in (1, delta0]")
        if not self.eta > 0.0:
            raise ConfigError("eta must be > 0")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if self.n_delta < 1:
            raise ConfigError("n_delta must be >= 1")

    @property
    def horizon(self) -> float:
        """Largest admissible time, eta * (delta0 - 1)."""
        return self.eta * (self.delta0 - 1.0)

    def delta_grid(self) -> np.ndarray:
        """Geometric grid of n_delta points in (1, delta0], top point delta0."""
        exponents = (np.arange(self.n_delta) + 1.0) / self.n_delta
        return self.delta0 ** exponents


def shrinking_norm(times, fields, params: NormParams) -> float:
    """sup over the admissible (delta, t) wedge of
    |u(t)|_delta + (delta0 - delta - t/eta)^beta |grad u(t)|_delta,
    discretised over the stored samples and the configured delta grid.

    `fields` is a sequence of fields on one grid, or their coefficients
    stacked along a leading time axis. The norms of every (delta, t) pair
    are two matrix products of |coeff| against the weights delta^|k| and
    |k| delta^|k| (the conventions of analytic_norm() and gradient_norm()).
    A non-finite norm saturates the result to +inf.
    """
    times = np.asarray(times, dtype=float)
    if not isinstance(fields, np.ndarray):
        fields = list(fields)
    if times.ndim != 1 or len(fields) != times.size:
        raise ConfigError("times and fields must have matching length")
    if times.size == 0:
        raise ConfigError("empty trajectory")
    if np.any(times < 0.0) or np.any(times >= params.horizon):
        raise ConfigError(
            f"trajectory times must lie in [0, {params.horizon}) "
            f"= [0, eta*(delta0-1))")
    if isinstance(fields, np.ndarray):
        coeffs, ell1 = fields, _ell1(fields.shape[1:])
    else:
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ConfigError("fields live on different grids")
        coeffs, ell1 = np.stack([f.coeffs for f in fields]), grid.ell1
    mags = np.abs(coeffs).reshape(times.size, -1)
    ell1 = ell1.reshape(-1)
    deltas = params.delta_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.power(deltas[:, None], ell1[None, :])      # [n_delta, N]
        norms = mags @ weights.T                                # [n_t, n_delta]
        grads = mags @ (ell1 * weights).T
        gap = params.delta0 - deltas[None, :] - times[:, None] / params.eta
        vals = norms + np.maximum(gap, 0.0) ** params.beta * grads
    admissible = times[:, None] <= params.eta * (params.delta0 - deltas)[None, :] + 1e-15
    best = float(np.max(vals, where=admissible, initial=0.0))
    return best if math.isfinite(best) else math.inf
