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
functions are array-level helpers (`collocation_values`,
`dealiased_coeffs`, `product_coeffs`, `derivative_coeffs`,
`perp_average_coeffs`, `embed_parallel_coeffs`) that act on the trailing
grid axes of a coefficient array. Leading axes, such as the time samples
of a trajectory or a stack of fields, are evaluated with the same
arithmetic as one field at a time: a stacked transform gives bit for bit
the values of one call per field.

Stacked transforms are split into blocks: the leading axes are flattened
into grid-sized rows, and every transform takes at most `block_rows(grid)`
of them per call, as many as FFT_BLOCK_POINTS points hold but at least
one (a grid axis is never split). The transport kernel
(epsilon.drift_advection) groups its fields and products to this budget,
the measured minimum of the per-point cost of one stacked rfftn + irfftn
pair, timed before the band transforms below replaced that pair in the
steppers (ns per point, best of 9 rounds, one thread, numpy 2.4
pocketfft, Xeon with 2 MiB L2). It was measured for FFTs, and the band
matrices keep it, so a kernel stage keeps its one transform each way on
the matrix grids too:

    points per call    256   1024   4096  16384  65536  262144
    4x4x16             316    114     64     37     51      57
    8x8x16               -     79     38     32     40      40
    16x16x32             -      -      -     26     19      22
    32x32x64             -      -      -      -     19      29

Below 2**14 points the Python call around a transform dominates; above
it the stack leaves the L2 cache. 16x16x32 alone would prefer 2**16, but
2**16 lost on the whole transport kernel there, whose blocks of several
fields are first copied together; 2**14 was fastest on the CK
iteration's 4x4x8 stacks of 43 samples.

Three coefficient layouts exist, told apart by the length of the last
axis (n, n//2 + 1 and ceil(n/3) differ for every even n >= 4), and k = 0
is index 0 on each:

* the full layout (`Grid.full`, FFT ordering on every axis) is the public
  one: a `SpectralField`, a `.spec` file and every probe hold it, and the
  complex transforms (ifftn/fftn, the correctors) read and write it;
* the half layout (`Grid.half`, numpy's rfftn layout) keeps the k >= 0
  entries (n//2 + 1) of the last axis, which is the par axis on every grid
  (a `Grid` with par elsewhere is refused): a real field is fixed by it,
  and the values of a general real field are made from it by irfftn
  (`SpectralField.half_coeffs`, its cached values, `inverse`,
  `check_real`), as it can hold modes outside the 2/3 rule (a field
  without them takes the band's transform on a matrix grid, see below);
* the band layout (`Grid.band`) keeps only the modes the 2/3 rule keeps,
  |k_i| < n_i/3 on every axis: on a perp axis the indices 0 ... K and
  n - K ... n - 1 of the FFT ordering, on the par axis the first
  ceil(n/3) half-layout entries. A dealiased product holds nothing else,
  so `dealiased_coeffs` and `product_coeffs` return band arrays of real
  fields, and the steppers (quadrature.ensemble_step, the CK iteration)
  hold each real state on it between step boundaries
  (`SpectralField.band_coeffs` or `band_coeffs` in, `full_coeffs` out).

The band has two transforms, and `Grid.band_matrices` chooses one per
grid. Where the inverse matrix A (2K x N: K band modes, N points) and the
forward matrix B (N x 2K) together fit in MATRIX_BYTES (1 MiB: 4x4x8,
4x4x16, 6x6x12, shear 8x8 and 8x16, and lines up to 256 points), a band
transform is one real matrix product of the rows' interleaved re/im parts,
the matrix-multiplication transform of spectral-methods practice (Boyd,
Chebyshev and Fourier Spectral Methods, 2001). On such grids the Python
call around an FFT dominates. Per block of 10 rows, inverse/forward in
microseconds, pruned FFT -> matrix (best of 7 rounds, one thread, numpy
2.4 with OpenBLAS 0.3.31, Xeon with 2 MiB L2):

    4x4x16     64.4/59.4 -> 17.8/18.0
    4x4x8      54.6/53.1 ->  7.3/6.8
    shear 8x16 27.0/27.7 ->  7.7/7.5
    line 64     9.4/14.5 ->  4.7/5.1

From 8x8x16 on the matrices no longer fit, and they would lose: there one
plain product of 10 rows took 263.5/256.2 against the FFTs' 114.6/108.4.
On those grids the band's transforms are pruned FFTs: the inverse fills
each perp axis out to its n entries and transforms only the lines whose
later axes the band keeps, then irfft zero-pads the par axis; the forward
cuts the par axis after rfft and keeps the band's lines after each fft.
Every line goes through the 1-D pocketfft call irfftn or rfftn makes for
it, so there band values and coefficients are byte for byte those of
irfftn and of rfftn with the 2/3 mask. On the matrix grids they agree with
those at rounding level instead (the tests state the bound). On both paths
a row's values and coefficients are bit for bit the same whatever rows
share its call (see _gemm for the matrix products), and on a matrix grid a
half-layout row with no mode outside the band is transformed by its band
entries, so a field's cached values are bit for bit those the kernel makes
of its band array.
`collocation_values` takes half or band arrays of real fields, and full
arrays of complex ones. The symbol helpers (derivatives, averages, the
Poisson solves) accept any layout, and `full_coeffs` completes a half or
band array to the full layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvariantError

PERP1 = "perp1"
PERP2 = "perp2"
PAR = "par"

FFT_BLOCK_POINTS = 2**14          # points per transform call, see block_rows
MATRIX_BYTES = 2**20              # both band matrices in at most this, see band_matrices
GEMM_TERMS = 10**6                # rows x inner x outer per matrix product, see _gemm

class Symbols(NamedTuple):
    """A grid's Fourier symbols on one coefficient layout, each broadcast
    against that layout's coefficient arrays."""

    shape: tuple[int, ...]
    dealias_mask: np.ndarray                 # 2/3 rule: |k_i| < N_i/3, every axis
    derivative_mults: tuple[np.ndarray, ...]  # i 2 pi k_i, Nyquist zeroed
    kperp_sq: np.ndarray                     # |k_perp|^2 (0 on line grids)
    kpar_sq: np.ndarray                      # k_par^2, along the par axis only


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
        if PAR in self.axes and self.axes[-1] != PAR:
            raise ConfigError(f"axes {self.axes}: the par axis must be last, "
                              "the axis the real transforms halve")

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

    @cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    def axis_index(self, axis) -> int:
        if isinstance(axis, (int, np.integer)):
            if not 0 <= axis < self.ndim:
                raise ConfigError(f"axis index {axis} out of range")
            return int(axis)
        if axis not in self.axes:
            raise ConfigError(f"grid {self.axes} has no axis {axis!r}")
        return self.axes.index(axis)

    @property
    def par_axis(self) -> int:
        return self.axis_index(PAR)

    @cached_property
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

    def mode_grid(self, axis) -> np.ndarray:
        """Integer wavenumbers along `axis`, broadcast to the full shape."""
        return self._mode_grids[self.axis_index(axis)]

    @cached_property
    def ell1(self) -> np.ndarray:
        """l1 wavevector length |k1|+|k2|+|kpar| on the coefficient array."""
        return _ell1(self.shape)

    @cached_property
    def full(self) -> Symbols:
        """The symbols on the full layout."""
        mask = np.ones(self.shape, dtype=bool)
        kperp_sq = np.zeros(self.shape, dtype=int)
        kpar_sq = np.zeros((1,) * self.ndim, dtype=int)
        mults = []
        for i, (n, ax) in enumerate(zip(self.shape, self.axes)):
            k = self._mode_grids[i]
            mask &= np.abs(k) < n / 3.0
            if ax == PAR:
                kpar_sq = k**2
            else:
                kperp_sq = kperp_sq + k**2
            # the Nyquist mode is dropped (see derivative())
            mults.append(np.where(np.abs(k) == n // 2, 0.0, 2j * np.pi * k))
        return Symbols(self.shape, mask, tuple(mults), kperp_sq, kpar_sq)

    @cached_property
    def half(self) -> Symbols:
        """The symbols on the half layout: the first n//2 + 1 entries of
        the full ones along the last axis. rfftn's last entry is the
        Nyquist mode +n/2 where the full layout holds -n/2; every symbol is
        even in k or zero there."""
        m = self.shape[-1] // 2 + 1

        def cut(a):
            return np.ascontiguousarray(a[..., :m])

        f = self.full
        return Symbols(self.shape[:-1] + (m,), cut(f.dealias_mask),
                       tuple(cut(d) for d in f.derivative_mults),
                       cut(f.kperp_sq), cut(f.kpar_sq))

    @cached_property
    def _band_lines(self) -> tuple[np.ndarray, ...]:
        """Per axis, the indices the band layout keeps: |k| < n/3, in FFT
        order (0 ... K, then n - K ... n - 1) on a perp axis, and the
        first ceil(n/3) half-layout entries (k = 0 ... K) on the par axis,
        the last."""
        lines = []
        for i, n in enumerate(self.shape):
            k = self.modes(i)
            keep = np.flatnonzero(np.abs(k) < n / 3.0)
            lines.append(keep[k[keep] >= 0] if i == self.ndim - 1 else keep)
        return tuple(lines)

    @cached_property
    def band(self) -> Symbols:
        """The symbols on the band layout: the full ones at the modes the
        2/3 rule keeps (see _band_lines), the only modes a dealiased
        product or a stepped state holds."""

        def keep(a):
            for axis, index in enumerate(self._band_lines):
                if a.shape[axis] > 1:
                    a = a.take(index, axis=axis)
            return a

        f = self.full
        return Symbols(tuple(map(len, self._band_lines)), keep(f.dealias_mask),
                       tuple(map(keep, f.derivative_mults)),
                       keep(f.kperp_sq), keep(f.kpar_sq))

    @cached_property
    def _layouts(self) -> dict:
        """The symbols of each layout by the length of its last axis: n on
        the full layout, n//2 + 1 on the half one and ceil(n/3) on the
        band, three lengths that differ for every even n >= 4."""
        return {sym.shape[-1]: sym for sym in (self.full, self.half, self.band)}

    def symbols(self, coeffs: np.ndarray) -> Symbols:
        """The symbols of the layout `coeffs` is in, leading axes aside."""
        return self._layouts[coeffs.shape[-1]]

    @property
    def kperp_sq(self) -> np.ndarray:
        """|k_perp|^2 broadcast to the full shape (0 on line grids)."""
        return self.full.kperp_sq

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_i| < N_i/3 on every axis."""
        return self.full.dealias_mask

    @cached_property
    def _reflection(self) -> np.ndarray:
        """Flat index of -k (mod N on every axis) for each flat index k of
        the full layout."""
        index = np.arange(self.size).reshape(self.shape)
        for ax in range(self.ndim):
            index = np.roll(np.flip(index, axis=ax), 1, axis=ax)
        return index.ravel()

    @cached_property
    def _completion(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather index into a flattened half array, and the conjugation
        mask, that complete it to the flattened full layout: entry k is
        half[k] for k_last >= 0 and conj(half[-k]) otherwise."""
        n, m = self.shape[-1], self.half.shape[-1]
        full = np.arange(self.size)
        conj = full % n >= m
        source = np.where(conj, self._reflection, full)   # k_last >= 0 there
        return (source // n) * m + source % n, conj

    @cached_property
    def _band_runs(self) -> tuple[tuple, ...]:
        """Per perp axis, its position counted from the end of an array,
        its n, and the indices of its two runs of band entries in an array
        with any leading axes, the band's or an n-long one: k = 0 ... K at
        the start and k = -K ... -1 at the end."""
        runs = []
        for axis in self.perp_axes:
            k = len(self._band_lines[axis]) // 2          # K >= 1, as n >= 4
            rest = (slice(None),) * (self.ndim - 1 - axis)
            runs.append((axis - self.ndim, self.shape[axis],
                         (Ellipsis, slice(0, k + 1)) + rest,
                         (Ellipsis, slice(-k, None)) + rest))
        return tuple(runs)

    @cached_property
    def _band_gather(self) -> np.ndarray:
        """Flat index into the full layout of each band entry, in the
        band's order."""
        return np.ravel_multi_index(np.ix_(*self._band_lines), self.shape).ravel()

    @cached_property
    def _band_completion(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather index into a flattened band array with one zero appended,
        and the conjugation mask, that complete it to the flattened full
        layout as _completion does a half array: entry k is band[k] for
        k_last >= 0, conj(band[-k]) otherwise, and the zero outside the
        band. The mask is the half layout's, so a band array completes to
        the bytes its scatter into a half array would."""
        position = np.full(self.size, self._band_gather.size)
        position[self._band_gather] = np.arange(self._band_gather.size)
        _, conj = self._completion
        source = np.where(conj, self._reflection, np.arange(self.size))
        return position[source], conj

    @property
    def band_matrices(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The band transforms' matrices (A, B) of _band_matrix_pair, which
        replace its pruned transforms when both fit in MATRIX_BYTES (read
        at each call), else None. They are built at the first transform
        that uses them, once for all equal grids."""
        if 32 * math.prod(self.band.shape) * self.size > MATRIX_BYTES:
            return None
        return _band_matrix_pair(self)

    @cached_property
    def par_grid(self) -> "Grid":
        return Grid.line(self.shape[self.par_axis]) if self.ndim > 1 else self

    @cached_property
    def _trailing_axes(self) -> tuple[int, ...]:
        """The grid's axes of an array, counted from its end so that
        leading (batch) axes are left alone."""
        return tuple(range(-self.ndim, 0))

    @cached_property
    def _par_line(self) -> tuple:
        """Index of the k_perp = 0 line of a coefficient array with any
        leading axes, on any layout."""
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


@lru_cache(maxsize=16)
def _band_matrix_pair(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The real matrices of the band transforms, built from the band's
    modes: the inverse A (2K x N) takes the interleaved re/im parts of
    K band entries, in the band's order, to the N values, and the
    forward B (N x 2K) takes them back. Row 2j, 2j + 1 of A holds
    w cos and -w sin of the phase 2 pi k.x at every point x, with w = 2
    for k_par > 0 (the conjugate entry at -k the band does not hold)
    and 1 for k_par = 0, where irfftn takes the real part; B holds the
    same waves over N, unweighted. Each phase is taken as an integer
    ((k.x) mod L) / L, L the least common multiple of the mode counts,
    so every entry is one of L tabulated cosines and sines. Both are
    shared by every equal grid, so neither is writable."""
    period = math.lcm(*grid.shape)
    points = np.meshgrid(*map(np.arange, grid.shape), indexing="ij")
    modes = np.meshgrid(*(grid.modes(i)[line] for i, line in enumerate(grid._band_lines)),
                        indexing="ij")
    phase = sum(np.multiply.outer(k.ravel(), x.ravel() * (period // n))
                for k, x, n in zip(modes, points, grid.shape)) % period
    angle = 2.0 * np.pi * np.arange(period) / period
    inverse = np.empty((2 * phase.shape[0], grid.size))
    inverse[0::2], inverse[1::2] = np.cos(angle)[phase], -np.sin(angle)[phase]
    forward = inverse.T.copy()
    forward /= grid.size
    inverse *= np.repeat(np.where(modes[-1].ravel() > 0, 2.0, 1.0), 2)[:, None]
    for matrix in (inverse, forward):
        matrix.setflags(write=False)
    return inverse, forward


def _ell1(shape: tuple[int, ...]) -> np.ndarray:
    """|k1|+|k2|+|kpar| on a coefficient array of the given mode counts."""
    total = np.zeros(shape, dtype=int)
    for i, n in enumerate(shape):
        k = np.abs(np.rint(np.fft.fftfreq(n) * n).astype(int))
        total = total + k.reshape([n if j == i else 1 for j in range(len(shape))])
    return total


def _conjugate_reflection(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """conj(coeff(-k)) with indices taken mod N on every axis."""
    out = np.take(coeffs.ravel(), grid._reflection).reshape(coeffs.shape)
    return np.conjugate(out, out=out)


def _symmetry_defects(field: "SpectralField") -> tuple[float, float]:
    """The largest |coeff(k) - conj(coeff(-k))| relative to the coefficient
    scale, and the l1 norm of the anti-Hermitian part, half the sum of
    those magnitudes. The scale is floored at 1e-12: fields below it are
    numerically zero and report no defect (rounding noise has no
    symmetry)."""
    anti = np.abs(field.coeffs - _conjugate_reflection(field.grid, field.coeffs))
    scale = max(float(np.max(np.abs(field.coeffs))), 1e-12)
    return float(np.max(anti)) / scale, 0.5 * float(np.sum(anti))


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

    @property
    def half_coeffs(self) -> np.ndarray:
        """The half-layout part of the coefficients (a view): all that a
        real field's transforms read."""
        return self.coeffs[..., :self.grid.half.shape[-1]]

    @property
    def band_coeffs(self) -> np.ndarray:
        """The band-layout part of the coefficients (a copy): all that a
        step of a real field keeps."""
        return band_coeffs(self.grid, self.coeffs)

    @cached_property
    def _values(self) -> np.ndarray:
        vals = (collocation_values(self.grid, self.half_coeffs, True) if self.real
                else collocation_values(self.grid, self.coeffs, False))
        vals.setflags(write=False)
        return vals

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
        return SpectralField(self.grid, _conjugate_reflection(self.grid, self.coeffs),
                             self.real)


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
    coeffs = np.fft.rfftn(values) / grid.size
    return SpectralField(grid, full_coeffs(grid, coeffs), real=True)


def check_real(field: SpectralField, tol: float = 1e-6) -> None:
    """Raise InvariantError unless the coefficients are those of a real
    function: a Hermitian defect above `tol` (relative), or an imaginary
    residue of the full series above `tol` relative to 1 + max|values|.

    A real field's transforms read its half layout alone, so data is
    checked where it enters (`inverse`, the initial-data constructors):
    the residue is at most the l1 norm of the anti-Hermitian part, and only
    when that bound exceeds `tol` is the full complex series evaluated.
    """
    defect, anti_l1 = _symmetry_defects(field)
    if defect > tol:
        raise InvariantError(f"Hermitian symmetry broken (defect {defect:.2e})")
    if anti_l1 > tol:
        vals = collocation_values(field.grid, field.coeffs, False)
        residue = float(np.max(np.abs(vals.imag)))
        if residue > tol * (1.0 + float(np.max(np.abs(vals.real)))):
            raise InvariantError(f"imaginary residue {residue:.2e} above {tol:.0e}")


def check_band_limited(field: SpectralField, name: str) -> None:
    """Raise InvariantError if the real `field` (`name` in the message)
    has a nonzero coefficient outside the 2/3-rule band, which every
    computation on the band layout (a step, a CK iterate) drops silently."""
    if field.real and field.coeffs[~field.grid.dealias_mask].any():
        raise InvariantError(f"{name} has a mode outside the 2/3-rule band, "
                             "which the band layout would drop")


def inverse(field: SpectralField, tol: float = 1e-6) -> np.ndarray:
    """Evaluate the truncated Fourier series at the collocation points.

    A real field is first checked (see check_real). The transform is the
    field's cached one (the values products and tendencies read), and the
    caller gets a copy.
    """
    if field.real:
        check_real(field, tol)
    return field._values.copy()


# -- array-level helpers: coefficient arrays [..., *grid.shape] -----------

def full_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Complete half- or band-layout coefficients of real fields to the
    full layout (Hermitian symmetry, zero outside the band), keeping
    leading axes: one gather and a masked conjugation."""
    lead = coeffs.shape[:coeffs.ndim - grid.ndim]
    flat = coeffs.reshape(lead + (-1,))
    if coeffs.shape[-1] == grid.half.shape[-1]:
        gather, conj = grid._completion
    else:
        gather, conj = grid._band_completion
        flat = np.concatenate([flat, np.zeros(lead + (1,), dtype=complex)], axis=-1)
    out = np.take(flat, gather, axis=-1)
    np.conjugate(out, out=out, where=conj)
    return out.reshape(lead + grid.shape)


def band_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The band-layout part of full-layout coefficients (a copy), keeping
    leading axes: one gather."""
    lead = coeffs.shape[:coeffs.ndim - grid.ndim]
    return np.take(coeffs.reshape(lead + (-1,)), grid._band_gather,
                   axis=-1).reshape(lead + grid.band.shape)


def band_to_half(grid: Grid, band: np.ndarray) -> np.ndarray:
    """Band-layout coefficients placed in a half-layout array, zero
    outside the band, keeping leading axes."""
    half = np.zeros(band.shape[:band.ndim - grid.ndim] + grid.half.shape, dtype=complex)
    half[(Ellipsis, *np.ix_(*grid._band_lines))] = band
    return half


def block_rows(grid: Grid) -> int:
    """Grid-sized rows per transform call: as many as FFT_BLOCK_POINTS
    points hold, and at least one (a grid axis is never split)."""
    return max(1, FFT_BLOCK_POINTS // grid.size)


def row_stack(grid: Grid, array: np.ndarray) -> np.ndarray:
    """`array` with its leading axes flattened into one row axis (a view
    wherever numpy allows one)."""
    return array.reshape((-1,) + array.shape[array.ndim - grid.ndim:])


def _inverse_block(grid: Grid, coeffs: np.ndarray, real: bool) -> np.ndarray:
    """Values of one block of coefficient rows (numpy 2 wants `axes`
    alongside `s`)."""
    if real:
        vals = np.fft.irfftn(coeffs, s=grid.shape, axes=grid._trailing_axes)
    else:
        vals = np.fft.ifftn(coeffs, s=grid.shape, axes=grid._trailing_axes)
    vals *= grid.size
    return vals


def _forward_block(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """Dealiased full-layout coefficients of one block of complex value
    rows (`s` spares numpy a lookup of the transformed lengths)."""
    coeffs = np.fft.fftn(vals, s=grid.shape, axes=grid._trailing_axes)
    coeffs /= grid.size
    coeffs *= grid.full.dealias_mask
    return coeffs


def _gemm(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix for a 2-D stack of rows, each row bit for bit the
    same whatever rows share its call. OpenBLAS (0.3.31, Haswell) rounds a
    product of at most GEMM_TERMS rows x inner x outer terms one way and
    larger ones another, and numpy hands a lone row to gemv, which rounds a
    third way: so the rows go in parts of at most GEMM_TERMS terms, and a
    part of one row is multiplied as two, the second zero."""
    step = max(2, GEMM_TERMS // matrix.size)
    out = np.empty((len(rows), matrix.shape[1]))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        if len(part) == 1:
            out[start:] = (np.concatenate([part, np.zeros_like(part)]) @ matrix)[:1]
        else:
            np.matmul(part, matrix, out=out[start:start + len(part)])
    return out


def _band_inverse_block(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real values of one block of band rows: on a grid with band
    matrices, one matrix product of the rows' interleaved re/im parts;
    else the 1-D transforms of irfftn restricted to the lines that can be
    nonzero: each perp axis in turn is filled out to its n entries and
    transformed along the lines the band keeps on every later axis, then
    irfft zero-pads the par axis.
    """
    matrices = grid.band_matrices
    if matrices is not None:
        flat = np.ascontiguousarray(coeffs, dtype=complex).reshape(len(coeffs), -1)
        return _gemm(flat.view(float), matrices[0]).reshape((len(coeffs),) + grid.shape)
    for axis, n, low, high in grid._band_runs:
        shape = list(coeffs.shape)
        shape[axis] = n
        wide = np.zeros(shape, dtype=complex)
        wide[low], wide[high] = coeffs[low], coeffs[high]
        coeffs = np.fft.ifft(wide, axis=axis)
    vals = np.fft.irfft(coeffs, n=grid.shape[-1], axis=-1)
    vals *= grid.size
    return vals


def _half_inverse_block(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """Real values of one block of half-layout rows on a grid with band
    matrices: a row with no mode outside the band gets the values of its
    band entries, as the kernel makes them, and any other row irfftn's."""
    mask = grid.half.dealias_mask
    inside = ~rows[:, ~mask].any(axis=1)
    band = rows[inside][:, mask].reshape((-1,) + grid.band.shape)
    if inside.all():
        return _band_inverse_block(grid, band)
    vals = _inverse_block(grid, rows, True)
    if inside.any():
        vals[inside] = _band_inverse_block(grid, band)
    return vals


def _band_forward_block(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """Band-layout coefficients of one block of real value rows: on a
    grid with band matrices, one matrix product giving their interleaved
    re/im parts; else the 1-D transforms of rfftn restricted to the lines
    the band keeps: rfft along par, cut to the band, then fft along each
    perp axis, last first, keeping the band's lines."""
    matrices = grid.band_matrices
    if matrices is not None:
        flat = np.ascontiguousarray(vals, dtype=float).reshape(len(vals), -1)
        return _gemm(flat, matrices[1]).view(complex).reshape(
            (len(vals),) + grid.band.shape)
    coeffs = np.fft.rfft(vals, axis=-1)[..., :grid.band.shape[-1]]
    for axis, _, low, high in reversed(grid._band_runs):
        full = np.fft.fft(coeffs, axis=axis)
        coeffs = np.concatenate([full[low], full[high]], axis=axis)
    coeffs /= grid.size
    # all ones on the band, but as in rfftn's masking it gives each
    # exact zero the sign the 2/3 mask gives it
    coeffs *= grid.band.dealias_mask
    return coeffs


def _by_blocks(grid: Grid, array: np.ndarray, transform) -> np.ndarray:
    """transform(rows) of the row stack of `array`, block_rows(grid) rows
    per call, with the leading axes of `array`."""
    rows, step = row_stack(grid, array), block_rows(grid)
    out = transform(rows[:step])
    if len(rows) > step:
        # copied together: numpy.fft takes no `out` before numpy 2
        whole = np.empty((len(rows),) + out.shape[1:], dtype=out.dtype)
        whole[:step] = out
        for start in range(step, len(rows), step):
            whole[start:start + step] = transform(rows[start:start + step])
        out = whole
    return out.reshape(array.shape[:array.ndim - grid.ndim] + out.shape[1:])


def collocation_values(grid: Grid, coeffs: np.ndarray, real: bool) -> np.ndarray:
    """Values of the trigonometric interpolant at the collocation points,
    over the trailing grid axes: real values of half- or band-layout
    coefficients if `real` (irfftn, or the band's transform, which a
    half-layout row with no mode outside the band takes too where the
    grid has band matrices), else complex values of full-layout ones
    (ifftn). The leading axes are transformed block_rows(grid) rows per
    call."""
    if real and coeffs.shape[-1] == grid.band.shape[-1]:
        return _by_blocks(grid, coeffs, lambda rows: _band_inverse_block(grid, rows))
    if real and grid.band_matrices is not None:
        return _by_blocks(grid, coeffs, lambda rows: _half_inverse_block(grid, rows))
    return _by_blocks(grid, coeffs, lambda rows: _inverse_block(grid, rows, real))


def dealiased_coeffs(grid: Grid, vals: np.ndarray, real: bool) -> np.ndarray:
    """The inverse of collocation_values, dealiased: band layout (the
    pruned rfftn) from real values if `real`, else full layout (fftn)."""
    if real:
        return _by_blocks(grid, vals, lambda rows: _band_forward_block(grid, rows))
    return _by_blocks(grid, vals, lambda rows: _forward_block(grid, rows))


def product_coeffs(grid: Grid, f_vals: np.ndarray, g_vals: np.ndarray,
                   real: bool) -> np.ndarray:
    """dealiased_coeffs of the pointwise product of two sets of collocation
    values (see product())."""
    return dealiased_coeffs(grid, f_vals * g_vals, real)


def derivative_coeffs(grid: Grid, coeffs: np.ndarray, axis) -> np.ndarray:
    """Coefficients of the partial derivative along `axis` (see
    derivative()), on any layout."""
    return coeffs * grid.symbols(coeffs).derivative_mults[grid.axis_index(axis)]


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


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased (2/3 rule) spectral coefficients of the pointwise product.

    For real fields both transforms are real ones (see collocation_values
    and dealiased_coeffs) and the result is completed from its band
    layout, so it is Hermitian by construction: no rounding-level
    imaginary residue can feed back into the spectrum step after step.
    """
    if f.grid != g.grid:
        raise ConfigError("product() requires both fields on the same grid")
    grid = f.grid
    if f.real and g.real:
        return SpectralField(grid, full_coeffs(
            grid, product_coeffs(grid, f._values, g._values, True)))
    return SpectralField(grid, product_coeffs(grid, f._values, g._values, False),
                         real=False)


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


def _weighted_l1(field: SpectralField, delta: float, factor=1) -> float:
    """sum_k |coeff(k)| factor(k) delta^|k|, |k| the l1 length: the one sum
    behind the analytic norms. Overflow saturates to +inf: analytic norms
    legitimately diverge for under-resolved fields."""
    if delta < 1.0:
        raise ConfigError(f"delta must be >= 1, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = factor * np.power(float(delta), field.grid.ell1)
        total = float(np.sum(np.abs(field.coeffs) * weights))
    return total if math.isfinite(total) else math.inf


def analytic_norm(field: SpectralField, delta: float) -> float:
    """|f|_delta = sum_k |coeff(k)| delta^|k|, |k| the l1 length; delta = 1
    gives the Wiener norm."""
    return _weighted_l1(field, delta)


def gradient_norm(field: SpectralField, delta: float) -> float:
    """Analytic norm of the gradient in the convention of the norm itself.

    Each component derivative is weighted by 1/(2 pi), i.e. the weight on
    coeff(k) is |k|_l1 delta^|k|. This keeps the loss-of-derivative
    inequality |grad f|_delta' <= delta/(delta-delta') |f|_delta exact.
    """
    return _weighted_l1(field, delta, field.grid.ell1)


def second_derivative_norm(field: SpectralField, axis_i, axis_j,
                           delta: float) -> float:
    """Analytic norm of d_i d_j f in the 1/(2 pi)^2 gradient convention,
    i.e. the weight on coeff(k) is |k_i k_j| delta^|k|. Used only for the
    diagnostic inequality

        |d^2_{ij} u(t)|_delta <= 2^{1+beta} ||u|| delta0
                                 (delta0 - delta - t/eta)^(-beta-1),

    a consequence of the shrinking-norm bound, never as a solver bound.
    """
    grid = field.grid
    ki = np.abs(grid.mode_grid(axis_i))
    kj = np.abs(grid.mode_grid(axis_j))
    return _weighted_l1(field, delta, ki * kj)


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
