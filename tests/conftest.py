import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from driftfluid.spectral import Grid, SpectralField

# property tests draw the same examples on every run and write no example
# database; a test may lower or raise max_examples for itself
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("deterministic")
# even without a database, hypothesis caches the constants of local modules
# on disk when collection ends: keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "driftfluid-hypothesis")

PROPERTY_GRIDS = [Grid.line(8), Grid.line(16), Grid.shear2d(8, 8),
                  Grid.shear2d(8, 16), Grid.torus3d(4, 4, 8), Grid.torus3d(8, 8, 8)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def random_band_field(grid: Grid, kmax: int, rng, amplitude: float = 1.0,
                      mean: float = 0.0) -> SpectralField:
    """Random real field supported on |k_i| <= kmax on every axis, with
    fluctuation coefficients scaled by `amplitude` and the stated mean."""
    coeffs = (rng.standard_normal(grid.shape)
              + 1j * rng.standard_normal(grid.shape))
    keep = np.ones(grid.shape, dtype=bool)
    for i in range(grid.ndim):
        keep &= np.abs(grid.mode_grid(i)) <= kmax
    coeffs = np.where(keep, coeffs, 0.0)
    raw = SpectralField(grid, coeffs, real=False)
    sym = amplitude * 0.5 * (raw.coeffs + raw.conj().coeffs)
    sym[(0,) * grid.ndim] = mean
    return SpectralField(grid, sym, real=True)


def count_transforms(monkeypatch) -> list:
    """Record (name, input shape) of every numpy.fft entry point called
    from here on."""
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
