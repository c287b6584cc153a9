"""Named initial-data presets reachable from run configurations.

Every preset returns (rho, v) fields on the requested grid:

* equilibrium                 rho = 1, v = 0
* single_mode                 rho = 1 + amplitude sqrt(eps) cos(2 pi k xpar)
                              (the sqrt(eps) scale keeps the data
                              admissible uniformly in eps); optional
                              perp_amplitude adds drift structure and a
                              transverse current
* shear                       two-bump shear profile on (x1, xpar)
* two_stream                  two-slab counter-stream embedding (rbar1, a)
* random_band                 random phases, |k| <= kmax, analytic(r) or
                              algebraic(s) coefficient decay, seeded
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError
from .spectral import (Grid, SpectralField, constant, dealias, forward,
                       from_modes, l2_norm, zeros)
from . import limit as limit_mod


def build(name: str, grid: Grid, eps: float = 1.0, **params):
    return maker(name)(grid, eps=eps, **params)


def maker(name: str):
    """The preset function called `name`."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    return PRESETS[name]


def equilibrium(grid: Grid, eps: float = 1.0) -> tuple[SpectralField, SpectralField]:
    return constant(grid, 1.0), zeros(grid)


def single_mode(grid: Grid, eps: float = 1.0, k_par: int = 1,
                amplitude: float = 0.05, perp_amplitude: float = 0.0,
                v_amplitude: float = 0.0) -> tuple[SpectralField, SpectralField]:
    mesh = grid.meshgrid()
    xpar = mesh[grid.par_axis]
    rho = 1.0 + amplitude * math.sqrt(eps) * np.cos(2 * np.pi * k_par * xpar)
    v = v_amplitude * np.sin(2 * np.pi * k_par * xpar)
    if perp_amplitude != 0.0 and "perp1" in grid.axes:
        x1 = mesh[grid.axis_index("perp1")]
        rho = rho + perp_amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * k_par * xpar)
        if "perp2" in grid.axes:
            x2 = mesh[grid.axis_index("perp2")]
            v = v + perp_amplitude * np.cos(2 * np.pi * x2)
    return forward(grid, rho), forward(grid, v)


def shear(grid: Grid, eps: float = 1.0, width1: float = 0.08,
          width2: float = 0.08, amplitude1: float = 0.1,
          amplitude2: float = -0.1, v_amplitude: float = 0.05,
          k_par: int = 1):
    """Two mollified bumps in x1 modulated along xpar (the smooth stand-in
    for a two-sheet shear profile)."""

    def bump(x, center, width):
        # periodic Gaussian-like bump via a cosine mollifier
        return np.exp((np.cos(2 * np.pi * (x - center)) - 1.0) /
                      (2.0 * np.pi * width) ** 2 * 2.0)

    def phi(x1, xpar):
        env = 1.0 + 0.3 * np.cos(2 * np.pi * k_par * xpar)
        return (amplitude1 * bump(x1, 0.25, width1)
                + amplitude2 * bump(x1, 0.75, width2)) * env

    def vprof(x1, xpar):
        return v_amplitude * np.sin(2 * np.pi * k_par * xpar) * \
            (bump(x1, 0.25, width1) - bump(x1, 0.75, width2))

    state = limit_mod.shear_flow(grid, phi, vprof)
    return state.rho, state.v


def two_stream(grid: Grid, eps: float = 1.0, rbar1: float = 0.5,
               a: float = 1.0, mean_velocity: float = 0.0,
               ripple: float = 1e-4, k_par: int = 1):
    """Two-slab counter-stream data: volume fraction rbar1 at velocity
    mean_velocity + a, the rest at mean_velocity - a, with a small
    momentum-compatible density ripple at k_par."""
    if grid.ndim == 1:
        x = grid.meshgrid()[0]
        rho1 = forward(grid, rbar1 + ripple * np.cos(2 * np.pi * k_par * x))
        v1 = forward(grid, (mean_velocity + a) * np.ones(grid.shape))
        v2 = forward(grid, (mean_velocity - a) * np.ones(grid.shape))
        return rho1, v1, v2
    if "perp1" not in grid.axes:
        raise ConfigError("two_stream needs a perp1 axis or a line grid")
    par = grid.par_grid
    xp = par.meshgrid()[0]
    rho1 = forward(par, rbar1 + ripple * np.cos(2 * np.pi * k_par * xp))
    v1 = forward(par, (mean_velocity + a) * np.ones(par.shape))
    v2 = forward(par, (mean_velocity - a) * np.ones(par.shape))
    state = limit_mod.embed_two_phase(rho1, v1, v2, grid)
    return state.rho, state.v


def random_band(grid: Grid, eps: float = 1.0, kmax: int = 2,
                amplitude: float = 0.01, seed: int = 0,
                decay: str = "analytic", decay_param: float = 0.5,
                admissible: bool = True):
    """Random band-limited fluctuation data with prescribed coefficient
    decay; when admissible, the parallel-average fluctuation of rho is
    rescaled to amplitude * sqrt(eps). v has L2 norm amplitude / 2."""
    rng = np.random.default_rng(seed)

    def sample() -> SpectralField:
        entries = {}
        # Nyquist modes have no conjugate partner and are excluded
        mode_lists = [[int(k) for k in grid.modes(i)
                       if abs(k) <= min(kmax, grid.shape[i] // 2 - 1)]
                      for i in range(grid.ndim)]
        for kvec in itertools.product(*mode_lists):
            if all(k == 0 for k in kvec):
                continue
            ell = sum(abs(k) for k in kvec)
            if decay == "analytic":
                w = decay_param ** ell
            elif decay == "algebraic":
                w = ell ** (-decay_param)
            else:
                raise ConfigError(f"unknown decay {decay!r}")
            entries[kvec] = w * (rng.standard_normal() + 1j * rng.standard_normal())
        return dealias(from_modes(grid, entries))

    fluct = sample()
    fluct = (amplitude / max(l2_norm(fluct), 1e-300)) * fluct
    if admissible:
        # split off the k_perp = 0 part and rescale it to C sqrt(eps)
        coeffs = np.array(fluct.coeffs, copy=True)
        coeffs[grid._par_line] *= math.sqrt(eps)
        fluct = SpectralField(grid, coeffs)
    rho = constant(grid, 1.0) + fluct
    v = sample()
    return rho, (0.5 * amplitude / max(l2_norm(v), 1e-300)) * v


# the presets by name, in the order list-presets prints them
PRESETS = {maker.__name__: maker for maker in (
    equilibrium, single_mode, shear, two_stream, random_band)}
