"""Exact Fourier-symbol solvers for the two anisotropic Poisson problems.

The screened perpendicular problem

    -eps^2 d_par^2 phi - Lap_perp phi = rho - <rho>_perp

is solved mode-by-mode by division with the symbol
(2 pi)^2 (eps^2 kpar^2 + |kperp|^2); the right-hand side has no
k_perp = 0 content by construction, which is exactly where the symbol
degenerates. The one-dimensional problem

    -eps d_par^2 V = <rho>_perp - 1

is solvable iff the perpendicular average has mean one. Both potentials
are gauged to zero mean; only their gradients enter the dynamics.

The solves act on coefficient arrays with any leading axes (`field_coeffs`
and its parts `phi_coeffs`, `parallel_coeffs`, `V_coeffs` and
`perp_field_coeffs`), on either layout of `spectral`: the eps, limit and
CK kernels pass half-layout arrays, and the field functions wrap them for
a single density in the full layout. The multi-phase toy model's
full-torus problem -eps Lap V = sigma - 1 is the same division on its own
grid (`V_coeffs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolvabilityError
from .spectral import (
    PERP1,
    PERP2,
    Grid,
    SpectralField,
    derivative,
    derivative_coeffs,
    perp_average_coeffs,
)

TWO_PI_SQ = (2.0 * np.pi) ** 2


@dataclass(frozen=True)
class Potentials:
    """Electric potentials derived from a charge density at fixed eps."""

    phi: SpectralField          # 3D (or shear) potential, zero k_perp = 0 content
    V: SpectralField            # parallel-only potential, zero mean
    eps: float


@dataclass(frozen=True)
class Forces:
    """Force fields entering the momentum equation.

    Eperp = -grad^perp phi with X^perp = (X_2, -X_1), i.e.
    Eperp = (-d2 phi, d1 phi); it is a rotated gradient, hence
    perpendicular-divergence-free. Epar = -d_par V is parallel-only.
    """

    Eperp1: SpectralField
    Eperp2: SpectralField
    eps_dpar_phi: SpectralField
    Epar: SpectralField
    eps: float


def phi_coeffs(grid: Grid, rho: np.ndarray, eps: float) -> np.ndarray:
    """Screened perpendicular Poisson solve on coefficient arrays of either
    layout with any leading axes, zero-mean gauge."""
    sym = grid.symbols(rho)
    symbol = TWO_PI_SQ * (eps**2 * sym.kpar_sq + sym.kperp_sq)
    perp_zero = sym.kperp_sq == 0
    safe = np.where(perp_zero, 1.0, symbol)
    return np.where(perp_zero, 0.0, rho / safe)


def V_coeffs(grid: Grid, source: np.ndarray, eps: float,
             tol: float = 1e-8) -> np.ndarray:
    """Solve -eps Lap V = source - 1 on coefficient arrays of either layout
    by division with eps (2 pi)^2 |k|^2, summed over every axis of `grid`:
    the parallel problem on a line grid, the full-torus one otherwise.
    Every sample of the source must have mean 1."""
    means = np.real(source[(...,) + (0,) * grid.ndim])
    bad = np.abs(means - 1.0) > tol
    if np.any(bad):
        mean = float(means[bad][0])
        raise SolvabilityError(
            f"Poisson source has mean {mean!r}; -eps Lap V = source - 1 is "
            "solvable only for mean 1")
    sym = grid.symbols(source)
    ksq = sym.kperp_sq + sym.kpar_sq
    safe = np.where(ksq == 0, 1.0, eps * TWO_PI_SQ * ksq)
    return np.where(ksq == 0, 0.0, source / safe)


def perp_field_coeffs(grid: Grid, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_perp = (-d2 phi, d1 phi) on coefficient arrays; a missing axis
    gives an identically zero component."""
    e1 = (-derivative_coeffs(grid, phi, PERP2) if PERP2 in grid.axes
          else np.zeros(phi.shape, dtype=complex))
    e2 = (derivative_coeffs(grid, phi, PERP1) if PERP1 in grid.axes
          else np.zeros(phi.shape, dtype=complex))
    return e1, e2


def parallel_coeffs(grid: Grid, rho: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """V and E_par = -d_par V of densities on either layout, as arrays on
    the same layout of the parallel grid."""
    line = grid.par_grid
    V = V_coeffs(line, perp_average_coeffs(grid, rho), eps)
    return V, -derivative_coeffs(line, V, 0)


class FieldCoeffs(NamedTuple):
    """Coefficient arrays of the potentials and forces (see solve_fields)."""

    phi: np.ndarray
    V: np.ndarray
    Eperp1: np.ndarray
    Eperp2: np.ndarray
    eps_dpar_phi: np.ndarray
    Epar: np.ndarray


def field_coeffs(grid: Grid, rho: np.ndarray, eps: float) -> FieldCoeffs:
    """All potentials and forces of charge densities given as coefficient
    arrays of either layout, the line ones (V, E_par) on the same layout of
    the parallel grid; leading axes are samples solved at once."""
    phi = phi_coeffs(grid, rho, eps)
    V, Epar = parallel_coeffs(grid, rho, eps)
    e1, e2 = perp_field_coeffs(grid, phi)
    return FieldCoeffs(phi=phi, V=V, Eperp1=e1, Eperp2=e2,
                       eps_dpar_phi=eps * derivative_coeffs(grid, phi, grid.par_axis),
                       Epar=Epar)


def solve_phi(rho: SpectralField, eps: float) -> SpectralField:
    """Screened perpendicular Poisson solve for phi, zero-mean gauge."""
    return SpectralField(rho.grid, phi_coeffs(rho.grid, rho.coeffs, eps), rho.real)


def solve_V(rho_bar: SpectralField, eps: float, tol: float = 1e-8) -> SpectralField:
    """1D parallel Poisson solve -eps d_par^2 V = rho_bar - 1, zero-mean gauge."""
    grid = rho_bar.grid
    if grid.ndim != 1:
        raise SolvabilityError("solve_V expects a parallel-only field")
    return SpectralField(grid, V_coeffs(grid, rho_bar.coeffs, eps, tol), rho_bar.real)


def perp_field(phi: SpectralField) -> tuple[SpectralField, SpectralField]:
    """E_perp = -grad^perp phi = (-d2 phi, d1 phi).

    On shear grids (no perp2 axis) the first component vanishes
    identically and the second is d1 phi.
    """
    e1, e2 = perp_field_coeffs(phi.grid, phi.coeffs)
    return SpectralField(phi.grid, e1, phi.real), SpectralField(phi.grid, e2, phi.real)


def parallel_force(V: SpectralField) -> SpectralField:
    """E_par = -d_par V (parallel-only)."""
    return -derivative(V, 0)


def solve_fields(rho: SpectralField, eps: float) -> tuple[Potentials, Forces]:
    """All potentials and forces for a given charge density."""
    grid = rho.grid
    c = field_coeffs(grid, rho.coeffs, eps)

    def field(coeffs, on=grid):
        return SpectralField(on, coeffs, rho.real)

    return (
        Potentials(phi=field(c.phi), V=field(c.V, grid.par_grid), eps=eps),
        Forces(Eperp1=field(c.Eperp1), Eperp2=field(c.Eperp2),
               eps_dpar_phi=field(c.eps_dpar_phi),
               Epar=field(c.Epar, grid.par_grid), eps=eps),
    )
