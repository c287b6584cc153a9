"""Analysis of the fast plasma oscillations of the parallel electric field.

The parallel field obeys a forced wave equation,

    eps d_t^2 (d_par E_par) + d_par E_par = g,

whose solution oscillates at angular frequency 1/sqrt(eps). Everything in
this module works on recorded trajectories of parallel-only Fourier
coefficients:

* Duhamel evaluation of G = int_0^t E_par ds and of sqrt(eps) E_par from
  the recorded source g and the initial data;
* splitting E_par = E1 + E2 where E2 is the forward sliding average over
  exactly one oscillation period (the slow part) and E1 carries the
  oscillation, with W = int_0^t E1 the bounded primitive;
* demodulation of sqrt(eps) E1 against exp(+-i t/sqrt(eps)) to extract the
  slowly modulated corrector envelopes E+ and E-;
* transport of the correctors by the mean parallel current of the limit
  flow:  d_t E+- + ubar d_par E+- = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .quadrature import (
    cumulative_integral,
    midpoints,
    oscillatory_convolutions,
    rk4_step,
)
from .spectral import (
    Grid,
    SpectralField,
    collocation_values,
    derivative_coeffs,
    product_coeffs,
)

TWO_PI = 2.0 * math.pi


def _check_uniform(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("need a 1D array of at least two sample times")
    steps = np.diff(times)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1.0):
        raise ConfigError("sample times must be uniform")
    return dt


@dataclass(frozen=True)
class WaveSource:
    """Recorded source g(t) of the wave equation, parallel-only and
    zero mean in x_par at all times (it is a parallel derivative)."""

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray    # [n_t, n_par]

    def __post_init__(self):
        if self.grid.ndim != 1:
            raise ConfigError("wave source must live on a parallel-only grid")
        dt = _check_uniform(self.times)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (len(self.times), self.grid.shape[0]):
            raise ConfigError("source array shape does not match times/grid")
        scale = float(np.max(np.abs(coeffs))) or 1.0
        if np.max(np.abs(coeffs[:, 0])) > 1e-10 * scale:
            raise InvariantError("wave source must have zero parallel mean")
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_dt", dt)

    @property
    def dt(self) -> float:
        return self._dt


def _mode_divisor(grid: Grid) -> np.ndarray:
    """1/(i 2 pi k) with the k = 0 slot neutralised (no mean content)."""
    k = grid.modes(0).astype(float)
    safe = np.where(k == 0.0, 1.0, 2j * np.pi * k)
    div = 1.0 / safe
    return np.where(k == 0.0, 0.0, div)


def duhamel_sqrt_eps_E(source: WaveSource, eps: float, E0: SpectralField,
                       eps_dtE0: SpectralField, rule: str = "filon") -> np.ndarray:
    """sqrt(eps) E_par(t) from the sine-kernel variation-of-constants
    formula, per parallel mode:

        F(sqrt(eps) E)(t,k) = int_0^t sin((t-s)/sqrt(eps)) F g(s,k)/(i 2 pi k) ds
                              + sqrt(eps) F E(0,k) cos(t/sqrt(eps))
                              + F(eps d_t E(0))(k) sin(t/sqrt(eps)).
    """
    omega = 1.0 / math.sqrt(eps)
    S, _ = oscillatory_convolutions(source.coeffs, source.dt, omega, rule=rule)
    div = _mode_divisor(source.grid)
    phase = source.times[:, None] * omega
    homog = (math.sqrt(eps) * E0.coeffs[None, :] * np.cos(phase)
             + eps_dtE0.coeffs[None, :] * np.sin(phase))
    return S * div[None, :] + homog


def duhamel_G(source: WaveSource, eps: float, E0: SpectralField,
              eps_dtE0: SpectralField, rule: str = "filon") -> np.ndarray:
    """G(t) = int_0^t E_par ds from the (1 - cos) kernel:

        F G(t,k) = int_0^t [1 - cos((t-s)/sqrt(eps))] F g(s,k)/(i 2 pi k) ds
                   + sqrt(eps) F E(0,k) sin(t/sqrt(eps))
                   - F(eps d_t E(0))(k) (cos(t/sqrt(eps)) - 1).
    """
    omega = 1.0 / math.sqrt(eps)
    _, C = oscillatory_convolutions(source.coeffs, source.dt, omega, rule=rule)
    plain = cumulative_integral(source.coeffs, source.dt)
    div = _mode_divisor(source.grid)
    phase = source.times[:, None] * omega
    homog = (math.sqrt(eps) * E0.coeffs[None, :] * np.sin(phase)
             - eps_dtE0.coeffs[None, :] * (np.cos(phase) - 1.0))
    return (plain - C) * div[None, :] + homog


@dataclass(frozen=True)
class Decomposition:
    """E_par = E1 + E2 on the valid sub-horizon, with W = int E1."""

    grid: Grid
    times: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    W: np.ndarray


def decompose(times, Epar, eps: float, W0: SpectralField) -> Decomposition:
    """Split off the slow part by a forward one-period sliding average,

        F E2(t,k) = (1/(2 pi sqrt(eps))) int_t^{t+2 pi sqrt(eps)} F E(s,k) ds,

    defined for t <= T - 2 pi sqrt(eps) (no extrapolation); E1 = E - E2 and
    W(t) = W(0) + int_0^t E1 ds with W(0) = eps * (-d_t E(0)) supplied by
    the caller (the zero-mean part of <rho v>_perp at t = 0).
    """
    times = np.asarray(times, dtype=float)
    dt = _check_uniform(times)
    Epar = np.asarray(Epar, dtype=complex)
    period = TWO_PI * math.sqrt(eps)
    span = times[-1] - times[0]
    if span < period:
        raise ConfigError(
            f"trajectory too short for one-period averaging: last admissible "
            f"t is {times[-1] - period!r}, below the first sample")
    m_float = period / dt
    j_full = int(math.floor(m_float + 1e-12))
    frac = m_float - j_full
    n_valid = int(np.searchsorted(times, times[-1] - period + 1e-12 * period,
                                  side="right"))
    n_valid = min(n_valid, len(times) - j_full - (1 if frac > 1e-12 else 0))
    if n_valid < 4:
        raise ConfigError("fewer than 4 admissible samples for decomposition")
    E2 = np.empty((n_valid, Epar.shape[1]), dtype=complex)
    for i in range(n_valid):
        window = Epar[i: i + j_full + 1]
        acc = dt * (np.sum(window, axis=0) - 0.5 * (window[0] + window[-1]))
        if frac > 1e-12:
            left = Epar[i + j_full]
            right = Epar[i + j_full + 1]
            end = left + frac * (right - left)
            acc = acc + frac * dt * 0.5 * (left + end)
        E2[i] = acc / period
    E1 = Epar[:n_valid] - E2
    W = W0.coeffs[None, :] + cumulative_integral(E1, dt)
    return Decomposition(grid=Grid.line(Epar.shape[1]), times=times[:n_valid],
                         E1=E1, E2=E2, W=W)


@dataclass(frozen=True)
class CorrectorSeries:
    """Demodulated corrector envelopes on the valid (centered) times."""

    grid: Grid
    times: np.ndarray
    Eplus: np.ndarray
    Eminus: np.ndarray


def extract_correctors(times, sqrt_eps_E1, eps: float,
                       window_periods: int = 4) -> CorrectorSeries:
    """Centered demodulation against exp(-+ i t/sqrt(eps)):

        E+(t) ~ mean over the window of exp(-i s/sqrt(eps)) sqrt(eps) E1(s)

    and conjugate phase for E-. The window must span an integer number
    (>= 2) of oscillation periods and align with the sampling.
    """
    if window_periods != int(window_periods) or int(window_periods) < 2:
        raise ConfigError("window must span an integer number >= 2 of periods")
    times = np.asarray(times, dtype=float)
    dt = _check_uniform(times)
    data = np.asarray(sqrt_eps_E1, dtype=complex)
    period = TWO_PI * math.sqrt(eps)
    width = window_periods * period
    m_w = int(round(width / dt))
    if abs(m_w * dt - width) > 1e-6 * width:
        raise ConfigError("demodulation window is not commensurate with sampling")
    if m_w % 2 != 0:
        raise ConfigError("demodulation window must cover an even sample count")
    if m_w + 1 > len(times):
        raise ConfigError("trajectory shorter than the demodulation window")
    omega = 1.0 / math.sqrt(eps)
    phase = np.exp(-1j * omega * times)[:, None]
    up = data * phase
    down = data * np.conj(phase)

    def windowed_mean(series):
        csum = np.concatenate([np.zeros((1,) + series.shape[1:], complex),
                               np.cumsum(series, axis=0)])
        total = csum[m_w + 1:] - csum[:-m_w - 1]
        ends = 0.5 * (series[m_w:] + series[:-m_w])
        return (total - ends) * dt / width

    half = m_w // 2
    return CorrectorSeries(grid=Grid.line(data.shape[1]),
                           times=times[half: len(times) - half],
                           Eplus=windowed_mean(up),
                           Eminus=windowed_mean(down))


def corrector_initial_data(sqrt_eps_E0: SpectralField,
                           mom_bar0: SpectralField) -> tuple[SpectralField, SpectralField]:
    """E+-(0) = (sqrt(eps) E_par(0) +- i (<rho v>_perp(0) - mean)) / 2."""
    c = np.array(mom_bar0.coeffs, copy=True)
    c[0] = 0.0
    plus = 0.5 * (sqrt_eps_E0.coeffs + 1j * c)
    minus = 0.5 * (sqrt_eps_E0.coeffs - 1j * c)
    grid = sqrt_eps_E0.grid
    return (SpectralField(grid, plus, real=False),
            SpectralField(grid, minus, real=False))


def advect_correctors(Eplus0: SpectralField, Eminus0: SpectralField,
                      ubar_times, ubar_coeffs) -> CorrectorSeries:
    """Transport both correctors by the mean parallel current:

        d_t E+- + ubar(t, x_par) d_par E+- = 0,

    RK4 in time on the sampling grid of ubar, spectral in space with the
    dealiased product; ubar at the half steps is cubic-interpolated.
    """
    times = np.asarray(ubar_times, dtype=float)
    dt = _check_uniform(times)
    grid = Eplus0.grid
    ubar_coeffs = np.asarray(ubar_coeffs, dtype=complex)
    if ubar_coeffs.shape != (len(times), grid.shape[0]):
        raise ConfigError("ubar series does not match the corrector time grid")
    ubar_at = {0.0: ubar_coeffs[:-1], 0.5: midpoints(ubar_coeffs),
               1.0: ubar_coeffs[1:]}
    out_p = np.empty_like(ubar_coeffs)
    out_m = np.empty_like(ubar_coeffs)
    out_p[0] = Eplus0.coeffs
    out_m[0] = Eminus0.coeffs

    for j in range(len(times) - 1):
        def f(y, c):
            u_vals = collocation_values(grid, ubar_at[c][j], False)
            return tuple(-product_coeffs(grid, u_vals, collocation_values(
                grid, derivative_coeffs(grid, e, 0), False), False) for e in y)

        out_p[j + 1], out_m[j + 1] = rk4_step(f, (out_p[j], out_m[j]), dt)
    return CorrectorSeries(grid=grid, times=times, Eplus=out_p, Eminus=out_m)


def oscillation_residual(times, sqrt_eps_Epar, Eplus, Eminus, eps: float) -> np.ndarray:
    """L2(x_par) norm of sqrt(eps) E_par - (E+ e^{it/sqrt(eps)} + E- e^{-it/sqrt(eps)})
    at each sample time."""
    times = np.asarray(times, dtype=float)
    omega = 1.0 / math.sqrt(eps)
    up = np.exp(1j * omega * times)[:, None]
    recon = Eplus * up + Eminus * np.conj(up)
    diff = np.asarray(sqrt_eps_Epar, dtype=complex) - recon
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=1))


def reconstruct_W(times, Eplus, Eminus, eps: float) -> np.ndarray:
    """(1/i)(E+ e^{it/sqrt(eps)} - E- e^{-it/sqrt(eps)}), the oscillatory
    part of the current that the correctors remove."""
    times = np.asarray(times, dtype=float)
    omega = 1.0 / math.sqrt(eps)
    up = np.exp(1j * omega * times)[:, None]
    return (Eplus * up - Eminus * np.conj(up)) / 1j


@dataclass(frozen=True)
class OscillationRecord:
    """Full oscillation analysis of one recorded trajectory: the parallel
    field, its slow/fast split with the filtered primitive, and the
    demodulated corrector envelopes (each on its own valid sub-horizon)."""

    eps: float
    grid: Grid
    times: np.ndarray
    Epar: np.ndarray
    decomposition: Decomposition
    correctors: CorrectorSeries
    residual: np.ndarray     # corrector-subtraction residual on corrector times


def analyze(times, Epar, eps: float, W0: SpectralField,
            window_periods: int = 4) -> OscillationRecord:
    """Run the whole pipeline: one-period averaging, demodulation of the
    fast part, and the subtraction residual."""
    times = np.asarray(times, dtype=float)
    Epar = np.asarray(Epar, dtype=complex)
    dec = decompose(times, Epar, eps, W0)
    sq = math.sqrt(eps)
    corr = extract_correctors(dec.times, sq * dec.E1, eps,
                              window_periods=window_periods)
    i0 = int(np.searchsorted(times, corr.times[0] - 1e-12))
    res = oscillation_residual(corr.times, sq * Epar[i0: i0 + len(corr.times)],
                               corr.Eplus, corr.Eminus, eps)
    return OscillationRecord(eps=eps, grid=Grid.line(Epar.shape[1]),
                             times=times, Epar=Epar, decomposition=dec,
                             correctors=corr, residual=res)


def corrector_rows(record: OscillationRecord):
    """Flat rows (t, k_par, Re E+, Im E+, residual) for CSV output."""
    kvec = record.grid.modes(0)
    corr = record.correctors
    for i, t in enumerate(corr.times):
        for j, k in enumerate(kvec):
            yield {
                "t": float(t),
                "k_par": int(k),
                "re_eplus": float(corr.Eplus[i, j].real),
                "im_eplus": float(corr.Eplus[i, j].imag),
                "residual": float(record.residual[i]),
            }
