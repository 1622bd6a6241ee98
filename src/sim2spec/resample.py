"""Polar and log-radius resampling of spatial spectra, harmonic stacks and
ring energies.

Inputs are per-frame spatial spectra: complex ``(T, ky, kx)`` arrays on
signed bin grids ``freq_y`` x ``freq_x`` (possibly cropped).  The polar
grid lives on that spatial-frequency plane: radii are linear in
``(0, rho_max]`` with the zero radius excluded so the log-radius axis is
defined, angles uniform on ``[0, 2pi)``.  The DC bin is handled by the
Cartesian-domain losses only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SpectralConfig
from .spectral import signed_bins, temporal_window

__all__ = ["PolarLUT", "HarmonicStack", "RingEnergies", "build_polar_lut",
           "polar_resample", "angular_spectrum", "logradial_spectrum",
           "ring_energies", "max_safe_radius"]


def max_safe_radius(freq_y: np.ndarray, freq_x: np.ndarray) -> float:
    """Largest radius whose full circle stays on the given signed grids."""
    return float(min(freq_y.max(), -freq_y.min(), freq_x.max(), -freq_x.min()))


@dataclass(frozen=True)
class PolarLUT:
    """Precomputed bilinear gather for polar resampling.

    ``indices`` has shape ``(rings*angles, 4)`` of flat Cartesian bins,
    ``weights`` matches and sums to 1 per target (a partition of unity);
    out-of-grid corners carry zero weight.
    """

    rho: np.ndarray
    theta: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    spatial_shape: tuple

    @property
    def n_rho(self) -> int:
        return len(self.rho)

    @property
    def n_theta(self) -> int:
        return len(self.theta)


def build_polar_lut(freq_y: np.ndarray, freq_x: np.ndarray, n_rho: int,
                    n_theta: int, rho_max: float | None = None) -> PolarLUT:
    """Build the lookup table mapping ``(rho_k, theta_l)`` targets to four
    Cartesian neighbors with bilinear weights."""
    if n_rho < 2 or n_theta < 4:
        raise ConfigError("need n_rho >= 2 and n_theta >= 4")
    h, w = len(freq_y), len(freq_x)
    safe = max_safe_radius(freq_y, freq_x)
    if rho_max is None:
        rho_max = safe
    if rho_max <= 0:
        raise ConfigError("spatial grid too small for polar resampling")
    if rho_max > safe + 1e-9:
        raise ConfigError(f"rho_max {rho_max} exceeds grid half-extent {safe}")
    rho = rho_max * np.arange(1, n_rho + 1) / n_rho
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta

    wx = rho[:, None] * np.cos(theta)[None, :]
    wy = rho[:, None] * np.sin(theta)[None, :]
    # signed grids are contiguous integers: position = value - min
    col = (wx - freq_x[0]).ravel()
    row = (wy - freq_y[0]).ravel()
    c0 = np.floor(col).astype(np.int64)
    r0 = np.floor(row).astype(np.int64)
    dc = col - c0
    dr = row - r0
    idx = np.empty((col.size, 4), dtype=np.int64)
    wgt = np.empty((col.size, 4))
    k = 0
    for orow, wr in ((0, 1 - dr), (1, dr)):
        for ocol, wc in ((0, 1 - dc), (1, dc)):
            rr = r0 + orow
            cc = c0 + ocol
            inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            idx[:, k] = np.where(inside, rr * w + cc, 0)
            wgt[:, k] = np.where(inside, wr * wc, 0.0)
            k += 1
    return PolarLUT(rho, theta, idx, wgt, (h, w))


def polar_resample(frames: np.ndarray, lut: PolarLUT) -> np.ndarray:
    """Interpolate per-frame spatial spectra ``frames[t, y, x]`` onto
    ``(rho, theta)``; returns an array of shape ``(n_rho, n_theta, T)``.

    ``frames`` must lie on the grids the LUT was built from.
    """
    if frames.shape[1:] != lut.spatial_shape:
        raise ConfigError(
            f"LUT built for {lut.spatial_shape}, spectrum is {frames.shape[1:]}")
    nt = frames.shape[0]
    flat = frames.reshape(nt, -1)
    gathered = flat[:, lut.indices]            # (T, n_rho*n_theta, 4)
    vals = np.einsum("tpk,pk->tp", gathered, lut.weights)
    return vals.T.reshape(lut.n_rho, lut.n_theta, nt).copy()


@dataclass(frozen=True)
class HarmonicStack:
    """Angular harmonics ``ang[rho, m, omega_t]`` and log-radial harmonics
    ``rad[nu, omega_t]``, both with signed centered index grids."""

    ang: np.ndarray
    ang_m: np.ndarray
    rad: np.ndarray
    rad_nu: np.ndarray
    freq_t: np.ndarray
    xi_step: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.ang)) and np.all(np.isfinite(self.rad))):
            raise ConfigError("harmonic stack contains non-finite entries")


def _windowed_time_dft(x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """DFT over the last axis after applying the configured temporal taper."""
    nt = x.shape[-1]
    h = temporal_window(nt, cfg.window_kind)
    return np.fft.fftshift(np.fft.fft(x * h, axis=-1), axes=-1)


def angular_spectrum(polar: np.ndarray, cfg: SpectralConfig) -> tuple:
    """DFT over theta, then windowed DFT over t.

    Returns ``(coeffs[rho, m, omega_t], m_grid, omega_t_grid)`` with both
    harmonic and temporal axes in shifted signed order.
    """
    n_rho, n_theta, nt = polar.shape
    if n_theta < 4:
        raise ConfigError("need at least 4 angular samples")
    cm = np.fft.fftshift(np.fft.fft(polar, axis=1), axes=1)
    out = _windowed_time_dft(cm, cfg)
    return out, signed_bins(n_theta), signed_bins(nt)


def logradial_spectrum(polar: np.ndarray, cfg: SpectralConfig) -> tuple:
    """Angle-averaged profile resampled onto a log-radius grid, then DFT
    over log-radius and (windowed) over t.

    Returns ``(coeffs[nu, omega_t], nu_grid, omega_t_grid, xi_step)`` where
    ``xi_step`` is the log-radius spacing (needed to convert the fitted
    line slope into a physical log-scale rate).
    """
    n_rho, n_theta, nt = polar.shape
    n_xi = cfg.logradius_bins
    if n_xi < 4:
        raise ConfigError("need at least 4 log-radius bins")
    prof = polar.mean(axis=1)                      # (n_rho, T), isotropic part
    # the rho grid is linear rho_k = rho_max*(k+1)/n_rho; interpolate in rho
    # at log-spaced targets spanning the same range
    rho = np.arange(1, n_rho + 1, dtype=np.float64)
    xi = np.linspace(np.log(rho[0]), np.log(rho[-1]), n_xi)
    targets = np.exp(xi)
    pos = targets - 1.0                            # fractional index into prof
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, n_rho - 2)
    frac = pos - i0
    resampled = (prof[i0] * (1 - frac)[:, None]
                 + prof[i0 + 1] * frac[:, None])   # (n_xi, T)
    dnu = np.fft.fftshift(np.fft.fft(resampled, axis=0), axes=0)
    out = _windowed_time_dft(dnu, cfg)
    xi_step = float(xi[1] - xi[0])
    return out, signed_bins(n_xi), signed_bins(nt), xi_step


def make_stack(polar: np.ndarray, cfg: SpectralConfig) -> HarmonicStack:
    ang, m_grid, wt_grid = angular_spectrum(polar, cfg)
    rad, nu_grid, _, xi_step = logradial_spectrum(polar, cfg)
    return HarmonicStack(ang, m_grid, rad, nu_grid, wt_grid, xi_step)


@dataclass(frozen=True)
class RingEnergies:
    """Per-frame energy distribution over concentric soft rings.

    ``values[k, t]`` is ring ``k+1``'s share of frame ``t``'s spatial
    energy; rows sum to 1 for frames with nonzero energy and to 0 for
    silent frames.
    """

    values: np.ndarray

    @property
    def n_rings(self) -> int:
        return self.values.shape[0]

    @property
    def frames_t(self) -> int:
        return self.values.shape[1]


def _ring_masks(radius: np.ndarray, n_rings: int, rho_max: float,
                sharpness: float) -> np.ndarray:
    """Soft annulus memberships, shape ``(n_rings, *radius.shape)``.

    Logistic edges (slope ``sharpness`` per bin) telescope to a partition of
    unity on ``(0, rho_max]``; the innermost ring has no lower edge so DC is
    fully inside it, and weight rolls off to zero beyond the outer radius.
    """
    edges = rho_max * np.arange(n_rings + 1) / n_rings

    def sig(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))

    # mask_k = L_k - U_k with L_1 = 1, L_k = U_{k-1} = sig(s*(r - e_{k-1}))
    upper = [sig(sharpness * (radius - edges[k])) for k in range(1, n_rings + 1)]
    lower = [np.ones_like(radius)] + upper[:-1]
    return np.stack([lo - up for lo, up in zip(lower, upper)])


def ring_energies(energy: np.ndarray, freq_y: np.ndarray,
                  freq_x: np.ndarray, cfg: SpectralConfig,
                  rho_max: float | None = None) -> RingEnergies:
    """Soft annular sums of per-frame spatial energy, normalized per frame.

    ``energy[t, y, x]`` is the nonnegative per-frame energy (``|frames|^2``)
    on the ``freq_y`` x ``freq_x`` grid; the temporal trend of these
    distributions is what the scaling statistics read.
    """
    if cfg.rings < 2:
        raise ConfigError("need at least 2 rings")
    if energy.shape[1:] != (len(freq_y), len(freq_x)):
        raise ConfigError(f"energy is {energy.shape[1:]}, grids are "
                          f"{(len(freq_y), len(freq_x))}")
    if rho_max is None:
        rho_max = max_safe_radius(freq_y, freq_x)
    if rho_max <= 0:
        raise ConfigError("spatial grid too small for ring analysis")
    radius = np.hypot(freq_y[:, None], freq_x[None, :])
    masks = _ring_masks(radius, cfg.rings, rho_max, cfg.soft_ring_edge)
    sums = np.einsum("kyx,tyx->kt", masks, energy)
    totals = sums.sum(axis=0)
    values = sums / (totals + cfg.numeric_eps)[None, :]
    return RingEnergies(values)
