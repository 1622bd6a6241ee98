"""Polar and log-radius resampling of spatial spectra, harmonic stacks and
ring energies.

Inputs are per-frame spatial spectra: complex ``(T, ky, kx)`` arrays on
signed bin grids ``freq_y`` x ``freq_x`` (possibly cropped).  The polar
grid lives on that spatial-frequency plane: radii are linear in
``(0, rho_max]`` with the zero radius excluded so the log-radius axis is
defined, angles uniform on ``[0, 2pi)``.  The DC bin is handled by the
Cartesian-domain losses only.

Every per-window array has time on axis 0, as the per-frame spectra and
the cube do: polar samples ``(T, rings, angles)``, harmonic stacks
``ang`` ``(omega_t, rings, m)`` and ``rad`` ``(omega_t, nu)``, ring
shares ``(T, rings)``.

``make_stack``'s temporal transform is ``spectral.temporal_dft``, the
table the pruned transform takes its kept rows from; the ring edges are
``core.logistic``.  The polar lookup table, the ring masks and
``make_stack``'s own tables depend only on the grids, the shapes and the
config (``core.table``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DegenerateInputError, SpectralConfig,
                   logistic, table)
from .spectral import shifted_dft, signed_bins, temporal_dft

__all__ = ["PolarLUT", "HarmonicStack", "build_polar_lut", "polar_resample",
           "make_stack", "ring_energies", "normalized_entropy",
           "max_safe_radius"]

# logistic slope (per bin) of the soft ring edges
SOFT_RING_EDGE = 20.0


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


@table
def build_polar_lut(freq_y: np.ndarray, freq_x: np.ndarray, n_rho: int,
                    n_theta: int) -> PolarLUT:
    """The lookup table mapping ``(rho_k, theta_l)`` targets to four
    Cartesian neighbors with bilinear weights; the radii reach the largest
    circle that stays on the grids."""
    if n_rho < 2 or n_theta < 4:
        raise ConfigError("need n_rho >= 2 and n_theta >= 4")
    h, w = len(freq_y), len(freq_x)
    rho_max = max_safe_radius(freq_y, freq_x)
    if rho_max <= 0:
        raise ConfigError("spatial grid too small for polar resampling")
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
    # corners (r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1)
    rr = r0[:, None] + np.array([0, 0, 1, 1])
    cc = c0[:, None] + np.array([0, 1, 0, 1])
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    idx = np.where(inside, rr * w + cc, 0)
    wgt = np.where(inside, np.column_stack([(1 - dr) * (1 - dc), (1 - dr) * dc,
                                            dr * (1 - dc), dr * dc]), 0.0)
    return PolarLUT(rho, theta, idx, wgt, (h, w))


def polar_resample(frames: np.ndarray, lut: PolarLUT) -> np.ndarray:
    """Interpolate per-frame spatial spectra ``frames[t, y, x]`` onto
    ``(rho, theta)``; returns an array of shape ``(T, n_rho, n_theta)``.

    ``frames`` must lie on the grids the LUT was built from.
    """
    if frames.shape[1:] != lut.spatial_shape:
        raise ConfigError(
            f"LUT built for {lut.spatial_shape}, spectrum is {frames.shape[1:]}")
    nt = frames.shape[0]
    flat = frames.reshape(nt, -1)
    # one (T, n_rho*n_theta) gather per corner, accumulated in corner order
    vals = flat[:, lut.indices[:, 0]] * lut.weights[:, 0]
    for k in range(1, 4):
        vals += flat[:, lut.indices[:, k]] * lut.weights[:, k]
    return vals.reshape(nt, len(lut.rho), len(lut.theta))


@dataclass(frozen=True)
class HarmonicStack:
    """Angular harmonics ``ang[omega_t, rho, m]`` and log-radial harmonics
    ``rad[omega_t, nu]``, both with signed centered index grids."""

    ang: np.ndarray
    ang_m: np.ndarray
    rad: np.ndarray
    rad_nu: np.ndarray
    freq_t: np.ndarray
    xi_step: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.ang)) and np.all(np.isfinite(self.rad))):
            raise DegenerateInputError(
                "harmonic stack contains non-finite entries")


@table
def _stack_tables(n_rho: int, n_theta: int, n_xi: int, nt: int) -> tuple:
    """Shape-only tables of ``make_stack``, stored transposed so that each
    right-multiplies rows of samples: the shifted angular DFT matrix; the
    ``(n_rho, n_xi)`` radial matrix, ``1/n_theta`` times the shifted DFT
    over xi of the linear interpolation from the rho grid
    ``rho_max*(k+1)/n_rho`` to ``n_xi`` log-spaced radii over the same
    range; ``xi_step``; the m, nu and temporal grids."""
    rho = np.arange(1, n_rho + 1, dtype=np.float64)
    xi = np.linspace(np.log(rho[0]), np.log(rho[-1]), n_xi)
    pos = np.exp(xi) - 1.0                        # fractional index into prof
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, n_rho - 2)
    frac = pos - i0
    interp = np.zeros((n_xi, n_rho))
    rows = np.arange(n_xi)
    interp[rows, i0] = 1.0 - frac
    interp[rows, i0 + 1] = frac
    return (shifted_dft(n_theta).T, (shifted_dft(n_xi) @ (interp / n_theta)).T,
            float(xi[1] - xi[0]), signed_bins(n_theta), signed_bins(n_xi),
            signed_bins(nt))


def make_stack(polar: np.ndarray, cfg: SpectralConfig) -> HarmonicStack:
    """Angular and log-radial harmonic stacks from one windowed temporal DFT.

    ``ang[omega_t, rho, m]`` is the DFT of ``polar[t, rho, theta]`` over t
    (``spectral.temporal_dft``, one product over the T rows) and over theta
    (one product over all ``T*n_rho`` rows), both in shifted signed order.
    ``rad[omega_t, nu]`` is the DFT over log-radius of the angle-averaged
    profile, ``1/n_theta`` times the m = 0 column of ``ang``, interpolated
    onto ``logradius_bins`` log-spaced radii over the same range: one cached
    matrix, so one temporal transform serves both stacks.  ``xi_step`` is
    the log-radius spacing, which converts the fitted line slope into a
    log-scale rate.
    """
    nt, n_rho, n_theta = polar.shape
    if n_theta < 4:
        raise ConfigError("need at least 4 angular samples")
    adft, radial, xi_step, ang_m, rad_nu, freq_t = _stack_tables(
        n_rho, n_theta, cfg.logradius_bins, nt)
    tdft = temporal_dft(nt, cfg.window_kind)
    ang = ((tdft @ polar.reshape(nt, -1)).reshape(-1, n_theta)
           @ adft).reshape(polar.shape)
    # m = 0 sits at position n_theta // 2 of the shifted columns
    rad = ang[:, :, n_theta // 2] @ radial
    return HarmonicStack(ang, ang_m, rad, rad_nu, freq_t, xi_step)


@table
def _ring_masks(freq_y: np.ndarray, freq_x: np.ndarray, n_rings: int,
                sharpness: float) -> np.ndarray:
    """Soft annulus memberships ``(n_rings, ky, kx)`` on the grids
    ``freq_y`` x ``freq_x``.  Logistic edges (slope ``sharpness`` per bin)
    telescope to a partition of unity on ``(0, rho_max]``; the innermost
    ring has no lower edge so DC is fully inside it, and weight rolls off
    to zero beyond the outer radius."""
    rho_max = max_safe_radius(freq_y, freq_x)
    if rho_max <= 0:
        raise ConfigError("spatial grid too small for ring analysis")
    radius = np.hypot(freq_y[:, None], freq_x[None, :])
    edges = rho_max * np.arange(n_rings + 1) / n_rings
    # mask_k = L_k - U_k, L_1 = 1, L_k = U_{k-1} = logistic(s*(r - e_{k-1}))
    upper = [logistic(sharpness * (radius - edges[k]))
             for k in range(1, n_rings + 1)]
    lower = [np.ones_like(radius)] + upper[:-1]
    return np.stack([lo - up for lo, up in zip(lower, upper)])


def ring_energies(energy: np.ndarray, freq_y: np.ndarray,
                  freq_x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Soft annular sums of per-frame spatial energy, normalized per frame.

    ``energy[t, y, x]`` is the nonnegative per-frame energy (``|frames|^2``)
    on the ``freq_y`` x ``freq_x`` grid.  The rings split the largest
    radius whose full circle stays on the grids.  Returns the ``(T, rings)``
    array whose entry ``[t, k]`` is ring ``k+1``'s share of frame ``t``'s
    energy: a row sums to 1 (divided by its frame's total where that is
    positive) or, for a silent frame, is zeros.  The temporal trend of
    these distributions is what the scaling statistics read.
    """
    if energy.shape[1:] != (len(freq_y), len(freq_x)):
        raise ConfigError(f"energy is {energy.shape[1:]}, grids are "
                          f"{(len(freq_y), len(freq_x))}")
    masks = _ring_masks(freq_y, freq_x, cfg.rings, SOFT_RING_EDGE)
    sums = energy.reshape(len(energy), -1) @ masks.reshape(cfg.rings, -1).T
    totals = sums.sum(axis=1, keepdims=True)
    return sums / np.where(totals > 0, totals, 1.0)


def normalized_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of the distributions ``p`` along the last axis over
    the log of its length: 0 with every share on one ring, 1 for a uniform
    row; ``0 log 0`` counts as 0, so a silent row reads 0."""
    logs = np.log(np.where(p > 0, p, 1.0))
    return -(p * logs).sum(axis=-1) / np.log(p.shape[-1])
