"""Polar and log-radius resampling of spatial spectra, harmonic stacks and
ring energies.

Inputs are per-frame spatial spectra: complex ``(T, ky, kx)`` arrays on
signed bin grids ``freq_y`` x ``freq_x`` (possibly cropped).  The polar
grid lives on that spatial-frequency plane: radii are linear in
``(0, rho_max]`` with the zero radius excluded so the log-radius axis is
defined, angles uniform on ``[0, 2pi)``.  The DC bin is handled by the
Cartesian-domain losses only.

``make_stack`` takes one windowed DFT over theta and t of the polar
samples, as two products with DFT matrices whose rows are in shifted
order; the log-radial harmonics are one more product, of its m = 0 row
(the angle-averaged profile) with a matrix that averages, interpolates
onto log radii and transforms over log-radius, so the temporal transform
is computed once.  ``ring_energies`` returns the per-frame ring shares as
a plain ``(rings, T)`` array.  The polar lookup table, the ring masks and
``make_stack``'s tables (``_stack_tables``: the angular DFT matrix, the
tapered temporal DFT matrix, the radial matrix, ``xi_step`` and the three
signed grids) depend only on the grids or the stack's shape and the
config, so each is built once per distinct argument set, kept in a small
LRU cache and handed out read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import NUMERIC_EPS, ConfigError, SpectralConfig
from .spectral import shifted_dft, signed_bins, temporal_window

__all__ = ["PolarLUT", "HarmonicStack", "build_polar_lut", "polar_resample",
           "make_stack", "ring_energies", "max_safe_radius"]

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

    @property
    def n_rho(self) -> int:
        return len(self.rho)

    @property
    def n_theta(self) -> int:
        return len(self.theta)


def _grid_key(freq: np.ndarray) -> tuple:
    """Hashable form of a bin grid: the table builders read only its
    values, as float64, so equal values give equal tables."""
    return tuple(np.asarray(freq, dtype=np.float64).tolist())


def build_polar_lut(freq_y: np.ndarray, freq_x: np.ndarray, n_rho: int,
                    n_theta: int) -> PolarLUT:
    """Build the lookup table mapping ``(rho_k, theta_l)`` targets to four
    Cartesian neighbors with bilinear weights; the radii reach the largest
    circle that stays on the grids.

    The table depends only on the grids and the sizes, so it is built once
    per distinct argument set and shared; its arrays are read-only.
    """
    return _polar_lut(_grid_key(freq_y), _grid_key(freq_x), n_rho, n_theta)


@functools.lru_cache(maxsize=8)
def _polar_lut(key_y: tuple, key_x: tuple, n_rho: int,
               n_theta: int) -> PolarLUT:
    if n_rho < 2 or n_theta < 4:
        raise ConfigError("need n_rho >= 2 and n_theta >= 4")
    freq_y, freq_x = np.array(key_y), np.array(key_x)
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
    for a in (rho, theta, idx, wgt):
        a.setflags(write=False)
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
    # one (T, n_rho*n_theta) gather per corner, accumulated in corner order
    vals = flat[:, lut.indices[:, 0]] * lut.weights[:, 0]
    for k in range(1, 4):
        vals += flat[:, lut.indices[:, k]] * lut.weights[:, k]
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


@functools.lru_cache(maxsize=8)
def _stack_tables(n_rho: int, n_theta: int, nt: int, n_xi: int,
                  window_kind: str) -> tuple:
    """Shape-only tables of ``make_stack``, built once per key and
    read-only: the shifted angular DFT matrix; the transposed shifted
    temporal DFT matrix times the taper; the ``(n_xi, n_rho)`` radial
    matrix, ``1/n_theta`` times the shifted DFT over xi of the linear
    interpolation from the rho grid ``rho_max*(k+1)/n_rho`` to ``n_xi``
    log-spaced radii over the same range; ``xi_step``; the m, nu and
    omega_t grids."""
    rho = np.arange(1, n_rho + 1, dtype=np.float64)
    xi = np.linspace(np.log(rho[0]), np.log(rho[-1]), n_xi)
    pos = np.exp(xi) - 1.0                        # fractional index into prof
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, n_rho - 2)
    frac = pos - i0
    interp = np.zeros((n_xi, n_rho))
    rows = np.arange(n_xi)
    interp[rows, i0] = 1.0 - frac
    interp[rows, i0 + 1] = frac
    arrays = (shifted_dft(n_theta),
              (shifted_dft(nt) * temporal_window(nt, window_kind)).T,
              shifted_dft(n_xi) @ (interp / n_theta), signed_bins(n_theta),
              signed_bins(n_xi), signed_bins(nt))
    for a in arrays:
        a.setflags(write=False)
    return *arrays[:3], float(xi[1] - xi[0]), *arrays[3:]


def make_stack(polar: np.ndarray, cfg: SpectralConfig) -> HarmonicStack:
    """Angular and log-radial harmonic stacks from one windowed temporal DFT.

    ``ang[rho, m, omega_t]`` is the DFT of ``polar[rho, theta, t]`` over
    theta and (after the configured temporal taper) over t, both axes in
    shifted signed order: two matrix products with the cached DFT matrices.
    The angle-averaged profile is ``1/n_theta`` times the m = 0 row of
    ``ang``; it is interpolated from the linear radius grid onto
    ``logradius_bins`` log-spaced radii spanning the same range, and its
    DFT over log-radius gives ``rad[nu, omega_t]``, all three steps one
    cached matrix.  ``xi_step`` is the log-radius spacing (needed to
    convert the fitted line slope into a physical log-scale rate).  Every
    step is linear, so one temporal transform serves both stacks.
    """
    n_rho, n_theta, nt = polar.shape
    if n_theta < 4:
        raise ConfigError("need at least 4 angular samples")
    adft, tdft_t, radial, xi_step, ang_m, rad_nu, freq_t = _stack_tables(
        n_rho, n_theta, nt, cfg.logradius_bins, cfg.window_kind)
    ang = adft @ (polar.reshape(-1, nt) @ tdft_t).reshape(polar.shape)
    # m = 0 sits at position n_theta // 2 of the shifted rows
    rad = radial @ ang[:, n_theta // 2, :]
    return HarmonicStack(ang, ang_m, rad, rad_nu, freq_t, xi_step)


@functools.lru_cache(maxsize=8)
def _ring_masks(key_y: tuple, key_x: tuple, n_rings: int,
                sharpness: float) -> np.ndarray:
    """Soft annulus memberships on the grids ``key_y`` x ``key_x``, shape
    ``(n_rings, ky, kx)``, built once per grid and config (read-only).

    The rings split the largest radius whose full circle stays on the
    grids.  Logistic edges (slope ``sharpness`` per bin) telescope to a
    partition of unity on ``(0, rho_max]``; the innermost ring has no lower
    edge so DC is fully inside it, and weight rolls off to zero beyond the
    outer radius.
    """
    freq_y, freq_x = np.array(key_y), np.array(key_x)
    rho_max = max_safe_radius(freq_y, freq_x)
    if rho_max <= 0:
        raise ConfigError("spatial grid too small for ring analysis")
    radius = np.hypot(freq_y[:, None], freq_x[None, :])
    edges = rho_max * np.arange(n_rings + 1) / n_rings

    def sig(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))

    # mask_k = L_k - U_k with L_1 = 1, L_k = U_{k-1} = sig(s*(r - e_{k-1}))
    upper = [sig(sharpness * (radius - edges[k])) for k in range(1, n_rings + 1)]
    lower = [np.ones_like(radius)] + upper[:-1]
    masks = np.stack([lo - up for lo, up in zip(lower, upper)])
    masks.setflags(write=False)
    return masks


def ring_energies(energy: np.ndarray, freq_y: np.ndarray,
                  freq_x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Soft annular sums of per-frame spatial energy, normalized per frame.

    ``energy[t, y, x]`` is the nonnegative per-frame energy (``|frames|^2``)
    on the ``freq_y`` x ``freq_x`` grid.  The rings split the largest
    radius whose full circle stays on the grids.  Returns the ``(rings, T)``
    array whose entry ``[k, t]`` is ring ``k+1``'s share of frame ``t``'s
    energy: columns sum to 1 for frames with nonzero energy and to 0 for
    silent frames.  The temporal trend of these distributions is what the
    scaling statistics read.
    """
    if energy.shape[1:] != (len(freq_y), len(freq_x)):
        raise ConfigError(f"energy is {energy.shape[1:]}, grids are "
                          f"{(len(freq_y), len(freq_x))}")
    masks = _ring_masks(_grid_key(freq_y), _grid_key(freq_x), cfg.rings,
                        SOFT_RING_EDGE)
    sums = masks.reshape(cfg.rings, -1) @ energy.reshape(len(energy), -1).T
    totals = sums.sum(axis=0)
    return sums / (totals + NUMERIC_EPS)[None, :]
