"""Windowed 3D DFT, low-pass cube truncation and the retained-energy model.

Transform layout: per-frame 2D spatial DFT, then a temporal DFT of the
window-weighted frame spectra.  All axes are stored in shifted order with
signed integer bin grids centered at zero.  The forward transform is
unnormalized, so Parseval reads ``sum |X|^2 == N * sum |x|^2`` with
``N = T*H*W`` (rect window).

``cropped_transform`` is the pipeline's transform: a pruned pass (Markel
1971; Sorensen & Burrus 1993) that forms only the kept low-pass bins.  It
takes ``rfft`` along x and gathers the kept columns, the negative ones by
Hermitian conjugation; FFTs along y only those columns and gathers the kept
rows; applies the origin-centring phase ``exp(2 pi i k (n//2) / n)`` per
bin instead of rolling the data; and runs the windowed temporal FFT on the
cropped frames only.  A kept bin's DFT index ``k`` is read off its shifted
position (``position - n//2``), not off its ``signed_bins`` label, which
is wrong for many ``n``; the returned grids are still the labels, exactly
as ``crop_to_cube`` produces them.  ``cube_retention`` takes the total
energy from the time domain by Parseval,
``T*H*W * sum_t h_t^2 * sum_{y,x} x_t^2``, so the full spectrum is never
formed.  ``spatial_transform``, ``spectral_transform`` and ``crop_to_cube``
remain as the full-spectrum reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DegenerateInputError, SpectralConfig, VideoWindow

__all__ = [
    "Spectrum3D",
    "EnergyGrid",
    "EtaParams",
    "temporal_window",
    "signed_bins",
    "keep_count",
    "keep_mask_1d",
    "spatial_transform",
    "spectral_transform",
    "crop_to_cube",
    "cropped_transform",
    "eta_retention",
    "cube_retention",
    "measured_retention",
]


def temporal_window(frames_t: int, kind: str) -> np.ndarray:
    """Temporal taper h[t]; Hann uses the symmetric T-1 denominator."""
    if kind == "rect" or frames_t == 1:
        return np.ones(frames_t)
    if kind == "hann":
        t = np.arange(frames_t)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / (frames_t - 1)))
    raise ConfigError(f"unknown window kind {kind!r}")


def signed_bins(n: int) -> np.ndarray:
    """Signed integer frequency bins in shifted order, zero at the center."""
    return np.fft.fftshift(np.fft.fftfreq(n) * n).astype(np.int64)


@dataclass(frozen=True)
class Spectrum3D:
    """Complex DFT coefficients indexed ``(axis0, omega_y, omega_x)``.

    ``axis0`` is the temporal-frequency axis for the full transform and the
    frame index for per-frame spatial spectra; ``freq_t`` is the signed bin
    grid in the former case and plain frame indices in the latter
    (``temporal_axis_is_time`` tells them apart).
    """

    coeffs: np.ndarray
    freq_t: np.ndarray
    freq_y: np.ndarray
    freq_x: np.ndarray
    temporal_axis_is_time: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 3:
            raise ConfigError("spectrum must be 3D")
        if (len(self.freq_t), len(self.freq_y), len(self.freq_x)) != c.shape:
            raise ConfigError("frequency grids do not match coefficient shape")

    @property
    def shape(self):
        return self.coeffs.shape

    def energy(self) -> "EnergyGrid":
        return EnergyGrid(np.abs(self.coeffs) ** 2, self.freq_t, self.freq_y,
                          self.freq_x, self.temporal_axis_is_time)


@dataclass(frozen=True)
class EnergyGrid:
    """Nonnegative ``|coeff|^2`` values on the same grid as a Spectrum3D."""

    energy: np.ndarray
    freq_t: np.ndarray
    freq_y: np.ndarray
    freq_x: np.ndarray
    temporal_axis_is_time: bool = False

    def __post_init__(self):
        e = np.asarray(self.energy)
        if np.any(e < 0) or not np.all(np.isfinite(e)):
            raise ConfigError("energies must be finite and nonnegative")


def spatial_transform(v: VideoWindow) -> Spectrum3D:
    """Per-frame 2D spatial DFT, shifted, frame index kept on axis 0.

    The spatial phase origin is the frame center ``(H//2, W//2)``: in-plane
    rotation and scaling act about the image center, and only with a
    centered origin do they rotate/dilate the complex spectrum without an
    extra position-dependent phase.  Translation fits are unaffected (the
    recentering is a fixed per-bin phase).
    """
    centered = np.fft.ifftshift(v.data, axes=(1, 2))
    spec = np.fft.fftshift(np.fft.fft2(centered, axes=(1, 2)), axes=(1, 2))
    return Spectrum3D(spec, np.arange(v.frames_t),
                      signed_bins(v.height), signed_bins(v.width),
                      temporal_axis_is_time=True)


def spectral_transform(v: VideoWindow, cfg: SpectralConfig) -> Spectrum3D:
    """Full spatiotemporal transform of a (mean-shifted) window.

    T == 1 degenerates to the identity temporal transform; that is not an
    error, the spectrum simply has a single temporal bin.
    """
    frames = spatial_transform(v)
    h = temporal_window(v.frames_t, cfg.window_kind)
    weighted = frames.coeffs * h[:, None, None]
    spec = np.fft.fftshift(np.fft.fft(weighted, axis=0), axes=0)
    return Spectrum3D(spec, signed_bins(v.frames_t), frames.freq_y, frames.freq_x)


def _kept_dft_index(n: int, ratio: float) -> np.ndarray:
    """True DFT index of each kept bin, read off its shifted position.

    Position ``p`` of a shifted axis holds DFT index ``p - n//2``.  The
    ``signed_bins`` label is not used here: it is wrong for many ``n``.
    """
    return np.flatnonzero(keep_mask_1d(n, ratio)) - n // 2


def _centring_phase(k: np.ndarray, n: int) -> np.ndarray:
    """Per-bin phase that moves the spatial origin to ``n//2``; it equals
    what ``ifftshift`` before the DFT does to bin ``k``."""
    return np.exp(2j * np.pi * k * (n // 2) / n)


def cropped_transform(v: VideoWindow,
                      cfg: SpectralConfig) -> tuple[Spectrum3D, Spectrum3D]:
    """Cropped per-frame spectrum and cropped 3D cube from one pruned pass
    (described in the module docstring).

    Equal (to rounding) to ``crop_to_cube(spatial_transform(v))`` and
    ``crop_to_cube(spectral_transform(v, cfg))`` at ``cfg.lowpass_ratio``,
    with the same bin grids.
    """
    ratio = cfg.lowpass_ratio
    t_n, h, w = v.data.shape
    kt = _kept_dft_index(t_n, ratio)
    ky = _kept_dft_index(h, ratio)
    kx = _kept_dft_index(w, ratio)

    # kx is ascending, so the negative kept bins are a leading block
    cols = np.fft.rfft(v.data, axis=2)[:, :, np.abs(kx)]
    neg = cols[:, :, :np.count_nonzero(kx < 0)]
    np.conjugate(neg, out=neg)
    rows = np.fft.fft(cols, axis=1)[:, ky % h, :]
    frames = rows * (_centring_phase(ky, h)[:, None]
                     * _centring_phase(kx, w)[None, :])

    taper = temporal_window(t_n, cfg.window_kind)
    cube = np.fft.fft(frames * taper[:, None, None], axis=0)[kt % t_n]

    fy = signed_bins(h)[keep_mask_1d(h, ratio)]
    fx = signed_bins(w)[keep_mask_1d(w, ratio)]
    ft = signed_bins(t_n)[keep_mask_1d(t_n, ratio)]
    return (Spectrum3D(frames, np.arange(t_n), fy, fx,
                       temporal_axis_is_time=True),
            Spectrum3D(cube, ft, fy, fx))


def keep_count(n: int, ratio: float) -> int:
    """Bins retained along one dimension: floor(ratio*(n-1)) + 1, min 2."""
    if not (0.0 < ratio <= 1.0):
        raise ConfigError("lowpass ratio must be in (0, 1]")
    return min(n, max(2, int(math.floor(ratio * (n - 1))) + 1))


def keep_mask_1d(n: int, ratio: float) -> np.ndarray:
    """Boolean keep-mask over the shifted bin grid of one dimension.

    Bins are admitted in the order 0, +1, -1, +2, -2, ... until the
    per-dimension count is reached, so the kept set is a centered window
    (one extra positive bin when the count is even).
    """
    idx = signed_bins(n)
    order = np.lexsort((idx < 0, np.abs(idx)))
    mask = np.zeros(n, dtype=bool)
    mask[order[:keep_count(n, ratio)]] = True
    return mask


def crop_to_cube(s: Spectrum3D, ratio: float) -> Spectrum3D:
    """Keep only the coefficients inside the centered low-frequency cube.

    Signed bin values of the retained coefficients are preserved, so sample
    coordinates are unchanged; only the array gets smaller.  The frame axis
    of per-frame spectra is never cropped.
    """
    if s.temporal_axis_is_time:
        mt = np.ones(len(s.freq_t), dtype=bool)
    else:
        mt = keep_mask_1d(len(s.freq_t), ratio)
    my = keep_mask_1d(len(s.freq_y), ratio)
    mx = keep_mask_1d(len(s.freq_x), ratio)
    coeffs = s.coeffs[np.ix_(mt, my, mx)]
    return Spectrum3D(coeffs, s.freq_t[mt], s.freq_y[my], s.freq_x[mx],
                      s.temporal_axis_is_time)


@dataclass(frozen=True)
class EtaParams:
    """Radial power-law model of video spectra on the dimensionless grid."""

    kappa: float
    max_radius: float = math.sqrt(3.0)
    min_radius: float = 1e-3

    def __post_init__(self):
        if self.kappa <= 0:
            raise ConfigError("spectral exponent must be positive")
        if not (0.0 < self.min_radius < self.max_radius):
            raise ConfigError("need 0 < min_radius < max_radius")

    @classmethod
    def for_grid(cls, frames_t: int, height: int, width: int,
                 kappa: float = 1.8) -> "EtaParams":
        eps = min(1.0 / (frames_t - 1), 1.0 / (height - 1), 1.0 / (width - 1))
        return cls(kappa=kappa, min_radius=eps)


def _eta_ball(ratio: float, p: EtaParams) -> float:
    """Energy fraction of the power-law model inside the ball of radius
    ratio * max_radius, with the logarithmic branch at kappa = 3/2."""
    if ratio >= 1.0:
        return 1.0
    r_lo, r_hi = p.min_radius, p.max_radius
    cut = max(ratio * r_hi, r_lo)
    expo = 3.0 - 2.0 * p.kappa
    if abs(expo) < 1e-12:
        return math.log(cut / r_lo) / math.log(r_hi / r_lo)
    return (cut ** expo - r_lo ** expo) / (r_hi ** expo - r_lo ** expo)


def eta_retention(ratio: float, p: EtaParams) -> dict:
    """Model-predicted retained-energy fractions for the low-pass cube.

    Returns the closed-form ball fraction at the cube's inscribed radius and
    the geometric two-sided bounds for the cube itself
    (``eta_ball(r) <= eta_cube(r) <= eta_ball(min(1, sqrt(3) r))``).
    """
    if not (0.0 < ratio <= 1.0):
        raise ConfigError("ratio must be in (0, 1]")
    lo = _eta_ball(ratio, p)
    hi = _eta_ball(min(1.0, math.sqrt(3.0) * ratio), p)
    return {"eta_ball": lo, "eta_cube_lo": lo, "eta_cube_hi": hi}


def cube_retention(v: VideoWindow, cfg: SpectralConfig) -> float:
    """``measured_retention(spectral_transform(v, cfg), cfg.lowpass_ratio)``
    without the full spectrum.

    The inside energy comes from the pruned cube; the total comes from the
    time domain by Parseval, ``T*H*W * sum_t h_t^2 * sum_{y,x} x_t^2``.
    """
    _, cube = cropped_transform(v, cfg)
    h = temporal_window(v.frames_t, cfg.window_kind)
    frame_sq = np.einsum("tyx,tyx->t", v.data, v.data)
    total = v.data.size * float(h ** 2 @ frame_sq)
    if total <= 0.0:
        raise DegenerateInputError("zero total energy; retention undefined")
    inside = float(np.vdot(cube.coeffs, cube.coeffs).real)
    return inside / total


def measured_retention(s: Spectrum3D, ratio: float) -> float:
    """Fraction of spectral energy inside the low-pass cube."""
    e = np.abs(s.coeffs) ** 2
    total = e.sum()
    if total <= 0.0:
        raise DegenerateInputError("zero total energy; retention undefined")
    mt = keep_mask_1d(len(s.freq_t), ratio)
    my = keep_mask_1d(len(s.freq_y), ratio)
    mx = keep_mask_1d(len(s.freq_x), ratio)
    inside = e[np.ix_(mt, my, mx)].sum()
    return float(inside / total)
