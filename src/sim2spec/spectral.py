"""Windowed 3D DFT, low-pass cube truncation and the retained-energy model.

Transform layout: per-frame 2D spatial DFT, then a temporal DFT of the
window-weighted frame spectra.  All frequency axes are stored in shifted
order with signed integer bin grids centered at zero.  Per-frame spatial
spectra are plain complex ``(T, ky, kx)`` arrays indexed by frame; a
``Spectrum3D`` always has a temporal-frequency axis 0, and frames cropped
with it share its ``freq_y``/``freq_x`` grids.  The forward transform is
unnormalized, so Parseval reads ``sum |X|^2 == N * sum |x|^2`` with
``N = T*H*W`` (rect window).

``cropped_transform`` is the pipeline's transform: a pruned pass (Markel
1971; Sorensen & Burrus 1993) that forms only the kept low-pass bins, from
the frames as a ``core.FrameSource`` yields them, in chunks that keep the
x-transformed chunk within ``core.CHUNK_BYTES`` (one frame at least), so
a window read from a file is never held whole.  Per chunk it takes
``rfft`` along x, keeps the columns ``0..max|kx|`` and FFTs along y only
those; subtracts an optional constant offset from each frame's DC bin
(exact: a constant only moves that bin), so the caller's 1/2 mean shift
needs no copy of the data; gathers every kept bin, the negative kept
columns off the nonnegative ones by Hermitian symmetry, ``X[ky, -j] =
conj(X[-ky, j])``; and applies the origin-centring phase per bin instead
of rolling the data.  The temporal DFT is one matrix product with the kept
rows of ``temporal_dft``, the one windowed temporal DFT table, which
``resample.make_stack`` applies whole.  These tables depend only on the
shapes and the config, so each is built once per key in a small LRU cache,
read-only.  ``spatial_transform``, ``spectral_transform``, ``crop_to_cube``
and ``measured_retention`` remain as the full-spectrum reference, outside
``__all__``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DegenerateInputError, FrameSource,
                   SpectralConfig, VideoWindow)

__all__ = [
    "Spectrum3D",
    "EtaParams",
    "temporal_window",
    "signed_bins",
    "keep_count",
    "keep_mask_1d",
    "cropped_transform",
    "eta_retention",
    "cube_retention",
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
    """Complex DFT coefficients indexed ``(omega_t, omega_y, omega_x)``,
    with the signed bin grid of each axis."""

    coeffs: np.ndarray
    freq_t: np.ndarray
    freq_y: np.ndarray
    freq_x: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 3:
            raise ConfigError("spectrum must be 3D")
        if (len(self.freq_t), len(self.freq_y), len(self.freq_x)) != c.shape:
            raise ConfigError("frequency grids do not match coefficient shape")

    @property
    def shape(self):
        return self.coeffs.shape


def spatial_transform(v: VideoWindow) -> np.ndarray:
    """Per-frame 2D spatial DFT, shifted, as a complex ``(T, H, W)`` array
    on the ``signed_bins(H)`` x ``signed_bins(W)`` grid.

    The spatial phase origin is the frame center ``(H//2, W//2)``: in-plane
    rotation and scaling act about the image center, and only with a
    centered origin do they rotate/dilate the complex spectrum without an
    extra position-dependent phase.  Translation fits are unaffected (the
    recentering is a fixed per-bin phase).
    """
    centered = np.fft.ifftshift(v.data, axes=(1, 2))
    return np.fft.fftshift(np.fft.fft2(centered, axes=(1, 2)), axes=(1, 2))


def spectral_transform(v: VideoWindow, cfg: SpectralConfig) -> Spectrum3D:
    """Full spatiotemporal transform of a (mean-shifted) window.

    T == 1 degenerates to the identity temporal transform; that is not an
    error, the spectrum simply has a single temporal bin.
    """
    h = temporal_window(v.frames_t, cfg.window_kind)
    weighted = spatial_transform(v) * h[:, None, None]
    spec = np.fft.fftshift(np.fft.fft(weighted, axis=0), axes=0)
    return Spectrum3D(spec, signed_bins(v.frames_t), signed_bins(v.height),
                      signed_bins(v.width))


def shifted_dft(n: int) -> np.ndarray:
    """The ``(n, n)`` DFT matrix with its rows in fftshift order: row ``p``
    is DFT index ``k = p - n//2``, entry ``exp(-2 pi i (k j mod n) / n)``
    (the product reduced mod n keeps every angle in ``[0, 2 pi)``)."""
    k = np.arange(n) - n // 2
    return np.exp(-2j * np.pi * (np.outer(k, np.arange(n)) % n) / n)


@functools.lru_cache(maxsize=8)
def temporal_dft(frames_t: int, window_kind: str) -> np.ndarray:
    """The ``(T, T)`` windowed temporal DFT table, ``shifted_dft(T)`` times
    the taper (rows in fftshift order), built once per key and read-only."""
    table = shifted_dft(frames_t) * temporal_window(frames_t, window_kind)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _transform_tables(t_n: int, h: int, w: int, ratio: float,
                      window_kind: str) -> tuple:
    """Shape-only tables of ``cropped_transform``, built once per key and
    read-only: the cube's grids (``signed_bins`` labels); the gather from
    the Hermitian half, its width ``max|kx| + 1``, the flat index of each
    kept bin in a frame's half spectrum (row ``ky % H`` at column ``kx``
    for ``kx >= 0``, row ``-ky % H`` at column ``-kx`` for ``kx < 0``) and
    the mask of the bins to conjugate (``kx < 0``); each kept bin's
    centring phase ``exp(2 pi i k (n//2) / n)``, what ``ifftshift`` before
    the DFT does; the ``(K_t, T)`` temporal table, the kept rows of
    ``temporal_dft``.  A kept bin's DFT index ``k`` is its shifted position
    minus ``n//2``, not its label, which is wrong for many ``n``."""
    sizes = (t_n, h, w)
    masks = [keep_mask_1d(n, ratio) for n in sizes]
    ky, kx = (np.flatnonzero(m) - n // 2 for m, n in zip(masks[1:], (h, w)))
    grids = tuple(signed_bins(n)[m] for m, n in zip(masks, sizes))
    neg = kx < 0
    n_half = int(np.abs(kx).max()) + 1
    rows = np.where(neg, -ky[:, None] % h, ky[:, None] % h)
    conj = np.broadcast_to(neg, rows.shape)
    gather = (n_half, rows * n_half + np.abs(kx), conj)
    phase = (np.exp(2j * np.pi * ky * (h // 2) / h)[:, None]
             * np.exp(2j * np.pi * kx * (w // 2) / w)[None, :])
    tdft = temporal_dft(t_n, window_kind)[masks[0]]
    for a in (*grids, *gather[1:], phase, tdft):
        a.setflags(write=False)
    return grids, gather, phase, tdft


def cropped_transform(v, cfg: SpectralConfig, offset: float = 0.0
                      ) -> tuple[np.ndarray, Spectrum3D]:
    """Cropped per-frame spectra ``frames`` (a complex ``(T, ky, kx)``
    array) and the cropped 3D cube of the window ``w = x - offset`` of the
    ``VideoWindow`` or ``FrameSource`` ``v``, from one pruned pass over
    its chunks (described in the module docstring).

    ``offset`` comes off each frame's spatial DC bin as ``offset*H*W``, so
    the data is never copied.  The cube equals (to rounding)
    ``crop_to_cube(spectral_transform(w, cfg))`` at ``cfg.lowpass_ratio``,
    with the same bin grids; ``frames`` equals ``spatial_transform(w)``
    cropped by ``keep_mask_1d`` along y and x.
    """
    src = FrameSource.of(v)
    t_n, h, w = src.shape
    grids, (n_half, index, conj), phase, tdft = _transform_tables(
        t_n, h, w, cfg.lowpass_ratio, cfg.window_kind)
    frames = np.empty((t_n, *index.shape), dtype=np.complex128)
    t0 = 0
    for chunk in src.chunks():
        out = frames[t0:t0 + len(chunk)]
        t0 += len(chunk)
        half = np.fft.fft(np.fft.rfft(chunk, axis=2)[:, :, :n_half], axis=1)
        half[:, 0, 0] -= offset * h * w
        # every index is in range; "clip" lets take write into out unbuffered
        np.take(half.reshape(len(half), -1), index, axis=1, out=out,
                mode="clip")
        np.conjugate(out, out=out, where=conj)
        out *= phase
    cube = (tdft @ frames.reshape(t_n, -1)).reshape(len(tdft), *index.shape)
    return frames, Spectrum3D(cube, *grids)


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
    coordinates are unchanged; only the array gets smaller.
    """
    grids = (s.freq_t, s.freq_y, s.freq_x)
    masks = [keep_mask_1d(len(g), ratio) for g in grids]
    return Spectrum3D(s.coeffs[np.ix_(*masks)],
                      *(g[m] for g, m in zip(grids, masks)))


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
        if min(frames_t, height, width) < 2:
            raise ConfigError("need at least 2 samples per axis")
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


def cube_retention(v, cfg: SpectralConfig, offset: float = 0.0) -> float:
    """``measured_retention(spectral_transform(w, cfg), cfg.lowpass_ratio)``
    for ``w`` as in ``cropped_transform``, without the full spectrum.

    The inside energy comes from the pruned cube; the total comes from the
    time domain by Parseval, ``T*H*W * sum_t h_t^2 * sum_{y,x} w_t^2``,
    summed per chunk in a second read of the source.
    """
    _, cube = cropped_transform(v, cfg, offset)
    frame_sq = [np.einsum("tyx,tyx->t", d, d)
                for d in (c - offset for c in FrameSource.of(v).chunks())]
    taper = temporal_window(v.shape[0], cfg.window_kind)
    total = math.prod(v.shape) * float(taper ** 2 @ np.concatenate(frame_sq))
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
    inside = e[np.ix_(*(keep_mask_1d(n, ratio) for n in e.shape))].sum()
    return float(inside / total)
