"""Ground-truth rigid-motion clips and power-law-spectrum videos.

Every generator is deterministic per seed (counter-based Philox stream, see
``RNG_NAME``).  Warped clips use bilinear sampling about the frame center
with a half-intensity fill outside the base, so out-of-frame content is
spectrally silent after mean shifting.  Each frame's four corners are four
flat gathers from the base in a zero border, beside a table that marks
the base, so a corner outside the frame needs no clip or mask of its own.
Base patterns are band-limited to at most 0.3x Nyquist so the analysis
low-pass keeps the signal under test.

Power-law clips shape white noise on its half spectrum.  The amplitude
grid depends only on the shape and the exponent, so it is built once per
``(T, H, W, kappa)``, kept in a small LRU cache and handed out read-only.
The noise is drawn and transformed one frame at a time into the one
half-spectrum buffer, every complex FFT pass is written back into it, and
the clip is written over the buffer's own bytes one frame at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DegenerateInputError, VideoWindow

__all__ = ["MotionSpec", "RNG_NAME", "make_rng", "make_base", "synth_sim2",
           "synth_powerlaw"]

RNG_NAME = "numpy.random.Philox"

BASE_KINDS = ("checker", "gaussian_blobs", "bandpass_noise")
MOTION_KINDS = ("translation", "rotation", "scaling", "mixed", "static")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class MotionSpec:
    kind: str = "static"
    v: tuple = (0.0, 0.0)
    omega: float = 0.0
    alpha: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MOTION_KINDS:
            raise ConfigError(f"unknown motion kind {self.kind!r}")
        vx, vy = self.v
        for name, val in (("v", vx), ("v", vy), ("omega", self.omega),
                          ("alpha", self.alpha),
                          ("noise_sigma", self.noise_sigma)):
            if not math.isfinite(val):
                raise ConfigError(f"{name} must be finite (got {val!r})")
        moving = {"v": (vx != 0 or vy != 0), "omega": self.omega != 0,
                  "alpha": self.alpha != 0}
        allowed = {
            "static": set(),
            "translation": {"v"},
            "rotation": {"omega"},
            "scaling": {"alpha"},
            "mixed": {"v", "omega", "alpha"},
        }[self.kind]
        for name, active in moving.items():
            if active and name not in allowed:
                raise ConfigError(
                    f"{self.kind} spec must not set {name} (got nonzero)")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        object.__setattr__(self, "v", (float(vx), float(vy)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "v": list(self.v), "omega": self.omega,
                "alpha": self.alpha, "noise_sigma": self.noise_sigma,
                "seed": self.seed, "rng": RNG_NAME}

    @classmethod
    def from_dict(cls, d: dict) -> "MotionSpec":
        v = d.get("v", (0.0, 0.0))
        return cls(kind=d.get("kind", "static"), v=(float(v[0]), float(v[1])),
                   omega=float(d.get("omega", 0.0)),
                   alpha=float(d.get("alpha", 0.0)),
                   noise_sigma=float(d.get("noise_sigma", 0.0)),
                   seed=int(d.get("seed", 0)))


def _vignette(height: int, width: int) -> np.ndarray:
    """Radial raised-cosine taper, 1 inside ``0.25*min(H,W)``, 0 outside
    ``0.34*min(H,W)``.  Keeps content clear of the frame edge so rotation
    and zooming never drag hard borders through the window."""
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    y, x = np.mgrid[0:height, 0:width]
    r = np.hypot(y - cy, x - cx)
    r0 = 0.25 * min(height, width)
    r1 = 0.34 * min(height, width)
    out = np.clip((r - r0) / max(r1 - r0, 1e-9), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * out))


def make_base(kind: str, height: int, width: int, rng: np.random.Generator,
              taper: bool = True) -> np.ndarray:
    """Band-limited base pattern in [0.1, 0.9] centered on mid-gray."""
    if kind == "checker":
        # smooth two-tone lattice: a single (fx, fy) frequency pair
        y, x = np.mgrid[0:height, 0:width]
        cell = max(6, min(height, width) // 10)
        pat = np.sin(2 * np.pi * x / (2 * cell)) * np.sin(2 * np.pi * y / (2 * cell))
    elif kind == "gaussian_blobs":
        y, x = np.mgrid[0:height, 0:width]
        cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
        pat = np.zeros((height, width))
        n_blobs = 4
        r_place = 0.18 * min(height, width)
        sigma = max(3.0, 0.05 * min(height, width))
        for _ in range(n_blobs):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.3, 1.0) * r_place
            by, bx = cy + rad * np.sin(ang), cx + rad * np.cos(ang)
            amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.0)
            pat += amp * np.exp(-((y - by) ** 2 + (x - bx) ** 2) / (2 * sigma ** 2))
    elif kind == "bandpass_noise":
        noise = rng.standard_normal((height, width))
        spec = np.fft.fft2(noise)
        fy = np.fft.fftfreq(height)[:, None]
        fx = np.fft.fftfreq(width)[None, :]
        r = np.hypot(fy, fx)  # cycles per pixel
        # smooth annulus: a radially soft band keeps the ring profile
        # coherent under dilation instead of bin-scale ragged
        band = np.exp(-0.5 * ((r - 0.085) / 0.022) ** 2)
        pat = np.fft.ifft2(spec * band).real
    else:
        raise ConfigError(f"unknown base kind {kind!r}")
    peak = np.max(np.abs(pat))
    if peak > 0:
        pat = pat / peak
    if taper:
        pat = pat * _vignette(height, width)
    return 0.5 + 0.4 * pat


def _bilinear(base: np.ndarray, yq: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Sample ``base`` at float coordinates, mid-gray (0.5) fill outside.

    ``base`` sits in a two-pixel zero border, flattened beside a table that
    is 1 on the base and 0 on the border.  The top-left corner is clamped
    into that border (rows to ``[-2, h]``, columns to ``[-2, w]``), so a
    corner outside the base reads 0 from both tables, and each corner is
    one flat ``take`` from each at a fixed offset.
    """
    h, w = base.shape
    stride = w + 4
    vals = np.zeros((h + 4, stride))
    vals[2:-2, 2:-2] = base
    inside = np.zeros((h + 4, stride))
    inside[2:-2, 2:-2] = 1.0
    vals, inside = vals.ravel(), inside.ravel()
    y0 = np.floor(yq)
    x0 = np.floor(xq)
    dy = yq - y0
    dx = xq - x0
    # fmax/fmin send a NaN coordinate to the border; its NaN weights still
    # make the pixel NaN
    flat = ((np.fmin(np.fmax(y0, -2.0), h) + 2.0) * stride
            + np.fmin(np.fmax(x0, -2.0), w) + 2.0).astype(np.intp)
    wy0, wx0 = 1 - dy, 1 - dx
    out = np.zeros(yq.shape)
    acc_w = np.zeros(yq.shape)
    for off, wy, wx in ((0, wy0, wx0), (1, wy0, dx), (stride, dy, wx0),
                        (stride + 1, dy, dx)):
        wgt = wy * wx
        out += wgt * vals[off:].take(flat)
        acc_w += wgt * inside[off:].take(flat)
    return out + 0.5 * (1.0 - acc_w)


def synth_sim2(base_kind: str, spec: MotionSpec, frames_t: int, height: int,
               width: int, exact: bool = False) -> VideoWindow:
    """Render a clip whose frame ``t`` is the base warped by the similarity
    composed at time ``t`` (translate by ``v*t``, rotate by ``omega*t``,
    scale by ``exp(alpha*t)`` about the frame center).

    ``exact`` restricts translation to integer circular shifts on a periodic
    base (bit-exact frames, no interpolation); it requires integer ``v``.
    """
    if frames_t < 1:
        raise ConfigError("need at least one frame")
    scale_total = math.exp(spec.alpha * frames_t)
    if not (0.1 <= scale_total <= 10.0):
        raise DegenerateInputError(
            f"scale collapse: exp(alpha*T) = {scale_total:.3g} outside [0.1, 10]")
    rng = make_rng(spec.seed)
    vx, vy = spec.v

    if exact:
        if spec.kind not in ("translation", "static"):
            raise ConfigError("exactness mode is translation-only")
        if vx != int(vx) or vy != int(vy):
            raise ConfigError("exactness mode needs integer per-frame shifts")
        base = make_base(base_kind, height, width, rng, taper=False)
        frames = np.empty((frames_t, height, width))
        for t in range(frames_t):
            frames[t] = np.roll(base, shift=(int(vy) * t, int(vx) * t),
                                axis=(0, 1))
    else:
        base = make_base(base_kind, height, width, rng)
        # pivot about (H//2, W//2): matches the spatial DFT phase origin
        cy, cx = float(height // 2), float(width // 2)
        y, x = np.mgrid[0:height, 0:width].astype(np.float64)
        frames = np.empty((frames_t, height, width))
        for t in range(frames_t):
            s = math.exp(spec.alpha * t)
            ang = spec.omega * t
            # inverse similarity: undo translation, then rotation/scale
            xs = (x - vx * t - cx) / s
            ys = (y - vy * t - cy) / s
            ca, sa = math.cos(-ang), math.sin(-ang)
            xb = ca * xs - sa * ys + cx
            yb = sa * xs + ca * ys + cy
            frames[t] = _bilinear(base, yb, xb)

    if spec.noise_sigma > 0:
        # frame by frame from the same generator: the stream is consumed
        # in the order of one (T, H, W) draw, with one frame of noise alive
        noise = np.empty((height, width))
        for frame in frames:
            rng.standard_normal(out=noise)
            noise *= spec.noise_sigma
            frame += noise
    return VideoWindow(np.clip(frames, 0.0, 1.0, out=frames))


@functools.lru_cache(maxsize=4)
def _powerlaw_amplitude(frames_t: int, height: int, width: int,
                        kappa: float) -> np.ndarray:
    """``r^(-kappa)`` on the half-spectrum grid ``(T, H, W//2 + 1)``, zero
    at DC; built once per shape and exponent and handed out read-only."""

    def axis_radius(freq, n):
        return freq * n / ((n - 1) / 2.0)

    ut = axis_radius(np.fft.fftfreq(frames_t), frames_t)[:, None, None]
    uy = axis_radius(np.fft.fftfreq(height), height)[None, :, None]
    ux = axis_radius(np.fft.rfftfreq(width), width)[None, None, :]
    r2 = ut ** 2 + uy ** 2 + ux ** 2
    amp = np.zeros_like(r2)
    nz = r2 > 0
    amp[nz] = r2[nz] ** (-kappa / 2.0)
    amp.setflags(write=False)
    return amp


def synth_powerlaw(frames_t: int, height: int, width: int, kappa: float,
                   seed: int) -> VideoWindow:
    """Random clip whose spectral energy follows ``r^(-2*kappa)`` on the
    per-dimension-normalized radius (DC excluded), random Hermitian phases.

    Built by shaping white noise in the frequency domain, so per-bin
    energies fluctuate (chi-square) around the power law.  The amplitude
    grid is built once per ``(T, H, W, kappa)`` and shared read-only.  The
    transforms are the ``rfftn``/``irfftn`` axis passes in their own order:
    each frame's noise is drawn and ``rfft``-ed into the one half-spectrum
    buffer, every complex pass is written back into it, and each frame's
    ``irfft`` is written over it.  So the clip is bit-identical to
    ``irfftn(rfftn(noise) * amp)`` and the buffer is the only clip-sized
    array.
    """
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    if min(frames_t, height, width) < 2:
        raise ConfigError("power-law clips need at least 2 samples per axis")
    amp = _powerlaw_amplitude(frames_t, height, width, float(kappa))
    rng = make_rng(seed)
    spec = np.empty(amp.shape, dtype=np.complex128)
    for t in range(frames_t):
        # frame by frame, the noise is drawn in the order of one
        # (T, H, W) draw
        np.fft.rfft(rng.standard_normal((height, width)), axis=1,
                    out=spec[t])
    np.fft.fft(spec, axis=1, out=spec)
    np.fft.fft(spec, axis=0, out=spec)
    # the amplitude is even in every frequency, so shaping the half
    # spectrum of the real noise keeps it Hermitian
    spec *= amp
    np.fft.ifft(spec, axis=0, out=spec)
    np.fft.ifft(spec, axis=1, out=spec)
    # the clip is written over the spectrum's own bytes: a clip row (8*W
    # bytes) is no longer than a spectrum row (16*(W//2 + 1)), so clip
    # frame t ends before spectrum frame t + 1 begins
    v = spec.reshape(-1).view(np.float64)[:frames_t * height * width]
    v = v.reshape(frames_t, height, width)
    for t in range(frames_t):
        v[t] = np.fft.irfft(spec[t], n=width, axis=1)
    lo, hi = v.min(), v.max()
    if hi > lo:
        v -= lo
        v /= hi - lo
    else:
        v = np.full_like(v, 0.5)
    return VideoWindow(v)
