"""Ground-truth rigid-motion clips and power-law-spectrum videos.

Every generator is deterministic per seed (counter-based Philox stream, see
``RNG_NAME``).  Warped clips use bilinear sampling about the frame center
with a half-intensity fill outside the base, so out-of-frame content is
spectrally silent after mean shifting.  Base patterns are band-limited
to at most 0.3x Nyquist so the analysis low-pass keeps the signal under
test.

Power-law clips shape white noise on its half spectrum, in one buffer
(see ``synth_powerlaw``).  ``read_spec`` reads a spec file by its schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DegenerateInputError, VideoWindow, check_json,
                   load_schema, table)

__all__ = ["MotionSpec", "RNG_NAME", "make_rng", "make_base", "read_spec",
           "synth_sim2", "synth_powerlaw"]

RNG_NAME = "numpy.random.Philox"

BASE_KINDS = ("checker", "gaussian_blobs", "bandpass_noise")
MOTION_KINDS = ("translation", "rotation", "scaling", "mixed", "static")


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
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


def read_spec(raw) -> tuple:
    """``(spec, base, (T, H, W), exact)`` of a parsed synth spec, read as
    ``schemas/synth_spec.schema.json`` states it (``core.check_json``); a
    field left out takes its default, 16x64x64 for the sizes.  A spec the
    schema rejects is a ``ConfigError``."""
    try:
        check_json(raw, load_schema("synth_spec.schema.json"), "spec")
        # the numbers as float64, which a large JSON integer overflows
        kw = {k: float(raw[k]) for k in ("omega", "alpha", "noise_sigma")
              if k in raw}
        kw["v"] = tuple(map(float, raw.get("v", (0.0, 0.0))))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    shape = tuple(int(raw.get(k, n)) for k, n in (("T", 16), ("H", 64),
                                                  ("W", 64)))
    # past numpy's index limit a shape fails as a ValueError, not MemoryError
    if math.prod(shape) > 2 ** 56:
        raise ConfigError("clip too large to allocate: T*H*W > 2**56")
    spec = MotionSpec(kind=raw["kind"], seed=int(raw.get("seed", 0)), **kw)
    return (spec, raw.get("base", "bandpass_noise"), shape,
            raw.get("exact", False))


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


# samples warped at once by ``_bilinear``: its temporaries are this long
BILINEAR_BLOCK = 1 << 13


def _bilinear(base: np.ndarray, yq: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Sample ``base`` at float coordinates, mid-gray (0.5) fill outside.

    ``base`` sits in a two-pixel zero border, flattened beside a table that
    is 1 on the base and 0 on the border.  The top-left corner is clamped
    into that border (rows to ``[-2, h]``, columns to ``[-2, w]``), so a
    corner outside the base reads 0 from both tables, and each corner is
    one flat ``take`` from each at a fixed offset.  The samples are warped
    ``BILINEAR_BLOCK`` at a time into the output, so every temporary is
    block-sized whatever the frame.
    """
    h, w = base.shape
    stride = w + 4
    vals = np.zeros((h + 4, stride))
    vals[2:-2, 2:-2] = base
    inside = np.zeros((h + 4, stride), dtype=bool)
    inside[2:-2, 2:-2] = True
    vals, inside = vals.ravel(), inside.ravel()
    out = np.zeros(yq.shape)
    # flat views (a grid that is not contiguous is copied; out always is)
    ys, xs, outs = (np.reshape(a, -1) for a in (yq, xq, out))
    for i in range(0, ys.size, BILINEAR_BLOCK):
        yb, xb = ys[i:i + BILINEAR_BLOCK], xs[i:i + BILINEAR_BLOCK]
        ob = outs[i:i + BILINEAR_BLOCK]
        y0 = np.floor(yb)
        x0 = np.floor(xb)
        dy = yb - y0
        dx = xb - x0
        # fmax/fmin send a NaN coordinate to the border; its NaN weights
        # still make the pixel NaN
        flat = ((np.fmin(np.fmax(y0, -2.0), h) + 2.0) * stride
                + np.fmin(np.fmax(x0, -2.0), w) + 2.0).astype(np.intp)
        wy0, wx0 = 1 - dy, 1 - dx
        acc_w = np.zeros(len(yb))
        for off, wy, wx in ((0, wy0, wx0), (1, wy0, dx), (stride, dy, wx0),
                            (stride + 1, dy, dx)):
            wgt = wy * wx
            ob += wgt * vals[off:].take(flat)
            acc_w += wgt * inside[off:].take(flat)
        ob += 0.5 * (1.0 - acc_w)
    return out


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
    # exp overflows past 709.78; any scale past 10 is a collapse anyway
    scale_total = math.exp(min(spec.alpha * frames_t, 709.0))
    if not (0.1 <= scale_total <= 10.0):
        raise DegenerateInputError(
            f"scale collapse: exp(alpha*T) = {scale_total:.3g} outside [0.1, 10]")
    try:
        frames = _render(base_kind, spec, frames_t, height, width, exact)
    except FloatingPointError as exc:
        # a number so large that the warp or the noise overflows float64
        raise ConfigError(f"synthesis overflows float64: {exc}") from exc
    return VideoWindow(np.clip(frames, 0.0, 1.0, out=frames))


@np.errstate(over="raise", invalid="raise")
def _render(base_kind, spec, frames_t, height, width, exact) -> np.ndarray:
    """The unclipped frames of ``synth_sim2``."""
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
        # a (1, W) row and an (H, 1) column: each pixel gets the value the
        # full grids would give it, by the same operations in the same order
        x = np.arange(width, dtype=np.float64)[None, :]
        y = np.arange(height, dtype=np.float64)[:, None]
        frames = np.empty((frames_t, height, width))
        for t in range(frames_t):
            s = math.exp(spec.alpha * t)
            ang = np.float64(spec.omega) * t  # so an overflow raises
            # inverse similarity: undo translation, then rotation/scale
            xs = (x - vx * t - cx) / s
            ys = (y - vy * t - cy) / s
            ca, sa = math.cos(-ang), math.sin(-ang)
            xb = ca * xs - sa * ys
            xb += cx
            yb = sa * xs + ca * ys
            yb += cy
            frames[t] = _bilinear(base, yb, xb)
            # freed before the next frame's grids are made
            del xb, yb

    if spec.noise_sigma > 0:
        # frame by frame from the same generator: the stream is consumed
        # in the order of one (T, H, W) draw, with one frame of noise alive
        noise = np.empty((height, width))
        for frame in frames:
            rng.standard_normal(out=noise)
            noise *= spec.noise_sigma
            frame += noise
    return frames


@table
def _powerlaw_amplitude(frames_t: int, height: int, width: int,
                        kappa: float) -> np.ndarray:
    """``r^(-kappa)`` on the half-spectrum grid ``(T, H, W//2 + 1)``, zero
    at DC."""

    def axis_radius(freq, n):
        return freq * n / ((n - 1) / 2.0)

    ut = axis_radius(np.fft.fftfreq(frames_t), frames_t)[:, None, None]
    uy = axis_radius(np.fft.fftfreq(height), height)[None, :, None]
    ux = axis_radius(np.fft.rfftfreq(width), width)[None, None, :]
    r2 = ut ** 2 + uy ** 2 + ux ** 2
    amp = np.zeros_like(r2)
    nz = r2 > 0
    amp[nz] = r2[nz] ** (-kappa / 2.0)
    return amp


@np.errstate(over="raise")
def _powerlaw_noise(frames_t: int, height: int, width: int, kappa: float,
                    seed: int) -> np.ndarray:
    """The shaped noise of ``synth_powerlaw`` before its min-max scaling;
    an overflow anywhere raises ``FloatingPointError``."""
    amp = _powerlaw_amplitude(frames_t, height, width, kappa)
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
    return v


def synth_powerlaw(frames_t: int, height: int, width: int, kappa: float,
                   seed: int) -> VideoWindow:
    """Random clip whose spectral energy follows ``r^(-2*kappa)`` on the
    per-dimension-normalized radius (DC excluded), random Hermitian phases.

    Built by shaping white noise in the frequency domain, so per-bin
    energies fluctuate (chi-square) around the power law.  The
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
    shape = f"{frames_t}x{height}x{width}"
    try:
        v = _powerlaw_noise(frames_t, height, width, float(kappa), seed)
    except FloatingPointError as exc:
        raise ConfigError(f"kappa={kappa} overflows float64 on a {shape} "
                          f"clip: {exc}") from exc
    lo, hi = v.min(), v.max()
    if not hi > lo:
        # every amplitude underflowed to 0, or to less than the noise and
        # the transforms resolve
        raise ConfigError(f"kappa={kappa} underflows float64 on a {shape} "
                          "clip: the clip is flat")
    v -= lo
    v /= hi - lo
    return VideoWindow(v)
