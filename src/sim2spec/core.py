"""Shared domain types, configuration, video I/O and frame normalization.

Conventions used throughout the package:

* video data is a real ``(T, H, W)`` array, row-major ``(t, y, x)``,
  luminance in ``[0, 1]``
* analysis runs on mean-shifted data (``normalize_window`` subtracts 1/2)
* raw files are little-endian float32 with a UTF-8 JSON sidecar holding
  exactly the keys ``T``, ``H``, ``W``
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Sim2Error",
    "FormatError",
    "ConfigError",
    "UnobservableError",
    "DegenerateInputError",
    "CalibrationMissingError",
    "VideoWindow",
    "SpectralConfig",
    "MotionEstimate",
    "load_video",
    "save_video",
    "normalize_window",
]


class Sim2Error(Exception):
    """Base class for all package errors."""


class FormatError(Sim2Error):
    """Unreadable, corrupt or shape-inconsistent input."""


class ConfigError(Sim2Error):
    """Invalid configuration value or mismatched lookup table."""


class UnobservableError(Sim2Error):
    """A fit was requested on samples that carry no usable weight."""


class DegenerateInputError(Sim2Error):
    """Input is structurally unusable (too short, collapsing scale, ...)."""


class CalibrationMissingError(Sim2Error):
    """A bound check needs calibrated constants that were not supplied."""


@dataclass(frozen=True)
class VideoWindow:
    """A single-channel luminance block of shape ``(frames_t, height, width)``.

    ``data`` is stored as float64 and is immutable after construction.
    Multi-channel input is reduced to one channel (equal-weight average)
    before storage.
    """

    frames_t: int
    height: int
    width: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 4:
            arr = arr.mean(axis=3)
        if arr.ndim != 3:
            raise FormatError(f"video data must be (T,H,W), got ndim={arr.ndim}")
        if arr.shape != (self.frames_t, self.height, self.width):
            raise FormatError(
                f"shape mismatch: declared {(self.frames_t, self.height, self.width)}, "
                f"data is {arr.shape}")
        if self.frames_t < 1:
            raise FormatError("need at least one frame")
        if self.height < 1 or self.width < 1:
            raise FormatError(
                f"frames must be at least 1x1, got {self.height}x{self.width}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("video contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr) -> "VideoWindow":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 4:
            arr = arr.mean(axis=3)
        if arr.ndim != 3:
            raise FormatError(f"video data must be (T,H,W), got ndim={arr.ndim}")
        t, h, w = arr.shape
        return cls(t, h, w, arr)

    @property
    def shape(self):
        return self.data.shape


# Defaults below are the fixed values used for all main runs; override per
# call site only in sweeps or tests.
@dataclass(frozen=True)
class SpectralConfig:
    lowpass_ratio: float = 0.3
    rings: int = 20
    angular_bins: int = 24
    logradius_bins: int = 24
    band_tolerance: int = 1
    ridge: float = 1e-3
    numeric_eps: float = 1e-8
    energy_gate_threshold: float = 0.10
    energy_gate_sharpness: float = 10.0
    obs_gate: float = 1.0
    softmax_temperature: float = 0.1
    soft_ring_edge: float = 20.0
    window_kind: str = "hann"

    def __post_init__(self):
        if not (0.0 < self.lowpass_ratio <= 1.0):
            raise ConfigError("lowpass_ratio must be in (0, 1]")
        if self.rings < 2:
            raise ConfigError("need at least 2 rings")
        if self.angular_bins < 4:
            raise ConfigError("need at least 4 angular bins")
        if self.logradius_bins < 4:
            raise ConfigError("need at least 4 log-radius bins")
        if self.band_tolerance < 1:
            raise ConfigError("band_tolerance must be >= 1")
        if self.ridge < 0:
            raise ConfigError("ridge must be nonnegative")
        if self.numeric_eps <= 0:
            raise ConfigError("numeric_eps must be positive")
        if self.softmax_temperature <= 0:
            raise ConfigError("softmax_temperature must be positive")
        if self.window_kind not in ("hann", "rect"):
            raise ConfigError(f"unknown window kind {self.window_kind!r}")

    def with_overrides(self, **kw) -> "SpectralConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def stable_hash(self) -> str:
        """Platform-stable hash of the configuration (sorted-key JSON)."""
        import hashlib

        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class MotionEstimate:
    """Fitted motion parameters of one analysis window.

    ``v_x``/``v_y`` are the raw plane coefficients in frequency-bin units
    (multiply by ``width/frames_t`` resp. ``height/frames_t`` for px/frame);
    ``omega`` is rad/frame, ``alpha`` log-scale per frame, ``b0`` the
    intercept in temporal-frequency bins.  Slice estimates leave the
    out-of-slice fields at zero.
    """

    v_x: float = 0.0
    v_y: float = 0.0
    omega: float = 0.0
    alpha: float = 0.0
    b0: float = 0.0

    def __post_init__(self):
        for name in ("v_x", "v_y", "omega", "alpha", "b0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"motion estimate field {name} is not finite")

    def to_dict(self) -> dict:
        return {
            "v_x": self.v_x,
            "v_y": self.v_y,
            "omega": self.omega,
            "alpha": self.alpha,
            "b0": self.b0,
        }


def _read_pgm(path: str) -> np.ndarray:
    """Minimal binary PGM (P5, 8-bit) reader."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read frame {path}: {exc}") from exc
    if not blob.startswith(b"P5"):
        raise FormatError(f"frame {path}: not a binary PGM (P5)")
    # header = magic, width, height, maxval; '#' comments allowed
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(blob) and blob[i:i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(blob) and not blob[j:j + 1].isspace():
            j += 1
        if j == i:
            raise FormatError(f"frame {path}: truncated PGM header")
        tokens.append(blob[i:j])
        i = j
    i += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"frame {path}: bad PGM header") from exc
    if maxval != 255:
        raise FormatError(f"frame {path}: only 8-bit PGM supported (maxval=255)")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=i)
    if pixels.size < h * w:
        raise FormatError(f"frame {path}: pixel payload truncated")
    pixels = pixels[:h * w]
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def _write_pgm(path: str, frame: np.ndarray) -> None:
    arr = np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())


def load_video(path: str, format: str = "raw_f32") -> VideoWindow:
    """Load a video window from ``pgm_dir`` or ``raw_f32`` storage.

    Raw data is little-endian float32 already scaled to [0,1]; PGM frames
    are 8-bit and divided by 255.
    """
    if format == "pgm_dir":
        if not os.path.isdir(path):
            raise FormatError(f"not a directory: {path}")
        names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
        if not names:
            raise FormatError(f"no .pgm frames in {path}")
        frames = [_read_pgm(os.path.join(path, n)) for n in names]
        shapes = {f.shape for f in frames}
        if len(shapes) != 1:
            raise FormatError(f"inconsistent frame shapes in {path}: {sorted(shapes)}")
        data = np.stack(frames, axis=0)
        return VideoWindow(data.shape[0], data.shape[1], data.shape[2], data)

    if format == "raw_f32":
        sidecar = path + ".json"
        if not os.path.exists(path):
            raise FormatError(f"missing raw file: {path}")
        if not os.path.exists(sidecar):
            raise FormatError(f"missing sidecar: {sidecar}")
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            t, h, w = int(meta["T"]), int(meta["H"]), int(meta["W"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"bad sidecar {sidecar}: {exc}") from exc
        if min(t, h, w) < 1:
            raise FormatError(f"bad sidecar {sidecar}: dimensions must be "
                              f"positive, got T={t} H={h} W={w}")
        raw = np.fromfile(path, dtype="<f4")
        if raw.size != t * h * w:
            raise FormatError(
                f"{path}: sidecar declares T={t} H={h} W={w} "
                f"({t * h * w} floats), file holds {raw.size}")
        return VideoWindow(t, h, w, raw.reshape(t, h, w).astype(np.float64))

    raise FormatError(f"unknown format {format!r}")


def save_video(v: VideoWindow, path: str, format: str = "raw_f32") -> None:
    """Write a window back to disk; raw_f32 round-trips bit-exactly."""
    if format == "raw_f32":
        v.data.astype("<f4").tofile(path)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"T": v.frames_t, "H": v.height, "W": v.width}, fh)
        return
    if format == "pgm_dir":
        os.makedirs(path, exist_ok=True)
        for t in range(v.frames_t):
            _write_pgm(os.path.join(path, f"frame_{t:04d}.pgm"), v.data[t])
        return
    raise FormatError(f"unknown format {format!r}")


def normalize_window(v: VideoWindow) -> VideoWindow:
    """Subtract the half-intensity offset so samples live in [-1/2, 1/2]."""
    return VideoWindow(v.frames_t, v.height, v.width, v.data - 0.5)
