"""Shared domain types, configuration, video I/O and frame normalization.

Conventions used throughout the package:

* video data is a real ``(T, H, W)`` array, row-major ``(t, y, x)``,
  luminance in ``[0, 1]``
* analysis runs on mean-shifted data, ``x - 1/2``: ``analyze`` takes the
  1/2 off each frame's spatial DC bin inside the transform, and
  ``normalize_window`` forms the shifted window explicitly
* raw files are little-endian float32 with a UTF-8 JSON sidecar holding
  exactly the keys ``T``, ``H``, ``W``
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from numbers import Integral

import numpy as np

__all__ = [
    "Sim2Error",
    "FormatError",
    "ConfigError",
    "UnobservableError",
    "DegenerateInputError",
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


@dataclass(frozen=True)
class VideoWindow:
    """A single-channel luminance block ``data`` of shape ``(T, H, W)``.

    ``data`` is stored as float64 and is immutable after construction.
    Multi-channel ``(T, H, W, C)`` input is reduced to one channel
    (equal-weight average) before storage.  ``frames_t``, ``height`` and
    ``width`` are read off the stored array's shape.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 4:
            arr = arr.mean(axis=3)
        if arr.ndim != 3:
            raise FormatError(f"video data must be (T,H,W), got ndim={arr.ndim}")
        t, h, w = arr.shape
        if t < 1:
            raise FormatError("need at least one frame")
        if h < 1 or w < 1:
            raise FormatError(f"frames must be at least 1x1, got {h}x{w}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("video contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def frames_t(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape


# guard added to denominators (and inside logs) of the normalized statistics
NUMERIC_EPS = 1e-8


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
    energy_gate_threshold: float = 0.10
    energy_gate_sharpness: float = 10.0
    softmax_temperature: float = 0.1
    window_kind: str = "hann"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":  # NumPy integers are stored as int
                if type(value) is bool or not isinstance(value, Integral):
                    raise ConfigError(
                        f"{f.name} must be an integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
            elif isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
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
        if self.softmax_temperature <= 0:
            raise ConfigError("softmax_temperature must be positive")
        if self.window_kind not in ("hann", "rect"):
            raise ConfigError(f"unknown window kind {self.window_kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)

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
        return asdict(self)


# largest piece of a raw payload read at once: the float32 buffer it is
# read into is reused for every piece
RAW_READ_BYTES = 1 << 20


def _read_bytes(path: str, digest) -> bytes:
    """Whole contents of ``path``, also fed to ``digest`` if one is given."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(blob)
    return blob


def _read_raw_payload(fh, path: str, shape: tuple, digest) -> np.ndarray:
    """The float32 payload of the open file ``fh`` as a float64 array of
    ``shape``, read in pieces of at most ``RAW_READ_BYTES`` into one reused
    buffer; each piece is fed to ``digest`` if one is given."""
    count = math.prod(shape)
    size = os.fstat(fh.fileno()).st_size
    if size != 4 * count:
        t, h, w = shape
        raise FormatError(
            f"{path}: sidecar declares T={t} H={h} W={w} "
            f"({4 * count} bytes), file holds {size} bytes")
    data = np.empty(shape)
    flat = data.reshape(-1)
    buf = np.empty(min(count, RAW_READ_BYTES // 4), dtype="<f4")
    raw = buf.view(np.uint8)
    for start in range(0, count, buf.size):
        n = min(buf.size, count - start)
        if fh.readinto(raw[:4 * n]) != 4 * n:
            raise FormatError(f"{path}: payload ended before the "
                              f"{4 * count} bytes its size promised")
        if digest is not None:
            digest.update(raw[:4 * n])
        flat[start:start + n] = buf[:n]
    return data


def _parse_pgm(blob: bytes, path: str) -> np.ndarray:
    """Minimal binary PGM (P5, 8-bit) parser; ``path`` names the frame in
    errors."""
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
    if w < 1 or h < 1:
        raise FormatError(f"frame {path}: PGM dimensions must be positive, "
                          f"got {w}x{h}")
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


def load_video(path: str, digest=None) -> VideoWindow:
    """Load a video window: a directory as 8-bit PGM frames, any other path
    as a raw little-endian float32 file plus its ``path + ".json"`` sidecar.

    Raw data is already scaled to [0,1]; PGM frames are divided by 255 and
    stacked in sorted name order.  Every file is read once.  A PGM frame
    and a sidecar are read whole; a raw payload's size is checked against
    its sidecar before it is read, and it is then read in pieces of at most
    ``RAW_READ_BYTES`` into one reused float32 buffer and converted into
    the window's float64 array, so no copy of the whole payload is held.
    A ``hashlib`` object passed as ``digest`` is fed the input's bytes as
    they are read: for a directory, each entry's name and then its
    contents in sorted name order, files that are not frames included; for
    a raw file, the payload and then the sidecar.
    """
    if os.path.isdir(path):
        names = sorted(os.listdir(path))
        if not any(n.endswith(".pgm") for n in names):
            raise FormatError(f"no .pgm frames in {path}")
        frames = []
        for name in names:
            is_frame = name.endswith(".pgm")
            if digest is not None:
                digest.update(name.encode())
            elif not is_frame:
                continue
            blob = _read_bytes(os.path.join(path, name), digest)
            if is_frame:
                frames.append(_parse_pgm(blob, os.path.join(path, name)))
        shapes = {f.shape for f in frames}
        if len(shapes) != 1:
            raise FormatError(f"inconsistent frame shapes in {path}: {sorted(shapes)}")
        return VideoWindow(np.stack(frames, axis=0))

    sidecar = path + ".json"
    if not os.path.exists(path):
        raise FormatError(f"missing raw file: {path}")
    if not os.path.exists(sidecar):
        raise FormatError(f"missing sidecar: {sidecar}")
    meta_blob = _read_bytes(sidecar, None)
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
        t, h, w = int(meta["T"]), int(meta["H"]), int(meta["W"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad sidecar {sidecar}: {exc}") from exc
    if min(t, h, w) < 1:
        raise FormatError(f"bad sidecar {sidecar}: dimensions must be "
                          f"positive, got T={t} H={h} W={w}")
    try:
        with open(path, "rb") as fh:
            data = _read_raw_payload(fh, path, (t, h, w), digest)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(meta_blob)
    return VideoWindow(data)


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
    raise FormatError(f"cannot save as {format!r}: use 'raw_f32' or 'pgm_dir'")


def normalize_window(v: VideoWindow) -> VideoWindow:
    """Subtract the half-intensity offset so samples live in [-1/2, 1/2]."""
    return VideoWindow(v.data - 0.5)
