"""Shared domain types, configuration, video I/O and frame normalization.

Conventions used throughout the package:

* video data is a real ``(T, H, W)`` array, row-major ``(t, y, x)``,
  luminance in ``[0, 1]``
* analysis runs on mean-shifted data, ``x - 1/2``: ``analyze`` takes the
  1/2 off each frame's spatial DC bin inside the transform, and
  ``normalize_window`` forms the shifted window explicitly
* raw files are little-endian float32 with a UTF-8 JSON sidecar holding
  exactly the keys ``T``, ``H``, ``W``
* input is read through a ``FrameSource``, in checked chunks of frames,
  so the transform never needs the whole window; ``load_video`` collects
  a source into one array
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from collections.abc import Callable, Iterator
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
    "FrameSource",
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


# bytes of a chunk of frames once x-transformed, ``16*H*(W//2 + 1)`` a
# frame: a ``FrameSource`` yields as many frames at once as fit, one at least
CHUNK_BYTES = 1 << 18


def _sidecar_shape(meta, sidecar: str) -> tuple:
    """``(T, H, W)`` from a parsed sidecar: an object with exactly those
    keys, each a JSON integer (``2.0`` counts, as in JSON Schema) of at
    least 1, as ``schemas/sidecar.schema.json`` states."""
    if not isinstance(meta, dict) or set(meta) != {"T", "H", "W"}:
        raise FormatError(f"bad sidecar {sidecar}: want an object with "
                          f"exactly the keys T, H, W, got {meta!r}")
    for key in ("T", "H", "W"):
        val = meta[key]
        if not (type(val) is int
                or isinstance(val, float) and val.is_integer()):
            raise FormatError(f"bad sidecar {sidecar}: {key} must be an "
                              f"integer, got {val!r}")
    shape = t, h, w = int(meta["T"]), int(meta["H"]), int(meta["W"])
    if min(shape) < 1:
        raise FormatError(f"bad sidecar {sidecar}: dimensions must be "
                          f"positive, got T={t} H={h} W={w}")
    return shape


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


@dataclass(frozen=True)
class FrameSource:
    """A ``(T, H, W)`` window as float64 chunks of whole frames, in order:
    ``read(step)`` yields chunks of ``step`` frames (the last one shorter),
    checks what it reads and feeds the digest given to ``open``.  A raw
    file's source holds its file open until it is read, once, or closed;
    a source is a context manager that closes it."""

    shape: tuple
    read: Callable[[int], Iterator[np.ndarray]]
    close: Callable[[], None] = lambda: None

    def __enter__(self) -> "FrameSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def chunks(self):
        """The frames in chunks of ``CHUNK_BYTES`` once x-transformed."""
        _, h, w = self.shape
        return self.read(max(1, CHUNK_BYTES // (16 * h * (w // 2 + 1))))

    @classmethod
    def of(cls, v) -> "FrameSource":
        """``v`` if a source, else views of the ``VideoWindow`` ``v``."""
        if isinstance(v, FrameSource):
            return v
        return cls(v.shape, lambda step: (
            v.data[t:t + step] for t in range(0, v.frames_t, step)))

    @classmethod
    def open(cls, path: str, digest=None) -> "FrameSource":
        """A directory of 8-bit PGM frames (sorted name order, divided by
        255) or a raw float32 file plus its ``path + ".json"`` sidecar;
        the shape comes from the sidecar or from the listing and first
        frame, and a raw payload's size is checked on opening.  A
        ``hashlib`` ``digest`` is fed the bytes as they are read: each
        entry's name and contents, non-frames included, or the payload and
        then the sidecar."""
        if os.path.isdir(path):
            names = sorted(os.listdir(path))
            frames = [os.path.join(path, n) for n in names
                      if n.endswith(".pgm")]
            if not frames:
                raise FormatError(f"no .pgm frames in {path}")
            hw = _parse_pgm(_read_bytes(frames[0], None), frames[0]).shape

            def read_pgm(step):
                # a frame of another shape is an error once every frame is
                # parsed, so the error lists every shape
                shapes, batch = {hw}, []
                for name in names:
                    is_frame = name.endswith(".pgm")
                    if digest is not None:
                        digest.update(name.encode())
                    elif not is_frame:
                        continue
                    file = os.path.join(path, name)
                    blob = _read_bytes(file, digest)
                    if is_frame:
                        batch.append(_parse_pgm(blob, file))
                        shapes.add(batch[-1].shape)
                    if len(batch) == step and len(shapes) == 1:
                        yield np.stack(batch)
                        batch = []
                if len(shapes) != 1:
                    raise FormatError(f"inconsistent frame shapes in {path}: "
                                      f"{sorted(shapes)}")
                if batch:
                    yield np.stack(batch)
            return cls((len(frames), *hw), read_pgm)

        sidecar = path + ".json"
        if not os.path.exists(path):
            raise FormatError(f"missing raw file: {path}")
        if not os.path.exists(sidecar):
            raise FormatError(f"missing sidecar: {sidecar}")
        meta_blob = _read_bytes(sidecar, None)
        try:
            meta = json.loads(meta_blob.decode("utf-8"))
        except ValueError as exc:
            raise FormatError(f"bad sidecar {sidecar}: {exc}") from exc
        shape = t, h, w = _sidecar_shape(meta, sidecar)
        try:
            fh = open(path, "rb")
            size = os.fstat(fh.fileno()).st_size
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
        if size != 4 * t * h * w:
            fh.close()
            raise FormatError(f"{path}: sidecar declares T={t} H={h} W={w} "
                              f"({4 * t * h * w} bytes), file holds {size} "
                              "bytes")

        def read_raw(step):
            # each chunk is read into one reused float32 buffer; the
            # sidecar is fed to the digest after the payload
            buf = np.empty((min(step, t), h, w), dtype="<f4")
            try:
                with fh:
                    for t0 in range(0, t, step):
                        piece = buf[:min(step, t - t0)]
                        if fh.readinto(piece) != piece.nbytes:
                            raise FormatError(
                                f"{path}: payload ended before the "
                                f"{4 * t * h * w} bytes its size promised")
                        if digest is not None:
                            digest.update(piece)
                        if not np.isfinite(piece).all():
                            raise FormatError(
                                "video contains non-finite samples")
                        yield piece.astype(np.float64)
            except OSError as exc:
                raise FormatError(f"cannot read {path}: {exc}") from exc
            if digest is not None:
                digest.update(meta_blob)
        return cls(shape, read_raw, fh.close)


_PGM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _parse_pgm(blob: bytes, path: str) -> np.ndarray:
    """Minimal binary PGM (P5, 8-bit) parser; ``path`` names the frame in
    errors."""
    if not blob.startswith(b"P5"):
        raise FormatError(f"frame {path}: not a binary PGM (P5)")
    # header = magic, width, height, maxval; a '#' starting a token starts
    # a comment to the end of its line
    tokens = list(itertools.islice((m for m in _PGM_TOKEN.finditer(blob, 2)
                                    if m[0][:1] != b"#"), 3))
    if len(tokens) < 3:
        raise FormatError(f"frame {path}: truncated PGM header")
    i = tokens[-1].end() + 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t[0]) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"frame {path}: bad PGM header") from exc
    if w < 1 or h < 1:
        raise FormatError(f"frame {path}: PGM dimensions must be positive, "
                          f"got {w}x{h}")
    if maxval != 255:
        raise FormatError(f"frame {path}: only 8-bit PGM supported (maxval=255)")
    pixels = np.frombuffer(blob, dtype=np.uint8)[i:i + h * w]
    if pixels.size < h * w:
        raise FormatError(f"frame {path}: pixel payload truncated")
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def load_video(path: str, digest=None) -> VideoWindow:
    """The window of ``FrameSource.open(path, digest)``, its chunks
    collected into one float64 array as they are read."""
    with FrameSource.open(path, digest) as src:
        data = np.empty(src.shape)
        t0 = 0
        for chunk in src.chunks():
            data[t0:t0 + len(chunk)] = chunk
            t0 += len(chunk)
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
        pixels = np.clip(np.round(v.data * 255.0), 0, 255).astype(np.uint8)
        for t, frame in enumerate(pixels):
            with open(os.path.join(path, f"frame_{t:04d}.pgm"), "wb") as fh:
                fh.write(b"P5\n%d %d\n255\n" % (v.width, v.height)
                         + frame.tobytes())
        return
    raise FormatError(f"cannot save as {format!r}: use 'raw_f32' or 'pgm_dir'")


def normalize_window(v: VideoWindow) -> VideoWindow:
    """Subtract the half-intensity offset so samples live in [-1/2, 1/2]."""
    return VideoWindow(v.data - 0.5)
