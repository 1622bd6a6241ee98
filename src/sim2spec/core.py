"""Shared domain types, configuration, video I/O and frame normalization.

Conventions used throughout the package:

* video data is a real ``(T, H, W)`` array, row-major ``(t, y, x)``,
  luminance in ``[0, 1]``
* analysis runs on mean-shifted data, ``x - MID_GRAY``: the transform
  takes ``MID_GRAY`` off each frame's spatial DC bin, and
  ``normalize_window`` forms the shifted window explicitly
* raw files are little-endian float32 with a UTF-8 JSON sidecar; JSON
  from outside (a sidecar, a synth spec) is read by ``check_json``
  against its shipped schema; ``logistic`` and ``table`` are shared
* input is read by ``chunks()``, of a held ``VideoWindow`` or a
  ``FrameSource``, in chunks of whole frames; a file source of frames too
  large to share a chunk is read through ``helper`` with three reads
  pending, so the read, checks and digest overlap the transform
* ``helper`` is the one place that decides whether a second CPU is used
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import itertools
import json
import math
import os
import re
import types
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, is_dataclass
from numbers import Integral, Real

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

    ``data`` is stored as float64 and read-only.  A float64 ``(T, H, W)``
    array is taken without a copy and made read-only in place: the
    caller's array becomes read-only, and a write through another view of
    the same memory (the array it was sliced from) still reaches the
    window.  Multi-channel ``(T, H, W, C)`` input is reduced to one channel
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

    def chunks(self) -> Iterator[np.ndarray]:
        """Views of the frames in chunks of ``CHUNK_BYTES`` once
        x-transformed, as a ``FrameSource`` yields them."""
        step = max(1, _frames_per_chunk(self.height, self.width))
        return (self.data[t:t + step] for t in range(0, self.frames_t, step))

# the shift taken off every sample before analysis (see the module docstring)
MID_GRAY = 0.5


def logistic(z) -> np.ndarray:
    """``1 / (1 + exp(-z))`` with ``z`` clipped to ``[-60, 60]``, so ``exp``
    cannot overflow; past the clip the value is within 1e-26 of its limit."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


# the most results each ``table`` builder keeps
TABLE_CACHE_SIZE = 8


class _ArrayKey(tuple):
    """An ndarray argument of a ``table`` builder: dtype, shape, bytes."""


def _freeze(obj):
    """``obj`` with each ndarray in it (itself, or one in a tuple or a
    dataclass field, at any depth) set read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, tuple) or is_dataclass(obj):
        for item in obj if isinstance(obj, tuple) else vars(obj).values():
            _freeze(item)
    return obj


def table(build: Callable) -> Callable:
    """``build``, run once per distinct argument tuple, for the tables that
    depend only on shapes, grids and the config, passed by position: an
    ndarray argument is keyed by its dtype, shape and contents, and the
    builder gets a read-only copy; the ``TABLE_CACHE_SIZE`` latest results
    are kept, and every ndarray in a result is handed out read-only."""

    @functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
    def cached(*key):
        return _freeze(build(*(np.frombuffer(k[2], k[0]).reshape(k[1])
                               if type(k) is _ArrayKey else k for k in key)))

    @functools.wraps(build)
    def keyed(*args):
        return cached(*(_ArrayKey((a.dtype, a.shape, a.tobytes()))
                        if isinstance(a, np.ndarray) else a for a in args))

    keyed.cache_info, keyed.cache_clear = cached.cache_info, cached.cache_clear
    return keyed


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity set where the
    platform has one, else ``os.cpu_count()`` (1 when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def helper(name: str):
    """``run(fn, *args)``, which hands ``fn(*args)`` to a second thread and
    returns what stands for its result: the one rule by which the package
    uses a second CPU.  With two or more usable CPUs (``usable_cpus``), the
    call goes to a one-thread executor whose thread is named ``name``, in
    a copy of the caller's context (so ``np.errstate`` holds there too),
    and ``run`` returns its future.  The executor lives for the ``with``
    block: leaving it, also by an error, cancels the calls not started and
    joins the thread, so no thread outlives the block or crosses a fork.
    With one CPU a second thread only costs handoffs, so ``run`` returns a
    deferred call: it runs on the caller's thread when its ``result()`` is
    asked for, and not at all if it never is."""
    if usable_cpus() < 2:
        yield lambda fn, *args: types.SimpleNamespace(
            result=functools.partial(fn, *args))
        return
    from concurrent.futures import ThreadPoolExecutor

    ctx = contextvars.copy_context()
    pool = ThreadPoolExecutor(1, thread_name_prefix=name)
    try:
        yield lambda fn, *args: pool.submit(ctx.run, fn, *args)
    finally:
        pool.shutdown(cancel_futures=True)


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
            elif f.type == "float":  # any real number is stored as float
                if type(value) is bool or not isinstance(value, Real):
                    raise ConfigError(
                        f"{f.name} must be a real number, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
                object.__setattr__(self, f.name, float(value))
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
        if not (0.0 <= self.energy_gate_threshold < 1.0):
            raise ConfigError("energy_gate_threshold must be in [0, 1)")
        if self.energy_gate_sharpness < 0:
            raise ConfigError("energy_gate_sharpness must be nonnegative")
        if self.window_kind not in ("hann", "rect"):
            raise ConfigError(f"unknown window kind {self.window_kind!r}")

    def to_dict(self) -> dict:  # asdict without its deep copies
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def stable_hash(self) -> str:
        """Platform-stable hash of the configuration (sorted-key JSON)."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
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

    def to_dict(self) -> dict:  # asdict without its deep copies
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


# bytes of a chunk of frames once x-transformed, ``16*H*(W//2 + 1)`` a
# frame: a ``FrameSource`` yields as many frames at once as fit, one at least
CHUNK_BYTES = 1 << 18


# the Python types of each JSON Schema type (an integral float is an integer)
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
               "boolean": (bool,), "number": (int, float), "integer": (int,)}


@functools.cache
def load_schema(name: str) -> dict:
    """The schema file ``name`` shipped under ``sim2spec/schemas``."""
    with open(os.path.join(os.path.dirname(__file__), "schemas", name),
              encoding="utf-8") as fh:
        return json.load(fh)


def check_json(value, schema: dict, name: str = "value") -> None:
    """Raise ``ValueError`` at the first part of the parsed JSON ``value``
    that ``schema`` rejects.  Reads the keywords the shipped schemas use:
    ``type`` (see ``_JSON_TYPES``), ``enum``, ``minimum`` (NaN is below
    none, as in JSON Schema), ``required``, ``properties``,
    ``additionalProperties: false``, ``items``, ``minItems``, ``maxItems``."""
    kind = schema.get("type")
    if kind and type(value) not in _JSON_TYPES[kind] and not (
            kind == "integer" and type(value) is float and value.is_integer()):
        raise ValueError(f"{name} must be of type {kind}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{name} must be in {schema['enum']}, got {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise ValueError(f"{name} must be >= {schema['minimum']}, "
                         f"got {value!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{key} is required")
        for key, item in value.items():
            if key in schema.get("properties", {}):
                check_json(item, schema["properties"][key], key)
            elif schema.get("additionalProperties") is False:
                raise ValueError(f"unexpected key {key!r}")
    if isinstance(value, list):
        if not (schema.get("minItems", 0) <= len(value)
                <= schema.get("maxItems", len(value))):
            raise ValueError(f"{name} has the wrong length, got {value!r}")
        for i, item in enumerate(value):
            check_json(item, schema.get("items", {}), f"{name}[{i}]")


def _frames_per_chunk(h: int, w: int) -> int:
    """Whole ``h x w`` frames in ``CHUNK_BYTES`` once x-transformed (0 when
    one frame alone overflows it)."""
    return CHUNK_BYTES // (16 * h * (w // 2 + 1))


def _read_ahead(chunks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The items of ``chunks``, each read through ``helper`` with three
    reads pending, so the helper does not wait to be asked: the caller
    takes the oldest read's chunk, or raises that chunk's error, and asks
    for the next.  A read the caller leaves early ends the helper, then
    closes ``chunks``."""
    end = object()
    try:
        with helper("sim2spec-read") as run:
            pending = [run(next, chunks, end) for _ in range(3)]
            while (chunk := pending.pop(0).result()) is not end:
                pending.append(run(next, chunks, end))
                yield chunk
    finally:
        chunks.close()


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
    ``read()`` yields the chunks, checks what it reads and feeds the digest
    given to ``open``.  A read opens the files it reads and closes them, so
    a source can be read again, and each read feeds the digest again."""

    shape: tuple
    read: Callable[[], Iterator[np.ndarray]]

    def chunks(self) -> Iterator[np.ndarray]:
        """The chunks of ``read()``, each checked against ``shape``: a
        frame of another shape, or more or fewer than ``shape[0]`` frames
        in all, is a ``FormatError``.  Leaving early closes the read."""
        t_n, h, w = self.shape
        read, t0 = self.read(), 0
        try:
            for chunk in read:
                if chunk.shape[1:] != (h, w):
                    raise FormatError(f"read a chunk of shape {chunk.shape}, "
                                      f"frames of the window are {h}x{w}")
                t0 += len(chunk)
                if t0 > t_n:
                    raise FormatError(f"read more than the {t_n} frames of "
                                      "the window")
                yield chunk
        finally:
            if hasattr(read, "close"):
                read.close()
        if t0 != t_n:
            raise FormatError(f"read {t0} of the {t_n} frames of the window")

    @classmethod
    def _of_reader(cls, shape: tuple, read) -> "FrameSource":
        """The source of a file reader ``read(step)``, its ``step`` set once
        from ``shape``.  Where a frame alone overflows ``CHUNK_BYTES``
        (about 181x181 and up), its read and digest cost about as much as
        its transform, so it is read one frame at a time through
        ``_read_ahead`` (``helper`` decides whether on a second thread).
        On smaller frames a handoff per chunk costs more than it hides."""
        step = _frames_per_chunk(*shape[1:])
        return cls(shape, lambda: read(step) if step else _read_ahead(read(1)))

    @classmethod
    def open(cls, path: str, digest=None) -> "FrameSource":
        """A directory of 8-bit PGM frames (its files, not subdirectories,
        in name order; divided by 255) or a raw float32 file plus its
        ``path + ".json"`` sidecar; the shape comes from the sidecar or
        from the listing and first frame, and a raw payload's size is
        checked on opening.  A ``hashlib`` ``digest`` is fed the bytes as
        they are read: each listed file's name and contents, non-frames
        included, or the payload and then the sidecar.  Where frames are
        too large to share a chunk, each read runs ahead of its caller
        through ``helper`` (``_of_reader``).  The bytes, checks and errors
        are the same either way, in the same order."""
        if os.path.isdir(path):
            names = sorted(e.name for e in os.scandir(path) if e.is_file())
            frames = [os.path.join(path, n) for n in names
                      if n.endswith(".pgm")]
            if not frames:
                raise FormatError(f"no .pgm frames in {path}")
            hw = _parse_pgm(_read_bytes(frames[0], None), frames[0]).shape

            def read_pgm(step):
                batch = []
                for name in names:
                    is_frame = name.endswith(".pgm")
                    if digest is not None:
                        digest.update(name.encode())
                    elif not is_frame:
                        continue
                    file = os.path.join(path, name)
                    blob = _read_bytes(file, digest)
                    if is_frame:
                        if (frame := _parse_pgm(blob, file)).shape != hw:
                            raise FormatError(
                                f"inconsistent frame shapes in {path}: "
                                f"{sorted({hw, frame.shape})}")
                        batch.append(frame)
                    if len(batch) == step:
                        yield np.stack(batch)
                        batch = []
                if batch:
                    yield np.stack(batch)
            return cls._of_reader((len(frames), *hw), read_pgm)

        sidecar = path + ".json"
        if not os.path.exists(path):
            raise FormatError(f"missing raw file: {path}")
        if not os.path.exists(sidecar):
            raise FormatError(f"missing sidecar: {sidecar}")
        meta_blob = _read_bytes(sidecar, None)
        try:
            # exactly the keys T, H, W, each an integer of at least 1
            meta = json.loads(meta_blob.decode("utf-8"))
            check_json(meta, load_schema("sidecar.schema.json"), "sidecar")
        except ValueError as exc:
            raise FormatError(f"bad sidecar {sidecar}: {exc}") from exc
        shape = t, h, w = tuple(int(meta[key]) for key in ("T", "H", "W"))
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
        if size != 4 * t * h * w:
            raise FormatError(f"{path}: sidecar declares T={t} H={h} W={w} "
                              f"({4 * t * h * w} bytes), file holds {size} "
                              "bytes")

        def read_raw(step):
            # each chunk is read into one reused float32 buffer; the
            # sidecar is fed to the digest after the payload
            buf = np.empty((min(step, t), h, w), dtype="<f4")
            try:
                with open(path, "rb") as fh:
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
        return cls._of_reader(shape, read_raw)


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


def load_video(path: str) -> VideoWindow:
    """The window of ``FrameSource.open(path)``, its chunks collected into
    one float64 array as they are read."""
    src = FrameSource.open(path)
    data = np.empty(src.shape)
    t0 = 0
    for chunk in src.chunks():
        data[t0:t0 + len(chunk)] = chunk
        t0 += len(chunk)
    return VideoWindow(data)


def save_video(v: VideoWindow, path: str, format: str = "raw_f32") -> None:
    """Write a window back to disk; raw_f32 round-trips bit-exactly.  A
    pgm_dir that already holds ``.pgm`` frames is a ``FormatError``."""
    if format == "raw_f32":
        v.data.astype("<f4").tofile(path)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"T": v.frames_t, "H": v.height, "W": v.width}, fh)
        return
    if format == "pgm_dir":
        os.makedirs(path, exist_ok=True)
        with os.scandir(path) as entries:
            if any(e.is_file() and e.name.endswith(".pgm") for e in entries):
                raise FormatError(f"{path} already holds .pgm frames")
        pixels = np.clip(np.round(v.data * 255.0), 0, 255).astype(np.uint8)
        for t, frame in enumerate(pixels):
            with open(os.path.join(path, f"frame_{t:04d}.pgm"), "wb") as fh:
                fh.write(b"P5\n%d %d\n255\n" % (v.width, v.height)
                         + frame.tobytes())
        return
    raise FormatError(f"cannot save as {format!r}: use 'raw_f32' or 'pgm_dir'")


def normalize_window(v: VideoWindow) -> VideoWindow:
    """Subtract ``MID_GRAY`` so samples live in [-1/2, 1/2]."""
    return VideoWindow(v.data - MID_GRAY)
