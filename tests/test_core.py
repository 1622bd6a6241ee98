import builtins
import contextlib
import hashlib
import importlib
import json
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sim2spec import core
from sim2spec.core import (ConfigError, FormatError, FrameSource,
                           MotionEstimate, SpectralConfig, VideoWindow,
                           load_video, normalize_window, save_video)
from sim2spec.gates import OBS_GATE_LAMBDA
from sim2spec.resample import SOFT_RING_EDGE

from conftest import usable_cpus


def test_raw_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.random((8, 32, 32)).astype(np.float32).astype(np.float64)
    v = VideoWindow(data)
    path = str(tmp_path / "clip.raw")
    save_video(v, path)
    back = load_video(path)
    assert back.shape == (8, 32, 32)
    assert np.array_equal(back.data, v.data)


def test_pgm_dir_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(16, 64, 64)) / 255.0
    v = VideoWindow(data)
    d = str(tmp_path / "frames")
    save_video(v, d, "pgm_dir")
    back = load_video(d)
    assert back.shape == (16, 64, 64)
    assert np.allclose(back.data, v.data, atol=0.5 / 255)


def test_pgm_dir_with_frames_rejected(tmp_path):
    # writing a shorter clip over old frames would read back longer and
    # mixed; the old frames stay as they were
    d = str(tmp_path / "frames")
    save_video(VideoWindow(np.full((6, 8, 8), 0.2)), d, "pgm_dir")
    with pytest.raises(FormatError, match="already holds .pgm frames"):
        save_video(VideoWindow(np.full((3, 8, 8), 0.8)), d, "pgm_dir")
    back = load_video(d)
    assert back.shape == (6, 8, 8)
    assert np.allclose(back.data, 0.2, atol=0.5 / 255)


def test_raw_sidecar_shapes(tmp_path):
    data = np.zeros((8, 32, 32), dtype="<f4")
    path = tmp_path / "c.raw"
    data.tofile(path)
    (tmp_path / "c.raw.json").write_text(json.dumps({"T": 8, "H": 32, "W": 32}))
    v = load_video(str(path))
    assert v.shape == (8, 32, 32)


def test_raw_sidecar_mismatch(tmp_path):
    data = np.zeros((7, 32, 32), dtype="<f4")
    path = tmp_path / "c.raw"
    data.tofile(path)
    (tmp_path / "c.raw.json").write_text(json.dumps({"T": 8, "H": 32, "W": 32}))
    with pytest.raises(FormatError):
        load_video(str(path))
    # negative dims whose product matches the payload size
    (tmp_path / "c.raw.json").write_text(
        json.dumps({"T": -1, "H": -1, "W": 7 * 32 * 32}))
    with pytest.raises(FormatError):
        load_video(str(path))


def test_raw_trailing_bytes_rejected(tmp_path):
    from sim2spec.cli import main
    path = tmp_path / "c.raw"
    path.write_bytes(np.zeros((2, 3, 4), dtype="<f4").tobytes() + b"\0\0\0")
    (tmp_path / "c.raw.json").write_text(json.dumps({"T": 2, "H": 3, "W": 4}))
    with pytest.raises(FormatError, match="96 bytes.*99 bytes"):
        load_video(str(path))
    assert main(["analyze", str(path)]) == 2


# the last held size is four 256x256 float32 frames and 8 bytes
@pytest.mark.parametrize("held", [0, 6, 4 * 4 * 256 * 256 + 8])
def test_raw_payload_short_after_size_check(held, tmp_path, monkeypatch,
                                            capsys):
    # the size check passes but the payload ends early, in the first or a
    # later chunk of the read (one 256x256 frame per chunk)
    from sim2spec.cli import main
    shape = (5, 256, 256)
    path = tmp_path / "c.raw"
    path.write_bytes(bytes(held))
    (tmp_path / "c.raw.json").write_text(
        json.dumps(dict(zip("THW", shape))))
    monkeypatch.setattr(os.path, "getsize",
                        lambda p: 4 * int(np.prod(shape)))
    with pytest.raises(FormatError, match=re.escape(f"{path}: payload ended")):
        load_video(str(path))
    assert main(["analyze", str(path)]) == 2
    assert f"{path}: payload ended" in capsys.readouterr().err


def test_corrupt_pgm_names_frame(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    (d / "frame_0000.pgm").write_bytes(b"P5\n4 4\n255\nshort")
    with pytest.raises(FormatError, match="frame_0000"):
        load_video(str(d))
    # a header that ends the file, with no byte after maxval
    (d / "frame_0000.pgm").write_bytes(b"P5\n4 4\n255")
    with pytest.raises(FormatError, match="frame_0000.*truncated"):
        load_video(str(d))


def test_empty_pgm_frames_rejected(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    for t in range(2):
        (d / f"frame_{t:04d}.pgm").write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(FormatError):
        load_video(str(d))
    # negative dims: the payload-size check passes, the reshape would not
    for t in range(2):
        (d / f"frame_{t:04d}.pgm").write_bytes(b"P5\n-4 -4\n255\n"
                                               + bytes(64))
    with pytest.raises(FormatError, match="frame_0000"):
        load_video(str(d))


def test_missing_path_errors(tmp_path):
    with pytest.raises(FormatError):
        load_video(str(tmp_path / "nope.raw"))
    with pytest.raises(FormatError):
        load_video(str(tmp_path / "nope"))


# 192x200 frames overflow CHUNK_BYTES once x-transformed, so a file source
# reads them one chunk ahead on a reader thread when two CPUs are usable;
# 32x32 frames share a chunk and are read directly
AHEAD, DIRECT = (3, 192, 200), (4, 32, 32)


class ThreadDigest:
    """A sha256 that records which threads fed it."""

    def __init__(self):
        self.sha, self.threads = hashlib.sha256(), set()

    def update(self, blob):
        self.threads.add(threading.get_ident())
        self.sha.update(blob)


def raw_and_pgm(tmp_path, shape):
    """A window of 8-bit values saved as a raw float32 file and as a PGM
    directory (with one file in it not a frame)."""
    data = np.random.default_rng(3).integers(0, 256, size=shape) / 255.0
    raw, pgm = str(tmp_path / "c.raw"), str(tmp_path / "frames")
    v = VideoWindow(data)
    save_video(v, raw)
    save_video(v, pgm, "pgm_dir")
    (tmp_path / "frames" / "notes.txt").write_bytes(b"not a frame\n")
    return data, raw, pgm


@pytest.mark.parametrize("shape", [AHEAD, DIRECT])
def test_read_ahead_matches_direct_read(shape, tmp_path, monkeypatch):
    # with two CPUs and large frames the reader thread feeds the digest;
    # the chunks, digest and report are those of the direct read
    from sim2spec.cli import main
    data, raw, pgm = raw_and_pgm(tmp_path, shape)
    out = str(tmp_path / "rep.json")
    for path in (raw, pgm):
        runs = []
        for cpus in ((0, 1), (0,)):
            usable_cpus(monkeypatch, cpus)
            digest = ThreadDigest()
            chunks = list(FrameSource.open(path, digest).chunks())
            assert main(["analyze", path, "--json", out]) == 0
            with open(out) as fh:
                payload = json.load(fh)
            runs.append((chunks, digest, payload["manifest"]["inputs"],
                         payload["report"]))
        (ahead, d2, in2, rep2), (direct, d1, in1, rep1) = runs
        assert len(ahead) == len(direct) == (shape[0] if shape == AHEAD
                                             else 1)
        for a, b in zip(ahead, direct):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)
        assert np.array_equal(np.concatenate(ahead),
                              data.astype("<f4") if path == raw else data)
        assert d2.sha.hexdigest() == d1.sha.hexdigest()
        assert (in2, rep2) == (in1, rep1)
        assert d1.threads == {threading.get_ident()}
        if shape == AHEAD:
            assert threading.get_ident() not in d2.threads
        else:
            assert d2.threads == {threading.get_ident()}


def test_one_cpu_and_in_memory_read_directly(tmp_path, monkeypatch):
    # one usable CPU (by affinity, or by count where there is no affinity)
    # reads large frames on the calling thread; views never read ahead
    data, raw, _ = raw_and_pgm(tmp_path, AHEAD)
    usable_cpus(monkeypatch, (0,))
    digest = ThreadDigest()
    list(FrameSource.open(raw, digest).chunks())
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    list(FrameSource.open(raw, digest).chunks())
    assert digest.threads == {threading.get_ident()}
    usable_cpus(monkeypatch, (0, 1))
    v = VideoWindow(data)
    assert all(np.shares_memory(c, v.data) for c in v.chunks())


def test_helper_on_one_cpu_defers_each_call_to_its_result(monkeypatch):
    # no thread starts; each call runs on the caller's thread when its
    # result is asked for, and raises there
    usable_cpus(monkeypatch, (0,))
    calls, threads = [], threading.active_count()

    def call(x):
        calls.append((x, threading.get_ident()))
        if x == "bad":
            raise ValueError("call failed")
        return x

    with core.helper("sim2spec-test") as run:
        first, second, bad = run(call, 1), run(call, 2), run(call, "bad")
        assert calls == [] and threading.active_count() == threads
        assert second.result() == 2 and first.result() == 1
        assert calls == [(2, threading.get_ident()),
                         (1, threading.get_ident())]
        with pytest.raises(ValueError, match="call failed"):
            bad.result()
        run(call, 3)
    assert len(calls) == 3 and threading.active_count() == threads


@pytest.mark.parametrize("fail", [False, True])
def test_helper_on_two_cpus_runs_on_a_named_thread(fail, monkeypatch):
    # each call runs on a thread named by the helper's name, and the thread
    # is joined when the block ends, also when the block raises
    usable_cpus(monkeypatch, (0, 1))
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with core.helper("sim2spec-test") as run:
            name = run(lambda: threading.current_thread().name).result()
            started = set(threading.enumerate()) - before
            if fail:
                raise RuntimeError("block failed")
    assert name.split("_")[0] == "sim2spec-test"
    assert [t.name for t in started] == [name]
    assert not any(t.is_alive() for t in started)
    assert set(threading.enumerate()) == before


def test_usable_cpus_reads_affinity_else_count(monkeypatch):
    usable_cpus(monkeypatch, (0, 3, 5))
    assert core.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert core.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core.usable_cpus() == 1


def test_table_keys_arrays_by_dtype_shape_and_contents():
    builds = []

    @core.table
    def build(grid, n):
        builds.append(grid)
        return grid * n, (np.ones(n), n)

    grid = np.arange(3)
    out = build(grid, 2)
    assert build(grid.copy(), 2) is out
    for other in (grid.astype(float), grid.reshape(3, 1), grid + 1):
        assert build(other, 2) is not out
    assert len(builds) == 4
    # the builder reads a read-only copy, so the caller's array stays its
    # own and a later write to it leaves the table as built
    assert not builds[0].flags.writeable
    assert not np.shares_memory(builds[0], grid)
    grid[0] = 7
    assert np.array_equal(out[0], [0, 2, 4])
    for arr in (out[0], out[1][0]):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert build.cache_info().maxsize == core.TABLE_CACHE_SIZE


def read_until_error(path):
    """The number of chunks read before the ``FormatError``, and its text."""
    done = 0
    with pytest.raises(FormatError) as err:
        for _ in FrameSource.open(path, hashlib.sha256()).chunks():
            done += 1
    return done, str(err.value)


@pytest.mark.parametrize("fault", ["nan_last_frame", "short_payload",
                                   "pgm_shape"])
def test_read_ahead_errors_match_direct_read(fault, tmp_path, monkeypatch,
                                             capsys):
    # each error is raised at the chunk it belongs to, with the direct
    # read's text, and analyze exits 2 with it
    from sim2spec.cli import main
    data, raw, pgm = raw_and_pgm(tmp_path, AHEAD)
    path = raw
    if fault == "nan_last_frame":
        bad = data.astype("<f4")
        bad[-1, 5, 7] = np.nan
        bad.tofile(raw)
    elif fault == "short_payload":
        data[:1].astype("<f4").tofile(raw)
        size = data.size * 4
        monkeypatch.setattr(os.path, "getsize", lambda p: size)
    else:
        path = pgm
        (tmp_path / "frames" / "frame_0002.pgm").write_bytes(
            b"P5\n199 192\n255\n" + bytes(192 * 199))
    runs = []
    for cpus in ((0, 1), (0,)):
        usable_cpus(monkeypatch, cpus)
        runs.append(read_until_error(path))
        assert main(["analyze", path]) == 2
        assert runs[-1][1] in capsys.readouterr().err
    assert runs[0] == runs[1]
    assert runs[0][0] == {"nan_last_frame": 2, "short_payload": 1,
                          "pgm_shape": 2}[fault]


@pytest.mark.parametrize("stop", [StopIteration, RuntimeError])
def test_abandoned_read_ahead_closes_its_files(stop, tmp_path, monkeypatch):
    # leaving after the first chunk, by a break or an exception, waits for
    # the chunk in flight: every file is closed and the reader thread ended
    _, raw, pgm = raw_and_pgm(tmp_path, AHEAD)
    usable_cpus(monkeypatch, (0, 1))
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(core, "open", tracked_open, raising=False)
    threads = threading.active_count()
    for path in (raw, pgm):
        digest = ThreadDigest()
        try:
            for _ in FrameSource.open(path, digest).chunks():
                if stop is StopIteration:
                    break
                raise stop("caller failed")
        except RuntimeError:
            pass
        assert threading.get_ident() not in digest.threads
        assert opened and all(fh.closed for fh in opened)
        assert threading.active_count() == threads


def counting_chunks(n, produced, closed):
    """``n`` one-sample chunks, each recorded in ``produced`` as it is made;
    on closing, the closing thread and the live thread count go to
    ``closed``."""
    try:
        for i in range(n):
            produced.append(i)
            yield np.full(1, float(i))
    finally:
        closed.append((threading.get_ident(), threading.active_count()))


def wait_until(done, timeout=10.0):
    """Poll ``done()`` until it is true or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not done() and time.monotonic() < deadline:
        time.sleep(0.001)


def test_read_ahead_fills_its_queue_unasked(monkeypatch):
    # once the first chunk is taken, the executor reads the three chunks
    # pending after it, without being asked; never more
    usable_cpus(monkeypatch, (0, 1))
    threads = threading.active_count()
    produced, closed = [], []
    read = core._read_ahead(counting_chunks(8, produced, closed))
    assert next(read)[0] == 0.0
    wait_until(lambda: len(produced) >= 4)
    time.sleep(0.05)
    assert len(produced) == 4
    assert [next(read)[0] for _ in range(7)] == [1.0, 2.0, 3.0, 4.0, 5.0,
                                                 6.0, 7.0]
    assert next(read, None) is None
    assert len(closed) == 1 and threading.active_count() == threads


def test_closed_read_ahead_ends_its_thread(monkeypatch):
    # with three reads done and the executor's thread idle, close() on the
    # outer iterator cancels the pending reads and shuts the executor down,
    # and only then closes the inner read, on the closing thread
    usable_cpus(monkeypatch, (0, 1))
    threads = threading.active_count()
    produced, closed = [], []
    read = core._read_ahead(counting_chunks(8, produced, closed))
    next(read)
    wait_until(lambda: len(produced) >= 4)
    assert threading.active_count() == threads + 1
    closer = threading.Thread(target=read.close, daemon=True)
    closer.start()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert threading.active_count() == threads
    assert closed == [(closer.ident, threads + 1)]
    assert len(produced) == 4


def test_read_ahead_under_fast_switching(monkeypatch):
    # more callers than cores, each reading or leaving early, with the
    # interpreter switching threads every few microseconds: every read
    # yields its chunks in order, is closed once and ends its thread
    usable_cpus(monkeypatch, (0, 1))
    threads, interval = threading.active_count(), sys.getswitchinterval()
    failures = []

    def caller(k):
        for n in range(30):
            produced, closed = [], []
            stop_at = (n * 7 + k) % 25
            got = []
            for chunk in core._read_ahead(counting_chunks(20, produced,
                                                          closed)):
                got.append(chunk[0])
                if len(got) == stop_at:
                    break
            if got != [float(i) for i in range(len(got))] or (
                    len(got) != min(stop_at or 20, 20)) or len(closed) != 1:
                failures.append((k, n, got, closed))

    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,), daemon=True)
                   for k in range(4)]
        for c in callers:
            c.start()
        deadline = time.monotonic() + 60.0
        for c in callers:
            c.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert failures == []
    assert threading.active_count() == threads


def collect(src):
    """The chunks of ``src`` written into one array, as ``load_video``
    collects them."""
    data, t0 = np.empty(src.shape), 0
    for chunk in src.chunks():
        data[t0:t0 + len(chunk)] = chunk
        t0 += len(chunk)
    return data


@pytest.mark.parametrize("frames, match", [
    ((8, 30, 30), "frames of the window are 32x32"),
    ((6, 32, 32), "read 6 of the 8 frames"),
    ((10, 32, 32), "more than the 8 frames")])
def test_source_chunks_checked_against_shape(frames, match):
    # a reader whose frames differ from the source's shape, or that yields
    # fewer or more frames than it declares, fails however it is read
    from sim2spec.losses import analyze
    from sim2spec.spectral import cube_retention
    data = np.random.default_rng(1).random(frames)
    src = FrameSource((8, 32, 32), lambda: (
        data[t:t + 4] for t in range(0, len(data), 4)))
    for read in (analyze, lambda s: cube_retention(s, SpectralConfig()),
                 collect):
        with pytest.raises(FormatError, match=match):
            read(src)


@pytest.mark.parametrize("cpus", [(0,), (0, 1)])
def test_pgm_shape_mismatch_holds_few_frames(cpus, tmp_path, monkeypatch):
    # the read stops at the first frame of another shape: it parses the
    # first frame on opening, then frames 0 and 1, and holds a few frames
    d = tmp_path / "frames"
    d.mkdir()
    for t in range(40):
        h = 200 if t == 1 else 256
        (d / f"frame_{t:04d}.pgm").write_bytes(
            b"P5\n256 %d\n255\n" % h + bytes(256 * h))
    usable_cpus(monkeypatch, cpus)
    parsed, parse = [], core._parse_pgm

    def counted_parse(blob, path):
        parsed.append(path)
        return parse(blob, path)

    monkeypatch.setattr(core, "_parse_pgm", counted_parse)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError,
                           match=r"\[\(200, 256\), \(256, 256\)\]"):
            for _ in FrameSource.open(str(d)).chunks():
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 frame is 0.5 MB; an earlier read held all 39 after it
    assert peak < 6 * 256 * 256 * 8
    # an earlier read parsed all 40 frames after the open, for their shapes
    assert len(parsed) <= 3


def test_normalize_constant_half():
    v = VideoWindow(np.full((2, 4, 4), 0.5))
    out = normalize_window(v)
    assert np.all(out.data == 0.0)


def test_normalize_ones():
    v = VideoWindow(np.ones((2, 4, 4)))
    assert np.all(normalize_window(v).data == 0.5)


def test_normalize_checkerboard():
    y, x = np.mgrid[0:4, 0:4]
    board = ((y + x) % 2).astype(float)
    v = VideoWindow(np.stack([board, board]))
    out = normalize_window(v).data
    assert set(np.unique(out)) == {-0.5, 0.5}


@given(st.integers(0, 2 ** 31))
def test_normalize_shift_identity(seed):
    rng = np.random.default_rng(seed)
    v = VideoWindow(rng.random((2, 3, 3)))
    once = normalize_window(v)
    again = normalize_window(VideoWindow(once.data + 0.5))
    assert np.allclose(once.data, again.data)


def test_multichannel_reduced_by_average():
    rgb = np.zeros((2, 4, 4, 3))
    rgb[..., 0] = 1.0
    v = VideoWindow(rgb)
    assert v.shape == (2, 4, 4)
    assert np.allclose(v.data, 1.0 / 3.0)


@pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4, 3, 1), (0, 4, 4),
                                   (2, 0, 4)])
def test_video_window_rejects_bad_shapes(shape):
    with pytest.raises(FormatError):
        VideoWindow(np.zeros(shape))


def test_nonfinite_rejected():
    bad = np.zeros((2, 4, 4))
    bad[1, 2, 2] = np.nan
    with pytest.raises(FormatError):
        VideoWindow(bad)


def test_video_window_immutable():
    v = VideoWindow(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0


def test_config_defaults_match_fixed_values():
    cfg = SpectralConfig()
    assert cfg.lowpass_ratio == 0.3
    assert cfg.rings == 20
    assert cfg.angular_bins == 24
    assert cfg.logradius_bins == 24
    assert cfg.band_tolerance == 1
    assert cfg.ridge == 1e-3
    assert cfg.energy_gate_threshold == 0.10
    assert cfg.energy_gate_sharpness == 10.0
    assert cfg.softmax_temperature == 0.1
    assert cfg.window_kind == "hann"
    # fixed numerics, not configuration
    assert OBS_GATE_LAMBDA == 1.0
    assert SOFT_RING_EDGE == 20.0


@pytest.mark.parametrize("kw", [
    {"lowpass_ratio": 0.0}, {"lowpass_ratio": 1.5}, {"rings": 1},
    {"angular_bins": 3}, {"logradius_bins": 2}, {"band_tolerance": 0},
    {"ridge": -1.0}, {"softmax_temperature": 0.0},
    {"window_kind": "blackman"},
    {"ridge": float("nan")}, {"ridge": float("inf")},
    {"softmax_temperature": float("nan")},
    {"softmax_temperature": float("inf")},
    {"energy_gate_threshold": float("nan")},
    {"energy_gate_threshold": float("inf")},
    {"energy_gate_sharpness": float("nan")},
    {"energy_gate_sharpness": float("-inf")},
    {"lowpass_ratio": float("nan")},
    # an inverted gate (the loudest bins weighted least), and thresholds
    # that flag every slice or none
    {"energy_gate_sharpness": -10.0}, {"energy_gate_sharpness": -1e-9},
    {"energy_gate_threshold": 7.0}, {"energy_gate_threshold": 1.0},
    {"energy_gate_threshold": -0.1},
])
def test_config_invariants(kw):
    with pytest.raises(ConfigError):
        SpectralConfig(**kw)


def test_config_gate_edges_accepted():
    # a flat gate and a threshold of zero are in range
    cfg = SpectralConfig(energy_gate_sharpness=0.0, energy_gate_threshold=0.0)
    assert (cfg.energy_gate_sharpness, cfg.energy_gate_threshold) == (0, 0)


@pytest.mark.parametrize("name", ["rings", "angular_bins", "logradius_bins",
                                  "band_tolerance"])
def test_config_integer_fields(name):
    value = getattr(SpectralConfig(), name) + 4
    for bad in (value + 0.5, float(value), True):
        with pytest.raises(ConfigError, match="must be an integer"):
            SpectralConfig(**{name: bad})
    cfg = SpectralConfig(**{name: np.int64(value)})
    assert type(getattr(cfg, name)) is int
    assert cfg.stable_hash() == SpectralConfig(**{name: value}).stable_hash()


@pytest.mark.parametrize("name, whole", [
    ("lowpass_ratio", 1), ("ridge", 0), ("energy_gate_threshold", 0),
    ("energy_gate_sharpness", 3), ("softmax_temperature", 2)])
def test_config_float_fields(name, whole):
    # any real number but a bool is stored as the equal Python float
    value = getattr(SpectralConfig(), name)
    for real in (np.float32(value), np.float64(value), whole):
        cfg = SpectralConfig(**{name: real})
        assert type(getattr(cfg, name)) is float
        assert (cfg.stable_hash() ==
                SpectralConfig(**{name: float(real)}).stable_hash())
    for bad in (True, "0.3", None):
        with pytest.raises(ConfigError, match="must be a real number"):
            SpectralConfig(**{name: bad})


def test_config_hash_stable():
    a = SpectralConfig()
    b = SpectralConfig()
    assert a.stable_hash() == b.stable_hash()
    assert a.stable_hash() != SpectralConfig(rings=16).stable_hash()


def test_config_hash_pinned():
    assert SpectralConfig().stable_hash() == "779267435a6357fa"
    assert SpectralConfig(ridge=0).stable_hash() == "7b63af156ffecd55"
    assert SpectralConfig(ridge=0.0).stable_hash() == "7b63af156ffecd55"


@pytest.mark.parametrize("value", [
    SpectralConfig(), SpectralConfig(rings=12, window_kind="rect"),
    MotionEstimate(), MotionEstimate(0.5, -1.0, 0.25, -0.01, 2.0)])
def test_to_dict_is_asdict(value):
    assert list(value.to_dict().items()) == list(asdict(value).items())


def test_motion_estimate_rejects_nonfinite():
    with pytest.raises(ConfigError):
        MotionEstimate(v_x=float("nan"))


EXPORTING_MODULES = ("sim2spec", "sim2spec.core", "sim2spec.bounds",
                     "sim2spec.spectral", "sim2spec.losses",
                     "sim2spec.resample", "sim2spec.gates", "sim2spec.synth")


@pytest.mark.parametrize("qualified", [
    f"{mod}.{name}" for mod in EXPORTING_MODULES
    for name in getattr(importlib.import_module(mod), "__all__", ())])
def test_all_names_resolve(qualified):
    mod, name = qualified.rsplit(".", 1)
    assert hasattr(importlib.import_module(mod), name), qualified
