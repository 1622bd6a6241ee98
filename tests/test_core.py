import importlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sim2spec.core import (NUMERIC_EPS, ConfigError,
                           FormatError, MotionEstimate, SpectralConfig,
                           VideoWindow, load_video, normalize_window,
                           save_video)
from sim2spec.gates import OBS_GATE_LAMBDA
from sim2spec.resample import SOFT_RING_EDGE


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
    assert NUMERIC_EPS == 1e-8
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
])
def test_config_invariants(kw):
    with pytest.raises(ConfigError):
        SpectralConfig(**kw)


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


def test_config_hash_stable():
    a = SpectralConfig()
    b = SpectralConfig()
    assert a.stable_hash() == b.stable_hash()
    assert a.stable_hash() != SpectralConfig(rings=16).stable_hash()


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
