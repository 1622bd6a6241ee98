import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sim2spec.core import (ConfigError, FormatError, MotionEstimate,
                           SpectralConfig, VideoWindow, load_video,
                           normalize_window, save_video)


def test_raw_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.random((8, 32, 32)).astype(np.float32).astype(np.float64)
    v = VideoWindow(8, 32, 32, data)
    path = str(tmp_path / "clip.raw")
    save_video(v, path)
    back = load_video(path, "raw_f32")
    assert back.shape == (8, 32, 32)
    assert np.array_equal(back.data, v.data)


def test_pgm_dir_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(16, 64, 64)) / 255.0
    v = VideoWindow(16, 64, 64, data)
    d = str(tmp_path / "frames")
    save_video(v, d, "pgm_dir")
    back = load_video(d, "pgm_dir")
    assert back.shape == (16, 64, 64)
    assert np.allclose(back.data, v.data, atol=0.5 / 255)


def test_raw_sidecar_shapes(tmp_path):
    data = np.zeros((8, 32, 32), dtype="<f4")
    path = tmp_path / "c.raw"
    data.tofile(path)
    (tmp_path / "c.raw.json").write_text(json.dumps({"T": 8, "H": 32, "W": 32}))
    v = load_video(str(path), "raw_f32")
    assert v.shape == (8, 32, 32)


def test_raw_sidecar_mismatch(tmp_path):
    data = np.zeros((7, 32, 32), dtype="<f4")
    path = tmp_path / "c.raw"
    data.tofile(path)
    (tmp_path / "c.raw.json").write_text(json.dumps({"T": 8, "H": 32, "W": 32}))
    with pytest.raises(FormatError):
        load_video(str(path), "raw_f32")
    # negative dims whose product matches the payload size
    (tmp_path / "c.raw.json").write_text(
        json.dumps({"T": -1, "H": -1, "W": 7 * 32 * 32}))
    with pytest.raises(FormatError):
        load_video(str(path), "raw_f32")


def test_corrupt_pgm_names_frame(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    (d / "frame_0000.pgm").write_bytes(b"P5\n4 4\n255\nshort")
    with pytest.raises(FormatError, match="frame_0000"):
        load_video(str(d), "pgm_dir")


def test_empty_pgm_frames_rejected(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    for t in range(2):
        (d / f"frame_{t:04d}.pgm").write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(FormatError):
        load_video(str(d), "pgm_dir")


def test_missing_path_errors(tmp_path):
    with pytest.raises(FormatError):
        load_video(str(tmp_path / "nope.raw"), "raw_f32")
    with pytest.raises(FormatError):
        load_video(str(tmp_path / "nope"), "pgm_dir")


def test_normalize_constant_half():
    v = VideoWindow.from_array(np.full((2, 4, 4), 0.5))
    out = normalize_window(v)
    assert np.all(out.data == 0.0)


def test_normalize_ones():
    v = VideoWindow.from_array(np.ones((2, 4, 4)))
    assert np.all(normalize_window(v).data == 0.5)


def test_normalize_checkerboard():
    y, x = np.mgrid[0:4, 0:4]
    board = ((y + x) % 2).astype(float)
    v = VideoWindow.from_array(np.stack([board, board]))
    out = normalize_window(v).data
    assert set(np.unique(out)) == {-0.5, 0.5}


@given(st.integers(0, 2 ** 31))
def test_normalize_shift_identity(seed):
    rng = np.random.default_rng(seed)
    v = VideoWindow.from_array(rng.random((2, 3, 3)))
    once = normalize_window(v)
    again = normalize_window(VideoWindow.from_array(once.data + 0.5))
    assert np.allclose(once.data, again.data)


def test_multichannel_reduced_by_average():
    rgb = np.zeros((2, 4, 4, 3))
    rgb[..., 0] = 1.0
    v = VideoWindow.from_array(rgb)
    assert v.shape == (2, 4, 4)
    assert np.allclose(v.data, 1.0 / 3.0)


def test_nonfinite_rejected():
    bad = np.zeros((2, 4, 4))
    bad[1, 2, 2] = np.nan
    with pytest.raises(FormatError):
        VideoWindow.from_array(bad)


def test_video_window_immutable():
    v = VideoWindow.from_array(np.zeros((2, 4, 4)))
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
    assert cfg.numeric_eps == 1e-8
    assert cfg.energy_gate_threshold == 0.10
    assert cfg.energy_gate_sharpness == 10.0
    assert cfg.obs_gate == 1.0
    assert cfg.softmax_temperature == 0.1
    assert cfg.soft_ring_edge == 20.0
    assert cfg.window_kind == "hann"


@pytest.mark.parametrize("kw", [
    {"lowpass_ratio": 0.0}, {"lowpass_ratio": 1.5}, {"rings": 1},
    {"angular_bins": 3}, {"logradius_bins": 2}, {"band_tolerance": 0},
    {"ridge": -1.0}, {"numeric_eps": 0.0}, {"softmax_temperature": 0.0},
    {"window_kind": "blackman"},
])
def test_config_invariants(kw):
    with pytest.raises(ConfigError):
        SpectralConfig(**kw)


def test_config_hash_stable():
    a = SpectralConfig()
    b = SpectralConfig()
    assert a.stable_hash() == b.stable_hash()
    assert a.stable_hash() != SpectralConfig(rings=16).stable_hash()


def test_motion_estimate_rejects_nonfinite():
    with pytest.raises(ConfigError):
        MotionEstimate(v_x=float("nan"))
