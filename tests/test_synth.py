import math

import numpy as np
import pytest

from sim2spec.core import ConfigError, DegenerateInputError, normalize_window
from sim2spec.spectral import SpectralConfig, signed_bins, spectral_transform
from sim2spec.synth import (MotionSpec, make_base, make_rng, synth_powerlaw,
                            synth_sim2)

RECT = SpectralConfig(window_kind="rect")


def test_static_frames_identical():
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 6, 32, 32)
    for t in range(1, 6):
        assert np.array_equal(clip.data[t], clip.data[0])


def test_translation_exact_is_circular_shift():
    spec = MotionSpec(kind="translation", v=(1.0, 2.0), seed=1)
    clip = synth_sim2("bandpass_noise", spec, 5, 32, 32, exact=True)
    for t in range(5):
        expected = np.roll(clip.data[0], shift=(2 * t, t), axis=(0, 1))
        assert np.array_equal(clip.data[t], expected)


def test_translation_exact_requires_integer_v():
    spec = MotionSpec(kind="translation", v=(0.5, 0.0), seed=1)
    with pytest.raises(ConfigError):
        synth_sim2("checker", spec, 4, 32, 32, exact=True)


def test_rotation_full_turn_closure():
    t_n = 16
    spec = MotionSpec(kind="rotation", omega=2 * math.pi / t_n, seed=5)
    clip = synth_sim2("gaussian_blobs", spec, t_n + 1, 64, 64)
    rms = math.sqrt(float(np.mean((clip.data[t_n] - clip.data[0]) ** 2)))
    assert rms <= 2e-2


def test_translation_exact_energy_on_plane():
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=2)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    s = spectral_transform(normalize_window(clip), RECT)
    e = np.abs(s.coeffs) ** 2
    kt, ky, kx = np.meshgrid(s.freq_t, s.freq_y, s.freq_x, indexing="ij")
    on_plane = (kt + kx) % 32 == 0
    assert e[~on_plane].sum() <= 1e-10 * e.sum()


def test_scale_collapse_rejected():
    spec = MotionSpec(kind="scaling", alpha=0.2, seed=0)
    with pytest.raises(DegenerateInputError, match="scale collapse"):
        synth_sim2("checker", spec, 16, 32, 32)


def test_motion_spec_kind_constraints():
    with pytest.raises(ConfigError):
        MotionSpec(kind="translation", omega=0.1)
    with pytest.raises(ConfigError):
        MotionSpec(kind="rotation", v=(1.0, 0.0), omega=0.1)
    with pytest.raises(ConfigError):
        MotionSpec(kind="nonsense")
    MotionSpec(kind="mixed", v=(1.0, 0.0), omega=0.1, alpha=0.01)


def test_synth_deterministic_per_seed():
    spec = MotionSpec(kind="rotation", omega=0.2, noise_sigma=0.05, seed=77)
    a = synth_sim2("gaussian_blobs", spec, 8, 48, 48)
    b = synth_sim2("gaussian_blobs", spec, 8, 48, 48)
    assert np.array_equal(a.data, b.data)
    c = synth_sim2("gaussian_blobs",
                   MotionSpec(kind="rotation", omega=0.2, noise_sigma=0.05,
                              seed=78), 8, 48, 48)
    assert not np.array_equal(a.data, c.data)


def test_powerlaw_deterministic():
    a = synth_powerlaw(8, 64, 64, 1.8, 123)
    b = synth_powerlaw(8, 64, 64, 1.8, 123)
    assert np.array_equal(a.data, b.data)


def test_powerlaw_range():
    v = synth_powerlaw(8, 64, 64, 1.8, 5)
    assert v.data.min() >= 0.0 and v.data.max() <= 1.0


@pytest.mark.parametrize("shape", [(16, 224, 224), (5, 7, 9), (3, 33, 47)])
def test_powerlaw_matches_complex_fft_construction(shape):
    """The half-spectrum (rfftn/irfftn) shaping equals shaping the full
    complex spectrum of the same noise and keeping the real part."""
    t_n, h, w = shape
    kappa, seed = 1.8, 77
    noise = make_rng(seed).standard_normal(shape)

    def axis_radius(n):
        return np.fft.fftfreq(n) * n / ((n - 1) / 2.0)

    r2 = (axis_radius(t_n)[:, None, None] ** 2
          + axis_radius(h)[None, :, None] ** 2
          + axis_radius(w)[None, None, :] ** 2)
    amp = np.zeros_like(r2)
    amp[r2 > 0] = r2[r2 > 0] ** (-kappa / 2.0)
    oracle = np.fft.ifftn(np.fft.fftn(noise) * amp).real
    oracle = (oracle - oracle.min()) / (oracle.max() - oracle.min())
    clip = synth_powerlaw(t_n, h, w, kappa, seed)
    assert np.abs(clip.data - oracle).max() <= 1e-12


def test_powerlaw_radial_slope():
    """Log-log regression of shell-averaged energy vs dimensionless radius
    recovers the -2 kappa exponent over mid frequencies."""
    kappa = 1.8
    t_n = h = w = 48
    acc = None
    for seed in range(4):
        clip = synth_powerlaw(t_n, h, w, kappa, 900 + seed)
        s = spectral_transform(normalize_window(clip), RECT)
        e = np.abs(s.coeffs) ** 2
        acc = e if acc is None else acc + e
    scale = (t_n - 1) / 2.0
    ut = (s.freq_t / scale)[:, None, None]
    uy = (s.freq_y / scale)[None, :, None]
    ux = (s.freq_x / scale)[None, None, :]
    r = np.sqrt(ut ** 2 + uy ** 2 + ux ** 2).ravel()
    ev = acc.ravel()
    edges = np.geomspace(0.15, 0.8, 12)
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (r >= lo) & (r < hi)
        if sel.sum() > 30:
            xs.append(math.log(math.sqrt(lo * hi)))
            ys.append(math.log(ev[sel].mean()))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - (-2 * kappa)) <= 0.2


def test_base_kinds_band_limited():
    # base spectra must survive the 0.3 low-pass: most energy inside the cube
    from sim2spec.spectral import measured_retention
    from sim2spec.core import VideoWindow
    for kind in ("checker", "gaussian_blobs", "bandpass_noise"):
        base = make_base(kind, 64, 64, make_rng(3))
        clip = VideoWindow.from_array(
            np.broadcast_to(base[None], (4, 64, 64)).copy())
        s = spectral_transform(normalize_window(clip), RECT)
        assert measured_retention(s, 0.3) >= 0.95, kind


def test_unknown_base_rejected():
    with pytest.raises(ConfigError):
        make_base("plasma", 32, 32, make_rng(0))
