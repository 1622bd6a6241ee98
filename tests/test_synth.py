import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from sim2spec.core import ConfigError, DegenerateInputError, normalize_window
from sim2spec.spectral import SpectralConfig, signed_bins, spectral_transform
from sim2spec import synth
from sim2spec.synth import (MotionSpec, make_base, make_rng, synth_powerlaw,
                            synth_sim2)

from conftest import usable_cpus

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


def test_translation_exact_matches_stacked_rolls():
    spec = MotionSpec(kind="translation", v=(3.0, -2.0), noise_sigma=0.01,
                      seed=4)
    clip = synth_sim2("bandpass_noise", spec, 6, 20, 28, exact=True)
    rng = make_rng(4)
    base = make_base("bandpass_noise", 20, 28, rng, taper=False)
    ref = np.stack([np.roll(base, shift=(-2 * t, 3 * t), axis=(0, 1))
                    for t in range(6)])
    ref = np.clip(ref + 0.01 * rng.standard_normal(ref.shape), 0.0, 1.0)
    assert np.array_equal(clip.data, ref)


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


@pytest.mark.parametrize("field, kw", [
    ("v", {"kind": "translation", "v": (math.nan, 0.0)}),
    ("v", {"kind": "mixed", "v": (0.0, -math.inf)}),
    ("omega", {"kind": "rotation", "omega": math.inf}),
    ("alpha", {"kind": "scaling", "alpha": math.nan}),
    ("noise_sigma", {"kind": "static", "noise_sigma": math.nan}),
    ("noise_sigma", {"kind": "static", "noise_sigma": math.inf})])
def test_motion_spec_rejects_non_finite(field, kw):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        MotionSpec(**kw)


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


@pytest.mark.parametrize("shape, kappa, message", [
    # r^(-kappa/2) overflows, and the FFT passes would turn it into NaN
    ((8, 16, 16), 1000, "kappa=1000 overflows float64 on a 8x16x16 clip"),
    # every amplitude underflows to 0, with no warning, and the clip is flat
    ((2, 2, 2), 3000, "kappa=3000 underflows float64 on a 2x2x2 clip"),
])
def test_powerlaw_broken_amplitude_rejected(shape, kappa, message):
    with pytest.raises(ConfigError, match=message):
        synth_powerlaw(*shape, kappa, 0)


@pytest.mark.parametrize("shape", [(16, 224, 224), (5, 7, 9), (3, 33, 47),
                                   (2, 2, 2), (6, 20, 21)])
def test_powerlaw_matches_complex_fft_construction(shape):
    """The clip equals a plain ``rfftn`` -> shape -> ``irfftn`` -> min-max
    construction bit for bit (the in-place axis passes run the same 1-D
    transforms in the same order), and shaping the full complex spectrum
    of the same noise and keeping the real part to 1e-12."""
    t_n, h, w = shape
    kappa, seed = 1.8, 77
    noise = make_rng(seed).standard_normal(shape)

    def axis_radius(n):
        return np.fft.fftfreq(n) * n / ((n - 1) / 2.0)

    def min_max(v):
        return (v - v.min()) / (v.max() - v.min())

    r2 = (axis_radius(t_n)[:, None, None] ** 2
          + axis_radius(h)[None, :, None] ** 2
          + axis_radius(w)[None, None, :] ** 2)
    amp = np.zeros_like(r2)
    amp[r2 > 0] = r2[r2 > 0] ** (-kappa / 2.0)
    clip = synth_powerlaw(t_n, h, w, kappa, seed)
    half = np.fft.irfftn(np.fft.rfftn(noise) * amp[..., :w // 2 + 1],
                         s=shape, axes=(0, 1, 2))
    assert np.array_equal(clip.data, min_max(half))
    full = np.fft.ifftn(np.fft.fftn(noise) * amp).real
    assert np.abs(clip.data - min_max(full)).max() <= 1e-12


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_powerlaw_rejects_non_finite_kappa(kappa):
    # nan and inf used to be blamed on underflow, after the transforms ran
    with pytest.raises(ConfigError,
                       match=r"kappa must be finite and positive \(got"):
        synth_powerlaw(4, 8, 8, kappa, 0)


@pytest.mark.parametrize("cpus", [(0,), (0, 1)])
@pytest.mark.parametrize("shape", [(5, 7, 9), (3, 33, 47), (7, 9, 8),
                                   (2, 3, 2), (16, 224, 224)])
def test_powerlaw_noise_matches_rfftn_on_one_and_two_cpus(shape, cpus,
                                                          monkeypatch):
    """Inline on one CPU and shared with the helper on two, the shaped
    noise is the ``rfftn`` -> shape -> ``irfftn`` construction bit for bit,
    at odd T (a last frame without a pair) and odd H (uneven halves)."""
    usable_cpus(monkeypatch, cpus)
    kappa, seed = 1.8, 41
    noise = make_rng(seed).standard_normal(shape)
    amp = synth._powerlaw_amplitude(*shape, kappa)
    want = np.fft.irfftn(np.fft.rfftn(noise) * amp, s=shape, axes=(0, 1, 2))
    assert np.array_equal(synth._powerlaw_noise(*shape, kappa, seed), want)


@pytest.mark.parametrize("cpus, helper", [((0,), False), ((0, 1), True)])
def test_powerlaw_helper_ends_with_the_call(cpus, helper, monkeypatch):
    """The helper thread transforms frames on two CPUs, none on one; it is
    gone when the call returns, and when the call raises midway."""
    usable_cpus(monkeypatch, cpus)
    irfft, names = np.fft.irfft, set()

    def named_irfft(*args, **kw):
        names.add(threading.current_thread().name)
        return irfft(*args, **kw)

    monkeypatch.setattr(np.fft, "irfft", named_irfft)
    before = set(threading.enumerate())
    synth_powerlaw(6, 20, 21, 1.8, 0)
    assert set(threading.enumerate()) == before
    others = names - {threading.current_thread().name}
    assert {name.split("_")[0] for name in others} == (
        {"sim2spec-synth"} if helper else set())
    calls = itertools.count()

    def failing_irfft(*args, **kw):
        if next(calls) == 1:
            raise RuntimeError("irfft failed")
        return irfft(*args, **kw)

    monkeypatch.setattr(np.fft, "irfft", failing_irfft)
    with pytest.raises(RuntimeError, match="irfft failed"):
        synth_powerlaw(6, 20, 21, 1.8, 0)
    assert set(threading.enumerate()) == before


def test_powerlaw_amplitude_cached_read_only():
    amp = synth._powerlaw_amplitude(4, 8, 10, 1.8)
    assert amp.shape == (4, 8, 6)
    assert synth._powerlaw_amplitude(4, 8, 10, 1.8) is amp
    with pytest.raises(ValueError):
        amp[1, 1, 1] = 0.0
    # a second exponent or shape gets its own grid
    other_kappa = synth._powerlaw_amplitude(4, 8, 10, 1.2)
    other_shape = synth._powerlaw_amplitude(4, 8, 12, 1.8)
    assert other_kappa is not amp and other_shape is not amp
    assert not np.array_equal(other_kappa, amp)
    assert other_shape.shape == (4, 8, 7)
    # the clip reads the cached grid, which stays as built
    before = synth._powerlaw_amplitude.cache_info().hits
    synth_powerlaw(4, 8, 10, 1.8, 0)
    assert synth._powerlaw_amplitude.cache_info().hits == before + 1
    assert synth._powerlaw_amplitude(4, 8, 10, 1.8) is amp


def test_powerlaw_peak_below_clip_and_a_third():
    """With the amplitude grid cached, the clip is written over its own
    half spectrum: the traced peak stays under 1.3x the clip's bytes (the
    noise, the spectrum and the output used to be held at once, 2.0x)."""
    shape = (16, 224, 224)
    synth._powerlaw_amplitude(*shape, 1.8)
    tracemalloc.start()
    try:
        clip = synth_powerlaw(*shape, 1.8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.data.nbytes == 8 * 16 * 224 * 224
    assert peak < 1.3 * clip.data.nbytes


def per_corner_bilinear(base, yq, xq):
    """Reference warp: each bilinear corner clipped into the frame,
    gathered with 2-D indexing and masked where it falls outside."""
    h, w = base.shape
    y0 = np.floor(yq).astype(np.int64)
    x0 = np.floor(xq).astype(np.int64)
    dy = yq - y0
    dx = xq - x0
    out = np.zeros(yq.shape)
    acc_w = np.zeros(yq.shape)
    for oy, wy in ((0, 1 - dy), (1, dy)):
        for ox, wx in ((0, 1 - dx), (1, dx)):
            yy = y0 + oy
            xx = x0 + ox
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            wgt = wy * wx
            vals = base[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
            out += wgt * np.where(inside, vals, 0.0)
            acc_w += wgt * inside
    return out + 0.5 * (1.0 - acc_w)


@pytest.mark.parametrize("shape", [(64, 64), (33, 47), (1, 7), (6, 6)])
def test_bilinear_matches_per_corner_reference(shape):
    """On an untapered random base (a tapered base is 0.5 at its edge, like
    the fill), sample points on and around the frame, some of them on
    integer coordinates and some far outside, warp bit for bit like the
    per-corner reference."""
    h, w = shape
    rng = np.random.default_rng(h * 100 + w)
    base = rng.uniform(0.1, 0.9, shape)
    yq = rng.uniform(-4.0, h + 4.0, (40, 50))
    xq = rng.uniform(-4.0, w + 4.0, (40, 50))
    yq[:10] = np.round(yq[:10])
    xq[:, :10] = np.round(xq[:, :10])
    yq[-5:] *= 1e6
    xq[:, -5:] *= -1e6
    assert np.array_equal(synth._bilinear(base, yq, xq),
                          per_corner_bilinear(base, yq, xq))


@pytest.mark.parametrize("block", [synth.BILINEAR_BLOCK, 37])
def test_bilinear_blocks_match_per_corner_reference(block, monkeypatch):
    """Sample grids longer than a block, not a whole number of blocks and
    not contiguous, warp bit for bit like the per-corner reference."""
    monkeypatch.setattr(synth, "BILINEAR_BLOCK", block)
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 0.9, (90, 120))
    yq = rng.uniform(-4.0, 94.0, (131, 97)).T
    xq = rng.uniform(-4.0, 124.0, (131, 97)).T
    assert yq.size > synth.BILINEAR_BLOCK and yq.size % block
    assert np.array_equal(synth._bilinear(base, yq, xq),
                          per_corner_bilinear(base, yq, xq))


WARP_SPECS = {
    "translation": MotionSpec(kind="translation", v=(0.7, -0.3), seed=1),
    "rotation": MotionSpec(kind="rotation", omega=0.05, seed=2),
    "scaling": MotionSpec(kind="scaling", alpha=-0.02, seed=3),
    "mixed": MotionSpec(kind="mixed", v=(0.7, -0.3), omega=0.05,
                        alpha=0.01, seed=4),
    "static": MotionSpec(kind="static", seed=5),
    "noisy": MotionSpec(kind="translation", v=(1.3, 0.4), noise_sigma=0.05,
                        seed=6),
    # most corners land far outside the frame
    "far_outside": MotionSpec(kind="mixed", v=(40.0, -55.0), omega=0.3,
                              alpha=0.02, seed=7),
}


@pytest.mark.parametrize("shape", [(16, 64, 64), (8, 33, 47), (5, 1, 7),
                                   (3, 6, 6)])
def test_warp_matches_per_corner_reference(shape, monkeypatch):
    """The padded flat-table warp renders every clip bit for bit like the
    per-corner reference."""
    for base in synth.BASE_KINDS:
        for name, spec in WARP_SPECS.items():
            got = synth_sim2(base, spec, *shape)
            with monkeypatch.context() as m:
                m.setattr(synth, "_bilinear", per_corner_bilinear)
                want = synth_sim2(base, spec, *shape)
            assert np.array_equal(got.data, want.data), (base, name)


@pytest.mark.parametrize("exact", [False, True], ids=["warp", "exact"])
@pytest.mark.parametrize("base", synth.BASE_KINDS)
def test_noise_matches_one_draw(base, exact):
    """Noise drawn frame by frame is the noise of one ``(T, H, W)`` draw
    after the base, added and clipped as one array."""
    kw = dict(kind="translation", v=(1.0, -2.0), seed=11)
    shape = (5, 24, 31)
    clean = synth_sim2(base, MotionSpec(**kw), *shape, exact=exact).data
    rng = make_rng(11)
    make_base(base, *shape[1:], rng, taper=not exact)
    want = np.clip(clean + 0.3 * rng.standard_normal(shape), 0.0, 1.0)
    got = synth_sim2(base, MotionSpec(**kw, noise_sigma=0.3), *shape,
                     exact=exact)
    assert np.array_equal(got.data, want)


def test_noisy_clip_peak_below_clip_and_a_third():
    """The noise is drawn, scaled and added one frame at a time and the clip
    is clipped in place: the traced peak of a noisy integer-shift clip at
    32x256^2 stays under 1.3x its float64 bytes (the noise, its scaled
    copy, the sum and the clipped copy made it 2.0x)."""
    spec = MotionSpec(kind="translation", v=(1.0, 2.0), noise_sigma=0.01,
                      seed=3)
    tracemalloc.start()
    try:
        clip = synth_sim2("bandpass_noise", spec, 32, 256, 256, exact=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.data.nbytes == 8 * 32 * 256 * 256
    assert peak < 1.3 * clip.data.nbytes


def test_warped_clip_peak_below_clip_and_a_third():
    """The warp grids are a row and a column, and ``_bilinear`` works in
    blocks of samples: the traced peak of a warped mixed-motion clip at
    32x256^2 stays under 1.3x its float64 bytes (about 20 frame-sized
    temporaries per warped frame made it 1.63x)."""
    spec = MotionSpec(kind="mixed", v=(0.7, -0.3), omega=0.05, alpha=-0.01,
                      noise_sigma=0.01, seed=5)
    # a tiny clip first, so modules imported on first use are not counted
    synth_sim2("bandpass_noise", spec, 2, 8, 8)
    tracemalloc.start()
    try:
        clip = synth_sim2("bandpass_noise", spec, 32, 256, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.data.nbytes == 8 * 32 * 256 * 256
    assert peak < 1.3 * clip.data.nbytes


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
        clip = VideoWindow(np.broadcast_to(base[None], (4, 64, 64)).copy())
        s = spectral_transform(normalize_window(clip), RECT)
        assert measured_retention(s, 0.3) >= 0.95, kind


def test_unknown_base_rejected():
    with pytest.raises(ConfigError):
        make_base("plasma", 32, 32, make_rng(0))
