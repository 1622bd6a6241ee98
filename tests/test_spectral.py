import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sim2spec.core import ConfigError, DegenerateInputError, FrameSource, \
    SpectralConfig, VideoWindow, load_video, normalize_window, save_video
from sim2spec.spectral import (EtaParams, Spectrum3D, crop_to_cube,
                               cropped_transform, cube_retention,
                               eta_retention, keep_count, keep_mask_1d,
                               measured_retention, signed_bins,
                               spatial_transform, spectral_transform)
from sim2spec.synth import MotionSpec, make_rng, synth_sim2

RECT = SpectralConfig(window_kind="rect")


def brute_force_transform(data, window):
    """O(N^2) spatiotemporal DFT with the centered spatial phase origin;
    independent of the FFT code path."""
    t_n, h, w = data.shape
    kt = signed_bins(t_n)
    ky = signed_bins(h)
    kx = signed_bins(w)
    cy, cx = h // 2, w // 2
    tt = np.arange(t_n)
    yy = np.arange(h) - cy
    xx = np.arange(w) - cx
    out = np.zeros((t_n, h, w), dtype=complex)
    for it, vt in enumerate(kt):
        for iy, vy in enumerate(ky):
            for ix, vx in enumerate(kx):
                phase = np.exp(-2j * np.pi * (vt * tt[:, None, None] / t_n
                                              + vy * yy[None, :, None] / h
                                              + vx * xx[None, None, :] / w))
                out[it, iy, ix] = (window[:, None, None] * data * phase).sum()
    return out


def test_zero_video_zero_spectrum():
    v = VideoWindow(np.zeros((4, 8, 8)))
    s = spectral_transform(v, RECT)
    assert np.all(s.coeffs == 0)


def test_static_cosine_energy_at_spatial_bins():
    w = 16
    k0 = 3
    x = np.arange(w)
    frame = np.cos(2 * np.pi * k0 * x / w)[None, :] * np.ones((w, 1))
    v = VideoWindow(np.broadcast_to(frame, (4, w, w)).copy())
    s = spectral_transform(v, RECT)
    e = np.abs(s.coeffs) ** 2
    it0 = np.where(s.freq_t == 0)[0][0]
    iy0 = np.where(s.freq_y == 0)[0][0]
    expected = np.zeros_like(e)
    for k in (k0, -k0):
        ix = np.where(s.freq_x == k)[0][0]
        expected[it0, iy0, ix] = 1.0
    off = e[expected == 0].sum()
    assert off <= 1e-18 * e.sum()


def test_shifted_cosine_against_brute_force_oracle():
    # cosine circularly shifted 1 px/frame; T = W = 8, rect window
    t_n, size = 8, 8
    x = np.arange(size)
    frames = np.stack([
        np.broadcast_to(np.cos(2 * np.pi * (x - t) / size)[None, :],
                        (size, size)) for t in range(t_n)])
    v = VideoWindow(0.5 + 0.4 * frames)
    vn = normalize_window(v)
    s = spectral_transform(vn, RECT)
    oracle = brute_force_transform(vn.data, np.ones(t_n))
    assert np.allclose(s.coeffs, oracle, atol=1e-8 * np.abs(oracle).max())

    e = np.abs(s.coeffs) ** 2
    it, iy, ix = np.unravel_index(np.argmax(e), e.shape)
    peak = (s.freq_t[it], s.freq_y[iy], s.freq_x[ix])
    assert peak in [(-1, 0, 1), (1, 0, -1)]
    # conjugate pair carries the rest
    both = e[np.abs(s.freq_t) == 1][:, iy, :][:, np.abs(s.freq_x) == 1]
    assert both.sum() >= 0.999 * e.sum()


def test_hann_window_against_brute_force_oracle():
    rng = make_rng(7)
    v = VideoWindow(rng.random((5, 6, 6)))
    vn = normalize_window(v)
    cfg = SpectralConfig(window_kind="hann")
    s = spectral_transform(vn, cfg)
    t = np.arange(5)
    hann = 0.5 * (1 - np.cos(2 * np.pi * t / 4))
    oracle = brute_force_transform(vn.data, hann)
    assert np.allclose(s.coeffs, oracle, atol=1e-10 * max(1, np.abs(oracle).max()))


def test_parseval_rect():
    rng = make_rng(3)
    v = VideoWindow(rng.random((6, 12, 10)))
    vn = normalize_window(v)
    s = spectral_transform(vn, RECT)
    n = vn.data.size
    lhs = (np.abs(s.coeffs) ** 2).sum()
    rhs = n * (vn.data ** 2).sum()
    assert abs(lhs - rhs) <= 1e-6 * rhs


def test_hermitian_symmetry_real_input():
    rng = make_rng(4)
    v = VideoWindow(rng.random((6, 8, 10)))
    s = spectral_transform(normalize_window(v), SpectralConfig())
    c = np.fft.ifftshift(s.coeffs)  # unshifted layout
    rev = c[(-np.arange(c.shape[0])) % c.shape[0]]
    rev = rev[:, (-np.arange(c.shape[1])) % c.shape[1]]
    rev = rev[:, :, (-np.arange(c.shape[2])) % c.shape[2]]
    err = np.abs(rev - np.conj(c))
    assert err.max() <= 1e-9 * np.abs(c).max()


def test_t1_degenerates_to_identity():
    rng = make_rng(5)
    v = VideoWindow(rng.random((1, 8, 8)))
    s = spectral_transform(v, SpectralConfig())  # hann on T=1 is all-ones
    assert s.shape == (1, 8, 8)
    assert np.isfinite(s.coeffs).all()


def test_lowpass_counts_paper_fraction():
    # 16 x 224 x 224 at 0.3 -> about 2.7% of coefficients
    n = [keep_count(16, 0.3), keep_count(224, 0.3), keep_count(224, 0.3)]
    frac = (n[0] * n[1] * n[2]) / (16 * 224 * 224)
    assert abs(frac - 0.027) < 0.002
    # one-bin rounding tolerance against the exact cube fraction
    assert abs(frac - 0.3 ** 3) < 4 / 224


def test_lowpass_minimum_two_bins():
    assert keep_count(8, 1e-9) == 2
    m = keep_mask_1d(8, 1e-9)
    kept = signed_bins(8)[m]
    assert set(kept) == {0, 1}


def test_eta_paper_values():
    p = EtaParams.for_grid(16, 224, 224, kappa=1.8)
    out = eta_retention(0.3, p)
    assert abs(out["eta_ball"] - 0.97) <= 0.005
    assert abs(out["eta_cube_hi"] - 0.987) <= 0.005
    assert out["eta_cube_lo"] == out["eta_ball"]


def test_eta_full_ratio_exact_one():
    p = EtaParams(kappa=1.8, min_radius=1e-2)
    assert eta_retention(1.0, p)["eta_ball"] == 1.0


def test_eta_log_branch_matches_quadrature():
    from scipy.integrate import quad
    p = EtaParams(kappa=1.5, min_radius=1 / 223.0)
    out = eta_retention(0.3, p)["eta_ball"]
    num = quad(lambda r: 4 * np.pi * r ** (2 - 3), p.min_radius,
               0.3 * p.max_radius)[0]
    den = quad(lambda r: 4 * np.pi * r ** (2 - 3), p.min_radius,
               p.max_radius)[0]
    assert abs(out - num / den) < 1e-9


def test_eta_overflow_is_config_error():
    # r_lo ** expo overflowed as a bare OverflowError
    with pytest.raises(ConfigError, match=r"kappa=300\.0 .*min_radius=0\.001"):
        eta_retention(0.3, EtaParams(kappa=300.0))


@pytest.mark.parametrize("kw", [
    dict(kappa=math.nan), dict(kappa=math.inf),
    dict(kappa=1.8, max_radius=math.inf),
    dict(kappa=1.8, min_radius=math.nan),
    dict(kappa=1.8, max_radius=-math.inf)])
def test_eta_params_reject_non_finite(kw):
    # kappa=nan or inf read NaN retention, max_radius=inf read 1.0
    name = next(k for k, v in kw.items() if not math.isfinite(v))
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        EtaParams(**kw)


def test_eta_near_log_branch_continuous():
    p_log = EtaParams(kappa=1.5, min_radius=1e-3)
    p_near = EtaParams(kappa=1.5 + 1e-9, min_radius=1e-3)
    a = eta_retention(0.3, p_log)["eta_ball"]
    b = eta_retention(0.3, p_near)["eta_ball"]
    assert abs(a - b) < 1e-5


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.floats(0.5, 3.0))
def test_eta_monotone_and_bounds_ordered(r1, r2, kappa):
    p = EtaParams(kappa=kappa, min_radius=1e-3)
    lo, hi = sorted((r1, r2))
    a = eta_retention(lo, p)
    b = eta_retention(hi, p)
    assert a["eta_ball"] <= b["eta_ball"] + 1e-12
    assert a["eta_cube_lo"] <= a["eta_cube_hi"] + 1e-12


def test_measured_retention_dc_only():
    coeffs = np.zeros((4, 8, 8), dtype=complex)
    grids = signed_bins(4), signed_bins(8), signed_bins(8)
    it = np.where(grids[0] == 0)[0][0]
    iy = np.where(grids[1] == 0)[0][0]
    coeffs[it, iy, iy] = 3.0
    s = Spectrum3D(coeffs, *grids)
    for ratio in (0.1, 0.3, 0.9):
        assert measured_retention(s, ratio) == 1.0


def test_measured_retention_white_noise():
    rng = make_rng(8)
    v = VideoWindow(rng.random((16, 64, 64)))
    s = spectral_transform(normalize_window(v), RECT)
    r = measured_retention(s, 0.3)
    assert abs(r - 0.027) < 0.01


def test_measured_retention_zero_energy_errors():
    s = Spectrum3D(np.zeros((4, 8, 8), dtype=complex), signed_bins(4),
                   signed_bins(8), signed_bins(8))
    with pytest.raises(DegenerateInputError):
        measured_retention(s, 0.3)


def test_lowpass_then_retention_is_total():
    rng = make_rng(21)
    v = VideoWindow(rng.random((8, 32, 32)))
    s = spectral_transform(normalize_window(v), RECT)
    keep = np.ix_(*(keep_mask_1d(n, 0.3) for n in s.shape))
    coeffs = np.zeros_like(s.coeffs)
    coeffs[keep] = s.coeffs[keep]
    truncated = Spectrum3D(coeffs, s.freq_t, s.freq_y, s.freq_x)
    assert measured_retention(truncated, 0.3) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 256), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
@example(17, 0.3, 0.3)
def test_keep_count_properties(n, r1, r2):
    lo, hi = sorted((r1, r2))
    assert 2 <= keep_count(n, lo) <= keep_count(n, hi) <= n
    assert keep_count(n, 1.0) == n
    # the mask is one run of keep_count positions holding position n//2,
    # symmetric about it but for one extra positive bin at an even count
    # below n (at n = 17 the repeated labels moved the sorted choice)
    count = keep_count(n, lo)
    kept = np.flatnonzero(keep_mask_1d(n, lo))
    assert len(kept) == count and kept[-1] - kept[0] == count - 1
    below, above = n // 2 - kept[0], kept[-1] - n // 2
    assert below >= 0 and above >= 0
    assert count == n or above - below == (count % 2 == 0)


# ---------------------------------------------------------------------------
# pruned one-pass transform against the crop of the full transform


def assert_pruned_matches_crop(data, kind, ratio):
    """``cropped_transform(v, cfg)`` against the full transforms of
    ``normalize_window(v)``, cropped."""
    cfg = SpectralConfig(window_kind=kind, lowpass_ratio=ratio)
    frames, cube = cropped_transform(VideoWindow(data), cfg)
    vn = normalize_window(VideoWindow(data))
    ref_cube = crop_to_cube(spectral_transform(vn, cfg), ratio)
    for grid in ("freq_t", "freq_y", "freq_x"):
        assert np.array_equal(getattr(cube, grid), getattr(ref_cube, grid))
    my = keep_mask_1d(vn.height, ratio)
    mx = keep_mask_1d(vn.width, ratio)
    ref_frames = spatial_transform(vn)[:, my][:, :, mx]
    for got, ref in ((frames, ref_frames), (cube.coeffs, ref_cube.coeffs)):
        assert got.shape == ref.shape
        # the Hann taper of T = 2 is all zeros, so the cube is exactly zero
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-10 * scale


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 33), st.integers(1, 70), st.integers(1, 70),
       st.sampled_from(["rect", "hann"]),
       st.floats(1e-3, 1.0, exclude_min=True),
       st.one_of(st.sampled_from([1.0, 0.5]), st.floats(-1.0, 3.0)),
       st.integers(0, 2 ** 31))
# ``mean`` is the window's mean: ``mean - 1/2`` is left after the shift
@example(t_n=3, h=9, w=1, kind="hann", ratio=0.3, mean=0.5, seed=1)
@example(t_n=4, h=1, w=1, kind="rect", ratio=0.3, mean=0.5, seed=2)
@example(t_n=5, h=6, w=2, kind="rect", ratio=0.3, mean=1.0, seed=3)
# at ratio 1.0 an even size keeps kx = -W/2, the column Hermitian
# symmetry maps onto itself
@example(t_n=6, h=8, w=10, kind="rect", ratio=1.0, mean=0.5, seed=4)
@example(t_n=7, h=33, w=47, kind="hann", ratio=1.0, mean=0.63, seed=5)
@example(t_n=9, h=31, w=45, kind="hann", ratio=0.3, mean=0.5, seed=6)
def test_cropped_transform_matches_crop_property(t_n, h, w, kind, ratio,
                                                 mean, seed):
    data = make_rng(seed).random((t_n, h, w)) + (mean - 0.5)
    assert_pruned_matches_crop(data, kind, ratio)


# windows that the spatial pass splits into several chunks of frames, the
# last one shorter than the others
CHUNK_EDGE_SHAPES = [(16, 64, 64), (13, 100, 47)]


@pytest.mark.parametrize("shape", [(8, 224, 47), (16, 224, 224),
                                   (32, 256, 256), *CHUNK_EDGE_SHAPES])
@pytest.mark.parametrize("kind", ["rect", "hann"])
def test_cropped_transform_matches_crop_sizes(shape, kind):
    # 47 and 224 are sizes whose signed_bins labels are off (see below)
    assert_pruned_matches_crop(make_rng(11).random(shape), kind, 0.3)


@pytest.mark.parametrize("shape", CHUNK_EDGE_SHAPES)
def test_chunk_edge_shapes_end_on_partial_chunk(shape, monkeypatch):
    real_rfft = np.fft.rfft
    chunks = []

    def counting_rfft(a, *args, **kwargs):
        chunks.append(len(a))
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    cropped_transform(VideoWindow(np.zeros(shape)), RECT)
    assert sum(chunks) == shape[0]
    assert len(chunks) > 1 and 0 < chunks[-1] < chunks[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 33), st.integers(5, 70), st.integers(5, 70),
       st.sampled_from(["rect", "hann"]),
       st.floats(1e-3, 1.0, exclude_min=True), st.integers(0, 2 ** 31))
def test_cube_retention_matches_measured(t_n, h, w, kind, ratio, seed):
    v = VideoWindow(make_rng(seed).random((t_n, h, w)))
    cfg = SpectralConfig(window_kind=kind, lowpass_ratio=ratio)
    if kind == "hann" and t_n == 2:
        with pytest.raises(DegenerateInputError):
            cube_retention(v, cfg)
        return
    ref = measured_retention(spectral_transform(normalize_window(v), cfg),
                             ratio)
    assert abs(cube_retention(v, cfg) - ref) <= 1e-12


def test_cube_retention_powerlaw_suite_size():
    from sim2spec.synth import synth_powerlaw
    v = synth_powerlaw(16, 224, 224, kappa=1.8, seed=3)
    cfg = SpectralConfig(window_kind="rect", lowpass_ratio=0.3)
    ref = measured_retention(spectral_transform(normalize_window(v), cfg),
                             0.3)
    assert abs(cube_retention(v, cfg) - ref) <= 1e-12


def test_cube_retention_offset_matches_normalized_window(tmp_path):
    # the 1/2 shift taken off the DC bins, on the clip held, read from a
    # file and loaded, against the full spectrum of the shifted copy
    from sim2spec.synth import synth_powerlaw
    # float32 values, so the file holds the clip exactly
    clip = VideoWindow(synth_powerlaw(16, 224, 224, kappa=1.8, seed=3)
                       .data.astype(np.float32))
    path = str(tmp_path / "clip.raw")
    save_video(clip, path)
    for kind in ("rect", "hann"):
        cfg = SpectralConfig(window_kind=kind, lowpass_ratio=0.3)
        ref = measured_retention(
            spectral_transform(normalize_window(clip), cfg), 0.3)
        for src in (clip, FrameSource.open(path), load_video(path)):
            assert abs(cube_retention(src, cfg) - ref) <= 1e-12


@pytest.mark.parametrize("shape", [(1, 16, 16), (16, 1, 16), (16, 16, 1)])
def test_eta_for_grid_needs_two_samples_per_axis(shape):
    with pytest.raises(ConfigError, match="at least 2 samples per axis"):
        EtaParams.for_grid(*shape)


def test_cube_retention_reads_its_window_once():
    # the Parseval total is summed from the chunks the pruned pass reads,
    # so a file that changed between two reads cannot mix two windows
    v = VideoWindow(make_rng(5).random((12, 40, 24)))
    reads = []

    def read():
        reads.append(1)
        return v.chunks()

    got = cube_retention(FrameSource(v.shape, read), RECT)
    assert len(reads) == 1
    ref = measured_retention(spectral_transform(normalize_window(v), RECT),
                             RECT.lowpass_ratio)
    assert abs(got - ref) <= 1e-12


def test_cube_retention_zero_energy_errors():
    v = VideoWindow(np.full((4, 8, 8), 0.5))
    with pytest.raises(DegenerateInputError):
        cube_retention(v, RECT)


@pytest.mark.xfail(strict=True, reason=(
    "signed_bins truncates fftfreq(n)*n (4.999... -> 4) and mislabels "
    "366 sizes below 600, among them 24 and 224"))
def test_signed_bins_are_centered_integer_range():
    for n in range(1, 600):
        assert np.array_equal(signed_bins(n), np.arange(n) - n // 2), n
