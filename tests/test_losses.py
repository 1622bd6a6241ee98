import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sim2spec.core import (TABLE_CACHE_SIZE, DegenerateInputError,
                           FrameSource, SpectralConfig, VideoWindow,
                           load_video, normalize_window, save_video)
from sim2spec.losses import (adaptive_composite, analyze, rotation_loss,
                             scaling_loss, translation_loss)
from sim2spec.resample import HarmonicStack
from sim2spec.spectral import crop_to_cube, keep_mask_1d, signed_bins, \
    spatial_transform, spectral_transform
from sim2spec import bounds, gates, losses, resample, spectral, synth
from sim2spec.cli import EXACTNESS_VELOCITIES
from sim2spec.synth import MotionSpec, make_rng, synth_sim2
from sim2spec.bounds import window_leakage

from conftest import FIXTURE_SPECS, make_fixture_clip, solve_rows
from test_gates import random_block

RECT = SpectralConfig(window_kind="rect")


# ---------------------------------------------------------------------------
# ridge solver


def test_ridge_exact_system():
    rng = make_rng(0)
    design = rng.normal(size=(50, 3))
    theta_star = np.array([1.5, -2.0, 0.25])
    targets = design @ theta_star
    w = rng.uniform(0.5, 2.0, 50)
    theta, residual, _ = solve_rows(design, targets, w, 0.0)
    assert residual <= 1e-12
    assert np.max(np.abs(theta - theta_star)) <= 1e-9


def test_ridge_residual_bounded_by_lambda_term():
    rng = make_rng(1)
    design = rng.normal(size=(80, 4))
    theta_star = rng.normal(size=4)
    targets = design @ theta_star
    w = rng.uniform(0.5, 2.0, 80)
    for lam in (1e-4, 1e-2, 1.0):
        _, residual, _ = solve_rows(design, targets, w, lam)
        assert residual <= lam * float(theta_star @ theta_star) / w.sum() \
            + 1e-15


@pytest.mark.parametrize("rank_deficient", [False, True],
                         ids=["full_rank", "rank_deficient"])
def test_ridge_matches_whitened_lstsq_oracle(rank_deficient):
    rng = make_rng(2)
    design = rng.normal(size=(200, 3))
    if rank_deficient:
        design[:, 2] = design[:, 0]  # collinear columns; lam makes it unique
    targets = rng.normal(size=200)
    w = rng.uniform(0.1, 3.0, 200)
    lam = 1e-3
    theta, _, _ = solve_rows(design, targets, w, lam)
    # independent oracle: augmented least squares on whitened rows
    x = np.vstack([design * np.sqrt(w)[:, None],
                   math.sqrt(lam) * np.eye(3)])
    y = np.concatenate([targets * np.sqrt(w), np.zeros(3)])
    oracle, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.max(np.abs(theta - oracle)) <= 1e-8 * max(1, np.abs(oracle).max())


def test_ridge_rank_deficient_falls_back():
    design = np.ones((10, 2))
    design[:, 1] = 2.0  # collinear columns
    targets = np.full(10, 3.0)
    theta, residual, identifiable = solve_rows(design, targets, np.ones(10),
                                               0.0)
    assert residual <= 1e-18
    assert not identifiable
    # at lam = 0 the solve is the pseudo-inverse's min-norm answer
    gram, rhs = design.T @ design, design.T @ targets
    assert np.max(np.abs(theta - np.linalg.pinv(gram) @ rhs)) <= 1e-12


def test_ridge_zero_weights_error():
    from sim2spec.core import UnobservableError
    with pytest.raises(UnobservableError):
        solve_rows(np.ones((4, 2)), np.ones(4), np.zeros(4), 1e-3)


# ---------------------------------------------------------------------------
# translation


def analyzed_spectrum(clip, cfg):
    s = spectral_transform(normalize_window(clip), cfg)
    return crop_to_cube(s, cfg.lowpass_ratio)


def test_translation_static_video():
    rng = make_rng(3)
    frame = rng.random((1, 32, 32))
    clip = VideoWindow(np.broadcast_to(frame, (8, 32, 32)).copy())
    out = translation_loss(analyzed_spectrum(clip, RECT), RECT)
    assert not out.flagged
    assert out.l_trans == out.fit.residual <= 1e-6
    assert abs(out.fit.theta[0]) <= 1e-6 and abs(out.fit.theta[1]) <= 1e-6


def test_translation_circular_shift_velocity():
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    out = translation_loss(analyzed_spectrum(clip, RECT), RECT)
    assert not out.flagged
    assert out.fit.residual <= 1e-4
    v_px = out.fit.theta[0] * 32 / 32
    assert abs(v_px - 1.0) <= 0.05


def test_translation_hann_band_miss_within_leakage():
    # with the Hann taper the energy off the fitted plane beyond one bin is
    # controlled by the window's out-of-band fraction; the band edge gets a
    # small pad because ridge shrinkage nudges mainlobe bins sitting exactly
    # at distance 1 across the closed boundary
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    cfg = SpectralConfig()
    rep = analyze(clip, cfg)
    s3c = analyzed_spectrum(clip, cfg)
    out = translation_loss(s3c, cfg)
    samples = out.samples
    err = samples.errors(out.fit.theta)
    miss = samples.energies[np.abs(err) > cfg.band_tolerance + 0.01].sum()
    miss /= samples.energies.sum()
    eps_win = window_leakage(32, cfg.band_tolerance, "hann")
    assert miss <= eps_win * 1.5 + 1e-9
    # the unpadded fraction still satisfies the band-capture inequality
    g = samples.weights / samples.energies
    ratio = g.max() / g.min()
    strict = samples.energies[np.abs(err) > cfg.band_tolerance].sum()
    strict /= samples.energies.sum()
    assert strict <= ratio * rep.l_trans / cfg.band_tolerance ** 2 + eps_win


def test_translation_hann_residual_bounded_by_window_moment():
    # on an otherwise-exact clip the plane residual comes entirely from the
    # temporal window, so it is bounded by the window spectrum's second
    # moment (direct DFT oracle)
    for t_n in (16, 32):
        spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
        clip = synth_sim2("bandpass_noise", spec, t_n, 32, 32, exact=True)
        rep = analyze(clip, SpectralConfig())
        t = np.arange(t_n)
        h = 0.5 * (1 - np.cos(2 * np.pi * t / (t_n - 1)))
        power = np.abs(np.fft.fftshift(np.fft.fft(h))) ** 2
        bins = np.fft.fftshift(np.fft.fftfreq(t_n) * t_n)
        moment = float((bins ** 2 * power).sum() / power.sum())
        assert rep.l_trans <= moment + 1e-9


def test_translation_degenerate_support_sentinel():
    clip = VideoWindow(np.full((8, 32, 32), 0.5))
    out = translation_loss(analyzed_spectrum(clip, RECT), RECT)
    assert out.flagged
    assert out.l_trans == 1.0
    assert not out.fit.theta.any() and out.samples is None


# ---------------------------------------------------------------------------
# rotation


def constructed_stack(m_value, omega, t_n=16, n_rho=20, m_bins=24, n_xi=24,
                      rings_hot=(9,)):
    t = np.arange(t_n)
    cm = np.zeros((t_n, n_rho, m_bins), dtype=complex)
    m_grid = signed_bins(m_bins)
    idx = np.where(m_grid == m_value)[0][0]
    for r in rings_hot:
        cm[:, r, idx] = np.exp(-1j * m_value * omega * t)
    ang = np.fft.fftshift(np.fft.fft(cm, axis=0), axes=0)
    rad = np.full((t_n, n_xi), 1e-30, dtype=complex)
    return HarmonicStack(ang, m_grid, rad, signed_bins(n_xi),
                         signed_bins(t_n), 0.1)


def one_ring_energies(n_rings=20, t_n=16, hot=9):
    v = np.zeros((t_n, n_rings))
    v[:, hot] = 1.0
    return v


@pytest.mark.parametrize("omega", [2 * math.pi / 16, 2 * math.pi / 8])
def test_rotation_single_harmonic_recovery(omega):
    stack = constructed_stack(2, omega)
    out = rotation_loss(stack, one_ring_energies(), RECT)
    assert abs(out.omega - omega) / omega <= 0.10
    assert out.c_rot >= 0.9
    assert not out.flagged


def test_rotation_all_m0_flagged():
    stack = constructed_stack(0, 0.3)
    rings = one_ring_energies()
    out = rotation_loss(stack, rings, RECT)
    assert out.flagged
    assert out.c_rot == 0.0
    assert out.l_rot == pytest.approx(1.0 - out.c_ring / 2.0)


def test_rotation_one_ring_full_concentration():
    out = rotation_loss(constructed_stack(2, 0.4), one_ring_energies(), RECT)
    assert out.c_ring == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# scaling


def test_scaling_t2_defaults():
    v = np.zeros((2, 20))
    v[:, 5] = 0.5
    stack = constructed_stack(2, 0.1, t_n=2)
    out = scaling_loss(v, stack, SpectralConfig())
    assert out.c_flow == 0.5 and out.s_trend == 0.5
    assert out.l_scale == 0.5
    assert out.short_window


def test_scaling_zoom_in_trend():
    spec = MotionSpec(kind="scaling", alpha=0.02, seed=7)
    clip = synth_sim2("bandpass_noise", spec, 16, 64, 64)
    rep = analyze(clip, SpectralConfig())
    assert rep.s_trend >= 0.9
    assert rep.diagnostics["rho_c_slope"] < 0.0
    assert rep.slice_estimates["scaling"].alpha == pytest.approx(0.02, abs=0.01)


def test_scaling_zoom_out_trend():
    spec = MotionSpec(kind="scaling", alpha=-0.02, seed=7)
    clip = synth_sim2("bandpass_noise", spec, 16, 64, 64)
    rep = analyze(clip, SpectralConfig())
    assert rep.s_trend >= 0.9
    assert rep.diagnostics["rho_c_slope"] > 0.0


def test_scaling_static_noise_null():
    vals = []
    for s in range(50):
        spec = MotionSpec(kind="static", noise_sigma=0.2, seed=500 + s)
        clip = synth_sim2("bandpass_noise", spec, 16, 48, 48)
        vals.append(analyze(clip, SpectralConfig()).s_trend)
    assert np.mean(vals) <= 0.5


def test_scaling_flat_centroid_flagged():
    v = np.zeros((8, 20))
    v[:, 5] = 1.0  # identical every frame
    stack = constructed_stack(2, 0.1, t_n=8)
    out = scaling_loss(v, stack, SpectralConfig())
    assert out.s_trend == 0.0
    assert out.trend_flat


# ---------------------------------------------------------------------------
# unified


def hyperplane_rows(n, theta_star, sigma=0.0, seed=9):
    """Free rows ``[omega_x, omega_y, m, nu, 1]``, their targets on the
    hyperplane ``theta_star`` (plus noise ``sigma``) and weights."""
    rng = make_rng(seed)
    rows = np.column_stack([rng.normal(size=n) * 4, rng.normal(size=n) * 4,
                            rng.integers(-6, 7, n).astype(float),
                            rng.integers(-6, 7, n).astype(float),
                            np.ones(n)])
    targets = rows @ theta_star + (sigma * rng.normal(size=n) if sigma else 0)
    return rows, targets, rng.uniform(0.2, 1.0, n)


def test_unified_exact_hyperplane():
    theta_star = np.array([0.1, -0.2, 0.3, 0.05, 0.0])
    theta, residual, _ = solve_rows(*hyperplane_rows(800, theta_star), 1e-8)
    assert residual <= 1e-10
    assert np.max(np.abs(theta - theta_star)) <= 1e-6


def test_unified_noise_floor_montecarlo():
    theta_star = np.array([0.1, -0.2, 0.3, 0.05, 0.0])
    sigma2 = 0.01
    rows = hyperplane_rows(10_000, theta_star, sigma=math.sqrt(sigma2))
    _, residual, _ = solve_rows(*rows, 1e-3)
    assert abs(residual - sigma2) <= 0.10 * sigma2


def test_translation_slice_matches_l_trans(motion_clips, cfg):
    rep = analyze(motion_clips["translation"], cfg)
    slice_res = rep.slice_residuals["translation"]
    a, b = slice_res, rep.l_trans
    assert abs(a - b) <= 0.10 * max(a, b) + 1e-12


@pytest.mark.parametrize("vel", EXACTNESS_VELOCITIES)
def test_exact_translation_residuals_nonnegative(vel, monkeypatch):
    i = EXACTNESS_VELOCITIES.index(vel)
    clip = synth_sim2("bandpass_noise",
                      MotionSpec(kind="translation", v=vel, seed=i),
                      32, 32, 32, exact=True)
    rep, trans, *_ = loss_results(clip, RECT, monkeypatch)
    assert set(rep.slice_residuals) == {"translation", "rotation", "scaling"}
    assert all(r >= 0.0 for r in rep.slice_residuals.values())
    assert rep.l_uni >= 0.0
    # the exact plane fit's moment residual keeps only rounding
    assert rep.l_trans <= 1e-12
    assert_moment_residual(trans.fit, [trans.samples], [1.0])


def test_unified_slice_layout(motion_reports):
    rep = motion_reports["rotation"]
    assert set(rep.slice_residuals) == {"translation", "rotation", "scaling"}
    est = rep.slice_estimates["rotation"]
    assert est.v_x == 0.0 and est.alpha == 0.0  # out-of-slice fields zero


BLOCK_FLAGS = {"translation": "trans_unobservable",
               "rotation": "rot_no_energy", "scaling": "scale_no_energy"}

LAYOUT_CLIPS = {
    **{kind: lambda kind=kind: make_fixture_clip(kind) for kind in BLOCK_FLAGS},
    "flat_0.6": lambda: VideoWindow(np.full((16, 64, 64), 0.6)),
    "all_0.5": lambda: VideoWindow(np.full((16, 64, 64), 0.5)),
    "t2_blobs": lambda: synth_sim2(
        "gaussian_blobs", MotionSpec(kind="rotation", omega=0.2, seed=3),
        2, 64, 64),
    "t2_noise": lambda: synth_sim2(
        "bandpass_noise", MotionSpec(kind="translation", v=(1.0, 0.0),
                                     seed=3), 2, 48, 48),
}


@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("name", sorted(LAYOUT_CLIPS))
def test_slice_layout_follows_flags(name, window):
    # a block gets a slice fit exactly when its flag is unset; the flat and
    # all-0.5 clips and Hann at T=2 flag some or all of the blocks
    rep = analyze(LAYOUT_CLIPS[name](), SpectralConfig(window_kind=window))
    flags = rep.diagnostics["flags"]
    fitted = {block for block, flag in BLOCK_FLAGS.items() if not flags[flag]}
    assert set(rep.slice_residuals) == fitted
    assert set(rep.diagnostics["gate_bounds"]) == fitted
    trans_matches = rep.slice_residuals.get("translation") == rep.l_trans
    assert trans_matches == (not flags["trans_unobservable"])


def loss_results(clip, cfg, monkeypatch):
    """The report of ``analyze`` and the translation, rotation and scaling
    results and the joint fit it computed."""
    seen = {}
    for name in ("translation_loss", "rotation_loss", "scaling_loss",
                 "unified_residual"):
        def spy(*args, fn=getattr(losses, name), name=name):
            seen[name] = fn(*args)
            return seen[name]
        monkeypatch.setattr(losses, name, spy)
    rep = analyze(clip, cfg)
    return (rep, seen["translation_loss"], seen["rotation_loss"],
            seen["scaling_loss"], seen["unified_residual"])


def in_band_fraction(result, cfg):
    err = result.samples.errors(result.fit.theta)
    inside = np.abs(err) <= cfg.band_tolerance + losses.BAND_EDGE_SLACK
    e = result.samples.energies
    return float(e[inside].sum() / e.sum())


def per_sample_residual(blocks, scales, theta):
    """``sum scale * w * err^2 / sum scale * w`` summed sample by sample,
    and the same ratio at theta = 0 (each term the moment form subtracts
    is bounded by it)."""
    sum_w = sum(s * b.weights.sum() for b, s in zip(blocks, scales))
    num = sum(s * (b.weights * b.errors(theta) ** 2).sum()
              for b, s in zip(blocks, scales))
    null = sum(s * (b.weights * b.freq_t[:, None] ** 2).sum()
               for b, s in zip(blocks, scales))
    return num / sum_w, null / sum_w


def assert_moment_residual(fit, blocks, scales):
    # the moment form cancels terms of size null, so its rounding is
    # relative to null; on near-exact random fits the residual's own
    # relative error reaches about 3e-5 while this stays near 1e-14
    ref, null = per_sample_residual(blocks, scales, fit.theta)
    assert fit.residual >= 0.0
    assert abs(fit.residual - ref) <= 1e-12 * null


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_moment_residual_matches_per_sample_on_random_blocks(a, b, c,
                                                             seed):
    rng = make_rng(seed)
    blocks = [random_block(kind, a, b, c, rng)[0]
              for kind in ("translation", "rotation", "scaling")]
    for block, cols in zip(blocks, (losses.TRANS_COLS, losses.ROT_COLS,
                                    losses.SCALE_COLS)):
        assert_moment_residual(losses._fit(block.moments, cols, 1e-3),
                               [block], [1.0])
    scales = [1.0 / b.energies.sum() for b in blocks]
    assert_moment_residual(losses.unified_residual(*blocks, SpectralConfig()),
                           blocks, scales)


@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("kind", sorted(BLOCK_FLAGS))
def test_moment_residual_matches_per_sample_on_fixtures(kind, window,
                                                        motion_clips,
                                                        monkeypatch):
    rep, *results, uni = loss_results(
        motion_clips[kind], SpectralConfig(window_kind=window), monkeypatch)
    for r in results:
        assert not r.flagged
        assert_moment_residual(r.fit, [r.samples], [1.0])
    blocks = [r.samples for r in results]
    assert_moment_residual(uni, blocks,
                           [1.0 / b.energies.sum() for b in blocks])
    assert rep.l_uni == uni.residual


@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("kind", sorted(BLOCK_FLAGS))
def test_slice_statistics_come_from_the_slice_fit(kind, window, motion_clips,
                                                  monkeypatch):
    cfg = SpectralConfig(window_kind=window)
    rep, trans, rot, scl, _ = loss_results(motion_clips[kind], cfg,
                                           monkeypatch)
    conv = rep.diagnostics["conversions"]
    assert rot.omega == rot.fit.theta[2] * conv["omega_bins_to_rad_per_frame"]
    assert scl.alpha == scl.fit.theta[3] * conv["alpha_bins_to_rate_per_frame"]
    assert rot.c_rot == pytest.approx(in_band_fraction(rot, cfg), abs=1e-12)
    assert scl.c_scale == pytest.approx(in_band_fraction(scl, cfg),
                                        abs=1e-12)
    assert 1.0 - trans.band_miss == pytest.approx(
        in_band_fraction(trans, cfg), abs=1e-12)


@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("name", sorted(LAYOUT_CLIPS))
def test_estimates_are_theta_times_conversions(name, window, monkeypatch):
    # the plane coefficients and the intercept stay in bins; a flagged
    # slice's fit is the zero-theta, unidentifiable no-fit value
    rep, trans, rot, scl, uni = loss_results(
        LAYOUT_CLIPS[name](), SpectralConfig(window_kind=window), monkeypatch)
    conv = rep.diagnostics["conversions"]
    factors = np.array([1.0, 1.0, conv["omega_bins_to_rad_per_frame"],
                        conv["alpha_bins_to_rate_per_frame"], 1.0])
    estimates = {"joint": rep.estimate, **rep.slice_estimates}
    fits = {"joint": uni, "translation": trans.fit, "rotation": rot.fit,
            "scaling": scl.fit}
    for key, fit in fits.items():
        got = list(estimates[key].to_dict().values())
        assert got == (fit.theta * factors).tolist(), key
    for block, result in zip(BLOCK_FLAGS, (trans, rot, scl)):
        if result.flagged:
            assert not result.fit.theta.any(), block
            assert not result.fit.identifiable, block


@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("name", ["all_0.5", "flat_0.6", "t2_blobs",
                                  "t2_noise"])
def test_report_has_no_negative_zero(name, window):
    # a zero slope times the negative alpha factor would read -0.0
    rep = analyze(LAYOUT_CLIPS[name](), SpectralConfig(window_kind=window))
    negative = [key for key, x in flat_fields(rep.to_dict()).items()
                if isinstance(x, float) and x == 0.0
                and math.copysign(1.0, x) < 0.0]
    assert negative == []


def counting(monkeypatch, name):
    calls = []
    fn = getattr(losses, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(losses, name, wrapper)
    return calls


def eigh_solve(gram, rhs, lam):
    """``ridge_wls_solve``'s eigendecomposition route, for any size."""
    e, v = np.linalg.eigh(gram)
    d = e + lam
    keep = d > len(d) * np.finfo(np.float64).eps * d.max()
    theta = v[:, keep] @ ((v[:, keep].T @ rhs) / d[keep])
    return theta, bool(e[0] > 1e-10 * max(1.0, e[-1]))


@given(st.floats(min_value=0.0, allow_infinity=False), st.floats(),
       st.sampled_from([0.0, 1e-3]))
def test_one_column_solve_is_the_eigh_route_bit_for_bit(g, r, lam):
    gram, rhs = np.array([[g]]), np.array([r])
    with np.errstate(over="ignore", invalid="ignore"):  # both routes warn
        theta, identifiable = losses.ridge_wls_solve(gram, rhs, 1.0, lam)
        ref, ref_identifiable = eigh_solve(gram, rhs, lam)
    assert theta.tobytes() == ref.tobytes()
    assert identifiable == ref_identifiable


def test_analyze_at_16x64_makes_two_eigh_calls(cfg, monkeypatch):
    # the translation and joint fits; the one-column slices skip LAPACK
    clip = synth_sim2("bandpass_noise", MotionSpec(
        kind="mixed", v=(0.7, -0.3), omega=0.05, alpha=-0.01, seed=5),
        16, 64, 64)
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: eighs.append(a.shape) or eigh(a))
    solves = counting(monkeypatch, "ridge_wls_solve")
    report = analyze(clip, cfg)
    assert not any(report.diagnostics["flags"].values())
    assert len(solves) == 4
    assert eighs == [(3, 3), (5, 5)]


@pytest.mark.parametrize("kind", sorted(BLOCK_FLAGS))
def test_analyze_builds_each_block_and_solves_each_fit_once(kind, cfg,
                                                            monkeypatch):
    builds = counting(monkeypatch, "build_samples")
    solves = counting(monkeypatch, "ridge_wls_solve")
    analyze(make_fixture_clip(kind), cfg)
    assert len(builds) == 3  # one per sample block
    assert len(solves) == 4  # one per slice fit, plus the joint fit


# ---------------------------------------------------------------------------
# adaptive weighting


def test_softmax_equal_losses():
    w, l_motion = adaptive_composite(0.4, 0.4, 0.4, 0.1)
    assert np.allclose(w, 1 / 3)
    assert l_motion == pytest.approx(0.4)


def test_softmax_winner_takes_all():
    w, _ = adaptive_composite(0.1, 0.5, 0.5, 0.01)
    assert w[0] >= 0.999


def test_softmax_high_temperature_uniform():
    w, _ = adaptive_composite(0.9, 0.1, 0.5, 1e9)
    assert np.allclose(w, 1 / 3, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 5), min_size=3, max_size=3),
       st.floats(0.01, 10.0), st.floats(-2.0, 2.0))
def test_softmax_properties(losses, tau, shift):
    w, _ = adaptive_composite(*losses, tau)
    assert abs(w.sum() - 1.0) <= 1e-9
    gaps = sorted(losses)
    if gaps[1] - gaps[0] > 1e-6 * tau:  # argmax well defined only off ties
        assert int(np.argmax(w)) == int(np.argmin(losses))
    w2, _ = adaptive_composite(*(x + shift for x in losses), tau)
    assert np.allclose(w, w2, atol=1e-9)


# ---------------------------------------------------------------------------
# analyze end-to-end


def test_analyze_t1_rejected():
    clip = VideoWindow(np.zeros((1, 32, 32)))
    with pytest.raises(DegenerateInputError, match="too short"):
        analyze(clip, SpectralConfig())


def test_analyze_deterministic(motion_clips, cfg):
    a = analyze(motion_clips["rotation"], cfg).to_dict()
    b = analyze(motion_clips["rotation"], cfg).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_analyze_ranges(motion_reports):
    for rep in motion_reports.values():
        for stat in (rep.c_rot, rep.c_ring, rep.c_flow, rep.s_trend,
                     rep.c_scale, rep.l_rot, rep.l_scale):
            assert -1e-9 <= stat <= 1 + 1e-9
        assert rep.l_trans >= 0 and rep.l_uni >= 0
        assert abs(sum(rep.weights.values()) - 1.0) <= 1e-9


def test_analyze_loss_identities(motion_reports):
    for rep in motion_reports.values():
        assert rep.l_rot == pytest.approx(1 - (rep.c_ring + rep.c_rot) / 2,
                                          abs=1e-12)
        assert rep.l_scale == pytest.approx(1 - (rep.c_flow + rep.s_trend) / 2,
                                            abs=1e-12)


def test_analyze_argmax_matches_motion(motion_reports):
    for kind, rep in motion_reports.items():
        assert rep.argmax_weight() == kind


def test_analyze_discriminability(motion_reports):
    by_loss = {"translation": "l_trans", "rotation": "l_rot",
               "scaling": "l_scale"}
    for kind, attr in by_loss.items():
        own = getattr(motion_reports[kind], attr)
        for other, rep in motion_reports.items():
            if other != kind:
                assert own < getattr(rep, attr), (kind, other)


def test_analyze_continuity(motion_clips, cfg):
    clip = motion_clips["rotation"]
    rep0 = analyze(clip, cfg)
    rng = make_rng(1234)
    bumped = VideoWindow(
        np.clip(clip.data + rng.uniform(-1e-3, 1e-3, clip.data.shape), 0, 1))
    rep1 = analyze(bumped, cfg)
    for attr in ("l_trans", "l_rot", "l_scale"):
        assert abs(getattr(rep0, attr) - getattr(rep1, attr)) <= 0.1


def test_analyze_stage_labels():
    # a window too small for the polar grid fails with its stage label
    clip = VideoWindow(np.linspace(0, 1, 2 * 6 * 6).reshape(2, 6, 6))
    with pytest.raises(DegenerateInputError, match=r"\[resample\]"):
        analyze(clip, SpectralConfig())


def test_overflowing_fit_keeps_losses_label():
    # the joint fit and the composite ran outside any stage: a window of
    # 1e300-scale noise overflowed its energies with no label
    clip = VideoWindow(make_rng(0).standard_normal((16, 32, 32)) * 1e300)
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateInputError, match=r"^\[losses\] "):
            analyze(clip, SpectralConfig())


# ---------------------------------------------------------------------------
# the pruned transform leaves every report field where the full one put it


def crop_of_full_transform(v, cfg):
    """Reference for ``cropped_transform``: ``normalize_window``, then
    full transforms, then crop."""
    vn = normalize_window(v)
    my = keep_mask_1d(vn.height, cfg.lowpass_ratio)
    mx = keep_mask_1d(vn.width, cfg.lowpass_ratio)
    return (spatial_transform(vn)[:, my][:, :, mx],
            crop_to_cube(spectral_transform(vn, cfg), cfg.lowpass_ratio))


def flat_fields(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(flat_fields(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(flat_fields(v, f"{prefix}{i}."))
        return out
    return {prefix: obj}


REPORT_CLIPS = {
    "translation": lambda: make_fixture_clip("translation"),
    "rotation": lambda: make_fixture_clip("rotation"),
    "scaling": lambda: make_fixture_clip("scaling"),
    "odd_8x33x47": lambda: synth_sim2(
        "bandpass_noise", MotionSpec(kind="translation", v=(0.75, -0.5),
                                     seed=9), 8, 33, 47),
}


def reports_both_ways(clip, cfg, monkeypatch):
    got = flat_fields(analyze(clip, cfg).to_dict())
    monkeypatch.setattr(losses, "cropped_transform", crop_of_full_transform)
    ref = flat_fields(analyze(clip, cfg).to_dict())
    monkeypatch.undo()
    return got, ref


@pytest.mark.parametrize("name", sorted(REPORT_CLIPS))
def test_report_unchanged_by_pruned_transform(name, cfg, monkeypatch):
    got, ref = reports_both_ways(REPORT_CLIPS[name](), cfg, monkeypatch)
    assert got.keys() == ref.keys()
    for key, r in ref.items():
        g = got[key]
        if isinstance(r, float):
            assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), key
        else:
            assert g == r, key


def test_band_edge_fields_stable_under_pruned_transform(cfg, monkeypatch):
    # integer blob motion puts energy on the band edge itself: without the
    # membership slack a 1e-14 change in the transform moves this clip's
    # trans_band_miss from 0.094 to 0.081 (s_trend, a ratio of two
    # near-zero variances here, is left out: it amplifies rounding)
    clip = synth_sim2("gaussian_blobs",
                      MotionSpec(kind="translation", v=(2.0, 1.0), seed=2),
                      16, 64, 64)
    got, ref = reports_both_ways(clip, cfg, monkeypatch)
    for key in ("diagnostics.trans_band_miss.", "stats.c_scale.",
                "stats.c_rot."):
        assert abs(got[key] - ref[key]) <= 1e-12, key


@pytest.mark.parametrize("fmt", [None, "raw_f32", "pgm_dir"])
def test_source_can_be_read_again(fmt, cfg, tmp_path):
    # a window's source, a raw file's and a PGM directory's give the same
    # chunks and the same report on a second read
    clip = make_fixture_clip("rotation", frames_t=17, size=64)
    if fmt is None:
        src = clip
    else:
        path = str(tmp_path / "clip")
        save_video(clip, path, fmt)
        src = FrameSource.open(path)
    first, second = (list(src.chunks()) for _ in range(2))
    assert [len(c) for c in first] == [7, 7, 3]
    for a, b in zip(first, second, strict=True):
        np.testing.assert_array_equal(a, b)
    assert analyze(src, cfg).to_dict() == analyze(src, cfg).to_dict()


@pytest.mark.parametrize("fmt", ["raw_f32", "pgm_dir"])
@pytest.mark.parametrize("kind", sorted(FIXTURE_SPECS))
def test_analyze_source_matches_loaded_window(kind, fmt, cfg, tmp_path):
    # 17 frames of 64x64 are read in chunks of 7, the last one of 3
    path = str(tmp_path / "clip")
    save_video(make_fixture_clip(kind, frames_t=17, size=64), path, fmt)
    assert [len(c) for c in FrameSource.open(path).chunks()] == [7, 7, 3]
    got = flat_fields(analyze(FrameSource.open(path), cfg).to_dict())
    ref = flat_fields(analyze(load_video(path), cfg).to_dict())
    assert got.keys() == ref.keys()
    for key, r in ref.items():
        if isinstance(r, float):
            assert abs(got[key] - r) <= 1e-12 * max(1.0, abs(r)), key
        else:
            assert got[key] == r, key


# ---------------------------------------------------------------------------
# grid tables built once; no full-block temporaries

# every cached table builder of the analysis modules, by name: whatever
# one of them defines with an lru_cache's ``cache_clear``
TABLES = {name: fn for mod in (spectral, resample, gates, losses, bounds,
                               synth)
          for name, fn in vars(mod).items()
          if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__}


def test_cached_grid_tables_give_cold_reports():
    # sizes and configs interleaved so a table keyed on too little (the
    # shape alone, or the grid without the ring count, the window, the
    # low-pass ratio or the log-radius bins) would be reused where it does
    # not belong
    clip64 = make_fixture_clip("rotation", size=64)
    calls = [(clip64, SpectralConfig()),
             (make_fixture_clip("scaling", size=128), SpectralConfig()),
             (clip64, SpectralConfig(rings=10)),
             (REPORT_CLIPS["odd_8x33x47"](), SpectralConfig()),
             (clip64, SpectralConfig(window_kind="rect")),
             (clip64, SpectralConfig(lowpass_ratio=0.25)),
             (clip64, SpectralConfig(logradius_bins=12)),
             (clip64, SpectralConfig())]
    warm = [analyze(clip, c).to_dict() for clip, c in calls]
    cold = []
    for clip, c in calls:
        for build in TABLES.values():
            build.cache_clear()
        cold.append(analyze(clip, c).to_dict())
    assert warm == cold


def arrays_in(value) -> list:
    """Every ndarray in ``value``: itself, or one in a tuple, a list or a
    dataclass field, at any depth."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_in(item)]
    return []


def test_cached_grid_tables_read_only():
    fy, fx = signed_bins(33), signed_bins(47)
    m = signed_bins(24)[None, :]
    calls = {"temporal_dft": (8, "hann"),
             "_transform_tables": (8, 33, 47, 0.3, "hann"),
             "build_polar_lut": (fy, fx, 20, 24),
             "_stack_tables": (20, 24, 16, 8),
             "_leakage_profile": (16, "hann"),
             "_ring_masks": (fy, fx, 20, 20.0),
             "_block_grids": (0.0, 0.0, m, 0.0, (20, 24), m),
             "_powerlaw_amplitude": (4, 8, 10, 1.8)}
    assert calls.keys() == TABLES.keys()
    for name, args in calls.items():
        build = TABLES[name]
        assert build.cache_info().maxsize == TABLE_CACHE_SIZE, name
        out = build(*args)
        # an equal copy of each array argument finds the same table
        assert build(*(a.copy() if isinstance(a, np.ndarray) else a
                       for a in args)) is out, name
        arrays = arrays_in(out)
        assert arrays, name
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
    rot = gates.build_samples(0.0, 0.0, m, 0.0, signed_bins(8),
                              np.ones((8, 20, 24)), m, SpectralConfig())
    assert rot.design is gates._block_grids(*calls["_block_grids"])[0]
    # the shared temporal DFT table: its kept rows are the transform's
    assert np.array_equal(spectral._transform_tables(8, 33, 47, 0.3,
                                                     "hann")[-1],
                          spectral.temporal_dft(8, "hann")[
                              keep_mask_1d(8, 0.3)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_sharp_energy_gate(motion_clips):
    # the energy gate's own logistic overflowed exp at this sharpness
    cfg = SpectralConfig(energy_gate_sharpness=1e4)
    for clip in motion_clips.values():
        report = analyze(clip, cfg)
        assert math.isclose(sum(report.weights.values()), 1.0)


def test_analyze_peak_allocation_below_two_blocks():
    # no full-block temporary: the spectra are formed one frame at a time
    # and the 1/2 shift comes off the DC bins instead of a shifted copy
    clip = VideoWindow(make_rng(3).random((32, 256, 256)))
    tracemalloc.start()
    try:
        analyze(clip)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * clip.data.nbytes


# ---------------------------------------------------------------------------
# contrast: 0.5 + c (x - 0.5) scales every spectral energy by c^2


def with_contrast(clip, c):
    return VideoWindow(0.5 + c * (clip.data - 0.5))


def ring_statistics(v, cfg):
    """The ring shares of ``v`` and the report fields derived from them."""
    frames, cube = spectral.cropped_transform(v, cfg)
    shares = resample.ring_energies(np.abs(frames) ** 2, cube.freq_y,
                                    cube.freq_x, cfg)
    rep = analyze(v, cfg)
    return shares, {"c_ring": rep.c_ring, "eps_nb": rep.diagnostics["eps_nb"],
                    "c_flow": rep.c_flow, "s_trend": rep.s_trend,
                    "rho_c": np.array(rep.diagnostics["rho_c"])}


@pytest.fixture(scope="module")
def low_contrast_clip():
    # an absolute 1e-8 in the share denominator moves this clip's ring
    # statistics by up to 4x at c = 1e-9
    return synth_sim2("bandpass_noise",
                      MotionSpec(kind="scaling", alpha=-0.03, seed=3),
                      16, 64, 64)


@settings(max_examples=25, deadline=None)
@given(st.floats(-9.0, 0.0))
def test_ring_statistics_do_not_depend_on_contrast(low_contrast_clip,
                                                   log10_c):
    cfg = SpectralConfig()
    shares, stats = ring_statistics(
        with_contrast(low_contrast_clip, 10.0 ** log10_c), cfg)
    ref_shares, ref = ring_statistics(low_contrast_clip, cfg)
    # a share is a fraction of its frame's total, so 1e-6 of that total
    assert np.abs(shares - ref_shares).max() <= 1e-6
    for name, r in ref.items():
        assert np.all(np.abs(stats[name] - r) <= 1e-6 * np.abs(r)), name


@pytest.mark.xfail(strict=True, reason=(
    "cfg.ridge (1e-3) is absolute while the block moments scale with c^2, "
    "and the identifiability floor is 1e-10 max(1, e_max), so the slice "
    "fits shrink toward 0 at low contrast"))
def test_slice_estimates_do_not_depend_on_contrast(cfg):
    # at 16x64^2, seed 3: translation v_x 0.1753 (c = 1), 0.1749 (1e-4),
    # 0.0070 (1e-6); scaling alpha -0.01922 (c = 1), -0.01772 (1e-4)
    for kind, field, motion in [("translation", "v_x", dict(v=(0.7, -0.3))),
                                ("scaling", "alpha", dict(alpha=-0.02))]:
        clip = synth_sim2("bandpass_noise",
                          MotionSpec(kind=kind, seed=3, **motion), 16, 64, 64)
        ref = getattr(analyze(clip, cfg).slice_estimates[kind], field)
        for c in (1e-4, 1e-6):
            got = getattr(
                analyze(with_contrast(clip, c), cfg).slice_estimates[kind],
                field)
            assert abs(got - ref) <= 1e-6 * abs(ref), (kind, c, got, ref)


@pytest.mark.xfail(strict=True, reason=(
    "the transform takes the fixed core.MID_GRAY off each frame, not the "
    "window's mean, so an added offset leaves energy on each frame's "
    "spatial DC bin, where it enters the sample blocks and their energy "
    "gates"))
def test_slice_estimates_do_not_depend_on_offset(cfg):
    # at 16x64^2, seed 4, offsets 0 / 0.01 / 0.05: translation v_x 0.24429 /
    # 0.24488 / 0.24012, rotation omega 0.18953 / 0.18828 / 0.16880 and
    # scaling alpha -0.02576 / -0.00255 / -0.00030
    for base, kind, field, motion in [
            ("bandpass_noise", "translation", "v_x", dict(v=(1.0, 0.5))),
            ("gaussian_blobs", "rotation", "omega", dict(omega=0.2)),
            ("bandpass_noise", "scaling", "alpha", dict(alpha=-0.03))]:
        clip = synth_sim2(base, MotionSpec(kind=kind, seed=4, **motion),
                          16, 64, 64)
        ref = getattr(analyze(clip, cfg).slice_estimates[kind], field)
        for offset in (0.01, 0.05):
            got = getattr(analyze(VideoWindow(clip.data + offset),
                                  cfg).slice_estimates[kind], field)
            assert abs(got - ref) <= 1e-6 * abs(ref), (kind, offset, got, ref)


def test_every_slice_flagged_gives_equal_weights(cfg):
    # under Hann both clips flag every slice; a softmax of their sentinel
    # losses would read rotation 0.987 for all_0.5 and scaling 0.980 for
    # t2_blobs (its taper is all zero)
    for name in ("all_0.5", "t2_blobs"):
        rep = analyze(LAYOUT_CLIPS[name](), cfg)
        assert all(rep.diagnostics["flags"][f] for f in BLOCK_FLAGS.values())
        assert all(abs(w - 1 / 3) <= 1e-12 for w in rep.weights.values()), \
            (name, rep.weights)
