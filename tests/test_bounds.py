import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sim2spec.bounds import (BoundCheck, Calibration, band_capture_check,
                             calibrate_flow, calibrate_interp,
                             master_bound_check, ridge_inequality_check,
                             ring_entropy_bound, ring_entropy_check,
                             window_leakage)
from sim2spec.core import (CalibrationMissingError, ConfigError,
                           SpectralConfig)
from sim2spec.losses import analyze
from sim2spec.synth import MotionSpec, make_rng, synth_sim2

from conftest import make_fixture_clip


# ---------------------------------------------------------------------------
# window leakage


def test_leakage_full_band_zero():
    for t in (8, 16, 32):
        assert window_leakage(t, t // 2, "hann") == 0.0
        assert window_leakage(t, t // 2, "rect") == 0.0


def test_leakage_rect_all_energy_at_dc():
    assert window_leakage(16, 0, "rect") <= 1e-24


def test_leakage_hann_monotone_in_t():
    assert window_leakage(32, 1) <= window_leakage(16, 1)
    for delta in (0, 1, 2):
        vals = [window_leakage(t, delta) for t in (8, 16, 32, 64)]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(3))


def test_leakage_monotone_in_delta():
    for t in (8, 16, 32, 64):
        vals = [window_leakage(t, d) for d in range(t // 2 + 1)]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))
        assert all(0.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# band capture


def test_band_capture_hand_example():
    delta = 1.5
    chk = band_capture_check([1.0, 1.0], [0.0, 2 * delta], [0.7, 0.7], delta)
    assert chk.lhs == pytest.approx(0.5)
    assert chk.rhs == pytest.approx(2.0)
    assert chk.holds


def test_band_capture_full_capture():
    chk = band_capture_check([1, 2, 3], [0.5, -0.3, 0.9], [1, 1, 1], 1.0)
    assert chk.lhs == 0.0
    assert chk.holds


def test_band_capture_zero_energy_vacuous():
    chk = band_capture_check([0, 0], [5, 5], [1, 1], 1.0)
    assert chk.holds
    assert chk.context["vacuous"]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_band_capture_random_never_violated(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 50))
    energies = rng.uniform(0.01, 1.0, k)
    errors = rng.normal(0, 3, k)
    g_lo = rng.uniform(0.05, 0.5)
    gates = rng.uniform(g_lo, g_lo + rng.uniform(0.01, 1.0), k)
    delta = float(rng.integers(1, 4))
    assert band_capture_check(energies, errors, gates, delta).holds


# ---------------------------------------------------------------------------
# ring entropy


def test_ring_entropy_bound_zero_eps():
    for n in (2, 5, 20):
        assert ring_entropy_bound(0.0, n) == 0.0
    one_ring = np.zeros(20)
    one_ring[7] = 1.0
    chk = ring_entropy_check(one_ring, 0.0)
    assert chk.lhs == 0.0 and chk.holds


def test_ring_entropy_bound_half_two_rings():
    assert ring_entropy_bound(0.5, 2) == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_ring_entropy_random_two_ring(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    eps_nb = float(rng.uniform(0, 0.5))
    leak = float(rng.uniform(0, eps_nb)) if eps_nb > 0 else 0.0
    rings = np.zeros(n)
    a, b = rng.choice(n, 2, replace=False)
    rings[a], rings[b] = 1 - leak, leak
    assert ring_entropy_check(rings, eps_nb).holds


# ---------------------------------------------------------------------------
# ridge inequality


def test_ridge_inequality_lambda_zero_equality():
    rng = make_rng(5)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    w = rng.uniform(0.5, 1.5, 30)
    chk = ridge_inequality_check(x, y, w, 0.0)
    assert abs(chk.lhs - chk.rhs) <= 1e-9 * max(1, abs(chk.rhs))


def test_ridge_inequality_consistent_system():
    rng = make_rng(6)
    x = rng.normal(size=(40, 3))
    theta = np.array([1.0, -2.0, 0.5])
    y = x @ theta
    w = np.ones(40)
    for lam in (1e-4, 1e-2, 1.0):
        chk = ridge_inequality_check(x, y, w, lam)
        assert chk.holds
        assert chk.lhs <= lam * float(theta @ theta) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([1e-4, 1e-3]))
def test_ridge_inequality_random(seed, lam):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 30))
    p = int(rng.integers(1, 6))
    x = rng.normal(size=(m, p))
    if p >= 2 and rng.random() < 0.25:
        x[:, -1] = x[:, 0]
    y = rng.normal(size=m)
    w = rng.uniform(0.1, 2.0, m)
    assert ridge_inequality_check(x, y, w, lam).holds


# ---------------------------------------------------------------------------
# master bounds


def test_master_requires_calibration(motion_reports):
    with pytest.raises(CalibrationMissingError):
        master_bound_check(motion_reports["rotation"], 1e-3, None)


def test_master_ideal_translation(cfg_rect, calibration):
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    rep = analyze(clip, cfg_rect)
    checks = master_bound_check(rep, window_leakage(32, 1, "rect"),
                                calibration)
    by = {c.context["bound"]: c for c in checks}
    assert by["translation"].holds
    assert by["translation"].lhs <= 1e-9
    assert all(c.holds for c in checks)


def test_master_rotation_delta_sweep(cfg, calibration):
    clip = make_fixture_clip("rotation")
    prev_c_rot = -1.0
    prev_lhs, prev_term = math.inf, math.inf
    for delta in (1, 2, 3):
        rep = analyze(clip, cfg.with_overrides(band_tolerance=delta))
        assert rep.c_rot >= prev_c_rot - 1e-12  # band widening is monotone
        prev_c_rot = rep.c_rot
        eps_win = window_leakage(16, delta, "hann")
        checks = master_bound_check(rep, eps_win, calibration)
        assert all(c.holds for c in checks), [c.to_dict() for c in checks]
        rot = next(c for c in checks if c.context["bound"] == "rotation")
        # widening the band lowers the surrogate and shrinks the 1/delta^2
        # reference term
        assert rot.lhs <= prev_lhs + 1e-12
        term = rot.context["gate_ratio"] / (2 * delta ** 2) \
            * rot.context["slice_residual"]
        assert term <= prev_term + 1e-12
        prev_lhs, prev_term = rot.lhs, term


def test_band_capture_from_samples_adapter(cfg_rect):
    from sim2spec.bounds import band_capture_from_samples
    from sim2spec.losses import translation_loss
    from sim2spec.spectral import crop_to_cube, spectral_transform
    from sim2spec.core import normalize_window
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    s3c = crop_to_cube(spectral_transform(normalize_window(clip), cfg_rect),
                       cfg_rect.lowpass_ratio)
    out = translation_loss(s3c, cfg_rect)
    samples = out.samples
    errors = samples.rows @ out.fit.theta - samples.targets
    chk = band_capture_from_samples(samples, errors, 1.0)
    assert chk.holds
    assert chk.lhs <= 1e-9  # exactness-mode clip sits on the plane


def test_master_adversarial_two_motions(cfg, calibration):
    # two independent motions in one window: both sides of each bound grow
    rng = make_rng(31)
    a = make_fixture_clip("rotation").data
    b = make_fixture_clip("translation").data
    from sim2spec.core import VideoWindow
    clip = VideoWindow.from_array(np.clip(0.5 * (a + b)
                                          + 0.02 * rng.standard_normal(a.shape),
                                          0, 1))
    rep = analyze(clip, cfg)
    checks = master_bound_check(rep, window_leakage(16, 1, "hann"),
                                calibration)
    assert all(c.holds for c in checks), [c.to_dict() for c in checks]


def test_bound_check_slack_sign():
    good = BoundCheck(1.0, 2.0)
    assert good.holds and good.slack == 1.0
    bad = BoundCheck(2.0, 1.0)
    assert not bad.holds


# ---------------------------------------------------------------------------
# calibration


def test_calibration_roundtrip(tmp_path, calibration):
    path = str(tmp_path / "cal.json")
    calibration.save(path)
    back = Calibration.load(path)
    assert back.eps_interp == calibration.eps_interp
    assert back.delta_flow == calibration.delta_flow
    assert back.rng == "numpy.random.Philox"


def test_calibrate_interp_positive_bounded(calibration):
    assert 0.0 < calibration.eps_interp <= 1.0


def test_calibrate_interp_constant_case_near_zero():
    # a constant (infinitely smooth) spectrum displaces essentially nothing
    from sim2spec.bounds import _dense_band_fraction
    from sim2spec.spectral import signed_bins
    size = 64
    fy, fx = signed_bins(size), signed_bins(size)
    flat = np.ones((size, size), dtype=complex)
    cfg = SpectralConfig()
    lut_h, dense_h = _dense_band_fraction(flat, fy, fx, cfg.rings,
                                          cfg.angular_bins)

    def per_m(h, m):
        e = (np.abs(h) ** 2).sum(axis=0)
        folded = np.zeros(m)
        for i in range(len(e)):
            folded[i % m] += e[i]
        return folded / folded.sum()

    gap = 0.5 * np.abs(per_m(lut_h, 24) - per_m(dense_h, 24)).sum()
    assert gap <= 1e-6


def test_calibrate_flow_positive_bounded(calibration):
    assert 0.0 <= calibration.delta_flow <= 2.0


def test_calibrate_interp_impulse_is_worst_case():
    worst, gaps = calibrate_interp(spatial_size=48, return_cases=True)
    assert gaps["impulse"] == pytest.approx(worst)
    assert gaps["constant"] <= 1e-6
    assert all(gaps["impulse"] >= g - 1e-12 for g in gaps.values())
