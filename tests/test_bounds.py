import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sim2spec.bounds import (BoundCheck, band_capture_check,
                             ridge_inequality_check, ring_entropy_bound,
                             ring_entropy_check, window_leakage)
from sim2spec import bounds
from sim2spec.cli import suite_bounds
from sim2spec.core import ConfigError, DegenerateInputError
from sim2spec.losses import analyze
from sim2spec.spectral import signed_bins, temporal_window
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


def test_leakage_all_zero_window_is_degenerate():
    # the symmetric T=2 Hann window is all zero, so it has no spectral
    # energy to split; the rect window at T=2 keeps all of it at DC
    with pytest.raises(DegenerateInputError):
        window_leakage(2, 1, "hann")
    assert window_leakage(2, 1, "rect") == 0.0


@pytest.mark.parametrize("kind", ["hann", "rect"])
def test_leakage_from_cached_profile_is_the_direct_sum(kind):
    for t in (3, 8, 15, 16, 32, 64):
        h = temporal_window(t, kind)
        power = np.fft.fftshift(np.abs(np.fft.fft(h)) ** 2)
        bins = signed_bins(t)
        for delta in range(t // 2 + 2):
            direct = float(power[np.abs(bins) > delta].sum() / power.sum())
            assert window_leakage(t, delta, kind) == direct


def test_bounds_suite_reads_one_profile_per_window():
    bounds._leakage_profile.cache_clear()
    suite_bounds(0, 0)
    # 76 leakage values over the four frame counts, all Hann
    assert bounds._leakage_profile.cache_info().misses == 4


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
# surrogates against their slice residuals


def test_master_ideal_translation(cfg_rect):
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    rep = analyze(clip, cfg_rect)
    assert rep.diagnostics["trans_band_miss"] <= 1e-9


def test_master_rotation_delta_sweep(cfg):
    clip = make_fixture_clip("rotation")
    prev_c_rot = -1.0
    prev_l_rot, prev_term = math.inf, math.inf
    for delta in (1, 2, 3):
        rep = analyze(clip, replace(cfg, band_tolerance=delta))
        assert rep.c_rot >= prev_c_rot - 1e-12  # band widening is monotone
        prev_c_rot = rep.c_rot
        # widening the band lowers the surrogate and shrinks the 1/delta^2
        # reference term
        assert rep.l_rot <= prev_l_rot + 1e-12
        g_lo, g_hi = rep.diagnostics["gate_bounds"]["rotation"]
        term = g_hi / g_lo / (2 * delta ** 2) \
            * rep.slice_residuals["rotation"]
        assert term <= prev_term + 1e-12
        prev_l_rot, prev_term = rep.l_rot, term


def test_band_capture_from_samples_adapter(cfg_rect):
    from sim2spec.losses import translation_loss
    from sim2spec.spectral import crop_to_cube, spectral_transform
    from sim2spec.core import normalize_window
    spec = MotionSpec(kind="translation", v=(1.0, 0.0), seed=4)
    clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
    s3c = crop_to_cube(spectral_transform(normalize_window(clip), cfg_rect),
                       cfg_rect.lowpass_ratio)
    out = translation_loss(s3c, cfg_rect)
    samples = out.samples
    keep = samples.energies > 0
    chk = band_capture_check(samples.energies[keep],
                             samples.errors(out.fit.theta)[keep],
                             samples.weights[keep] / samples.energies[keep],
                             1.0)
    assert chk.holds
    assert chk.lhs <= 1e-9  # exactness-mode clip sits on the plane


def test_bound_check_slack_sign():
    good = BoundCheck(1.0, 2.0)
    assert good.holds and good.slack == 1.0
    bad = BoundCheck(2.0, 1.0)
    assert not bad.holds
