"""Acceptance suite: every release criterion, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
All tolerances are fixed here; nothing is calibrated at test time.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sim2spec.bounds import window_leakage
from sim2spec.cli import suite_bounds
from sim2spec.core import SpectralConfig, normalize_window
from sim2spec.losses import adaptive_composite, analyze, rotation_loss
from sim2spec.spectral import EtaParams, cube_retention, eta_retention
from sim2spec.synth import MotionSpec, make_rng, synth_powerlaw, synth_sim2

from conftest import FIXTURE_SPECS, make_fixture_clip, solve_rows
from test_losses import constructed_stack, one_ring_energies


def announce(num, detail):
    print(f"\nACCEPTANCE-{num}: PASS  {detail}")


def test_acceptance_1_retention(cfg_rect):
    t0 = time.time()
    params = EtaParams.for_grid(16, 224, 224, kappa=1.8)
    eta = eta_retention(0.3, params)
    assert abs(eta["eta_ball"] - 0.97) <= 0.005
    assert abs(eta["eta_cube_hi"] - 0.987) <= 0.005

    lo = eta["eta_cube_lo"] - 0.02
    hi = eta["eta_cube_hi"] + 0.02
    cfg = replace(cfg_rect, lowpass_ratio=0.3)
    vals = []
    for seed in range(100):
        clip = synth_powerlaw(16, 224, 224, kappa=1.8, seed=1000 + seed)
        r = cube_retention(normalize_window(clip), cfg)
        assert lo <= r <= hi, (seed, r)
        vals.append(r)
    mean = float(np.mean(vals))
    assert abs(mean - 0.975) <= 0.02
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(1, f"eta_ball={eta['eta_ball']:.4f} eta_cube_hi="
                f"{eta['eta_cube_hi']:.4f} measured mean={mean:.4f} "
                f"n=100 ({elapsed:.1f}s)")


EXACT_VELOCITIES = ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (-2.0, 1.0))


def test_acceptance_2_exactness(cfg_rect):
    t0 = time.time()
    worst_resid, worst_verr = 0.0, 0.0
    for i, vel in enumerate(EXACT_VELOCITIES):
        spec = MotionSpec(kind="translation", v=vel, seed=200 + i)
        clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
        rep = analyze(clip, cfg_rect)
        est = rep.slice_estimates["translation"]
        conv = rep.diagnostics["conversions"]
        v_px = (est.v_x * conv["v_x_bins_to_px_per_frame"],
                est.v_y * conv["v_y_bins_to_px_per_frame"])
        assert rep.l_trans <= 1e-4, vel
        assert abs(v_px[0] - vel[0]) <= 0.05, vel
        assert abs(v_px[1] - vel[1]) <= 0.05, vel
        worst_resid = max(worst_resid, rep.l_trans)
        worst_verr = max(worst_verr, abs(v_px[0] - vel[0]),
                         abs(v_px[1] - vel[1]))

    rng = make_rng(7)
    theta_star = np.array([0.1, -0.2, 0.3, 0.05, 0.0])
    rows = np.column_stack([rng.normal(size=800) * 4,
                            rng.normal(size=800) * 4,
                            rng.integers(-6, 7, 800).astype(float),
                            rng.integers(-6, 7, 800).astype(float),
                            np.ones(800)])
    targets = rows @ theta_star
    theta, residual, _ = solve_rows(rows, targets,
                                    rng.uniform(0.2, 1.0, 800), 1e-8)
    assert residual <= 1e-10
    assert np.max(np.abs(theta - theta_star)) <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(2, f"worst L_trans={worst_resid:.2e} worst |v_err|="
                f"{worst_verr:.2e} px/frame, hyperplane residual="
                f"{residual:.2e} ({elapsed:.1f}s)")


def test_acceptance_3_rotation(cfg, cfg_rect):
    t0 = time.time()
    for omega in (2 * math.pi / 16, 2 * math.pi / 8):
        stack = constructed_stack(2, omega)
        out = rotation_loss(stack, one_ring_energies(), cfg_rect)
        assert abs(out.omega - omega) / omega <= 0.10
        assert out.c_rot >= 0.9

    rep_rot = analyze(make_fixture_clip("rotation"), cfg)
    rep_trans = analyze(make_fixture_clip("translation"), cfg)
    assert rep_rot.c_rot >= 0.6
    assert rep_rot.l_rot < rep_trans.l_rot
    elapsed = time.time() - t0
    assert elapsed < 60.0
    announce(3, f"harmonic fixtures exact; pipeline C_rot={rep_rot.c_rot:.3f} "
                f"L_rot {rep_rot.l_rot:.3f} < {rep_trans.l_rot:.3f} "
                f"({elapsed:.1f}s)")


def test_acceptance_4_scaling(cfg):
    base, _ = FIXTURE_SPECS["scaling"]
    zin = synth_sim2(base, MotionSpec(kind="scaling", alpha=0.02, seed=7),
                     16, 128, 128)
    rep_in = analyze(zin, cfg)
    assert rep_in.s_trend >= 0.9
    assert rep_in.diagnostics["rho_c_slope"] < 0.0

    zout = synth_sim2(base, MotionSpec(kind="scaling", alpha=-0.02, seed=7),
                      16, 128, 128)
    rep_out = analyze(zout, cfg)
    assert rep_out.diagnostics["rho_c_slope"] > 0.0

    short = synth_sim2(base, MotionSpec(kind="static", seed=3), 2, 64, 64)
    rep2 = analyze(short, cfg)
    assert rep2.l_scale == 0.5
    announce(4, f"zoom-in S_trend={rep_in.s_trend:.3f} slope="
                f"{rep_in.diagnostics['rho_c_slope']:+.3f}, zoom-out slope="
                f"{rep_out.diagnostics['rho_c_slope']:+.3f}, T=2 L_scale=0.5")


def test_acceptance_5_adaptive_weights(cfg, motion_reports):
    for kind, rep in motion_reports.items():
        assert rep.argmax_weight() == kind

    for kind in FIXTURE_SPECS:
        rep = analyze(make_fixture_clip(kind),
                      replace(cfg, softmax_temperature=0.01))
        assert max(rep.weights.values()) >= 0.99, kind

    rng = make_rng(11)
    worst = 0.0
    for _ in range(1000):
        w, _ = adaptive_composite(*rng.uniform(0, 3, 3), rng.uniform(0.01, 2))
        worst = max(worst, abs(float(w.sum()) - 1.0))
    assert worst <= 1e-9
    announce(5, f"argmax matches motion type on all three pure clips; "
                f"tau=0.01 winner weight >= 0.99; sum-to-1 worst error "
                f"{worst:.1e} over 1000 triples")


def test_acceptance_6_bound_suites():
    t0 = time.time()
    checks, summary = suite_bounds(n=1000, seed=0)
    assert summary["violations"] == 0, [(c.context, c.lhs, c.rhs)
                                        for c in checks if not c.holds][:5]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(6, f"{summary['instances']} randomized/monotonicity checks, "
                f"0 violations, worst slack {summary['worst_slack']:.2e} "
                f"({elapsed:.1f}s)")


def test_acceptance_7_master_bounds(cfg):
    t0 = time.time()
    n_checked = 0
    for kind in ("translation", "rotation", "scaling"):
        for noise in (0.0, 0.02, 0.05):
            clip = make_fixture_clip(kind, noise=noise)
            for delta in (1, 2, 3):
                conf = replace(cfg, band_tolerance=delta)
                rep = analyze(clip, conf)
                eps_win = window_leakage(16, delta, "hann")
                # scatter: surrogate band-miss below the Chebyshev reference
                gate = rep.diagnostics["gate_bounds"]
                for name, lhs in (("rotation", 1 - rep.c_rot),
                                  ("scaling", 1 - rep.c_scale),
                                  ("translation",
                                   rep.diagnostics["trans_band_miss"])):
                    g_lo, g_hi = gate[name]
                    ref = (g_hi / g_lo) / delta ** 2 \
                        * rep.slice_residuals[name] + eps_win
                    assert lhs <= ref + 1e-9, (kind, noise, delta, name)
                n_checked += 1
    elapsed = time.time() - t0
    announce(7, f"27 clips x 3 band misses below their Chebyshev reference "
                f"lines ({elapsed:.1f}s)")
    assert n_checked == 27


def test_acceptance_8_noise_consistency():
    rng = make_rng(99)
    n = 10_000
    theta_star = np.array([0.1, -0.2, 0.3, 0.05, 0.0])
    rows = np.column_stack([rng.normal(size=n) * 4, rng.normal(size=n) * 4,
                            rng.integers(-6, 7, n).astype(float),
                            rng.integers(-6, 7, n).astype(float),
                            np.ones(n)])
    sigma2 = 0.01
    targets = rows @ theta_star + rng.normal(0, math.sqrt(sigma2), n)
    _, residual, _ = solve_rows(rows, targets, rng.uniform(0.2, 1.0, n), 1e-3)
    rel = abs(residual - sigma2) / sigma2
    assert rel <= 0.10
    announce(8, f"unified residual {residual:.5f} vs noise floor "
                f"{sigma2} (rel err {100 * rel:.1f}%, 10k samples)")


def test_acceptance_9_performance(cfg):
    clip = make_fixture_clip("translation", size=128)
    analyze(clip, cfg)  # warm-up outside the timed run
    t0 = time.time()
    rep = analyze(clip, cfg)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert rep.diagnostics["retained_fraction"] <= 0.03
    announce(9, f"analyze(16x128x128) in {elapsed * 1000:.0f} ms; retained "
                f"coefficient fraction {rep.diagnostics['retained_fraction']:.4f}"
                f" <= 3%")
