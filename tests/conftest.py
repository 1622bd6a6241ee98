import math
import os

import numpy as np
import pytest

from sim2spec.core import SpectralConfig
from sim2spec.losses import analyze, ridge_wls_solve
from sim2spec.synth import MotionSpec, synth_sim2


@pytest.fixture(scope="session")
def cfg():
    return SpectralConfig()


@pytest.fixture(scope="session")
def cfg_rect():
    return SpectralConfig(window_kind="rect")


# one fixed clip per motion type; bases chosen so each loss has something to
# bite on (blobs carry low angular harmonics for rotation, band-limited noise
# has a clear radial band for translation/scaling).  128 px frames keep the
# ring spacing above the bin spacing, which the radial-flow statistic needs.
FIXTURE_SPECS = {
    "translation": ("bandpass_noise",
                    dict(kind="translation", v=(1.0, 0.5), seed=42)),
    "rotation": ("gaussian_blobs",
                 dict(kind="rotation", omega=2 * math.pi / 16, seed=42)),
    "scaling": ("bandpass_noise",
                dict(kind="scaling", alpha=-0.04, seed=42)),
}


def make_fixture_clip(kind, frames_t=16, size=128, noise=0.0, seed=None):
    base, kw = FIXTURE_SPECS[kind]
    kw = dict(kw, noise_sigma=noise)
    if seed is not None:
        kw["seed"] = seed
    return synth_sim2(base, MotionSpec(**kw), frames_t, size, size)


def usable_cpus(monkeypatch, cpus):
    """Make ``core.usable_cpus`` read the affinity set ``cpus``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def solve_rows(design, targets, weights, lam):
    """Ridge fit of a design matrix through the moment solver: returns
    ``(theta, residual, identifiable)``, the residual weight-normalized."""
    w = np.asarray(weights, dtype=np.float64)
    theta, identifiable = ridge_wls_solve(
        design.T @ (design * w[:, None]), design.T @ (w * targets), w.sum(),
        lam)
    err = design @ theta - targets
    return theta, float((w * err * err).sum() / w.sum()), identifiable


@pytest.fixture(scope="session")
def motion_clips():
    return {kind: make_fixture_clip(kind) for kind in FIXTURE_SPECS}


@pytest.fixture(scope="session")
def motion_reports(motion_clips, cfg):
    return {kind: analyze(clip, cfg) for kind, clip in motion_clips.items()}
