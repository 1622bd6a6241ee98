"""The four spectral motion losses, closed-form parameter estimates,
adaptive weighting, and the end-to-end analyze pipeline.

Units and sign conventions (fixed once, used everywhere):

* all fits run in signed frequency-bin coordinates; design columns are
  ``[omega_x, omega_y, m, nu, 1]`` and targets ``-omega_t``
* a pattern moving rightward at ``v`` px/frame fits a plane coefficient
  ``v * T / W`` (so px/frame = coefficient * W / T); analogous for y
* an angular velocity of ``Omega`` rad/frame puts angular-harmonic energy
  on ``omega_t = -m * Omega * T / (2 pi)``, so rad/frame =
  line-slope * 2 pi / T
* a log-scale rate ``alpha`` per frame shifts the log-radius profile, and
  physical alpha = -line-slope * xi_step * N_xi / T (sign fixed by the
  discrete shift theorem; zooming in moves spectral mass to lower radii)
* ``_rate_factors`` computes the two line-slope factors above; the loss
  results, the joint and slice estimates and the report's ``conversions``
  all take them from it
* every per-window array has time on axis 0: the cube
  ``(omega_t, ky, kx)``, ``ang`` ``(omega_t, rings, m)``, ``rad``
  ``(omega_t, nu)`` and the ring shares ``(T, rings)`` reach
  ``gates.build_samples`` and the statistics as they are
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .core import (DegenerateInputError, FormatError, FrameSource,
                   MotionEstimate, SpectralConfig, Sim2Error,
                   UnobservableError, VideoWindow)
from .gates import WeightedSamples, build_samples
from .resample import (HarmonicStack, build_polar_lut, make_stack,
                       max_safe_radius, normalized_entropy, polar_resample,
                       ring_energies)
from .spectral import Spectrum3D, cropped_transform
# the full-spectrum reference transforms stay importable from this module,
# where the benchmark's span checks look them up
from .spectral import spatial_transform, spectral_transform  # noqa: F401

__all__ = [
    "RidgeResult", "LossReport", "TranslationLoss",
    "RotationLoss", "ScalingLoss",
    "ridge_wls_solve", "translation_loss", "rotation_loss", "scaling_loss",
    "unified_residual", "adaptive_composite", "analyze",
]

@dataclass(frozen=True)
class RidgeResult:
    """A weighted ridge fit: the joint fit, or one motion slice's fit."""

    theta: np.ndarray
    residual: float
    identifiable: bool


def ridge_wls_solve(gram: np.ndarray, rhs: np.ndarray, sum_w: float,
                    lam: float) -> tuple:
    """``(theta, identifiable)`` of the ridge normal equations, from the
    moments ``gram`` = X'WX, ``rhs`` = X'Wy and ``sum_w`` = sum(w).

    One symmetric eigendecomposition ``gram = V diag(e) V'`` gives both:
    ``theta = V ((V' rhs) / (e + lam))`` over the eigenpairs whose
    ``e + lam`` lies above rounding level (``n eps max(e + lam)``), which is
    the pseudo-inverse's min-norm answer at lam = 0; the fit is identifiable
    when ``e_min > 1e-10 max(1, e_max)``.  A 1x1 gram skips LAPACK: its
    ``e = [g]``, ``V = [[1]]`` make theta ``(r + 0) / (g + lam) + 0``."""
    if sum_w <= 0.0:
        raise UnobservableError("zero total weight")
    if len(rhs) == 1:
        g, d = gram[0, 0], gram[0, 0] + lam
        t = (rhs[0] + 0.0) / d + 0.0 if d > np.finfo(float).eps * d else 0.0
        return np.array([t]), bool(g > 1e-10 * max(1.0, g))
    e, v = np.linalg.eigh(gram)
    d = e + lam
    keep = d > len(d) * np.finfo(np.float64).eps * d.max()
    theta = v[:, keep] @ ((v[:, keep].T @ rhs) / d[keep])
    return theta, bool(e[0] > 1e-10 * max(1.0, e[-1]))


TRANS_COLS, ROT_COLS, SCALE_COLS, JOINT_COLS = (
    (list(c), np.ix_(c, c)) for c in ((0, 1, 4), (2,), (3,), range(5)))


def _fit(moments: tuple, cols: tuple, lam: float) -> RidgeResult:
    """Ridge fit over ``cols`` (``TRANS_COLS`` ...: a column list and its
    ``np.ix_`` gram index) on the moments ``(gram, rhs, sum_w, sum_wyy)``:
    theta scattered into the 5-vector, and the residual ``sum w err^2 /
    sum w`` from the same moments as ``(theta' G theta - 2 theta' r + sum w
    y^2) / sum w``, clamped at 0 where rounding takes it below."""
    gram, rhs, sum_w, sum_wyy = moments
    cols, block = cols
    theta = np.zeros(5)
    theta[cols], identifiable = ridge_wls_solve(gram[block], rhs[cols],
                                                sum_w, lam)
    residual = (theta @ gram @ theta - 2.0 * theta @ rhs + sum_wyy) / sum_w
    return RidgeResult(theta, max(0.0, float(residual)), identifiable)


# "no fit": a flagged slice, or the joint fit when every slice is flagged
_NO_FIT = RidgeResult(np.zeros(5), 0.0, False)
_NO_FIT.theta.setflags(write=False)


# ---------------------------------------------------------------------------
# slice machinery shared by the individual losses

# integer synthetic motions put energy exactly on a band edge; without the
# slack, rounding at the 1e-14 level decides whether it counts as inside
BAND_EDGE_SLACK = 1e-9


def _slice_fit(cols, cfg: SpectralConfig, *block):
    """Build one motion slice's sample block, ``build_samples(*block,
    cfg)``, and solve its ridge fit over ``cols`` once.

    Returns ``(fit, samples, capture)``, ``capture`` being the raw-energy
    fraction of the samples whose error under the fit lies within the band
    tolerance.  A block with no usable weight, or whose fit is not
    identifiable, flags the slice as ``(_NO_FIT, None, 0.0)``.
    """
    try:
        samples = build_samples(*block, cfg)
        fit = _fit(samples.moments, cols, cfg.ridge)
    except UnobservableError:
        return _NO_FIT, None, 0.0
    if not fit.identifiable:
        return _NO_FIT, None, 0.0
    in_band = (np.abs(samples.errors(fit.theta))
               <= cfg.band_tolerance + BAND_EDGE_SLACK)
    capture = float(samples.energies[in_band].sum() / samples.energies.sum())
    return fit, samples, capture


def _rate_factors(stack: HarmonicStack) -> tuple:
    """``(rad/frame, log-scale rate per frame)`` per bin of the angular and
    the log-radial line slope."""
    nt = len(stack.freq_t)
    return 2.0 * math.pi / nt, -stack.xi_step * len(stack.rad_nu) / nt


def _estimate(theta: np.ndarray, stack: HarmonicStack) -> MotionEstimate:
    """A fit's ``theta`` as a motion estimate: the plane coefficients and
    the intercept stay in bins, the line slopes take ``_rate_factors``.
    Adding 0.0 makes a zero slope read 0.0, not the -0.0 of zero times the
    negative alpha factor."""
    factors = np.array([1.0, 1.0, *_rate_factors(stack), 1.0])
    return MotionEstimate(*(theta * factors + 0.0).tolist())


# ---------------------------------------------------------------------------
# individual losses


@dataclass(frozen=True)
class _SliceLoss:
    """The part every loss result shares: the restricted slice fit and the
    sample block it was solved on.  A flagged slice has the zero-theta
    ``_NO_FIT`` and no block, which also keeps it out of the unified fit."""

    fit: RidgeResult
    samples: WeightedSamples | None

    @property
    def flagged(self) -> bool:
        return self.samples is None


@dataclass(frozen=True)
class TranslationLoss(_SliceLoss):
    """``l_trans`` is the plane-fit residual in bin^2 (sentinel 1.0 when
    flagged); ``band_miss`` the raw-energy fraction farther than the band
    tolerance from the fitted plane."""

    l_trans: float
    band_miss: float


@dataclass(frozen=True)
class RotationLoss(_SliceLoss):
    """``omega`` is the slice fit's ridge slope in rad/frame."""

    l_rot: float
    c_rot: float
    c_ring: float
    omega: float
    eps_nb: float


@dataclass(frozen=True)
class ScalingLoss(_SliceLoss):
    """``alpha`` is the slice fit's ridge slope as a log-scale rate per
    frame; ``rho_c`` the per-frame radial centroid and ``rho_c_slope`` its
    trend."""

    l_scale: float
    c_flow: float
    s_trend: float
    c_scale: float
    alpha: float
    rho_c: np.ndarray
    rho_c_slope: float
    short_window: bool
    trend_flat: bool


def translation_loss(s: Spectrum3D, cfg: SpectralConfig) -> TranslationLoss:
    """Plane fit over the retained Cartesian bins.

    A degenerate spatial support (or an all-zero spectrum) yields the
    sentinel loss 1.0 with the slice flagged.  The softmax weighs it like
    a measured loss, which is also in bin^2 (0.23-1.8 on the benchmark's
    quality set), so 1.0 is no penalty; only a window with every slice
    flagged gets equal weights (see ``analyze``).
    """
    # one sample per retained Cartesian bin
    fit, samples, capture = _slice_fit(
        TRANS_COLS, cfg, s.freq_x[None, :], s.freq_y[:, None], 0.0, 0.0,
        s.freq_t, np.abs(s.coeffs) ** 2, None)
    if samples is None:
        return TranslationLoss(fit, None, l_trans=1.0, band_miss=0.0)
    return TranslationLoss(fit, samples, l_trans=fit.residual,
                           band_miss=1.0 - capture)


def rotation_loss(stack: HarmonicStack, rings: np.ndarray,
                  cfg: SpectralConfig) -> RotationLoss:
    """Angular-velocity line fit, tilted-line energy ratio and ring
    concentration of the ``(T, rings)`` ring shares.

    The line slope is the slice's gated energy-weighted ridge slope over
    m != 0, and c_rot the energy captured by that same fit; with no usable
    harmonic energy, or an unidentifiable fit, the line term is dropped
    (c_rot = 0, flagged).

    Temporal Nyquist caveat: a harmonic m rotating at omega rad/frame
    carries a tone at m*omega rad/frame, which aliases once |m*omega| >= pi
    and then biases the slope toward zero.
    """
    c_ring = min(max(1.0 - float(normalized_entropy(rings).mean()), 0.0), 1.0)
    eps_nb = float(np.mean(1.0 - rings.max(axis=1)))
    # one sample per (omega_t, rho, m != 0) angular-harmonic cell
    keep = stack.ang_m != 0
    m = stack.ang_m[keep]
    fit, samples, c_rot = _slice_fit(ROT_COLS, cfg, 0.0, 0.0, m, 0.0,
                                     stack.freq_t,
                                     np.abs(stack.ang[:, :, keep]) ** 2, m)
    l_rot = 1.0 - 0.5 * (c_ring + c_rot)
    return RotationLoss(
        fit, samples, l_rot=min(max(l_rot, 0.0), 1.0), c_rot=c_rot,
        c_ring=c_ring, omega=_estimate(fit.theta, stack).omega,
        eps_nb=eps_nb)


def scaling_loss(rings: np.ndarray, stack: HarmonicStack,
                 cfg: SpectralConfig) -> ScalingLoss:
    """Radial-flow alignment, centroid trend and the log-radial line fit.

    The line slope is the slice's gated energy-weighted ridge slope over
    nu != 0, and c_scale the energy captured by that same fit; a slice
    flagged as in ``rotation_loss`` reports slope 0 and c_scale 0.
    ``rings`` is the ``(T, rings)`` array of per-frame ring shares from
    ``ring_energies``; c_flow is 0 when either share difference is all
    zero.  Windows shorter than 3 frames default both proxies to 0.5
    (``short_window``); a flat centroid sets ``trend_flat`` and trend 0.
    """
    nt = len(rings)
    rho_c = rings @ np.arange(1.0, rings.shape[1] + 1)
    c_flow, s_trend, slope, trend_flat = 0.5, 0.5, 0.0, False
    if nt >= 3:
        d_t, d_rho = rings[1:] - rings[:-1], rings[:, 1:] - rings[:, :-1]
        norms = (math.sqrt(float((d_rho ** 2).sum()))
                 * math.sqrt(float((d_t ** 2).sum())))
        flow = abs(float((d_rho[:-1] * d_t[:, :-1]).sum()))
        c_flow = min(flow / norms, 1.0) if norms > 0 else 0.0

        t = np.arange(nt, dtype=np.float64)
        cov = float(np.mean((rho_c - rho_c.mean()) * (t - t.mean())))
        var_r = float(np.var(rho_c))
        var_t = float(np.var(t))
        trend_flat = var_r <= 1e-24
        s_trend = 0.0 if trend_flat else min(
            abs(cov) / math.sqrt(var_r * var_t), 1.0)
        slope = cov / var_t

    # one sample per (omega_t, nu != 0) log-radial harmonic cell
    keep = stack.rad_nu != 0
    nu = stack.rad_nu[keep]
    fit, samples, c_scale = _slice_fit(SCALE_COLS, cfg, 0.0, 0.0, 0.0, nu,
                                       stack.freq_t,
                                       np.abs(stack.rad[:, keep]) ** 2, nu)
    l_scale = 1.0 - 0.5 * (c_flow + s_trend)
    return ScalingLoss(
        fit, samples, l_scale=min(max(l_scale, 0.0), 1.0),
        c_flow=c_flow, s_trend=s_trend, c_scale=c_scale,
        alpha=_estimate(fit.theta, stack).alpha, rho_c=rho_c,
        rho_c_slope=slope, short_window=nt < 3, trend_flat=trend_flat)


# ---------------------------------------------------------------------------
# unified fit


def unified_residual(trans: WeightedSamples | None,
                     rot: WeightedSamples | None,
                     scale: WeightedSamples | None,
                     cfg: SpectralConfig) -> RidgeResult:
    """Joint 5-parameter hyperplane fit over the blocks that are given.

    It solves on the sum of the block moments, each scaled by one over the
    block's total energy so no domain swamps the others.  With no block
    given it is ``_NO_FIT``.
    """
    blocks = [s for s in (trans, rot, scale) if s is not None]
    if not blocks:
        return _NO_FIT
    scales = [1.0 / float(s.energies.sum()) for s in blocks]
    return _fit([sum(s * x for s, x in zip(scales, part))
                 for part in zip(*(b.moments for b in blocks))],
                JOINT_COLS, cfg.ridge)


# ---------------------------------------------------------------------------
# adaptive weighting


def adaptive_composite(l_trans: float, l_rot: float, l_scale: float,
                       tau: float):
    """Temperature softmax over the negated losses and the weighted sum."""
    if not tau > 0:
        raise DegenerateInputError("temperature must be positive")
    losses = np.array([l_trans, l_rot, l_scale], dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        raise DegenerateInputError("losses must be finite")
    z = -losses / tau
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return w, float((w * losses).sum())


# ---------------------------------------------------------------------------
# end-to-end


@dataclass(frozen=True)
class LossReport:
    l_trans: float
    l_rot: float
    l_scale: float
    l_uni: float
    l_motion: float
    c_rot: float
    c_ring: float
    c_flow: float
    s_trend: float
    c_scale: float
    estimate: MotionEstimate
    slice_estimates: dict
    weights: dict
    slice_residuals: dict
    diagnostics: dict

    def argmax_weight(self) -> str:
        return max(self.weights, key=self.weights.get)

    def to_dict(self) -> dict:
        return {
            "losses": {"translation": self.l_trans, "rotation": self.l_rot,
                       "scaling": self.l_scale, "unified": self.l_uni,
                       "motion": self.l_motion},
            "stats": {"c_rot": self.c_rot, "c_ring": self.c_ring,
                      "c_flow": self.c_flow, "s_trend": self.s_trend,
                      "c_scale": self.c_scale},
            "estimate": self.estimate.to_dict(),
            "slice_estimates": {k: v.to_dict()
                                for k, v in self.slice_estimates.items()},
            "weights": dict(self.weights),
            "slice_residuals": dict(self.slice_residuals),
            "diagnostics": dict(self.diagnostics),
        }


@contextlib.contextmanager
def _stage(name: str):
    """Prefixes escaping package errors with the pipeline stage that raised
    them; a ``FormatError`` from reading the input keeps the reader's
    text.  Stages run one after another, never nested."""
    try:
        yield
    except Sim2Error as exc:
        if isinstance(exc, FormatError):
            raise
        raise type(exc)(f"[{name}] {exc}") from exc


def analyze(v: VideoWindow | FrameSource,
            cfg: SpectralConfig | None = None) -> LossReport:
    """Run the full pipeline on one window, held or read from a source.

    pruned transform of the mean-shifted window (``core.MID_GRAY`` comes
    off each frame's DC bin, see ``cropped_transform``) -> polar/harmonic
    features -> losses -> adaptive composite.  Deterministic for fixed
    input and configuration; escaping errors carry their stage label, and
    the input's format errors come ahead of a too-short window's.
    """
    cfg = cfg or SpectralConfig()
    nt, height, width = v.shape

    with _stage("transform"):
        frames_c, s3c = cropped_transform(v, cfg)
        retained = s3c.coeffs.size / (nt * height * width)
    if nt < 2:
        raise DegenerateInputError("window too short: need at least 2 frames")

    with _stage("resample"):
        if max_safe_radius(s3c.freq_y, s3c.freq_x) < 1.0:
            raise DegenerateInputError(
                "spatial grid too small for polar analysis")
        lut = build_polar_lut(s3c.freq_y, s3c.freq_x,
                              cfg.rings, cfg.angular_bins)
        polar = polar_resample(frames_c, lut)
        stack = make_stack(polar, cfg)
        rings = ring_energies(np.abs(frames_c) ** 2, s3c.freq_y, s3c.freq_x,
                              cfg)

    with _stage("losses"):
        trans = translation_loss(s3c, cfg)
        rot = rotation_loss(stack, rings, cfg)
        scl = scaling_loss(rings, stack, cfg)
        results = {"translation": trans, "rotation": rot, "scaling": scl}
        slices = {name: r for name, r in results.items() if not r.flagged}
        uni = unified_residual(trans.samples, rot.samples, scl.samples, cfg)
        # with no slice measured, no motion is preferred: an infinite
        # temperature weighs the three losses equally
        w, l_motion = adaptive_composite(
            trans.l_trans, rot.l_rot, scl.l_scale,
            cfg.softmax_temperature if slices else math.inf)

    to_omega, to_alpha = _rate_factors(stack)
    diagnostics = {
        "retained_fraction": retained,
        "rho_c": scl.rho_c.tolist(),
        "rho_c_slope": scl.rho_c_slope,
        "eps_nb": rot.eps_nb,
        "trans_band_miss": trans.band_miss,
        "gate_bounds": {name: [r.samples.g_lo, r.samples.g_hi]
                        for name, r in slices.items()},
        "sum_w": {name: float(r.samples.moments[2])
                  for name, r in slices.items()},
        "slice_theta_sqnorm": {name: float(r.fit.theta @ r.fit.theta)
                               for name, r in slices.items()},
        "flags": {
            "trans_unobservable": trans.flagged,
            "rot_no_energy": rot.flagged,
            "scale_no_energy": scl.flagged,
            "trend_flat": scl.trend_flat,
            "short_window": scl.short_window,
            "unified_rank_deficient": not uni.identifiable,
        },
        "conversions": {
            "v_x_bins_to_px_per_frame": width / nt,
            "v_y_bins_to_px_per_frame": height / nt,
            "omega_bins_to_rad_per_frame": to_omega,
            "alpha_bins_to_rate_per_frame": to_alpha,
        },
        "omega_bins": float(rot.fit.theta[2]),
        "alpha_bins": float(scl.fit.theta[3]),
        "frames_t": nt,
        "rings": rings.shape[1],
        "window_kind": cfg.window_kind,
        "ridge": cfg.ridge,
        "band_tolerance": cfg.band_tolerance,
    }

    return LossReport(
        l_trans=trans.l_trans, l_rot=rot.l_rot, l_scale=scl.l_scale,
        l_uni=uni.residual, l_motion=l_motion,
        c_rot=rot.c_rot, c_ring=rot.c_ring, c_flow=scl.c_flow,
        s_trend=scl.s_trend, c_scale=scl.c_scale,
        estimate=_estimate(uni.theta, stack),
        slice_estimates={name: _estimate(r.fit.theta, stack)
                         for name, r in results.items()},
        weights={"translation": float(w[0]), "rotation": float(w[1]),
                 "scaling": float(w[2])},
        slice_residuals={name: r.fit.residual for name, r in slices.items()},
        diagnostics=diagnostics)
