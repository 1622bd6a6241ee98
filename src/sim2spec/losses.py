"""The four spectral motion losses, closed-form parameter estimates,
adaptive weighting, and the end-to-end analyze pipeline.

Units and sign conventions (fixed once, used everywhere):

* all fits run in signed frequency-bin coordinates; design rows are
  ``[omega_x, omega_y, m, nu, 1]`` and targets ``-omega_t``
* a pattern moving rightward at ``v`` px/frame fits a plane coefficient
  ``v * T / W`` (so px/frame = coefficient * W / T); analogous for y
* an angular velocity of ``Omega`` rad/frame puts angular-harmonic energy
  on ``omega_t = -m * Omega * T / (2 pi)``, so rad/frame =
  line-slope * 2 pi / T
* a log-scale rate ``alpha`` per frame shifts the log-radius profile, and
  physical alpha = -line-slope * xi_step * N_xi / T (sign fixed by the
  discrete shift theorem; zooming in moves spectral mass to lower radii)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (DegenerateInputError, MotionEstimate, SpectralConfig,
                   UnobservableError, VideoWindow, normalize_window)
from .gates import WeightedSamples, build_samples
from .resample import (HarmonicStack, build_polar_lut, make_stack,
                       max_safe_radius, polar_resample, ring_energies)
from .spectral import Spectrum3D, cropped_transform
# the full-spectrum reference transforms stay importable from this module,
# where the benchmark's span checks look them up
from .spectral import spatial_transform, spectral_transform  # noqa: F401

__all__ = [
    "RidgeResult", "LossReport", "TranslationLoss",
    "RotationLoss", "ScalingLoss",
    "ridge_wls_solve", "translation_samples", "rotation_samples",
    "scaling_samples", "translation_loss", "rotation_loss", "scaling_loss",
    "unified_residual", "adaptive_composite", "analyze",
]

@dataclass(frozen=True)
class RidgeResult:
    """A weighted ridge fit: the joint fit, or one motion slice's fit."""

    theta: np.ndarray
    residual: float
    identifiable: bool
    sum_w: float


def ridge_wls_solve(design: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, lam: float,
                    jitter: float = 1e-8) -> RidgeResult:
    """Solve the weighted ridge normal equations.

    Factorization order: Cholesky of (X'WX + lam I); on failure the jitter
    is added to the diagonal and the solve retried; the final fallback is
    the pseudo-inverse (which at lam = 0 yields the min-norm LS solution).
    The residual is the weight-normalized squared error.
    """
    design = np.asarray(design, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    sum_w = float(w.sum())
    if sum_w <= 0.0 or not np.any(w > 0):
        raise UnobservableError("zero total weight")
    gram = design.T @ (design * w[:, None])
    rhs = design.T @ (w * targets)
    a = gram + lam * np.eye(design.shape[1])

    theta = None
    try:
        chol = np.linalg.cholesky(a)
        theta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
            theta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        except np.linalg.LinAlgError:
            theta = np.linalg.pinv(a) @ rhs

    err = design @ theta - targets
    residual = float((w * err * err).sum() / sum_w)
    eig = np.linalg.eigvalsh(gram)
    identifiable = bool(eig[0] > 1e-10 * max(1.0, eig[-1]))
    return RidgeResult(theta, residual, identifiable, sum_w)


# ---------------------------------------------------------------------------
# sample builders


def translation_samples(s: Spectrum3D, cfg: SpectralConfig) -> WeightedSamples:
    """One sample per retained Cartesian bin (translation slice columns)."""
    e = (np.abs(s.coeffs) ** 2).ravel()
    wt, wy, wx = np.meshgrid(s.freq_t, s.freq_y, s.freq_x, indexing="ij")
    return build_samples(wx.ravel(), wy.ravel(), 0.0, 0.0, wt.ravel(), e,
                         None, cfg)


def rotation_samples(stack: HarmonicStack, cfg: SpectralConfig) -> WeightedSamples:
    """One sample per (rho, m != 0, omega_t) angular-harmonic cell."""
    keep = stack.ang_m != 0
    coeffs = stack.ang[:, keep, :]
    m = np.broadcast_to(stack.ang_m[keep][None, :, None], coeffs.shape)
    wt = np.broadcast_to(stack.freq_t[None, None, :], coeffs.shape)
    e = np.abs(coeffs.ravel()) ** 2
    return build_samples(0.0, 0.0, m.ravel(), 0.0, wt.ravel(), e,
                         m.ravel(), cfg)


def scaling_samples(stack: HarmonicStack, cfg: SpectralConfig) -> WeightedSamples:
    """One sample per (nu != 0, omega_t) log-radial harmonic cell."""
    keep = stack.rad_nu != 0
    coeffs = stack.rad[keep, :]
    nu = np.broadcast_to(stack.rad_nu[keep][:, None], coeffs.shape)
    wt = np.broadcast_to(stack.freq_t[None, :], coeffs.shape)
    e = np.abs(coeffs.ravel()) ** 2
    return build_samples(0.0, 0.0, 0.0, nu.ravel(), wt.ravel(), e,
                         nu.ravel(), cfg)


# ---------------------------------------------------------------------------
# slice machinery shared by the individual losses

TRANS_COLS = (0, 1, 4)
# integer synthetic motions put energy exactly on a band edge; without the
# slack, rounding at the 1e-14 level decides whether it counts as inside
BAND_EDGE_SLACK = 1e-9


def fit_slice(samples: WeightedSamples, cols, lam: float,
              jitter: float) -> RidgeResult:
    """Restricted WLS fit of one motion slice; ``theta`` is returned as the
    full 5-vector with the out-of-slice entries zero."""
    res = ridge_wls_solve(samples.rows[:, list(cols)], samples.targets,
                          samples.weights, lam, jitter)
    theta = np.zeros(5)
    theta[list(cols)] = res.theta
    return replace(res, theta=theta)


def _line_slope(samples: WeightedSamples, col: int) -> float:
    """Closed-form weighted LS slope of the no-intercept line fit
    target = slope * column (the lam = 0 minimizer)."""
    x = samples.rows[:, col]
    num = float((samples.weights * x * samples.targets).sum())
    den = float((samples.weights * x * x).sum())
    if den <= 0.0:
        raise UnobservableError("line fit has no excitation")
    return num / den


def _band_fraction(samples: WeightedSamples, err: np.ndarray, delta: float,
                   inside: bool = True) -> float:
    """Raw-energy fraction of the samples whose fit error lies within
    ``delta`` (or, with ``inside=False``, beyond it)."""
    e_all = float(samples.energies.sum())
    if e_all <= 0.0:
        return 0.0
    in_band = np.abs(err) <= delta + BAND_EDGE_SLACK
    return float(samples.energies[in_band == inside].sum() / e_all)


def _line_slice(build, stack: HarmonicStack, col: int, cfg: SpectralConfig):
    """Line slope, band capture, restricted fit and samples of one
    harmonic slice; ``(0.0, 0.0, None, None)`` when the block carries no
    usable energy."""
    try:
        samples = build(stack, cfg)
        slope = _line_slope(samples, col)
        err = samples.rows[:, col] * slope - samples.targets
        capture = _band_fraction(samples, err, cfg.band_tolerance)
        fit = fit_slice(samples, (col,), cfg.ridge, cfg.numeric_eps)
    except UnobservableError:
        return 0.0, 0.0, None, None
    return slope, capture, fit, samples


# ---------------------------------------------------------------------------
# individual losses


@dataclass(frozen=True)
class _SliceLoss:
    """The part every loss result shares: the restricted slice fit and the
    sample block it was solved on.  Both are ``None`` when the slice is
    flagged, which also keeps the block out of the unified fit."""

    fit: RidgeResult | None
    samples: WeightedSamples | None

    @property
    def flagged(self) -> bool:
        return self.fit is None


@dataclass(frozen=True)
class TranslationLoss(_SliceLoss):
    """``l_trans`` is the plane-fit residual in bin^2 (sentinel 1.0 when
    flagged); ``band_miss`` the raw-energy fraction farther than the band
    tolerance from the fitted plane."""

    l_trans: float
    band_miss: float


@dataclass(frozen=True)
class RotationLoss(_SliceLoss):
    """``omega_bins`` is the line slope, ``omega`` the same in rad/frame."""

    l_rot: float
    c_rot: float
    c_ring: float
    omega_bins: float
    omega: float
    eps_nb: float


@dataclass(frozen=True)
class ScalingLoss(_SliceLoss):
    """``alpha_bins`` is the line slope, ``alpha`` the log-scale rate per
    frame; ``rho_c`` the per-frame radial centroid and ``rho_c_slope`` its
    trend."""

    l_scale: float
    c_flow: float
    s_trend: float
    c_scale: float
    alpha_bins: float
    alpha: float
    rho_c: np.ndarray
    rho_c_slope: float
    short_window: bool
    trend_flat: bool


def translation_loss(s: Spectrum3D, cfg: SpectralConfig) -> TranslationLoss:
    """Plane fit over the retained Cartesian bins.

    A degenerate spatial support (or an all-zero spectrum) yields the
    sentinel loss 1.0 with the slice flagged, so adaptive weighting
    naturally ignores the slice.
    """
    try:
        samples = translation_samples(s, cfg)
        fit = fit_slice(samples, TRANS_COLS, cfg.ridge, cfg.numeric_eps)
    except UnobservableError:
        fit = None
    if fit is None or not fit.identifiable:
        return TranslationLoss(None, None, l_trans=1.0, band_miss=0.0)
    err = samples.rows @ fit.theta - samples.targets
    return TranslationLoss(
        fit, samples, l_trans=fit.residual,
        band_miss=_band_fraction(samples, err, cfg.band_tolerance,
                                 inside=False))


def rotation_loss(stack: HarmonicStack, rings: np.ndarray,
                  cfg: SpectralConfig) -> RotationLoss:
    """Angular-velocity line fit, tilted-line energy ratio and ring
    concentration of the ``(rings, T)`` ring shares.

    The line slope is the gated energy-weighted closed form over m != 0;
    with zero harmonic energy the line term is dropped (c_rot = 0,
    flagged).

    Temporal Nyquist caveat: a harmonic m rotating at omega rad/frame
    carries a tone at m*omega rad/frame, which aliases once |m*omega| >= pi
    and then biases the slope toward zero.
    """
    ent = -np.sum(rings * np.log(rings + cfg.numeric_eps), axis=0)
    c_ring = float(np.clip(1.0 - ent.mean() / math.log(len(rings)), 0.0, 1.0))
    eps_nb = float(np.mean(1.0 - rings.max(axis=0)))
    omega_bins, c_rot, fit, samples = _line_slice(rotation_samples, stack,
                                                  2, cfg)
    l_rot = 1.0 - 0.5 * (c_ring + c_rot)
    return RotationLoss(
        fit, samples, l_rot=float(np.clip(l_rot, 0.0, 1.0)), c_rot=c_rot,
        c_ring=c_ring, omega_bins=omega_bins,
        omega=omega_bins * 2.0 * math.pi / len(stack.freq_t), eps_nb=eps_nb)


def scaling_loss(rings: np.ndarray, stack: HarmonicStack,
                 cfg: SpectralConfig) -> ScalingLoss:
    """Radial-flow alignment, centroid trend and the log-radial line fit.

    ``rings`` is the ``(rings, T)`` array of per-frame ring shares from
    ``ring_energies``.  Windows shorter than 3 frames default both proxies
    to 0.5 (``short_window``); a flat centroid (zero variance) yields trend
    0 with ``trend_flat`` set.
    """
    nt = rings.shape[1]
    eps = cfg.numeric_eps
    trend_flat = False
    rho_c = _radial_centroid(rings, eps)

    if nt < 3:
        c_flow, s_trend = 0.5, 0.5
        slope = 0.0
    else:
        d_rho = rings[1:, :] - rings[:-1, :]
        d_t = rings[:, 1:] - rings[:, :-1]
        dr_hat = d_rho / (math.sqrt(float((d_rho ** 2).sum())) + eps)
        dt_hat = d_t / (math.sqrt(float((d_t ** 2).sum())) + eps)
        c_flow = float(abs((dr_hat[:, :-1] * dt_hat[:-1, :]).sum()))
        c_flow = min(c_flow, 1.0)

        t = np.arange(nt, dtype=np.float64)
        cov = float(np.mean((rho_c - rho_c.mean()) * (t - t.mean())))
        var_r = float(np.var(rho_c))
        var_t = float(np.var(t))
        s_trend = abs(cov) / (math.sqrt(var_r * var_t) + eps)
        s_trend = min(s_trend, 1.0)
        if var_r <= 1e-24:
            s_trend = 0.0
            trend_flat = True
        slope = cov / var_t if var_t > 0 else 0.0

    alpha_bins, c_scale, fit, samples = _line_slice(scaling_samples, stack,
                                                    3, cfg)
    n_xi = len(stack.rad_nu)
    l_scale = 1.0 - 0.5 * (c_flow + s_trend)
    return ScalingLoss(
        fit, samples, l_scale=float(np.clip(l_scale, 0.0, 1.0)),
        c_flow=c_flow, s_trend=s_trend, c_scale=c_scale,
        alpha_bins=alpha_bins,
        alpha=-alpha_bins * stack.xi_step * n_xi / len(stack.freq_t),
        rho_c=rho_c, rho_c_slope=slope, short_window=nt < 3,
        trend_flat=trend_flat)


def _radial_centroid(values: np.ndarray, eps: float) -> np.ndarray:
    k = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    return (k[:, None] * values).sum(axis=0) / (values.sum(axis=0) + eps)


# ---------------------------------------------------------------------------
# unified fit


def unified_residual(trans: WeightedSamples | None,
                     rot: WeightedSamples | None,
                     scale: WeightedSamples | None,
                     cfg: SpectralConfig) -> RidgeResult:
    """Joint 5-parameter hyperplane fit over the blocks that are given.

    Each block's energies are normalized to unit total before joining so no
    domain swamps the others.
    """
    blocks = [s for s in (trans, rot, scale) if s is not None]
    if not blocks:
        raise UnobservableError("no samples for the unified fit")
    weights = []
    for s in blocks:
        tot = float(s.energies.sum())
        weights.append(s.weights * (1.0 / tot if tot > 0 else 1.0))
    return ridge_wls_solve(np.vstack([s.rows for s in blocks]),
                           np.concatenate([s.targets for s in blocks]),
                           np.concatenate(weights), cfg.ridge,
                           cfg.numeric_eps)


# ---------------------------------------------------------------------------
# adaptive weighting


def adaptive_composite(l_trans: float, l_rot: float, l_scale: float,
                       tau: float):
    """Temperature softmax over the negated losses and the weighted sum."""
    if tau <= 0:
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
            "diagnostics": _plain(self.diagnostics),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


class _Stage:
    """Context manager that prefixes escaping package errors with the
    pipeline stage that raised them."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        from .core import Sim2Error
        if exc is not None and isinstance(exc, Sim2Error) \
                and not str(exc).startswith(f"[{self.name}]"):
            raise type(exc)(f"[{self.name}] {exc}") from exc
        return False


def analyze(v: VideoWindow, cfg: SpectralConfig | None = None) -> LossReport:
    """Run the full pipeline on one window.

    normalize -> transform -> low-pass crop -> polar/harmonic features ->
    losses -> adaptive composite.  Deterministic for fixed input and
    configuration; escaping errors carry their stage label.
    """
    cfg = cfg or SpectralConfig()
    if v.frames_t < 2:
        raise DegenerateInputError("window too short: need at least 2 frames")

    with _Stage("transform"):
        frames_c, s3c = cropped_transform(normalize_window(v), cfg)
        retained = s3c.coeffs.size / v.data.size

    with _Stage("resample"):
        if max_safe_radius(s3c.freq_y, s3c.freq_x) < 1.0:
            raise DegenerateInputError(
                "spatial grid too small for polar analysis")
        lut = build_polar_lut(s3c.freq_y, s3c.freq_x,
                              cfg.rings, cfg.angular_bins)
        polar = polar_resample(frames_c, lut)
        stack = make_stack(polar, cfg)
        rings = ring_energies(np.abs(frames_c) ** 2, s3c.freq_y, s3c.freq_x,
                              cfg)

    with _Stage("losses"):
        trans = translation_loss(s3c, cfg)
        rot = rotation_loss(stack, rings, cfg)
        scl = scaling_loss(rings, stack, cfg)

    try:
        uni = unified_residual(trans.samples, rot.samples, scl.samples, cfg)
        slices = {name: r for name, r in (("translation", trans),
                                          ("rotation", rot),
                                          ("scaling", scl))
                  if not r.flagged}
    except UnobservableError:
        uni, slices = RidgeResult(np.zeros(5), 0.0, False, 0.0), {}

    w, l_motion = adaptive_composite(trans.l_trans, rot.l_rot, scl.l_scale,
                                     cfg.softmax_temperature)

    nt = v.frames_t
    estimate = MotionEstimate(
        v_x=float(uni.theta[0]), v_y=float(uni.theta[1]),
        omega=float(uni.theta[2]) * 2.0 * math.pi / nt,
        alpha=-float(uni.theta[3]) * stack.xi_step * len(stack.rad_nu) / nt,
        b0=float(uni.theta[4]))
    t_theta = trans.fit.theta if trans.fit is not None else np.zeros(5)
    slice_estimates = {
        "translation": MotionEstimate(v_x=float(t_theta[0]),
                                      v_y=float(t_theta[1]),
                                      b0=float(t_theta[4])),
        "rotation": MotionEstimate(omega=rot.omega),
        "scaling": MotionEstimate(alpha=scl.alpha),
    }
    slice_residuals = {name: r.fit.residual for name, r in slices.items()}

    diagnostics = {
        "retained_fraction": retained,
        "rho_c": scl.rho_c,
        "rho_c_slope": scl.rho_c_slope,
        "eps_nb": rot.eps_nb,
        "trans_band_miss": trans.band_miss,
        "gate_bounds": {name: [r.samples.g_lo, r.samples.g_hi]
                        for name, r in slices.items()},
        "sum_w": {name: r.fit.sum_w for name, r in slices.items()},
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
            "v_x_bins_to_px_per_frame": v.width / nt,
            "v_y_bins_to_px_per_frame": v.height / nt,
            "omega_bins_to_rad_per_frame": 2.0 * math.pi / nt,
            "alpha_bins_to_rate_per_frame":
                -stack.xi_step * len(stack.rad_nu) / nt,
        },
        "omega_bins": rot.omega_bins,
        "alpha_bins": scl.alpha_bins,
        "frames_t": nt,
        "rings": len(rings),
        "window_kind": cfg.window_kind,
        "ridge": cfg.ridge,
        "band_tolerance": cfg.band_tolerance,
    }

    return LossReport(
        l_trans=trans.l_trans, l_rot=rot.l_rot, l_scale=scl.l_scale,
        l_uni=uni.residual, l_motion=l_motion,
        c_rot=rot.c_rot, c_ring=rot.c_ring, c_flow=scl.c_flow,
        s_trend=scl.s_trend, c_scale=scl.c_scale,
        estimate=estimate, slice_estimates=slice_estimates,
        weights={"translation": float(w[0]), "rotation": float(w[1]),
                 "scaling": float(w[2])},
        slice_residuals=slice_residuals,
        diagnostics=diagnostics)
