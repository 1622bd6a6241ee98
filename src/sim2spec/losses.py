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
from dataclasses import dataclass

import numpy as np

from .core import (DegenerateInputError, MotionEstimate, SpectralConfig,
                   UnobservableError, VideoWindow, normalize_window)
from .gates import WeightedSamples, build_samples
from .resample import (HarmonicStack, RingEnergies, build_polar_lut,
                       make_stack, max_safe_radius, polar_resample,
                       ring_energies)
from .spectral import Spectrum3D, cropped_transform
# the full-spectrum reference transforms stay importable from this module,
# where the benchmark's span checks look them up
from .spectral import spatial_transform, spectral_transform  # noqa: F401

__all__ = [
    "RidgeResult", "SliceFit", "LossReport",
    "ridge_wls_solve", "translation_samples", "rotation_samples",
    "scaling_samples", "translation_loss", "rotation_loss", "scaling_loss",
    "unified_residual", "adaptive_composite", "analyze",
]

@dataclass(frozen=True)
class RidgeResult:
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
# slice machinery shared by the individual losses and the unified fit

TRANS_COLS = (0, 1, 4)
# integer synthetic motions put energy exactly on a band edge; without the
# slack, rounding at the 1e-14 level decides whether it counts as inside
BAND_EDGE_SLACK = 1e-9
ROT_COLS = (2,)
SCALE_COLS = (3,)


@dataclass(frozen=True)
class SliceFit:
    """Restricted WLS fit of one motion slice plus its gate bookkeeping."""

    residual: float
    theta: np.ndarray          # full 5-vector, out-of-slice entries zero
    g_lo: float
    g_hi: float
    sum_w: float
    n: int
    identifiable: bool

    @property
    def gate_ratio(self) -> float:
        return self.g_hi / self.g_lo if self.g_lo > 0 else math.inf


def fit_slice(samples: WeightedSamples, cols, lam: float,
              jitter: float) -> SliceFit:
    res = ridge_wls_solve(samples.rows[:, list(cols)], samples.targets,
                          samples.weights, lam, jitter)
    theta = np.zeros(5)
    theta[list(cols)] = res.theta
    return SliceFit(res.residual, theta, samples.g_lo, samples.g_hi,
                    res.sum_w, samples.n, res.identifiable)


def _line_slope(samples: WeightedSamples, col: int) -> float:
    """Closed-form weighted LS slope of the no-intercept line fit
    target = slope * column (the lam = 0 minimizer)."""
    x = samples.rows[:, col]
    num = float((samples.weights * x * samples.targets).sum())
    den = float((samples.weights * x * x).sum())
    if den <= 0.0:
        raise UnobservableError("line fit has no excitation")
    return num / den


def _band_fraction(samples: WeightedSamples, col: int, slope: float,
                   delta: float) -> float:
    """Raw-energy fraction within ``delta`` of the fitted line."""
    e_all = float(samples.energies.sum())
    if e_all <= 0.0:
        return 0.0
    miss = samples.rows[:, col] * slope - samples.targets
    inside = np.abs(miss) <= delta + BAND_EDGE_SLACK
    return float(samples.energies[inside].sum() / e_all)


# ---------------------------------------------------------------------------
# individual losses


def translation_loss(s: Spectrum3D, cfg: SpectralConfig):
    """Plane fit over the retained Cartesian bins.

    Returns ``(fit: SliceFit, flagged: bool)``; a degenerate spatial support
    (or an all-zero spectrum) yields the sentinel loss 1.0 with the flag
    set, so adaptive weighting naturally ignores the slice.
    """
    try:
        samples = translation_samples(s, cfg)
        fit = fit_slice(samples, TRANS_COLS, cfg.ridge, cfg.numeric_eps)
    except UnobservableError:
        return _sentinel_fit(), True
    if not fit.identifiable:
        return _sentinel_fit(), True
    return fit, False


def _sentinel_fit() -> SliceFit:
    return SliceFit(1.0, np.zeros(5), 1.0, 1.0, 0.0, 0, False)


def rotation_loss(stack: HarmonicStack, rings: RingEnergies,
                  cfg: SpectralConfig):
    """Angular-velocity line fit, tilted-line energy ratio and ring
    concentration.

    Returns a dict with omega (bin-slope and rad/frame), c_rot, c_ring,
    l_rot, the restricted-slice ridge fit, and flags.  The line slope is
    the gated energy-weighted closed form over m != 0; with zero harmonic
    energy the line term is dropped (c_rot = 0, flagged).

    Temporal Nyquist caveat: a harmonic m rotating at omega rad/frame
    carries a tone at m*omega rad/frame, which aliases once |m*omega| >= pi
    and then biases the slope toward zero.
    """
    n_rings = rings.n_rings
    ent = -np.sum(rings.values * np.log(rings.values + cfg.numeric_eps),
                  axis=0)
    c_ring = float(np.clip(1.0 - ent.mean() / math.log(n_rings), 0.0, 1.0))
    eps_nb = float(np.mean(1.0 - rings.values.max(axis=0)))

    flagged = False
    omega_bins = 0.0
    c_rot = 0.0
    fit = _sentinel_fit()
    try:
        samples = rotation_samples(stack, cfg)
        omega_bins = _line_slope(samples, 2)
        c_rot = _band_fraction(samples, 2, omega_bins, cfg.band_tolerance)
        fit = fit_slice(samples, ROT_COLS, cfg.ridge, cfg.numeric_eps)
    except UnobservableError:
        flagged = True

    nt = len(stack.freq_t)
    l_rot = 1.0 - 0.5 * (c_ring + c_rot)
    return {
        "omega_bins": omega_bins,
        "omega": omega_bins * 2.0 * math.pi / nt,
        "c_rot": c_rot,
        "c_ring": c_ring,
        "l_rot": float(np.clip(l_rot, 0.0, 1.0)),
        "eps_nb": eps_nb,
        "fit": fit,
        "flagged": flagged,
    }


def scaling_loss(rings: RingEnergies, stack: HarmonicStack,
                 cfg: SpectralConfig):
    """Radial-flow alignment, centroid trend and the log-radial line fit.

    Windows shorter than 3 frames default both proxies to 0.5; a flat
    centroid (zero variance) yields trend 0 with a flag.
    """
    v = rings.values
    n_rings, nt = v.shape
    eps = cfg.numeric_eps
    flags = {"short_window": False, "trend_flat": False, "no_energy": False}

    if nt < 3:
        c_flow, s_trend = 0.5, 0.5
        flags["short_window"] = True
        rho_c = _radial_centroid(v, eps)
        slope = 0.0
    else:
        d_rho = v[1:, :] - v[:-1, :]
        d_t = v[:, 1:] - v[:, :-1]
        dr_hat = d_rho / (math.sqrt(float((d_rho ** 2).sum())) + eps)
        dt_hat = d_t / (math.sqrt(float((d_t ** 2).sum())) + eps)
        c_flow = float(abs((dr_hat[:, :-1] * dt_hat[:-1, :]).sum()))
        c_flow = min(c_flow, 1.0)

        rho_c = _radial_centroid(v, eps)
        t = np.arange(nt, dtype=np.float64)
        cov = float(np.mean((rho_c - rho_c.mean()) * (t - t.mean())))
        var_r = float(np.var(rho_c))
        var_t = float(np.var(t))
        s_trend = abs(cov) / (math.sqrt(var_r * var_t) + eps)
        s_trend = min(s_trend, 1.0)
        if var_r <= 1e-24:
            s_trend = 0.0
            flags["trend_flat"] = True
        slope = cov / var_t if var_t > 0 else 0.0

    alpha_bins = 0.0
    c_scale = 0.0
    fit = _sentinel_fit()
    try:
        samples = scaling_samples(stack, cfg)
        alpha_bins = _line_slope(samples, 3)
        c_scale = _band_fraction(samples, 3, alpha_bins, cfg.band_tolerance)
        fit = fit_slice(samples, SCALE_COLS, cfg.ridge, cfg.numeric_eps)
    except UnobservableError:
        flags["no_energy"] = True

    n_xi = len(stack.rad_nu)
    alpha = -alpha_bins * stack.xi_step * n_xi / len(stack.freq_t)
    l_scale = 1.0 - 0.5 * (c_flow + s_trend)
    return {
        "c_flow": c_flow,
        "s_trend": s_trend,
        "l_scale": float(np.clip(l_scale, 0.0, 1.0)),
        "alpha_bins": alpha_bins,
        "alpha": alpha,
        "c_scale": c_scale,
        "rho_c": rho_c,
        "rho_c_slope": slope,
        "fit": fit,
        "flags": flags,
    }


def _radial_centroid(values: np.ndarray, eps: float) -> np.ndarray:
    k = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    return (k[:, None] * values).sum(axis=0) / (values.sum(axis=0) + eps)


# ---------------------------------------------------------------------------
# unified fit


def unified_residual(trans: WeightedSamples | None,
                     rot: WeightedSamples | None,
                     scale: WeightedSamples | None,
                     cfg: SpectralConfig,
                     lam: float | None = None):
    """Joint 5-parameter hyperplane fit over all sample blocks.

    Each block's energies are normalized to unit total before joining so no
    domain swamps the others (the per-slice restricted fits are computed on
    the raw blocks and are invariant to that scaling).  Returns
    ``(theta5, l_uni, slices: dict[str, SliceFit], identifiable)``.
    """
    lam = cfg.ridge if lam is None else lam
    blocks = [(name, s) for name, s in
              (("translation", trans), ("rotation", rot), ("scaling", scale))
              if s is not None and s.n > 0]
    if not blocks:
        raise UnobservableError("no samples for the unified fit")

    rows, targets, weights = [], [], []
    for _, s in blocks:
        tot = float(s.energies.sum())
        scale_f = 1.0 / tot if tot > 0 else 1.0
        rows.append(s.rows)
        targets.append(s.targets)
        weights.append(s.weights * scale_f)
    res = ridge_wls_solve(np.vstack(rows), np.concatenate(targets),
                          np.concatenate(weights), lam, cfg.numeric_eps)

    slices = {}
    cols = {"translation": TRANS_COLS, "rotation": ROT_COLS,
            "scaling": SCALE_COLS}
    for name, s in blocks:
        slices[name] = fit_slice(s, cols[name], lam, cfg.numeric_eps)
    return res.theta, res.residual, slices, res.identifiable


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
        if max_safe_radius(frames_c.freq_y, frames_c.freq_x) < 1.0:
            raise DegenerateInputError(
                "spatial grid too small for polar analysis")
        lut = build_polar_lut(frames_c.freq_y, frames_c.freq_x,
                              cfg.rings, cfg.angular_bins)
        polar = polar_resample(frames_c, lut)
        stack = make_stack(polar, cfg)
        rings = ring_energies(frames_c.energy(), cfg,
                              rho_max=float(lut.rho[-1]))

    with _Stage("losses"):
        trans_fit, trans_flagged = translation_loss(s3c, cfg)
        rot = rotation_loss(stack, rings, cfg)
        scl = scaling_loss(rings, stack, cfg)

    try:
        t_samples = translation_samples(s3c, cfg) if not trans_flagged else None
    except UnobservableError:
        t_samples = None
    trans_band_miss = 0.0
    if t_samples is not None:
        e_all = float(t_samples.energies.sum())
        if e_all > 0:
            err = t_samples.rows @ trans_fit.theta - t_samples.targets
            outside = np.abs(err) > cfg.band_tolerance + BAND_EDGE_SLACK
            trans_band_miss = float(t_samples.energies[outside].sum() / e_all)
    try:
        r_samples = rotation_samples(stack, cfg)
    except UnobservableError:
        r_samples = None
    try:
        s_samples = scaling_samples(stack, cfg)
    except UnobservableError:
        s_samples = None
    try:
        theta5, l_uni, slices, identifiable = unified_residual(
            t_samples, r_samples, s_samples, cfg)
    except UnobservableError:
        theta5, l_uni, slices, identifiable = np.zeros(5), 0.0, {}, False

    l_trans = trans_fit.residual if not trans_flagged else 1.0
    w, l_motion = adaptive_composite(l_trans, rot["l_rot"], scl["l_scale"],
                                     cfg.softmax_temperature)

    nt = v.frames_t
    estimate = MotionEstimate(
        v_x=float(theta5[0]), v_y=float(theta5[1]),
        omega=float(theta5[2]) * 2.0 * math.pi / nt,
        alpha=-float(theta5[3]) * stack.xi_step * len(stack.rad_nu) / nt,
        b0=float(theta5[4]))
    slice_estimates = {
        "translation": MotionEstimate(v_x=float(trans_fit.theta[0]),
                                      v_y=float(trans_fit.theta[1]),
                                      b0=float(trans_fit.theta[4])),
        "rotation": MotionEstimate(omega=rot["omega"]),
        "scaling": MotionEstimate(alpha=scl["alpha"]),
    }
    slice_residuals = {name: fit.residual for name, fit in slices.items()}

    diagnostics = {
        "retained_fraction": retained,
        "rho_c": scl["rho_c"],
        "rho_c_slope": scl["rho_c_slope"],
        "eps_nb": rot["eps_nb"],
        "trans_band_miss": trans_band_miss,
        "gate_bounds": {name: [fit.g_lo, fit.g_hi]
                        for name, fit in slices.items()},
        "sum_w": {name: fit.sum_w for name, fit in slices.items()},
        "slice_theta_sqnorm": {name: float(fit.theta @ fit.theta)
                               for name, fit in slices.items()},
        "flags": {
            "trans_unobservable": trans_flagged,
            "rot_no_energy": rot["flagged"],
            "scale_no_energy": scl["flags"]["no_energy"],
            "trend_flat": scl["flags"]["trend_flat"],
            "short_window": scl["flags"]["short_window"],
            "unified_rank_deficient": not identifiable,
        },
        "conversions": {
            "v_x_bins_to_px_per_frame": v.width / nt,
            "v_y_bins_to_px_per_frame": v.height / nt,
            "omega_bins_to_rad_per_frame": 2.0 * math.pi / nt,
            "alpha_bins_to_rate_per_frame":
                -stack.xi_step * len(stack.rad_nu) / nt,
        },
        "omega_bins": rot["omega_bins"],
        "alpha_bins": scl["alpha_bins"],
        "frames_t": nt,
        "rings": rings.n_rings,
        "window_kind": cfg.window_kind,
        "ridge": cfg.ridge,
        "band_tolerance": cfg.band_tolerance,
    }

    return LossReport(
        l_trans=float(l_trans), l_rot=rot["l_rot"], l_scale=scl["l_scale"],
        l_uni=float(l_uni), l_motion=l_motion,
        c_rot=rot["c_rot"], c_ring=rot["c_ring"], c_flow=scl["c_flow"],
        s_trend=scl["s_trend"], c_scale=scl["c_scale"],
        estimate=estimate, slice_estimates=slice_estimates,
        weights={"translation": float(w[0]), "rotation": float(w[1]),
                 "scaling": float(w[2])},
        slice_residuals=slice_residuals,
        diagnostics=diagnostics)
