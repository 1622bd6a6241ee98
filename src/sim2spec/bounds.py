"""Computable bound evaluators and empirical verifiers.

Every inequality the analysis relies on is implemented as a check that
returns both sides: weighted band capture (a Chebyshev argument on the
energy measure), temporal window leakage, the Fano-style annulus entropy
bound, the ridge-residual inequality, and the three consolidated
surrogate-vs-residual bounds evaluated on measured quantities.

Two constants are calibrated rather than derived: the interpolation error
``eps_interp`` (dense-vs-LUT polar resampling on synthetic spectra) and the
proxy defect ``delta_flow`` (controlled log-radius drifts, including a
zero-rate anchor where the line ratio is high but both proxies are not).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import CalibrationMissingError, ConfigError, SpectralConfig
from .losses import LossReport, analyze, ridge_wls_solve
from .resample import build_polar_lut, polar_resample
from .spectral import signed_bins, temporal_window
from .synth import MotionSpec, synth_sim2

__all__ = [
    "BoundCheck", "Calibration", "window_leakage", "band_capture_check",
    "ring_entropy_bound", "ring_entropy_check", "ridge_inequality_check",
    "band_capture_from_samples", "master_bound_check", "calibrate_interp",
    "calibrate_flow",
]

REL_SLACK = 1e-9


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality lhs <= rhs (with relative roundoff slack)."""

    lhs: float
    rhs: float
    context: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + REL_SLACK * max(1.0, abs(self.rhs))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds,
                "slack": self.slack, "context": dict(self.context)}


# ---------------------------------------------------------------------------
# window leakage


def window_leakage(frames_t: int, delta: int, kind: str = "hann") -> float:
    """Fraction of the temporal window's spectral energy beyond +-delta bins."""
    if frames_t < 2:
        raise ConfigError("need at least 2 frames")
    if delta < 0:
        raise ConfigError("delta must be nonnegative")
    h = temporal_window(frames_t, kind)
    power = np.fft.fftshift(np.abs(np.fft.fft(h)) ** 2)
    bins = signed_bins(frames_t)
    return float(power[np.abs(bins) > delta].sum() / power.sum())


# ---------------------------------------------------------------------------
# band capture (weighted Chebyshev)


def band_capture_check(energies, errors, gates, delta: float,
                       context: dict | None = None) -> BoundCheck:
    """Out-of-band energy fraction vs the gate-ratio Chebyshev bound.

    ``errors`` are the algebraic distances to the target line/plane,
    ``gates`` the per-sample gate factors (weights are gate * energy).
    Zero total energy is a vacuous pass (flagged in the context).
    """
    e = np.asarray(energies, dtype=np.float64)
    err = np.asarray(errors, dtype=np.float64)
    g = np.asarray(gates, dtype=np.float64)
    ctx = dict(context or {})
    total = e.sum()
    if total <= 0:
        ctx["vacuous"] = True
        return BoundCheck(0.0, 0.0, ctx)
    if np.any(g <= 0):
        raise ConfigError("band capture needs strictly positive gates")
    w = g * e
    lhs = float(e[np.abs(err) > delta].sum() / total)
    ratio = float(g.max() / g.min())
    rhs = ratio / delta ** 2 * float((w * err * err).sum() / w.sum())
    ctx.update({"delta": delta, "gate_ratio": ratio})
    return BoundCheck(lhs, rhs, ctx)


def band_capture_from_samples(samples, errors, delta: float,
                              context: dict | None = None) -> BoundCheck:
    """Band-capture check on a WeightedSamples block (gates recovered as
    weight / energy; zero-energy samples carry nothing and are dropped)."""
    keep = samples.energies > 0
    gates = samples.weights[keep] / samples.energies[keep]
    return band_capture_check(samples.energies[keep],
                              np.asarray(errors)[keep], gates, delta, context)


# ---------------------------------------------------------------------------
# annulus entropy


def _h2(p: float) -> float:
    """Binary entropy in nats, safe at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def ring_entropy_bound(eps_nb: float, n_rings: int) -> float:
    """Fano-style bound on normalized ring entropy when a fraction
    ``1 - eps_nb`` of the energy sits on a single ring."""
    if not (0.0 <= eps_nb < 1.0):
        raise ConfigError("eps_nb must be in [0, 1)")
    if n_rings < 2:
        raise ConfigError("need at least 2 rings")
    return (_h2(eps_nb) + eps_nb * math.log(n_rings - 1)) / math.log(n_rings)


def ring_entropy_check(distribution, eps_nb: float,
                       context: dict | None = None) -> BoundCheck:
    """Measured normalized entropy of a ring distribution vs the bound."""
    p = np.asarray(distribution, dtype=np.float64)
    p = p / p.sum()
    n = len(p)
    nz = p > 0
    ent = float(-(p[nz] * np.log(p[nz])).sum())
    lhs = ent / math.log(n)
    rhs = ring_entropy_bound(eps_nb, n)
    ctx = dict(context or {})
    ctx.update({"eps_nb": eps_nb, "n_rings": n})
    return BoundCheck(lhs, rhs, ctx)


# ---------------------------------------------------------------------------
# ridge residual


def ridge_inequality_check(design, targets, weights, lam: float,
                           context: dict | None = None) -> BoundCheck:
    """||X theta_lam - y||^2 <= r* + lam ||theta_LS||^2 in the whitened
    coordinates X = sqrt(W) Phi, y = sqrt(W) b."""
    design = np.asarray(design, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    x = design * np.sqrt(w)[:, None]
    y = targets * np.sqrt(w)
    theta_ls, *_ = np.linalg.lstsq(x, y, rcond=None)
    r_star = float(((x @ theta_ls - y) ** 2).sum())
    res = ridge_wls_solve(design, targets, w, lam)
    lhs = res.residual * res.sum_w
    rhs = r_star + lam * float(theta_ls @ theta_ls)
    ctx = dict(context or {})
    ctx["lam"] = lam
    return BoundCheck(float(lhs), rhs, ctx)


# ---------------------------------------------------------------------------
# consolidated surrogate-vs-residual bounds


@dataclass(frozen=True)
class Calibration:
    eps_interp: float
    delta_flow: float
    config_hash: str
    rng: str = "numpy.random.Philox"

    def to_dict(self) -> dict:
        return {"eps_interp": self.eps_interp, "delta_flow": self.delta_flow,
                "config_hash": self.config_hash, "rng": self.rng}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "Calibration":
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(float(d["eps_interp"]), float(d["delta_flow"]),
                   str(d.get("config_hash", "")), str(d.get("rng", "")))


def _o_lambda(report: LossReport, name: str) -> float:
    lam = report.diagnostics["ridge"]
    sq = report.diagnostics["slice_theta_sqnorm"].get(name, 0.0)
    sw = report.diagnostics["sum_w"].get(name, 0.0)
    return lam * sq / sw if sw > 0 else 0.0


def master_bound_check(report: LossReport, eps_win: float,
                       calibration: Calibration | None) -> list:
    """The three consolidated inequalities on one analyzed window.

    Rotation and scaling follow the averaged-surrogate form
    ``L <= (ratio/2) delta^-2 r_slice + extras``; the translation surrogate
    is itself a residual, so its inequality is the band-capture form (the
    off-plane energy fraction vs the Chebyshev bound plus window leakage).
    Requires calibrated ``eps_interp``/``delta_flow``.
    """
    if calibration is None:
        raise CalibrationMissingError(
            "master bounds need eps_interp/delta_flow; run calibrate_interp "
            "and calibrate_flow (or `sim2spec validate --suite bounds`)")
    delta = report.diagnostics["band_tolerance"]
    n_rings = report.diagnostics["rings"]
    eps_nb = report.diagnostics["eps_nb"]
    gate = report.diagnostics["gate_bounds"]
    resid = report.slice_residuals
    checks = []

    if "rotation" in resid:
        g_lo, g_hi = gate["rotation"]
        ratio = g_hi / g_lo
        rhs = (ratio / (2.0 * delta ** 2) * resid["rotation"]
               + ring_entropy_bound(min(eps_nb, 1.0 - 1e-12), n_rings) / 2.0
               + eps_win + calibration.eps_interp
               + _o_lambda(report, "rotation"))
        checks.append(BoundCheck(report.l_rot, rhs, {
            "bound": "rotation", "delta": delta, "gate_ratio": ratio,
            "slice_residual": resid["rotation"], "eps_nb": eps_nb}))

    if "scaling" in resid:
        g_lo, g_hi = gate["scaling"]
        ratio = g_hi / g_lo
        rhs = (ratio / (2.0 * delta ** 2) * resid["scaling"]
               + eps_win + calibration.eps_interp
               + 0.5 * calibration.delta_flow
               + _o_lambda(report, "scaling"))
        checks.append(BoundCheck(report.l_scale, rhs, {
            "bound": "scaling", "delta": delta, "gate_ratio": ratio,
            "slice_residual": resid["scaling"]}))

    if "translation" in resid:
        g_lo, g_hi = gate["translation"]
        ratio = g_hi / g_lo
        band_miss = report.diagnostics.get("trans_band_miss")
        if band_miss is None:
            band_miss = 0.0
        rhs = (ratio / delta ** 2 * resid["translation"] + eps_win
               + _o_lambda(report, "translation"))
        checks.append(BoundCheck(float(band_miss), rhs, {
            "bound": "translation", "delta": delta, "gate_ratio": ratio,
            "slice_residual": resid["translation"]}))
    return checks


# ---------------------------------------------------------------------------
# calibration


def _dense_band_fraction(field2d: np.ndarray, freq_y, freq_x, n_rho: int,
                         n_theta: int, oversample: int = 8):
    """Angular-harmonic energy of one spatial spectrum at LUT resolution and
    at ``oversample``x density (the dense reference)."""
    out = {}
    for name, factor in (("lut", 1), ("dense", oversample)):
        lut = build_polar_lut(freq_y, freq_x, n_rho * factor, n_theta * factor)
        polar = polar_resample(field2d[None], lut)[:, :, 0]
        harm = np.fft.fft(polar, axis=1) / polar.shape[1]
        out[name] = harm
    return out["lut"], out["dense"]


def calibrate_interp(spatial_size: int = 64, cfg: SpectralConfig | None = None,
                     oversample: int = 8, return_cases: bool = False):
    """Worst-case relative angular-harmonic energy displaced by the LUT
    resampling, over a sweep of synthetic spectra.

    Each case compares the per-harmonic energy distribution of the LUT-grid
    resampling against an ``oversample``-times denser resampling (folded to
    the same harmonic range); the displaced fraction is half the L1 gap.
    Smooth (constant) spectra contribute ~0, a single sharp bin is the
    hardest case.  ``return_cases`` additionally returns the per-case gaps.
    """
    cfg = cfg or SpectralConfig()
    fy = signed_bins(spatial_size)
    fx = signed_bins(spatial_size)
    cy = np.where(fy == 0)[0][0]
    cx = np.where(fx == 0)[0][0]
    rng = np.random.Generator(np.random.Philox(20240901))
    cases = []

    flat = np.ones((spatial_size, spatial_size), dtype=complex)
    cases.append(("constant", flat))

    for rad in (3, 5, 8):
        y, x = np.mgrid[0:spatial_size, 0:spatial_size]
        r = np.hypot(y - cy, x - cx)
        for m_h in (0, 2, 5):
            ang = np.arctan2(y - cy, x - cx)
            fld = np.exp(-0.5 * ((r - rad) / 1.2) ** 2) * np.exp(1j * m_h * ang)
            cases.append((f"annulus_r{rad}_m{m_h}", fld))

    for _ in range(4):
        fld = np.zeros((spatial_size, spatial_size), dtype=complex)
        fld[cy + rng.integers(-8, 9), cx + rng.integers(-8, 9)] = 1.0
        cases.append(("impulse", fld))

    worst = 0.0
    gaps = {}
    for name, fld in cases:
        lut_h, dense_h = _dense_band_fraction(fld, fy, fx, cfg.rings,
                                              cfg.angular_bins, oversample)
        m = cfg.angular_bins

        def per_m(h):
            e = (np.abs(h) ** 2).sum(axis=0)
            # fold dense harmonics onto the coarse range
            folded = np.zeros(m)
            for i in range(h.shape[1]):
                folded[i % m] += e[i]
            s = folded.sum()
            return folded / s if s > 0 else folded

        gap = 0.5 * float(np.abs(per_m(lut_h) - per_m(dense_h)).sum())
        gaps[name] = max(gaps.get(name, 0.0), gap)
        worst = max(worst, gap)
    if return_cases:
        return worst, gaps
    return worst


def calibrate_flow(cfg: SpectralConfig | None = None, size: int = 64,
                   frames_t: int = 16,
                   rates=(0.0, 0.002, 0.005, 0.01, 0.02, 0.04),
                   noises=(0.0, 0.02), seed: int = 77) -> float:
    """Proxy defect on controlled log-radius drifts:
    ``max 2*(C_scale - (C_flow + S_trend)/2)`` clamped at zero.

    The zero-rate anchor matters: a static (or barely drifting) window has
    nearly all log-radial energy on the fitted line while both proxies stay
    near zero, which is exactly the regime the defect term must cover.
    """
    cfg = cfg or SpectralConfig()
    worst = 0.0
    for i, rate in enumerate(rates):
        for j, sigma in enumerate(noises):
            kind = "scaling" if rate != 0 else "static"
            spec = MotionSpec(kind=kind, alpha=-rate, noise_sigma=sigma,
                              seed=seed + 13 * i + j)
            clip = synth_sim2("bandpass_noise", spec, frames_t, size, size)
            rep = analyze(clip, cfg)
            gap = 2.0 * (rep.c_scale - 0.5 * (rep.c_flow + rep.s_trend))
            worst = max(worst, gap)
    return worst
