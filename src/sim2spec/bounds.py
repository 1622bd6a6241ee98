"""Computable bound evaluators and empirical verifiers.

Every inequality the analysis relies on is implemented as a check that
returns both sides: weighted band capture (a Chebyshev argument on the
energy measure), temporal window leakage, the Fano-style annulus entropy
bound and the ridge-residual inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, DegenerateInputError, table
from .losses import ridge_wls_solve
from .resample import normalized_entropy
from .spectral import temporal_window

__all__ = [
    "BoundCheck", "window_leakage", "band_capture_check",
    "ring_entropy_bound", "ring_entropy_check", "ridge_inequality_check",
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


# ---------------------------------------------------------------------------
# window leakage


@table
def _leakage_profile(frames_t: int, kind: str) -> tuple:
    """``window_leakage``'s power spectrum, its total and each bin's
    distance from DC, the index ``spectral.shifted_dft`` gives its row."""
    if not np.any(h := temporal_window(frames_t, kind)):
        raise DegenerateInputError("temporal window is all zero")
    power = np.fft.fftshift(np.abs(np.fft.fft(h)) ** 2)
    return power, power.sum(), np.abs(np.arange(frames_t) - frames_t // 2)


def window_leakage(frames_t: int, delta: int, kind: str = "hann") -> float:
    """Fraction of the temporal window's spectral energy beyond +-delta bins."""
    if frames_t < 2:
        raise ConfigError("need at least 2 frames")
    if delta < 0:
        raise ConfigError("delta must be nonnegative")
    power, total, bins = _leakage_profile(frames_t, kind)
    return float(power[bins > delta].sum() / total)


# ---------------------------------------------------------------------------
# band capture (weighted Chebyshev)


def band_capture_check(energies, errors, gates, delta: float,
                       context: dict | None = None) -> BoundCheck:
    """Out-of-band energy fraction vs the gate-ratio Chebyshev bound.

    ``errors`` are the algebraic distances to the target line/plane,
    ``gates`` the per-sample gate factors (weights are gate * energy).
    Zero total energy is a vacuous pass (flagged in the context).
    """
    if not delta > 0:
        raise ConfigError("delta must be positive")
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
    """Measured normalized entropy of a ring distribution vs the bound; a
    silent one reads 0, a vacuous pass (flagged in the context)."""
    p = np.asarray(distribution, dtype=np.float64)
    n = len(p)
    rhs = ring_entropy_bound(eps_nb, n)
    total = p.sum()
    ctx = {**(context or {}), "eps_nb": eps_nb, "n_rings": n}
    if total <= 0:
        ctx["vacuous"] = True
    lhs = float(normalized_entropy(p / total if total > 0 else p))
    return BoundCheck(lhs, rhs, ctx)


# ---------------------------------------------------------------------------
# ridge residual


def ridge_inequality_check(design, targets, weights, lams,
                           context: dict | None = None) -> list:
    """One ``BoundCheck`` per ridge ``lam`` of ``lams``, in their order:
    ||X theta_lam - y||^2 <= r* + lam ||theta_LS||^2 in the whitened
    coordinates X = sqrt(W) Phi, y = sqrt(W) b.  The least-squares
    reference r*, theta_LS and the moments are formed once for all of
    ``lams``."""
    design = np.asarray(design, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    x = design * np.sqrt(w)[:, None]
    y = targets * np.sqrt(w)
    theta_ls, *_ = np.linalg.lstsq(x, y, rcond=None)
    r_star = float(((x @ theta_ls - y) ** 2).sum())
    ls_norm2 = float(theta_ls @ theta_ls)
    xtx, xty, sum_w = x.T @ x, x.T @ y, float(w.sum())
    checks = []
    for lam in lams:
        theta, _ = ridge_wls_solve(xtx, xty, sum_w, lam)
        lhs = float(((x @ theta - y) ** 2).sum())
        checks.append(BoundCheck(lhs, r_star + lam * ls_norm2,
                                 {**(context or {}), "lam": lam}))
    return checks
