"""Energy and observability gating for weighted least-squares samples.

A sample's weight is ``w = g_E * g_obs * E``: a logistic energy gate keeps
the noise floor from steering fits, and the observability gate
``m^2 / (m^2 + lambda_obs)`` removes harmonic samples that carry no motion
information (exactly zero at m = 0).  The realized gate extremes are
recorded with the samples because the concentration bounds need the gate
ratio.  A block keeps its samples on their native grid; each column and
the target varies along at most one of its axes, so the block's moments
come from the weights' marginals, while the errors stay per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SpectralConfig, UnobservableError

__all__ = ["WeightedSamples", "energy_gate", "obs_gate", "compute_weights",
           "build_samples"]

# lambda_obs of the observability gate m^2 / (m^2 + lambda_obs): half weight
# at |m| = 1
OBS_GATE_LAMBDA = 1.0


@dataclass(frozen=True)
class WeightedSamples:
    """Columns, targets, energies and gated weights for one WLS block.

    ``cols`` are the unified columns ``[omega_x, omega_y, m, nu, 1]``, each
    a 1-D grid or a scalar (0 where the block does not use it) that
    broadcasts against ``weights``, as do the targets ``-omega_t``.
    ``g_lo``/``g_hi`` bound the gate factor over every carried sample
    (``w = g * E`` with ``g`` in ``[g_lo, g_hi]``).
    """

    cols: tuple
    targets: np.ndarray
    weights: np.ndarray
    energies: np.ndarray
    g_lo: float
    g_hi: float

    def __post_init__(self):
        shape = self.weights.shape
        if len(self.cols) != 5 or self.energies.shape != shape or shape != \
                np.broadcast_shapes(shape, *map(np.shape, self.cols),
                                    np.shape(self.targets)):
            raise ValueError("sample arrays must broadcast to the weights")
        if any(sum(n > 1 for n in np.shape(x)) > 1
               for x in (*self.cols, self.targets)):
            raise ValueError("a column or the target varies along more "
                             "than one axis")

    @property
    def n(self) -> int:
        return self.weights.size

    @cached_property
    def moments(self) -> tuple:
        """``(gram, rhs, sum_w)`` = ``(sum w x x^T, sum w x y, sum w)``,
        formed once from the weights' marginals.  Every factor varies along
        at most one axis, so two on one axis give a dot with the 1-D
        marginal and two on axes ``a < b`` give ``f_a' W_ab f_b``; one
        contraction of the weights, an axis at a time, against the factors'
        pairwise products along it (ones off their axis) forms them all.
        Products with an all-zero factor are skipped."""
        w = np.atleast_1d(self.weights)
        f = (*self.cols, self.targets)
        live = [k for k, x in enumerate(f) if np.count_nonzero(x)]
        k2 = len(live) ** 2
        # rows per axis in turn: a live factor's values on its own axis (a
        # constant on axis 0), ones elsewhere
        starts = np.cumsum((0, *w.shape))
        basis = np.ones((starts[-1], len(live)))
        for j, x in enumerate(f[k] for k in live):
            a = (w.ndim - np.ndim(x) + int(np.argmax(np.shape(x)))
                 if np.size(x) > 1 else 0)
            basis[starts[a]:starts[a + 1], j] = np.ravel(x)
        pairs = np.split((basis[:, :, None] * basis[:, None, :])
                         .reshape(-1, k2), starts[1:-1])
        m = w.reshape(-1, w.shape[-1]) @ pairs[-1]
        for a in range(w.ndim - 2, -1, -1):
            m = np.einsum("pak,ak->pk", m.reshape(-1, w.shape[a], k2),
                          pairs[a])
        full = np.zeros((6, 6))
        full[np.ix_(live, live)] = m.reshape(len(live), len(live))
        return full[:5, :5], full[:5, 5], full[4, 4]

    def errors(self, theta) -> np.ndarray:
        """Per-sample ``x . theta - y`` on the block's grid."""
        err = sum(t * c for t, c in zip(theta, self.cols)) - self.targets
        return np.broadcast_to(err, self.weights.shape)


def energy_gate(energies: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Logistic gate sigmoid(f * (E/E_max - tau_E)); E_max must be > 0."""
    e_max = float(np.max(energies))
    if e_max <= 0.0:
        raise UnobservableError("all-zero energies: nothing to gate")
    z = cfg.energy_gate_sharpness * (energies / e_max - cfg.energy_gate_threshold)
    return 1.0 / (1.0 + np.exp(-z))


def obs_gate(harmonic_index: np.ndarray) -> np.ndarray:
    """m^2 / (m^2 + lambda_obs); zero at m = 0, approaching 1 for large m."""
    m2 = np.asarray(harmonic_index, dtype=np.float64) ** 2
    return m2 / (m2 + OBS_GATE_LAMBDA)


def compute_weights(energies: np.ndarray, harmonic_index, cfg: SpectralConfig):
    """Gated weights plus the realized gate bounds ``(g_lo, g_hi)``.

    ``harmonic_index`` is the m (or nu) of rotation/scaling samples (a grid
    that broadcasts against ``energies``), or None for translation (gate 1).
    Bounds are taken over samples with a nonzero gate so the ratio
    ``g_hi/g_lo`` that feeds the band-capture bound is finite.
    """
    energies = np.asarray(energies, dtype=np.float64)
    g = energy_gate(energies, cfg)
    if harmonic_index is not None:
        g = g * obs_gate(harmonic_index)
    w = g * energies
    positive = g > 0.0
    if not np.any(positive):
        raise UnobservableError("observability gate removed every sample")
    return w, float(g[positive].min()), float(g[positive].max())


def build_samples(omega_x, omega_y, m, nu, omega_t, energies,
                  harmonic_index, cfg: SpectralConfig) -> WeightedSamples:
    """Assemble a WeightedSamples block on the grid of ``energies``; the
    columns, ``omega_t`` and ``harmonic_index`` broadcast against it."""
    energies = np.asarray(energies, dtype=np.float64)
    cols = tuple(np.asarray(c, dtype=np.float64)
                 for c in (omega_x, omega_y, m, nu, 1.0))
    targets = -np.asarray(omega_t, dtype=np.float64)
    w, g_lo, g_hi = compute_weights(energies, harmonic_index, cfg)
    return WeightedSamples(cols, targets, w, energies, g_lo, g_hi)
