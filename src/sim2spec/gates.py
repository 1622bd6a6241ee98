"""Energy and observability gating for weighted least-squares samples.

A sample's weight is ``w = g_E * g_obs * E``: a logistic energy gate keeps
the noise floor from steering fits, and the observability gate
``m^2 / (m^2 + lambda_obs)`` removes harmonic samples that carry no motion
information (exactly zero at m = 0).  The realized gate extremes are
recorded with the samples because the concentration bounds need the gate
ratio.  A block is a design matrix over its cells times a temporal grid,
the target ``-omega_t`` varying only along the latter, so its moments are
three matrix products.
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
    """One WLS block: the ``(cells, 5)`` ``design`` of unified columns
    ``[omega_x, omega_y, m, nu, 1]`` (0 where unused), the ``(K,)`` temporal
    grid ``freq_t`` (targets ``-omega_t``), and ``(K, cells)`` ``weights``
    and ``energies``.  ``g_lo``/``g_hi`` bound the gate factor over every
    carried sample (``w = g * E`` with ``g`` in ``[g_lo, g_hi]``).
    """

    design: np.ndarray
    freq_t: np.ndarray
    weights: np.ndarray
    energies: np.ndarray
    g_lo: float
    g_hi: float

    @property
    def n(self) -> int:
        return self.weights.size

    @cached_property
    def moments(self) -> tuple:
        """``(gram, rhs, sum_w)`` = ``(sum w x x^T, sum w x y, sum w)``,
        formed once from the weights' per-cell sums."""
        w_cell = self.weights.sum(0)
        gram = self.design.T @ (self.design * w_cell[:, None])
        rhs = -self.design.T @ (self.freq_t @ self.weights)
        return gram, rhs, w_cell.sum()

    def errors(self, theta) -> np.ndarray:
        """Per-sample ``x . theta - y``, ``(K, cells)``."""
        return (self.design @ theta)[None, :] + self.freq_t[:, None]


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
    """A block from ``energies`` with the temporal axis first and
    ``omega_t`` its 1-D grid; the columns broadcast against the cell axes
    ``energies.shape[1:]``, ``harmonic_index`` against ``energies``."""
    energies = np.asarray(energies, dtype=np.float64)
    freq_t = np.asarray(omega_t, dtype=np.float64)
    if freq_t.ndim != 1 or freq_t.shape != energies.shape[:1]:
        raise ValueError("omega_t must be the grid of the energies' axis 0")
    design = np.column_stack([np.broadcast_to(c, energies.shape[1:]).ravel()
                              for c in (omega_x, omega_y, m, nu, 1.0)])
    w, g_lo, g_hi = compute_weights(energies, harmonic_index, cfg)
    k = len(freq_t)
    return WeightedSamples(design, freq_t, w.reshape(k, -1),
                           energies.reshape(k, -1), g_lo, g_hi)
