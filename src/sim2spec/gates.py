"""Energy and observability gating for weighted least-squares samples.

A sample's weight is ``w = g_E * g_obs * E``: a logistic energy gate keeps
the noise floor from steering fits, and the observability gate
``m^2 / (m^2 + lambda_obs)`` removes harmonic samples that carry no motion
information (exactly zero at m = 0).  The realized gate extremes are
recorded with the samples because the concentration bounds need the gate
ratio.  A block is a design matrix over its cells times a temporal grid,
the target ``-omega_t`` varying only along the latter.  The design matrix
and the observability gate depend only on the grids (``core.table``);
``build_samples`` forms the moments when it builds the block.
The energy gate is ``core.logistic``, the ring edges' overflow-safe one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpectralConfig, UnobservableError, logistic, table

__all__ = ["WeightedSamples", "energy_gate", "obs_gate", "build_samples"]

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
    ``moments`` is ``(gram, rhs, sum_w, sum_wyy)`` = ``(sum w x x^T,
    sum w x y, sum w, sum w y^2)``.
    """

    design: np.ndarray
    freq_t: np.ndarray
    weights: np.ndarray
    energies: np.ndarray
    g_lo: float
    g_hi: float
    moments: tuple

    @property
    def n(self) -> int:
        return self.weights.size

    def errors(self, theta) -> np.ndarray:
        """Per-sample ``x . theta - y``, ``(K, cells)``."""
        return (self.design @ theta)[None, :] + self.freq_t[:, None]


def energy_gate(energies: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Logistic gate sigmoid(f * (E/E_max - tau_E)); E_max must be > 0."""
    e_max = float(np.max(energies))
    if e_max <= 0.0:
        raise UnobservableError("all-zero energies: nothing to gate")
    return logistic(cfg.energy_gate_sharpness
                    * (energies / e_max - cfg.energy_gate_threshold))


def obs_gate(harmonic_index: np.ndarray) -> np.ndarray:
    """m^2 / (m^2 + lambda_obs); zero at m = 0, approaching 1 for large m."""
    m2 = np.asarray(harmonic_index, dtype=np.float64) ** 2
    return m2 / (m2 + OBS_GATE_LAMBDA)


@table
def _block_grids(omega_x, omega_y, m, nu, cells: tuple, hidx) -> tuple:
    """The ``(cells, 5)`` design of the columns broadcast over ``cells``
    and the observability gate of ``hidx`` (None for translation)."""
    design = np.column_stack([np.broadcast_to(c, cells).ravel()
                              for c in (omega_x, omega_y, m, nu)]
                             + [np.ones(math.prod(cells))])
    return design, None if hidx is None else obs_gate(hidx)


def build_samples(omega_x, omega_y, m, nu, omega_t, energies,
                  harmonic_index, cfg: SpectralConfig) -> WeightedSamples:
    """A block from ``energies`` with the temporal axis first and
    ``omega_t`` its 1-D grid; the columns broadcast against the cell axes
    ``energies.shape[1:]``, ``harmonic_index`` against ``energies``."""
    energies = np.asarray(energies, dtype=np.float64)
    freq_t = np.asarray(omega_t, dtype=np.float64)
    if freq_t.ndim != 1 or freq_t.shape != energies.shape[:1]:
        raise ValueError("omega_t must be the grid of the energies' axis 0")
    design, obs = _block_grids(omega_x, omega_y, m, nu, energies.shape[1:],
                               harmonic_index)
    g = energy_gate(energies, cfg)
    if obs is not None:
        g *= obs
    # bounds over the nonzero gates: band capture's g_hi/g_lo is finite
    positive = g > 0.0
    g_hi = float(g.max(where=positive, initial=0.0))
    if g_hi <= 0.0:
        raise UnobservableError("observability gate removed every sample")
    g_lo = float(g.min(where=positive, initial=g_hi))
    k = len(freq_t)
    w = (g * energies).reshape(k, -1)
    w_cell = w.sum(0)
    gram = design.T @ (design * w_cell[:, None])
    rhs = -design.T @ (freq_t @ w)
    sum_wyy = freq_t ** 2 @ w.sum(1)
    return WeightedSamples(design, freq_t, w, energies.reshape(k, -1),
                           g_lo, g_hi, (gram, rhs, w_cell.sum(), sum_wyy))
