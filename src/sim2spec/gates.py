"""Energy and observability gating for weighted least-squares samples.

A sample's weight is ``w = g_E * g_obs * E``: a logistic energy gate keeps
the noise floor from steering fits, and the observability gate
``m^2 / (m^2 + lambda_obs)`` removes harmonic samples that carry no motion
information (exactly zero at m = 0).  The realized gate extremes are
recorded with the samples because the concentration bounds need the gate
ratio.  A block is a design matrix over its cells times a temporal grid,
the target ``-omega_t`` varying only along the latter, so its four moments
(``X'WX``, ``X'Wy``, ``sum w`` and ``sum w y^2``) come from the weights'
per-cell and per-frequency sums by matrix products.  The design matrix and
the observability gate depend only on the grids, so each is built once per
distinct grid set, kept in a small LRU cache and handed out read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

    @functools.cached_property
    def moments(self) -> tuple:
        """``(gram, rhs, sum_w, sum_wyy)`` = ``(sum w x x^T, sum w x y,
        sum w, sum w y^2)``, formed once from the weights' per-cell and
        per-frequency sums."""
        w_cell = self.weights.sum(0)
        gram = self.design.T @ (self.design * w_cell[:, None])
        rhs = -self.design.T @ (self.freq_t @ self.weights)
        sum_wyy = self.freq_t ** 2 @ self.weights.sum(1)
        return gram, rhs, w_cell.sum(), sum_wyy

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


def _gated(energies: np.ndarray, obs, cfg: SpectralConfig) -> tuple:
    """``compute_weights`` with the observability gate ``obs`` (None for
    gate 1) already formed."""
    g = energy_gate(energies, cfg)
    if obs is not None:
        g *= obs
    positive = g > 0.0
    g_hi = float(g.max(where=positive, initial=0.0))
    if g_hi <= 0.0:
        raise UnobservableError("observability gate removed every sample")
    return g * energies, float(g.min(where=positive, initial=g_hi)), g_hi


def compute_weights(energies: np.ndarray, harmonic_index, cfg: SpectralConfig):
    """Gated weights plus the realized gate bounds ``(g_lo, g_hi)``.

    ``harmonic_index`` is the m (or nu) of rotation/scaling samples (a grid
    that broadcasts against ``energies``), or None for translation (gate 1).
    Bounds are taken over samples with a nonzero gate so the ratio
    ``g_hi/g_lo`` that feeds the band-capture bound is finite.
    """
    obs = None if harmonic_index is None else obs_gate(harmonic_index)
    return _gated(np.asarray(energies, dtype=np.float64), obs, cfg)


def _grid_key(grid) -> tuple:
    """Hashable form of a grid: its shape and its values as float64, all
    the cached builders read of it."""
    a = np.asarray(grid, dtype=np.float64)
    return a.shape, tuple(a.ravel().tolist())


def _from_key(key: tuple) -> np.ndarray:
    return np.array(key[1], dtype=np.float64).reshape(key[0])


@functools.lru_cache(maxsize=16)
def _block_grids(cols: tuple, cells: tuple, hidx) -> tuple:
    """The ``(cells, 5)`` design of the column grids ``cols`` broadcast
    over ``cells`` and the observability gate of ``hidx`` (None for
    translation), built once per key and read-only."""
    design = np.column_stack([np.broadcast_to(_from_key(c), cells).ravel()
                              for c in cols] + [np.ones(math.prod(cells))])
    obs = None if hidx is None else obs_gate(_from_key(hidx))
    for a in (design, obs):
        if a is not None:
            a.setflags(write=False)
    return design, obs


def build_samples(omega_x, omega_y, m, nu, omega_t, energies,
                  harmonic_index, cfg: SpectralConfig) -> WeightedSamples:
    """A block from ``energies`` with the temporal axis first and
    ``omega_t`` its 1-D grid; the columns broadcast against the cell axes
    ``energies.shape[1:]``, ``harmonic_index`` against ``energies``."""
    energies = np.asarray(energies, dtype=np.float64)
    freq_t = np.asarray(omega_t, dtype=np.float64)
    if freq_t.ndim != 1 or freq_t.shape != energies.shape[:1]:
        raise ValueError("omega_t must be the grid of the energies' axis 0")
    design, obs = _block_grids(
        tuple(_grid_key(c) for c in (omega_x, omega_y, m, nu)),
        energies.shape[1:],
        None if harmonic_index is None else _grid_key(harmonic_index))
    w, g_lo, g_hi = _gated(energies, obs, cfg)
    k = len(freq_t)
    return WeightedSamples(design, freq_t, w.reshape(k, -1),
                           energies.reshape(k, -1), g_lo, g_hi)
