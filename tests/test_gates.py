import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sim2spec.core import SpectralConfig, UnobservableError
from sim2spec.gates import build_samples, energy_gate, obs_gate
from sim2spec.synth import make_rng

CFG = SpectralConfig()


def gated(e, m):
    """Weights and realized gate bounds of a one-frequency block over the
    cells ``e``, with harmonic index ``m`` (None for translation)."""
    s = build_samples(0.0, 0.0, 0.0 if m is None else m, 0.0, np.zeros(1),
                      np.asarray(e, dtype=np.float64)[None, :], m, CFG)
    return s.weights[0], s.g_lo, s.g_hi


def test_obs_gate_half_at_m1():
    assert obs_gate(np.array([1]))[0] == pytest.approx(0.5)
    assert obs_gate(np.array([-1]))[0] == pytest.approx(0.5)


def test_obs_gate_zero_at_m0():
    assert obs_gate(np.array([0]))[0] == 0.0


def test_energy_gate_at_max():
    e = np.array([0.01, 1.0])
    g = energy_gate(e, CFG)
    assert g[1] == pytest.approx(1.0 / (1.0 + math.exp(-9.0)))
    assert g[1] == pytest.approx(0.99988, abs=1e-5)


def test_rotation_m0_gets_zero_weight():
    e = np.array([1.0, 1.0])
    m = np.array([0, 3])
    w, g_lo, g_hi = gated(e, m)
    assert w[0] == 0.0
    assert w[1] > 0.0
    assert 0 < g_lo <= g_hi


def test_all_zero_energy_raises():
    with pytest.raises(UnobservableError):
        gated(np.zeros(5), None)


def test_translation_gate_is_energy_only():
    e = np.array([0.2, 1.0])
    w, g_lo, g_hi = gated(e, None)
    assert np.allclose(w, energy_gate(e, CFG) * e)
    assert g_hi <= 1.0


def test_gate_bounds_cover_all_samples():
    rng = np.random.default_rng(0)
    e = rng.uniform(0.001, 1.0, 200)
    m = rng.integers(1, 12, 200)
    w, g_lo, g_hi = gated(e, m)
    g = w / e
    assert np.all(g >= g_lo - 1e-12)
    assert np.all(g <= g_hi + 1e-12)
    assert math.isfinite(g_hi / g_lo)


@given(st.floats(0.1, 1e6))
def test_energy_gate_is_the_clipped_logistic(sharpness):
    # one logistic for the gate and the ring edges: unchanged where
    # |z| <= 60, and no overflow in exp at any sharpness
    e = np.linspace(0.0, 1.0, 101)
    cfg = SpectralConfig(energy_gate_sharpness=sharpness)
    z = sharpness * (e - cfg.energy_gate_threshold)
    with np.errstate(all="raise"):
        g = energy_gate(e, cfg)
    near = np.abs(z) <= 60.0
    assert np.array_equal(g[near], 1.0 / (1.0 + np.exp(-z[near])))
    assert np.all((g > 0.0) & (g <= 1.0))


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_energy_gate_monotone(e1, e2):
    lo, hi = sorted((e1, e2))
    g = energy_gate(np.array([lo, hi, 1.0]), CFG)
    assert g[0] <= g[1] + 1e-12


@given(st.integers(0, 50), st.integers(0, 50))
def test_obs_gate_monotone_in_abs_m(m1, m2):
    lo, hi = sorted((m1, m2))
    g = obs_gate(np.array([lo, hi]))
    assert g[0] <= g[1] + 1e-12


def test_build_samples_layout():
    s = build_samples(omega_x=np.array([1.0, 2.0]), omega_y=0.0, m=0.0,
                      nu=0.0, omega_t=np.array([3.0, -1.0]),
                      energies=np.array([[1.0, 0.5], [0.25, 1.0]]),
                      harmonic_index=None, cfg=CFG)
    assert s.n == 4 and s.design.shape == (2, 5)
    assert s.weights.shape == s.energies.shape == (2, 2)
    assert np.allclose(s.design[:, 0], [1.0, 2.0])
    assert np.allclose(s.design[:, 1:4], 0.0)
    assert np.allclose(s.design[:, 4], 1.0)
    assert np.allclose(s.freq_t, [3.0, -1.0])


@pytest.mark.parametrize("which", ["column", "target"])
def test_samples_varying_along_two_axes_rejected(which):
    e = np.ones((3, 4))
    grid = np.arange(12.0).reshape(3, 4)
    col, target = (grid, np.arange(3.0)) if which == "column" else (1.0, grid)
    with pytest.raises(ValueError):
        build_samples(col, 0.0, 0.0, 0.0, target, e, None, CFG)


@pytest.mark.parametrize("col, omega_t", [
    (np.arange(3.0)[:, None], np.arange(3.0)),   # column along axis 0
    (1.0, np.arange(4.0)),                       # grid of axis 1
    (1.0, np.arange(3.0)[:, None]),              # not 1-D
    (1.0, 2.0),                                  # scalar
], ids=["column_axis0", "omega_t_axis1", "omega_t_2d", "omega_t_scalar"])
def test_samples_off_temporal_layout_rejected(col, omega_t):
    with pytest.raises(ValueError):
        build_samples(col, 0.0, 0.0, 0.0, omega_t, np.ones((3, 4)), None, CFG)


def random_block(kind, a, b, c, rng):
    """A sample block, temporal axis first, and the explicit row matrix
    ``[omega_x, omega_y, m, nu, 1]``, targets and weights it stands for."""
    ints = lambda k: rng.choice([-1, 1], k) * rng.integers(1, 7, k)
    if kind == "translation":
        wt, wy, wx = (rng.normal(size=k) * 4 for k in (a, b, c))
        grids = (wx[None, :], wy[:, None], 0.0, 0.0)
        shape, hidx = (a, b, c), None
    elif kind == "rotation":
        m, wt = ints(b)[None, :], rng.normal(size=c) * 4
        grids = (0.0, 0.0, m, 0.0)
        shape, hidx = (c, a, b), m
    else:
        nu, wt = ints(a), rng.normal(size=b) * 4
        grids = (0.0, 0.0, 0.0, nu)
        shape, hidx = (b, a), nu
    e = rng.uniform(0.01, 1.0, shape)
    s = build_samples(*grids, wt, e, hidx, CFG)
    full = [np.broadcast_to(g, shape).ravel() for g in grids]
    rows = np.column_stack(full + [np.ones(e.size)])
    t = np.broadcast_to(wt.reshape(-1, *[1] * (len(shape) - 1)), shape)
    return s, rows, -t.ravel(), s.weights.ravel()


@settings(deadline=None)
@given(st.sampled_from(["translation", "rotation", "scaling"]),
       st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_block_moments_match_row_matrix(kind, a, b, c, seed):
    rng = make_rng(seed)
    s, rows, targets, w = random_block(kind, a, b, c, rng)
    gram, rhs, sum_w, sum_wyy = s.moments
    ref_gram = rows.T @ (rows * w[:, None])
    ref_rhs = rows.T @ (w * targets)
    assert s.n == len(w)
    assert np.abs(gram - ref_gram).max() <= 1e-12 * np.abs(ref_gram).max()
    assert np.abs(rhs - ref_rhs).max() <= 1e-12 * np.abs(ref_rhs).max()
    assert sum_w == pytest.approx(w.sum(), rel=1e-12)
    assert sum_wyy == pytest.approx(w @ targets ** 2, rel=1e-12)
    theta = rng.normal(size=5)
    ref_err = rows @ theta - targets
    assert np.abs(s.errors(theta).ravel() - ref_err).max() \
        <= 1e-12 * np.abs(ref_err).max()
