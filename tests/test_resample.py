import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sim2spec.core import ConfigError, SpectralConfig
from sim2spec.resample import (build_polar_lut, make_stack, polar_resample,
                               ring_energies)
from sim2spec.spectral import signed_bins, temporal_window
from sim2spec.synth import make_rng

RECT = SpectralConfig(window_kind="rect")


def angular_spectrum(polar, cfg):
    """The stack's angular harmonics with their m and omega_t grids."""
    stack = make_stack(polar, cfg)
    return stack.ang, stack.ang_m, stack.freq_t


def logradial_spectrum(polar, cfg):
    """The stack's log-radial harmonics with their nu and omega_t grids and
    the log-radius step."""
    stack = make_stack(polar, cfg)
    return stack.rad, stack.rad_nu, stack.freq_t, stack.xi_step


def spectrum_from_field(field2d, frames_t=1):
    h, w = field2d.shape
    return np.broadcast_to(field2d[None], (frames_t, h, w)).astype(complex)


def smooth_test_field(size, seed=0):
    rng = make_rng(seed)
    y, x = np.mgrid[0:size, 0:size]
    c = size // 2
    field = np.zeros((size, size))
    for _ in range(5):
        by, bx = rng.uniform(-size / 4, size / 4, 2)
        amp = rng.uniform(0.5, 1.5)
        sig = rng.uniform(2.0, 4.0)
        field += amp * np.exp(-((y - c - by) ** 2 + (x - c - bx) ** 2)
                              / (2 * sig ** 2))
    return field


def test_lut_weights_partition_of_unity():
    lut = build_polar_lut(signed_bins(32), signed_bins(32), 20, 24)
    sums = lut.weights.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert lut.indices.min() >= 0
    assert lut.indices.max() < 32 * 32


def test_lut_rho_max_bounded():
    fy, fx = signed_bins(32), signed_bins(32)
    with pytest.raises(ConfigError):
        build_polar_lut(fy, fx, 20, 24, rho_max=20.0)


def test_lut_shape_mismatch_rejected():
    lut = build_polar_lut(signed_bins(32), signed_bins(32), 10, 8)
    s = spectrum_from_field(np.ones((16, 16)))
    with pytest.raises(ConfigError):
        polar_resample(s, lut)


def test_ring_grid_shape_mismatch_rejected():
    energy = np.ones((2, 16, 16))
    with pytest.raises(ConfigError):
        ring_energies(energy, signed_bins(32), signed_bins(16),
                      SpectralConfig())
    with pytest.raises(ConfigError):
        ring_energies(energy, signed_bins(16), signed_bins(15),
                      SpectralConfig())


def test_radially_symmetric_field_theta_independent():
    # smooth at the bin scale, so bilinear anisotropy stays within tolerance
    size = 65
    y, x = np.mgrid[0:size, 0:size]
    c = size // 2
    r = np.hypot(y - c, x - c)
    field = np.exp(-0.5 * (r / 12.0) ** 2)
    lut = build_polar_lut(signed_bins(size), signed_bins(size), 12, 24)
    polar = polar_resample(spectrum_from_field(field), lut)[:, :, 0]
    spread = np.abs(polar - polar.mean(axis=1, keepdims=True)).max()
    assert spread <= 1e-3 * np.abs(polar).max()


def test_impulse_footprint_locality():
    size = 33
    field = np.zeros((size, size))
    c = size // 2
    field[c + 3, c + 4] = 1.0  # omega = (4, 3), radius 5
    lut = build_polar_lut(signed_bins(size), signed_bins(size), 16, 24)
    polar = polar_resample(spectrum_from_field(field), lut)[:, :, 0]
    rr, tt = np.nonzero(np.abs(polar) > 0)
    assert len(rr) > 0
    for k, ell in zip(rr, tt):
        px = lut.rho[k] * math.cos(lut.theta[ell])
        py = lut.rho[k] * math.sin(lut.theta[ell])
        assert abs(px - 4) < 1.0 + 1e-9 and abs(py - 3) < 1.0 + 1e-9


def test_rotated_field_shifts_theta_grid():
    """Rotating the field by one angular step circularly shifts the polar
    samples; verified against a dense angular oracle."""
    size = 65
    m = 24
    field = smooth_test_field(size, seed=3)
    step = 2 * np.pi / m

    def rotate_field(f, ang):
        # bilinear rotation about the center, zero fill
        h, w = f.shape
        c = h // 2
        y, x = np.mgrid[0:h, 0:w].astype(float)
        ca, sa = math.cos(-ang), math.sin(-ang)
        xs, ys = x - c, y - c
        xb = ca * xs - sa * ys + c
        yb = sa * xs + ca * ys + c
        x0 = np.clip(np.floor(xb).astype(int), 0, w - 2)
        y0 = np.clip(np.floor(yb).astype(int), 0, h - 2)
        dx, dy = xb - x0, yb - y0
        out = (f[y0, x0] * (1 - dx) * (1 - dy) + f[y0, x0 + 1] * dx * (1 - dy)
               + f[y0 + 1, x0] * (1 - dx) * dy + f[y0 + 1, x0 + 1] * dx * dy)
        inside = (xb >= 0) & (xb <= w - 1) & (yb >= 0) & (yb <= h - 1)
        return np.where(inside, out, 0.0)

    rotated = rotate_field(field, step)
    fy, fx = signed_bins(size), signed_bins(size)
    lut = build_polar_lut(fy, fx, 12, m, rho_max=14.0)
    p0 = polar_resample(spectrum_from_field(field), lut)[:, :, 0]
    p1 = polar_resample(spectrum_from_field(rotated), lut)[:, :, 0]
    shifted = np.roll(p0, 1, axis=1)
    rel = np.abs(p1 - shifted).max() / np.abs(p0).max()
    assert rel <= 5e-2

    # dense angular oracle: 4096-sample resampling agrees with the relation
    dense = build_polar_lut(fy, fx, 12, 4096, rho_max=14.0)
    d0 = polar_resample(spectrum_from_field(field), dense)[:, :, 0]
    d1 = polar_resample(spectrum_from_field(rotated), dense)[:, :, 0]
    dshift = np.roll(d0, 4096 // m, axis=1)
    rel_dense = np.abs(d1 - dshift).max() / np.abs(d0).max()
    assert rel_dense <= 5e-2


def test_angular_constant_field_mass_at_m0():
    polar = np.ones((8, 24, 4), dtype=complex)
    out, m_grid, _ = angular_spectrum(polar, RECT)
    e = np.abs(out) ** 2
    off = e[:, m_grid != 0, :].sum()
    assert off <= 1e-20 * e.sum()


def test_angular_single_harmonic_static():
    theta = 2 * np.pi * np.arange(24) / 24
    polar = np.broadcast_to(np.exp(2j * theta)[None, :, None],
                            (6, 24, 4)).copy()
    out, m_grid, wt_grid = angular_spectrum(polar, RECT)
    e = np.abs(out) ** 2
    im = np.where(m_grid == 2)[0][0]
    it = np.where(wt_grid == 0)[0][0]
    assert e[:, im, it].sum() >= (1 - 1e-12) * e.sum()


def test_angular_rotation_against_brute_force_dft():
    """Rotating harmonics put mass on omega_t = -m * Omega * T / (2 pi);
    the full stack is checked against explicit double DFT sums."""
    n_rho, m, t_n = 5, 16, 16
    omega = 2 * np.pi / 16
    theta = 2 * np.pi * np.arange(m) / m
    t = np.arange(t_n)
    rng = make_rng(11)
    radial = rng.uniform(0.5, 1.5, n_rho)
    ang_profile = np.zeros(m)
    ang_profile[:4] = rng.uniform(0.5, 1.0, 4)  # low-m angular content
    field = np.zeros((n_rho, m, t_n), dtype=complex)
    for it in range(t_n):
        prof = np.interp((theta - omega * it) % (2 * np.pi),
                         theta, ang_profile, period=2 * np.pi)
        field[:, :, it] = radial[:, None] * prof[None, :]

    out, m_grid, wt_grid = angular_spectrum(field, RECT)

    # brute-force double DFT
    oracle = np.zeros_like(out)
    for i_m, mv in enumerate(m_grid):
        for i_w, wv in enumerate(wt_grid):
            ph = np.exp(-2j * np.pi * (mv * np.arange(m)[None, :, None] / m
                                       + wv * t[None, None, :] / t_n))
            oracle[:, i_m, i_w] = (field * ph).sum(axis=(1, 2))
    assert np.allclose(out, oracle, atol=1e-9 * np.abs(oracle).max())

    # line check: dominant mass within one bin of -m * Omega * T / (2 pi)
    e = np.abs(out) ** 2
    on_line = 0.0
    for i_m, mv in enumerate(m_grid):
        if mv == 0:
            on_line += e[:, i_m, :].sum()
            continue
        target = -mv * omega * t_n / (2 * np.pi)
        sel = np.abs(wt_grid - target) <= 1.0
        on_line += e[:, i_m, sel].sum()
    assert on_line >= 0.98 * e.sum()


def test_logradial_constant_profile_mass_at_nu0():
    polar = np.ones((16, 8, 4), dtype=complex)
    cfg = SpectralConfig(window_kind="rect", logradius_bins=8)
    out, nu_grid, _, _ = logradial_spectrum(polar, cfg)
    e = np.abs(out) ** 2
    assert e[nu_grid != 0, :].sum() <= 1e-20 * e.sum()


def test_logradial_zero_field_zero_stack():
    polar = np.zeros((16, 8, 4), dtype=complex)
    out, *_ = logradial_spectrum(polar, RECT)
    assert np.all(out == 0)


def test_logradial_shift_theorem_phase_ramp():
    """A profile drifting one log-radius bin per frame acquires the phase
    ramp exp(-2i pi nu / N_xi) per frame and puts mass on the line
    omega_t = -nu * T / N_xi (folded into the temporal range)."""
    n_rho, t_n, n_xi = 64, 8, 8
    cfg = SpectralConfig(window_kind="rect", logradius_bins=n_xi)
    rho = np.arange(1, n_rho + 1, dtype=float)
    xi_lo, xi_hi = np.log(rho[0]), np.log(rho[-1])
    step = (xi_hi - xi_lo) / (n_xi - 1)

    def profile(xi, shift_bins):
        # smooth periodic bump in xi units
        z = (xi - xi_lo) / step - shift_bins
        return 1.0 + 0.8 * np.cos(2 * np.pi * z / n_xi)

    polar = np.zeros((n_rho, 4, t_n), dtype=complex)
    for it in range(t_n):
        polar[:, :, it] = profile(np.log(rho), it)[:, None]

    out, nu_grid, wt_grid, xi_step = logradial_spectrum(polar, cfg)
    assert abs(xi_step - step) < 1e-12

    # direct ramp check on the per-frame nu transform
    prof_dft = np.fft.fft([profile(xi_lo + np.arange(n_xi) * step, it)
                           for it in range(t_n)], axis=1)  # (T, nu)
    nu1 = 1
    ratios = prof_dft[1:, nu1] / prof_dft[:-1, nu1]
    expected = np.exp(-2j * np.pi * nu1 / n_xi)
    assert np.allclose(ratios, expected, atol=1e-9)

    # and the resampled pipeline concentrates mass near the tilted line
    e = np.abs(out) ** 2
    on_line = 0.0
    for i_n, nv in enumerate(nu_grid):
        target = (-nv * t_n / n_xi)
        folded = ((np.asarray(wt_grid) - target + t_n / 2) % t_n) - t_n / 2
        sel = np.abs(folded) <= 1.0
        on_line += e[i_n, sel].sum()
    assert on_line >= 0.9 * e.sum()


def test_angular_parseval_rect():
    rng = make_rng(13)
    polar = rng.normal(size=(10, 24, 8)) + 1j * rng.normal(size=(10, 24, 8))
    out, *_ = angular_spectrum(polar, RECT)
    lhs = (np.abs(out) ** 2).sum()
    rhs = 24 * 8 * (np.abs(polar) ** 2).sum()
    assert abs(lhs - rhs) <= 1e-6 * rhs


def test_logradial_parseval_affine_profile():
    # affine profiles interpolate exactly, so the resampled values are known
    n_rho, t_n, n_xi = 32, 4, 8
    cfg = SpectralConfig(window_kind="rect", logradius_bins=n_xi)
    rho = np.arange(1, n_rho + 1, dtype=float)
    a, b = 0.7, 0.05
    polar = np.broadcast_to((a + b * rho)[:, None, None],
                            (n_rho, 6, t_n)).astype(complex).copy()
    out, *_ = logradial_spectrum(polar, cfg)
    xi = np.linspace(np.log(rho[0]), np.log(rho[-1]), n_xi)
    resampled = a + b * np.exp(xi)
    lhs = (np.abs(out) ** 2).sum()
    rhs = n_xi * t_n * t_n * (resampled ** 2).sum()
    assert abs(lhs - rhs) <= 1e-6 * rhs


@settings(max_examples=150, deadline=None)
@given(n_rho=st.integers(2, 24), n_theta=st.integers(4, 33),
       frames_t=st.integers(1, 17), n_xi=st.integers(4, 24),
       kind=st.sampled_from(["hann", "rect"]), seed=st.integers(0, 2 ** 31))
# signed_bins(49) labels three bins 0; m = 0 must be read by position
@example(n_rho=5, n_theta=49, frames_t=6, n_xi=8, kind="hann", seed=3)
def test_make_stack_matches_two_pass_definition(n_rho, n_theta, frames_t,
                                                n_xi, kind, seed):
    """One temporal DFT for both stacks equals the two-pass definition:
    angular harmonics by a theta DFT then a windowed t DFT, log-radial
    harmonics from the angle-averaged profile interpolated onto log radii,
    a DFT over log-radius, then its own windowed t DFT."""
    rng = make_rng(seed)
    shape = (n_rho, n_theta, frames_t)
    polar = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfg = SpectralConfig(window_kind=kind, logradius_bins=n_xi)
    h = temporal_window(frames_t, kind)

    def windowed_time_dft(x):
        return np.fft.fftshift(np.fft.fft(x * h, axis=-1), axes=-1)

    ang = windowed_time_dft(np.fft.fftshift(np.fft.fft(polar, axis=1),
                                            axes=1))
    prof = polar.mean(axis=1)                      # (n_rho, T)
    rho = np.arange(1, n_rho + 1, dtype=np.float64)
    xi = np.linspace(np.log(rho[0]), np.log(rho[-1]), n_xi)
    resampled = np.stack([np.interp(np.exp(xi), rho, col)
                          for col in prof.T], axis=1)  # (n_xi, T)
    rad = windowed_time_dft(np.fft.fftshift(np.fft.fft(resampled, axis=0),
                                            axes=0))

    stack = make_stack(polar, cfg)
    assert stack.ang.shape == ang.shape and stack.rad.shape == rad.shape
    assert np.abs(stack.ang - ang).max() <= 1e-12 * np.abs(ang).max()
    assert np.abs(stack.rad - rad).max() <= 1e-12 * np.abs(rad).max()
    assert np.array_equal(stack.ang_m, signed_bins(n_theta))
    assert np.array_equal(stack.rad_nu, signed_bins(n_xi))
    assert np.array_equal(stack.freq_t, signed_bins(frames_t))
    assert abs(stack.xi_step - (xi[1] - xi[0])) <= 1e-12 * abs(xi[1] - xi[0])


def test_make_stack_rejects_few_angles():
    with pytest.raises(ConfigError):
        make_stack(np.ones((4, 3, 4), dtype=complex), RECT)


def ring_grid(values, size=48):
    return values, signed_bins(size), signed_bins(size)


def test_ring_concentrated_annulus():
    size = 48
    fy, fx = signed_bins(size), signed_bins(size)
    r = np.hypot(fy[:, None], fx[None, :])
    cfg = SpectralConfig()
    rho_max = 23.0
    # all energy inside one ring's radial span (ring 10 of 20)
    lo, hi = 9 * rho_max / 20, 10 * rho_max / 20
    energy = (((r > lo + 0.3) & (r < hi - 0.3)).astype(float))[None]
    energy = np.broadcast_to(energy, (4, size, size)).copy()
    out = ring_energies(*ring_grid(energy), cfg)
    assert np.all(out[9, :] >= 0.95)


def test_ring_uniform_energy_matches_area_oracle():
    size = 64
    fy, fx = signed_bins(size), signed_bins(size)
    r = np.hypot(fy[:, None], fx[None, :])
    cfg = SpectralConfig()
    rho_max = 31.0
    energy = np.ones((2, size, size))
    out = ring_energies(*ring_grid(energy, size), cfg)
    # pixel-count oracle with hard rings
    edges = rho_max * np.arange(21) / 20
    counts = np.array([((r > edges[k]) & (r <= edges[k + 1])).sum()
                       for k in range(20)], dtype=float)
    counts[0] += (r == 0).sum()
    oracle = counts / counts.sum()
    measured = out[:, 0] / out[:, 0].sum()
    # compare rings carrying real mass; soft edges blur the smallest ones
    big = oracle > 0.01
    rel = np.abs(measured[big] - oracle[big]) / oracle[big]
    assert rel.max() <= 0.10


def test_ring_zero_frame_stays_zero():
    size = 32
    energy = np.ones((3, size, size))
    energy[1] = 0.0
    cfg = SpectralConfig()
    out = ring_energies(*ring_grid(energy, size), cfg)
    assert np.all(out[:, 1] == 0.0)
    sums = out.sum(axis=0)
    assert abs(sums[0] - 1.0) <= 1e-6 and abs(sums[2] - 1.0) <= 1e-6


def test_ring_normalization_invariant():
    rng = make_rng(17)
    size = 40
    energy = rng.uniform(0, 1, (5, size, size))
    out = ring_energies(*ring_grid(energy, size), SpectralConfig())
    sums = out.sum(axis=0)
    assert np.all((np.abs(sums - 1.0) <= 1e-6) | (sums == 0.0))
