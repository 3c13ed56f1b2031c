import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvisc
from nvisc.gridfn import GridFunction, integrate, read_csv
from nvisc.psb import (
    MAX_SIDEBAND_NODES,
    TAIL_EPS,
    DeconvolutionError,
    PsbModel,
    _fft_length,
    _marching_solve,
    extract_one_phonon,
    forward_sideband,
    huang_rhys,
    thermal_occupation,
    thermal_one_phonon,
    thermal_overlap,
)
from nvisc.units import K_B
from test_gridfn import convolve

DATA = Path(nvisc.__file__).parent / "data"


def spike(omega0, step=0.25, span=200.0):
    """Unit-mass one-cell triangle at omega0 on [0, span]."""
    xs = np.arange(0.0, span + step / 2, step)
    vals = np.zeros(xs.size)
    i = int(round(omega0 / step))
    vals[i] = 1.0 / step
    return GridFunction(0.0, step, vals)


def smooth_density(centers, widths, weights, step=0.25, span=200.0,
                   onset=15.0):
    """Non-negative mixture with a quadratic onset, unit mass.

    Tapered to zero at both support edges so that discrete convolution
    mass factorization is exact (trapezoid = plain sum there).
    """
    xs = np.arange(0.0, span + step / 2, step)
    vals = np.zeros(xs.size)
    for c, w, a in zip(centers, widths, weights):
        vals += a * np.exp(-((xs - c) ** 2) / (2 * w * w))
    vals *= 1.0 - np.exp(-((xs / onset) ** 2))
    vals *= 1.0 - np.exp(-(((span - xs) / onset) ** 2))
    vals[0] = 0.0
    vals[-1] = 0.0
    g = GridFunction(0.0, step, vals)
    return g.scaled(1.0 / integrate(g))


# ------------------------------------------------------- occupation


def test_occupation_zero_temperature():
    assert thermal_occupation(10.0, 0.0) == 0.0
    assert np.all(thermal_occupation(np.array([1.0, 5.0]), 0.0) == 0.0)


def test_occupation_analytic_point():
    t = 77.0
    assert thermal_occupation(K_B * t, t) == pytest.approx(1 / (math.e - 1), rel=1e-12)


def test_occupation_quoted_thermal_energy():
    # 5 K corresponds to 0.43 meV; at omega = k_B T the occupation is 1/(e-1)
    assert thermal_occupation(0.43089, 5.0) == pytest.approx(1 / (math.e - 1), abs=1e-4)
    assert thermal_occupation(0.43089, 5.0) == pytest.approx(0.5819268156, rel=1e-8)


def test_occupation_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 5.0)
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 5.0)


def test_occupation_no_overflow():
    # omega/kT ~ 2.3e4: occupation is numerically 0, not an overflow
    assert thermal_occupation(1000.0, 0.5) == 0.0


# ------------------------------------------------- thermal one-phonon


def test_thermal_one_phonon_zero_t_identity():
    f = smooth_density([64], [9], [1.0])
    f1 = thermal_one_phonon(f, 0.0)
    assert f1 is f


def test_detailed_balance():
    f = smooth_density([44, 64], [10, 9], [0.4, 0.6])
    t = 120.0
    f1 = thermal_one_phonon(f, t)
    kt = K_B * t
    for om in (5.0, 17.5, 64.0, 101.25):
        em = f1.sample(om)
        ab = f1.sample(-om)
        assert ab == pytest.approx(em * math.exp(-om / kt), abs=1e-10 * max(1.0, em))


def test_thermal_one_phonon_mass_oracle():
    f = smooth_density([50, 90], [12, 15], [0.5, 0.5])
    t = 250.0
    f1 = thermal_one_phonon(f, t)
    # direct quadrature of (2n+1) f on the positive axis
    om = f.grid[1:]
    n = 1.0 / np.expm1(om / (K_B * t))
    expect = np.trapezoid(
        np.concatenate([[0.0], (2 * n + 1) * f.values[1:]]), dx=f.step)
    assert integrate(f1) == pytest.approx(expect, rel=1e-12)


def test_thermal_one_phonon_rejects_nonzero_origin():
    f = smooth_density([64], [9], [1.0])
    bad = GridFunction(0.0, f.step, np.where(f.grid == 0.0, 0.1, f.values))
    with pytest.raises(ValueError, match="f\\(0\\)"):
        thermal_one_phonon(bad, 10.0)


# ------------------------------------------------------- huang-rhys


def test_huang_rhys_zero_t():
    f = smooth_density([64], [9], [1.0])
    assert huang_rhys(f, 3.49, 0.0, 200.0) == pytest.approx(3.49, rel=1e-9)


def test_huang_rhys_cap_restricts():
    f = smooth_density([64], [9], [1.0])
    s_half = huang_rhys(f, 3.49, 0.0, 64.0)
    assert s_half == pytest.approx(3.49 * integrate(f, 0.0, 64.0), rel=1e-12)
    assert s_half < 3.49


def test_huang_rhys_single_mode_occupation_one():
    # T tuned so n(omega0) = 1: S = (2n+1) S0 = 3 S0
    omega0 = 64.0
    t = omega0 / (K_B * math.log(2.0))
    f = spike(omega0)
    s = huang_rhys(f, 3.49, t, 200.0)
    assert s == pytest.approx(3 * 3.49, rel=2e-3)


# -------------------------------------------------- forward sideband


def test_forward_sideband_poisson_comb():
    s0 = 3.49
    omega0 = 64.0
    comb = forward_sideband(spike(omega0), s0)
    for i in range(1, 7):
        w = integrate(comb, i * omega0 - 30.0, i * omega0 + 30.0)
        expect = math.exp(-s0) * s0**i / math.factorial(i)
        assert w == pytest.approx(expect, abs=1e-6)


def test_forward_sideband_mass():
    f = smooth_density([44, 64, 90], [10, 9, 13], [0.3, 0.5, 0.2])
    for s0 in (0.0, 0.3, 1.0, 3.49):
        fb = forward_sideband(f, s0)
        assert integrate(fb) == pytest.approx(1 - math.exp(-s0), rel=1e-9)


def poisson_terms(s):
    """Term count of the wide references: the weight of the Poisson terms
    beyond max(20, ceil(s + 10 sqrt(s))) is below 1e-9 for any s."""
    return max(20, math.ceil(s + 10.0 * math.sqrt(s)))


def convolution_series(f1, s):
    """Reference: explicit Poisson-weighted loop of discrete convolutions
    on the window [i_max a, i_max b] of the first i_max = poisson_terms(s)
    terms.  Terms up to 2 i_max are kept (cropped to the window), so the
    truncation tail does not mask a difference."""
    i_max = poisson_terms(s)
    h = f1.step
    final_min = i_max * f1.omega_min
    acc = np.zeros((f1.size - 1) * i_max + 1)
    g = f1
    for i in range(1, 2 * i_max + 1):
        if i > 1:
            g = convolve(g, f1)
        off = round((g.omega_min - final_min) / h)
        weight = math.exp(-s) * s**i / math.factorial(i)
        lo, hi = max(off, 0), min(off + g.size, acc.size)
        if hi > lo:
            acc[lo:hi] += weight * g.values[lo - off: hi - off]
    return GridFunction(final_min, h, acc)


def wide_closed_form(f1, s):
    """Reference: the closed form on the window [i_max a, i_max b] of the
    first i_max = poisson_terms(s) terms, with an FFT long enough that only
    the terms beyond i_max can alias into it."""
    i_max = poisson_terms(s)
    h = f1.step
    ka = round(f1.omega_min / h)
    span = (f1.size - 1) * i_max + 1
    n = _fft_length(span)
    ring = np.zeros(n)
    ring[(ka + np.arange(f1.size)) % n] = h * f1.values
    spec = np.expm1(s * (np.fft.rfft(ring) - 1.0)) - math.expm1(-s)
    full = np.fft.irfft(spec, n) / h
    return GridFunction(i_max * ka * h, h, full[(i_max * ka + np.arange(span)) % n])


def window_of(got, ref):
    """Values of the wider reference ``ref`` on the nodes of ``got``, and
    the mass of ``ref`` outside them."""
    assert got.step == ref.step
    off = round((got.omega_min - ref.omega_min) / ref.step)
    assert 0 <= off and off + got.size <= ref.size
    inside = ref.values[off:off + got.size]
    return inside, ref.step * (np.sum(ref.values) - np.sum(inside))


@pytest.mark.parametrize("temperature_k", [0.0, 300.0])
def test_closed_form_matches_convolution_series(temperature_k):
    f = smooth_density([18, 26], [3, 4], [0.6, 0.4], step=0.5, span=40.0,
                       onset=5.0)
    f1 = thermal_one_phonon(f, temperature_k)
    f1 = f1.scaled(1.0 / integrate(f1))
    s = 3.49
    ref = convolution_series(f1, s)
    got = forward_sideband(f1, s)
    inside, outside = window_of(got, ref)
    assert np.max(np.abs(got.values - inside)) <= 1e-12 * np.max(ref.values)
    assert outside <= 2 * TAIL_EPS


@pytest.mark.parametrize("temperature_k", [0.0, 300.0])
@pytest.mark.parametrize("s", [1e-3, 0.5, 3.49, 20.0, 100.0, 400.0])
def test_tail_window_over_phonon_counts(s, temperature_k):
    f1 = thermal_one_phonon(smooth_density([44, 64], [10, 9], [0.4, 0.6],
                                           step=0.5), temperature_k)
    f1 = f1.scaled(1.0 / integrate(f1))
    got = forward_sideband(f1, s)
    assert integrate(got) == pytest.approx(-math.expm1(-s), rel=1e-12)
    ref = wide_closed_form(f1, s)
    inside, _ = window_of(got, ref)
    assert np.max(np.abs(got.values - inside)) <= 1e-12 * np.max(ref.values)


def test_fft_length_is_smallest_smooth():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 3000):
        m = _fft_length(n)
        assert m >= n and smooth(m)
        assert not any(smooth(k) for k in range(n, m))


# ----------------------------------------------------- deconvolution


def test_extract_single_mode():
    s0 = 3.49
    f_true = spike(64.0, step=0.5)
    f0 = forward_sideband(f_true, s0)
    f = extract_one_phonon(f0, s0, tol=1e-7)
    err = np.trapezoid(np.abs(f.sample(f_true.grid) - f_true.values),
                       dx=f_true.step)
    assert err < 1e-6


def test_extract_two_gaussian_roundtrip():
    s0 = 3.49
    f_true = smooth_density([47, 70], [8, 11], [0.45, 0.55], step=0.5)
    f0 = forward_sideband(f_true, s0)
    f = extract_one_phonon(f0, s0, tol=1e-6)
    err = np.trapezoid(np.abs(f.sample(f_true.grid) - f_true.values),
                       dx=f_true.step)
    assert err < 1e-4
    # round trip through the forward map
    rec = forward_sideband(f, s0)
    rt = np.trapezoid(np.abs(rec.sample(f0.grid) - f0.values), dx=f0.step)
    assert rt < 1e-4


def test_extract_amplitude_free():
    # the table's overall calibration must not affect the recovered shape
    s0 = 3.49
    f_true = smooth_density([47, 70], [8, 11], [0.45, 0.55], step=0.5)
    f0 = forward_sideband(f_true, s0)
    f_a = extract_one_phonon(f0, s0, tol=1e-6)
    f_b = extract_one_phonon(f0.scaled(2 * math.pi), s0, tol=1e-6)
    assert np.allclose(f_a.values, f_b.values, atol=1e-12)


def test_extract_small_s0_first_order():
    s0 = 0.01
    f_true = smooth_density([60], [10], [1.0], step=0.5)
    f0 = forward_sideband(f_true, s0)
    f = extract_one_phonon(f0, s0, tol=1e-9)
    # first-order dominance: f ~ e^{s0} F0 / s0 on the one-phonon window,
    # up to the O(s0/2) two-phonon content of F0 itself
    approx = f0.values[: f.size] * math.exp(s0) / s0
    assert np.trapezoid(np.abs(f.values - approx), dx=0.5) < s0
    err = np.trapezoid(np.abs(f.sample(f_true.grid) - f_true.values), dx=0.5)
    assert err < 1e-6


def test_extract_nonconvergence_error():
    # a table that no non-negative one-phonon density can reproduce: carve
    # a dip into the two-phonon region so the series overshoots there
    s0 = 3.49
    f0 = forward_sideband(smooth_density([47, 70], [8, 11], [0.45, 0.55],
                                         step=0.5), s0)
    vals = f0.values.copy()
    sel = (f0.grid > 100.0) & (f0.grid < 140.0)
    vals[sel] *= 0.4
    dipped = type(f0)(f0.omega_min, f0.step, vals)
    with pytest.raises(DeconvolutionError) as ei:
        extract_one_phonon(dipped, s0, tol=1e-6)
    assert ei.value.residual > 1e-6


@pytest.mark.parametrize("noise", [3e-5, 1e-4])
def test_noisy_table_reports_first_residual(noise):
    # relative noise the marching solve cannot absorb: the error carries the
    # residual of the solve itself, which an iterative polish would have
    # driven up by orders of magnitude before giving up
    table = read_csv(DATA / "psb_low_temperature.csv")
    rng = np.random.default_rng(11)
    noisy = GridFunction(table.omega_min, table.step, table.values * (
        1.0 + noise * rng.standard_normal(table.size)))
    with pytest.raises(DeconvolutionError) as ei:
        PsbModel.from_overlap(noisy, 3.49)
    assert 1e-5 <= ei.value.residual < 1e-4


@pytest.mark.parametrize("noise", [3e-5, 1e-4])
def test_verifier_residual_is_the_roundtrip_residual(noise):
    # the verifier samples the forward series on the table grid, as
    # roundtrip_residual does for a loaded model
    table = read_csv(DATA / "psb_low_temperature.csv")
    rng = np.random.default_rng(11)
    noisy = GridFunction(table.omega_min, table.step, table.values * (
        1.0 + noise * rng.standard_normal(table.size)))
    with pytest.raises(DeconvolutionError) as ei:
        PsbModel.from_overlap(noisy, 3.49)
    loaded = PsbModel.from_overlap(noisy, 3.49, tol=1.0)
    assert ei.value.residual == pytest.approx(loaded.roundtrip_residual(),
                                              rel=1e-9)


def _term_by_term_march(target, h, s0, n_cap, i_max):
    """Reference: the series f[k] = (target[k] - sum_{i>=2} w_i F_i[k]) / w_1
    marched node by node with one convolution value per Poisson term,
    F_i = F_{i-1} (x) f, w_i = e^{-s0} s0^i / i!.  Returns the clipped
    density and the number of nodes where the clip acted."""
    log_s = math.log(s0)
    w = [math.exp(-s0 + i * log_s - math.lgamma(i + 1.0))
         for i in range(1, i_max + 1)]
    f = np.zeros(n_cap)
    conv = np.zeros((i_max + 1, n_cap))  # conv[i] = f^{(x) i}, conv[1] = f
    clipped = 0
    for k in range(1, n_cap):
        higher = 0.0
        for i in range(2, i_max + 1):
            c = h * float(np.dot(conv[i - 1, 1:k], f[k - 1:0:-1]))
            conv[i, k] = c
            higher += w[i - 1] * c
        val = (target[k] - higher) / w[0]
        clipped += val < 0.0
        f[k] = max(val, 0.0)
        conv[1, k] = f[k]
    return f, clipped


def _march_both(table, s0):
    """New and reference march on ``table`` as extract_one_phonon sets it up."""
    h = table.step
    target = table.values * ((1.0 - math.exp(-s0)) / integrate(table))
    n_cap = min(table.size, int(math.floor(200.0 / h + 1e-9)) + 1)
    ref, clipped = _term_by_term_march(target, h, s0, n_cap, poisson_terms(s0))
    return _marching_solve(target, h, s0, n_cap), ref, clipped


def test_recurrence_matches_term_by_term_on_noisy_table():
    table = read_csv(DATA / "psb_low_temperature.csv")
    rng = np.random.default_rng(11)
    noisy = GridFunction(table.omega_min, table.step, table.values * (
        1.0 + 1e-4 * rng.standard_normal(table.size)))
    got, ref, _ = _march_both(noisy, 3.49)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_recurrence_clips_like_term_by_term():
    # a dip in the two-phonon region drives the unclipped solve negative
    s0 = 3.49
    f0 = forward_sideband(smooth_density([47, 70], [8, 11], [0.45, 0.55],
                                         step=0.5), s0)
    vals = f0.values.copy()
    vals[(f0.grid > 100.0) & (f0.grid < 140.0)] *= 0.4
    got, ref, clipped = _march_both(GridFunction(0.0, f0.step, vals), s0)
    assert clipped > 0
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(
    s0=st.floats(0.3, 8.0),
    c1=st.floats(25.0, 90.0),
    c2=st.floats(95.0, 160.0),
    a=st.floats(0.2, 0.8),
)
def test_property_extract_inverts_forward(s0, c1, c2, a):
    f_true = smooth_density([c1, c2], [8.0, 12.0], [a, 1.0 - a], step=0.5)
    f = extract_one_phonon(forward_sideband(f_true, s0), s0)
    assert f.size == f_true.size
    assert np.trapezoid(np.abs(f.values - f_true.values), dx=0.5) <= 1e-10


def test_extract_rejects_overflowing_s0():
    table = smooth_density([60], [10], [1.0], step=0.5)
    with pytest.raises(ValueError, match="s0 = 760"):
        extract_one_phonon(table, 760.0)


# --------------------------------------------------- thermal overlap


def model_from(centers, widths, weights, s0=3.49, step=0.25):
    f = smooth_density(centers, widths, weights, step=step)
    return PsbModel.from_one_phonon(f, s0)


def test_overlap_normalization_random(rng):
    for _ in range(10):
        k = rng.integers(2, 4)
        centers = rng.uniform(30, 130, size=k)
        widths = rng.uniform(6, 18, size=k)
        weights = rng.uniform(0.2, 1.0, size=k)
        s0 = rng.uniform(0.5, 4.5)
        t = float(rng.uniform(0.0, 600.0))
        m = model_from(centers, widths, weights, s0=s0, step=0.5)
        ft = thermal_overlap(m, t)
        s_t = m.huang_rhys_at(t)
        assert integrate(ft) == pytest.approx(1 - math.exp(-s_t), abs=1e-6)


def test_overlap_zero_t_matches_forward():
    m = model_from([44, 64, 90], [10, 9, 13], [0.3, 0.5, 0.2])
    ft = thermal_overlap(m, 0.0)
    fwd = forward_sideband(m.f1, m.s0)
    assert ft.omega_min == fwd.omega_min
    assert np.allclose(ft.values, fwd.values, atol=1e-15)


def test_overlap_broadens_and_flattens():
    m = model_from([44, 64, 90], [10, 9, 13], [0.3, 0.5, 0.2])
    cold = thermal_overlap(m, 0.0)
    hot = thermal_overlap(m, 300.0)
    assert hot.values.max() < cold.values.max()
    assert hot.sample(-15.0) > 0.0
    assert cold.sample(-15.0) == 0.0


def test_overlap_second_moment_monotone():
    m = model_from([44, 64], [10, 9], [0.4, 0.6], step=0.5)

    def second_moment(g):
        mass = integrate(g)
        mean = np.trapezoid(g.grid * g.values, dx=g.step) / mass
        return np.trapezoid((g.grid - mean) ** 2 * g.values, dx=g.step) / mass

    temps = [0.0, 100.0, 200.0, 300.0, 450.0]
    moments = [second_moment(thermal_overlap(m, t)) for t in temps]
    assert all(b >= a - 1e-9 for a, b in zip(moments, moments[1:]))


@pytest.mark.parametrize("temperature_k", [0.0, 5.0, 300.0, 700.0, 2000.0])
def test_overlap_mass_is_poisson_complement(temperature_k):
    m = model_from([44, 64], [10, 9], [0.4, 0.6], step=0.5)
    s_t = m.huang_rhys_at(temperature_k)
    mass = integrate(thermal_overlap(m, temperature_k))
    assert mass == pytest.approx(-math.expm1(-s_t), rel=1e-12)


@pytest.mark.parametrize("temperature_k", [5.0, 300.0, 2000.0])
def test_overlap_nonnegative(temperature_k):
    m = model_from([44, 64], [10, 9], [0.4, 0.6], step=0.5)
    assert np.all(thermal_overlap(m, temperature_k).values >= 0.0)


def test_overlap_beyond_work_limit_raises():
    # the shipped model's window is about 6.7M nodes wide at 1e9 K
    m = PsbModel.from_manifest(DATA / "psb_manifest.txt")
    with pytest.raises(ArithmeticError,
                       match=rf"S = [0-9.e+]+ .*work limit of {MAX_SIDEBAND_NODES} nodes"):
        thermal_overlap(m, 1e9)


# ------------------------------------------------------------ model


def test_model_scale_recovered_from_raw_table():
    f = smooth_density([47, 70], [8, 11], [0.45, 0.55], step=0.5)
    base = PsbModel.from_one_phonon(f, 3.49)
    raw = base.f0.scaled(2 * math.pi)  # table in a different amplitude convention
    m = PsbModel.from_overlap(raw, 3.49, tol=1e-6)
    assert m.scale == pytest.approx(2 * math.pi, rel=1e-9)
    assert integrate(m.f0) == pytest.approx(1 - math.exp(-3.49), rel=1e-9)
    cal = m.calibrated_overlap(0.0)
    assert integrate(cal) == pytest.approx(2 * math.pi * (1 - math.exp(-3.49)),
                                           rel=1e-6)


def test_model_roundtrip_residual_small():
    f = smooth_density([47, 70], [8, 11], [0.45, 0.55], step=0.5)
    m = PsbModel.from_one_phonon(f, 3.49)
    assert m.roundtrip_residual() < 1e-9


def test_model_validation():
    f = smooth_density([64], [9], [1.0], step=0.5)
    m = PsbModel.from_one_phonon(f, 3.49)
    with pytest.raises(ValueError, match="mass"):
        PsbModel(m.f0, m.f1.scaled(1.5), 3.49, 200.0)
    with pytest.raises(ValueError):
        PsbModel(m.f0, m.f1, -1.0, 200.0)


def test_manifest_loading(tmp_path):
    from nvisc.gridfn import write_csv

    f = smooth_density([47, 70], [8, 11], [0.45, 0.55], step=0.5)
    base = PsbModel.from_one_phonon(f, 3.49)
    write_csv(base.f0.scaled(2.0), tmp_path / "f0.csv")
    (tmp_path / "m.txt").write_text(
        "# test manifest\nf0_csv = f0.csv\ns0 = 3.49\nomega_mev = 200\n")
    m = PsbModel.from_manifest(tmp_path / "m.txt")
    assert m.s0 == 3.49
    assert m.omega_mev == 200.0
    assert m.scale == pytest.approx(2.0 / (1 - math.exp(-3.49)) * integrate(base.f0),
                                    rel=1e-9)


def test_manifest_errors(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("s0 = 3.49\n")
    with pytest.raises(ValueError, match="missing"):
        PsbModel.from_manifest(p)
    p.write_text("f0_csv = x.csv\ns0 = 3.49\nomega_mev = 200\nbogus = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        PsbModel.from_manifest(p)
    p.write_text("f0_csv = x.csv\ns0 = 3.49\nomega_mev = 200\ns0 = 3.5\n")
    with pytest.raises(ValueError, match=r"m\.txt:4: duplicate key 's0'"):
        PsbModel.from_manifest(p)
    for bad in ("nan", "inf"):
        p.write_text(f"f0_csv = x.csv\n# cap\nomega_mev = 200\ns0 = {bad}\n")
        with pytest.raises(ValueError, match=r"m\.txt:4: non-finite number for 's0'"):
            PsbModel.from_manifest(p)
    p.write_text("f0_csv = x.csv\ns0 = 3.49\nomega_mev = 2OO\n")
    with pytest.raises(ValueError, match=r"m\.txt:3: malformed number for 'omega_mev'"):
        PsbModel.from_manifest(p)
    p.write_text("f0_csv = x.csv\ns0 3.49\n")
    with pytest.raises(ValueError, match=r"m\.txt:2: expected key = value"):
        PsbModel.from_manifest(p)


# ------------------------------------------------------- properties


@settings(max_examples=20)
@given(
    c=st.floats(35.0, 110.0),
    w=st.floats(6.0, 16.0),
    t=st.floats(1.0, 500.0),
)
def test_property_detailed_balance(c, w, t):
    f = smooth_density([c], [w], [1.0], step=0.5)
    f1 = thermal_one_phonon(f, t)
    kt = K_B * t
    om = np.array([10.0, 40.0, 75.0])
    lhs = f1.sample(-om)
    rhs = f1.sample(om) * np.exp(-om / kt)
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=15)
@given(
    s0=st.floats(0.3, 4.5),
    t=st.floats(0.0, 500.0),
)
def test_property_overlap_mass(s0, t):
    m = model_from([50, 85], [9, 14], [0.6, 0.4], s0=s0, step=0.5)
    ft = thermal_overlap(m, t)
    s_t = m.huang_rhys_at(t)
    assert integrate(ft) == pytest.approx(1 - math.exp(-s_t), abs=1e-6)
