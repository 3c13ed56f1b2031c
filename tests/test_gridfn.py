import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvisc.gridfn import (
    FormatError,
    GridFunction,
    IntervalSet,
    MeasuredBand,
    band_intersections,
    crop,
    integrate,
    read_csv,
    read_table,
    write_csv,
    write_table,
)


def gaussian_grid(mu, sigma, lo, hi, step):
    xs = np.arange(lo, hi + step / 2, step)
    return GridFunction(lo, step, np.exp(-((xs - mu) ** 2) / (2 * sigma**2)))


# ---------------------------------------------------------------- basics


def test_constructor_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(0.0, -0.1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.1, np.array([1.0, np.nan]))
    g = GridFunction(0.0, 0.1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        g.values[0] = 5.0  # frozen samples


def test_grid_geometry():
    g = GridFunction(1.0, 0.5, np.zeros(5))
    assert g.omega_max == pytest.approx(3.0)
    assert np.allclose(g.grid, [1.0, 1.5, 2.0, 2.5, 3.0])


def test_sample_interpolates_and_vanishes_outside():
    g = GridFunction(0.0, 1.0, np.array([0.0, 2.0, 0.0]))
    assert g.sample(0.5) == pytest.approx(1.0)
    assert g.sample(-0.1) == 0.0
    assert g.sample(2.1) == 0.0
    out = g.sample(np.array([0.5, 1.5]))
    assert np.allclose(out, [1.0, 1.0])


# ------------------------------------------------------------- integrate


def test_integrate_gaussian_against_erf():
    mu, sigma = 60.0, 12.0
    g = gaussian_grid(mu, sigma, 0.0, 200.0, 0.02)
    exact = sigma * math.sqrt(2 * math.pi)
    assert integrate(g) == pytest.approx(exact, rel=1e-6)
    # window [mu-sigma, mu+sigma] via the error function
    exact_win = sigma * math.sqrt(2 * math.pi) * math.erf(1 / math.sqrt(2))
    assert integrate(g, mu - sigma, mu + sigma) == pytest.approx(exact_win, rel=1e-6)


def test_integrate_partial_cells_exact_for_linear():
    # f(x) = 3x on [0, 10]: integral over [a, b] is 1.5 (b^2 - a^2) exactly
    xs = np.arange(0.0, 10.0 + 0.5, 0.5)
    g = GridFunction(0.0, 0.5, 3.0 * xs)
    assert integrate(g, 0.3, 7.77) == pytest.approx(1.5 * (7.77**2 - 0.3**2), rel=1e-12)


def test_integrate_empty_window():
    g = GridFunction(0.0, 1.0, np.ones(5))
    assert integrate(g, 3.0, 2.0) == 0.0
    assert integrate(g, 10.0, 20.0) == 0.0


# -------------------------------------------------------------- convolve


def convolve(a: GridFunction, b: GridFunction) -> GridFunction:
    """Reference discrete linear convolution, scaled by the grid step so
    that integrate(convolve(a, b)) == integrate(a) * integrate(b) for
    functions vanishing at their support edges; the output support is the
    sum of the input supports.  The closed-form sideband in nvisc.psb
    replaces the series of these convolutions (see test_psb)."""
    if abs(a.step - b.step) > 1e-9 * a.step:
        raise ValueError(
            f"convolve needs equal grid steps, got {a.step} and {b.step}")
    vals = np.convolve(a.values, b.values) * a.step
    return GridFunction(a.omega_min + b.omega_min, a.step, vals)


def test_convolve_gaussians():
    # N(m1,s1) * N(m2,s2) -> amplitude-weighted gaussian at m1+m2, s^2 summed
    s1, s2 = 5.0, 7.0
    a = gaussian_grid(40.0, s1, 0.0, 80.0, 0.05)
    b = gaussian_grid(30.0, s2, 0.0, 80.0, 0.05)
    c = convolve(a, b)
    s = math.hypot(s1, s2)
    amp = s1 * s2 * 2 * math.pi / (s * math.sqrt(2 * math.pi))
    assert c.omega_min == pytest.approx(0.0)
    assert c.omega_max == pytest.approx(160.0, abs=1e-9)
    xs = np.array([55.0, 70.0, 85.0])
    expect = amp * np.exp(-((xs - 70.0) ** 2) / (2 * s**2))
    assert np.allclose(c.sample(xs), expect, rtol=1e-4)


def test_convolve_integral_factorizes():
    rng = np.random.default_rng(7)
    step = 0.1
    xs = np.arange(0.0, 20.0 + step / 2, step)
    # random smooth bumps that vanish at both support edges
    win = np.sin(np.pi * xs / 20.0) ** 2
    a = GridFunction(0.0, step, win * (1 + 0.5 * np.sin(rng.uniform(0.3, 2.0) * xs)))
    b = GridFunction(0.0, step, win * (1 + 0.5 * np.cos(rng.uniform(0.3, 2.0) * xs)))
    c = convolve(a, b)
    assert integrate(c) == pytest.approx(integrate(a) * integrate(b), rel=1e-9)


def test_convolve_step_mismatch():
    a = GridFunction(0.0, 0.1, np.ones(5))
    b = GridFunction(0.0, 0.2, np.ones(5))
    with pytest.raises(ValueError, match="equal grid steps"):
        convolve(a, b)


def test_convolve_commutes():
    a = GridFunction(0.0, 0.5, np.array([0.0, 1.0, 3.0, 1.0, 0.0]))
    b = GridFunction(1.0, 0.5, np.array([0.0, 2.0, 0.5, 0.0]))
    ab, ba = convolve(a, b), convolve(b, a)
    assert ab.omega_min == pytest.approx(ba.omega_min)
    assert np.allclose(ab.values, ba.values)


def test_convolve_near_delta_identity():
    step = 0.01
    a = gaussian_grid(50.0, 8.0, 0.0, 100.0, step)
    # unit-mass triangle of width 2*step acts as a discrete delta at 0
    d = GridFunction(-step, step, np.array([0.0, 1.0 / step, 0.0]))
    c = convolve(a, d)
    xs = np.arange(10.0, 90.0, 3.7)
    assert np.allclose(c.sample(xs), a.sample(xs), rtol=1e-4, atol=1e-8)


def test_crop_keeps_nodes():
    g = GridFunction(0.0, 1.0, np.arange(11.0))
    c = crop(g, 2.5, 7.5)
    assert c.omega_min == pytest.approx(3.0)
    assert c.omega_max == pytest.approx(7.0)


# ------------------------------------------------------------------ csv


def test_csv_round_trip(tmp_path):
    g = gaussian_grid(60.0, 12.0, 0.0, 120.0, 0.25)
    p = tmp_path / "f.csv"
    write_csv(g, p, header_comment="unit test\nsecond line",
              columns=("omega_meV", "density"))
    assert p.read_text().splitlines()[:3] == [
        "# unit test", "# second line", "omega_meV,density"]
    r = read_csv(p)
    assert r.omega_min == pytest.approx(g.omega_min)
    assert r.step == pytest.approx(g.step, rel=1e-12)
    assert np.allclose(r.values, g.values, rtol=1e-10)


def test_csv_rejects_uneven_grid(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("omega_meV,value\n0.0,1.0\n1.0,1.0\n2.5,1.0\n")
    with pytest.raises(ValueError, match="equally spaced"):
        read_csv(p)


def test_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,1.0\nnot,a,row\n")
    with pytest.raises(ValueError, match="expected"):
        read_csv(p)


def test_table_round_trip_with_multiline_header(tmp_path):
    p = tmp_path / "t.csv"
    rows = [(300.0, "ms0", 0.5, 12.0625), (1e-7, "ms1", 1.0, 7.0)]
    write_table(p, (("temperature_K", ".10g"), ("spin_class", ""),
                    ("epsilon", "g"), ("tau_ns", ".10g")), rows,
                header_comment="first line\nsecond line\n\nafter a blank")
    text = p.read_text()
    assert text.splitlines()[:5] == [
        "# first line", "# second line", "# ", "# after a blank",
        "temperature_K,spin_class,epsilon,tau_ns"]
    temps, classes, eps, taus = read_table(p, 4, text_cols=(1,))
    assert list(temps) == [300.0, 1e-7]
    assert classes == ("ms0", "ms1")
    assert list(eps) == [0.5, 1.0]
    assert list(taus) == [12.0625, 7.0]


@pytest.mark.parametrize("text, message", [
    ("a,b\n", r"t\.csv: no data rows"),
    ("# only comments\n\n", r"t\.csv: no data rows"),
    ("a,b\n1,2\n3\n", r"t\.csv:3: expected 2 comma-separated fields"),
    ("a,b\n1,2\n\n3,x\n", r"t\.csv:4: malformed number for column 2: 'x'"),
    ("1,2\n3,nan\n", r"t\.csv:2: non-finite number for column 2"),
    ("1,2\nx,y\n", r"t\.csv:2: malformed number for column 1"),
])
def test_read_table_errors_cite_line(tmp_path, text, message):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=message):
        read_table(p, 2)


def test_read_table_text_column_and_spaces(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x, label\n 1.5 , a \n2,b\n")
    xs, labels = read_table(p, 2, text_cols=(1,))
    assert list(xs) == [1.5, 2.0]
    assert labels == ("a", "b")


# ------------------------------------------------- intervals and bands


def covers(s: IntervalSet, x: float) -> bool:
    return any(lo <= x <= hi for lo, hi in s)


def test_measured_band_validation():
    MeasuredBand(16.0, 15.0, 17.0)
    with pytest.raises(ValueError):
        MeasuredBand(16.0, 16.5, 17.0)


def test_interval_set_merging():
    s = IntervalSet.from_pairs([(5.0, 7.0), (1.0, 2.0), (6.5, 9.0)])
    assert s.intervals == ((1.0, 2.0), (5.0, 9.0))
    assert covers(s, 8.0)
    assert not covers(s, 3.0)
    assert sum(hi - lo for lo, hi in s) == pytest.approx(5.0)


def test_interval_clip_below():
    s = IntervalSet.from_pairs([(1.0, 2.0), (5.0, 9.0)])
    c = s.clip_below(6.0)
    assert c.intervals == ((6.0, 9.0),)


def test_band_intersections_single_crossing():
    # monotone falling line y = 10 - x crosses band [3, 5] on x in [5, 7]
    xs = np.arange(0.0, 10.5, 0.5)
    y = 10.0 - xs
    lower = GridFunction(0.0, 0.5, y * 0.999)
    upper = GridFunction(0.0, 0.5, y * 1.001)
    hits = band_intersections(lower, upper, MeasuredBand(4.0, 3.0, 5.0))
    assert len(hits) == 1
    lo, hi = hits.intervals[0]
    assert lo == pytest.approx(5.0, abs=0.02)
    assert hi == pytest.approx(7.0, abs=0.02)


def test_band_intersections_double_hump_two_windows():
    # two bumps crossing the band twice -> two disjoint intervals
    step = 0.01
    xs = np.arange(0.0, 10.0 + step / 2, step)
    y = np.exp(-((xs - 3.0) ** 2)) + np.exp(-((xs - 7.0) ** 2))
    lower = GridFunction(0.0, step, y - 0.01)
    upper = GridFunction(0.0, step, y + 0.01)
    hits = band_intersections(lower, upper, MeasuredBand(0.5, 0.45, 0.55))
    assert len(hits) == 4  # each bump crosses the band going up and down
    for lo, hi in hits:
        mid = 0.5 * (lo + hi)
        assert 0.4 < float(np.interp(mid, xs, y)) < 0.6


def test_band_intersections_against_dense_scan():
    rng = np.random.default_rng(3)
    step = 0.05
    xs = np.arange(0.0, 30.0 + step / 2, step)
    y = 2.0 + np.sin(xs) + 0.3 * np.sin(2.7 * xs + 1.0)
    width = 0.05
    lower = GridFunction(0.0, step, y - width)
    upper = GridFunction(0.0, step, y + width)
    band = MeasuredBand(2.4, 2.3, 2.5)
    hits = band_intersections(lower, upper, band)
    # brute force on a 40x finer grid
    fine = np.arange(0.0, 30.0001, step / 40)
    lo_f = np.interp(fine, xs, y - width)
    up_f = np.interp(fine, xs, y + width)
    ok = (lo_f <= band.hi) & (up_f >= band.lo)
    for x, flag in zip(fine, ok):
        if flag:
            assert covers(hits, x) or min(abs(x - e) for p in hits for e in p) < 2e-3
        else:
            assert not covers(hits, x) or min(abs(x - e) for p in hits for e in p) < 2e-3


def test_band_intersections_rejects_crossed_curves():
    xs = np.arange(0.0, 5.5, 0.5)
    lower = GridFunction(0.0, 0.5, np.ones(xs.size))
    upper = GridFunction(0.0, 0.5, np.zeros(xs.size))
    with pytest.raises(ValueError, match="exceeds"):
        band_intersections(lower, upper, MeasuredBand(0.5, 0.4, 0.6))


# ------------------------------------------------------------ properties


@given(
    mu=st.floats(75.0, 125.0),
    sigma=st.floats(2.0, 15.0),
)
def test_property_gaussian_mass(mu, sigma):
    # support covers mu +- 5 sigma so edge clipping is below the tolerance
    g = gaussian_grid(mu, sigma, 0.0, 200.0, 0.05)
    assert integrate(g) == pytest.approx(sigma * math.sqrt(2 * math.pi), rel=1e-4)


@given(
    w1=st.floats(0.5, 3.0),
    w2=st.floats(0.5, 3.0),
    scale=st.floats(0.1, 10.0),
)
def test_property_convolution_mass(w1, w2, scale):
    step = 0.05
    xs = np.arange(0.0, 12.0 + step / 2, step)
    win = np.sin(np.pi * xs / 12.0) ** 2
    a = GridFunction(0.0, step, win * (1 + 0.3 * np.sin(w1 * xs)) * scale)
    b = GridFunction(0.0, step, win * (1 + 0.3 * np.cos(w2 * xs)))
    c = convolve(a, b)
    assert integrate(c) == pytest.approx(integrate(a) * integrate(b), rel=1e-9, abs=1e-12)


@given(lo=st.floats(0.0, 4.0), width=st.floats(0.1, 5.0))
def test_property_integral_additivity(lo, width):
    g = gaussian_grid(5.0, 1.5, 0.0, 10.0, 0.01)
    mid = lo + width / 2
    hi = lo + width
    total = integrate(g, lo, hi)
    split = integrate(g, lo, mid) + integrate(g, mid, hi)
    assert total == pytest.approx(split, rel=1e-10, abs=1e-12)
