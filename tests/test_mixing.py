"""Orbital mixing rates and the coupling-strength fit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from nvisc.gridfn import integrate, write_table
from nvisc.mixing import (
    EtaFit,
    MixingParams,
    MixSeries,
    alpha_const,
    extract_eta,
    gamma_mix,
    gamma_mix_one_phonon,
    gamma_mix_spectral,
)
from nvisc.units import K_B, ghz_to_mev, thermal_energy

DXY = ghz_to_mev(3.9)


# ---------------------------------------------------------------------------
# the dimensionless two-phonon integral


def test_alpha_small_splitting_limit():
    # 24 zeta(4) when the splitting is negligible against kT
    assert alpha_const(0.0) == pytest.approx(24.0 * zeta(4), abs=1e-8)
    assert alpha_const(0.0) == pytest.approx(25.975757609067315, abs=1e-9)


def test_alpha_large_splitting_limit():
    # 24 zeta(5): stimulated emission switched off
    assert alpha_const(60.0) == pytest.approx(24.0 * zeta(5), abs=1e-8)
    assert alpha_const(1e6) == pytest.approx(24.886266123440878, abs=1e-8)


def test_alpha_monotone_decreasing():
    xs = [0.0, 0.3, 1.0, 3.0, 10.0]
    vals = [alpha_const(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(24.0 * zeta(5) <= v <= 24.0 * zeta(4) + 1e-9 for v in vals)


def test_alpha_slope_at_zero():
    # d alpha/dx|_0 = -12 (zeta(3) - zeta(4))
    h = 1e-3
    fd = (alpha_const(h) - alpha_const(0.0)) / h
    assert fd == pytest.approx(-1.4368040333814731, rel=5e-3)


@pytest.mark.parametrize("x_delta", [0.0, 1e-9, 1e-4, 0.01, 0.3, 0.999999,
                                     1.0, 1.000001, 2.5, 10.0, 60.0, 800.0])
def test_alpha_closed_form_matches_quadrature(x_delta):
    def bose(y):
        return 1.0 / math.expm1(y) if y < 700.0 else 0.0

    def integrand(x):
        return x**4 * bose(x) * (1.0 + bose(x + x_delta)) if x > 0.0 else 0.0

    ref, _ = quad(integrand, 0.0, math.inf, epsabs=1e-11, epsrel=1e-12, limit=200)
    assert alpha_const(x_delta) == pytest.approx(ref, rel=1e-10)


def test_alpha_rejects_negative():
    with pytest.raises(ValueError):
        alpha_const(-0.1)


# ---------------------------------------------------------------------------
# two-phonon rate


def test_gamma_mix_oracle_5K():
    res = gamma_mix(MixingParams(44.0, DXY, 5.0))
    assert res.value_mhz == pytest.approx(0.06279087659127856, rel=1e-9)


def test_gamma_mix_t5_scaling():
    expected = {2.0: 32.072940, 5.0: 32.031395, 10.0: 32.016114,
                30.0: 32.005470}
    for t, ratio in expected.items():
        got = (gamma_mix(MixingParams(44.0, DXY, 2.0 * t)).value_mhz
               / gamma_mix(MixingParams(44.0, DXY, t)).value_mhz)
        # doubling T multiplies the rate by ~2^5, pushed slightly above 32
        # by the drift of alpha with the splitting-to-kT ratio
        assert got == pytest.approx(ratio, abs=1e-4)
        assert 31.84 <= got <= 32.16


def test_gamma_mix_quadratic_in_eta():
    base = gamma_mix(MixingParams(44.0, DXY, 5.0)).value_mhz
    assert gamma_mix(MixingParams(88.0, DXY, 5.0)).value_mhz == pytest.approx(
        4.0 * base, rel=1e-12)


def test_gamma_mix_band_from_eta_extremes():
    res = gamma_mix(MixingParams(44.0, DXY, 5.0, eta_band_mhz=(41.6, 46.4)))
    assert res.band_mhz[0] == pytest.approx(
        res.value_mhz * (41.6 / 44.0) ** 2, rel=1e-12)
    assert res.band_mhz[1] == pytest.approx(
        res.value_mhz * (46.4 / 44.0) ** 2, rel=1e-12)


def test_gamma_mix_requires_positive_temperature():
    with pytest.raises(ValueError):
        gamma_mix(MixingParams(44.0, DXY, 0.0))


# ---------------------------------------------------------------------------
# spectral decomposition


def test_spectral_integrates_to_closed_form():
    mp = MixingParams(44.0, DXY, 5.0)
    total = integrate(gamma_mix_spectral(mp))
    assert total == pytest.approx(gamma_mix(mp).value_mhz, rel=1e-4)


def test_spectral_peak_near_four_kt():
    mp = MixingParams(44.0, DXY, 5.0)
    spec = gamma_mix_spectral(mp)
    kt = thermal_energy(5.0)
    peak = spec.grid[int(np.argmax(spec.values))]
    assert abs(peak / kt - 3.8336651375219435) < 0.02
    assert abs(peak - 4.0 * kt) < 0.5 * kt


def test_spectral_quadratic_low_end():
    # omega^4 n(omega) [n + 1] ~ (kT)^2 omega^2 for splitting << omega << kT;
    # a small splitting keeps the whole window inside that regime (below the
    # splitting the occupation flattens and the law steepens to omega^3)
    spec = gamma_mix_spectral(MixingParams(44.0, ghz_to_mev(0.05), 5.0))
    om = spec.grid
    lo, hi = 2, 20
    slope = (math.log(spec.values[hi] / spec.values[lo])
             / math.log(om[hi] / om[lo]))
    assert 1.85 < slope < 2.15


def test_spectral_negligible_at_cut():
    spec = gamma_mix_spectral(MixingParams(44.0, DXY, 5.0))
    assert spec.values[-1] < 1e-10 * spec.values.max()


# ---------------------------------------------------------------------------
# one-phonon channel


def test_one_phonon_oracles_18ghz():
    res = gamma_mix_one_phonon(MixingParams(44.0, ghz_to_mev(18.0), 5.0))
    assert res.emission_mhz == pytest.approx(0.4575820138560266, rel=1e-9)
    assert res.absorption_mhz == pytest.approx(0.384976916367946, rel=1e-9)
    assert res.linear_mhz == pytest.approx(0.42023463622735613, rel=1e-9)


def test_one_phonon_net_is_spontaneous():
    # emission - absorption = 4 eta delta^3 independent of T
    d = ghz_to_mev(18.0)
    for t in (2.0, 5.0, 40.0):
        res = gamma_mix_one_phonon(MixingParams(44.0, d, t))
        assert res.emission_mhz - res.absorption_mhz == pytest.approx(
            0.07260509748808057, rel=1e-12)


def test_one_phonon_mean_tracks_linear_form():
    # at x = delta/kT = 0.05 the direction-averaged rate sits within
    # x^2/12 ~ 2e-4 of the linear form, while the emission rate alone is
    # off by x/2 ~ 2.5%
    t = DXY / (0.05 * K_B)
    res = gamma_mix_one_phonon(MixingParams(44.0, DXY, t))
    mean = 0.5 * (res.emission_mhz + res.absorption_mhz)
    assert abs(mean / res.linear_mhz - 1.0) < 1e-3
    assert abs(res.emission_mhz / res.linear_mhz - 1.0) > 0.02


def test_one_phonon_zero_splitting_and_zero_kelvin():
    zero = gamma_mix_one_phonon(MixingParams(44.0, 0.0, 5.0))
    assert zero.emission_mhz == zero.absorption_mhz == zero.linear_mhz == 0.0
    cold = gamma_mix_one_phonon(MixingParams(44.0, DXY, 0.0))
    assert cold.absorption_mhz == 0.0
    assert cold.linear_mhz == 0.0
    assert cold.emission_mhz > 0.0


def test_one_phonon_linear_scales_with_splitting_squared():
    a = gamma_mix_one_phonon(MixingParams(44.0, DXY, 5.0)).linear_mhz
    b = gamma_mix_one_phonon(MixingParams(44.0, 2.0 * DXY, 5.0)).linear_mhz
    assert b == pytest.approx(4.0 * a, rel=1e-12)


# ---------------------------------------------------------------------------
# coupling-strength fit


def synthetic_series(eta=44.0, rel_sigma=0.04, noise=None):
    temps = np.arange(8.0, 41.0, 4.0)
    rates = np.array([gamma_mix(MixingParams(eta, DXY, t)).value_mhz
                      for t in temps])
    sigmas = rel_sigma * rates
    if noise is not None:
        rates = rates + noise * sigmas
    return MixSeries(temps, rates, sigmas)


def test_extract_eta_noiseless_exact():
    fit = extract_eta(synthetic_series(), DXY)
    assert fit.eta_mhz == pytest.approx(44.0, rel=1e-9)


def test_extract_eta_noisy_within_two_sigma():
    rng = np.random.default_rng(20260814)
    series = synthetic_series(noise=rng.standard_normal(9))
    fit = extract_eta(series, DXY)
    assert abs(fit.eta_mhz - 44.0) <= 2.0 * fit.sigma_mhz


def test_extract_eta_scales_with_rate():
    base = synthetic_series()
    quadrupled = MixSeries(base.temperatures_k, 4.0 * base.rates_mhz,
                           base.sigmas_mhz)
    assert extract_eta(quadrupled, DXY).eta_mhz == pytest.approx(
        2.0 * 44.0, rel=1e-9)


def test_extract_eta_rejects_inconsistent_data():
    base = synthetic_series()
    flipped = MixSeries(base.temperatures_k, -base.rates_mhz, base.sigmas_mhz)
    with pytest.raises(ValueError, match="eta"):
        extract_eta(flipped, DXY)
    with pytest.raises(ValueError, match="3 points"):
        extract_eta(MixSeries(np.array([5.0, 10.0]), np.array([0.1, 3.0]),
                              np.array([0.01, 0.1])), DXY)


def test_mix_series_validation():
    with pytest.raises(ValueError, match="equal length"):
        MixSeries(np.array([5.0, 10.0]), np.array([1.0]), np.array([0.1]))
    with pytest.raises(ValueError, match="increasing"):
        MixSeries(np.array([10.0, 5.0, 20.0]), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="sigmas"):
        MixSeries(np.array([5.0, 10.0, 15.0]), np.ones(3), np.zeros(3))


def test_mix_series_csv_roundtrip(tmp_path):
    series = synthetic_series()
    path = tmp_path / "mix.csv"
    write_table(path, (("temperature_K", ".10g"), ("gamma_mix_MHz", ".12g"),
                       ("sigma_MHz", ".12g")),
                zip(series.temperatures_k, series.rates_mhz, series.sigmas_mhz),
                header_comment="synthetic two-phonon rates")
    back = MixSeries.from_csv(path)
    np.testing.assert_allclose(back.temperatures_k, series.temperatures_k)
    np.testing.assert_allclose(back.rates_mhz, series.rates_mhz, rtol=1e-10)
    np.testing.assert_allclose(back.sigmas_mhz, series.sigmas_mhz, rtol=1e-10)
    assert isinstance(extract_eta(back, DXY), EtaFit)


def test_mix_series_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("temperature_K,gamma_mix_MHz,sigma_MHz\n5.0,0.06\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        MixSeries.from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no data"):
        MixSeries.from_csv(empty)
    bad.write_text("temperature_K,gamma_mix_MHz,sigma_MHz\n5.0,0.06,0.01\n"
                   "10.0,abc,0.01\n")
    with pytest.raises(ValueError, match="bad.csv:3: malformed number"):
        MixSeries.from_csv(bad)
