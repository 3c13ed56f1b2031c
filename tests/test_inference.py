"""Inverse analyses: gap intervals, cutoff bracketing, limit-error maps,
quenching fits, lifetime tables and the gap sensitivity."""

import math
import types
from pathlib import Path

import numpy as np
import pytest

from nvisc.gridfn import GridFunction, IntervalSet, MeasuredBand, integrate, write_table
from nvisc.inference import (
    LifetimeCurves,
    LifetimeSeries,
    asymptotic_ratio,
    fit_mott_seitz,
    infer_delta,
    infer_omega,
    isc_sensitivity,
    lifetime_curves,
    lowT_error_map,
    low_delta_exclusion,
)
from nvisc.psb import PsbModel, forward_sideband
from nvisc.rates import (
    HighTempParams,
    LevelSpacings,
    PhononCoupling,
    RateResult,
    SpinOrbitParams,
    e12_a1_ratio,
    gamma_a1,
    gamma_e12_finiteT,
    gamma_ht,
    isc_average,
    lifetime,
)
from nvisc.units import thermal_energy

DATA = Path(__file__).resolve().parents[1] / "src" / "nvisc" / "data"


def density(weights, centers, sigmas, step=0.5, span=200.0, onset=15.0):
    xs = np.arange(0.0, span + step / 2, step)
    vals = np.zeros_like(xs)
    for w, c, s in zip(weights, centers, sigmas):
        vals += w * np.exp(-0.5 * ((xs - c) / s) ** 2)
    vals *= 1.0 - np.exp(-((xs / onset) ** 2))
    vals *= 1.0 - np.exp(-(((span - xs) / onset) ** 2))
    vals[0] = vals[-1] = 0.0
    g = GridFunction(0.0, step, vals)
    return g.scaled(1.0 / integrate(g))


@pytest.fixture(scope="module")
def model():
    f1 = density((0.3, 0.45, 0.25), (46.0, 64.0, 95.0), (12.0, 10.0, 14.0))
    return PsbModel.from_one_phonon(f1, 3.49)


@pytest.fixture(scope="module")
def f0(model):
    return model.calibrated_overlap(0.0)


@pytest.fixture(scope="module")
def so():
    return SpinOrbitParams.from_ghz(5.33, 1.2, (1.0, 1.4))


@pytest.fixture(scope="module")
def pc():
    return PhononCoupling(44.0, 85.0, (41.6, 46.4))


# ---------------------------------------------------------------------------
# gap intervals


def test_infer_delta_round_trip_random(rng, so):
    # feeding the exact predicted rate back as a zero-width band must
    # return the generating gap wherever the curve is locally monotone;
    # a single-mode, S = 1 overlap keeps the flanks steep enough that
    # most draws clear the monotonicity filter
    steep = PsbModel.from_one_phonon(
        density((1.0,), (60.0,), (12.0,)), 1.0).calibrated_overlap(0.0)
    so_pt = SpinOrbitParams(so.lambda_par, 1.2, (1.2, 1.2))
    checked = 0
    for _ in range(50):
        delta = float(rng.uniform(35.0, 150.0))
        slope = (steep.sample(delta + 1.5) - steep.sample(delta - 1.5)) / 3.0
        if abs(slope) < 0.01 * steep.sample(delta):
            continue
        rate = gamma_a1(so_pt, steep, delta).value_mhz
        found = infer_delta(so_pt, steep, MeasuredBand(rate, rate, rate),
                            exclusion_floor=0.0)
        assert not found.is_empty
        if not any(lo <= delta <= hi for lo, hi in found):
            gap = min(min(abs(delta - a), abs(delta - b)) for a, b in found)
            assert gap <= 1.0
        checked += 1
    assert checked >= 30


def test_infer_delta_two_regions_and_exclusion(so, f0):
    # a level cutting a single hump twice gives a rising and a falling
    # interval; the floor drops everything below it
    peak = float(np.max(f0.sample(np.arange(40.0, 200.0, 0.5))))
    so_pt = SpinOrbitParams(so.lambda_par, 1.2, (1.2, 1.2))
    level = gamma_a1(so_pt, f0, 64.0).value_mhz * 0.9
    band = MeasuredBand(level, level * 0.98, level * 1.02)
    raw = infer_delta(so_pt, f0, band, exclusion_floor=0.0)
    assert len(raw) >= 2
    cut = infer_delta(so_pt, f0, band, exclusion_floor=120.0)
    assert len(cut) < len(raw)
    assert all(lo >= 120.0 for lo, _ in cut)
    assert peak > 0  # hump actually present


def test_infer_delta_unreachable_target(so, f0):
    out = infer_delta(so, f0, MeasuredBand(1e7, 1e7 - 1.0, 1e7 + 1.0))
    assert out.is_empty


# ---------------------------------------------------------------------------
# cutoff inference


def test_infer_omega_round_trip_random(rng, so, pc, model, f0):
    ls = LevelSpacings(392.0, 1190.0)
    for _ in range(50):
        delta = float(rng.uniform(250.0, 430.0))
        omega0 = float(rng.uniform(30.0, 120.0))
        r0 = e12_a1_ratio(pc.with_omega(omega0), f0,
                          LevelSpacings(delta, ls.delta_prime),
                          include_singlet_path=True)
        found = infer_omega(so, pc, model, ls, MeasuredBand(r0, r0, r0),
                            deltas=[delta])
        assert len(found) == 1
        (lo, hi), = found
        assert hi - lo <= 0.5
        assert abs(0.5 * (lo + hi) - omega0) <= 0.5


def test_infer_omega_band_wider_than_point(so, pc, model):
    ls = LevelSpacings(392.0, 1190.0)
    narrow = infer_omega(so, pc, model, ls, MeasuredBand(0.5, 0.49, 0.51),
                         deltas=[392.0])
    wide = infer_omega(so, pc, model, ls, MeasuredBand(0.5, 0.42, 0.58),
                       deltas=[392.0])
    (nlo, nhi), = narrow
    (wlo, whi), = wide
    assert wlo < nlo < nhi < whi


def test_infer_omega_unreachable_reports_empty(so, pc, model, f0):
    ls = LevelSpacings(392.0, 1190.0)
    ceiling = asymptotic_ratio(pc, f0, ls)
    target = MeasuredBand(2.0 * ceiling, 1.9 * ceiling, 2.1 * ceiling)
    assert infer_omega(so, pc, model, ls, target, deltas=[392.0],
                       omega_max=392.0).is_empty


def test_asymptotic_ratio_bounds_cutoff_ratios(pc, f0):
    ls = LevelSpacings(392.0, 1190.0)
    ceiling = asymptotic_ratio(pc, f0, ls)
    for om in (40.0, 85.0, 150.0, 392.0):
        r = e12_a1_ratio(pc.with_omega(om), f0, ls, include_singlet_path=True)
        assert r <= ceiling + 1e-12


def test_low_delta_exclusion_scan(pc, f0):
    out = low_delta_exclusion(pc, f0)
    assert out >= 0.0
    assert out == pytest.approx(
        max(asymptotic_ratio(pc, f0, LevelSpacings(d, 1190.0))
            for d in np.arange(24.0, 148.5, 2.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# low-temperature-limit error


def test_error_map_nonnegative_and_vanishes_cold(so, pc, model):
    ls = LevelSpacings(392.0, 1190.0)
    cold = lowT_error_map(so, pc, model, ls, 0.1, axis="delta",
                          lo=344.0, hi=430.0, step=10.0)
    assert np.all(cold.values >= 0.0)
    assert float(np.max(cold.values)) < 1e-4


def test_error_map_small_at_5K_grows_at_small_gaps(so, pc, model):
    ls = LevelSpacings(392.0, 1190.0)
    errs = lowT_error_map(so, pc, model, ls, 5.0, axis="delta",
                          lo=60.0, hi=400.0, step=20.0)
    assert errs.sample(400.0) < 0.01
    # deviation grows monotonically as the gap shrinks toward thermal scales
    low = errs.values[errs.grid <= 100.0]
    assert np.all(np.diff(low) < 0.0)
    assert errs.sample(60.0) > errs.sample(100.0) > errs.sample(200.0)


def test_error_map_omega_axis(so, pc, model):
    ls = LevelSpacings(392.0, 1190.0)
    errs = lowT_error_map(so, pc, model, ls, 5.0, axis="omega",
                          lo=74.0, hi=93.0, step=9.5)
    assert np.all(errs.values >= 0.0)
    assert float(np.max(errs.values)) < 0.01
    with pytest.raises(ValueError):
        lowT_error_map(so, pc, model, ls, 5.0, axis="gap")


# ---------------------------------------------------------------------------
# quenching fit


def make_lifetimes(s, delta_e_ev, nu0=13.2, noise=None, sigma_ns=0.25):
    temps = np.linspace(295.0, 700.0, 18)
    kt_ev = np.array([thermal_energy(t) for t in temps]) * 1e-3
    taus = 1e3 / (2.0 * math.pi * nu0 * (1.0 + s * np.exp(-delta_e_ev / kt_ev)))
    sig = np.full_like(temps, sigma_ns)
    if noise is not None:
        taus = taus + noise * sig
    return LifetimeSeries(temps, taus, sig, ("ms0",) * temps.size)


def test_fit_mott_seitz_noiseless_exact():
    data = make_lifetimes(5.8e7, 0.94)
    fit = fit_mott_seitz(data, RateResult(13.2), tau0_ns=12.0)
    assert fit.delta_e_ev == pytest.approx(0.94, rel=1e-6)
    assert fit.s == pytest.approx(5.8e7, rel=1e-4)
    model_taus = 1e3 / (2.0 * math.pi * fit.nu0_mhz * (
        1.0 + fit.s * np.exp(-fit.delta_e_ev / (
            np.array([thermal_energy(t) for t in data.temperatures_k]) * 1e-3))))
    resid = (model_taus - data.taus_ns) / data.sigmas_ns
    assert abs(float(np.mean(resid))) < 1e-6


def test_fit_mott_seitz_noisy_within_two_sigma(rng):
    noise = rng.standard_normal(18)
    data = make_lifetimes(5.8e7, 0.94, noise=noise, sigma_ns=0.2)
    fit = fit_mott_seitz(data, RateResult(13.2), tau0_ns=12.0)
    assert abs(fit.delta_e_ev - 0.94) <= 2.0 * fit.sigma_delta_e_ev
    assert abs(fit.s - 5.8e7) <= 2.0 * fit.sigma_s


def test_fit_mott_seitz_is_a_minimum():
    # on the shipped series, moving either parameter off the fit by 1e-6
    # (ln s, or deltaE in eV) does not lower chi^2
    data = LifetimeSeries.from_csv(DATA / "high_temperature_lifetimes.csv").select("ms0")
    fit = fit_mott_seitz(data, RateResult(13.2), tau0_ns=12.0)
    kt_ev = np.array([thermal_energy(t) for t in data.temperatures_k]) * 1e-3

    def chi2(ln_s, de):
        taus = 1e3 / (2.0 * math.pi * 13.2 * (1.0 + math.exp(ln_s) * np.exp(-de / kt_ev)))
        return float(np.sum(((taus - data.taus_ns) / data.sigmas_ns) ** 2))

    ln_s, de = math.log(fit.s), fit.delta_e_ev
    best = chi2(ln_s, de)
    assert math.sqrt(best / len(data)) == pytest.approx(fit.residual_rms, rel=1e-9)
    for d_ln_s, d_de in ((1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)):
        assert best <= chi2(ln_s + d_ln_s, de + d_de)


def test_fit_mott_seitz_flat_data_unidentifiable():
    temps = np.linspace(295.0, 700.0, 10)
    taus = np.full(10, 12.057)
    data = LifetimeSeries(temps, taus, np.full(10, 0.3), ("ms0",) * 10)
    with pytest.raises(ValueError, match="unidentifiable"):
        fit_mott_seitz(data, RateResult(13.2), tau0_ns=12.0)


def test_fit_mott_seitz_filters_spin_class():
    base = make_lifetimes(5.8e7, 0.94)
    mixed = LifetimeSeries(
        np.concatenate([base.temperatures_k, [400.0]]),
        np.concatenate([base.taus_ns, [7.4]]),
        np.concatenate([base.sigmas_ns, [0.3]]),
        base.spin_classes + ("ms1",))
    fit = fit_mott_seitz(mixed, RateResult(13.2), tau0_ns=12.0)
    assert fit.n_points == 18
    assert fit.delta_e_ev == pytest.approx(0.94, rel=1e-6)


# ---------------------------------------------------------------------------
# lifetime series container


def test_lifetime_series_csv_round_trip(tmp_path):
    data = make_lifetimes(5.8e7, 0.94)
    path = tmp_path / "taus.csv"
    write_table(path, (("temperature_K", ".10g"), ("tau_ns", ".12g"),
                       ("sigma_ns", ".12g"), ("spin_class", "")),
                zip(data.temperatures_k, data.taus_ns, data.sigmas_ns,
                    data.spin_classes),
                header_comment="synthetic quenching curve")
    back = LifetimeSeries.from_csv(path)
    np.testing.assert_allclose(back.taus_ns, data.taus_ns, rtol=1e-10)
    assert back.spin_classes == data.spin_classes


def test_lifetime_series_validation(tmp_path):
    with pytest.raises(ValueError, match="spin class"):
        LifetimeSeries(np.array([300.0]), np.array([12.0]),
                       np.array([0.3]), ("ms2",))
    with pytest.raises(ValueError, match="equal length"):
        LifetimeSeries(np.array([300.0, 400.0]), np.array([12.0]),
                       np.array([0.3]), ("ms0",))
    bad = tmp_path / "bad.csv"
    bad.write_text("temperature_K,tau_ns,sigma_ns,spin_class\n300,12,0.3\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        LifetimeSeries.from_csv(bad)
    bad.write_text("temperature_K,tau_ns,sigma_ns,spin_class\n300,12,0.3,ms0\n"
                   "\n400,9.x,0.3,ms0\n")
    with pytest.raises(ValueError, match="bad.csv:4: malformed number"):
        LifetimeSeries.from_csv(bad)


# ---------------------------------------------------------------------------
# lifetime curves


def test_lifetime_curves_composition(so, pc, model):
    ls = LevelSpacings(150.0, 1190.0)
    g_rad = RateResult(13.2)
    ht = HighTempParams(2000.0, 0.48)
    curves = lifetime_curves(so, pc, model, ls, g_rad, ht,
                             temperatures=(300.0, 500.0, 700.0),
                             epsilons=(0.0, 1.0))
    assert len(curves) == 3 * 2 * 2
    # spot check one row against the hand-composed stack
    t, eps, cls = 500.0, 1.0, "ms1"
    f_t = model.calibrated_overlap(t)
    g_isc = isc_average(gamma_a1(so, f_t, ls.delta),
                        gamma_e12_finiteT(so, pc, f_t, ls, t))
    want = lifetime(g_rad, g_isc, gamma_ht(ht, g_rad, t), eps, cls)
    got = [tau for tt, cc, ee, tau in curves.rows()
           if tt == t and cc == cls and ee == eps]
    assert got == [pytest.approx(want, rel=1e-12)]


def test_lifetime_curves_one_overlap_lookup_per_temperature(so, pc, model,
                                                          monkeypatch):
    lookups = []
    lookup = PsbModel.calibrated_overlap

    def counted(self, temperature_k=0.0):
        lookups.append(temperature_k)
        return lookup(self, temperature_k)

    monkeypatch.setattr(PsbModel, "calibrated_overlap", counted)
    temps = (0.0, 300.0, 500.0, 700.0)
    lifetime_curves(so, pc, model, LevelSpacings(150.0, 1190.0),
                    RateResult(13.2), HighTempParams(2000.0, 0.48), temps)
    assert lookups == list(temps)


def test_lifetime_curves_monotone_and_epsilon_order(so, pc, model):
    ls = LevelSpacings(150.0, 1190.0)
    g_rad = RateResult(13.2)
    ht = HighTempParams(2000.0, 0.48)
    temps = np.linspace(300.0, 700.0, 9)
    curves = lifetime_curves(so, pc, model, ls, g_rad, ht, temps,
                             epsilons=(0.0, 1.0))
    def split_pair(eps):
        return np.array([tau for _, cls, e, tau in curves.rows()
                         if cls == "ms1" and e == eps])

    for eps in (0.0, 1.0):
        assert np.all(np.diff(split_pair(eps)) < 0.0)
    flat, coupled = split_pair(0.0), split_pair(1.0)
    # the activated channel only touches the split pair through epsilon;
    # its 300 K value is ~2e-4 MHz, hence the loose low-end tolerance
    assert np.all(coupled[-3:] < flat[-3:])
    assert coupled[0] == pytest.approx(flat[0], rel=1e-4)


# ---------------------------------------------------------------------------
# gap sensitivity


def test_sensitivity_flat_overlap_flag_off(so, pc):
    flat = GridFunction(0.0, 1.0, np.full(1001, 3.0e-3))
    fake = types.SimpleNamespace(calibrated_overlap=lambda t=0.0: flat)
    sens = isc_sensitivity(so, pc, fake, LevelSpacings(500.0, 1190.0),
                           include_singlet_path=False)
    assert abs(sens) < 1e-12


def test_sensitivity_step_halving_stable(so, pc, model):
    ls = LevelSpacings(160.0, 1190.0)
    full = isc_sensitivity(so, pc, model, ls, h=2.0)
    half = isc_sensitivity(so, pc, model, ls, h=1.0)
    assert full != 0.0
    assert abs(half - full) < 0.01 * abs(full)


def test_sensitivity_support_edge_error(so, pc, model, f0):
    with pytest.raises(ValueError, match="edge"):
        isc_sensitivity(so, pc, model,
                        LevelSpacings(f0.omega_max - 0.5, 1190.0))


def test_sensitivity_sign_convention(so, pc, model, f0):
    # pick the steepest falling flank of the overlap (multi-phonon humps
    # make gentler stretches locally non-monotone) and check the sign:
    # rate grows as the gap shrinks -> positive
    grid = np.arange(120.0, 352.0, 4.0)
    drop = f0.sample(grid - 2.0) - f0.sample(grid + 2.0)
    fall = float(grid[int(np.argmax(drop))])
    sens = isc_sensitivity(so, pc, model, LevelSpacings(fall, 1190.0))
    assert sens > 0.0
