"""Top-level acceptance checks, one per shipped-behavior guarantee.

Each test prints a single ``ACCEPTANCE nn PASS|FAIL`` line (visible with
``pytest -s`` or on failure) and asserts the same condition, so the
suite both documents and enforces the guarantees.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import nvisc
from nvisc import inference, mixing, psb, rates
from nvisc.gridfn import GridFunction, MeasuredBand, integrate
from nvisc.inference import LifetimeSeries, fit_mott_seitz, lifetime_curves
from nvisc.mixing import MixingParams, MixSeries
from nvisc.psb import PsbModel, forward_sideband, thermal_one_phonon, thermal_overlap
from nvisc.rates import (
    HighTempParams,
    LevelSpacings,
    PhononCoupling,
    RateResult,
    SpinOrbitParams,
)
from nvisc.units import ghz_to_mev, thermal_energy

DATA = Path(nvisc.__file__).parent / "data"

# acceptance draws use a private stream so they do not perturb the
# session fixture shared by the unit tests
_rng = np.random.default_rng(881640)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"acceptance {num:02d} failed: {desc}"


@pytest.fixture(scope="module")
def model():
    return PsbModel.from_manifest(DATA / "psb_manifest.txt")


@pytest.fixture(scope="module")
def so():
    return SpinOrbitParams.from_ghz(5.33, 1.2, (1.0, 1.4))


@pytest.fixture(scope="module")
def pc():
    return PhononCoupling(44.0, 85.0, (41.6, 46.4))


@pytest.fixture(scope="module")
def ls():
    return LevelSpacings(392.0, 1190.0)


def _smooth_density(weights, centers, sigmas, omega_max=200.0, step=0.25):
    grid = np.arange(0.0, omega_max + step / 2, step)
    vals = np.zeros_like(grid)
    for w, c, s in zip(weights, centers, sigmas):
        vals += w * np.exp(-0.5 * ((grid - c) / s) ** 2)
    vals *= 1.0 - np.exp(-((grid / 10.0) ** 2))
    vals *= 1.0 - np.exp(-(((grid - omega_max) / 10.0) ** 2))
    vals[0] = 0.0
    g = GridFunction(0.0, step, vals)
    return g.scaled(1.0 / integrate(g))


# ---------------------------------------------------------------------------


def test_acceptance_01_two_phonon_coefficient_limits():
    z4 = 24.0 * float(special.zeta(4.0))
    z5 = 24.0 * float(special.zeta(5.0))
    a0 = mixing.alpha_const(0.0)
    a_inf = mixing.alpha_const(60.0)
    ok = (abs(a0 - z4) / z4 < 1e-6) and (abs(a_inf - z5) / z5 < 1e-6)
    _report(1, "two-phonon coefficient limits: alpha(0) = 24 zeta(4) "
               f"[{a0:.8f} vs {z4:.8f}], alpha(inf) = 24 zeta(5) "
               f"[{a_inf:.8f} vs {z5:.8f}], rel tol 1e-6", ok)


def test_acceptance_02_mixing_rate_fifth_power_scaling():
    ratios = []
    for t in (2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0):
        lo = mixing.gamma_mix(MixingParams(44.0, 0.01613, t)).value_mhz
        hi = mixing.gamma_mix(MixingParams(44.0, 0.01613, 2.0 * t)).value_mhz
        ratios.append(hi / lo)
    ok = all(31.84 <= r <= 32.16 for r in ratios)
    _report(2, "doubling T multiplies the two-phonon mixing rate by "
               f"32 +- 0.5% across 2..30 K (ratios {min(ratios):.4f}.."
               f"{max(ratios):.4f})", ok)


def test_acceptance_03_poisson_comb_for_single_mode():
    # unit-mass spike at 64 meV; multi-phonon lines must carry exact
    # Poisson weights
    step = 0.5
    vals = np.zeros(141)
    vals[int(64.0 / step)] = 1.0 / step
    spike = GridFunction(0.0, step, vals)
    s0 = 3.49
    comb = forward_sideband(spike, s0)
    worst = 0.0
    for i in range(1, 16):
        want = math.exp(-s0) * s0 ** i / math.factorial(i)
        got = float(comb.sample(64.0 * i)) * step
        worst = max(worst, abs(got - want))
    ok = worst < 1e-6
    _report(3, "single 64 meV mode at S = 3.49 reproduces Poisson line "
               f"weights e^-S S^i/i! (worst dev {worst:.2e} < 1e-6)", ok)


def test_acceptance_04_detailed_balance_and_mass_identity():
    worst_db, worst_mass = 0.0, 0.0
    for _ in range(10):
        w = _rng.uniform(0.3, 1.0, size=3)
        c = _rng.uniform(35.0, 130.0, size=3)
        s = _rng.uniform(6.0, 16.0, size=3)
        f1 = _smooth_density(w, c, s)
        t = float(_rng.uniform(2.0, 80.0))
        s0 = float(_rng.uniform(0.8, 4.0))
        kt = thermal_energy(t)

        tw = thermal_one_phonon(f1, t)
        om = tw.grid[(tw.grid > 0.4) & (tw.grid < 150.0)][::5]
        lhs = tw.sample(-om)
        rhs = np.exp(-om / kt) * tw.sample(om)
        worst_db = max(worst_db, float(np.max(np.abs(lhs - rhs))))

        m = PsbModel.from_one_phonon(f1, s0)
        overlap = thermal_overlap(m, t)
        st = m.huang_rhys_at(t)
        worst_mass = max(worst_mass,
                         abs(integrate(overlap) - (1.0 - math.exp(-st))))
    ok = worst_db < 1e-10 and worst_mass < 1e-6
    _report(4, "10 random densities/temperatures: detailed balance "
               f"F1(-w) = e^(-w/kT) F1(w) (worst {worst_db:.2e} < 1e-10) "
               f"and overlap mass = 1 - e^-S(T) (worst {worst_mass:.2e} "
               "< 1e-6)", ok)


def test_acceptance_05_limits_and_deconvolution_round_trip(model, pc, ls):
    f0 = model.calibrated_overlap(0.0)
    ls_plain = LevelSpacings(ls.delta, math.inf)
    plain = rates.e12_a1_ratio(pc, f0, ls_plain)
    far = rates.e12_a1_ratio(pc, f0, LevelSpacings(ls.delta, 1e15))
    dev_flag = abs(far - plain)

    so_mid = SpinOrbitParams.from_ghz(5.33, 1.2, (1.0, 1.4))
    cold = rates.gamma_e12_lowT(so_mid, pc, f0, ls_plain).value_mhz
    frozen = rates.gamma_e12_finiteT(so_mid, pc, f0, ls, 0.0).value_mhz
    dev_t = abs(frozen - cold) / cold

    synth = PsbModel.from_manifest(DATA / "psb_synthetic_manifest.txt")
    resid = synth.roundtrip_residual()

    ok = dev_flag < 1e-12 and dev_t < 1e-9 and resid <= 1e-4
    _report(5, "interference weight -> plain weight as the upper gap "
               f"diverges ({dev_flag:.2e} < 1e-12); finite-T rate -> "
               f"frozen-lattice rate at T = 0 ({dev_t:.2e} < 1e-9); "
               f"deconvolve/reconvolve round trip on the synthetic table "
               f"(L1 {resid:.2e} <= 1e-4)", ok)


def test_acceptance_06_frozen_lattice_error_small_at_5K(model, so, ls):
    worst = 0.0
    for omega in (74.0, 85.0, 93.0):
        pc_o = PhononCoupling(44.0, omega)
        errs = inference.lowT_error_map(so, pc_o, model, ls, 5.0,
                                        axis="delta", lo=344.0, hi=430.0,
                                        step=2.0)
        worst = max(worst, float(np.max(errs.values)))
    for delta in (344.0, 392.0, 430.0):
        ls_d = LevelSpacings(delta, 1190.0)
        errs = inference.lowT_error_map(so, PhononCoupling(44.0, 85.0),
                                        model, ls_d, 5.0, axis="omega",
                                        lo=74.0, hi=93.0, step=1.0)
        worst = max(worst, float(np.max(errs.values)))
    ok = worst < 0.01
    _report(6, "frozen-lattice approximation at 5 K stays below 1% over "
               f"gaps 344..430 meV and cutoffs 74..93 meV (worst "
               f"{worst:.2e})", ok)


def test_acceptance_07_one_phonon_mixing_magnitude():
    mp = MixingParams(44.0, ghz_to_mev(18.0), 5.0)
    one = mixing.gamma_mix_one_phonon(mp)
    got = 0.5 * (one.emission_mhz + one.absorption_mhz)
    ok = abs(got - 0.5) <= 0.25 * 0.5
    _report(7, "one-phonon mixing at an 18 GHz splitting, 5 K: mean of "
               f"emission/absorption = {got:.4f} MHz within 25% of "
               "0.5 MHz", ok)


def test_acceptance_08_reference_lifetimes():
    zero = RateResult(0.0)
    tau0 = rates.lifetime(RateResult(13.2), zero, zero, 0.0, "ms0")
    tau1 = rates.lifetime(RateResult(13.2), RateResult(8.0), zero, 0.0,
                          "ms1")
    ok = abs(tau0 - 12.0) <= 0.5 and abs(tau1 - 7.51) <= 0.3
    _report(8, f"13.2 MHz radiative rate gives tau(ms0) = {tau0:.3f} ns "
               "(12.0 +- 0.5); adding an 8 MHz crossing rate gives "
               f"tau(ms1) = {tau1:.3f} ns (7.51 +- 0.3)", ok)


def test_acceptance_09_parameter_recovery():
    rng = np.random.default_rng(9)
    # coupling strength from a T^5 mixing series
    dxy = ghz_to_mev(3.9)
    temps = np.arange(8.0, 41.0, 4.0)
    exact = np.array([mixing.gamma_mix(MixingParams(44.0, dxy, t)).value_mhz
                      for t in temps])
    sigmas = 0.04 * exact
    clean = MixSeries(temps, exact, sigmas)
    fit0 = mixing.extract_eta(clean, dxy)
    noisy = MixSeries(temps, exact + rng.normal(0.0, sigmas), sigmas)
    fit1 = mixing.extract_eta(noisy, dxy)
    eta_ok = (abs(fit0.eta_mhz - 44.0) < 1e-9 * 44.0
              and abs(fit1.eta_mhz - 44.0) <= 2.0 * fit1.sigma_mhz)

    # quenching parameters from a lifetime series
    s_true, de_true, nu0 = 5.8e7, 0.94, 13.2
    temps_t = np.linspace(300.0, 700.0, 17)
    taus = inference._ms_tau(nu0, s_true, de_true, temps_t)
    sig_t = np.full_like(taus, 0.05)
    g_rad = RateResult(nu0)
    classes = ("ms0",) * len(temps_t)
    fit2 = fit_mott_seitz(LifetimeSeries(temps_t, taus, sig_t, classes),
                          g_rad)
    noisy_taus = np.clip(taus + rng.normal(0.0, sig_t), 0.05, None)
    fit3 = fit_mott_seitz(
        LifetimeSeries(temps_t, noisy_taus, sig_t, classes), g_rad)
    ms_ok = (abs(fit2.delta_e_ev - de_true) < 1e-6 * de_true
             and abs(fit2.s - s_true) < 1e-4 * s_true
             and abs(fit3.delta_e_ev - de_true) <= 2.0 * fit3.sigma_delta_e_ev
             and abs(fit3.s - s_true) <= 2.0 * fit3.sigma_s)

    ok = eta_ok and ms_ok
    _report(9, "noiseless fits are exact and noisy fits recover the truth "
               f"within 2 sigma: eta = {fit1.eta_mhz:.2f} +- "
               f"{fit1.sigma_mhz:.2f} (true 44); activation "
               f"{fit3.delta_e_ev:.3f} +- {fit3.sigma_delta_e_ev:.3f} eV "
               f"(true 0.94), prefactor {fit3.s:.3g} +- {fit3.sigma_s:.2g} "
               "(true 5.8e7)", ok)


def test_acceptance_10_gap_interval_from_direct_rate(model, so):
    f0 = model.calibrated_overlap(0.0)
    target = MeasuredBand(16.0, 15.4, 16.6)
    raw = inference.infer_delta(so, f0, target, exclusion_floor=0.0)
    post = raw.clip_below(148.0)

    low = [iv for iv in raw if iv[1] < 148.0]
    low_ok = any(lo <= 43.0 <= hi for lo, hi in low)
    main_ok = (len(post) == 1
               and abs(post.intervals[0][0] - 344.0) <= 25.0
               and abs(post.intervals[0][1] - 430.0) <= 25.0)
    removed_ok = not any(lo <= 43.0 <= hi for lo, hi in post)
    ok = low_ok and main_ok and removed_ok
    desc = ("measured direct rate selects a gap interval "
            + (f"[{post.intervals[0][0]:.1f}, {post.intervals[0][1]:.1f}] "
               if len(post) == 1 else "(none) ")
            + "matching [344, 430] meV within +-25, and the spurious "
              "low-gap solution near 43 meV is removed by the 148 meV "
              "exclusion")
    _report(10, desc, ok)


def test_acceptance_11_cutoff_interval_from_rate_ratio(model, so, pc, ls):
    found = inference.infer_omega(so, pc, model, ls,
                                  MeasuredBand(0.50, 0.45, 0.55))
    ok = False
    desc = "rate ratio 0.50 +- 0.05 selects no cutoff interval"
    if len(found) >= 1:
        lo = found.intervals[0][0]
        hi = found.intervals[-1][1]
        overlap = lo <= 93.0 and hi >= 74.0
        ok = overlap and abs(lo - 74.0) <= 10.0 and abs(hi - 93.0) <= 10.0
        desc = (f"rate ratio 0.50 +- 0.05 selects cutoffs [{lo:.1f}, "
                f"{hi:.1f}] meV, overlapping [74, 93] with endpoints "
                "within +-10")
    _report(11, desc, ok)


def test_acceptance_12_interference_correction_size(model, pc, ls):
    f0 = model.calibrated_overlap(0.0)
    plain = rates.e12_a1_ratio(pc, f0, LevelSpacings(ls.delta, math.inf))
    corr = rates.e12_a1_ratio(pc, f0, ls)
    drop = 1.0 - corr / plain
    ok = abs(drop - 0.15) <= 0.05
    _report(12, "interference between crossing paths lowers the assisted "
                f"rate by {100 * drop:.1f}% at (392, 85) meV "
                "(15% +- 5 points)", ok)


def test_acceptance_13_rate_sensitivity_to_gap(model, so, pc, ls):
    sens = inference.isc_sensitivity(so, pc, model, ls)
    ok = 0.05 <= sens <= 0.25
    _report(13, "averaged crossing rate grows by "
                f"{sens:.3f} MHz per meV of gap reduction at 392 meV "
                "(inside [0.05, 0.25])", ok)


def test_acceptance_14_quenching_curve_matches_shipped_table(model, so, pc,
                                                             ls):
    table = LifetimeSeries.from_csv(DATA / "high_temperature_lifetimes.csv")
    g_rad = RateResult(13.2, (12.7, 13.7))
    fit = fit_mott_seitz(table, g_rad)
    curves = lifetime_curves(so, pc, model, ls, g_rad, fit.params,
                             table.temperatures_k, epsilons=(0.0,))
    taus = np.array([tau for _, cls, _, tau in curves.rows() if cls == "ms0"])
    pulls = np.abs(taus - np.asarray(table.taus_ns)) / np.asarray(
        table.sigmas_ns)
    worst = float(np.max(pulls))
    ok = worst <= 1.0
    _report(14, "lifetime curve with the fitted quenching parameters "
                f"(activation {fit.delta_e_ev:.3f} eV, prefactor "
                f"{fit.s:.0f}) passes through all shelf-class error bars "
                f"300..700 K (worst pull {worst:.2f} sigma)", ok)
