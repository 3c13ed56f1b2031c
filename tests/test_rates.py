"""Crossing rates, activated channel and lifetimes."""

import math

import numpy as np
import pytest

from nvisc.gridfn import GridFunction, integrate
from nvisc.inference import lowT_error_map
from nvisc.psb import PsbModel, thermal_occupation
from nvisc.rates import (
    RATE_STEP,
    HighTempParams,
    LevelSpacings,
    PhononCoupling,
    RateResult,
    SpinOrbitParams,
    _assisted_sweep,
    _lattice_step,
    e12_a1_ratio,
    gamma_a1,
    gamma_e12_finiteT,
    gamma_e12_lowT,
    gamma_e12_spectral,
    gamma_ht,
    isc_average,
    lifetime,
)
from nvisc.units import (
    MEV_TO_MHZ,
    eta_mhz_to_internal,
    rate_mev_to_mhz,
    thermal_energy,
)


def smooth_density(step=0.25, span=200.0):
    # acoustic-band mixture, tapered at both support edges
    xs = np.arange(0.0, span + step / 2, step)
    vals = np.zeros_like(xs)
    for w, c, s in ((0.3, 45.0, 14.0), (0.4, 65.0, 10.0), (0.2, 92.0, 14.0),
                    (0.1, 120.0, 13.0)):
        vals += w * np.exp(-0.5 * ((xs - c) / s) ** 2)
    vals *= 1.0 - np.exp(-((xs / 15.0) ** 2))
    vals *= 1.0 - np.exp(-(((span - xs) / 15.0) ** 2))
    vals[0] = vals[-1] = 0.0
    g = GridFunction(0.0, step, vals)
    return g.scaled(1.0 / integrate(g))


@pytest.fixture(scope="module")
def model():
    return PsbModel.from_one_phonon(smooth_density(), 3.49)


@pytest.fixture(scope="module")
def f0(model):
    return model.calibrated_overlap(0.0)


@pytest.fixture(scope="module")
def f5(model):
    return model.calibrated_overlap(5.0)


@pytest.fixture(scope="module")
def so():
    return SpinOrbitParams.from_ghz(5.33, 1.2, (1.0, 1.4))


@pytest.fixture(scope="module")
def pc():
    return PhononCoupling(44.0, 85.0, (41.6, 46.4))


@pytest.fixture(scope="module")
def ls():
    return LevelSpacings(392.0, 1190.0)


# ---------------------------------------------------------------------------
# direct crossing


def test_gamma_a1_matches_closed_form(so, f0):
    res = gamma_a1(so, f0, 392.0)
    lp = so.lambda_perp
    expected = rate_mev_to_mhz(4.0 * math.pi * lp * lp * f0.sample(392.0))
    assert res.value_mhz == pytest.approx(expected, rel=1e-12)


def test_gamma_a1_band_is_ratio_squared(so, f0):
    res = gamma_a1(so, f0, 392.0)
    assert res.band_mhz[0] == pytest.approx(res.value_mhz * (1.0 / 1.2) ** 2,
                                            rel=1e-12)
    assert res.band_mhz[1] == pytest.approx(res.value_mhz * (1.4 / 1.2) ** 2,
                                            rel=1e-12)


def test_gamma_a1_outside_support(so, f0):
    res = gamma_a1(so, f0, 6000.0)
    assert res.value_mhz == 0.0
    assert res.band_mhz == (0.0, 0.0)
    assert res.note


def test_gamma_a1_quadratic_in_coupling(so, f0):
    doubled = SpinOrbitParams(2.0 * so.lambda_par, so.ratio_perp, so.ratio_band)
    assert gamma_a1(doubled, f0, 392.0).value_mhz == pytest.approx(
        4.0 * gamma_a1(so, f0, 392.0).value_mhz, rel=1e-12)


def test_gamma_a1_rejects_nonpositive_gap(so, f0):
    with pytest.raises(ValueError):
        gamma_a1(so, f0, 0.0)


# ---------------------------------------------------------------------------
# assisted crossing, T = 0


def test_ratio_flag_off_is_infinite_spacing_limit(pc, f0):
    # with the second singlet pushed to infinity the interference weight
    # degenerates to the plain one
    on = e12_a1_ratio(pc, f0, LevelSpacings(392.0, math.inf),
                      include_singlet_path=True)
    off = e12_a1_ratio(pc, f0, LevelSpacings(392.0, 1190.0),
                       include_singlet_path=False)
    assert on == pytest.approx(off, rel=1e-12)


def test_ratio_interference_reduces(pc, f0, ls):
    on = e12_a1_ratio(pc, f0, ls, include_singlet_path=True)
    off = e12_a1_ratio(pc, f0, ls, include_singlet_path=False)
    assert on < off
    assert 0.05 < 1.0 - on / off < 0.25


def test_ratio_undefined_outside_support(pc, f0):
    with pytest.raises(ValueError, match="undefined"):
        e12_a1_ratio(pc, f0, LevelSpacings(6000.0))


def test_lowT_equals_ratio_times_direct(so, pc, f0, ls):
    ratio = e12_a1_ratio(pc, f0, ls)
    assert gamma_e12_lowT(so, pc, f0, ls).value_mhz == pytest.approx(
        ratio * gamma_a1(so, f0, ls.delta).value_mhz, rel=1e-10)


def test_lowT_scales_as_coupling_squared_times_eta(so, pc, f0, ls):
    base = gamma_e12_lowT(so, pc, f0, ls).value_mhz
    doubled_so = SpinOrbitParams(2.0 * so.lambda_par, so.ratio_perp,
                                 so.ratio_band)
    assert gamma_e12_lowT(doubled_so, pc, f0, ls).value_mhz == pytest.approx(
        4.0 * base, rel=1e-12)
    doubled_eta = PhononCoupling(2.0 * pc.eta_mhz, pc.omega_mev,
                                 (2.0 * 41.6, 2.0 * 46.4))
    assert gamma_e12_lowT(so, doubled_eta, f0, ls).value_mhz == pytest.approx(
        2.0 * base, rel=1e-12)


def test_lowT_band_extremes(so, pc, f0, ls):
    res = gamma_e12_lowT(so, pc, f0, ls)
    assert res.band_mhz[0] == pytest.approx(
        res.value_mhz * (1.0 / 1.2) ** 2 * (41.6 / 44.0), rel=1e-12)
    assert res.band_mhz[1] == pytest.approx(
        res.value_mhz * (1.4 / 1.2) ** 2 * (46.4 / 44.0), rel=1e-12)


def test_lowT_monotone_in_cutoff(so, pc, f0, ls):
    vals = [gamma_e12_lowT(so, pc.with_omega(om), f0, ls).value_mhz
            for om in (40.0, 85.0, 130.0)]
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# assisted crossing, finite T


def test_finiteT_zero_kelvin_limit(so, pc, f0, ls):
    cold = gamma_e12_finiteT(so, pc, f0, ls, 0.0).value_mhz
    assert cold == pytest.approx(gamma_e12_lowT(so, pc, f0, ls).value_mhz,
                                 rel=1e-9)


def test_spectral_integrates_to_rate(so, pc, f5, ls):
    spec = gamma_e12_spectral(so, pc, f5, ls, 5.0)
    assert integrate(spec) == pytest.approx(
        gamma_e12_finiteT(so, pc, f5, ls, 5.0).value_mhz, rel=1e-12)


def test_spectral_absorption_frozen_at_zero_kelvin(so, pc, f0, ls):
    spec = gamma_e12_spectral(so, pc, f0, ls, 0.0, branch="absorption")
    assert np.all(spec.values == 0.0)


def test_spectral_branches_sum(so, pc, f5, ls):
    em = gamma_e12_spectral(so, pc, f5, ls, 5.0, branch="emission")
    ab = gamma_e12_spectral(so, pc, f5, ls, 5.0, branch="absorption")
    both = gamma_e12_spectral(so, pc, f5, ls, 5.0, branch="both")
    assert np.allclose(em.values + ab.values, both.values, rtol=1e-12,
                       atol=1e-15)


def test_spectral_emission_dominates_cold(so, pc, f5, ls):
    em = integrate(gamma_e12_spectral(so, pc, f5, ls, 5.0,
                                      branch="emission"))
    ab = integrate(gamma_e12_spectral(so, pc, f5, ls, 5.0,
                                      branch="absorption"))
    assert em > 10.0 * ab


def test_spectral_rejects_unknown_branch(so, pc, f5, ls):
    with pytest.raises(ValueError):
        gamma_e12_spectral(so, pc, f5, ls, 5.0, branch="updown")


def test_finiteT_grows_when_warm(so, pc, model, f0, ls):
    cold = gamma_e12_finiteT(so, pc, f0, ls, 0.0).value_mhz
    warm = gamma_e12_finiteT(so, pc, model.calibrated_overlap(150.0), ls,
                             150.0).value_mhz
    assert warm > cold


# ---------------------------------------------------------------------------
# sweep kernel against the per-node integrals it replaced


def _assisted_integral(f, delta, omega_cut, delta_prime, include_singlet_path,
                       step=RATE_STEP):
    """Reference: the zero-temperature integral of one gap, sampled on its
    own grid (the per-node code before the sweep kernel)."""
    upper = min(delta, omega_cut)
    if upper <= 0:
        return 0.0
    n = max(2, int(math.ceil(upper / step)) + 1)
    om = np.linspace(0.0, upper, n)
    w = om.copy()
    if include_singlet_path and math.isfinite(delta_prime):
        w = om * (1.0 - 2.0 * om / (delta + delta_prime)) ** 2
    vals = w * f.sample(delta - om)
    return float(np.trapezoid(vals, om))


def _spectral_reference(so, pc, psb, ls, temperature_k, step=RATE_STEP,
                        branch="both"):
    """Reference: the finite-T spectral density of one gap, sampled branch
    by branch (the per-node code before the sweep kernel)."""
    f_t = psb.calibrated_overlap(temperature_k)
    upper = pc.omega_mev
    n = max(2, int(math.ceil(upper / step)) + 1)
    om = np.linspace(0.0, upper, n)
    h = om[1] - om[0]
    kt = thermal_energy(temperature_k)
    vals = np.zeros(n)
    if kt > 0.0:
        occ = thermal_occupation(om[1:], temperature_k)
        if branch in ("both", "emission"):
            vals[1:] += om[1:] * (occ + 1.0) * f_t.sample(ls.delta - om[1:])
            vals[0] += kt * f_t.sample(ls.delta)
        if branch in ("both", "absorption"):
            vals[1:] += om[1:] * occ * f_t.sample(ls.delta + om[1:])
            vals[0] += kt * f_t.sample(ls.delta)
    elif branch in ("both", "emission"):
        vals[1:] = om[1:] * f_t.sample(ls.delta - om[1:])
    lp = so.lambda_perp
    coef = 8.0 * lp * lp * pc.eta_internal * MEV_TO_MHZ
    return GridFunction(0.0, h, coef * vals)


def _reference_rates(so, pc, model, ls, temperature_k, axis, grid,
                     include_singlet_path):
    """Per-node cold and warm assisted integrals over a gap or cutoff sweep,
    raising like the per-node gamma_e12_lowT where F(Delta) = 0."""
    f0 = model.calibrated_overlap(0.0)
    lp = so.lambda_perp
    coef = 8.0 * lp * lp * pc.eta_internal * MEV_TO_MHZ
    cold, warm = [], []
    for x in grid:
        if axis == "delta":
            ls_i, pc_i = LevelSpacings(float(x), ls.delta_prime), pc
        else:
            ls_i, pc_i = ls, pc.with_omega(float(x))
        if f0.sample(ls_i.delta) <= 0.0:
            raise ValueError(
                f"F(Delta) = 0 at Delta = {ls_i.delta} meV, where the rate "
                "ratio is undefined; use the finite-T form or a gap inside "
                "the sideband support")
        cold.append(_assisted_integral(f0, ls_i.delta, pc_i.omega_mev,
                                       ls_i.delta_prime, include_singlet_path))
        warm.append(integrate(_spectral_reference(so, pc_i, model, ls_i,
                                                  temperature_k)) / coef)
    return np.array(cold), np.array(warm)


def _kernel_rates(pc, model, ls, temperature_k, axis, grid, step,
                  include_singlet_path):
    f0 = model.calibrated_overlap(0.0)
    f_t = model.calibrated_overlap(temperature_k)
    h = _lattice_step(step)
    dp = ls.delta_prime if include_singlet_path else math.inf
    if axis == "delta":
        cold = _assisted_sweep(f0, grid, np.minimum(grid, pc.omega_mev), 0.0,
                               h, dp)
        warm = _assisted_sweep(f_t, grid, pc.omega_mev, temperature_k, h)
    else:
        cold = _assisted_sweep(f0, ls.delta, np.minimum(grid, ls.delta), 0.0,
                               h, dp)
        warm = _assisted_sweep(f_t, ls.delta, grid, temperature_k, h)
    return cold, warm


# axis, lo, hi, step: both error-map defaults, a gap sweep reaching below
# the 85 meV cutoff, and steps that divide neither 0.5 nor 5 meV
SWEEPS = {
    "delta": ("delta", 300.0, 450.0, 5.0),
    "omega": ("omega", 60.0, 110.0, 5.0),
    "delta-below-cutoff": ("delta", 20.0, 150.0, 5.0),
    "delta-step-0.37": ("delta", 300.0, 340.0, 0.37),
    "omega-step-7.3": ("omega", 60.0, 110.0, 7.3),
}


@pytest.mark.parametrize("singlet_path", [False, True],
                         ids=["plain", "interference"])
@pytest.mark.parametrize("sweep", list(SWEEPS))
@pytest.mark.parametrize("temperature_k", [0.0, 5.0, 48.6, 300.0, 2000.0])
def test_sweep_kernel_matches_per_node_reference(so, pc, model, ls,
                                                 temperature_k, sweep,
                                                 singlet_path):
    axis, lo, hi, step = SWEEPS[sweep]
    grid = lo + step * np.arange(int(math.floor((hi - lo) / step)) + 1)
    cold_ref, warm_ref = _reference_rates(so, pc, model, ls, temperature_k,
                                          axis, grid, singlet_path)
    cold, warm = _kernel_rates(pc, model, ls, temperature_k, axis, grid, step,
                               singlet_path)
    np.testing.assert_allclose(cold, cold_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(warm, warm_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sweep", list(SWEEPS))
@pytest.mark.parametrize("temperature_k", [0.0, 5.0, 300.0])
def test_error_map_matches_per_node_reference(so, pc, model, ls,
                                              temperature_k, sweep):
    axis, lo, hi, step = SWEEPS[sweep]
    errs = lowT_error_map(so, pc, model, ls, temperature_k, axis=axis, lo=lo,
                          hi=hi, step=step)
    cold, warm = _reference_rates(so, pc, model, ls, temperature_k, axis,
                                  errs.grid, False)
    assert errs.size == cold.size
    np.testing.assert_allclose(errs.values, np.abs(warm - cold) / cold,
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("axis", ["delta", "omega"])
def test_error_map_rejects_gap_outside_support_like_reference(so, pc, model,
                                                              ls, axis):
    # the test overlap vanishes above its 4600 meV support
    if axis == "delta":
        ls_out, (lo, hi, step) = ls, (4400.0, 6000.0, 100.0)
    else:
        ls_out, (lo, hi, step) = LevelSpacings(6000.0), (60.0, 110.0, 25.0)
    grid = lo + step * np.arange(int(math.floor((hi - lo) / step)) + 1)
    with pytest.raises(ValueError) as ref:
        _reference_rates(so, pc, model, ls_out, 5.0, axis, grid, False)
    with pytest.raises(ValueError) as new:
        lowT_error_map(so, pc, model, ls_out, 5.0, axis=axis, lo=lo, hi=hi,
                       step=step)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("temperature_k", [0.0, 300.0])
def test_cutoff_off_the_lattice_ends_with_a_partial_cell(model, ls,
                                                         temperature_k):
    # the integrand on the 0.01 meV lattice, linear in between, integrated
    # exactly up to a cutoff 0.4 of a cell past node 8500
    f_t = model.calibrated_overlap(temperature_k)
    h, cut = 0.01, 85.004
    om = h * np.arange(8502)
    em, ab = om.copy(), np.zeros_like(om)
    if temperature_k > 0.0:
        occ = thermal_occupation(om[1:], temperature_k)
        em[1:], ab[1:] = om[1:] * (occ + 1.0), om[1:] * occ
        em[0] = ab[0] = thermal_energy(temperature_k)
    g = em * f_t.sample(ls.delta - om) + ab * f_t.sample(ls.delta + om)
    nodes = np.append(om[:8501], cut)
    exact = np.trapezoid(np.append(g[:8501], np.interp(cut, om, g)), nodes)
    gap_row = _assisted_sweep(f_t, ls.delta, cut, temperature_k, h)
    swept = _assisted_sweep(f_t, ls.delta, [60.0, cut], temperature_k, h)
    assert gap_row[0] == pytest.approx(exact, rel=1e-12)
    assert swept[1] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("singlet_path", [False, True])
@pytest.mark.parametrize("delta", [20.0, 84.995, 392.0, 430.3])
def test_one_row_rates_match_reference(so, pc, model, f0, delta,
                                       singlet_path):
    ls_d = LevelSpacings(delta, 1190.0)
    ref = _assisted_integral(f0, delta, pc.omega_mev, 1190.0, singlet_path)
    fd = f0.sample(delta)
    assert e12_a1_ratio(pc, f0, ls_d, singlet_path) == pytest.approx(
        (2.0 / math.pi) * pc.eta_internal * ref / fd, rel=1e-12)
    lp = so.lambda_perp
    assert gamma_e12_lowT(so, pc, f0, ls_d, singlet_path).value_mhz == \
        pytest.approx(rate_mev_to_mhz(8.0 * lp * lp * pc.eta_internal * ref),
                      rel=1e-12)


@pytest.mark.parametrize("step", [RATE_STEP, 0.037, 1.0])
@pytest.mark.parametrize("branch", ["both", "emission", "absorption"])
@pytest.mark.parametrize("temperature_k", [0.0, 5.0, 300.0])
def test_spectral_matches_reference(so, pc, model, ls, temperature_k, branch,
                                    step):
    f_t = model.calibrated_overlap(temperature_k)
    new = gamma_e12_spectral(so, pc, f_t, ls, temperature_k, step, branch)
    ref = _spectral_reference(so, pc, model, ls, temperature_k, step, branch)
    assert new.step == ref.step and new.size == ref.size
    np.testing.assert_allclose(new.values, ref.values, rtol=1e-12,
                               atol=1e-15 * float(np.max(np.abs(ref.values))))
    if branch == "both":
        assert gamma_e12_finiteT(so, pc, f_t, ls, temperature_k,
                                 step).value_mhz == pytest.approx(
            integrate(ref), rel=1e-12)


# ---------------------------------------------------------------------------
# one band rule against the per-rate closures it replaced


def _a1_closure_band(so, f, delta):
    """Reference: gamma_a1's old band closure, the direct rate at each
    ratio extreme."""
    fval = f.sample(delta)

    def rate(ratio):
        lp = so.lambda_par * ratio
        return rate_mev_to_mhz(4.0 * math.pi * lp * lp * fval)

    return tuple(rate(r) for r in so.ratio_band)


def _lowT_closure_band(so, pc, f, ls, include_singlet_path):
    """Reference: gamma_e12_lowT's old band closure, the assisted rate at
    the (ratio, eta) extremes on the per-node integral."""
    integral = _assisted_integral(f, ls.delta, pc.omega_mev, ls.delta_prime,
                                  include_singlet_path)

    def rate(ratio, eta_mhz):
        lp = so.lambda_par * ratio
        return rate_mev_to_mhz(
            8.0 * lp * lp * eta_mhz_to_internal(eta_mhz) * integral)

    etas = pc.eta_band_mhz if pc.eta_band_mhz else (pc.eta_mhz, pc.eta_mhz)
    return tuple(rate(r, e) for r, e in zip(so.ratio_band, etas))


# each public rate as rate(so, pc, overlap at T, ls, T)
BANDED_RATES = {
    "a1": lambda so, pc, f, ls, t: gamma_a1(so, f, ls.delta),
    "lowT-plain": lambda so, pc, f, ls, t: gamma_e12_lowT(so, pc, f, ls),
    "lowT-interference": lambda so, pc, f, ls, t: gamma_e12_lowT(
        so, pc, f, ls, include_singlet_path=True),
    "finiteT": lambda so, pc, f, ls, t: gamma_e12_finiteT(so, pc, f, ls, t),
}


@pytest.mark.parametrize("eta_band", [(41.6, 46.4), None],
                         ids=["eta-band", "no-eta-band"])
@pytest.mark.parametrize("rate", list(BANDED_RATES))
def test_band_ends_are_the_rate_at_the_extremes(so, model, ls, rate,
                                                eta_band):
    pc = PhononCoupling(44.0, 85.0, eta_band)
    t = 300.0 if rate == "finiteT" else 0.0
    f = model.calibrated_overlap(t)
    band = BANDED_RATES[rate](so, pc, f, ls, t).band_mhz
    etas = eta_band or (pc.eta_mhz, pc.eta_mhz)
    # the rate evaluated directly with its centre moved to each extreme
    ends = tuple(
        BANDED_RATES[rate](SpinOrbitParams(so.lambda_par, r, so.ratio_band),
                           PhononCoupling(e, pc.omega_mev, eta_band),
                           f, ls, t).value_mhz
        for r, e in zip(so.ratio_band, etas))
    assert band == pytest.approx(ends, rel=1e-12)
    if rate == "a1":
        assert band == pytest.approx(_a1_closure_band(so, f, ls.delta),
                                     rel=1e-12)
    elif rate != "finiteT":
        assert band == pytest.approx(
            _lowT_closure_band(so, pc, f, ls, rate == "lowT-interference"),
            rel=1e-12)


# ---------------------------------------------------------------------------
# averaging, activated channel, lifetimes


def test_isc_average_arithmetic():
    res = isc_average(RateResult(16.0, (12.0, 20.0)),
                      RateResult(8.0, (6.0, 10.0)))
    assert res.value_mhz == pytest.approx(8.0, rel=1e-15)
    assert res.band_mhz[0] == pytest.approx(6.0, rel=1e-15)
    assert res.band_mhz[1] == pytest.approx(10.0, rel=1e-15)


def test_gamma_ht_oracle_700K():
    # 5.8e7 * exp(-0.94 eV / kT(700 K)) = 9.90206; times 13.2 MHz
    res = gamma_ht(HighTempParams(5.8e7, 0.94),
                   RateResult(13.2, (12.7, 13.7)), 700.0)
    assert res.value_mhz == pytest.approx(130.70722196034853, rel=1e-9)
    assert res.band_mhz[0] == pytest.approx(res.value_mhz * 12.7 / 13.2,
                                            rel=1e-12)


def test_gamma_ht_monotone_and_frozen_at_zero():
    ht = HighTempParams(5.8e7, 0.94)
    g_rad = RateResult(13.2)
    assert gamma_ht(ht, g_rad, 0.0).value_mhz == 0.0
    assert (gamma_ht(ht, g_rad, 400.0).value_mhz
            < gamma_ht(ht, g_rad, 550.0).value_mhz
            < gamma_ht(ht, g_rad, 700.0).value_mhz)


def test_lifetime_oracles():
    zero = RateResult(0.0)
    assert lifetime(RateResult(13.2), zero, zero, 0.0, "ms0") == pytest.approx(
        12.05719265847692, rel=1e-12)
    assert lifetime(RateResult(13.2), RateResult(8.0), zero, 0.0,
                    "ms1") == pytest.approx(7.507308636410158, rel=1e-12)


def test_lifetime_epsilon_weighting():
    g_rad = RateResult(13.2)
    g_isc = RateResult(8.0)
    g_ht = RateResult(2.0)
    # shelf class ignores epsilon entirely
    assert lifetime(g_rad, g_isc, g_ht, 0.0, "ms0") == lifetime(
        g_rad, g_isc, g_ht, 1.0, "ms0")
    # split pair picks up epsilon * activated rate
    t_half = lifetime(g_rad, g_isc, g_ht, 0.5, "ms1")
    assert t_half == pytest.approx(1e3 / (2.0 * math.pi * (13.2 + 8.0 + 1.0)),
                                   rel=1e-12)
    assert (lifetime(g_rad, g_isc, g_ht, 1.0, "ms1") < t_half
            < lifetime(g_rad, g_isc, g_ht, 0.0, "ms1"))


def test_lifetime_rejects_vanishing_rates_and_bad_class():
    zero = RateResult(0.0)
    with pytest.raises(ValueError, match="vanish"):
        lifetime(zero, zero, zero, 0.0, "ms0")
    with pytest.raises(ValueError, match="spin class"):
        lifetime(RateResult(13.2), zero, zero, 0.0, "ms2")
    with pytest.raises(ValueError, match="epsilon"):
        lifetime(RateResult(13.2), zero, zero, -0.1, "ms1")


# ---------------------------------------------------------------------------
# parameter validation


def test_spin_orbit_validation():
    with pytest.raises(ValueError):
        SpinOrbitParams(-1.0, 1.2, (1.0, 1.4))
    with pytest.raises(ValueError):
        SpinOrbitParams(0.022, 1.5, (1.0, 1.4))


def test_phonon_coupling_validation():
    with pytest.raises(ValueError):
        PhononCoupling(0.0, 85.0)
    with pytest.raises(ValueError):
        PhononCoupling(44.0, -1.0)
    with pytest.raises(ValueError):
        PhononCoupling(44.0, 85.0, (45.0, 46.0))


def test_level_spacings_validation():
    with pytest.raises(ValueError):
        LevelSpacings(0.0)
    with pytest.raises(ValueError):
        LevelSpacings(392.0, -5.0)
    assert LevelSpacings(392.0, math.inf).delta_prime == math.inf


def test_rate_result_validation():
    with pytest.raises(ValueError):
        RateResult(-1.0)
    with pytest.raises(ValueError):
        RateResult(5.0, (6.0, 7.0))
    assert RateResult(5.0, (4.0, 6.0)).band_mhz == (4.0, 6.0)
    collapsed = RateResult(0.0, (0.0, 0.0), "gap outside sideband support")
    assert collapsed.band_mhz == (0.0, 0.0) and collapsed.note


def test_high_temp_params_validation():
    with pytest.raises(ValueError):
        HighTempParams(-1.0, 0.94)
    with pytest.raises(ValueError):
        HighTempParams(5.8e7, 0.0)
