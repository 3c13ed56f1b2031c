"""Inverse analyses on top of the rate models.

Four questions are answered here: which gap energies are consistent
with the measured direct-crossing rate (interval intersection of the
predicted confidence band with the measured band); which acoustic
cutoff makes the assisted-to-direct ratio match its measured value
(monotone bracketing in the cutoff); how large the error of the
zero-temperature rate formula is at finite temperature; and what
activation parameters fit the high-temperature lifetime quenching
(Levenberg-Marquardt least squares on a Mott-Seitz model).  A small forward
composition producing lifetime-vs-temperature tables and a finite
difference sensitivity of the averaged crossing rate round it out.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .gridfn import GridFunction, IntervalSet, MeasuredBand, band_intersections, read_table
from .psb import PsbModel, check_grid
from .rates import (
    HighTempParams,
    LevelSpacings,
    PhononCoupling,
    RateResult,
    SpinOrbitParams,
    _assisted_sweep,
    _band,
    _direct_coef,
    _lattice_step,
    _require_overlap,
    gamma_a1,
    gamma_e12_finiteT,
    gamma_e12_lowT,
    gamma_ht,
    isc_average,
    lifetime,
)
from .units import thermal_energy

__all__ = [
    "LifetimeSeries",
    "LifetimeCurves",
    "MottSeitzFit",
    "infer_delta",
    "infer_omega",
    "asymptotic_ratio",
    "low_delta_exclusion",
    "lowT_error_map",
    "fit_mott_seitz",
    "lifetime_curves",
    "isc_sensitivity",
]

# default gap sweep for interval inference (meV)
DELTA_SWEEP = (20.0, 600.0, 1.0)
# default gap range the cutoff inference averages over (meV)
DELTA_RANGE = (344.0, 430.0)
OMEGA_GRID_STEP = 0.25
# largest cutoff infer_omega scans (meV)
OMEGA_MAX = 150.0
MOTT_SEITZ_MAX_ITER = 200  # fit iteration cap; typical series converge in < 30


# ---------------------------------------------------------------------------
# measured lifetime tables


@dataclasses.dataclass(frozen=True)
class LifetimeSeries:
    """Measured lifetimes vs temperature with 1-sigma errors, tagged by
    spin class ("ms0" or "ms1")."""

    temperatures_k: np.ndarray
    taus_ns: np.ndarray
    sigmas_ns: np.ndarray
    spin_classes: tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.temperatures_k, dtype=float)
        v = np.asarray(self.taus_ns, dtype=float)
        s = np.asarray(self.sigmas_ns, dtype=float)
        cls = tuple(self.spin_classes)
        if not (t.size == v.size == s.size == len(cls)):
            raise ValueError("series columns must have equal length")
        if np.any(t <= 0) or np.any(v <= 0) or np.any(s <= 0):
            raise ValueError("temperatures, lifetimes and sigmas must be > 0")
        if any(c not in ("ms0", "ms1") for c in cls):
            raise ValueError("spin class must be ms0 or ms1")
        for name, arr in (("temperatures_k", t), ("taus_ns", v),
                          ("sigmas_ns", s)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "spin_classes", cls)

    def __len__(self) -> int:
        return self.temperatures_k.size

    def select(self, spin_class: str) -> "LifetimeSeries":
        """The rows of one spin class in ascending temperature order."""
        keep = [i for i in np.argsort(self.temperatures_k, kind="stable")
                if self.spin_classes[i] == spin_class]
        if not keep:
            raise ValueError(f"no {spin_class} rows in series")
        return LifetimeSeries(self.temperatures_k[keep], self.taus_ns[keep],
                              self.sigmas_ns[keep],
                              tuple(self.spin_classes[i] for i in keep))

    @classmethod
    def from_csv(cls, path) -> "LifetimeSeries":
        """Read "temperature_K,tau_ns,sigma_ns,spin_class" rows."""
        return cls(*read_table(path, 4, text_cols=(3,)))


# ---------------------------------------------------------------------------
# gap interval from the direct-crossing rate


def infer_delta(so: SpinOrbitParams, f: GridFunction, target: MeasuredBand,
                exclusion_floor: float = 148.0,
                sweep: tuple[float, float, float] = DELTA_SWEEP) -> IntervalSet:
    """Gap intervals where the predicted direct-rate band meets the
    measured band; content below ``exclusion_floor`` is dropped
    afterwards (the floor comes from the independent ratio analysis, so
    it acts as a pure post-filter here)."""
    lo, hi, step = sweep
    lo = max(lo, f.omega_min)
    hi = min(hi, f.omega_max)
    check_grid((hi - lo) / step + 1, f"a gap sweep in {step:g} meV steps")
    n = int(math.floor((hi - lo) / step)) + 1
    if n < 2:
        return IntervalSet.empty()
    vals = f.sample(lo + step * np.arange(n))
    lower, upper = (GridFunction(lo, step, c * vals)
                    for c in _band(_direct_coef(so), so))
    return band_intersections(lower, upper, target).clip_below(exclusion_floor)


# ---------------------------------------------------------------------------
# acoustic cutoff from the rate ratio


def _cumulative_ratio(pc_eta_internal: float, f: GridFunction, delta: float,
                      delta_prime: float, omega_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Monotone cutoff -> ratio curve: a cutoff sweep of the assisted
    integral over the OMEGA_GRID_STEP nodes up to min(omega_max, delta),
    interference-corrected for a finite ``delta_prime``."""
    fd = _require_overlap(f, delta)
    h = OMEGA_GRID_STEP
    om = h * np.arange(int(math.ceil(min(omega_max, delta) / h)) + 1)
    cum = _assisted_sweep(f, delta, om, 0.0, h, delta_prime)
    return om, (2.0 / math.pi) * pc_eta_internal * cum / fd


def asymptotic_ratio(pc: PhononCoupling, f: GridFunction, ls: LevelSpacings) -> float:
    """Ratio in the no-cutoff limit (the integral truncates at the gap
    itself, so this is the largest ratio any cutoff can produce)."""
    om, r = _cumulative_ratio(pc.eta_internal, f, ls.delta, ls.delta_prime,
                              ls.delta)
    return float(r[-1])


def infer_omega(so: SpinOrbitParams, pc: PhononCoupling, psb: PsbModel,
                ls: LevelSpacings, ratio_target: MeasuredBand,
                deltas=None) -> IntervalSet:
    """Cutoff interval consistent with the measured rate ratio, scanning
    cutoffs up to OMEGA_MAX.

    The ratio is non-decreasing in the cutoff, so each target-band edge
    maps to a cutoff by inverse interpolation; the returned interval is
    the union over the swept gap values (default: the gap interval the
    direct-rate analysis produced).  An unreachable target gives the
    empty set; see ``asymptotic_ratio`` for the diagnostic ceiling.
    """
    if deltas is None:
        deltas = np.linspace(DELTA_RANGE[0], DELTA_RANGE[1], 21)
    f = psb.calibrated_overlap(0.0)
    los, his = [], []
    for delta in np.atleast_1d(np.asarray(deltas, dtype=float)):
        om, r = _cumulative_ratio(pc.eta_internal, f, delta, ls.delta_prime,
                                  OMEGA_MAX)
        if r[-1] < ratio_target.lo:
            continue
        los.append(float(np.interp(ratio_target.lo, r, om)))
        his.append(float(np.interp(ratio_target.hi, r, om,
                                   right=float(om[-1]))))
    if not los:
        return IntervalSet.empty()
    return IntervalSet.from_pairs([(min(los), max(his))])


def low_delta_exclusion(pc: PhononCoupling, f: GridFunction,
                        floor: float = 148.0, delta_prime: float = 1190.0) -> float:
    """Largest no-cutoff ratio over gaps up to ``floor``, on a 2 meV scan
    (interference-corrected unless ``delta_prime`` is math.inf).

    A value below the measured ratio band means no cutoff can reconcile
    those gaps with the measurement, which is what justifies dropping the
    low interval in infer_delta.
    """
    out = 0.0
    for delta in np.arange(24.0, floor + 0.5, 2.0):
        if f.sample(delta) <= 0.0:
            continue
        out = max(out, asymptotic_ratio(pc, f, LevelSpacings(delta, delta_prime)))
    return out


# ---------------------------------------------------------------------------
# error of the zero-temperature limit


def lowT_error_map(so: SpinOrbitParams, pc: PhononCoupling, psb: PsbModel,
                   ls: LevelSpacings, temperature_k: float,
                   axis: str = "delta", lo: float = 300.0, hi: float = 450.0,
                   step: float = 5.0) -> GridFunction:
    """Relative deviation of the zero-temperature assisted rate from the
    finite-temperature one, swept over the gap or the cutoff.

    The direct rate drops out of the assisted-to-direct ratio when both
    use the same overlap, and so does the common prefactor 8 lambda_perp^2
    eta, so the two assisted integrals are compared directly: one gap
    sweep or one cutoff sweep of each, on the lattice of the largest step
    <= RATE_STEP that divides ``step``.
    """
    if axis not in ("delta", "omega"):
        raise ValueError("axis must be delta or omega")
    if temperature_k < 0:
        raise ValueError("temperature must be >= 0")
    check_grid((hi - lo) / step + 1, f"a {axis} error map in {step:g} meV steps")
    grid = lo + step * np.arange(int(math.floor((hi - lo) / step)) + 1)
    if grid.size < 2:
        raise ValueError("the error map needs at least 2 nodes")
    f0 = psb.calibrated_overlap(0.0)
    f_t = psb.calibrated_overlap(temperature_k)
    h = _lattice_step(step)
    # the parameter objects validate the first (smallest) node
    if axis == "delta":
        LevelSpacings(float(grid[0]), ls.delta_prime)
        _require_overlap(f0, grid)
        cold = _assisted_sweep(f0, grid, np.minimum(grid, pc.omega_mev), 0.0, h)
        warm = _assisted_sweep(f_t, grid, pc.omega_mev, temperature_k, h)
    else:
        pc.with_omega(float(grid[0]))
        _require_overlap(f0, ls.delta)
        cold = _assisted_sweep(f0, ls.delta, np.minimum(grid, ls.delta), 0.0, h)
        warm = _assisted_sweep(f_t, ls.delta, grid, temperature_k, h)
    return GridFunction(float(grid[0]), step, np.abs(warm - cold) / cold)


# ---------------------------------------------------------------------------
# Mott-Seitz fit of the high-temperature quenching


@dataclasses.dataclass(frozen=True)
class MottSeitzFit:
    """Activation parameters with 1-sigma uncertainties and fit stats."""

    params: HighTempParams
    sigma_s: float
    sigma_delta_e_ev: float
    nu0_mhz: float
    residual_rms: float
    n_points: int

    @property
    def s(self) -> float:
        return self.params.s

    @property
    def delta_e_ev(self) -> float:
        return self.params.delta_e_ev


def _ms_tau(nu0: float, s: float, delta_e_ev: float,
            temps: np.ndarray) -> np.ndarray:
    kt_ev = np.array([thermal_energy(t) for t in temps]) * 1e-3
    return 1e3 / (2.0 * math.pi * nu0 * (1.0 + s * np.exp(-delta_e_ev / kt_ev)))


def fit_mott_seitz(data: LifetimeSeries, g_rad: RateResult,
                   tau0_ns: float = 12.0) -> MottSeitzFit:
    """Fit tau(T) = 1e3 / (2 pi nu0 (1 + s e^{-dE/kT})) to the shelf-class
    rows of a series (``select("ms0")``, in temperature order), with the
    base rate pinned to the measured radiative rate.

    Initialization is deterministic: the activation energy from the
    Arrhenius slope of the three hottest points, the prefactor from the
    hottest point's residual rate.  ``tau0_ns`` is the no-quenching anchor
    used to decide whether a turn-on is present at all.
    """
    data = data.select("ms0")
    if len(data) < 3:
        raise ValueError("need at least 3 points to fit the quenching")
    nu0 = g_rad.value_mhz
    temps, taus, sigmas = data.temperatures_k, data.taus_ns, data.sigmas_ns

    tau_flat = min(tau0_ns, 1e3 / (2.0 * math.pi * nu0))
    if np.all(taus > tau_flat - sigmas):
        raise ValueError(
            "deltaE unidentifiable: no lifetime point drops below the "
            "no-quenching anchor by more than one sigma")

    # rate excess over the base, for the Arrhenius initializer
    kt_ev = np.array([thermal_energy(t) for t in temps]) * 1e-3
    excess = 1e3 / (2.0 * math.pi * taus) - nu0
    tail = excess[-3:]
    if np.any(tail <= 0):
        raise ValueError(
            "deltaE unidentifiable: no activated excess rate in the three "
            "hottest points")
    slope = np.polyfit(1.0 / kt_ev[-3:], np.log(tail), 1)[0]
    de0 = max(-slope, 0.01)
    s0 = float(tail[-1] * math.exp(de0 / kt_ev[-1]) / nu0)

    def resid_jac(theta):
        # tau = tau_0 / (1 + q), q = s e^{-dE/kT}; d tau / d ln s = -tau q/(1+q)
        q = math.exp(theta[0]) * np.exp(-theta[1] / kt_ev)
        tau = 1e3 / (2.0 * math.pi * nu0 * (1.0 + q))
        dtau = tau * q / (1.0 + q) / sigmas
        return (tau - taus) / sigmas, np.column_stack([-dtau, dtau / kt_ev])

    # Levenberg-Marquardt (Marquardt, J. SIAM 11, 431 (1963)) in
    # (ln s, dE), each step clipped to the box
    lo, hi = np.array([-5.0, 0.01]), np.array([40.0, 4.0])
    theta = np.clip([math.log(s0), de0], lo, hi)
    r, jac = resid_jac(theta)
    lam = 1e-3
    for _ in range(MOTT_SEITZ_MAX_ITER):
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jac.T @ r)
        trial = np.clip(theta + step, lo, hi)
        if np.all(np.abs(trial - theta) <= 1e-14 * (1.0 + np.abs(theta))):
            break
        r_t, jac_t = resid_jac(trial)
        if r_t @ r_t < r @ r:
            theta, r, jac, lam = trial, r_t, jac_t, lam / 10.0
        else:
            lam *= 10.0
    ln_s, de = theta
    s = math.exp(ln_s)

    dof = max(len(data) - 2, 1)
    chi2 = float(r @ r)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * max(chi2 / dof, 1e-30)
        sigma_ln_s = math.sqrt(max(cov[0, 0], 0.0))
        sigma_de = math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        sigma_ln_s = sigma_de = math.inf
    return MottSeitzFit(HighTempParams(s, de), s * sigma_ln_s, sigma_de,
                        nu0, math.sqrt(chi2 / len(data)), len(data))


# ---------------------------------------------------------------------------
# forward lifetime curves


@dataclasses.dataclass(frozen=True)
class LifetimeCurves:
    """Predicted lifetimes per temperature, spin class and activated
    channel admixture epsilon (parallel columns)."""

    temperatures_k: tuple[float, ...]
    spin_classes: tuple[str, ...]
    epsilons: tuple[float, ...]
    taus_ns: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.temperatures_k)

    def rows(self):
        return zip(self.temperatures_k, self.spin_classes, self.epsilons,
                   self.taus_ns)


def lifetime_curves(so: SpinOrbitParams, pc: PhononCoupling, psb: PsbModel,
                    ls: LevelSpacings, g_rad: RateResult,
                    ht: HighTempParams, temperatures,
                    epsilons=(0.0, 0.5, 1.0)) -> LifetimeCurves:
    """Compose the crossing, radiative and activated channels into
    tau(T) for both spin classes and each epsilon."""
    temps_c, cls_c, eps_c, tau_c = [], [], [], []
    for t in np.atleast_1d(np.asarray(temperatures, dtype=float)):
        f_t = psb.calibrated_overlap(float(t))
        g_a1 = gamma_a1(so, f_t, ls.delta)
        g_e12 = gamma_e12_finiteT(so, pc, f_t, ls, float(t))
        g_isc = isc_average(g_a1, g_e12)
        g_therm = gamma_ht(ht, g_rad, float(t))
        for eps in epsilons:
            for cls in ("ms0", "ms1"):
                temps_c.append(float(t))
                cls_c.append(cls)
                eps_c.append(float(eps))
                tau_c.append(lifetime(g_rad, g_isc, g_therm, eps, cls))
    return LifetimeCurves(tuple(temps_c), tuple(cls_c), tuple(eps_c),
                          tuple(tau_c))


# ---------------------------------------------------------------------------
# sensitivity of the averaged crossing rate to the gap


def isc_sensitivity(so: SpinOrbitParams, pc: PhononCoupling, psb: PsbModel,
                    ls: LevelSpacings, h: float = 2.0) -> float:
    """Finite-difference slope of the orbit-averaged crossing rate,
    in MHz per meV, positive when the rate grows as the gap shrinks (the
    assisted part interference-corrected for a finite ``ls.delta_prime``)."""
    f0 = psb.calibrated_overlap(0.0)
    if ls.delta - h <= f0.omega_min or ls.delta + h >= f0.omega_max:
        raise ValueError("gap too close to the sideband support edge for "
                         "a central difference")

    def nu_isc(delta: float) -> float:
        ls_d = LevelSpacings(delta, ls.delta_prime)
        g_a1 = gamma_a1(so, f0, delta)
        g_e12 = gamma_e12_lowT(so, pc, f0, ls_d)
        return isc_average(g_a1, g_e12).value_mhz

    return (nu_isc(ls.delta - h) - nu_isc(ls.delta + h)) / (2.0 * h)
