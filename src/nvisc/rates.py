"""Crossing rates out of the excited triplet and fluorescence lifetimes.

Two decay channels out of the fine-structure states are modeled.  The
upper branch crosses directly: its rate is first order in the transverse
spin-orbit coupling and proportional to the sideband overlap at the gap,

    Gamma_direct = 4 pi lambda_perp^2 F(Delta).

The split pair crosses through a phonon-assisted second-order path,

    Gamma_assisted = 8 lambda_perp^2 eta int_0^Omega omega
                     { [n+1] F(Delta - omega, T) + n F(Delta + omega, T) } domega,

which at T = 0 collapses to the emission term alone.  An optional
interference correction for the second singlet replaces the weight
omega by omega (1 - 2 omega / (Delta + Delta'))^2 in the T = 0 form.

Everything internal is hbar = 1 and meV; results are reported as
ordinary frequencies in MHz (Gamma / 2 pi).  RateResult bands are plain
interval arithmetic over the quoted parameter extremes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .gridfn import GridFunction, integrate
from .psb import PsbModel, thermal_occupation
from .units import (
    MEV_TO_MHZ,
    eta_mhz_to_internal,
    ghz_to_mev,
    rate_mev_to_mhz,
    thermal_energy,
)

__all__ = [
    "SpinOrbitParams",
    "PhononCoupling",
    "LevelSpacings",
    "RateResult",
    "HighTempParams",
    "gamma_a1",
    "gamma_e12_lowT",
    "gamma_e12_finiteT",
    "gamma_e12_spectral",
    "e12_a1_ratio",
    "isc_average",
    "gamma_ht",
    "lifetime",
]

# default integration step for rate integrands (meV); fine enough to
# resolve thermal structure at a few kelvin
RATE_STEP = 0.01


@dataclasses.dataclass(frozen=True)
class SpinOrbitParams:
    """Axial spin-orbit energy (meV, as hbar*lambda) and the transverse
    to axial ratio with its confidence band."""

    lambda_par: float
    ratio_perp: float
    ratio_band: tuple[float, float]

    def __post_init__(self):
        if self.lambda_par <= 0:
            raise ValueError("lambda_par must be > 0")
        lo, hi = self.ratio_band
        if not (0 < lo <= self.ratio_perp <= hi):
            raise ValueError("ratio band must satisfy 0 < lo <= mid <= hi")

    @classmethod
    def from_ghz(cls, lambda_par_ghz: float = 5.33, ratio: float = 1.2,
                 band: tuple[float, float] = (1.0, 1.4)) -> "SpinOrbitParams":
        return cls(ghz_to_mev(lambda_par_ghz), ratio, band)

    @property
    def lambda_perp(self) -> float:
        return self.lambda_par * self.ratio_perp

    def lambda_perp_at(self, ratio: float) -> float:
        return self.lambda_par * ratio


@dataclasses.dataclass(frozen=True)
class PhononCoupling:
    """Cubic spectral-density coefficient (MHz meV^-3 as quoted) and the
    acoustic cutoff (meV)."""

    eta_mhz: float
    omega_mev: float
    eta_band_mhz: tuple[float, float] | None = None

    def __post_init__(self):
        if self.eta_mhz <= 0:
            raise ValueError("eta must be > 0")
        if self.omega_mev <= 0:
            raise ValueError("cutoff must be > 0")
        if self.eta_band_mhz is not None:
            lo, hi = self.eta_band_mhz
            if not (0 < lo <= self.eta_mhz <= hi):
                raise ValueError("eta band must contain the central value")

    @property
    def eta_internal(self) -> float:
        """Coupling in meV^-2 under hbar = 1."""
        return eta_mhz_to_internal(self.eta_mhz)

    def with_omega(self, omega_mev: float) -> "PhononCoupling":
        return PhononCoupling(self.eta_mhz, omega_mev, self.eta_band_mhz)


@dataclasses.dataclass(frozen=True)
class LevelSpacings:
    """Gap to the upper singlet (meV) and the singlet-singlet splitting
    (meV; may be math.inf to disable the interference correction)."""

    delta: float
    delta_prime: float = 1190.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.delta_prime <= 0:
            raise ValueError("delta_prime must be > 0")


@dataclasses.dataclass(frozen=True)
class RateResult:
    """A rate as ordinary frequency (Gamma/2pi, MHz) with an optional
    parameter-extremes band and a note for degenerate evaluations."""

    value_mhz: float
    band_mhz: tuple[float, float] | None = None
    note: str = ""

    def __post_init__(self):
        if self.value_mhz < 0:
            raise ValueError("rates are non-negative")
        if self.band_mhz is not None:
            lo, hi = self.band_mhz
            if not (lo <= self.value_mhz <= hi):
                raise ValueError("band must contain the central value")

    def scaled(self, factor: float) -> "RateResult":
        band = None
        if self.band_mhz is not None:
            band = (self.band_mhz[0] * factor, self.band_mhz[1] * factor)
        return RateResult(self.value_mhz * factor, band, self.note)


@dataclasses.dataclass(frozen=True)
class HighTempParams:
    """Thermally activated decay channel: rate s * Gamma_Rad *
    exp(-delta_e / kT), with epsilon its coupling into the split pair."""

    s: float
    delta_e_ev: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.delta_e_ev <= 0:
            raise ValueError("activation energy must be > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


# ---------------------------------------------------------------------------
# direct (first-order) crossing


def gamma_a1(so: SpinOrbitParams, f: GridFunction, delta_mev: float) -> RateResult:
    """First-order crossing rate 4 pi lambda_perp^2 F(Delta) in MHz.

    Returns 0 (with a note, band collapsed) when the gap lies outside
    the sideband support; scales exactly as the square of the transverse
    coupling.
    """
    if delta_mev <= 0:
        raise ValueError("delta must be > 0")
    fval = f.sample(delta_mev)
    if fval <= 0.0:
        return RateResult(0.0, (0.0, 0.0), note="gap outside sideband support")

    def rate(ratio):
        lp = so.lambda_perp_at(ratio)
        return rate_mev_to_mhz(4.0 * math.pi * lp * lp * fval)

    lo, hi = so.ratio_band
    return RateResult(rate(so.ratio_perp), (rate(lo), rate(hi)))


# ---------------------------------------------------------------------------
# phonon-assisted (second-order) crossing


def _assisted_integral(f: GridFunction, delta: float, omega_cut: float,
                       delta_prime: float, include_singlet_path: bool,
                       step: float = RATE_STEP) -> float:
    """int_0^min(Delta, Omega) w(omega) F(Delta - omega) domega with
    w = omega, or omega (1 - 2 omega/(Delta + Delta'))^2 when the
    second-singlet interference path is included."""
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


def e12_a1_ratio(pc: PhononCoupling, f: GridFunction, ls: LevelSpacings,
                 include_singlet_path: bool = False) -> float:
    """Assisted-to-direct rate ratio (2/pi) eta int w F(Delta-omega) / F(Delta).

    Amplitude-calibration free: any overall factor on F cancels.
    """
    fd = f.sample(ls.delta)
    if fd <= 0.0:
        raise ValueError(
            f"F(Delta) = 0 at Delta = {ls.delta} meV; the ratio is undefined")
    integral = _assisted_integral(f, ls.delta, pc.omega_mev, ls.delta_prime,
                                  include_singlet_path)
    return (2.0 / math.pi) * pc.eta_internal * integral / fd


def gamma_e12_lowT(so: SpinOrbitParams, pc: PhononCoupling, f: GridFunction,
                   ls: LevelSpacings,
                   include_singlet_path: bool = False) -> RateResult:
    """Zero-temperature assisted crossing rate in MHz.

    Computed through the absolute integrand 8 lambda_perp^2 eta
    int w F(Delta-omega) domega (no division), but the operation keeps
    the rate-ratio contract: F(Delta) = 0 is rejected since the quoted
    form is the ratio times the direct rate.
    """
    if f.sample(ls.delta) <= 0.0:
        raise ValueError(
            f"F(Delta) = 0 at Delta = {ls.delta} meV; use the finite-T "
            "form or a gap inside the sideband support")
    integral = _assisted_integral(f, ls.delta, pc.omega_mev, ls.delta_prime,
                                  include_singlet_path)

    def rate(ratio, eta_mhz):
        lp = so.lambda_perp_at(ratio)
        return rate_mev_to_mhz(
            8.0 * lp * lp * eta_mhz_to_internal(eta_mhz) * integral)

    rlo, rhi = so.ratio_band
    elo, ehi = pc.eta_band_mhz if pc.eta_band_mhz else (pc.eta_mhz, pc.eta_mhz)
    return RateResult(rate(so.ratio_perp, pc.eta_mhz),
                      (rate(rlo, elo), rate(rhi, ehi)))


def gamma_e12_spectral(so: SpinOrbitParams, pc: PhononCoupling,
                       psb: PsbModel, ls: LevelSpacings,
                       temperature_k: float, step: float = RATE_STEP,
                       branch: str = "both") -> GridFunction:
    """Spectral decomposition of the finite-T assisted rate (MHz/meV)
    over the phonon energy axis [0, Omega]; integrates to the rate."""
    if branch not in ("both", "emission", "absorption"):
        raise ValueError("branch must be both, emission or absorption")
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


def gamma_e12_finiteT(so: SpinOrbitParams, pc: PhononCoupling,
                      psb: PsbModel, ls: LevelSpacings,
                      temperature_k: float, step: float = RATE_STEP) -> RateResult:
    """Finite-temperature assisted crossing rate (MHz): the integral of
    gamma_e12_spectral, with bands from the ratio and eta extremes."""
    spectral = gamma_e12_spectral(so, pc, psb, ls, temperature_k, step)
    value = integrate(spectral)

    def scale_to(ratio, eta_mhz):
        return (ratio / so.ratio_perp) ** 2 * (eta_mhz / pc.eta_mhz)

    rlo, rhi = so.ratio_band
    elo, ehi = pc.eta_band_mhz if pc.eta_band_mhz else (pc.eta_mhz, pc.eta_mhz)
    return RateResult(value, (value * scale_to(rlo, elo),
                              value * scale_to(rhi, ehi)))


# ---------------------------------------------------------------------------
# averaging, activated channel, lifetimes


def isc_average(g_a1: RateResult, g_e12: RateResult) -> RateResult:
    """Orbit-averaged crossing rate (direct + 2 assisted) / 4."""
    value = (g_a1.value_mhz + 2.0 * g_e12.value_mhz) / 4.0
    band = None
    if g_a1.band_mhz is not None and g_e12.band_mhz is not None:
        band = ((g_a1.band_mhz[0] + 2.0 * g_e12.band_mhz[0]) / 4.0,
                (g_a1.band_mhz[1] + 2.0 * g_e12.band_mhz[1]) / 4.0)
    return RateResult(value, band)


def gamma_ht(ht: HighTempParams, g_rad: RateResult,
             temperature_k: float) -> RateResult:
    """Thermally activated rate s * Gamma_Rad * exp(-delta_e/kT); zero at
    T = 0 by continuity."""
    if temperature_k < 0:
        raise ValueError("temperature must be >= 0 K")
    if temperature_k == 0.0:
        return RateResult(0.0, (0.0, 0.0))
    kt_ev = thermal_energy(temperature_k) * 1e-3
    boltz = math.exp(-ht.delta_e_ev / kt_ev) if ht.delta_e_ev / kt_ev < 700 else 0.0
    factor = ht.s * boltz
    band = None
    if g_rad.band_mhz is not None:
        band = (g_rad.band_mhz[0] * factor, g_rad.band_mhz[1] * factor)
    return RateResult(g_rad.value_mhz * factor, band)


def lifetime(g_rad: RateResult, g_isc: RateResult, g_ht: RateResult,
             epsilon: float, ms: str) -> float:
    """Fluorescence lifetime in ns for a spin class ("ms0" or "ms1").

    The shelf state decays radiatively plus the activated channel; the
    split pair adds the crossing rate and epsilon times the activated
    channel.  Rates are Gamma/2pi in MHz, so tau = 1e3/(2 pi nu_total).
    """
    if ms == "ms0":
        total = g_rad.value_mhz + g_ht.value_mhz
    elif ms == "ms1":
        total = g_rad.value_mhz + g_isc.value_mhz + epsilon * g_ht.value_mhz
    else:
        raise ValueError(f"spin class must be ms0 or ms1, got {ms!r}")
    if total <= 0.0:
        raise ValueError("all rates vanish; lifetime is unbounded")
    return 1e3 / (2.0 * math.pi * total)
