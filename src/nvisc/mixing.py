"""Phonon-driven mixing between the orbital branches of the excited
triplet.

The dominant channel is a two-phonon Raman process (absorb omega, emit
omega + splitting) whose rate integrates to a T^5 law,

    Gamma_Mix = (64/pi) alpha eta^2 (k_B T)^5,
    alpha(x_d) = int_0^inf x^4 n(x) [n(x + x_d) + 1] dx,

with x_d the splitting over k_B T.  The identity
n(x) [1 + n(x + d)] = [1 + n(d)] [n(x) - n(x + d)] integrates it in closed
form, alpha(d) = 24 [1 + n(d)] (zeta(5) - Li_5(e^{-d})), which runs from
24 zeta(4) (x_d -> 0) to 24 zeta(5) (x_d -> inf).  A direct one-phonon
channel, rate 4 eta [n+1] delta_xy^3, matters only for splittings of
tens of GHz.  The inverse problem (coupling strength from a measured
rate-vs-temperature series) is weighted least squares, linear in eta^2.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .gridfn import GridFunction, read_table
from .psb import check_grid, thermal_occupation
from .rates import RateResult
from .units import MEV_TO_MHZ, eta_mhz_to_internal, ghz_to_mev, thermal_energy

__all__ = [
    "MixingParams",
    "MixSeries",
    "OnePhononMixing",
    "EtaFit",
    "alpha_const",
    "gamma_mix",
    "gamma_mix_spectral",
    "gamma_mix_one_phonon",
    "extract_eta",
]

# zeta(5 - k) for k = 0..15, the coefficients of the log series of
# Li_5(e^{-d}); the log term takes the place of k = 4 (the pole of zeta)
_ZETA_5_MINUS_K = (1.0369277551433699, math.pi**4 / 90, 1.2020569031595942,
                   math.pi**2 / 6, 0.0, -1 / 2, -1 / 12, 0.0, 1 / 120, 0.0,
                   -1 / 252, 0.0, 1 / 240, 0.0, -1 / 132, 0.0)

DEFAULT_DELTA_XY_MEV = ghz_to_mev(3.9)


@dataclasses.dataclass(frozen=True)
class MixingParams:
    """Coupling strength (MHz meV^-3), orbital splitting (meV) and
    temperature (K) for the mixing-rate formulas."""

    eta_mhz: float
    delta_xy_mev: float = DEFAULT_DELTA_XY_MEV
    temperature_k: float = 5.0
    eta_band_mhz: tuple[float, float] | None = None

    def __post_init__(self):
        if self.eta_mhz <= 0:
            raise ValueError("eta must be > 0")
        if self.delta_xy_mev < 0:
            raise ValueError("splitting must be >= 0")
        if self.temperature_k < 0:
            raise ValueError("temperature must be >= 0")


@dataclasses.dataclass(frozen=True)
class MixSeries:
    """Measured mixing rates vs temperature with 1-sigma errors."""

    temperatures_k: np.ndarray
    rates_mhz: np.ndarray
    sigmas_mhz: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.temperatures_k, dtype=float)
        r = np.asarray(self.rates_mhz, dtype=float)
        s = np.asarray(self.sigmas_mhz, dtype=float)
        if not (t.size == r.size == s.size):
            raise ValueError("series columns must have equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("temperatures must be strictly increasing")
        if np.any(t <= 0):
            raise ValueError("temperatures must be > 0 K")
        if np.any(s <= 0):
            raise ValueError("sigmas must be > 0")
        for name, arr in (("temperatures_k", t), ("rates_mhz", r),
                          ("sigmas_mhz", s)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.temperatures_k.size

    @classmethod
    def from_csv(cls, path) -> "MixSeries":
        """Read "temperature_K,gamma_mix_MHz,sigma_MHz" rows ('#' comments)."""
        return cls(*read_table(path, 3))


def alpha_const(x_delta: float) -> float:
    """Dimensionless two-phonon integral alpha(x_delta), in closed form
    24 [1 + n(d)] (zeta(5) - Li_5(e^{-d})) with 24 zeta(4) at d = 0.

    Li_5(e^{-d}) is summed directly (60 terms) for d >= 1 and by its log
    series sum_{k != 4} zeta(5 - k) (-d)^k / k! + d^4/24 (H_4 - ln d),
    k <= 15, below; the k = 0 term cancels against zeta(5).
    """
    if x_delta < 0:
        raise ValueError("x_delta must be >= 0")
    d = x_delta
    if d == 0.0:
        return 24.0 * _ZETA_5_MINUS_K[1]
    if d >= 1.0:
        gap = _ZETA_5_MINUS_K[0] - sum(math.exp(-k * d) / k**5 for k in range(1, 60))
    else:
        gap = -(d**4 / 24.0) * (25.0 / 12.0 - math.log(d)) - sum(
            z * (-d) ** k / math.factorial(k)
            for k, z in enumerate(_ZETA_5_MINUS_K) if k and z)
    return 24.0 * gap / -math.expm1(-d)


def gamma_mix(mp: MixingParams) -> RateResult:
    """Two-phonon mixing rate (64/pi) alpha eta^2 (kT)^5, in MHz; the band
    is the value times (eta_x/eta)^2 at the eta extremes eta_x."""
    if mp.temperature_k <= 0:
        raise ValueError("mixing rate needs T > 0")
    kt = thermal_energy(mp.temperature_k)
    alpha = alpha_const(mp.delta_xy_mev / kt)
    eta = eta_mhz_to_internal(mp.eta_mhz)
    value = (64.0 / math.pi) * alpha * eta * eta * kt**5 * MEV_TO_MHZ
    band = None
    if mp.eta_band_mhz is not None:
        band = tuple(value * (e / mp.eta_mhz) ** 2 for e in mp.eta_band_mhz)
    return RateResult(value, band)


def gamma_mix_spectral(mp: MixingParams, omega_max: float | None = None,
                       step: float | None = None) -> GridFunction:
    """Spectral decomposition of the two-phonon rate (MHz/meV) over the
    absorbed-phonon energy; integrates to gamma_mix.

    Default axis [0, 40 kT] with step kT/100; the integrand rises as
    omega^2, peaks near 4 kT and is exponentially negligible at the
    upper end.
    """
    if mp.temperature_k <= 0:
        raise ValueError("mixing spectrum needs T > 0")
    kt = thermal_energy(mp.temperature_k)
    if omega_max is None:
        omega_max = 40.0 * kt
    if step is None:
        step = kt / 100.0
    check_grid(omega_max / step + 1, f"a mixing spectrum in {step:g} meV steps")
    n = max(2, int(math.ceil(omega_max / step)) + 1)
    om = np.linspace(0.0, omega_max, n)
    vals = np.zeros(n)
    absorb = thermal_occupation(om[1:], mp.temperature_k)
    emit = thermal_occupation(om[1:] + mp.delta_xy_mev, mp.temperature_k) + 1.0
    eta = eta_mhz_to_internal(mp.eta_mhz)
    vals[1:] = (64.0 / math.pi) * eta * eta * om[1:] ** 4 * absorb * emit * MEV_TO_MHZ
    return GridFunction(0.0, om[1] - om[0], vals)


@dataclasses.dataclass(frozen=True)
class OnePhononMixing:
    """Direct one-phonon mixing: downward (emission) and upward
    (absorption) rates, and the small-splitting linear form
    4 eta k_B delta_xy^2 T (all MHz)."""

    emission_mhz: float
    absorption_mhz: float
    linear_mhz: float

    @property
    def mean_mhz(self) -> float:
        """Direction-averaged rate; this is what the linear form tracks
        to O((delta_xy/kT)^2)."""
        return 0.5 * (self.emission_mhz + self.absorption_mhz)

    @property
    def net_mhz(self) -> float:
        """Emission minus absorption = 4 eta delta_xy^3 exactly."""
        return self.emission_mhz - self.absorption_mhz


def gamma_mix_one_phonon(mp: MixingParams) -> OnePhononMixing:
    """One-phonon mixing rates at the orbital splitting."""
    eta = eta_mhz_to_internal(mp.eta_mhz)
    d = mp.delta_xy_mev
    if d == 0.0:
        return OnePhononMixing(0.0, 0.0, 0.0)
    kt = thermal_energy(mp.temperature_k)
    occ = thermal_occupation(d, mp.temperature_k)
    emission = 4.0 * eta * (occ + 1.0) * d**3 * MEV_TO_MHZ
    absorption = 4.0 * eta * occ * d**3 * MEV_TO_MHZ
    linear = 4.0 * eta * kt * d**2 * MEV_TO_MHZ
    return OnePhononMixing(emission, absorption, linear)


@dataclasses.dataclass(frozen=True)
class EtaFit:
    """Coupling strength recovered from a rate-vs-temperature series."""

    eta_mhz: float
    sigma_mhz: float
    eta_sq: float
    sigma_eta_sq: float
    n_points: int


def extract_eta(data: MixSeries, delta_xy_mev: float = DEFAULT_DELTA_XY_MEV) -> EtaFit:
    """Weighted least squares for the coupling strength.

    The model is linear in eta^2: nu_i = g(T_i) eta^2 with g the
    unit-coupling rate (alpha recomputed at every temperature, so the
    slight x_delta drift is not approximated away).  1-sigma on eta by
    linear propagation from the eta^2 estimate.
    """
    if len(data) < 3:
        raise ValueError("need at least 3 points to fit the coupling")
    g = np.array([
        gamma_mix(MixingParams(1.0, delta_xy_mev, t)).value_mhz
        for t in data.temperatures_k
    ])
    w = 1.0 / data.sigmas_mhz**2
    denom = float(np.sum(w * g * g))
    eta_sq = float(np.sum(w * g * data.rates_mhz)) / denom
    sigma_eta_sq = 1.0 / math.sqrt(denom)
    if eta_sq <= 0:
        raise ValueError(
            f"fitted eta^2 = {eta_sq:.3e} <= 0; data inconsistent with the "
            "T^5 mixing model")
    eta = math.sqrt(eta_sq)
    return EtaFit(eta, sigma_eta_sq / (2.0 * eta), eta_sq, sigma_eta_sq,
                  len(data))
