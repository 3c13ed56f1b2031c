"""Crossing rates out of the excited triplet and fluorescence lifetimes.

Two decay channels out of the fine-structure states are modeled.  The
upper branch crosses directly: its rate is first order in the transverse
spin-orbit coupling and proportional to the sideband overlap at the gap,

    Gamma_direct = 4 pi lambda_perp^2 F(Delta).

The split pair crosses through a phonon-assisted second-order path,

    Gamma_assisted = 8 lambda_perp^2 eta int_0^Omega omega
                     { [n+1] F(Delta - omega, T) + n F(Delta + omega, T) } domega,

which at T = 0 collapses to the emission term alone, cut at
min(Delta, Omega).  An optional interference correction for the second
singlet replaces the weight omega by omega (1 - 2 omega / (Delta + Delta'))^2
in the T = 0 form.

Every assisted integral, from one rate to a whole gap or cutoff sweep,
goes through one kernel (_assisted_sweep).  It samples each overlap once,
on a lattice of step h, and reads each gap's integrand as a row of a
sliding-window view of those samples: emission and absorption weights,
the kT term at omega = 0 and the trapezoid end weights form one weight
row, so a gap sweep is one matrix-vector product and a cutoff sweep one
cumulative trapezoid.  h is the largest step <= RATE_STEP that divides
the sweep step (for one rate, its upper limit), so sweep nodes and
cutoffs sit on lattice nodes; a cutoff off the lattice ends with a
partial trapezoid cell.  A lattice or a gap sweep (rows x window) above
psb.MAX_GRID_NODES nodes raises ArithmeticError before it is allocated.

Everything internal is hbar = 1 and meV; results are reported as
ordinary frequencies in MHz (Gamma / 2 pi).  Every crossing rate is
proportional to lambda_perp^2, and the assisted ones to eta, so one rule
(_band) gives each crossing-rate band: the value scaled to the quoted
ratio and eta extremes.  Crossing rates take the calibrated overlap at
their temperature; the caller looks it up once.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gridfn import GridFunction
from .psb import check_grid, thermal_occupation
from .units import (
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
# a cutoff within this fraction of a lattice cell of a node sits on it
_ON_LATTICE = 1e-9


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


@dataclasses.dataclass(frozen=True)
class HighTempParams:
    """Thermally activated decay channel: rate s * Gamma_Rad *
    exp(-delta_e / kT); lifetime() takes its coupling epsilon into the
    split pair."""

    s: float
    delta_e_ev: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")
        if self.delta_e_ev <= 0:
            raise ValueError("activation energy must be > 0")


# ---------------------------------------------------------------------------
# shared rules: the band, the direct prefactor, the F(Delta) = 0 guard


def _band(value: float, so: SpinOrbitParams,
          pc: PhononCoupling | None = None) -> tuple[float, float]:
    """Band of a rate proportional to lambda_perp^2 (and to eta when
    ``pc`` is given): value (ratio/ratio_perp)^2 (eta/eta_mid) at the low
    and at the high ratio and eta extremes."""
    rlo, rhi = so.ratio_band
    eta, elo, ehi = 1.0, 1.0, 1.0
    if pc is not None:
        eta = pc.eta_mhz
        elo, ehi = pc.eta_band_mhz or (eta, eta)
    return (value * (rlo / so.ratio_perp) ** 2 * (elo / eta),
            value * (rhi / so.ratio_perp) ** 2 * (ehi / eta))


def _direct_coef(so: SpinOrbitParams) -> float:
    """4 pi lambda_perp^2 in MHz per meV^-1: the direct rate per unit
    overlap F(Delta)."""
    lp = so.lambda_perp
    return rate_mev_to_mhz(4.0 * math.pi * lp * lp)


def _require_overlap(f: GridFunction, deltas):
    """F(Delta) at ``deltas``, refusing any gap where it vanishes: the
    assisted-to-direct ratio is undefined there, and the zero-temperature
    rate keeps the ratio contract."""
    fd = f.sample(deltas)
    bad = np.atleast_1d(deltas)[np.atleast_1d(fd) <= 0.0]
    if bad.size:
        raise ValueError(
            f"F(Delta) = 0 at Delta = {float(bad[0])} meV, where the rate "
            "ratio is undefined; use the finite-T form or a gap inside the "
            "sideband support")
    return fd


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
    value = _direct_coef(so) * max(0.0, f.sample(delta_mev))
    note = "" if value > 0.0 else "gap outside sideband support"
    return RateResult(value, _band(value, so), note)


# ---------------------------------------------------------------------------
# phonon-assisted (second-order) crossing


def _lattice_step(span: float, step: float = RATE_STEP) -> float:
    """Largest lattice step <= ``step`` that divides ``span``: the gap or
    cutoff step of a sweep, or a single row's upper limit.  A row's
    lattice spans Delta -+ span, which must fit psb.MAX_GRID_NODES."""
    cells = span / step
    check_grid(2.0 * cells + 1.0, f"a {step:g} meV rate lattice over "
               f"Delta -+ {span:g} meV")
    return span / math.ceil(cells)


def _thermal_weights(om: np.ndarray, temperature_k: float,
                     n_powers: int) -> tuple[np.ndarray, np.ndarray]:
    """Emission and absorption weights omega^p (n+1) omega and
    omega^p n omega on the nodes ``om`` (om[0] = 0), one row per power
    p < n_powers; omega n -> kT at omega = 0 (the kT term)."""
    kt = thermal_energy(temperature_k)
    em = om.copy()
    ab = np.zeros_like(om)
    if kt > 0.0:
        occ = thermal_occupation(om[1:], temperature_k)
        em[1:] = om[1:] * (occ + 1.0)
        ab[1:] = om[1:] * occ
        em[0] = ab[0] = kt
    powers = om ** np.arange(n_powers)[:, None]
    return em * powers, ab * powers


def _assisted_sweep(f: GridFunction, deltas, cutoffs, temperature_k: float,
                    h: float, delta_prime: float = math.inf) -> np.ndarray:
    """int_0^c w(omega) {[n+1] F(Delta - omega) + n F(Delta + omega)} domega
    for a whole sweep, one value per (Delta, c) pair.

    The weight is w = omega, or omega (1 - 2 omega/(Delta + Delta'))^2
    for a finite ``delta_prime``, expanded in powers of omega so that one
    weight row per power serves every gap.  F is sampled once, on a
    lattice of step ``h`` from min(Delta) - max(c) to max(Delta) + max(c)
    (to max(Delta) at T = 0, where n = 0), and the integrand is taken as
    linear between lattice nodes: a cutoff off the lattice ends with a
    partial trapezoid cell.

    Either ``deltas`` is one gap or a uniform sweep whose step is a
    multiple of ``h`` with one cutoff per gap (a gap sweep: each gap's
    integrand is a row of a sliding-window view of the samples, and the
    sweep is one matrix-vector product per power), or ``deltas`` is one
    gap and ``cutoffs`` sweeps (a cutoff sweep: one cumulative trapezoid
    read at each cutoff).  Grids beyond psb.MAX_GRID_NODES are refused
    before they are allocated.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    cutoffs = np.atleast_1d(np.asarray(cutoffs, dtype=float))
    if cutoffs.size == 1:
        cutoffs = np.full(deltas.size, cutoffs[0])
    warm = thermal_energy(temperature_k) > 0.0
    # each cutoff as k whole lattice cells plus a fraction tau of the next
    cells = cutoffs / h
    k = np.floor(cells + _ON_LATTICE)
    tau = np.where(cells - k > _ON_LATTICE, cells - k, 0.0)
    # n cells cover the largest cutoff; a window spans Delta - n h to Delta,
    # and on to Delta + n h when the absorption half is on
    n = float(np.max(k + (tau > 0.0)))
    width = (2.0 if warm else 1.0) * n + 1.0
    if deltas.size > 1:
        stride = round((deltas[1] - deltas[0]) / h)
        length = (deltas.size - 1) * stride + width
        check_grid(deltas.size * width,
                   f"a {deltas.size}-gap sweep over {width:.6g}-node windows")
    else:
        stride, length = 1, width
    check_grid(length, f"a {h:g} meV rate lattice")
    n, width, k = int(n), int(width), k.astype(int)
    samples = f.sample(deltas[0] + h * np.arange(-n, int(length) - n))
    em, ab = _thermal_weights(h * np.arange(n + 1), temperature_k,
                              1 if math.isinf(delta_prime) else 3)
    d = deltas + delta_prime
    coef = np.stack([np.ones_like(d), -4.0 / d, 4.0 / d ** 2], axis=1)[:, :em.shape[0]]

    if deltas.size == 1 and cutoffs.size > 1:
        integrand = (coef[0] @ em) * samples[n::-1]
        if warm:
            integrand += (coef[0] @ ab) * samples[n:]
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * h)])
        nxt = integrand[np.minimum(k + 1, n)]
        return cum[k] + 0.5 * h * tau * ((2.0 - tau) * integrand[k] + tau * nxt)

    rows = sliding_window_view(samples, width)[::stride]
    out = np.empty(deltas.size)
    # consecutive gaps with one cutoff share one weight row per power
    bounds = [0, *(np.flatnonzero(np.diff(cutoffs)) + 1), deltas.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        trap = np.zeros(n + 1)
        trap[:k[a]] += 0.5 * h
        trap[1:k[a] + 1] += 0.5 * h
        if tau[a] > 0.0:
            trap[k[a]] += 0.5 * h * tau[a] * (2.0 - tau[a])
            trap[k[a] + 1] += 0.5 * h * tau[a] ** 2
        weights = np.zeros((em.shape[0], width))
        weights[:, n::-1] = trap * em
        if warm:
            weights[:, n:] += trap * ab
        # einsum reads the overlapping rows in place; matmul on this view
        # takes a slow path (8 ms for one 17001-node row)
        out[a:b] = sum(coef[a:b, p] * np.einsum("ij,j->i", rows[a:b], weights[p])
                       for p in range(em.shape[0]))
    return out


def _lowT_integral(f: GridFunction, pc: PhononCoupling, ls: LevelSpacings,
                   include_singlet_path: bool) -> float:
    """int_0^min(Delta, Omega) w(omega) F(Delta - omega) domega as a
    one-row sweep; the interference weight when ``include_singlet_path``."""
    upper = min(ls.delta, pc.omega_mev)
    delta_prime = ls.delta_prime if include_singlet_path else math.inf
    return float(_assisted_sweep(f, ls.delta, upper, 0.0, _lattice_step(upper),
                                 delta_prime)[0])


def e12_a1_ratio(pc: PhononCoupling, f: GridFunction, ls: LevelSpacings,
                 include_singlet_path: bool = False) -> float:
    """Assisted-to-direct rate ratio (2/pi) eta int w F(Delta-omega) / F(Delta).

    Amplitude-calibration free: any overall factor on F cancels.
    """
    fd = _require_overlap(f, ls.delta)
    integral = _lowT_integral(f, pc, ls, include_singlet_path)
    return (2.0 / math.pi) * pc.eta_internal * integral / fd


def _e12_coef(so: SpinOrbitParams, pc: PhononCoupling) -> float:
    """8 lambda_perp^2 eta in MHz per meV^2 of the assisted integral."""
    lp = so.lambda_perp
    return rate_mev_to_mhz(8.0 * lp * lp * pc.eta_internal)


def gamma_e12_lowT(so: SpinOrbitParams, pc: PhononCoupling, f: GridFunction,
                   ls: LevelSpacings,
                   include_singlet_path: bool = False) -> RateResult:
    """Zero-temperature assisted crossing rate in MHz.

    Computed through the absolute integrand 8 lambda_perp^2 eta
    int w F(Delta-omega) domega (no division), but the operation keeps
    the rate-ratio contract: F(Delta) = 0 is rejected since the quoted
    form is the ratio times the direct rate.
    """
    _require_overlap(f, ls.delta)
    value = _e12_coef(so, pc) * _lowT_integral(f, pc, ls, include_singlet_path)
    return RateResult(value, _band(value, so, pc))


def gamma_e12_spectral(so: SpinOrbitParams, pc: PhononCoupling,
                       f_t: GridFunction, ls: LevelSpacings,
                       temperature_k: float, step: float = RATE_STEP,
                       branch: str = "both") -> GridFunction:
    """Spectral decomposition of the finite-T assisted rate (MHz/meV)
    over the phonon energy axis [0, Omega]; integrates to the rate.
    ``f_t`` is the calibrated overlap at ``temperature_k``.

    The nodes are the rate lattice of gamma_e12_finiteT (the largest
    step <= ``step`` dividing Omega) and the values are the sweep
    kernel's weight row times the sampled overlap."""
    if branch not in ("both", "emission", "absorption"):
        raise ValueError("branch must be both, emission or absorption")
    h = _lattice_step(pc.omega_mev, step)
    n = round(pc.omega_mev / h)
    samples = f_t.sample(ls.delta + h * np.arange(-n, n + 1))
    em, ab = _thermal_weights(h * np.arange(n + 1), temperature_k, 1)
    vals = np.zeros(n + 1)
    if branch in ("both", "emission"):
        vals += em[0] * samples[n::-1]
    if branch in ("both", "absorption"):
        vals += ab[0] * samples[n:]
    return GridFunction(0.0, h, _e12_coef(so, pc) * vals)


def gamma_e12_finiteT(so: SpinOrbitParams, pc: PhononCoupling,
                      f_t: GridFunction, ls: LevelSpacings,
                      temperature_k: float, step: float = RATE_STEP) -> RateResult:
    """Finite-temperature assisted crossing rate (MHz): the integral of
    gamma_e12_spectral, with bands from the ratio and eta extremes.
    ``f_t`` is the calibrated overlap at ``temperature_k``."""
    integral = _assisted_sweep(f_t, ls.delta, pc.omega_mev, temperature_k,
                               _lattice_step(pc.omega_mev, step))[0]
    value = _e12_coef(so, pc) * float(integral)
    return RateResult(value, _band(value, so, pc))


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
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if ms == "ms0":
        total = g_rad.value_mhz + g_ht.value_mhz
    elif ms == "ms1":
        total = g_rad.value_mhz + g_isc.value_mhz + epsilon * g_ht.value_mhz
    else:
        raise ValueError(f"spin class must be ms0 or ms1, got {ms!r}")
    if total <= 0.0:
        raise ValueError("all rates vanish; lifetime is unbounded")
    return 1e3 / (2.0 * math.pi * total)
