"""Phonon-sideband model: one-phonon spectra and the Poisson series of
their self-convolutions.

The emission sideband is represented by a vibrational overlap density
F(omega) (meV^-1).  Internally F is carried in the unit-emission
convention: the one-phonon density f integrates to 1, the mean phonon
count S0 sets the Poisson weights, and the full sideband

    F = e^{-S} sum_{i>=1} (S^i / i!) F_i,     F_i = F_{i-1} (x) F_1

integrates to 1 - e^{-S} (the zero-phonon term is excluded).  Measured
sideband tables may come in a different amplitude convention; their
overall factor is preserved separately as ``PsbModel.scale`` so the
dimensionless machinery stays normalized while rate formulas see the
calibrated amplitude.

The series is built in closed form (the generating function of Lax,
J. Chem. Phys. 20, 1752 (1952); Alkauskas et al., New J. Phys. 16,
073026 (2014)): with g^ the discrete Fourier transform of h F_1, the
transform of h F is exp(S g^ - S) - e^{-S}, evaluated at every S as
expm1(S (g^ - 1)) - expm1(-S), so one real FFT replaces the convolution
loop.  The sideband is the law of a compound Poisson sum, so its tails
obey the Chernoff bound (Chernoff, Ann. Math. Statist. 23, 493
(1952)): the output window is cut where the bound leaves at most
TAIL_EPS = 1e-15 of the mass beyond each edge (see _tail_window), and
for F_1 on [a, b] with a >= 0 it starts no lower than a.  The FFT length
is the smallest 2*3*5-smooth length covering the window, so the mass
outside it, at most 2 TAIL_EPS, is all that can alias into it.
The exponent has non-positive real part, so it cannot overflow at any S.
FFT round-off negatives are clipped to 0; a sample below -1e-12 of the
peak raises instead.  A window wider than MAX_SIDEBAND_NODES raises
ArithmeticError before the FFT grid is allocated, which bounds the work
at high T.

At finite temperature the one-phonon function gains an absorption branch,

    F_1(omega, T) = [n(omega) + 1] f(omega)      omega >= 0
                    n(|omega|) f(|omega|)        omega < 0

and the phonon count grows as S(T) = S0 int (2n+1) f domega.

The inverse problem (f from a table) is the same generating function,
solved node by node by the exponential recurrence (see _marching_solve)
and checked by one forward evaluation of the closed form.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from .gridfn import FormatError, GridFunction, integrate, parse_kv, parse_number, read_csv
from .units import thermal_energy

__all__ = [
    "thermal_occupation",
    "thermal_one_phonon",
    "huang_rhys",
    "forward_sideband",
    "extract_one_phonon",
    "thermal_overlap",
    "PsbModel",
    "DeconvolutionError",
    "check_grid",
]

# one-phonon support cap (meV): roughly the top of the phonon spectrum,
# regularizes the deconvolution
DEFAULT_SUPPORT_CAP = 200.0

# exponent guard: exp(x) for x > ~700 overflows a double
_EXP_MAX = 700.0

# work bound: the widest sideband window (nodes) built; the window grows
# as sqrt(S(T)) at high T, and on the shipped model passes the limit
# between 1e8 and 1e9 K
MAX_SIDEBAND_NODES = 1 << 21

# sideband tail mass left outside the FFT window on each side; it folds
# back into the window
TAIL_EPS = 1e-15

# work bound for every other grid sized from user input (rate lattices,
# gap, cutoff and temperature sweeps): the most nodes one call allocates,
# or rows x window products it visits
MAX_GRID_NODES = 1 << 22


class DeconvolutionError(RuntimeError):
    """Deconvolved density misses the table; carries the L1 residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def check_grid(nodes: float, what: str) -> None:
    """Refuse, before allocating it, a grid of more than MAX_GRID_NODES
    nodes (an infinite or NaN count too) with an ArithmeticError that
    names ``what`` and the limit."""
    if not nodes <= MAX_GRID_NODES:
        raise ArithmeticError(
            f"{what} needs {nodes:.6g} nodes, above the work limit of "
            f"{MAX_GRID_NODES} nodes")


def thermal_occupation(omega_mev, temperature_k: float):
    """Bose occupation n(omega, T) = 1/(e^{omega/kT} - 1).

    Scalar or vectorized in omega.  T = 0 gives 0 for any omega > 0;
    omega <= 0 with T > 0 is rejected (divergent or unphysical).
    """
    kt = thermal_energy(temperature_k)
    x = np.asarray(omega_mev, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("thermal_occupation needs omega > 0")
    out = np.zeros_like(x)
    if kt > 0.0:
        with np.errstate(over="ignore"):
            # overflow to inf is the intended saturation; occupation -> 0
            r = x / kt
        small = r < _EXP_MAX
        out[small] = 1.0 / np.expm1(r[small])
    return float(out) if np.ndim(omega_mev) == 0 else out


def thermal_one_phonon(f: GridFunction, temperature_k: float) -> GridFunction:
    """Two-sided one-phonon function F_1(omega, T) from the density f.

    Emission branch (omega >= 0) weighted by n+1, absorption branch
    (omega < 0) by n, satisfying detailed balance
    F_1(-omega) = e^{-omega/kT} F_1(omega).  At T = 0 returns f itself.
    """
    if f.omega_min < -1e-12:
        raise ValueError("one-phonon density must be supported on omega >= 0")
    if temperature_k == 0.0:
        return f
    if abs(f.omega_min) > 1e-12:
        # grid must start at 0 so the mirrored grid is node-aligned
        raise ValueError("one-phonon density grid must start at omega = 0")
    if f.values[0] != 0.0:
        raise ValueError("f(0) must be 0 for T > 0 (occupation diverges)")
    om = f.grid[1:]
    n = thermal_occupation(om, temperature_k)
    emission = f.values.copy()
    emission[1:] = (n + 1.0) * f.values[1:]
    absorption = (n * f.values[1:])[::-1]
    vals = np.concatenate([absorption, emission])
    return GridFunction(-f.omega_max, f.step, vals)


def huang_rhys(f: GridFunction, s0: float, temperature_k: float,
               omega_cap: float) -> float:
    """Temperature-dependent mean phonon count
    S(T) = S0 int_0^cap (2n+1) f domega (equals S0 at T = 0 for unit f)."""
    vals = f.values.copy()
    pos = f.grid > 0.0
    vals[pos] *= 2.0 * thermal_occupation(f.grid[pos], temperature_k) + 1.0
    # node omega = 0 contributes nothing: (2n+1) f -> 0 there for a density
    # vanishing at 0, which thermal_one_phonon enforces
    weighted = GridFunction(f.omega_min, f.step, vals)
    return s0 * integrate(weighted, 0.0, omega_cap)


def _fft_length(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n (a fast real-FFT length)."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _tail_window(p: np.ndarray, k: np.ndarray, s: float) -> tuple[float, float]:
    """Chernoff edges (x_lo, x_hi) of the compound Poisson law with jump
    weights p at node indices k: at most TAIL_EPS of its mass lies above
    x_hi, and at most TAIL_EPS below x_lo.

    With M(t) = sum p e^{tk}, P(X >= x) <= exp(s (M(t) - 1) - t x) for
    every t > 0, and P(X <= x) likewise for t < 0, so
    x(t) = (s (M(t) - 1) - ln TAIL_EPS) / t bounds the upper edge for each
    t > 0 and the lower edge for each t < 0.  |t| runs in half octaves up
    to 8 times the Gaussian optimum t_g = sqrt(2 ln(1/eps) / (s m2)),
    m2 = sum p k^2, from half of min(t_g, 1/sqrt(m2)): at small s the
    optimum falls far below t_g, towards the scale of one jump.  ln M(t)
    is a shifted log-sum-exp, so it neither overflows nor underflows; an
    M(t) too large for a double gives an infinite x, a useless but valid
    bound.
    """
    tail = -math.log(TAIL_EPS)
    m2 = float(p @ (k * k))
    t_gauss = math.sqrt(2.0 * tail / (s * m2))
    t_min = 0.5 * min(t_gauss, 1.0 / math.sqrt(m2))
    half_octaves = math.ceil(2.0 * math.log2(8.0 * t_gauss / t_min)) + 1
    t = t_min * 2.0 ** (0.5 * np.arange(half_octaves))
    t = np.concatenate([t, -t])
    pos = p > 0.0
    a = np.outer(t, k[pos])
    a += np.log(p[pos])
    top = a.max(axis=1)
    a -= top[:, None]
    np.exp(a, out=a)
    with np.errstate(over="ignore"):
        x = (s * np.expm1(top + np.log(a.sum(axis=1))) + tail) / t
    return float(np.max(x[half_octaves:])), float(np.min(x[:half_octaves]))


def _poisson_sideband(f1: GridFunction, s: float) -> GridFunction:
    """e^{-s} sum_{i>=1} (s^i/i!) F_i by one real FFT on the window that
    _tail_window bounds (see the module docstring).  h F_1 sits on a
    circular grid at index round(omega/h) mod N.
    """
    h = f1.step
    if not s > 0.0:
        if s == 0.0:
            return GridFunction(f1.omega_min, h, np.zeros(f1.size))
        raise ValueError(f"mean phonon count must be >= 0, got {s}")
    ka = round(f1.omega_min / h)
    n1 = f1.size
    weights = h * f1.values
    x_lo, x_hi = _tail_window(weights, ka + np.arange(n1, dtype=float), s)
    if ka >= 0:
        # every term i >= 1 starts at i a, so a >= 0 bounds the law below
        x_lo = max(x_lo, ka)
    # the window rounded out to whole nodes holds at most x_hi - x_lo + 3
    # of them; an infinite edge fails this test too
    if not x_hi - x_lo + 3.0 <= MAX_SIDEBAND_NODES:
        raise ArithmeticError(
            f"sideband at S = {s:.6g} needs a {x_hi - x_lo + 1:.6g}-node "
            f"window, above the work limit of {MAX_SIDEBAND_NODES} nodes")
    lo = math.floor(x_lo)
    nodes = math.ceil(x_hi) - lo + 1
    n_fft = _fft_length(max(nodes, n1))
    ring = np.zeros(n_fft)
    ring[(ka + np.arange(n1)) % n_fft] = weights
    g = np.fft.rfft(ring)
    # Re(s g^ - s) <= s (sum g - 1) = 0, so the exponent cannot overflow;
    # at small s both terms are near 1, and a difference of two expm1
    # keeps the digits a plain difference of exponentials loses
    spec = np.expm1(s * (g - 1.0)) - math.expm1(-s)
    full = np.fft.irfft(spec, n_fft) / h
    vals = np.take(full, np.arange(lo, lo + nodes), mode="wrap")
    if np.min(vals) < -1e-12 * float(np.max(vals)):
        raise ArithmeticError(
            f"closed-form sideband has negative samples down to "
            f"{np.min(vals):.3e}: FFT grid aliasing")
    # the series is non-negative; what remains below 0 is FFT round-off
    np.clip(vals, 0.0, None, out=vals)
    return GridFunction(lo * h, h, vals)


def forward_sideband(f: GridFunction, s0: float) -> GridFunction:
    """Low-temperature sideband from a one-phonon density (unit integral not
    required; f is normalized internally and s0 carries the intensity)."""
    mass = integrate(f)
    if mass <= 0:
        raise ValueError("one-phonon density must have positive mass")
    return _poisson_sideband(f.scaled(1.0 / mass), s0)


def _table_residual(f1: GridFunction, s0: float, table: GridFunction) -> float:
    """L1 distance, over the grid of ``table``, between the table and the
    forward series of the one-phonon density f1."""
    rec = forward_sideband(f1, s0)
    return float(np.trapezoid(np.abs(rec.sample(table.grid) - table.values),
                              dx=table.step))


def _marching_solve(target: np.ndarray, h: float, s0: float,
                    n_cap: int) -> np.ndarray:
    """Node-by-node solve of the discrete series on [0, cap].

    With phi(z) = sum_k f[k] z^k over node indices, the discrete series is
    the power series identity

        h e^{s0} target(z) = exp(s0 h phi(z)) - 1,

    the Lax generating function the forward map evaluates by FFT.  The
    coefficients E[k] of E = exp(G), G = s0 h phi, G[0] = 0, obey the
    power-series exponential recurrence (Knuth, TAOCP vol. 2, 4.7)

        E[k] = G[k] + rest[k],  rest[k] = (1/k) sum_{j=1..k-1} j G[j] E[k-j],

    and rest[k] depends only on nodes 1..k-1, so G[k] = h e^{s0} target[k] -
    rest[k] is marched left to right with one dot per node.  A negative
    G[k] (noise) is clipped to 0 and E[k] is rebuilt from the clipped
    value, so later nodes see the clipped density.
    """
    e_target = h * math.exp(s0) * target
    e = np.zeros(n_cap)  # E[k] of the clipped density
    g = np.zeros(n_cap)
    jg = np.zeros(n_cap)  # j G[j]
    e[0] = 1.0
    for k in range(1, n_cap):
        rest = float(np.dot(jg[1:k], e[k - 1:0:-1])) / k
        gk = e_target[k] - rest
        if gk > 0.0:
            g[k] = gk
            jg[k] = k * gk
        e[k] = g[k] + rest
    return g / (s0 * h)


def extract_one_phonon(f0: GridFunction, s0: float, *,
                       support_cap: float = DEFAULT_SUPPORT_CAP,
                       tol: float = 1e-5) -> GridFunction:
    """Recover the one-phonon density from a measured sideband.

    The target is the input rescaled to mass 1 - e^{-s0}, so any overall
    amplitude calibration of the table drops out.  On the node index the
    series is the identity h e^{s0} target(z) = exp(s0 h phi(z)) - 1 with
    phi(z) = sum_k f[k] z^k, solved left to right for f[k] by the
    power-series exponential recurrence; a node that comes out negative
    (noise) is clipped to 0, and later nodes see the clipped density.
    The density is renormalized to unit mass and checked by one forward
    evaluation of the series on the table grid, the distance that
    PsbModel.roundtrip_residual reports.  An L1 residual of
    ``tol`` or more (noise, or a table no non-negative density
    reproduces) raises DeconvolutionError.  s0 above 700 raises
    ValueError: e^{s0} would overflow.
    """
    if s0 <= 0:
        raise ValueError("s0 must be > 0")
    if s0 > _EXP_MAX:
        raise ValueError(f"s0 = {s0:g} is above {_EXP_MAX:g}: e^s0 overflows "
                         "the deconvolution")
    if abs(f0.omega_min) > 1e-9:
        raise ValueError("sideband table must start at omega = 0")
    if np.any(f0.values < -1e-12 * max(1.0, float(np.max(f0.values)))):
        raise ValueError("sideband table must be non-negative")

    h = f0.step
    mass0 = integrate(f0)
    if mass0 <= 0:
        raise ValueError("sideband table must have positive mass")
    target = f0.values * ((1.0 - math.exp(-s0)) / mass0)
    n_cap = min(f0.size, int(math.floor(support_cap / h + 1e-9)) + 1)

    f_vals = _marching_solve(target, h, s0, n_cap)
    f_mass = np.trapezoid(f_vals, dx=h)
    if f_mass <= 0:
        raise ValueError("sideband table vanishes on the one-phonon window")
    f = GridFunction(0.0, h, f_vals / f_mass)
    residual = _table_residual(f, s0, GridFunction(0.0, h, target))
    if residual >= tol:
        raise DeconvolutionError(
            f"deconvolved density reproduces the table only to L1 residual "
            f"{residual:.3e}, not below {tol:g}", residual)
    return f


def thermal_overlap(model: "PsbModel", temperature_k: float) -> GridFunction:
    """Temperature-dependent sideband in the unit-emission convention.

    Builds F_1(omega, T), normalizes it, and forms the Poisson series of
    its self-convolutions with intensity S(T) in closed form; the result
    integrates to 1 - e^{-S(T)} up to FFT round-off.  Note the model's
    amplitude calibration is NOT applied here; see
    ``PsbModel.calibrated_overlap``.
    """
    s_t = model.huang_rhys_at(temperature_k)
    f1t = thermal_one_phonon(model.f1, temperature_k)
    return _poisson_sideband(f1t.scaled(1.0 / integrate(f1t)), s_t)


@dataclasses.dataclass(frozen=True)
class PsbModel:
    """Sideband model: measured table, extracted one-phonon density,
    low-temperature phonon count and the spectral cap for S(T).

    ``scale`` is the amplitude of the source table relative to the
    unit-emission convention (integral of the raw table divided by
    1 - e^{-s0}); rate formulas evaluate scale * F so they see the
    calibrated table amplitude.
    """

    f0: GridFunction
    f1: GridFunction
    s0: float
    omega_mev: float
    scale: float = 1.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("s0 must be > 0")
        if self.omega_mev <= 0:
            raise ValueError("omega_mev must be > 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        m1 = integrate(self.f1)
        if abs(m1 - 1.0) > 1e-6:
            raise ValueError(f"one-phonon density mass {m1} != 1")
        if np.any(self.f1.values < -1e-12):
            raise ValueError("one-phonon density must be non-negative")
        m0 = integrate(self.f0)
        if abs(m0 - (1.0 - math.exp(-self.s0))) > 1e-3:
            raise ValueError(
                f"stored sideband mass {m0} is not 1 - e^-s0 within 1e-3")
        # per-instance memo for thermal overlaps; the model is immutable so
        # entries never invalidate, and sweeps reuse them heavily
        object.__setattr__(self, "_overlap_cache", {})

    # -- constructors -------------------------------------------------

    @classmethod
    def from_overlap(cls, f0_raw: GridFunction, s0: float,
                     omega_mev: float = DEFAULT_SUPPORT_CAP,
                     support_cap: float = DEFAULT_SUPPORT_CAP,
                     tol: float = 1e-5) -> "PsbModel":
        """Build from a measured sideband table in any amplitude convention.

        The default residual tolerance leaves room for the multi-phonon
        tail a finite table window cuts off.
        """
        mass = integrate(f0_raw)
        frac = 1.0 - math.exp(-s0)
        f0n = f0_raw.scaled(frac / mass)
        f1 = extract_one_phonon(f0n, s0, support_cap=support_cap, tol=tol)
        return cls(f0n, f1, s0, omega_mev, scale=mass / frac)

    @classmethod
    def from_one_phonon(cls, f1: GridFunction, s0: float,
                        omega_mev: float = DEFAULT_SUPPORT_CAP,
                        scale: float = 1.0) -> "PsbModel":
        """Build synthetically from a known one-phonon density."""
        mass = integrate(f1)
        f1n = f1.scaled(1.0 / mass)
        f0 = forward_sideband(f1n, s0)
        return cls(f0, f1n, s0, omega_mev, scale=scale)

    @classmethod
    def from_manifest(cls, path) -> "PsbModel":
        """Load from a key=value manifest naming the table CSV, s0 and
        the S(T) spectral cap (f0_csv, s0, omega_mev)."""
        p = Path(path)
        entries = parse_kv(p.read_text(encoding="utf-8"), p)
        names = {"f0_csv", "s0", "omega_mev"}
        missing = names - entries.keys()
        if missing:
            raise FormatError(f"{p}: manifest missing keys: {sorted(missing)}")
        unknown = entries.keys() - names
        if unknown:
            raise FormatError(f"{p}: unknown manifest keys: {sorted(unknown)}")
        s0, omega_mev = (parse_number(entries[k][0], f"{p}:{entries[k][1]}", f"'{k}'")
                         for k in ("s0", "omega_mev"))
        csv_path = Path(entries["f0_csv"][0])
        if not csv_path.is_absolute():
            csv_path = p.parent / csv_path
        return cls.from_overlap(read_csv(csv_path), s0, omega_mev=omega_mev)

    # -- evaluation ----------------------------------------------------

    def huang_rhys_at(self, temperature_k: float) -> float:
        return huang_rhys(self.f1, self.s0, temperature_k, self.omega_mev)

    def calibrated_overlap(self, temperature_k: float = 0.0) -> GridFunction:
        """Thermal sideband with the source-table amplitude applied."""
        key = float(temperature_k)
        cache: dict = self._overlap_cache
        if key not in cache:
            cache[key] = thermal_overlap(self, temperature_k).scaled(self.scale)
        return cache[key]

    def roundtrip_residual(self) -> float:
        """L1 distance between the stored table and the reconvolved one."""
        return _table_residual(self.f1, self.s0, self.f0)
