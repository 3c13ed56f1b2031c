"""Real-valued functions sampled on uniform energy grids.

``GridFunction`` is the numeric carrier for every sampled quantity in this
package: sideband overlap densities, one-phonon spectra, thermally
broadened overlaps and rate integrands.  Samples live on a uniform grid
``omega_min + step * i`` (meV) and the function is interpreted as piecewise
linear between nodes and identically zero outside its support.

Quadrature is trapezoidal, which is exact for that piecewise-linear
interpretation.  Discrete convolution is scaled by the grid step so that
``integrate(convolve(a, b)) == integrate(a) * integrate(b)`` holds to
rounding for functions that decay to zero at their support edges (all
physical densities here do).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GridFunction",
    "MeasuredBand",
    "IntervalSet",
    "integrate",
    "convolve",
    "resample",
    "band_intersections",
    "read_csv",
    "write_csv",
]

# Relative tolerance for grid-step equality checks.
_STEP_RTOL = 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class GridFunction:
    """Uniformly sampled function of energy.

    Parameters
    ----------
    omega_min : float
        Energy of the first sample (meV).
    step : float
        Grid spacing (meV), strictly positive.
    values : array_like
        At least two finite samples.
    """

    omega_min: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("GridFunction needs a 1-d array of >= 2 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction samples must be finite")
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError(f"grid step must be > 0, got {self.step}")
        if not np.isfinite(self.omega_min):
            raise ValueError("omega_min must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- geometry ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def omega_max(self) -> float:
        return self.omega_min + self.step * (self.values.size - 1)

    @property
    def grid(self) -> np.ndarray:
        return self.omega_min + self.step * np.arange(self.values.size)

    # -- evaluation -------------------------------------------------------

    def sample(self, omega):
        """Linear interpolation on the support, 0 at and beyond its edges.

        Accepts a scalar or an array; returns the matching shape.
        """
        x = np.asarray(omega, dtype=float)
        out = np.interp(x, self.grid, self.values, left=0.0, right=0.0)
        if np.ndim(omega) == 0:
            return float(out)
        return out

    # -- arithmetic helpers -----------------------------------------------

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.omega_min, self.step, self.values * factor)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            abs(self.step - other.step) <= _STEP_RTOL * self.step
            and abs(self.omega_min - other.omega_min) <= _STEP_RTOL * max(1.0, abs(self.omega_min))
            and self.values.size == other.values.size
        )


def integrate(g: GridFunction, lo: float | None = None, hi: float | None = None) -> float:
    """Trapezoid integral of ``g`` over [lo, hi] clipped to the support.

    Exact for the piecewise-linear interpretation of the samples; an empty
    or inverted window integrates to 0.
    """
    a = g.omega_min if lo is None else max(lo, g.omega_min)
    b = g.omega_max if hi is None else min(hi, g.omega_max)
    if not (b > a):
        return 0.0
    # interior nodes strictly inside (a, b), plus the clipped endpoints
    i0 = int(np.ceil((a - g.omega_min) / g.step - _STEP_RTOL))
    i1 = int(np.floor((b - g.omega_min) / g.step + _STEP_RTOL))
    i0 = max(i0, 0)
    i1 = min(i1, g.size - 1)
    xs = g.omega_min + g.step * np.arange(i0, i1 + 1)
    pts = [a] + [x for x in xs if a < x < b] + [b]
    vals = g.sample(np.asarray(pts))
    return float(np.trapezoid(vals, np.asarray(pts)))


def convolve(a: GridFunction, b: GridFunction) -> GridFunction:
    """Discrete linear convolution scaled by the grid step.

    Both operands must share the same step (resample first otherwise);
    the output support is exactly the sum of the input supports.
    """
    if abs(a.step - b.step) > _STEP_RTOL * a.step:
        raise ValueError(
            f"convolve needs equal grid steps, got {a.step} and {b.step}; "
            "resample one operand first"
        )
    vals = np.convolve(a.values, b.values) * a.step
    return GridFunction(a.omega_min + b.omega_min, a.step, vals)


def resample(g: GridFunction, step: float, omega_min: float | None = None,
             omega_max: float | None = None) -> GridFunction:
    """Linear resampling onto a new uniform grid (0 outside the support)."""
    if step <= 0:
        raise ValueError("step must be > 0")
    lo = g.omega_min if omega_min is None else omega_min
    hi = g.omega_max if omega_max is None else omega_max
    n = int(np.floor((hi - lo) / step + _STEP_RTOL)) + 1
    if n < 2:
        raise ValueError("resampled grid needs >= 2 nodes")
    xs = lo + step * np.arange(n)
    return GridFunction(lo, step, g.sample(xs))


def crop(g: GridFunction, lo: float, hi: float) -> GridFunction:
    """Restrict to grid nodes inside [lo, hi] (node-aligned, no interpolation)."""
    i0 = max(0, int(np.ceil((lo - g.omega_min) / g.step - _STEP_RTOL)))
    i1 = min(g.size - 1, int(np.floor((hi - g.omega_min) / g.step + _STEP_RTOL)))
    if i1 - i0 + 1 < 2:
        raise ValueError("crop window keeps fewer than 2 nodes")
    return GridFunction(g.omega_min + i0 * g.step, g.step, g.values[i0:i1 + 1])


# ---------------------------------------------------------------------------
# measured bands and interval sets


@dataclasses.dataclass(frozen=True)
class MeasuredBand:
    """A measured value with a [lo, hi] uncertainty band (same units)."""

    value: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.value <= self.hi):
            raise ValueError(
                f"band must satisfy lo <= value <= hi, got {self.lo}, {self.value}, {self.hi}"
            )

    @classmethod
    def from_sigma(cls, value: float, sigma: float) -> "MeasuredBand":
        return cls(value, value - sigma, value + sigma)


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted closed intervals on an energy axis."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(tuple(p) for p in self.intervals))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "IntervalSet":
        cleaned = sorted((float(lo), float(hi)) for lo, hi in pairs if hi >= lo)
        merged: list[list[float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def clip_below(self, floor: float) -> "IntervalSet":
        """Drop all interval content below ``floor`` (pure post-filter)."""
        kept = []
        for lo, hi in self.intervals:
            if hi < floor:
                continue
            kept.append((max(lo, floor), hi))
        return IntervalSet(tuple(kept))

    def to_csv(self, path, header_comment: str | None = None) -> None:
        lines = []
        if header_comment:
            lines.append(f"# {header_comment}")
        lines.append("lo_mev,hi_mev")
        for lo, hi in self.intervals:
            lines.append(f"{lo:.6g},{hi:.6g}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "IntervalSet":
        pairs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#") or line.startswith("lo_mev"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'lo_mev,hi_mev'")
                try:
                    pairs.append((float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric row {line!r}") from exc
        return cls.from_pairs(pairs)


def _nonneg_window(y0: float, y1: float) -> tuple[float, float] | None:
    """Parameter window t in [0,1] where (1-t) y0 + t y1 >= 0."""
    if y0 >= 0.0 and y1 >= 0.0:
        return (0.0, 1.0)
    if y0 < 0.0 and y1 < 0.0:
        return None
    t = y0 / (y0 - y1)  # root of the linear segment
    if y0 < 0.0:
        return (t, 1.0)
    return (0.0, t)


def band_intersections(lower: GridFunction, upper: GridFunction,
                       band: MeasuredBand) -> IntervalSet:
    """Axis intervals where the curve band [lower, upper] meets ``band``.

    Both curves must share one grid and satisfy lower <= upper.  Overlap
    holds where ``lower(x) <= band.hi`` and ``upper(x) >= band.lo``; the
    boundaries are located by linear interpolation within each grid cell,
    which is exact for the piecewise-linear curve model.
    """
    if not lower.same_grid(upper):
        raise ValueError("band_intersections needs lower/upper on one grid")
    if np.any(lower.values > upper.values * (1 + 1e-12) + 1e-300):
        excess = float(np.max(lower.values - upper.values))
        if excess > 1e-12 * max(1.0, float(np.max(np.abs(upper.values)))):
            raise ValueError("lower curve exceeds upper curve")

    xs = lower.grid
    f = band.hi - lower.values      # >= 0 where lower <= band.hi
    g = upper.values - band.lo      # >= 0 where upper >= band.lo
    segments: list[tuple[float, float]] = []
    for i in range(xs.size - 1):
        wf = _nonneg_window(f[i], f[i + 1])
        wg = _nonneg_window(g[i], g[i + 1])
        if wf is None or wg is None:
            continue
        t0 = max(wf[0], wg[0])
        t1 = min(wf[1], wg[1])
        if t1 >= t0:
            x0 = xs[i] + t0 * (xs[i + 1] - xs[i])
            x1 = xs[i] + t1 * (xs[i + 1] - xs[i])
            segments.append((x0, x1))
    return IntervalSet.from_pairs(segments)


# ---------------------------------------------------------------------------
# CSV interchange: "omega_meV,value" rows, '#' comments, '.' decimals


def read_csv(path) -> GridFunction:
    """Read a grid function from its two-column CSV representation.

    The omega column must be strictly increasing and equally spaced
    (tolerance 1e-9 of one step).
    """
    omegas: list[float] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) == 2 and not omegas:
                # the first row may be a column-name header
                try:
                    float(parts[0])
                except ValueError:
                    continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'omega_meV,value'")
            try:
                omegas.append(float(parts[0]))
                vals.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from exc
    if len(omegas) < 2:
        raise ValueError(f"{path}: needs at least two samples")
    om = np.asarray(omegas)
    d = np.diff(om)
    step = float(d[0])
    if step <= 0 or np.any(np.abs(d - step) > 1e-9 * step):
        raise ValueError(f"{path}: omega grid must be strictly increasing and equally spaced")
    return GridFunction(float(om[0]), step, np.asarray(vals))


def write_csv(g: GridFunction, path, header_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write("omega_meV,value\n")
        # shortest-round-trip omega column so the reader's even-grid
        # check holds for arbitrary step sizes
        for x, v in zip(g.grid, g.values):
            fh.write(f"{float(x)!r},{v:.12g}\n")
