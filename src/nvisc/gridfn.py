"""Real-valued functions sampled on uniform energy grids.

``GridFunction`` is the numeric carrier for every sampled quantity in this
package: sideband overlap densities, one-phonon spectra, thermally
broadened overlaps and rate integrands.  Samples live on a uniform grid
``omega_min + step * i`` (meV) and the function is interpreted as piecewise
linear between nodes and identically zero outside its support.

Quadrature is trapezoidal, which is exact for that piecewise-linear
interpretation.  Convolutions are not built here: the sideband series is
a closed form in ``psb``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GridFunction",
    "MeasuredBand",
    "IntervalSet",
    "integrate",
    "band_intersections",
    "FormatError",
    "parse_number",
    "parse_kv",
    "read_table",
    "write_table",
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

    @functools.cached_property
    def grid(self) -> np.ndarray:
        grid = self.omega_min + self.step * np.arange(self.values.size)
        grid.setflags(write=False)
        return grid

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
    pts = np.concatenate(([a], xs[(xs > a) & (xs < b)], [b]))
    return float(np.trapezoid(g.sample(pts), pts))


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

    def clip_below(self, floor: float) -> "IntervalSet":
        """Drop all interval content below ``floor`` (pure post-filter)."""
        kept = []
        for lo, hi in self.intervals:
            if hi < floor:
                continue
            kept.append((max(lo, floor), hi))
        return IntervalSet(tuple(kept))


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
# interchange: comma-separated tables and flat "key = value" files, '#'
# comments, '.' decimals; every input error cites source:line


class FormatError(ValueError):
    """Malformed input table, manifest or config line."""


def parse_number(text: str, where: str, what: str) -> float:
    """``float(text)``, rejecting malformed and non-finite values with a
    FormatError that cites ``where`` (source:line) and ``what``."""
    try:
        x = float(text)
    except ValueError:
        raise FormatError(f"{where}: malformed number for {what}: {text!r}") from None
    if not math.isfinite(x):
        raise FormatError(f"{where}: non-finite number for {what}: {text!r}")
    return x


def parse_kv(text: str, source) -> dict[str, tuple[str, int]]:
    """``key = value`` lines as {key: (value, lineno)}; blank lines and
    '#' comments are skipped, a line without '=' or a repeated key raises."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in entries:
            raise FormatError(f"{source}:{lineno}: duplicate key '{key}'")
        entries[key] = (val.strip(), lineno)
    return entries


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_table(path, ncols: int, text_cols: Sequence[int] = ()) -> list:
    """Columns of a comma-separated table with ``ncols`` fields per row.

    Blank lines, '#' comments and a first row with no numeric cell (the
    column names) are skipped.  Columns listed in ``text_cols`` come back
    as tuples of stripped strings, the others as float arrays.  A wrong
    field count, a malformed or non-finite number and a table without
    rows raise FormatError citing path:line.
    """
    rows: list[list[str]] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != ncols:
                raise FormatError(f"{path}:{lineno}: expected {ncols} "
                                  f"comma-separated fields, got {len(parts)}")
            rows.append(parts)
            linenos.append(lineno)
    numeric = [c for c in range(ncols) if c not in text_cols]
    if rows and not any(_is_number(rows[0][c]) for c in numeric):
        del rows[0], linenos[0]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    cols: list = list(zip(*rows))
    try:
        for c in numeric:
            cols[c] = np.array([float(cell) for cell in cols[c]])
        finite = all(np.all(np.isfinite(cols[c])) for c in numeric)
    except ValueError:
        finite = False
    if not finite:
        # find the first offending cell for the message
        for parts, lineno in zip(rows, linenos):
            for c in numeric:
                parse_number(parts[c], f"{path}:{lineno}", f"column {c + 1}")
    for c in text_cols:
        cols[c] = tuple(cell.strip() for cell in cols[c])
    return cols


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, columns: Sequence[tuple[str, str]], rows,
                header_comment: str | None = None) -> None:
    """Write ``rows`` under a column-name row, atomically.

    ``columns`` holds (name, format spec) pairs; the spec '' prints a
    float as its shortest round-trip repr.  Each line of
    ``header_comment`` becomes a '#' line above the column names.
    """
    fmt = ",".join(f"{{{i}:{spec}}}" for i, (_, spec) in enumerate(columns)).format
    lines = [f"# {ln}" for ln in header_comment.splitlines()] if header_comment else []
    lines.append(",".join(name for name, _ in columns))
    lines.extend(fmt(*row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path) -> GridFunction:
    """Read a grid function from its two-column CSV representation.

    The omega column must be strictly increasing and equally spaced
    (tolerance 1e-9 of one step).
    """
    om, vals = read_table(path, 2)
    if om.size < 2:
        raise FormatError(f"{path}: needs at least two samples")
    d = np.diff(om)
    step = float(d[0])
    if step <= 0 or np.any(np.abs(d - step) > 1e-9 * step):
        raise FormatError(f"{path}: omega grid must be strictly increasing and equally spaced")
    return GridFunction(float(om[0]), step, vals)


def write_csv(g: GridFunction, path, header_comment: str | None = None,
              columns: tuple[str, str] = ("omega_meV", "value")) -> None:
    # shortest-round-trip omega column so the reader's even-grid check
    # holds for arbitrary step sizes
    write_table(path, ((columns[0], ""), (columns[1], ".12g")),
                zip(g.grid.tolist(), g.values.tolist()), header_comment)
