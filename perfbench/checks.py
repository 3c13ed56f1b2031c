"""Output checks for the benchmark (standard library only).

Two kinds of check:

- invariants that hold for every seed (mass identities, closed forms,
  row counts, recovered generating parameters), in ``check_cli`` and in
  worker.py for the in-process workloads;
- comparison with the pinned seed's stored values (reference.json),
  numerical and tolerant: ``fingerprint`` reduces a CLI output directory
  to numbers that survive a change of grid length or of printing, and
  ``compare_fingerprint`` / ``compare_values`` compare them.

Default relative tolerance 1e-9 admits refactors accurate to 1e-12
(closed-form Poisson sum) or 7e-12 (polylog) and rejects any wrong
answer that moves a printed digit beyond rounding.  Summary numbers are
compared at their printed precision (at least six significant digits).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

NUMBER = re.compile(r"(?<![A-Za-z_\d.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
RTOL = 1e-9
SUMMARY_RTOL = 1.01e-5
# files up to this many rows are compared cell by cell, longer ones by
# integrals, moments and interpolated samples
SMALL_TABLE = 200
SAMPLES = 9

# the fitted Mott-Seitz curve may move with the optimiser, as its
# parameters do in VALUE_TOL
TABLE_RTOL = {"mott_seitz_curve.csv": 1e-6}

# in-process reference values: key prefix -> (rtol, atol).  The L1 error
# of the recovered density is ~1e-6 itself, so it gets an absolute
# tolerance; the Mott-Seitz fit is loosened to what a different optimiser
# converging to the same minimum would give.
VALUE_TOL = {
    "f1_l1": (0.0, 1e-9),
    "ms.delta_e": (1e-6, 0.0),
    "ms.s": (1e-6, 0.0),
    "ms.sigma": (1e-2, 0.0),
}


def numbers(text: str) -> list[float]:
    return [float(m) for m in NUMBER.findall(text)]


def significant_digits(token: str) -> int:
    mant = token.lstrip("+-").split("e")[0].split("E")[0].replace(".", "").lstrip("0")
    return max(len(mant), 1)


def summary_map(text: str) -> dict[str, list[list[float]]]:
    """Summary lines keyed by their text with numbers masked; the config
    path line is dropped because it names the checkout."""
    out: dict[str, list[list[float]]] = {}
    for line in text.splitlines():
        if line.startswith("config:"):
            continue
        key = NUMBER.sub("#", line)
        out.setdefault(key, []).append(numbers(line))
    return out


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """CSV rows as strings, '#' comments and the column header skipped."""
    header, rows = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if not header and not NUMBER.fullmatch(cells[0]):
            header = cells
            continue
        rows.append(cells)
    return header, rows


def numeric_columns(rows: list[list[str]]) -> list[list[float]]:
    cols = []
    for j in range(len(rows[0]) if rows else 0):
        try:
            cols.append([float(r[j]) for r in rows])
        except ValueError:
            continue
    return cols


def trapz(xs, ys) -> float:
    return sum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def interp(xs, ys, x: float) -> float:
    if x <= xs[0] or x >= xs[-1]:
        return ys[0] if x <= xs[0] else ys[-1]
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if xs[mid] <= x else (lo, mid)
    t = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + t * (ys[hi] - ys[lo])


# ---------------------------------------------------------------------------
# fingerprints of CLI output directories


def column_fingerprint(xs, ys) -> dict:
    probes = [xs[0] + k * (xs[-1] - xs[0]) / (SAMPLES - 1) for k in range(SAMPLES)]
    return {
        "integral": trapz(xs, ys),
        "l1": trapz(xs, [abs(y) for y in ys]),
        "moment": trapz(xs, [x * y for x, y in zip(xs, ys)]),
        "span": max(abs(xs[0]), abs(xs[-1])),
        "max": max(abs(y) for y in ys),
        "samples": [[x, interp(xs, ys, x)] for x in probes],
    }


def table_fingerprint(path: Path) -> dict:
    _, rows = read_table(path)
    if len(rows) <= SMALL_TABLE:
        return {"rows": rows}
    xs, *cols = numeric_columns(rows)
    return {"columns": [column_fingerprint(xs, ys) for ys in cols]}


def fingerprint(outdir: Path) -> dict:
    outdir = Path(outdir)
    return {
        "summary": summary_map((outdir / "summary.txt").read_text(encoding="utf-8")),
        "tables": {p.name: table_fingerprint(p) for p in sorted(outdir.glob("*.csv"))},
    }


def _close(got: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - ref) <= rtol * abs(ref) + atol


def _compare_rows(name, ref_rows, rows) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    errors = []
    for j in range(len(ref_rows[0]) if ref_rows else 0):
        col = [r[j] for r in ref_rows]
        try:
            ref_vals = [float(c) for c in col]
        except ValueError:
            if [r[j] for r in rows] != col:
                errors.append(f"{name}: column {j} differs")
            continue
        rtol = max(TABLE_RTOL.get(name, RTOL),
                   1.01 * 10.0 ** (1 - max(significant_digits(c) for c in col)))
        atol = 1e-12 * max(abs(v) for v in ref_vals)
        for i, (r, ref) in enumerate(zip(rows, ref_vals)):
            if not _close(float(r[j]), ref, rtol, atol):
                errors.append(f"{name}: row {i} column {j} = {r[j]}, reference {col[i]}")
                break
    return errors


def _compare_columns(name, ref_cols, path) -> list[str]:
    xs, *cols = numeric_columns(read_table(path)[1])
    if len(cols) != len(ref_cols):
        return [f"{name}: table shape changed"]
    errors = []
    for j, (ref, ys) in enumerate(zip(ref_cols, cols)):
        new = column_fingerprint(xs, ys)
        scale = ref["l1"]
        checks = [("integral", new["integral"], ref["integral"], scale),
                  ("l1", new["l1"], ref["l1"], scale),
                  ("moment", new["moment"], ref["moment"], scale * ref["span"])]
        checks += [(f"value at {x:g}", interp(xs, ys, x), v, ref["max"])
                   for x, v in ref["samples"]]
        for what, a, b, s in checks:
            if abs(a - b) > RTOL * s:
                errors.append(f"{name}: column {j + 1} {what} = {a!r}, reference {b!r}")
    return errors


def compare_fingerprint(ref: dict, outdir: Path) -> list[str]:
    """Every reference summary line and table must be present and agree;
    lines and files the reference does not know are ignored."""
    outdir = Path(outdir)
    errors = []
    got = summary_map((outdir / "summary.txt").read_text(encoding="utf-8"))
    for key, ref_lines in ref["summary"].items():
        lines = got.get(key)
        if lines is None or len(lines) != len(ref_lines):
            errors.append(f"summary line {key!r} missing or repeated differently")
            continue
        for nums, ref_nums in zip(lines, ref_lines):
            if not all(_close(a, b, SUMMARY_RTOL) for a, b in zip(nums, ref_nums)):
                errors.append(f"summary {key!r}: {nums} vs reference {ref_nums}")
    for name, fp in ref["tables"].items():
        path = outdir / name
        if not path.is_file():
            errors.append(f"{name} missing")
        elif "rows" in fp:
            errors += _compare_rows(name, fp["rows"], read_table(path)[1])
        else:
            errors += _compare_columns(name, fp["columns"], path)
    return errors


def compare_values(ref: dict, got: dict) -> list[str]:
    errors = []
    if sorted(ref) != sorted(got):
        return [f"value keys {sorted(got)} differ from reference {sorted(ref)}"]
    for key, b in ref.items():
        rtol, atol = next((tol for prefix, tol in VALUE_TOL.items()
                           if key.startswith(prefix)), (RTOL, 0.0))
        if not _close(got[key], b, rtol, atol):
            errors.append(f"{key} = {got[key]!r}, reference {b!r}")
    return errors


# ---------------------------------------------------------------------------
# invariants of CLI outputs, for every seed

# allowed row counts; grids laid out as ceil(span / step) + 1 nodes get
# one more node when the quotient rounds just above a whole number
EXPECTED_ROWS = {
    "one_phonon_density.csv": (401,),
    "rate_e12_spectral.csv": (8501, 8502),
    "mix_spectral.csv": (4001, 4002),
    "lowt_error_vs_delta.csv": (31,),
    "lowt_error_vs_omega.csv": (11,),
    "omega_interval.csv": (1,),
    "lifetimes.csv": (6,),
    "mott_seitz_curve.csv": (101,),
    "lifetime_vs_T.csv": (102,),
}
# generating parameters of the packaged synthetic series
ETA_TRUE = 44.0
DELTA_E_TRUE = 0.48


def _line(summary: str, prefix: str) -> str:
    for line in summary.splitlines():
        if line.startswith(prefix):
            return line
    raise ValueError(f"summary has no line starting {prefix!r}")


def _after(line: str, marker: str = "=") -> list[float]:
    return numbers(line.split(marker, 1)[1])


def _xy(outdir: Path, name: str) -> tuple[list[float], list[float]]:
    _, rows = read_table(outdir / name)
    xs, ys = numeric_columns(rows)[:2]
    return xs, ys


def _grid_problem(name, xs, ys) -> str | None:
    step = xs[1] - xs[0]
    if step <= 0 or any(abs((b - a) - step) > 1e-6 * step for a, b in zip(xs, xs[1:])):
        return f"{name}: grid not evenly spaced"
    if not all(math.isfinite(y) for y in ys):
        return f"{name}: non-finite value"
    return None


def _lifetime_problem(name, rows) -> str | None:
    by_t: dict[float, dict] = {}
    for t, cls, eps, tau in rows:
        if not float(tau) > 0:
            return f"{name}: lifetime {tau} at T = {t}"
        by_t.setdefault(float(t), {})[(cls, float(eps))] = 1.0 / float(tau)
    for t, rate in by_t.items():
        ms0 = sorted(v for (c, _), v in rate.items() if c == "ms0")
        ms1 = [v for (c, _), v in sorted(rate.items()) if c == "ms1"]
        if ms0[-1] - ms0[0] > 1e-8 * ms0[0] or any(b < a * (1 - 1e-8) for a, b in zip(ms1, ms1[1:])) \
                or ms1[-1] < ms0[0] * (1 - 1e-8):
            return f"{name}: lifetimes break the rate composition at T = {t}"
    return None


def check_cli(name: str, outdir: Path, temperature_k: float) -> str | None:
    """First broken invariant of one command's outputs, or None."""
    outdir = Path(outdir)
    s = (outdir / "summary.txt").read_text(encoding="utf-8")
    if not s.startswith(f"command: {name.replace('-lifetime', ' lifetime')}\n"):
        return "summary.txt does not name the command"
    for fname, allowed in EXPECTED_ROWS.items():
        if (outdir / fname).is_file():
            n = len(read_table(outdir / fname)[1])
            if n not in allowed:
                return f"{fname}: {n} rows, expected {' or '.join(map(str, allowed))}"

    if name == "psb-build":
        scale = _after(_line(s, "amplitude scale"))[0]
        s0 = _after(_line(s, "sideband intensity"))[0]
        s_t = _after(_line(s, "S("))[0]
        for fname, s_k, label in (("psb_overlap_0K.csv", s0, "overlap mass 0 K"),
                                  ("psb_overlap_T.csv", s_t, f"overlap mass {temperature_k:g} K")):
            xs, ys = _xy(outdir, fname)
            bad = _grid_problem(fname, xs, ys)
            if bad:
                return bad
            mass = trapz(xs, ys)
            if not _close(mass, scale * (1.0 - math.exp(-s_k)), 1e-5):
                return f"{fname}: mass {mass!r} != scale (1 - e^-S)"
            if not _close(mass, _after(_line(s, label))[0], 1e-7):
                return f"{fname}: mass {mass!r} != summary"
    elif name == "deconvolve":
        xs, ys = _xy(outdir, "one_phonon_density.csv")
        if _grid_problem("density", xs, ys) or min(ys) < -1e-12 or not _close(trapz(xs, ys), 1.0, 1e-6):
            return "one-phonon density is not a unit-mass density"
    elif name in ("rate-a1", "mix"):
        v, lo, hi = _after(_line(s, "Gamma_A1" if name == "rate-a1" else "two-phonon"))[:3]
        if not (0 < lo <= v <= hi):
            return f"rate {v} outside its band [{lo}, {hi}]"
    elif name == "rate-e12":
        xs, ys = _xy(outdir, "rate_e12_spectral.csv")
        total = trapz(xs, ys)
        warm = _after(_line(s, f"Gamma_E12/2pi (T = {temperature_k:g} K)"), "K) =")[0]
        if not (_close(total, _after(_line(s, "spectral file"), "integrates to")[0], 1e-5) and _close(total, warm, 1e-5)):
            return f"spectral integral {total!r} != finite-T rate {warm!r}"
    elif name == "ratio":
        plain = _after(_line(s, "Gamma_E12/Gamma_A1"))[0]
        corr = _after([ln for ln in s.splitlines() if "interference" in ln][0])[0]
        pct = _after(_line(s, "correction"))[0]
        if not (0 < corr < plain and _close(pct, 100.0 * (1.0 - corr / plain), 2e-3)):
            return "interference correction inconsistent"
    elif name == "mix-spectral":
        integral, closed = _after(_line(s, "spectral integral"))[:2]
        xs, ys = _xy(outdir, "mix_spectral.csv")
        if not (_close(integral, closed, 2e-5) and _close(trapz(xs, ys), integral, 2e-5)):
            return f"spectral integral {integral} != closed form {closed}"
    elif name == "extract-eta":
        eta, sigma = _after(_line(s, "eta = "))[:2]
        if abs(eta - ETA_TRUE) > 5.0 * sigma:
            return f"eta {eta} +- {sigma} misses the generating {ETA_TRUE}"
    elif name == "infer-delta":
        _, rows = read_table(outdir / "delta_intervals.csv")
        if not rows or any(not 148.0 - 1e-6 <= float(a) <= float(b) for a, b in rows):
            return "gap intervals empty, inverted or below the exclusion floor"
    elif name == "infer-omega":
        (lo, hi), = [(float(a), float(b)) for a, b in read_table(outdir / "omega_interval.csv")[1]]
        if not 0.0 <= lo <= hi <= 150.0:
            return f"cutoff interval [{lo}, {hi}] outside [0, 150] meV"
    elif name == "lowt-error":
        for fname in ("lowt_error_vs_delta.csv", "lowt_error_vs_omega.csv"):
            xs, ys = _xy(outdir, fname)
            if _grid_problem(fname, xs, ys) or min(ys) < 0:
                return f"{fname}: invalid relative errors"
    elif name in ("lifetime", "sweep-lifetime"):
        fname = "lifetimes.csv" if name == "lifetime" else "lifetime_vs_T.csv"
        return _lifetime_problem(fname, read_table(outdir / fname)[1])
    elif name == "fit-mott-seitz":
        de, sigma = _after(_line(s, "activation energy"))[:2]
        _, taus = _xy(outdir, "mott_seitz_curve.csv")
        if abs(de - DELTA_E_TRUE) > 5.0 * sigma or any(b > a for a, b in zip(taus, taus[1:])):
            return f"activation energy {de} +- {sigma} misses {DELTA_E_TRUE} or curve not falling"
    elif name == "sensitivity":
        full = _after(_line(s, "averaged-crossing-rate"), ":")[0]
        half = _after(_line(s, "step-halving"), ":")[0]
        if not (full > 0 and _close(half, full, 1e-2)):
            return f"finite-difference slopes {full} and {half} disagree"
    return None
