"""Golden regression: rerun the full analysis chain and compare with
tests/golden/.

The tracked ``tests/golden/`` tree is the output of
``scripts/run_full_analysis.py`` (its ``out/`` directory) on the packaged
configuration.  Every command of that chain is rerun here
through ``cli.main`` into a temporary directory and compared file by file:

* ``summary.txt`` text must match exactly; its numbers may differ by at
  most one unit in their last printed digit (a value on a rounding
  boundary can print either way).  Integers must match exactly.
* CSV cells pass when |new - ref| <= 1e-9 |ref| + 1e-12 max|column|.  The
  relative term absorbs last-digit differences between platforms, the
  column term absorbs round-off in deep tails whose values sit near 1e-300.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nvisc import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "run_full_analysis", ROOT / "scripts" / "run_full_analysis.py")
_chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_chain)
STEPS = {(s[0] if s[0] != "sweep" else "sweep-" + s[1]): s for s in _chain.STEPS}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-9
COLUMN_TOL = 1e-12


def last_digit_unit(token: str) -> float:
    """One unit in the last printed digit of a numeric token (0 for an
    integer, which must match exactly)."""
    mantissa, _, exponent = token.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_text(new: str, ref: str, where: str) -> None:
    new_lines, ref_lines = new.splitlines(), ref.splitlines()
    assert len(new_lines) == len(ref_lines), f"{where}: line count differs"
    for lineno, (a, b) in enumerate(zip(new_lines, ref_lines), 1):
        assert _NUMBER.split(a) == _NUMBER.split(b), \
            f"{where}:{lineno}: text differs\n  new: {a}\n  ref: {b}"
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            assert abs(float(x) - float(y)) <= last_digit_unit(y) * (1 + 1e-9), \
                f"{where}:{lineno}: {x} != {y} at printed precision"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(new: str, ref: str, where: str) -> None:
    new_rows = [ln for ln in new.splitlines() if ln.startswith("#")]
    ref_rows = [ln for ln in ref.splitlines() if ln.startswith("#")]
    compare_text("\n".join(new_rows), "\n".join(ref_rows), where + " header")
    new_rows = [ln.split(",") for ln in new.splitlines() if not ln.startswith("#")]
    ref_rows = [ln.split(",") for ln in ref.splitlines() if not ln.startswith("#")]
    assert len(new_rows) == len(ref_rows), f"{where}: row count differs"
    new_cells = [[_cell(c) for c in row] for row in new_rows]
    ref_cells = [[_cell(c) for c in row] for row in ref_rows]
    width = max(len(row) for row in ref_cells)
    col_max = [max((abs(row[j]) for row in ref_cells
                    if j < len(row) and isinstance(row[j], float)
                    and math.isfinite(row[j])), default=0.0)
               for j in range(width)]
    for i, (a_row, b_row) in enumerate(zip(new_cells, ref_cells)):
        assert len(a_row) == len(b_row), f"{where}: row {i} width differs"
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if isinstance(b, str) or isinstance(a, str) or not math.isfinite(b):
                assert a == b or (a != a and b != b), \
                    f"{where}: row {i} col {j}: {a!r} != {b!r}"
                continue
            tol = REL_TOL * abs(b) + COLUMN_TOL * col_max[j]
            assert abs(a - b) <= tol, \
                f"{where}: row {i} col {j}: {a!r} vs {b!r} (tol {tol:.3g})"


def test_golden_tree_covers_the_chain():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(STEPS)


def test_chain_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every command exits 0 in a
    # process where importing scipy fails
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from nvisc import cli\n"
        f"steps, out = {list(STEPS.items())!r}, {str(tmp_path)!r}\n"
        "print(json.dumps({name: cli.main(args + ['--config', 'default', '--out',\n"
        "                  out + '/' + name, '--quiet']) for name, args in steps}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=False)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == {name: 0 for name in STEPS}


@pytest.mark.parametrize("name", sorted(STEPS))
def test_chain_matches_golden(name, tmp_path):
    outdir = tmp_path / name
    rc = cli.main(STEPS[name] + ["--config", "default", "--out", str(outdir),
                                 "--quiet"])
    assert rc == 0
    produced = sorted(p.name for p in outdir.iterdir())
    assert produced == sorted(p.name for p in (GOLDEN / name).iterdir())
    for fname in produced:
        new = (outdir / fname).read_text(encoding="utf-8")
        ref = (GOLDEN / name / fname).read_text(encoding="utf-8")
        where = f"{name}/{fname}"
        if fname.endswith(".csv"):
            compare_csv(new, ref, where)
        else:
            compare_text(new, ref, where)


def test_shipped_data_is_reproducible(tmp_path):
    """scripts/make_reference_data.py rewrites src/nvisc/data byte for byte."""
    spec = importlib.util.spec_from_file_location(
        "make_reference_data", ROOT / "scripts" / "make_reference_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path)]) == 0
    data = ROOT / "src" / "nvisc" / "data"
    shipped = sorted(p.name for p in data.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name


GENERATOR = ROOT / "scripts" / "make_reference_data.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("make_reference_data", GENERATOR)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_generator_objective_is_finite(generator):
    # the --tune objective at the frozen shape: 84 terms, 73 of them the
    # 4 meV plateau nodes
    r = generator.residuals(generator.pack(generator.SHAPE))
    assert r.shape == (84,) and np.all(np.isfinite(r))


def test_generator_anchors_match_golden(generator):
    # the tuning anchors are the package analyses the CLI runs on the
    # shipped table, so they agree with the golden summaries at print
    # precision
    d = generator.diagnostics(generator.SHAPE)
    raw = ", ".join(f"[{a:.1f}, {b:.1f}]" for a, b in d["intervals"])
    assert (f"raw intervals (meV): {raw}\n"
            in (GOLDEN / "infer-delta" / "summary.txt").read_text())
    assert (f"Gamma_A1/2pi = {d['nu_a1_392']:.6g} MHz "
            in (GOLDEN / "rate-a1" / "summary.txt").read_text())
    assert (f"at Delta = 392 meV: {d['sens_392']:.6g} MHz/meV"
            in (GOLDEN / "sensitivity" / "summary.txt").read_text())


def test_generator_check_runs_without_scipy():
    # only --tune needs scipy
    code = ("import runpy, sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.argv = ['make_reference_data.py', '--check']\n"
            f"runpy.run_path({str(GENERATOR)!r}, run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=False)
    assert res.returncode == 0, res.stderr
    assert "nu_a1_392: 16.4742" in res.stdout
