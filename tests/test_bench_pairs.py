"""Verdicts of scripts/bench_pairs.py on synthetic paired runs (no
benchmark subprocess is started)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {"ops_per_s": {"better": "higher", "bound": 0.24},
         "op_p50_ms": {"better": "lower", "bound": 0.18}}
# base quartiles 18.1 and 18.3
BASE = [18.0, 18.1, 18.2, 18.3, 18.4, 18.2, 18.1, 18.3, 18.0, 18.4]


def runs(**metrics):
    """inverse_fit result rows, one seed per pair; each metric maps to its
    (base values, change values)."""
    return [{"seed": i + 1, "side": side, "result": {"metrics": {
        f"inverse_fit.{name}": {"value": values[j][i], "unit": "u"}
        for name, values in metrics.items()}}}
        for i in range(len(BASE)) for j, side in enumerate(("base", "change"))]


def verdict(metric, change):
    summary = bench_pairs.summarize(runs(**{metric: (BASE, change)}), SPECS)
    return summary["inverse_fit"][metric]


def test_clear_gain_within_bound():
    m = verdict("ops_per_s", [3.0 * x for x in BASE])
    assert m["change_wins"] == 10 and m["gain"] and m["within_bound"]


def test_nine_of_ten_wins_is_a_gain_eight_is_not():
    assert verdict("ops_per_s", [x + 5.0 for x in BASE[:9]] + [17.0])["gain"]
    assert not verdict("ops_per_s", [x + 5.0 for x in BASE[:8]] + [17.0, 17.0])["gain"]


def test_all_wins_inside_the_base_spread_is_no_gain():
    m = verdict("ops_per_s", [x + 0.05 for x in BASE])
    assert m["change_wins"] == 10 and not m["gain"] and m["within_bound"]


@pytest.mark.parametrize("metric, factor, within, gain", [
    ("ops_per_s", 0.77, True, False),
    ("ops_per_s", 0.75, False, False),
    ("op_p50_ms", 1.17, True, False),
    ("op_p50_ms", 1.19, False, False),
    ("op_p50_ms", 0.5, True, True),
])
def test_bound_and_gain_follow_the_better_direction(metric, factor, within, gain):
    m = verdict(metric, [factor * x for x in BASE])
    assert m["within_bound"] is within and m["gain"] is gain


def test_verdict_lines_name_failing_and_gaining_metrics():
    quiet = bench_pairs.summarize(runs(ops_per_s=(BASE, BASE)), SPECS)
    assert bench_pairs.verdict_lines(quiet) == []
    mixed = bench_pairs.summarize(runs(
        ops_per_s=(BASE, [3.0 * x for x in BASE]),
        op_p50_ms=(BASE, [2.0 * x for x in BASE])), SPECS)
    assert [ln.split(": median")[0] for ln in bench_pairs.verdict_lines(mixed)] == [
        "inverse_fit op_p50_ms: worse than its 0.18 bound",
        "inverse_fit ops_per_s: gain"]
