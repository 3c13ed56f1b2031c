#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 30 --out BENCH_<n>.json

Checks out ``--base`` with ``git worktree add`` under a temporary
directory, then for seeds 1 .. pairs runs
``perfbench/run.py --workload all --seed k --seconds S`` once in each
tree, alternating which side runs first (base first on even seeds).
The working tree must have no uncommitted changes to tracked files, so
the recorded ``change_head`` names the code that was measured.
Each side runs its own ``perfbench/run.py`` from its own root; the output
records whether ``perfbench/`` and ``BENCHMARK.json`` differ between the
two.  The output file holds every result line and, per workload and
end-to-end metric, each side's median and quartiles, the number of
pairs the working tree wins (ties count for neither side) and two
verdicts: ``within_bound`` (no worse than the BENCHMARK.json bound) and
``gain`` (at least 9 in 10 pairs won, medians apart by more than the
base interquartile range).  Each metric out of bound or gaining is also
printed to stderr.

Standard library only; it does not import or edit ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(tree: Path, seed: int, seconds: float) -> dict:
    """One ``--workload all`` run in ``tree``; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} (seed {seed}) exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], specs: dict) -> dict:
    """Per workload and metric: both sides' spread, the change's wins and
    two verdicts.  ``specs`` maps each end-to-end metric to its
    BENCHMARK.json entry ("better", "bound").  ``within_bound``: the
    change's median is worse than the base median by no more than the
    bound (a fraction of the base median).  ``gain``: the change wins at
    least 9 in 10 pairs and its median is better than the base median by
    more than the base interquartile range."""
    by_seed: dict = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    out: dict = {}
    for key in sorted(pairs[0]["base"]) if pairs else ():
        workload, metric = key.split(".", 1)
        base = [p["base"][key]["value"] for p in pairs]
        change = [p["change"][key]["value"] for p in pairs]
        better, bound = specs[metric]["better"], specs[metric]["bound"]
        sign = 1.0 if better == "higher" else -1.0
        b, c = spread(base), spread(change)
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
        out.setdefault(workload, {})[metric] = {
            "unit": pairs[0]["base"][key]["unit"],
            "better": better,
            "bound": bound,
            "base": b,
            "change": c,
            "change_wins": wins,
            "pairs": len(pairs),
            "within_bound": sign * (c["median"] - b["median"]) >= -bound * abs(b["median"]),
            "gain": (10 * wins >= 9 * len(pairs)
                     and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]),
            "per_pair": [{"base": x, "change": y} for x, y in zip(base, change)],
        }
    return out


def verdict_lines(summary: dict) -> list[str]:
    """One line per workload and metric that is out of bound or gains."""
    lines = []
    for workload, metrics in summary.items():
        for metric, m in metrics.items():
            verdicts = ([] if m["within_bound"] else [f"worse than its {m['bound']:g} bound"]) \
                + (["gain"] if m["gain"] else [])
            if not verdicts:
                continue
            lines.append(
                f"{workload} {metric}: {', '.join(verdicts)}: median {m['base']['median']:.4g} -> "
                f"{m['change']['median']:.4g} {m['unit']}, base IQR "
                f"{m['base']['q3'] - m['base']['q1']:.3g}, change wins "
                f"{m['change_wins']}/{m['pairs']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if git("status", "--porcelain", "--untracked-files=no"):
        ap.error("the working tree has uncommitted changes; commit them so "
                 "change_head names the measured code")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    header = {
        "base": args.base,
        "base_commit": base_sha,
        "change_head": git("rev-parse", "HEAD"),
        "benchmark_identical": subprocess.run(
            ["git", "diff", "--quiet", base_sha, "--", "perfbench", "BENCHMARK.json"],
            cwd=ROOT).returncode == 0,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
    }
    runs: list[dict] = []

    def save() -> None:
        # rewritten after every run, so an interrupted session keeps its pairs
        payload = {**header, "runs": runs, "summary": summarize(runs, specs)}
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), base_sha)
        try:
            for seed in range(1, args.pairs + 1):
                order = ("base", "change") if seed % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    result = run_bench(tree, seed, args.seconds)
                    runs.append({"seed": seed, "side": side,
                                 "first": side == order[0], "result": result})
                    save()
                    print(f"seed {seed} {side}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr, flush=True)
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    for line in verdict_lines(summarize(runs, specs)):
        print(line, file=sys.stderr)
    return 0 if all(r["result"]["correct"] and r["result"]["failed"] == 0
                    for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
