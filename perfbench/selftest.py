"""Short self-test of the benchmark: ``python3 perfbench/run.py --selftest``.

It checks that

1. every metric named in BENCHMARK.json is emitted, with its unit, by
   every workload (end-to-end with --trace 0, per-layer with --trace 1),
   and that traced and untraced outputs match (run.py compares them op
   by op in every traced run and counts a mismatch as a failed op);
2. a deliberately corrupted output is counted as failed, for a CLI
   invariant, for the pinned-seed reference of every CLI command, and for
   the invariants of both in-process workloads;
3. one seed gives identical generated inputs twice, also across
   processes.

Runs take a couple of seconds each; the whole test about a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import run

SECONDS = 2.0
SEED = 11


def input_digest(seed: int) -> str:
    data_dir = run.ROOT / "src" / "nvisc" / "data"
    parts = [inputs.cli_config_text(data_dir, inputs.cli_temperature(seed))]
    parts += [repr(inputs.cli_order(seed, r)) for r in range(3)]
    parts += [repr(inputs.sweep_round(seed, r)) for r in range(3)]
    parts += [repr(inputs.inverse_spec(seed, i)) for i in range(4)]
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()


def scale_csv(path: Path, factor: float, only_max: bool) -> None:
    """Multiply the value column (all rows, or the largest cell) in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, ln in enumerate(lines) if checks.NUMBER.fullmatch(ln.split(",")[0].strip())]
    if only_max:
        data = [max(data, key=lambda i: abs(float(lines[i].split(",")[-1])))]
    for i in data:
        cells = lines[i].split(",")
        cells[-1] = repr(float(cells[-1]) * factor)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corrupt_copy(src: Path, dst: Path) -> None:
    shutil.copytree(src, dst)
    csvs = sorted(dst.glob("*.csv"))
    if csvs:
        scale_csv(csvs[0], 1.001, only_max=True)
        return
    summary = dst / "summary.txt"
    lines = summary.read_text(encoding="utf-8").splitlines()
    last = checks.NUMBER.findall(lines[-1])[-1]
    head, _, tail = lines[-1].rpartition(last)
    lines[-1] = head + repr(float(last) * 1.001) + tail
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Corrupted:
    """A workload whose op outputs are altered after the op."""

    def __init__(self, wl, alter):
        self.wl, self.alter = wl, alter

    def ops(self, seed):
        return self.wl.probes()

    def run(self, item):
        return self.alter(self.wl.run(item))

    def check(self, item, out):
        return self.wl.check(item, out)


def _bad_lifetime(curves):
    return dataclasses.replace(curves, taus_ns=(curves.taus_ns[0] * 1.01,) + curves.taus_ns[1:])


def _bad_eta(out):
    model, f0, gaps, cutoff, errs, eta, ms = out
    eta = dataclasses.replace(eta, eta_mhz=eta.eta_mhz + 10.0 * eta.sigma_mhz)
    return model, f0, gaps, cutoff, errs, eta, ms


def main(bench: dict) -> int:
    failures: list[str] = []
    work = run.scratch_dir()
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    try:
        cli_raw = None
        for workload in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                row, raw, _ = run.run_workload(workload, SEED, SECONDS, trace,
                                               work / f"{workload}-{int(trace)}")
                want = {m["name"]: m["unit"] for m in bench[key]}
                got = {name: m["unit"] for name, m in row["metrics"].items()}
                if got != want:
                    failures.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
                if not row["correct"]:
                    failures.append(f"{workload} trace={int(trace)}: {row['failures'][:3]}")
                if trace and not (raw["phases"][0] and raw["phases"][1]):
                    failures.append(f"{workload}: no traced op to compare with an untraced one")
                if workload == "cli_cold" and not trace:
                    cli_raw = raw
                print(f"selftest: {workload} trace={int(trace)} ran {row['attempted']} ops",
                      file=sys.stderr)

        # corrupted CLI outputs: one invariant, then every pinned command
        probe = {p["name"]: p for p in cli_raw["probes"]}
        bad = work / "corrupt" / "psb-build"
        shutil.copytree(probe["psb-build"]["dir"], bad)
        scale_csv(bad / "psb_overlap_T.csv", 1.001, only_max=False)
        if run.cli_check("psb-build", bad, inputs.cli_temperature(inputs.PINNED_SEED)) is None:
            failures.append("a rescaled overlap table passed the mass invariant")
        for name, p in probe.items():
            dst = work / "corrupt" / f"ref-{name}"
            corrupt_copy(Path(p["dir"]), dst)
            if not run.probe_failures("cli_cold", [dict(p, dir=str(dst))], reference["cli_cold"]):
                failures.append(f"corrupted {name} output matched the reference")

        # corrupted in-process outputs go through the op loop and count
        sys.path.insert(0, str(run.ROOT / "src"))
        import worker

        data_dir = run.ROOT / "src" / "nvisc" / "data"
        (work / "inproc").mkdir()
        for cls, alter in ((worker.ThermalSweep, _bad_lifetime), (worker.InverseFit, _bad_eta)):
            ops = worker.run_phase(Corrupted(cls(data_dir, work / "inproc"), alter), SEED, 0.5)
            if not ops or any(op["error"] is None for op in ops):
                failures.append(f"corrupted {cls.__name__} outputs not all counted as failed")

        # inputs are a function of the seed alone
        if input_digest(SEED) != input_digest(SEED):
            failures.append("input generation is not repeatable in one process")
        other = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); "
             f"import selftest; print(selftest.input_digest({SEED}))"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=60)
        if other.stdout.strip() != input_digest(SEED):
            failures.append("input generation differs between processes")
        gen = [worker.InverseFit(data_dir, work / f"gen{i}") for i in range(2)]
        for i, g in enumerate(gen):
            (work / f"gen{i}").mkdir()
            g.pool(SEED, 2)
        tables = [sorted((p.name, p.read_bytes()) for p in (work / f"gen{i}").iterdir())
                  for i in range(2)]
        if tables[0] != tables[1]:
            failures.append("generated sideband tables differ for one seed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"selftest FAIL: {f}", file=sys.stderr)
    print("selftest " + ("ok" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0
