"""Benchmark of the nvisc package and CLI, measured from outside.

Run from the root of a checkout (the directory holding BENCHMARK.json
and src/nvisc):

    python3 perfbench/run.py --workload thermal_sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-reference

Workloads (closed loops, one client, one load-generating process):

- cli_cold: the 15-command analysis chain, one fresh ``python -m
  nvisc.cli`` process per op, in an order shuffled by the seed, on a
  generated config whose temperature is drawn by the seed.
- thermal_sweep: ``inference.lifetime_curves`` at one temperature per
  op in a warm process; temperatures stratified over 0-2000 K.
- inverse_fit: one seeded inverse problem per op in a warm process
  (model load with deconvolution, gap and cutoff inference, low-T error
  map, coupling and Mott-Seitz fits).

``--trace 0`` prints the end-to-end metrics, with times corrected to a
reference CPU speed (calib.py); ``--trace 1`` prints the per-layer
metrics of a second, traced pass over the same inputs.  The last line of
stdout is one JSON object (correct, attempted, failed, metrics); a
fuller row, with the tail percentile, sample counts, failures and the
environment, goes to .perfbench/results/.  Ops that exit non-zero, raise
or break an output invariant count as failed; after every run the pinned
seed's first ops are replayed and compared with reference.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calib
import checks
import inputs
from cli_shim import step_name

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PY = sys.executable
WORKLOADS = ("cli_cold", "thermal_sweep", "inverse_fit")
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer self time (ms per op) -> span names recorded by tracer.py
SELF_TIME = {
    "cli.config_ms": ["cli.config"],
    "cli.self_ms": ["cli.main"],
    "io.read_ms": ["io.read"],
    "io.write_ms": ["io.write"],
    "psb.load_ms": ["psb.load"],
    "psb.extract_ms": ["psb.extract"],
    "psb.overlap_ms": ["psb.overlap", "psb.overlap_lookup"],
    "psb.forward_ms": ["psb.forward"],
    "gridfn.convolve_ms": ["gridfn.convolve"],
    "gridfn.sample_ms": ["gridfn.sample"],
    "rates.a1_ms": ["rates.a1"],
    "rates.e12_lowt_ms": ["rates.e12_lowt"],
    "rates.e12_finite_ms": ["rates.e12_finite", "rates.e12_spectral"],
    "mixing.alpha_ms": ["mixing.alpha"],
    "mixing.rate_ms": ["mixing.rate"],
    "mixing.eta_fit_ms": ["mixing.eta_fit"],
    "inference.delta_ms": ["inference.delta"],
    "inference.omega_ms": ["inference.omega"],
    "inference.lowt_map_ms": ["inference.lowt_map"],
    "inference.mott_seitz_ms": ["inference.mott_seitz"],
    "inference.lifetime_ms": ["inference.lifetime"],
    "inference.sensitivity_ms": ["inference.sensitivity"],
    "op.unattributed_ms": ["op", "shim"],
}
# calls per op -> span name
CALLS = {
    "psb.overlap_calls": "psb.overlap",
    "gridfn.convolve_calls": "gridfn.convolve",
    "gridfn.sample_calls": "gridfn.sample",
    "rates.e12_finite_calls": "rates.e12_finite",
    "mixing.alpha_calls": "mixing.alpha",
}
PER_LAYER = {
    "import.cli_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    **{name: "ms/op" for name in SELF_TIME},
    **{name: "calls/op" for name in CALLS},
    "psb.overlap_hit_ratio": "ratio",
    "psb.overlap_nodes": "nodes/op",
    "gridfn.convolve_mb": "MB/op",
    "trace.overhead_ratio": "ratio",
}

LIMITS = [
    "the page cache cannot be dropped: cli_cold is a cold process on a warm cache",
    "no CPU frequency control",
    "shared machine; other tenants' load is not controlled",
]


@dataclasses.dataclass
class Child:
    rc: int
    start: float
    end: float
    rss_mb: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, timeout: float, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
          start: float | None = None) -> Child:
    """Run ``cmd`` to completion; wall time and the child's own peak RSS
    (from wait4, so other children do not mix in)."""
    start = perf_counter() if start is None else start
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0)


def parse_importtime(text: str) -> dict:
    """Self time (ms) of numpy and scipy modules anywhere, and of the other
    modules imported under a top-level ``nvisc`` import."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, self_us, _, name = (p for p in line.replace("import time:", "|").split("|"))
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        lines.append((depth, name.strip(), int(self_us) / 1e3))
    numpy = sum(ms for _, n, ms in lines if n == "numpy" or n.startswith("numpy."))
    scipy = sum(ms for _, n, ms in lines if n == "scipy" or n.startswith("scipy."))
    own, subtree = 0.0, []
    for depth, name, ms in lines:
        subtree.append((name, ms))
        if depth == 0:
            if name.split(".")[0] == "nvisc":
                own += sum(m for n, m in subtree if n.split(".")[0] not in ("numpy", "scipy"))
            subtree = []
    return {"import.cli_ms": own, "import.scipy_ms": scipy, "import.numpy_ms": numpy}


# ---------------------------------------------------------------------------
# cli_cold


def cli_op(k: int, step, cfg: Path, temperature: float, phase_dir: Path, traced: bool) -> dict:
    name = step_name(step)
    out = phase_dir / f"{k:03d}-{name}"
    argv = step + ["--config", cfg, "--out", out, "--quiet"]
    err_path = phase_dir / f"{k:03d}.stderr"
    spans_path = phase_dir / f"{k:03d}.spans.json"
    if traced:
        cmd = [PY, "-X", "importtime", HERE / "cli_shim.py", "--spans", spans_path, "--", *argv]
    else:
        cmd = [PY, "-m", "nvisc.cli", *argv]
    with open(err_path, "w", encoding="utf-8") as err_fh:
        child = spawn(cmd, OP_TIMEOUT_S, stderr=err_fh)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    op = {"name": name, "dir": str(out), "ms": child.seconds * 1e3, "rss_mb": child.rss_mb}
    op["error"] = None if child.rc == 0 else f"{name}: exit code {child.rc}: {stderr[-300:]}"
    if op["error"] is None:
        op["error"] = cli_check(name, out, temperature)
    if traced and spans_path.is_file():
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        op.update(start=child.start, end=child.end, shim=trace,
                  imports=parse_importtime(stderr))
    return op


def cli_check(name: str, out: Path, temperature: float) -> str | None:
    try:
        bad = checks.check_cli(name, out, temperature)
    except (OSError, ValueError, IndexError) as exc:
        bad = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if bad is None else f"{name}: {bad}"


def cli_phase(seed: int, seconds: float, cfg: Path, temperature: float,
              phase_dir: Path, traced: bool) -> list:
    phase_dir.mkdir(parents=True)
    ops, busy, rnd = [], 0.0, 0
    while busy < seconds:
        for step in inputs.cli_order(seed, rnd):
            if busy >= seconds:
                break
            op = cli_op(len(ops), step, cfg, temperature, phase_dir, traced)
            op["k_at"], op["k_ms"] = calib.kernel_ms(3)
            ops.append(op)
            busy += op["ms"] / 1e3
        rnd += 1
    return ops


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def run_cli(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    data_dir = ROOT / "src" / "nvisc" / "data"
    temperature = inputs.cli_temperature(seed)
    cfg = work / "config.txt"
    setups, errors = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        _, k_ms = calib.kernel_ms(3)
        start = perf_counter()
        cfg.write_text(inputs.cli_config_text(data_dir, temperature), encoding="utf-8")
        child = spawn([PY, "-m", "nvisc.cli", "--help"], OP_TIMEOUT_S, start=start)
        setups.append((child.seconds, k_ms))
        if child.rc != 0:
            errors.append(f"set-up: nvisc.cli --help exit code {child.rc}")
    phases = [cli_phase(seed, seconds, cfg, temperature, work / "plain", False)]
    if trace:
        phases.append(cli_phase(seed, seconds, cfg, temperature, work / "traced", True))
        for plain, traced in zip(*phases):
            if traced["error"] is None and not same_files(Path(plain["dir"]), Path(traced["dir"])):
                traced["error"] = f"{traced['name']}: traced outputs differ from untraced"

    pin_t = inputs.cli_temperature(inputs.PINNED_SEED)
    pin_cfg, probe_dir = work / "pinned_config.txt", work / "probe"
    pin_cfg.write_text(inputs.cli_config_text(data_dir, pin_t), encoding="utf-8")
    probe_dir.mkdir()
    child = spawn([PY, HERE / "cli_shim.py", "--chain", pin_cfg, probe_dir], 150.0)
    codes_path = probe_dir / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if codes_path.is_file() else {}
    probes = []
    for step in inputs.CLI_CHAIN:
        name = step_name(step)
        rc = codes.get(name, child.rc or "missing")
        err = None if rc == 0 else f"{name}: exit code {rc}"
        err = err or cli_check(name, probe_dir / name, pin_t)
        probes.append({"name": name, "error": err, "dir": str(probe_dir / name)})
    return {"setups": setups, "errors": errors, "phases": phases, "probes": probes,
            "rss_mb": max(op["rss_mb"] for op in phases[0]) if phases[0] else 0.0}


# ---------------------------------------------------------------------------
# in-process workloads


def launch_worker(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                  setup_only: bool) -> dict:
    work.mkdir(parents=True)
    out, err_path = work / "result.json", work / "stderr.txt"
    start = perf_counter()
    cmd = [PY, *(["-X", "importtime"] if trace else []), HERE / "worker.py",
           "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", int(trace), "--spawned-at", repr(start), "--work", work, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    with open(err_path, "w", encoding="utf-8") as err_fh:
        child = spawn(cmd, 2 * seconds + 100.0, stderr=err_fh, start=start)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if child.rc != 0 or not out.is_file():
        raise RuntimeError(f"{workload} worker exit code {child.rc}: {stderr[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if trace:
        result["imports"] = parse_importtime(stderr)
    return result


def run_worker(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups = []
    for i in range(0 if trace else SETUP_REPEATS - 1):
        _, k_ms = calib.kernel_ms(3)
        res = launch_worker(workload, seed, seconds, False, work / f"setup{i}", True)
        setups.append((res["setup_s"], k_ms))
    _, k_ms = calib.kernel_ms(3)
    res = launch_worker(workload, seed, seconds, trace, work / "run", False)
    setups.append((res["setup_s"], k_ms))
    phases = [ph["ops"] for ph in res["phases"]]
    if trace:
        for plain, traced in zip(*phases):
            if traced["error"] is None and plain["digest"] != traced["digest"]:
                traced["error"] = "traced outputs differ from untraced"
    return {"setups": setups, "errors": [], "phases": phases, "probes": res["probes"],
            "rss_mb": res["rss_mb"], "trace": res["phases"][-1] if trace else None,
            "imports": res.get("imports")}


# ---------------------------------------------------------------------------
# metrics


def _stats(ms: list, done: int) -> dict:
    ms = sorted(ms)
    n = len(ms)
    # highest whole percentile with at least ten samples beyond it
    pct = max(0, 100 * (n - 10) // n)
    idx = max(0, -(-pct * n // 100) - 1)
    return {"ops_per_s": done / (sum(ms) / 1e3), "op_p50_ms": statistics.median(ms),
            "op_tail_ms": ms[idx], "tail_percentile": pct, "tail_samples_beyond": n - idx - 1,
            "ops": n}


def latency(ops: list) -> dict:
    """Op statistics at the reference CPU speed (calib.py), and on the
    wall clock under "wall"."""
    done = sum(1 for op in ops if op["error"] is None)
    fixed = calib.corrected([(op["ms"], op["k_at"], op["k_ms"]) for op in ops])
    return {**_stats(fixed, done), "wall": _stats([op["ms"] for op in ops], done)}


def layer_metrics(spans: list, n_ops: int, imports: dict) -> dict:
    """Per-op self time, calls and sizes from spans
    ``[name, op, parent, start, end, qty]`` (parent = list index)."""
    covered = [0.0] * len(spans)
    for name, _, parent, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_ms, calls, qty = {}, {}, {}
    for (name, _, _, start, end, q), cov in zip(spans, covered):
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - cov) * 1e3
        calls[name] = calls.get(name, 0) + 1
        qty[name] = qty.get(name, 0) + (q or 0)
    out = dict(imports)
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_ms.get(n, 0.0) for n in names) / n_ops
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / n_ops
    lookups = calls.get("psb.overlap_lookup", 0)
    out["psb.overlap_hit_ratio"] = 1.0 - calls.get("psb.overlap", 0) / lookups if lookups else 0.0
    out["psb.overlap_nodes"] = qty.get("psb.overlap", 0) / n_ops
    out["gridfn.convolve_mb"] = qty.get("gridfn.convolve", 0) / 1e6 / n_ops
    return out


def cli_spans(ops: list) -> tuple[list, dict]:
    """One span list for a traced cli phase: the op (process wall time),
    then the shim's import and its spans, re-parented under the op."""
    spans, imports = [], []
    for k, op in enumerate(ops):
        if "shim" not in op:
            continue
        root = len(spans)
        spans.append(["op", k, None, op["start"], op["end"], None])
        spans.append(["import", k, root, *op["shim"]["import"], None])
        base = len(spans)
        for name, _, parent, start, end, q in op["shim"]["spans"]:
            spans.append([name, k, root if parent is None else base + parent, start, end, q])
        imports.append(op["imports"])
    mean = {key: statistics.fmean(i[key] for i in imports) for key in imports[0]} if imports else {}
    return spans, mean


def self_time_shares(layers: dict, per_op_imports: bool) -> dict:
    """Share of each per-op self time; imports count only where every op
    is a fresh process (cli_cold), elsewhere they are set-up."""
    ms = {k: v for k, v in layers.items() if k.endswith("_ms") and not k.startswith("import.")}
    if per_op_imports:
        ms["import.*"] = sum(v for k, v in layers.items() if k.startswith("import."))
    total = sum(ms.values()) or 1.0
    return {k: v / total for k, v in sorted(ms.items(), key=lambda kv: -kv[1]) if v > 0}


def probe_failures(workload: str, probes: list, reference) -> list[str]:
    """One message per pinned-seed op that failed or left the reference."""
    failures = []
    for i, probe in enumerate(probes):
        if probe["error"]:
            errors = [probe["error"]]
        elif reference is None:
            errors = ["reference.json has no entry for this workload"]
        elif workload == "cli_cold":
            errors = checks.compare_fingerprint(reference[probe["name"]], Path(probe["dir"]))
        else:
            errors = checks.compare_values(reference[i], probe["values"])
        if errors:
            failures.append(f"pinned op {i}: " + "; ".join(errors[:3]))
    return failures


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform(), "limits": LIMITS}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    work.mkdir(parents=True)
    if workload == "cli_cold":
        raw = run_cli(seed, seconds, trace, work)
    else:
        raw = run_worker(workload, seed, seconds, trace, work)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    probe_errors = probe_failures(workload, raw["probes"], reference.get(workload))

    ops = [op for phase in raw["phases"] for op in phase]
    failures = raw["errors"] + [op["error"] for op in ops if op["error"]] + probe_errors
    attempted = len(ops) + len(raw["probes"]) + len(raw["errors"])
    failed = sum(1 for op in ops if op["error"]) + len(probe_errors) + len(raw["errors"])
    plain = latency(raw["phases"][0])
    row = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
           "failures": failures[:20], "latency": plain,
           "setup_samples_s_and_kernel_ms": raw["setups"], "environment": environment()}
    if trace:
        traced = raw["phases"][1]
        if workload == "cli_cold":
            spans, imports = cli_spans(traced)
            missing = next((op["shim"]["missing"] for op in traced if "shim" in op), [])
        else:
            spans, imports = raw["trace"]["spans"], raw["imports"]
            missing = raw["trace"]["missing"]
        row["targets_not_found"] = missing
        layers = layer_metrics(spans, len(traced), imports)
        layers["trace.overhead_ratio"] = latency(traced)["op_p50_ms"] / plain["op_p50_ms"]
        # a layer without spans (every traced op failed) reads 0
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        row["self_time_share"] = self_time_shares(layers, workload == "cli_cold")
        row["spans"] = len(spans)
    else:
        values = {k: plain[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
        values["setup_s"] = statistics.median(s * calib.K_REF_MS / k for s, k in raw["setups"])
        values["peak_rss_mb"] = raw["rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        spans = None
    row["metrics"] = metrics
    row["correct"] = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    return row, raw, spans


def write_results(name: str, payload, indent=1) -> None:
    out = ROOT / ".perfbench" / "results" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=indent), encoding="utf-8")


def result_line(row: dict) -> str:
    return json.dumps({k: row[k] for k in ("correct", "attempted", "failed", "metrics")})


def scratch_dir() -> Path:
    return ROOT / ".perfbench" / f"work-{os.getpid()}"


def write_reference() -> int:
    """Replay the pinned seed and store its outputs as reference.json."""
    ref = {"pinned_seed": inputs.PINNED_SEED}
    work = scratch_dir()
    try:
        for workload in WORKLOADS:
            (work / workload).mkdir(parents=True)
            if workload == "cli_cold":
                raw = run_cli(inputs.PINNED_SEED, 0.0, False, work / workload)
            else:
                raw = run_worker(workload, inputs.PINNED_SEED, 0.0, False, work / workload)
            bad = [p["error"] for p in raw["probes"] if p["error"]]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            if workload == "cli_cold":
                ref[workload] = {p["name"]: checks.fingerprint(Path(p["dir"])) for p in raw["probes"]}
            else:
                ref[workload] = [p["values"] for p in raw["probes"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nvisc benchmark (see module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nvisc" / "__init__.py").is_file() or not bench_file.is_file():
        print("run from the root of an nvisc checkout (BENCHMARK.json and src/nvisc/)",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.selftest:
        import selftest

        return selftest.main(bench)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows, work = [], scratch_dir()
    try:
        for i, workload in enumerate(names):
            row, _, spans = run_workload(workload, args.seed, seconds, bool(args.trace),
                                         work / workload)
            rows.append(row)
            stem = f"{workload}-seed{args.seed}-trace{args.trace}"
            write_results(stem + ".json", row)
            if spans is not None:
                write_results(stem + "-spans.json", spans, indent=None)
            if args.workload == "all":
                print(f"{workload}: " + ", ".join(
                    f"{k} = {m['value']:.6g} {m['unit']}" for k, m in row["metrics"].items())
                    + f", fail_ratio = {row['fail_ratio']:.6g} ({row['failed']}/{row['attempted']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        write_results(f"all-seed{args.seed}-trace{args.trace}.json", rows)
        print(json.dumps({"correct": all(r["correct"] for r in rows),
                          "attempted": sum(r["attempted"] for r in rows),
                          "failed": sum(r["failed"] for r in rows),
                          "metrics": {f"{r['workload']}.{k}": m for r in rows
                                      for k, m in r["metrics"].items()}}))
    else:
        print(result_line(rows[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
