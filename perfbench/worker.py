"""In-process workloads of the benchmark: thermal_sweep and inverse_fit.

run.py starts this script in a fresh interpreter:

    python3 perfbench/worker.py --workload thermal_sweep --seed 3 \
        --seconds 20 --trace 0 --spawned-at <perf_counter> \
        --work <dir> --out <result.json> [--setup-only]

Set-up (imports, model load, input generation) ends when the first op
can start; its duration is counted from ``--spawned-at``, the parent's
``time.perf_counter()`` just before the spawn (CLOCK_MONOTONIC on Linux,
so the two processes share it).  Ops then run in a closed loop, one at a
time, until their summed time reaches ``--seconds``.  Each op is checked
after its timer stops.  With ``--trace 1`` the loop runs a second time on
the same inputs with the tracer installed.  Finally the pinned seed's
first ops are replayed untimed so run.py can compare them with
reference.json.  Everything goes into one JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import calib
import inputs
from tracer import Tracer, install


def _params(data_dir: Path) -> dict:
    """Parameter objects of the packaged default configuration."""
    from nvisc import rates
    from nvisc.gridfn import MeasuredBand
    from nvisc.units import ghz_to_mev

    c = {k: v for k, v in inputs.read_kv(data_dir / "default_config.txt").items()
         if not k.endswith(("_csv", "_list", "_manifest"))}
    c = {k: float(v) for k, v in c.items()}
    return {
        "so": rates.SpinOrbitParams.from_ghz(
            c["lambda_par_ghz"], c["perp_ratio"], (c["perp_ratio_lo"], c["perp_ratio_hi"])),
        "pc": rates.PhononCoupling(
            c["eta_mhz_per_mev3"], c["omega_cutoff_mev"],
            (c["eta_lo_mhz_per_mev3"], c["eta_hi_mhz_per_mev3"])),
        "ls": rates.LevelSpacings(c["delta_mev"], c["delta_prime_mev"]),
        "g_rad": rates.RateResult(c["gamma_rad_mhz"],
                                  (c["gamma_rad_lo_mhz"], c["gamma_rad_hi_mhz"])),
        "ht": rates.HighTempParams(c["ht_s_factor"], c["ht_delta_e_ev"]),
        "target": MeasuredBand(c["target_rate_mhz"], c["target_rate_lo_mhz"],
                               c["target_rate_hi_mhz"]),
        "ratio": MeasuredBand(c["ratio_target"], c["ratio_target_lo"],
                              c["ratio_target_hi"]),
        "delta_xy_mev": ghz_to_mev(c["delta_xy_ghz"]),
        "tau0_ns": c["tau0_ns"],
        "floor_mev": c["exclusion_floor_mev"],
    }


class ThermalSweep:
    """Forward lifetimes, one temperature per op, in one warm process."""

    probe_ops = 8

    def __init__(self, data_dir: Path, work: Path):
        from nvisc import inference, psb

        self.inference, self.psb = inference, psb
        self.manifest = data_dir / "psb_manifest.txt"
        self.p = _params(data_dir)
        self._spare = None

    def prepare(self, seed: int) -> None:
        self._spare = self.psb.PsbModel.from_manifest(self.manifest)

    def _model(self):
        # a fresh model (empty overlap cache) per round keeps memory flat;
        # the first round reuses the one loaded during set-up
        model, self._spare = self._spare, None
        return model or self.psb.PsbModel.from_manifest(self.manifest)

    def ops(self, seed: int):
        rnd = 0
        while True:
            model = self._model()
            for t in inputs.sweep_round(seed, rnd):
                yield model, t
            rnd += 1

    def run(self, item):
        model, t = item
        p = self.p
        return self.inference.lifetime_curves(
            p["so"], p["pc"], model, p["ls"], p["g_rad"], p["ht"], [t],
            epsilons=inputs.EPSILONS)

    def check(self, item, curves):
        import numpy as np

        model, t = item
        values = {"T": t}
        rows = list(curves.rows())
        if len(rows) != 2 * len(inputs.EPSILONS):
            return f"{len(rows)} lifetime rows, expected {2 * len(inputs.EPSILONS)}", values
        taus = {(cls, eps): tau for _, cls, eps, tau in rows}
        for (cls, eps), tau in taus.items():
            values[f"tau.{cls}.{eps:g}"] = tau
            if not (math.isfinite(tau) and tau > 0):
                return f"lifetime {tau} at T = {t}", values
        # decay rates: ms0 = rad + ht for every eps, ms1 = rad + isc + eps * ht
        rate = {key: 1.0 / tau for key, tau in taus.items()}
        ms0 = [rate[("ms0", e)] for e in inputs.EPSILONS]
        ms1 = [rate[("ms1", e)] for e in inputs.EPSILONS]
        lo, mid, hi = inputs.EPSILONS
        linear = ms1[0] + (mid - lo) / (hi - lo) * (ms1[2] - ms1[0])
        if max(ms0) - min(ms0) > 1e-12 * ms0[0] or abs(ms1[1] - linear) > 1e-12 * ms1[1]:
            return f"lifetimes break the rate composition at T = {t}", values
        if ms1[2] < ms0[0] * (1 - 1e-12) or any(b < a * (1 - 1e-12) for a, b in zip(ms1, ms1[1:])):
            return f"crossing rate or activated channel negative at T = {t}", values
        s_t = model.huang_rhys_at(t)
        overlap = model.calibrated_overlap(t)
        mass = float(np.trapezoid(overlap.values, dx=overlap.step))
        expect = model.scale * (1.0 - math.exp(-s_t))
        values.update({"S": s_t, "mass": mass})
        if abs(mass - expect) > 1e-7 * expect:
            return f"overlap mass {mass!r} != scale(1 - e^-S) = {expect!r} at T = {t}", values
        return None, values

    def probes(self):
        model = self.psb.PsbModel.from_manifest(self.manifest)
        for t in inputs.sweep_round(inputs.PINNED_SEED, 0)[: self.probe_ops]:
            yield model, t


class InverseFit:
    """Inverse problems on seeded sidebands: deconvolution, gap and cutoff
    inference, the low-temperature error map and two fits."""

    probe_ops = 3

    def __init__(self, data_dir: Path, work: Path):
        from nvisc import inference, mixing, psb

        self.inference, self.mixing, self.psb = inference, mixing, psb
        self.p = _params(data_dir)
        self.work = work
        self._pools: dict[int, list] = {}

    def prepare(self, seed: int) -> None:
        self.pool(seed, inputs.INVERSE_POOL)

    def pool(self, seed: int, n: int) -> list:
        pool = self._pools.setdefault(seed, [])
        while len(pool) < n:
            pool.append(self._problem(seed, len(pool)))
        return pool

    def _problem(self, seed: int, index: int) -> dict:
        import numpy as np
        from nvisc.gridfn import GridFunction, integrate
        from nvisc.inference import LifetimeSeries
        from nvisc.mixing import MixingParams, MixSeries, gamma_mix

        spec = inputs.inverse_spec(seed, index)
        f1 = GridFunction(0.0, inputs.F_STEP, np.asarray(inputs.one_phonon_values(spec["shape"])))
        f1 = f1.scaled(1.0 / integrate(f1))
        f0 = self.psb.forward_sideband(f1, spec["s0"])
        n = int(round((inputs.TABLE_MAX_MEV - f0.omega_min) / f0.step)) + 1
        stem = f"s{seed}-p{index}"
        lines = ["# seeded sideband table, amplitude 2*pi*(1 - exp(-s0))",
                 "omega_meV,value"]
        for j, v in enumerate(f0.values[:n] * inputs.AMPLITUDE):
            lines.append(f"{f0.omega_min + j * f0.step!r},{v:.12g}")
        (self.work / f"{stem}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = self.work / f"{stem}.txt"
        manifest.write_text(f"f0_csv = {stem}.csv\ns0 = {spec['s0']!r}\nomega_mev = 200.0\n",
                            encoding="utf-8")

        clean = [gamma_mix(MixingParams(spec["eta_mhz"], self.p["delta_xy_mev"], t)).value_mhz
                 for t in inputs.MIX_TEMPS]
        sig = [inputs.MIX_REL_SIGMA * r for r in clean]
        mix = MixSeries(np.asarray(inputs.MIX_TEMPS),
                        np.asarray([r + z * s for r, z, s in zip(clean, spec["mix_noise"], sig)]),
                        np.asarray(sig))
        temps, taus, sigmas = inputs.lifetime_series(spec, self.p["g_rad"].value_mhz)
        life = LifetimeSeries(np.asarray(temps), np.asarray(taus), np.asarray(sigmas),
                              ("ms0",) * len(temps))
        return {"spec": spec, "manifest": manifest, "f1": f1, "mix": mix, "life": life}

    def ops(self, seed: int):
        pool = self.pool(seed, inputs.INVERSE_POOL)
        i = 0
        while True:
            yield pool[i % len(pool)]
            i += 1

    def run(self, prob):
        p, inf = self.p, self.inference
        model = self.psb.PsbModel.from_manifest(prob["manifest"])
        f0 = model.calibrated_overlap(0.0)
        gaps = inf.infer_delta(p["so"], f0, p["target"], exclusion_floor=p["floor_mev"])
        cutoff = inf.infer_omega(p["so"], p["pc"], model, p["ls"], p["ratio"])
        lo, step = inputs.LOWT_GAP_MEV
        errs = inf.lowT_error_map(p["so"], p["pc"], model, p["ls"],
                                  prob["spec"]["lowt_temperature_k"], axis="delta",
                                  lo=lo, hi=lo + step * (prob["spec"]["lowt_nodes"] - 1),
                                  step=step)
        eta = self.mixing.extract_eta(prob["mix"], p["delta_xy_mev"])
        ms = inf.fit_mott_seitz(prob["life"], p["g_rad"], p["tau0_ns"])
        return model, f0, gaps, cutoff, errs, eta, ms

    def check(self, prob, out):
        import numpy as np
        from nvisc.rates import gamma_a1

        model, f0, gaps, cutoff, errs, eta, ms = out
        spec, p = prob["spec"], self.p
        grid = prob["f1"].grid
        l1 = float(np.trapezoid(np.abs(model.f1.sample(grid) - prob["f1"].values), grid))
        values = {"f1_l1": l1, "gaps.n": len(gaps), "cutoff.n": len(cutoff),
                  "lowt.sum": float(np.sum(errs.values)),
                  "lowt.max": float(np.max(errs.values)),
                  "eta": eta.eta_mhz, "eta.sigma": eta.sigma_mhz,
                  "ms.delta_e": ms.delta_e_ev, "ms.s": ms.s,
                  "ms.sigma_delta_e": ms.sigma_delta_e_ev}
        for k, (lo, hi) in enumerate(gaps):
            values[f"gaps.{k}.lo"], values[f"gaps.{k}.hi"] = lo, hi
        for k, (lo, hi) in enumerate(cutoff):
            values[f"cutoff.{k}.lo"], values[f"cutoff.{k}.hi"] = lo, hi
        if l1 > 1e-4:
            return f"deconvolution misses the generating density (L1 {l1:.3e})", values
        for lo, hi in gaps:
            band = gamma_a1(p["so"], f0, 0.5 * (lo + hi)).band_mhz
            if lo < p["floor_mev"] - 1e-9 or hi < lo or not (
                    band[0] <= p["target"].hi + 1e-9 and band[1] >= p["target"].lo - 1e-9):
                return f"gap interval [{lo}, {hi}] inconsistent with the target band", values
        for lo, hi in cutoff:
            if not 0.0 <= lo <= hi <= 150.0:
                return f"cutoff interval [{lo}, {hi}] outside [0, 150] meV", values
        if errs.size != spec["lowt_nodes"] or not np.all(np.isfinite(errs.values)) \
                or np.any(errs.values < 0):
            return f"low-T error map has {errs.size} nodes or invalid values", values
        if abs(eta.eta_mhz - spec["eta_mhz"]) > 5.0 * eta.sigma_mhz:
            return f"eta {eta.eta_mhz} +- {eta.sigma_mhz} vs generating {spec['eta_mhz']}", values
        if abs(ms.delta_e_ev - spec["delta_e_ev"]) > 5.0 * ms.sigma_delta_e_ev:
            return (f"activation energy {ms.delta_e_ev} +- {ms.sigma_delta_e_ev} vs "
                    f"generating {spec['delta_e_ev']}"), values
        return None, values

    def probes(self):
        return iter(self.pool(inputs.PINNED_SEED, self.probe_ops))


WORKLOADS = {"thermal_sweep": ThermalSweep, "inverse_fit": InverseFit}


def digest(values: dict) -> str:
    return hashlib.sha1(repr(sorted(values.items())).encode()).hexdigest()[:16]


def run_op(wl, item, tracer=None, op_id=None):
    """Time one op, then check it; returns (seconds, failure or None, values)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        out = wl.run(item)
        err = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    values = {}
    if err is None:
        try:
            err, values = wl.check(item, out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    return dt, err, values


def run_phase(wl, seed: int, seconds: float, tracer=None) -> list:
    ops, busy = [], 0.0
    for i, item in enumerate(wl.ops(seed)):
        if busy >= seconds:
            break
        dt, err, values = run_op(wl, item, tracer, i)
        busy += dt
        k_at, k_ms = calib.kernel_ms()
        ops.append({"ms": dt * 1e3, "error": err, "digest": digest(values),
                    "k_at": k_at, "k_ms": k_ms})
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    data_dir = Path("src/nvisc/data").resolve()
    wl = WORKLOADS[args.workload](data_dir, args.work)
    wl.prepare(args.seed)
    result = {"setup_s": perf_counter() - args.spawned_at}
    if not args.setup_only:
        result["phases"] = [{"traced": False, "ops": run_phase(wl, args.seed, args.seconds)}]
        if args.trace:
            tracer = Tracer()
            install(tracer)
            ops = run_phase(wl, args.seed, args.seconds, tracer)
            result["phases"].append({"traced": True, "ops": ops, "spans": tracer.spans,
                                     "missing": tracer.missing})
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["probes"] = []
        for item in wl.probes():
            _, err, values = run_op(wl, item)
            result["probes"].append({"error": err, "values": values})
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
