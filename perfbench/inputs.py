"""Seeded inputs for the benchmark workloads (standard library only).

Every draw comes from ``random.Random`` seeded with a string built from
the run seed and a stream name, so one seed always gives the same
inputs, on any machine, and streams do not shift when another one draws
more values.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Seed whose outputs are stored in reference.json and replayed after
# every run.
PINNED_SEED = 0

# The analysis chain of scripts/run_full_analysis.py, one CLI command each.
CLI_CHAIN = [
    ["psb-build"],
    ["deconvolve"],
    ["rate-a1"],
    ["rate-e12"],
    ["ratio"],
    ["mix"],
    ["mix-spectral"],
    ["extract-eta"],
    ["infer-delta"],
    ["infer-omega"],
    ["lowt-error"],
    ["lifetime"],
    ["fit-mott-seitz"],
    ["sensitivity"],
    ["sweep", "lifetime", "--axis", "T", "--from", "300", "--to", "700",
     "--step", "25"],
]
CLI_T_RANGE = (4.0, 700.0)

# thermal_sweep: one jittered temperature per fixed bin of [0, T_MAX]
SWEEP_T_MAX = 2000.0
SWEEP_BINS = 40
EPSILONS = (0.0, 0.5, 1.0)

# inverse_fit: problems are drawn once per run and cycled through
INVERSE_POOL = 16
TABLE_MAX_MEV = 1200.0
AMPLITUDE = 2.0 * math.pi
F_SPAN = 200.0
F_STEP = 0.5
# reference one-phonon shape of scripts/make_reference_data.py
SHAPE = {
    "weights": (0.274963, 0.853066, 0.339409, 0.182364, 0.0548133),
    "centers": (48.8767, 60.7773, 82.4073, 94.8869, 162.771),
    "sigmas": (5.0, 15.9809, 8.83396, 6.05904, 5.22951),
    "onset": 10.4258,
}
LOWT_GAP_MEV = (300.0, 5.0)  # first gap node and step of the error map
LOWT_NODES = (16, 46)
MIX_TEMPS = tuple(8.0 + 4.0 * i for i in range(9))
MIX_REL_SIGMA = 0.04
LIFE_TEMPS = tuple(295.0 + i * 405.0 / 17.0 for i in range(18))


def stream(seed: int, *names) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *names)))


def clipped_normals(rng: random.Random, n: int, clip: float) -> list[float]:
    return [max(-clip, min(clip, rng.gauss(0.0, 1.0))) for _ in range(n)]


def read_kv(path: Path) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comments."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# cli_cold


def cli_temperature(seed: int) -> float:
    return stream(seed, "cli_cold", "T").uniform(*CLI_T_RANGE)


def cli_order(seed: int, rnd: int) -> list[list[str]]:
    """Round ``rnd`` of the chain, in an order shuffled by the seed."""
    steps = [list(s) for s in CLI_CHAIN]
    stream(seed, "cli_cold", "order", rnd).shuffle(steps)
    return steps


def cli_config_text(data_dir: Path, temperature_k: float) -> str:
    """The packaged default config with a seeded temperature and every
    file key made absolute, so the config can live anywhere."""
    lines = []
    for raw in (data_dir / "default_config.txt").read_text(encoding="utf-8").splitlines():
        key, sep, val = raw.partition("=")
        key = key.strip()
        if sep and not raw.lstrip().startswith("#"):
            if key == "temperature_k":
                val = repr(temperature_k)
            elif key in ("psb_manifest", "mix_csv", "lifetime_csv"):
                val = str((data_dir / val.strip()).resolve())
            raw = f"{key} = {val.strip()}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# thermal_sweep


def sweep_round(seed: int, rnd: int) -> list[float]:
    """One temperature per bin, jittered inside the bin, shuffled."""
    rng = stream(seed, "thermal_sweep", rnd)
    width = SWEEP_T_MAX / SWEEP_BINS
    temps = [width * (i + rng.uniform(0.02, 0.98)) for i in range(SWEEP_BINS)]
    rng.shuffle(temps)
    return temps


# ---------------------------------------------------------------------------
# inverse_fit


def inverse_spec(seed: int, index: int) -> dict:
    """Generating parameters of one inverse problem.  The three that set its
    cost are stratified over the pool: S0 by index, the error-map
    temperature and the number of gap nodes of the error map (16 to 46,
    mean 31) by seeded permutations.  Every seed's pool then spans the
    same ranges, and op costs spread evenly instead of clustering."""
    rng = stream(seed, "inverse_fit", index)
    k = index % INVERSE_POOL
    perms = []
    for name in ("T", "nodes"):
        perm = list(range(INVERSE_POOL))
        stream(seed, "inverse_fit", "perm", name).shuffle(perm)
        perms.append(perm[k])
    shape = {
        "weights": SHAPE["weights"],
        "centers": tuple(c * rng.uniform(0.97, 1.03) for c in SHAPE["centers"]),
        "sigmas": tuple(s * rng.uniform(0.9, 1.1) for s in SHAPE["sigmas"]),
        "onset": SHAPE["onset"],
    }
    return {
        "shape": shape,
        "s0": 2.5 + 2.0 * (k + rng.random()) / INVERSE_POOL,
        "lowt_temperature_k": 5.0 + 395.0 * (perms[0] + rng.random()) / INVERSE_POOL,
        "lowt_nodes": LOWT_NODES[0] + (LOWT_NODES[1] - LOWT_NODES[0]) * perms[1] // (INVERSE_POOL - 1),
        "eta_mhz": rng.uniform(35.0, 55.0),
        "mix_noise": clipped_normals(rng, len(MIX_TEMPS), 2.5),
        "delta_e_ev": rng.uniform(0.42, 0.54),
        "tau_700_ns": rng.uniform(6.5, 7.5),
        "life_noise": clipped_normals(rng, len(LIFE_TEMPS), 2.5),
    }


def one_phonon_values(shape: dict) -> list[float]:
    """Gaussian-mixture density on [0, F_SPAN] (unnormalised), with the
    low-energy onset and the upper roll-off of the reference shape."""
    n = int(round(F_SPAN / F_STEP)) + 1
    vals = []
    for i in range(n):
        x = i * F_STEP
        v = sum(w * math.exp(-0.5 * ((x - c) / s) ** 2)
                for w, c, s in zip(shape["weights"], shape["centers"], shape["sigmas"]))
        v *= (1.0 - math.exp(-((x / shape["onset"]) ** 2)))
        v *= (1.0 - math.exp(-(((F_SPAN - x) / 12.0) ** 2)))
        vals.append(v)
    vals[0] = vals[-1] = 0.0
    return vals


def lifetime_series(spec: dict, gamma_rad_mhz: float) -> tuple[list, list, list]:
    """Noisy Mott-Seitz lifetimes (ns) over LIFE_TEMPS with 1-sigma errors."""
    k_b_ev = 0.08617333e-3
    de = spec["delta_e_ev"]
    nu_700 = 1e3 / (2.0 * math.pi * spec["tau_700_ns"])
    s = (nu_700 / gamma_rad_mhz - 1.0) / math.exp(-de / (k_b_ev * 700.0))
    taus, sigmas = [], []
    for t, z in zip(LIFE_TEMPS, spec["life_noise"]):
        nu = gamma_rad_mhz * (1.0 + s * math.exp(-de / (k_b_ev * t)))
        sigma = 0.25 + 0.45 * (t - 295.0) / 405.0
        taus.append(1e3 / (2.0 * math.pi * nu) + 0.25 * sigma * z)
        sigmas.append(sigma)
    return list(LIFE_TEMPS), taus, sigmas
