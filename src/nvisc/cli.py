"""Command-line front end.

Flat key=value configs (unit-suffixed keys, '#' comments) drive a set of
subcommands that emit plot-ready CSVs plus a plain-text run summary.
Outputs are deterministic for fixed inputs: no timestamps, atomic
write-temp-then-rename file creation.

Exit codes: 0 ok, 2 config error or malformed input table or manifest,
3 numerical error, 4 empty inference result.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.resources
import math
import sys
from pathlib import Path

import numpy as np

from . import inference, mixing, psb, rates, units
from .gridfn import (FormatError, GridFunction, MeasuredBand, _atomic_write,
                     integrate, parse_kv, parse_number, write_csv,
                     write_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_EMPTY = 4


class ConfigError(Exception):
    pass


class EmptyResultError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration

_PATH = "path"
_FLOAT = "float"
_LIST = "float_list"

# key -> (kind, required, default); unit suffixes are part of the key
# names, so a wrong suffix surfaces as an unknown-key error
_SCHEMA = {
    "psb_manifest": (_PATH, True, None),
    "lambda_par_ghz": (_FLOAT, True, None),
    "perp_ratio": (_FLOAT, True, None),
    "perp_ratio_lo": (_FLOAT, True, None),
    "perp_ratio_hi": (_FLOAT, True, None),
    "eta_mhz_per_mev3": (_FLOAT, True, None),
    "eta_lo_mhz_per_mev3": (_FLOAT, False, None),
    "eta_hi_mhz_per_mev3": (_FLOAT, False, None),
    "omega_cutoff_mev": (_FLOAT, True, None),
    "delta_mev": (_FLOAT, True, None),
    "delta_prime_mev": (_FLOAT, True, None),
    "delta_xy_ghz": (_FLOAT, False, 3.9),
    "gamma_rad_mhz": (_FLOAT, True, None),
    "gamma_rad_lo_mhz": (_FLOAT, False, None),
    "gamma_rad_hi_mhz": (_FLOAT, False, None),
    "target_rate_mhz": (_FLOAT, False, 16.0),
    "target_rate_lo_mhz": (_FLOAT, False, 15.4),
    "target_rate_hi_mhz": (_FLOAT, False, 16.6),
    "ratio_target": (_FLOAT, False, 0.50),
    "ratio_target_lo": (_FLOAT, False, 0.45),
    "ratio_target_hi": (_FLOAT, False, 0.55),
    "exclusion_floor_mev": (_FLOAT, False, 148.0),
    "temperature_k": (_FLOAT, True, None),
    "tau0_ns": (_FLOAT, False, 12.0),
    "ht_s_factor": (_FLOAT, False, None),
    "ht_delta_e_ev": (_FLOAT, False, None),
    "epsilon_list": (_LIST, False, (0.0, 0.5, 1.0)),
    "mix_csv": (_PATH, False, None),
    "lifetime_csv": (_PATH, False, None),
}
# keys whose value (every number of a list) must be >= 0
_NON_NEGATIVE = ("temperature_k", "epsilon_list")


_ETA_BAND = ("eta_lo_mhz_per_mev3", "eta_hi_mhz_per_mev3")


def _reads(*keys):
    """Builder decorator: the parameter object's ValueError is a config error."""
    def wrap(builder):
        @functools.wraps(builder)
        def build(cfg):
            try:
                return builder(cfg)
            except ValueError as exc:
                raise ConfigError(f"{cfg.source}: invalid {', '.join(keys)}: {exc}") from exc
        return build
    return wrap


@dataclasses.dataclass
class RunConfig:
    values: dict
    base_dir: Path
    source: str

    def __getitem__(self, key):
        return self.values[key]

    def path(self, key) -> Path | None:
        raw = self.values.get(key)
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    def require_path(self, key) -> Path:
        p = self.path(key)
        if p is None:
            raise ConfigError(f"{self.source}: key '{key}' is required by "
                              "this command")
        if not p.exists():
            raise ConfigError(f"{self.source}: {key} = {p} does not exist")
        return p

    # parameter-object builders

    @_reads("lambda_par_ghz", "perp_ratio", "perp_ratio_lo", "perp_ratio_hi")
    def spin_orbit(self) -> rates.SpinOrbitParams:
        return rates.SpinOrbitParams.from_ghz(
            self["lambda_par_ghz"], self["perp_ratio"],
            (self["perp_ratio_lo"], self["perp_ratio_hi"]))

    @_reads("eta_mhz_per_mev3", "omega_cutoff_mev", *_ETA_BAND)
    def phonon_coupling(self) -> rates.PhononCoupling:
        return rates.PhononCoupling(self["eta_mhz_per_mev3"],
                                    self["omega_cutoff_mev"], self._band(*_ETA_BAND))

    @_reads("delta_mev", "delta_prime_mev")
    def level_spacings(self) -> rates.LevelSpacings:
        return rates.LevelSpacings(self["delta_mev"], self["delta_prime_mev"])

    @_reads("gamma_rad_mhz", "gamma_rad_lo_mhz", "gamma_rad_hi_mhz")
    def g_rad(self) -> rates.RateResult:
        return rates.RateResult(
            self["gamma_rad_mhz"],
            self._band("gamma_rad_lo_mhz", "gamma_rad_hi_mhz"))

    @_reads("target_rate_mhz", "target_rate_lo_mhz", "target_rate_hi_mhz")
    def target_band(self) -> MeasuredBand:
        return MeasuredBand(self["target_rate_mhz"],
                            self["target_rate_lo_mhz"],
                            self["target_rate_hi_mhz"])

    @_reads("ratio_target", "ratio_target_lo", "ratio_target_hi")
    def ratio_band(self) -> MeasuredBand:
        return MeasuredBand(self["ratio_target"], self["ratio_target_lo"],
                            self["ratio_target_hi"])

    @_reads("eta_mhz_per_mev3", "delta_xy_ghz", "temperature_k", *_ETA_BAND)
    def mixing_params(self) -> mixing.MixingParams:
        return mixing.MixingParams(
            self["eta_mhz_per_mev3"], units.ghz_to_mev(self["delta_xy_ghz"]),
            self["temperature_k"], self._band(*_ETA_BAND))

    @_reads("ht_s_factor", "ht_delta_e_ev")
    def ht_params(self) -> rates.HighTempParams:
        s, de = self.values.get("ht_s_factor"), self.values.get("ht_delta_e_ev")
        if s is None or de is None:
            raise ConfigError(
                f"{self.source}: ht_s_factor and ht_delta_e_ev are required "
                "by this command")
        return rates.HighTempParams(s, de)

    def _band(self, lo_key, hi_key) -> tuple[float, float] | None:
        return None if self.values.get(lo_key) is None else (self[lo_key], self[hi_key])

    def model(self) -> psb.PsbModel:
        return _load_model(self.require_path("psb_manifest"))


_MODEL_CACHE: dict = {}


def _load_model(manifest: Path) -> psb.PsbModel:
    st = manifest.stat()
    key = (str(manifest.resolve()), st.st_mtime_ns, st.st_size)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = psb.PsbModel.from_manifest(manifest)
    return _MODEL_CACHE[key]


def parse_config(text: str, base_dir: Path, source: str = "config") -> RunConfig:
    values: dict = {}
    for key, (val, lineno) in parse_kv(text, source).items():
        where = f"{source}:{lineno}"
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key '{key}'")
        kind = _SCHEMA[key][0]
        if kind == _FLOAT:
            values[key] = parse_number(val, where, f"'{key}'")
        elif kind == _LIST:
            values[key] = tuple(parse_number(p, where, f"'{key}'")
                                for p in val.split(",") if p.strip())
        else:
            values[key] = val
        if key in _NON_NEGATIVE and np.any(np.asarray(values[key]) < 0.0):
            raise ConfigError(f"{where}: '{key}' must be >= 0, got {val}")
    missing = [k for k, (_, req, _) in _SCHEMA.items()
               if req and k not in values]
    if missing:
        raise ConfigError(
            f"{source}: missing required keys: {', '.join(missing)}")
    for key, (_, req, default) in _SCHEMA.items():
        values.setdefault(key, default)
    _validate_bands(values, source)
    return RunConfig(values, base_dir, source)


def _validate_bands(values: dict, source: str) -> None:
    bands = (
        ("perp_ratio_lo", "perp_ratio", "perp_ratio_hi"),
        ("eta_lo_mhz_per_mev3", "eta_mhz_per_mev3", "eta_hi_mhz_per_mev3"),
        ("gamma_rad_lo_mhz", "gamma_rad_mhz", "gamma_rad_hi_mhz"),
        ("target_rate_lo_mhz", "target_rate_mhz", "target_rate_hi_mhz"),
        ("ratio_target_lo", "ratio_target", "ratio_target_hi"),
    )
    for lo_k, mid_k, hi_k in bands:
        lo, mid, hi = values.get(lo_k), values.get(mid_k), values.get(hi_k)
        if (lo is None) != (hi is None):
            raise ConfigError(f"{source}: {lo_k} and {hi_k} must be given "
                              "together")
        if lo is not None and not (lo <= mid <= hi):
            raise ConfigError(
                f"{source}: band {lo_k} <= {mid_k} <= {hi_k} is not ordered "
                f"({lo} / {mid} / {hi})")


def load_config(path_arg: str) -> RunConfig:
    if path_arg == "default":
        res = importlib.resources.files("nvisc") / "data" / "default_config.txt"
        with importlib.resources.as_file(res) as p:
            return parse_config(p.read_text(encoding="utf-8"), p.parent,
                                str(p))
    p = Path(path_arg)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"), p.parent.resolve(),
                        str(p))


# ---------------------------------------------------------------------------
# output helpers


# (name, format spec) of the interval and lifetime tables
_INTERVAL_COLUMNS = (("lo_mev", ".6g"), ("hi_mev", ".6g"))
_CURVE_COLUMNS = (("temperature_K", ".10g"), ("spin_class", ""),
                  ("epsilon", "g"), ("tau_ns", ".10g"))


def _fmt_band(res: rates.RateResult, unit: str = "MHz") -> str:
    if res.band_mhz is None:
        return f"{res.value_mhz:.6g} {unit}"
    lo, hi = res.band_mhz
    return f"{res.value_mhz:.6g} {unit} (band {lo:.6g} .. {hi:.6g})"


_UNIT_NOTE = (
    "units: energies in meV (hbar = 1); rates are ordinary frequencies "
    "Gamma/2pi in MHz; temperatures in K")


# ---------------------------------------------------------------------------
# commands


def cmd_psb_build(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    t = cfg["temperature_k"]
    cold = model.calibrated_overlap(0.0)
    warm = model.calibrated_overlap(t)
    write_csv(cold, out / "psb_overlap_0K.csv",
              "calibrated sideband overlap at T = 0")
    write_csv(warm, out / "psb_overlap_T.csv",
              f"calibrated sideband overlap at T = {t:g} K")
    return [
        f"sideband intensity S0 = {model.s0:.6g}",
        f"S({t:g} K) = {model.huang_rhys_at(t):.6g}",
        f"amplitude scale = {model.scale:.8g}",
        f"deconvolution round-trip residual = {model.roundtrip_residual():.3e}",
        f"overlap mass 0 K = {integrate(cold):.8g}",
        f"overlap mass {t:g} K = {integrate(warm):.8g}",
    ]


def cmd_deconvolve(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    write_csv(model.f1, out / "one_phonon_density.csv",
              "one-phonon spectral density recovered from the "
              "sideband table (unit mass)")
    return [
        f"one-phonon density mass = {integrate(model.f1):.8g}",
        f"support = [0, {model.f1.omega_max:g}] meV",
        f"round-trip residual (L1) = {model.roundtrip_residual():.3e}",
    ]


def cmd_rate_a1(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    res = rates.gamma_a1(cfg.spin_orbit(), model.calibrated_overlap(0.0),
                         cfg["delta_mev"])
    lines = [f"Gamma_A1/2pi = {_fmt_band(res)} at Delta = "
             f"{cfg['delta_mev']:g} meV"]
    if res.note:
        lines.append(f"note: {res.note}")
    return lines


def cmd_rate_e12(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    so, pc, ls = cfg.spin_orbit(), cfg.phonon_coupling(), cfg.level_spacings()
    f0 = model.calibrated_overlap(0.0)
    t = cfg["temperature_k"]
    f_t = model.calibrated_overlap(t)
    cold_plain = rates.gamma_e12_lowT(so, pc, f0, ls)
    cold_corr = rates.gamma_e12_lowT(so, pc, f0, ls, include_singlet_path=True)
    warm = rates.gamma_e12_finiteT(so, pc, f_t, ls, t)
    spec = rates.gamma_e12_spectral(so, pc, f_t, ls, t, step=args.grid_step)
    write_csv(spec, out / "rate_e12_spectral.csv",
              f"assisted-rate spectral density at T = {t:g} K",
              ("omega_meV", "rate_density_MHz_per_meV"))
    return [
        f"Gamma_E12/2pi (T = 0) = {_fmt_band(cold_plain)}",
        f"Gamma_E12/2pi (T = 0, interference-corrected) = "
        f"{_fmt_band(cold_corr)}",
        f"Gamma_E12/2pi (T = {t:g} K) = {_fmt_band(warm)}",
        f"spectral file integrates to {integrate(spec):.6g} MHz",
    ]


def cmd_ratio(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    pc, ls = cfg.phonon_coupling(), cfg.level_spacings()
    f0 = model.calibrated_overlap(0.0)
    off = rates.e12_a1_ratio(pc, f0, ls, include_singlet_path=False)
    on = rates.e12_a1_ratio(pc, f0, ls, include_singlet_path=True)
    return [
        f"Gamma_E12/Gamma_A1 = {off:.6g} (plain weight)",
        f"Gamma_E12/Gamma_A1 = {on:.6g} (interference-corrected)",
        f"correction = {100.0 * (1.0 - on / off):.4g}% downward",
    ]


def cmd_mix(cfg: RunConfig, args, out: Path) -> list[str]:
    mp = cfg.mixing_params()
    res = mixing.gamma_mix(mp)
    one = mixing.gamma_mix_one_phonon(mp)
    return [
        f"two-phonon mixing rate = {_fmt_band(res)} at T = "
        f"{mp.temperature_k:g} K",
        f"one-phonon mixing: emission {one.emission_mhz:.6g} MHz, "
        f"absorption {one.absorption_mhz:.6g} MHz, "
        f"small-splitting form {one.linear_mhz:.6g} MHz",
    ]


def cmd_mix_spectral(cfg: RunConfig, args, out: Path) -> list[str]:
    mp = cfg.mixing_params()
    spec = mixing.gamma_mix_spectral(mp, step=args.grid_step)
    write_csv(spec, out / "mix_spectral.csv",
              f"two-phonon mixing spectral density at T = "
              f"{mp.temperature_k:g} K",
              ("omega_meV", "rate_density_MHz_per_meV"))
    kt = units.thermal_energy(mp.temperature_k)
    peak = spec.grid[int(np.argmax(spec.values))]
    return [
        f"spectral integral = {integrate(spec):.6g} MHz "
        f"(closed form {mixing.gamma_mix(mp).value_mhz:.6g} MHz)",
        f"peak at {peak:.4g} meV = {peak / kt:.4g} kT",
    ]


def cmd_extract_eta(cfg: RunConfig, args, out: Path) -> list[str]:
    series = mixing.MixSeries.from_csv(cfg.require_path("mix_csv"))
    fit = mixing.extract_eta(series, units.ghz_to_mev(cfg["delta_xy_ghz"]))
    return [
        f"eta = {fit.eta_mhz:.6g} +- {fit.sigma_mhz:.3g} MHz/meV^3 "
        f"({fit.n_points} points)",
        f"eta^2 = {fit.eta_sq:.6g} +- {fit.sigma_eta_sq:.3g}",
    ]


def cmd_infer_delta(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    so, target = cfg.spin_orbit(), cfg.target_band()
    f0 = model.calibrated_overlap(0.0)
    raw = inference.infer_delta(so, f0, target, exclusion_floor=0.0,
                                sweep=(20.0, 600.0, args.grid_step))
    found = raw.clip_below(cfg["exclusion_floor_mev"])
    write_table(out / "delta_intervals.csv", _INTERVAL_COLUMNS, found,
                "gap intervals consistent with the measured direct rate")
    lines = [
        f"target = {target.value:g} MHz in [{target.lo:g}, {target.hi:g}]",
        "raw intervals (meV): "
        + (", ".join(f"[{a:.1f}, {b:.1f}]" for a, b in raw) or "none"),
        f"after {cfg['exclusion_floor_mev']:g} meV exclusion: "
        + (", ".join(f"[{a:.1f}, {b:.1f}]" for a, b in found) or "none"),
    ]
    if found.is_empty:
        raise EmptyResultError("\n".join(lines))
    return lines


def cmd_infer_omega(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    so, pc, ls = cfg.spin_orbit(), cfg.phonon_coupling(), cfg.level_spacings()
    target = cfg.ratio_band()
    found = inference.infer_omega(so, pc, model, ls, target)
    write_table(out / "omega_interval.csv", _INTERVAL_COLUMNS, found,
                "acoustic-cutoff interval consistent with the measured "
                "rate ratio")
    lines = [f"ratio target = {target.value:g} in [{target.lo:g}, "
             f"{target.hi:g}]"]
    if found.is_empty:
        ceiling = inference.asymptotic_ratio(
            pc, model.calibrated_overlap(0.0), ls)
        lines.append(f"no cutoff reaches the target; asymptotic ratio at "
                     f"Delta = {ls.delta:g} meV is {ceiling:.4g}")
        raise EmptyResultError("\n".join(lines))
    lines.append("cutoff interval (meV): "
                 + ", ".join(f"[{a:.2f}, {b:.2f}]" for a, b in found))
    return lines


def cmd_lowt_error(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    so, pc, ls = cfg.spin_orbit(), cfg.phonon_coupling(), cfg.level_spacings()
    t = cfg["temperature_k"]
    errs_d = inference.lowT_error_map(so, pc, model, ls, t, axis="delta",
                                      lo=300.0, hi=450.0, step=args.grid_step)
    errs_o = inference.lowT_error_map(so, pc, model, ls, t, axis="omega",
                                      lo=60.0, hi=110.0, step=args.grid_step)
    write_csv(errs_d, out / "lowt_error_vs_delta.csv",
              f"relative zero-temperature-limit error at T = {t:g} K",
              ("delta_meV", "relative_error"))
    write_csv(errs_o, out / "lowt_error_vs_omega.csv",
              f"relative zero-temperature-limit error at T = {t:g} K",
              ("omega_cutoff_meV", "relative_error"))
    return [
        f"max error vs gap in [300, 450] meV: {float(np.max(errs_d.values)):.3e}",
        f"max error vs cutoff in [60, 110] meV: {float(np.max(errs_o.values)):.3e}",
    ]


def _lifetime_rows(cfg: RunConfig, temperatures) -> inference.LifetimeCurves:
    model = cfg.model()
    return inference.lifetime_curves(
        cfg.spin_orbit(), cfg.phonon_coupling(), model, cfg.level_spacings(),
        cfg.g_rad(), cfg.ht_params(), temperatures,
        epsilons=cfg["epsilon_list"])


def cmd_lifetime(cfg: RunConfig, args, out: Path) -> list[str]:
    t = cfg["temperature_k"]
    curves = _lifetime_rows(cfg, [t])
    write_table(out / "lifetimes.csv", _CURVE_COLUMNS, curves.rows(),
                f"predicted lifetimes at T = {t:g} K")
    lines = []
    for tt, cls, eps, tau in curves.rows():
        lines.append(f"tau({cls}, eps = {eps:g}) = {tau:.6g} ns at "
                     f"T = {tt:g} K")
    return lines


def cmd_fit_mott_seitz(cfg: RunConfig, args, out: Path) -> list[str]:
    data = inference.LifetimeSeries.from_csv(cfg.require_path("lifetime_csv")).select("ms0")
    fit = inference.fit_mott_seitz(data, cfg.g_rad(), cfg["tau0_ns"])
    grid = np.linspace(float(data.temperatures_k[0]), float(data.temperatures_k[-1]), 101)
    curve = GridFunction(float(grid[0]), float(grid[1] - grid[0]),
                         inference._ms_tau(fit.nu0_mhz, fit.s,
                                           fit.delta_e_ev, grid))
    write_csv(curve, out / "mott_seitz_curve.csv",
              "fitted thermal-quenching lifetime curve",
              ("temperature_K", "tau_ns"))
    return [
        f"activation energy = {fit.delta_e_ev:.6g} +- "
        f"{fit.sigma_delta_e_ev:.3g} eV",
        f"prefactor s = {fit.s:.6g} +- {fit.sigma_s:.3g}",
        f"base rate nu0 = {fit.nu0_mhz:.6g} MHz, residual rms = "
        f"{fit.residual_rms:.3g} sigma units ({fit.n_points} points)",
    ]


def cmd_sensitivity(cfg: RunConfig, args, out: Path) -> list[str]:
    model = cfg.model()
    so, pc, ls = cfg.spin_orbit(), cfg.phonon_coupling(), cfg.level_spacings()
    full = inference.isc_sensitivity(so, pc, model, ls, h=2.0)
    half = inference.isc_sensitivity(so, pc, model, ls, h=1.0)
    return [
        f"averaged-crossing-rate sensitivity at Delta = {ls.delta:g} meV: "
        f"{full:.6g} MHz/meV (positive = grows as the gap shrinks)",
        f"step-halving check: {half:.6g} MHz/meV",
    ]


def cmd_sweep(cfg: RunConfig, args, out: Path) -> list[str]:
    if args.to_value < args.from_value:
        raise ConfigError("sweep needs --from <= --to")
    span = (args.to_value - args.from_value) / args.step_value
    psb.check_grid(span + 1, "the temperature sweep")
    n = int(math.floor(span + 1e-9))
    temps = args.from_value + args.step_value * np.arange(n + 1)
    curves = _lifetime_rows(cfg, temps)
    write_table(out / "lifetime_vs_T.csv", _CURVE_COLUMNS, curves.rows(),
                f"predicted lifetimes, T = {args.from_value:g} .. "
                f"{args.to_value:g} K step {args.step_value:g} K")
    return [
        f"swept {temps.size} temperatures x "
        f"{len(cfg['epsilon_list'])} epsilon values x 2 spin classes "
        f"= {len(curves)} rows",
    ]


_COMMANDS = {
    "psb-build": cmd_psb_build,
    "deconvolve": cmd_deconvolve,
    "rate-a1": cmd_rate_a1,
    "rate-e12": cmd_rate_e12,
    "ratio": cmd_ratio,
    "mix": cmd_mix,
    "mix-spectral": cmd_mix_spectral,
    "extract-eta": cmd_extract_eta,
    "infer-delta": cmd_infer_delta,
    "infer-omega": cmd_infer_omega,
    "lowt-error": cmd_lowt_error,
    "lifetime": cmd_lifetime,
    "fit-mott-seitz": cmd_fit_mott_seitz,
    "sensitivity": cmd_sensitivity,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# entry point


def _number(accept, wanted: str):
    """argparse type: a finite number that ``accept`` passes (exit 2
    naming the flag otherwise)."""
    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and accept(x)):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return x
    return parse


_finite = _number(lambda x: True, "a finite number")
_positive = _number(lambda x: x > 0.0, "a finite number > 0")
_non_negative = _number(lambda x: x >= 0.0, "a finite number >= 0")

# the commands that read --grid-step: (default, help) of each
_GRID_STEP = {
    "rate-e12": (rates.RATE_STEP, "spectral-file step in meV (default %(default)g)"),
    "mix-spectral": (None, "mixing-spectrum step in meV (default kT/100)"),
    "infer-delta": (1.0, "gap-sweep step in meV (default %(default)g)"),
    "lowt-error": (5.0, "gap and cutoff step of the error maps in meV (default %(default)g)"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="config file path, or 'default' for the "
                             "packaged example configuration")
    common.add_argument("--out", default="./out", help="output directory")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout (files are still written)")
    ap = argparse.ArgumentParser(
        prog="nvisc",
        description="Crossing-rate, sideband and mixing analyses driven by "
                    "a key=value config; emits CSVs plus summary.txt.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name in sorted(_COMMANDS):
        if name == "sweep":
            continue
        cmd = sub.add_parser(name, parents=[common])
        if name in _GRID_STEP:
            default, text = _GRID_STEP[name]
            cmd.add_argument("--grid-step", type=_positive, default=default,
                             metavar="MEV", help=text)
    sw = sub.add_parser("sweep", parents=[common])
    sw.add_argument("sweep_command", choices=("lifetime",), help="command to sweep")
    sw.add_argument("--axis", default="T", choices=("T",), help="sweep axis")
    sw.add_argument("--from", dest="from_value", type=_non_negative,
                    default=300.0, help="sweep start")
    sw.add_argument("--to", dest="to_value", type=_finite, default=700.0,
                    help="sweep end")
    sw.add_argument("--step", dest="step_value", type=_positive, default=25.0,
                    help="sweep step")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        body = _COMMANDS[args.command](cfg, args, out)
    except (ConfigError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyResultError as exc:
        summary = _summary_text(args, ["inference returned no interval:",
                                       str(exc)])
        _atomic_write(Path(args.out) / "summary.txt", summary)
        if not args.quiet:
            print(summary, end="")
        return EXIT_EMPTY
    except (ValueError, ArithmeticError, np.linalg.LinAlgError,
            psb.DeconvolutionError) as exc:
        print(f"numerical error in {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = _summary_text(args, body)
    _atomic_write(out / "summary.txt", summary)
    if not args.quiet:
        print(summary, end="")
    return EXIT_OK


def _summary_text(args, body: list[str]) -> str:
    trailing = getattr(args, "sweep_command", None)
    lines = [f"command: {args.command}"
             + (f" {trailing}" if trailing else ""),
             f"config: {args.config}", _UNIT_NOTE]
    lines.extend(body)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
