"""End-to-end checks of the command-line front end on the shipped data."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvisc
from nvisc import cli, psb
from nvisc.gridfn import FormatError, IntervalSet, read_csv, read_table
from nvisc.inference import LifetimeCurves, LifetimeSeries
from nvisc.mixing import MixSeries

DATA = Path(nvisc.__file__).parent / "data"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    # same content as the packaged config but with absolute data paths,
    # so commands can run from any working directory
    text = (DATA / "default_config.txt").read_text(encoding="utf-8")
    out = []
    for line in text.splitlines():
        for key in ("psb_manifest", "mix_csv", "lifetime_csv"):
            if line.startswith(f"{key} ="):
                _, _, val = line.partition("=")
                line = f"{key} = {DATA / val.strip()}"
        out.append(line)
    p = tmp_path_factory.mktemp("cfg") / "config.txt"
    p.write_text("\n".join(out) + "\n", encoding="utf-8")
    return p


def run(args, outdir):
    return cli.main(list(args) + ["--out", str(outdir), "--quiet"])


def read_intervals(path) -> IntervalSet:
    return IntervalSet.from_pairs(zip(*read_table(path, 2)))


def read_curves(path) -> LifetimeCurves:
    return LifetimeCurves(*map(tuple, read_table(path, 4, text_cols=(1,))))


def shelf_curve(curves: LifetimeCurves):
    """Temperatures and lifetimes of the ms0 rows at epsilon = 0."""
    rows = [(t, tau) for t, cls, eps, tau in curves.rows()
            if cls == "ms0" and eps == 0.0]
    return tuple(np.array(col) for col in zip(*rows))


def config_with(config_path, tmp_path, key, value):
    """Copy of the test config with ``key = value`` as its last line."""
    lines = [ln for ln in config_path.read_text().splitlines()
             if not ln.startswith(f"{key} =")]
    lines.append(f"{key} = {value}")
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n")
    return p


# ------------------------------------------------------------------ smoke


def test_rate_a1_summary_contract(config_path, tmp_path):
    assert run(["rate-a1", "--config", str(config_path)], tmp_path) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "Gamma_A1/2pi" in summary
    assert "MHz" in summary
    assert "band" in summary


def test_psb_build_writes_overlaps(config_path, tmp_path):
    assert run(["psb-build", "--config", str(config_path)], tmp_path) == 0
    cold = read_csv(tmp_path / "psb_overlap_0K.csv")
    warm = read_csv(tmp_path / "psb_overlap_T.csv")
    # thermal occupation opens support below zero but conserves mass
    assert warm.omega_min <= cold.omega_min
    assert np.all(cold.values >= 0)


def test_deconvolve_round_trips(config_path, tmp_path):
    assert run(["deconvolve", "--config", str(config_path)], tmp_path) == 0
    f1 = read_csv(tmp_path / "one_phonon_density.csv")
    assert f1.values[0] == 0.0
    assert np.all(f1.values >= 0)


def test_rate_e12_spectral_csv(config_path, tmp_path):
    assert run(["rate-e12", "--config", str(config_path)], tmp_path) == 0
    spec = read_csv(tmp_path / "rate_e12_spectral.csv")
    summary = (tmp_path / "summary.txt").read_text()
    assert "Gamma_E12/2pi" in summary
    assert spec.omega_min == 0.0


def test_ratio_reports_correction(config_path, tmp_path):
    assert run(["ratio", "--config", str(config_path)], tmp_path) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "interference-corrected" in summary
    assert "% downward" in summary


def test_mix_and_spectral(config_path, tmp_path):
    assert run(["mix", "--config", str(config_path)], tmp_path) == 0
    assert run(["mix-spectral", "--config", str(config_path)], tmp_path) == 0
    spec = read_csv(tmp_path / "mix_spectral.csv")
    assert spec.values[0] == 0.0
    assert "peak at" in (tmp_path / "summary.txt").read_text()


def test_extract_eta_close_to_truth(config_path, tmp_path):
    assert run(["extract-eta", "--config", str(config_path)], tmp_path) == 0
    summary = (tmp_path / "summary.txt").read_text()
    eta = float(summary.split("eta = ")[1].split(" ")[0])
    assert eta == pytest.approx(44.0, rel=0.05)


def test_infer_delta_csv_columns(config_path, tmp_path):
    assert run(["infer-delta", "--config", str(config_path)], tmp_path) == 0
    lines = (tmp_path / "delta_intervals.csv").read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert rows[0] == "lo_mev,hi_mev"
    found = read_intervals(tmp_path / "delta_intervals.csv")
    assert len(found) == 1
    lo, hi = found.intervals[0]
    assert lo == pytest.approx(344.0, abs=25.0)
    assert hi == pytest.approx(430.0, abs=25.0)


def test_infer_omega_interval(config_path, tmp_path):
    assert run(["infer-omega", "--config", str(config_path)], tmp_path) == 0
    found = read_intervals(tmp_path / "omega_interval.csv")
    assert not found.is_empty
    lo, hi = found.intervals[0]
    assert lo < 93.0 and hi > 74.0


def test_lowt_error_small_in_range(config_path, tmp_path):
    assert run(["lowt-error", "--config", str(config_path)], tmp_path) == 0
    errs = read_csv(tmp_path / "lowt_error_vs_delta.csv")
    assert float(np.max(errs.values)) < 0.01


def test_lifetime_values(config_path, tmp_path):
    assert run(["lifetime", "--config", str(config_path)], tmp_path) == 0
    curves = read_curves(tmp_path / "lifetimes.csv")
    temps, taus = shelf_curve(curves)
    assert taus[0] == pytest.approx(12.06, abs=0.5)


def test_fit_mott_seitz_curve(config_path, tmp_path):
    assert run(["fit-mott-seitz", "--config", str(config_path)], tmp_path) == 0
    curve = read_csv(tmp_path / "mott_seitz_curve.csv")
    assert curve.values[0] > curve.values[-1]  # quenching shortens tau
    assert "activation energy" in (tmp_path / "summary.txt").read_text()


def test_fit_mott_seitz_ignores_row_order(config_path, tmp_path):
    # the shipped table with its rows reversed holds the same points, so it
    # gives the shipped summary and the same curve file
    lines = (DATA / "high_temperature_lifetimes.csv").read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#") or not ln[:1].isdigit()]
    rows = [ln for ln in lines if ln not in head]
    table = tmp_path / "reversed.csv"
    table.write_text("\n".join(head + rows[::-1]) + "\n")
    p = config_with(config_path, tmp_path, "lifetime_csv", table)
    assert run(["fit-mott-seitz", "--config", str(p)], tmp_path / "rev") == 0
    assert run(["fit-mott-seitz", "--config", str(config_path)],
               tmp_path / "fwd") == 0
    golden = Path(__file__).parent / "golden" / "fit-mott-seitz"
    body = (tmp_path / "rev" / "summary.txt").read_text().splitlines()[2:]
    assert body == (golden / "summary.txt").read_text().splitlines()[2:]
    assert filecmp.cmp(tmp_path / "rev" / "mott_seitz_curve.csv",
                       tmp_path / "fwd" / "mott_seitz_curve.csv", shallow=False)


def test_sensitivity_in_band(config_path, tmp_path):
    assert run(["sensitivity", "--config", str(config_path)], tmp_path) == 0
    summary = (tmp_path / "summary.txt").read_text()
    val = float(summary.split("meV: ")[1].split(" ")[0])
    assert 0.05 <= val <= 0.25


def test_sweep_lifetime_rows(config_path, tmp_path):
    rc = run(["sweep", "lifetime", "--axis", "T", "--from", "300", "--to",
              "700", "--step", "100", "--config", str(config_path)], tmp_path)
    assert rc == 0
    curves = read_curves(tmp_path / "lifetime_vs_T.csv")
    # one row per temperature per spin class per epsilon
    assert len(curves) == 5 * 2 * 3
    temps, taus = shelf_curve(curves)
    assert list(temps) == [300.0, 400.0, 500.0, 600.0, 700.0]
    assert taus[-1] == pytest.approx(7.0, abs=0.5)
    assert np.all(np.diff(taus) < 0)


def test_packaged_default_config(tmp_path):
    # 'default' resolves the packaged config; paths inside it are
    # relative to the package data directory
    assert run(["ratio", "--config", "default"], tmp_path) == 0


# ------------------------------------------------------------ determinism


def test_outputs_byte_identical_across_runs(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["infer-delta", "--config", str(config_path)], out) == 0
        assert run(["mix-spectral", "--config", str(config_path)], out) == 0
    for name in ("summary.txt", "delta_intervals.csv", "mix_spectral.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


# ------------------------------------------------------------- error paths


def test_unknown_key_cites_line(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("# comment\ndelta_mv = 392\n")
    assert cli.main(["rate-a1", "--config", str(p), "--out",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err and "delta_mv" in err


def test_empty_config_lists_missing_keys(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("")
    assert cli.main(["rate-a1", "--config", str(p), "--out",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for key in ("psb_manifest", "lambda_par_ghz", "delta_mev",
                "temperature_k"):
        assert key in err


def test_malformed_number_cites_line(config_path, tmp_path, capsys):
    text = config_path.read_text().replace("delta_mev = 392.0",
                                           "delta_mev = 39x.0")
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert cli.main(["rate-a1", "--config", str(p), "--out",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "delta_mev" in err and "39x.0" in err


@pytest.mark.parametrize("command, key, value", [
    ("lifetime", "temperature_k", "nan"),
    ("rate-e12", "temperature_k", "nan"),
    ("psb-build", "temperature_k", "nan"),
    ("mix", "delta_xy_ghz", "inf"),
    ("rate-a1", "delta_mev", "-inf"),
    ("lifetime", "epsilon_list", "0.0, nan, 1.0"),
])
def test_non_finite_value_cites_key_and_line(config_path, tmp_path, capsys,
                                             command, key, value):
    lines = config_path.read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith(f"{key} =")]
    lines.append(f"{key} = {value}")
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n")
    assert cli.main([command, "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and f"c.txt:{len(lines)}:" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("command", ["mix", "rate-e12", "lifetime"])
def test_parameter_error_exits_2_naming_key(config_path, tmp_path, capsys,
                                            command):
    # without its band, a negative coupling passes the parse-time checks and
    # is rejected by the parameter objects
    lines = [ln for ln in config_path.read_text().splitlines()
             if not ln.startswith("eta_")]
    lines.append("eta_mhz_per_mev3 = -1")
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n")
    assert cli.main([command, "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "c.txt" in err and "eta_mhz_per_mev3" in err and "eta must be > 0" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("command", ["psb-build", "rate-e12", "lifetime",
                                     "mix", "lowt-error"])
def test_negative_temperature_exits_2_citing_line(config_path, tmp_path,
                                                  capsys, command):
    p = config_with(config_path, tmp_path, "temperature_k", "-5")
    n_lines = len(p.read_text().splitlines())
    assert cli.main([command, "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"c.txt:{n_lines}:" in err and "temperature_k" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_negative_epsilon_exits_2_citing_line(config_path, tmp_path, capsys):
    # a negative admixture would lengthen the split-pair lifetime
    p = config_with(config_path, tmp_path, "epsilon_list", "-3,0.5")
    n_lines = len(p.read_text().splitlines())
    assert cli.main(["lifetime", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"c.txt:{n_lines}:" in err and "epsilon_list" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("value", [",", ""], ids=["comma", "blank"])
def test_empty_epsilon_list_exits_2_citing_line(config_path, tmp_path, capsys,
                                                value):
    # no admixture value would leave lifetimes.csv without a row
    p = config_with(config_path, tmp_path, "epsilon_list", value)
    n_lines = len(p.read_text().splitlines())
    assert cli.main(["lifetime", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"c.txt:{n_lines}:" in err and "epsilon_list" in err
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_disordered_band_rejected(config_path, tmp_path, capsys):
    text = config_path.read_text().replace("perp_ratio_hi = 1.4",
                                           "perp_ratio_hi = 1.1")
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert cli.main(["ratio", "--config", str(p), "--out",
                     str(tmp_path)]) == 2
    assert "ordered" in capsys.readouterr().err


def test_missing_data_file_is_config_error(config_path, tmp_path, capsys):
    text = config_path.read_text().replace("lifetime_csv = ",
                                           "lifetime_csv = /nonexistent/")
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert cli.main(["fit-mott-seitz", "--config", str(p), "--out",
                     str(tmp_path)]) == 2
    assert "lifetime_csv" in capsys.readouterr().err


def test_empty_inference_exits_4(config_path, tmp_path):
    text = config_path.read_text()
    for old, new in (("target_rate_mhz = 16.0", "target_rate_mhz = 4000.0"),
                     ("target_rate_lo_mhz = 15.4",
                      "target_rate_lo_mhz = 3900.0"),
                     ("target_rate_hi_mhz = 16.6",
                      "target_rate_hi_mhz = 4100.0")):
        text = text.replace(old, new)
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert cli.main(["infer-delta", "--config", str(p), "--out",
                     str(tmp_path), "--quiet"]) == 4
    # the empty result is still recorded deterministically
    assert "no interval" in (tmp_path / "summary.txt").read_text()
    # the empty interval set is a table with column names and no rows
    table = tmp_path / "delta_intervals.csv"
    assert table.read_text().splitlines()[-1] == "lo_mev,hi_mev"
    with pytest.raises(FormatError, match="no data rows"):
        read_intervals(table)


def test_numerical_failure_exits_3(config_path, tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    rows = ["temperature_K,tau_ns,sigma_ns,spin_class"]
    rows += [f"{t},12.0,0.2,ms0" for t in (300, 400, 500, 600)]
    flat.write_text("\n".join(rows) + "\n")
    text = []
    for line in config_path.read_text().splitlines():
        if line.startswith("lifetime_csv ="):
            line = f"lifetime_csv = {flat}"
        text.append(line)
    p = tmp_path / "c.txt"
    p.write_text("\n".join(text) + "\n")
    assert cli.main(["fit-mott-seitz", "--config", str(p), "--out",
                     str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "fit-mott-seitz" in err and "unidentifiable" in err


@pytest.mark.parametrize("command, key, header, row", [
    ("extract-eta", "mix_csv", "temperature_K,gamma_mix_MHz,sigma_MHz",
     "12,5.0x,0.2"),
    ("fit-mott-seitz", "lifetime_csv", "temperature_K,tau_ns,sigma_ns,spin_class",
     "400,12.0,n/a,ms0"),
])
def test_malformed_table_exits_2_citing_line(config_path, tmp_path, capsys,
                                             command, key, header, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# measured\n{header}\n{row}\n")
    p = config_with(config_path, tmp_path, key, bad)
    assert cli.main([command, "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    assert "bad.csv:3:" in capsys.readouterr().err


def test_manifest_error_exits_2(config_path, tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"f0_csv = {DATA / 'psb_low_temperature.csv'}\n"
                        "s0 = 3.49\ns0 = 3.5\nomega_mev = 200.0\n")
    p = config_with(config_path, tmp_path, "psb_manifest", manifest)
    assert cli.main(["rate-a1", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "m.txt:3:" in err and "duplicate key 's0'" in err


def test_temperature_beyond_work_limit_exits_3(config_path, tmp_path, capsys):
    p = config_with(config_path, tmp_path, "temperature_k", "1e9")
    assert cli.main(["lifetime", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "work limit" in err and str(psb.MAX_SIDEBAND_NODES) in err
    assert not (tmp_path / "out" / "summary.txt").exists()


# one flag per grid sized from user input, each at a value whose grid
# would take gigabytes: 8.5e8 cutoff nodes, 1.7e9 mixing nodes, 5.8e9
# and 1.5e9 gap nodes, 7e8 temperatures
OVERSIZED = {
    "rate-e12": ["rate-e12", "--grid-step", "1e-7"],
    "mix-spectral": ["mix-spectral", "--grid-step", "1e-8"],
    "infer-delta": ["infer-delta", "--grid-step", "1e-7"],
    "lowt-error": ["lowt-error", "--grid-step", "1e-7"],
    "sweep": ["sweep", "lifetime", "--from", "0", "--to", "700", "--step",
              "1e-6"],
}


@pytest.mark.parametrize("args", list(OVERSIZED.values()), ids=list(OVERSIZED))
def test_oversized_grid_exits_3_before_allocating(config_path, tmp_path, args):
    # the command runs in a child capped at 1 GiB of address space, so a
    # grid allocated before the check would end in MemoryError, not exit 3
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from nvisc.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(nvisc.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args, "--config", str(config_path),
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert f"work limit of {psb.MAX_GRID_NODES} nodes" in proc.stderr
    assert not (tmp_path / "out" / "summary.txt").exists()


# flag values refused at parse time; each names its flag and exits 2
BAD_FLAGS = {
    "rate-e12-negative-step": ["rate-e12", "--grid-step", "-1"],
    "rate-e12-zero-step": ["rate-e12", "--grid-step", "0"],
    "rate-e12-nan-step": ["rate-e12", "--grid-step", "nan"],
    "infer-delta-zero-step": ["infer-delta", "--grid-step", "0"],
    "infer-delta-negative-step": ["infer-delta", "--grid-step", "-1"],
    "lowt-error-zero-step": ["lowt-error", "--grid-step", "0"],
    "mix-spectral-negative-step": ["mix-spectral", "--grid-step", "-1"],
    "mix-spectral-zero-step": ["mix-spectral", "--grid-step", "0"],
    "mix-spectral-inf-step": ["mix-spectral", "--grid-step", "inf"],
    "sweep-infinite-to": ["sweep", "lifetime", "--to", "inf"],
    "sweep-nan-from": ["sweep", "lifetime", "--from", "nan"],
    "sweep-infinite-step": ["sweep", "lifetime", "--step", "inf"],
    "sweep-zero-step": ["sweep", "lifetime", "--step", "0"],
}


def refused_at_parse(config_path, tmp_path, capsys, args) -> str:
    """stderr of a command line argparse refuses: exit 2, no summary.txt."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*args, "--config", str(config_path), "--out",
                  str(tmp_path / "out"), "--quiet"])
    assert exit_info.value.code == 2
    assert not (tmp_path / "out" / "summary.txt").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("args", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
def test_bad_flag_value_exits_2_naming_flag(config_path, tmp_path, capsys,
                                            args):
    flag = next(a for a in reversed(args) if a.startswith("--"))
    assert f"argument {flag}:" in refused_at_parse(config_path, tmp_path,
                                                   capsys, args)


@pytest.mark.parametrize("command", [["rate-a1"], ["lifetime"],
                                     ["sweep", "lifetime"]],
                         ids=["rate-a1", "lifetime", "sweep-lifetime"])
def test_grid_step_refused_where_unread(config_path, tmp_path, capsys,
                                        command):
    err = refused_at_parse(config_path, tmp_path, capsys,
                           [*command, "--grid-step", "5"])
    assert "unrecognized arguments: --grid-step 5" in err


def test_sweep_rejects_other_axes(config_path, tmp_path, capsys):
    err = refused_at_parse(config_path, tmp_path, capsys,
                           ["sweep", "lifetime", "--axis", "delta"])
    assert "argument --axis:" in err


def test_sweep_negative_start_exits_2(config_path, tmp_path, capsys):
    err = refused_at_parse(config_path, tmp_path, capsys,
                           ["sweep", "lifetime", "--from", "-50", "--to", "10"])
    assert "argument --from:" in err


def test_sweep_rejects_other_commands(config_path, tmp_path, capsys):
    err = refused_at_parse(config_path, tmp_path, capsys, ["sweep", "ratio"])
    assert "argument sweep_command:" in err and "lifetime" in err


# ---------------------------------------------------------- data readers


def test_shipped_tables_load():
    series = MixSeries.from_csv(DATA / "mixing_rates_synthetic.csv")
    assert len(series) >= 3
    lifetimes = LifetimeSeries.from_csv(DATA / "high_temperature_lifetimes.csv")
    assert set(lifetimes.spin_classes) == {"ms0"}
    table = read_csv(DATA / "psb_low_temperature.csv")
    assert table.omega_min == 0.0
    assert np.all(table.values >= 0)
