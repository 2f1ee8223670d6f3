import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import rabisim
from rabisim.cli import main
from rabisim.model import DriveParams, p1_two_level_damped
from rabisim.output import read_csv
from rabisim.scenario import (ScenarioError, load_scenario_dict, parse_scenario,
                              preset_file)
from rabisim.units import khz_to_angular

SIMULATE_YAML = """\
name: homogeneous-check
command: simulate
seed: 5
output: {basename: homog}
drive: {omega0_khz: 9.0, delta_khz: 4.0}
distribution: {kind: gaussian, sigma_khz: 0.0}
atom_model: {kind: analytic_two_level, gamma_khz: 1.0}
time_grid: {t_max_ms: 1.0, dt_ms: 0.008}
"""


SPECTRUM_YAML = """\
name: tiny-spectrum
command: spectrum
seed: 0
output: {basename: spec}
drive: {omega0_khz: 9.0, delta_list_khz: [-6.0]}
distribution: {kind: gaussian, sigma_khz: 8.0}
atom_model: {kind: analytic_two_level, gamma_khz: 1.0}
time_grid: {t_max_ms: 2.0, dt_ms: 0.008}
"""


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run_fresh(tmp_path, capsys, argv):
    """Run main into a fresh --out under tmp_path; return that directory and
    the names of the files main printed, after checking that they are
    exactly the files in it and that nothing appeared beside it."""
    out = tmp_path / "out"
    before = set(tmp_path.iterdir())
    assert main(argv + ["--out", str(out)]) == 0
    printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert all(path.parent == out for path in printed)
    assert sorted(out.iterdir()) == sorted(printed)
    assert set(tmp_path.iterdir()) == before | {out}
    return out, [path.name for path in printed]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "rabisim" in capsys.readouterr().out


def test_simulate_matches_closed_form(tmp_path, capsys):
    config = _write(tmp_path, SIMULATE_YAML)
    out, names = _run_fresh(tmp_path, capsys, ["simulate", "--config", str(config)])
    assert names == ["homog.csv"]
    meta, cols, rows = read_csv(out / "homog.csv")
    assert cols == ["t_ms", "signal"]
    assert meta["seed"] == "5"
    assert len(meta["scenario_hash"]) == 64
    t = np.array([float(r[0]) for r in rows])
    signal = np.array([float(r[1]) for r in rows])
    drive = DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(4.0))
    expected = p1_two_level_damped(drive, 0.0, t, khz_to_angular(1.0))
    assert np.max(np.abs(signal - expected)) < 1e-9


def test_rerun_is_byte_identical(tmp_path):
    config = _write(tmp_path, SIMULATE_YAML)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        out.mkdir()
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out1 / "homog.csv").read_bytes() == (out2 / "homog.csv").read_bytes()


def test_seed_override_changes_metadata_only(tmp_path):
    config = _write(tmp_path, SIMULATE_YAML)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    main(["simulate", "--config", str(config), "--out", str(out1)])
    main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "99"])
    m1, _, r1 = read_csv(out1 / "homog.csv")
    m2, _, r2 = read_csv(out2 / "homog.csv")
    assert m1["seed"] == "5" and m2["seed"] == "99"
    assert m1["scenario_hash"] != m2["scenario_hash"]
    assert r1 == r2


def test_svg_flag_writes_plot(tmp_path):
    config = _write(tmp_path, SIMULATE_YAML)
    main(["simulate", "--config", str(config), "--out", str(tmp_path), "--svg"])
    svg = (tmp_path / "homog.svg").read_text()
    assert svg.startswith("<svg")


def test_scenario_error_exits_2(tmp_path, capsys):
    bad = SIMULATE_YAML.replace("sigma_khz: 0.0", "sigma_khz: -3.0")
    config = _write(tmp_path, bad)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "sigma_khz" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    config = _write(tmp_path, SIMULATE_YAML)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path),
                 "--seed", "-1"]) == 2
    assert "seed: " in capsys.readouterr().err


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    config = _write(tmp_path, SIMULATE_YAML)
    blocker = _write(tmp_path, "", name="taken")
    assert main(["simulate", "--config", str(config), "--out", str(blocker)]) == 1
    assert "taken" in capsys.readouterr().err


def test_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert "nope.yaml" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "fig99" in err


def test_command_mismatch_exits_2(tmp_path, capsys):
    config = _write(tmp_path, SIMULATE_YAML)
    assert main(["scan", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "simulate" in capsys.readouterr().err


@pytest.mark.parametrize("kind, columns", [
    ("single", ["omega0_khz", "sigma_khz", "detuning_khz", "frequency_khz",
                "frequency_ci_khz", "homogeneous_khz", "amplitude",
                "amplitude_ci", "gamma", "gamma_ci", "tau_ms", "r_squared",
                "error"]),
    ("two", ["omega0_khz", "sigma_khz", "detuning_khz", "fraction_a",
             "fraction_a_ci", "omega_bar_khz", "gamma_b", "indistinguishable",
             "fraction_ci_wide", "r_squared", "error"]),
    ("fft", ["omega0_khz", "sigma_khz", "detuning_khz", "frequency_khz",
             "peaks_khz", "error"]),
], ids=["single", "two", "fft"])
def test_scan_output_columns(tmp_path, capsys, kind, columns):
    # An FFT scan reads no fit window.
    window = "" if kind == "fft" else ", window_ms: [0.01, 0.6]"
    yaml_text = f"""\
name: tiny-scan
command: scan
seed: 0
output: {{basename: tiny}}
drive: {{omega0_khz: 9.0, delta_list_khz: [0.0, 9.0]}}
distribution: {{kind: gaussian, sigma_khz: 0.0}}
atom_model: {{kind: analytic_two_level, gamma_khz: 0.0}}
time_grid: {{t_max_ms: 1.0, dt_ms: 0.004}}
analysis: {{kind: {kind}{window}}}
"""
    config = _write(tmp_path, yaml_text)
    out, names = _run_fresh(tmp_path, capsys, ["scan", "--config", str(config), "--svg"])
    assert names == ["tiny.csv", "tiny.svg"]
    meta, cols, rows = read_csv(out / "tiny.csv")
    assert cols == columns
    assert len(rows) == 2
    resonant = dict(zip(cols, rows[0]))
    detuned = dict(zip(cols, rows[1]))
    assert resonant["error"] == "" and detuned["error"] == ""
    if kind == "single":
        assert float(resonant["frequency_khz"]) == pytest.approx(9.0, rel=1e-3)
        assert float(detuned["frequency_khz"]) == pytest.approx(np.hypot(9.0, 9.0), rel=1e-2)
        assert float(detuned["homogeneous_khz"]) == pytest.approx(np.hypot(9.0, 9.0), rel=1e-9)
    elif kind == "two":
        assert 0.0 <= float(detuned["fraction_a"]) <= 1.0
    else:
        assert float(resonant["frequency_khz"]) == pytest.approx(9.0, abs=0.3)
        assert resonant["peaks_khz"].split(";")[0] == resonant["frequency_khz"]
    assert (out / "tiny.svg").read_text().startswith("<svg")


def test_spectrum_outputs_with_track(tmp_path, capsys):
    yaml_text = SPECTRUM_YAML + """\
analysis:
  track: {window_ms: 0.4, hop_ms: 0.4, t_stop_ms: 1.2}
"""
    config = _write(tmp_path, yaml_text)
    out, names = _run_fresh(tmp_path, capsys,
                            ["spectrum", "--config", str(config), "--svg"])
    assert names == ["spec_spectra.csv", "spec_peaks.csv", "spec_track.csv",
                     "spec.svg"]
    _, spec_cols, spec_rows = read_csv(out / "spec_spectra.csv")
    assert spec_cols == ["detuning_khz", "frequency_khz", "power"]
    assert len(spec_rows) > 100
    _, peak_cols, peak_rows = read_csv(out / "spec_peaks.csv")
    assert peak_cols == ["detuning_khz", "rank", "peak_frequency_khz", "peak_height"]
    assert len(peak_rows) >= 1
    _, track_cols, track_rows = read_csv(out / "spec_track.csv")
    assert track_cols == ["detuning_khz", "t_center_ms", "frequency_khz", "ci95_khz"]
    assert len(track_rows) >= 2
    assert (out / "spec.svg").read_text().startswith("<svg")


def test_dotted_basename_keeps_its_dots(tmp_path, capsys):
    config = _write(tmp_path, SPECTRUM_YAML.replace("basename: spec",
                                                    "basename: run.v2"))
    _, names = _run_fresh(tmp_path, capsys,
                          ["spectrum", "--config", str(config), "--svg"])
    assert names == ["run.v2_spectra.csv", "run.v2_peaks.csv", "run.v2.svg"]


@pytest.mark.parametrize("header, named", [
    ("name: run\noutput: {basename: ''}", "output.basename"),
    ("name: run\noutput: {basename: ../x}", "output.basename"),
    ("name: run\noutput: {basename: \"a\\0b\"}", "output.basename"),
    ("name: sub/run", "name"),
], ids=["empty", "parent_dir", "nul", "name_default"])
def test_basename_outside_out_exits_2(tmp_path, capsys, header, named):
    text = SIMULATE_YAML.replace("name: homogeneous-check\n", "")
    config = _write(tmp_path, text.replace("output: {basename: homog}", header))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--svg"]) == 2
    assert f"{named}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


_SUPPORT_TOO_NARROW = (
    "distribution: {kind: skewed_gaussian, sigma_khz: 8.0, skew: 20.0}\n"
    "ensemble: {support_half_width: 5.0}\n"
    "time_grid: {t_max_ms: 1.0, dt_ms: 0.008}\n")
_SHORT_GRID = ("distribution: {kind: gaussian, sigma_khz: 8.0}\n"
               "time_grid: {t_max_ms: 0.1, dt_ms: 0.01}\n")
_SHORT_TRACK = ("distribution: {kind: gaussian, sigma_khz: 8.0}\n"
                "time_grid: {t_max_ms: 1.0, dt_ms: 0.004}\n"
                "analysis: {track: {window_ms: 0.1, hop_ms: 0.1}}\n")


@pytest.mark.parametrize("command, body, named", [
    ("simulate", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("scan", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("spectrum", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("spectrum", _SHORT_GRID, "time_grid"),
    ("scan", _SHORT_GRID + "analysis: {kind: fft}\n", "time_grid"),
    ("spectrum", _SHORT_TRACK, "analysis.track"),
], ids=["support-simulate", "support-scan", "support-spectrum",
        "short_grid-spectrum", "short_grid-fft_scan", "short_track-spectrum"])
def test_unrunnable_inputs_exit_2(tmp_path, capsys, command, body, named):
    # Rejected while parsing (support, grid) or when the track runs; either
    # way the run ends in a ScenarioError before any file is written.
    drive = ("{omega0_khz: 9.0, delta_khz: 2.0}" if command == "simulate"
             else "{omega0_khz: 9.0, delta_list_khz: [0.0, 2.0]}")
    config = _write(tmp_path, f"name: bad\ncommand: {command}\ndrive: {drive}\n{body}")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                 "--svg"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"rabisim: {named}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


def _preset_with(name, **sections):
    data = load_scenario_dict(preset_file(name))
    for section, value in sections.items():
        if isinstance(value, dict) and isinstance(data.get(section), dict):
            data[section] = {**data[section], **value}
        else:
            data[section] = value
    return data


@pytest.mark.parametrize("data, named", [
    (_preset_with("fig1b", scan={"omega0_list_khz": [5.0]}), "scan"),
    (_preset_with("fig1b", drive={"delta_list_khz": [5.0]}), "drive.delta_list_khz"),
    (_preset_with("fig6a", distribution={"kind": "gaussian", "sigma_khz": 8.0},
                  scan={"sigma_list_khz": [4.0, 8.0]}), "scan"),
    (_preset_with("fig7b", analysis={"track": {"window_ms": 0.4, "hop_ms": 0.4}}),
     "analysis.track"),
    (_preset_with("fig6b", analysis={"kind": "single"}), "analysis.kind"),
    (_preset_with("fig5", analysis={"decay": "exp"}), "analysis.decay"),
    (_preset_with("fig6-field", drive={"omega0_khz": "nonsense"}), "drive"),
], ids=["simulate_scan", "simulate_delta_list", "spectrum_sigma_list",
        "scan_track", "spectrum_kind", "two_decay", "field_dist_drive"])
def test_unread_keys_exit_2(tmp_path, capsys, data, named):
    # Each key is valid somewhere, but this command never reads it.
    config = _write(tmp_path, yaml.safe_dump(data))
    assert main([data["command"], "--config", str(config),
                 "--out", str(tmp_path / "out"), "--svg"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"rabisim: {named}: not read by ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


def test_all_error_scan_still_plots(tmp_path, capsys):
    # Every fit window runs past the 1 ms grid, so every row is an error and
    # the plot has nothing finite: it is written as an empty frame.
    config = _write(tmp_path, """\
name: all-errors
command: scan
drive: {omega0_khz: 9.0, delta_list_khz: [0.0, 2.0]}
distribution: {kind: gaussian, sigma_khz: 5.0}
time_grid: {t_max_ms: 1.0, dt_ms: 0.008}
analysis: {kind: single, window_ms: [0.5, 3.0]}
""")
    out, names = _run_fresh(tmp_path, capsys, ["scan", "--config", str(config), "--svg"])
    assert names == ["all-errors.csv", "all-errors.svg"]
    _, cols, rows = read_csv(out / "all-errors.csv")
    assert len(rows) == 2 and all(row[cols.index("error")] for row in rows)
    assert "<polyline" not in (out / "all-errors.svg").read_text()


def test_field_dist_outputs(tmp_path, capsys):
    yaml_text = """\
name: tiny-field
command: field-dist
seed: 0
output: {basename: field}
fieldmap:
  b_set_khz: 18167.0
  signs: [1, -1]
  beam: {profile: flat_top, diameter_mm: 12.0}
  n_bins: 40
  profiles:
    b1z: {kind: piecewise_linear, nodes: [[-20.0, -1.0], [0.0, 4.0], [20.0, 0.5]]}
"""
    config = _write(tmp_path, yaml_text)
    out, names = _run_fresh(tmp_path, capsys,
                            ["field-dist", "--config", str(config), "--svg"])
    assert names == ["field.csv", "field.svg"]
    meta, cols, rows = read_csv(out / "field.csv")
    assert cols == ["current_sign", "bin_center_khz", "weight"]
    signs = {r[0] for r in rows}
    assert signs == {"1", "-1"}
    m_plus = float(meta["sign_+1_third_moment"])
    m_minus = float(meta["sign_-1_third_moment"])
    assert m_plus * m_minus < 0
    assert (out / "field.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("fieldmap, named", [
    ("b_set_khz: 1.0e+300\n  beam: {profile: flat_top, diameter_mm: 12.0}",
     "b_set_khz"),
    ("b_set_khz: 18167.0\n  bounds_xy_mm: [-8.25, 8.0]\n"
     "  beam: {profile: flat_top, diameter_mm: 0.2}",
     "beam weight vanishes"),
], ids=["b_set_overflow", "beam_misses_grid"])
def test_field_histogram_errors_name_fieldmap(tmp_path, capsys, fieldmap, named):
    # field-dist builds the histogram at run time, a fieldmap distribution
    # while parsing; both end in a ScenarioError.
    config = _write(tmp_path, "name: cell\ncommand: field-dist\n"
                              f"fieldmap:\n  {fieldmap}\n", name="cell.yaml")
    assert main(["field-dist", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "fieldmap: " in err and named in err
    data = load_scenario_dict(_write(tmp_path, SIMULATE_YAML))
    data["distribution"] = {"fieldmap": "cell.yaml"}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data, base_dir=tmp_path)
    assert "distribution.fieldmap(cell.yaml).fieldmap: " in str(info.value)
    assert named in str(info.value)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rabisim", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rabisim" in proc.stdout


def test_presets_leave_heavy_scipy_modules_unimported(tmp_path):
    # Only scipy.linalg and scipy.special are needed. Importing scipy.signal
    # would pull in the other four and cost about 0.4 s per process.
    script = f"""
import sys
from rabisim.cli import main
from rabisim.scenario import PRESET_NAMES
for name in PRESET_NAMES:
    assert main(["reproduce", name, "--out", {str(tmp_path)!r}]) == 0, name
heavy = ("scipy.signal", "scipy.stats", "scipy.integrate",
         "scipy.interpolate", "scipy.optimize")
print(sorted(m for m in heavy if m in sys.modules))
"""
    src = str(Path(rabisim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
