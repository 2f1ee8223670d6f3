import ast
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from goldens import GOLDEN, golden_report

import rabisim
from rabisim.cli import main
from rabisim.model import DriveParams, p1_two_level_damped
from rabisim.output import read_csv
from rabisim.ensemble import DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.scenario import (ScenarioError, load_scenario_dict, parse_scenario,
                              preset_file, scenario_hash)
from rabisim.units import angular_to_khz, khz_to_angular

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


def _uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_second_blas_kernel_moves_no_flag_or_text_cell(tmp_path):
    # Byte identity holds per BLAS kernel: OPENBLAS_CORETYPE picks another
    # OpenBLAS kernel for the process, which may move fitted numbers at
    # rounding level, but no flag, error or text cell, and no row. fig5
    # runs the two-frequency block fit. The run is judged against the
    # goldens by their tolerance rules: every move is bounded against the
    # number's own CI.
    names = ("fig3a", "fig5", "fig7b")
    script = f"""
import sys
from rabisim.cli import main
for name in {names!r}:
    assert main(["reproduce", name, "--out", sys.argv[1] + "/" + name]) == 0, name
"""
    src = str(Path(rabisim.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "prescott"
    proc = subprocess.run([sys.executable, "-c", script, str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    golden = tmp_path / "golden"
    for name in names:
        shutil.copytree(GOLDEN / name, golden / name)
    report = golden_report(out, golden, exact=False)
    assert not report, report


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


def test_scenario_hash_covers_the_referenced_distribution_file(tmp_path):
    # One scenario beside three d.txt files: the hash follows the file's
    # bytes, and the mapping alone gives the hash of the one-argument call.
    config = _write(tmp_path, SIMULATE_YAML.replace(
        "{kind: gaussian, sigma_khz: 0.0}", "{file: d.txt}"))
    hashes = []
    for i, rows in enumerate(["-1.0 1.0\n1.0 1.0\n", "-2.0 1.0\n2.0 1.0\n",
                              "-1.0 1.0\n1.0 1.0\n"]):
        (tmp_path / "d.txt").write_text(rows)
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        hashes.append(read_csv(out / "homog.csv")[0]["scenario_hash"])
    assert hashes[0] != hashes[1]
    assert hashes[0] == hashes[2]
    data = load_scenario_dict(config)
    assert scenario_hash(data) not in hashes
    assert scenario_hash(data, tmp_path) == hashes[2]


def test_scenario_hash_of_a_fieldmap_reference(tmp_path):
    # A fieldmap file's bytes are folded in; a bundled preset name is not a
    # file, so that scenario keeps the hash of its mapping.
    field = "name: cell\ncommand: field-dist\nfieldmap: {b_set_khz: 18167.0, n_bins: 8}\n"
    (tmp_path / "field.yaml").write_text(field)
    by_file = {"distribution": {"fieldmap": "field.yaml"}}
    before = scenario_hash(by_file, tmp_path)
    (tmp_path / "field.yaml").write_text(field.replace("n_bins: 8", "n_bins: 9"))
    assert scenario_hash(by_file, tmp_path) not in (before, scenario_hash(by_file))
    by_name = {"distribution": {"fieldmap": "fig6-field"}}
    assert scenario_hash(by_name, tmp_path) == scenario_hash(by_name)


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
    # beams only propagate along z, so there is no axis to set
    config = _write(tmp_path, "name: cell\ncommand: field-dist\nfieldmap:\n"
                              "  b_set_khz: 18167.0\n  beam: {axis: z}\n", name="cell.yaml")
    assert main(["field-dist", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "fieldmap.beam.axis: unknown key" in capsys.readouterr().err


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
    ("name: \"a\\nb\"", "name"),
    ("name: run\noutput: {basename: \"a\\nb\"}", "output.basename"),
], ids=["empty", "parent_dir", "nul", "name_default", "name_line_break",
        "basename_line_break"])
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
# A 40 ms trace at sigma 18 kHz needs 11,543 nodes, more than the default 2001.
_ALIASED = ("distribution: {kind: gaussian, sigma_khz: 18.0}\n"
            "time_grid: {t_max_ms: 40.0, dt_ms: 0.004}\n")
# At sigma 18 kHz over 0-4 ms the two-level rule needs 1,175 nodes and the
# five-level rule, whose frequencies move four times as fast with the shift,
# 4,631.
_ALIASED_MULTILEVEL = ("distribution: {kind: gaussian, sigma_khz: 18.0}\n"
                       "atom_model: {kind: multilevel}\n"
                       "time_grid: {t_max_ms: 4.0, dt_ms: 0.004}\n")
_GAUSSIAN = "distribution: {kind: gaussian, sigma_khz: 8.0}\n"
_GRID = "time_grid: {t_max_ms: 1.0, dt_ms: 0.008}\n"


def _far_five_level(gamma_khz):
    """One five-level atom at a 10,000,000 kHz quadratic shift over 10 s."""
    return ("distribution: {kind: gaussian, sigma_khz: 0.0}\n"
            f"atom_model: {{kind: multilevel, gamma_khz: {gamma_khz}, "
            "quadratic_shift_khz: 10000000.0}\n"
            "time_grid: {t_max_ms: 10000.0, dt_ms: 100.0}\n")


# With a 1 Hz drive and a 1 Hz dephasing rate the density matrix of that
# atom drifts off its trace by about 2e-4, past the 1e-6 the evolution
# allows. Undamped, the atom is a pure state and does not drift.
_DRIFTING = _far_five_level(0.001)
# A hop far below the sample spacing would fit 8,000,000 windows.
_DENSE_TRACK = ("distribution: {kind: gaussian, sigma_khz: 8.0}\n"
                "time_grid: {t_max_ms: 2.0, dt_ms: 0.008}\n"
                "analysis: {track: {window_ms: 0.4, hop_ms: 1.0e-7, t_stop_ms: 1.2}}\n")
# Tracks that hold no window: one longer than the grid, one longer than t_stop_ms.
_LONG_TRACK = ("distribution: {kind: gaussian, sigma_khz: 8.0}\n"
               "time_grid: {t_max_ms: 2.0, dt_ms: 0.008}\n"
               "analysis: {track: {window_ms: 5.0, hop_ms: 0.4}}\n")
_TRACK_PAST_STOP = ("distribution: {kind: gaussian, sigma_khz: 8.0}\n"
                    "time_grid: {t_max_ms: 2.0, dt_ms: 0.008}\n"
                    "analysis: {track: {window_ms: 0.4, hop_ms: 0.4, t_stop_ms: 0.2}}\n")


@pytest.mark.parametrize("command, body, named", [
    ("simulate", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("scan", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("spectrum", _SUPPORT_TOO_NARROW, "ensemble.support_half_width"),
    ("spectrum", _SHORT_GRID, "time_grid"),
    ("scan", _SHORT_GRID + "analysis: {kind: fft}\n", "time_grid"),
    ("spectrum", _SHORT_TRACK, "analysis.track"),
    ("spectrum", _DENSE_TRACK, "analysis.track.hop_ms"),
    ("spectrum", _LONG_TRACK, "analysis.track.window_ms"),
    ("spectrum", _TRACK_PAST_STOP, "analysis.track.window_ms"),
    ("simulate", _ALIASED, "ensemble.quadrature_nodes"),
    ("scan", _ALIASED + "analysis: {kind: fft}\n", "ensemble.quadrature_nodes"),
    ("simulate", _ALIASED_MULTILEVEL, "ensemble.quadrature_nodes"),
    ("field-dist", "fieldmap: {b_set_khz: 18167.0, signs: []}\n", "fieldmap.signs"),
    ("field-dist", "fieldmap: {b_set_khz: 18167.0, signs: [2]}\n", "fieldmap.signs[0]"),
    ("field-dist", "fieldmap: {b_set_khz: 18167.0, signs: [1, 1], spacing_mm: 2.0, "
                   "n_bins: 4}\n", "fieldmap.signs[1]"),
    ("field-dist", "fieldmap: {b_set_khz: 18167.0, current_sign: 2}\n",
     "fieldmap.current_sign"),
    ("field-dist", "", "fieldmap"),
    ("simulate", "distribution: {fieldmap: 3}\n" + _GRID, "distribution.fieldmap"),
    ("simulate", "distribution: {fieldmap: missing.yaml}\n" + _GRID,
     "distribution.fieldmap"),
    ("simulate", "distribution: {fieldmap: fig99}\n" + _GRID, "distribution.fieldmap"),
    ("simulate", "distribution: {fieldmap: scenario.yaml}\n" + _GRID,
     "distribution.fieldmap"),
    ("simulate", "distribution: {file: atoms.txt}\n" + _GRID, "distribution.file"),
    ("scan", "drive: {omega0_khz: 9.0}\n" + _GAUSSIAN + _GRID, "drive"),
    ("scan", _GAUSSIAN + _GRID + "analysis: {kind: fft, fft: {prominence: 1.5}}\n",
     "analysis.fft.prominence"),
    ("simulate", _GRID, "distribution"),
    ("simulate", _GAUSSIAN, "time_grid"),
    ("simulate", _GAUSSIAN + "time_grid: {t_max_ms: 0.01, dt_ms: 0.008}\n", "time_grid"),
    ("field-dist", "fieldmap: {b_set_khz: 18167.0, "
                   "profiles: {b0z: {kind: piecewise_linear, nodes: 3}}}\n",
     "fieldmap.profiles.b0z.nodes"),
    ("simulate", "distribution: {file: comments.txt}\n" + _GRID, "distribution.file"),
    ("simulate", "drive: {omega0_khz: 0.001}\n" + _DRIFTING, "atom_model"),
    ("spectrum", "drive: {omega0_khz: 0.001, delta_list_khz: [0.0]}\n" + _DRIFTING,
     "atom_model"),
], ids=["support-simulate", "support-scan", "support-spectrum",
        "short_grid-spectrum", "short_grid-fft_scan", "short_track-spectrum",
        "dense_track-spectrum", "long_track-spectrum", "track_past_stop-spectrum",
        "aliased-simulate", "aliased-fft_scan", "aliased-multilevel", "signs_empty",
        "signs_two", "signs_repeated", "current_sign_two",
        "no_fieldmap",
        "fieldmap_not_string", "fieldmap_file_missing", "fieldmap_unknown_preset",
        "fieldmap_file_without_section", "file_missing", "scan_without_deltas",
        "prominence_above_1", "no_distribution", "no_time_grid",
        "two_sample_grid", "profile_nodes_not_list", "file_without_rows",
        "five_level_drift-simulate", "five_level_drift-spectrum"])
def test_unrunnable_inputs_exit_2(tmp_path, capsys, command, body, named):
    # Rejected while parsing (support, grid), when the track runs or when
    # the five-level evolution drifts; either way the run ends in a
    # ScenarioError before any file is written. The drive below is added
    # unless the body brings its own; field-dist reads none. The file is
    # scenario.yaml, which has no fieldmap section; comments.txt holds
    # comment lines only.
    inputs = []
    if "comments.txt" in body:
        inputs.append(_write(tmp_path, "# shift_khz weight\n# no rows\n", "comments.txt"))
    if body.startswith("drive:") or command == "field-dist":
        drive = ""
    elif command == "simulate":
        drive = "drive: {omega0_khz: 9.0, delta_khz: 2.0}\n"
    else:
        drive = "drive: {omega0_khz: 9.0, delta_list_khz: [0.0, 2.0]}\n"
    config = _write(tmp_path, f"name: bad\ncommand: {command}\n{drive}{body}")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                 "--svg"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"rabisim: {named}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == sorted([config, *inputs])


def test_undamped_far_five_level_atom_runs(tmp_path, capsys):
    # The drifting atom above without dephasing: its pure state keeps its
    # norm, so the run writes the two-level Rabi trace of its 1 Hz drive.
    config = _write(tmp_path, "name: far\ncommand: simulate\n"
                              "drive: {omega0_khz: 0.001}\n" + _far_five_level(0.0))
    out, names = _run_fresh(tmp_path, capsys, ["simulate", "--config", str(config)])
    assert names == ["far.csv"]
    _, cols, rows = read_csv(out / "far.csv")
    assert cols == ["t_ms", "signal"]
    t, signal = np.array(rows, dtype=float).T
    assert t.size == 101
    assert np.max(np.abs(signal - np.sin(0.5 * khz_to_angular(0.001) * t) ** 2)) < 1e-9


_SKEWED_RED_TRACK = ("name: red\ncommand: spectrum\n"
                     "drive: {omega0_khz: 9.0, delta_list_khz: [0.0, -30.0]}\n"
                     "distribution: {kind: skewed_gaussian, sigma_khz: 6.0, skew: -4.0}\n"
                     "time_grid: {t_max_ms: 4.0, dt_ms: 0.008}\n"
                     "analysis: {track: {window_ms: 0.5, hop_ms: 0.5}}\n")


def test_track_error_names_its_detuning(tmp_path, capsys):
    # The Hann-windowed spectrum of the -30 kHz trace has no peak to track;
    # that of the 0 kHz trace, run first, has one.
    config = _write(tmp_path, _SKEWED_RED_TRACK)
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("rabisim: analysis.track: detuning -30 kHz: "
                                       "trace has no spectral peak to track\n")


def test_track_reads_the_spectrum_of_the_run(tmp_path, capsys):
    # Without a window the -30 kHz spectrum has a peak, which the peaks
    # table lists and the track's guard reads: the run tracks both traces.
    config = _write(tmp_path, _SKEWED_RED_TRACK.replace(
        "{track:", "{fft: {window_fn: none}, track:"))
    out, names = _run_fresh(tmp_path, capsys, ["spectrum", "--config", str(config)])
    assert names == ["red_spectra.csv", "red_peaks.csv", "red_track.csv"]
    _, _, peaks = read_csv(out / "red_peaks.csv")
    _, _, track = read_csv(out / "red_track.csv")
    assert {row[0] for row in peaks} == {row[0] for row in track} == {"0", "-30"}


def test_a_tracked_run_takes_one_spectrum_per_trace(tmp_path, monkeypatch):
    # fig6a tracks each of its five detunings from the spectrum it writes.
    from rabisim import cli, spectrum
    calls = []
    real = spectrum.fft_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fft_spectrum", counted)
    monkeypatch.setattr(spectrum, "fft_spectrum", counted)
    path = preset_file("fig6a")
    scenario = parse_scenario(load_scenario_dict(path), base_dir=path.parent)
    written = cli.run_scenario(scenario, "0" * 64, tmp_path)
    assert [p.name for p in written][-1] == "fig6a_track.csv"
    assert len(calls) == len(scenario.deltas) == 5


def test_aliased_grid_names_the_nodes_it_needs():
    # The refusal names the count; a cap that high, or a shorter trace, parses.
    data = yaml.safe_load(f"name: long\ncommand: simulate\n"
                          f"drive: {{omega0_khz: 9.0, delta_khz: 2.0}}\n{_ALIASED}")
    with pytest.raises(ScenarioError, match="need 11543 quadrature nodes, more than "
                                            "the 2001 allowed"):
        parse_scenario(data)
    assert parse_scenario({**data, "ensemble": {"quadrature_nodes": 11543}})
    shorter = {**data, "time_grid": {"t_max_ms": 6.0, "dt_ms": 0.004}}
    assert parse_scenario(shorter)
    # The five-level rule is sized and refused the same way; its frequencies
    # move four times as fast with the shift, so it needs four times the
    # phase term.
    with pytest.raises(ScenarioError, match="ensemble.quadrature_nodes: this time grid and "
                                            "distribution need 6935 quadrature nodes, "
                                            "more than the 2001 allowed"):
        parse_scenario({**shorter, "atom_model": {"kind": "multilevel"}})
    assert parse_scenario({**shorter, "atom_model": {"kind": "multilevel"},
                           "ensemble": {"quadrature_nodes": 6935}})
    # Past the largest cap a scenario may set, the message says so.
    data["distribution"]["sigma_khz"] = 1000.0
    with pytest.raises(ScenarioError, match="need more than 20001 quadrature nodes"):
        parse_scenario(data)


# Two drives and two spreads, listed out of order: the blocks run omega0
# outer and sigma inner, in the order given.
_FOUR_BLOCKS = ("name: blocks\ncommand: scan\n"
                "drive: {omega0_khz: 9.0, delta_list_khz: [0.0, 5.0]}\n"
                "scan: {omega0_list_khz: [15.0, 9.0], sigma_list_khz: [8.0, 4.0]}\n"
                "distribution: {kind: gaussian, sigma_khz: 6.0}\n"
                "time_grid: {t_max_ms: 1.0, dt_ms: 0.008}\n"
                "analysis: {kind: fft}\n")


def test_scan_rows_follow_the_blocks(tmp_path, capsys):
    config = _write(tmp_path, _FOUR_BLOCKS)
    scenario = parse_scenario(load_scenario_dict(config))
    blocks = [(angular_to_khz(omega0), angular_to_khz(sigma))
              for omega0, sigma, _ in scenario.blocks()]
    assert np.allclose(blocks, [(15.0, 8.0), (15.0, 4.0), (9.0, 8.0), (9.0, 4.0)])
    for omega0, sigma, config_ in scenario.blocks():
        assert config_.drive.omega0 == omega0
        assert config_.drive.delta == scenario.deltas[0]
        assert config_.distribution.sigma == sigma
    out, _ = _run_fresh(tmp_path, capsys, ["scan", "--config", str(config)])
    _, columns, rows = read_csv(out / "blocks.csv")
    assert columns[:2] == ["omega0_khz", "sigma_khz"]
    expected = [block for block in blocks for _ in scenario.deltas]
    assert np.allclose([(float(row[0]), float(row[1])) for row in rows], expected,
                       rtol=1e-12, atol=0.0)


def test_refusal_names_the_first_failing_block():
    # Over 0-12 ms the blocks in run order need 791, 3,479, 1,512 and 6,798
    # nodes: at 0.25 kHz the amplitude's poles, not the phase, set the
    # count. The second block is the first above the 2001 allowed.
    data = yaml.safe_load("name: blocks\ncommand: scan\n"
                          "drive: {omega0_khz: 9.0, delta_list_khz: [0.0]}\n"
                          "scan: {omega0_list_khz: [9.0, 0.25], sigma_list_khz: [4.0, 18.0]}\n"
                          "distribution: {kind: gaussian, sigma_khz: 6.0}\n"
                          "time_grid: {t_max_ms: 12.0, dt_ms: 0.004}\n")
    with pytest.raises(ScenarioError, match=r"^ensemble.quadrature_nodes: this time grid and "
                                            r"distribution need 3479 quadrature nodes, "
                                            r"more than the 2001 allowed$"):
        parse_scenario(data)
    data["ensemble"] = {"quadrature_nodes": 3479}
    with pytest.raises(ScenarioError, match="need 6798 quadrature nodes, more than "
                                            "the 3479 allowed"):
        parse_scenario(data)
    data["ensemble"] = {"quadrature_nodes": 6798}
    assert len(list(parse_scenario(data).blocks())) == 4


@pytest.mark.parametrize("sigma_khz", [18.0, 1000.0])
def test_cli_and_api_refuse_in_one_text(tmp_path, capsys, sigma_khz):
    # The exact count at sigma 18 kHz, "more than 20001" at 1000 kHz.
    config = _write(tmp_path, "name: long\ncommand: simulate\n"
                              "drive: {omega0_khz: 9.0, delta_khz: 2.0}\n"
                              + _ALIASED.replace("18.0", str(sigma_khz)))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    api = EnsembleConfig(
        drive=DriveParams(omega0=khz_to_angular(9.0), delta=khz_to_angular(2.0)),
        distribution=DetuningDistribution(kind="gaussian", sigma=khz_to_angular(sigma_khz)))
    with pytest.raises(ValueError) as info:
        ensemble_signal(api, np.arange(0.0, 40.0 + 0.002, 0.004))
    assert err == f"rabisim: ensemble.quadrature_nodes: {info.value}\n"


@pytest.mark.parametrize("half_width", ["1.0e+155", "1.0e+307"])
def test_huge_support_half_width_exits_2_without_warnings(tmp_path, capsys, half_width):
    # At 1e155 the density's z * z overflows, and at 1e307 the width of the
    # support itself. The rule refuses both, naming the support, and raises
    # no floating-point warning on the way.
    config = _write(tmp_path, "name: wide\ncommand: simulate\n"
                              "drive: {omega0_khz: 9.0, delta_khz: 0.0}\n"
                              "distribution: {kind: gaussian, sigma_khz: 2.0}\n"
                              f"ensemble: {{support_half_width: {half_width}}}\n" + _GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rabisim: ensemble.support_half_width: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field,sections", [
    ("distribution.sigma_khz", "distribution: {kind: gaussian, sigma_khz: 1.0e-310}\n"),
    ("scan.sigma_list_khz[1]", "distribution: {kind: skewed_gaussian, sigma_khz: 2.0, skew: 3.0}\n"
                               "scan: {sigma_list_khz: [2.0, 1.0e-310]}\n"),
], ids=["distribution", "sigma_list"])
def test_subnormal_spread_exits_2_naming_its_field(tmp_path, capsys, field, sections):
    # A subnormal sigma makes the density's 2 / w overflow; the refusal names
    # the spread, not the support that no width could mend.
    config = _write(tmp_path, "name: narrow\ncommand: scan\n"
                              "drive: {omega0_khz: 9.0, delta_list_khz: [0.0, 1.0]}\n"
                              + sections + _GRID)
    assert main(["scan", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rabisim: {field}: ")
    assert err.count("\n") == 1


def test_tiny_normal_spread_still_runs(tmp_path):
    config = _write(tmp_path, "name: narrow\ncommand: simulate\n"
                              "drive: {omega0_khz: 9.0, delta_khz: 0.0}\n"
                              "distribution: {kind: gaussian, sigma_khz: 1.0e-300}\n" + _GRID)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def _with_distribution(name, distribution):
    return {**load_scenario_dict(preset_file(name)), "distribution": distribution}


def _with_profile(profile):
    return _preset_with("fig6-field", fieldmap={"profiles": {"b0z": profile}})


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
    (_preset_with("fig6b", ensemble={"quadrature_nodes": 301,
                                     "support_half_width": 5.0}),
     "ensemble.quadrature_nodes"),
    (_preset_with("fig1b", atom_model={"quadratic_shift_khz": 1.0}),
     "atom_model.quadratic_shift_khz"),
    (_preset_with("fig5", analysis={"window_ms": [0.0, 1.0]}),
     "analysis.window_periods"),
    (_preset_with("fig6b", distribution={"sigma_khz": 8.0}), "distribution.sigma_khz"),
    (_with_distribution("fig1b", {"file": "atoms.txt", "sigma_khz": 8.0}),
     "distribution.sigma_khz"),
    (_preset_with("fig6b", distribution={"kind": "skewed_gaussian"}), "distribution.kind"),
    (_preset_with("fig6b", distribution={"skew": 2.0}), "distribution.skew"),
    (_with_distribution("fig1b", {"file": "atoms.txt", "kind": "gaussian"}),
     "distribution.kind"),
    (_with_distribution("fig1b", {"file": "atoms.txt", "skew": 2.0}), "distribution.skew"),
    (_preset_with("fig6-field", fieldmap={"signs": [1, -1]}), "fieldmap.current_sign"),
    (_with_profile({"kind": "constant", "value": 1.0, "coefficients": [1.0]}),
     "fieldmap.profiles.b0z.coefficients"),
    (_with_profile({"kind": "polynomial", "coefficients": [1.0], "value": 1.0}),
     "fieldmap.profiles.b0z.value"),
    (_with_profile({"kind": "constant", "nodes": [[-20.0, 0.0], [20.0, 0.0]]}),
     "fieldmap.profiles.b0z.nodes"),
    (_preset_with("fig6b", drive={"delta_range_khz": {"start": 0.0, "stop": 2.0,
                                                      "step": 1.0}}),
     "drive.delta_range_khz"),
], ids=["simulate_scan", "simulate_delta_list", "spectrum_sigma_list",
        "scan_track", "spectrum_kind", "two_decay", "field_dist_drive",
        "empirical_quadrature", "two_level_quadratic_shift", "window_ms_periods",
        "fieldmap_beside_sigma", "file_beside_sigma", "fieldmap_beside_kind",
        "fieldmap_beside_skew", "file_beside_kind", "file_beside_skew",
        "current_sign_beside_signs", "constant_profile_coefficients",
        "polynomial_profile_value", "constant_profile_nodes", "delta_range_beside_list"])
def test_unread_keys_exit_2(tmp_path, capsys, data, named):
    # Each key is valid somewhere, but this command, kind or form never reads it.
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
    # The message holds commas; quoting keeps it one cell.
    assert len(rows) == 2 and all(len(row) == len(cols) for row in rows)
    assert {row[cols.index("error")] for row in rows} == {
        "fit window [0.5, 3.0] falls outside the trace [0, 1]"}
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
    ("b_set_khz: 18167.0\n  profiles:\n"
     "    b0z: {kind: polynomial, coefficients: [0.0, 0.0, 1.0e+306]}",
     "field deviation is not finite on the grid"),
], ids=["b_set_overflow", "beam_misses_grid", "polynomial_overflow"])
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
    # No preset needs scipy: erf comes from math, and the t quantile of
    # lsq.ci95 is closed-form.
    # Importing scipy.special alone costs about 0.3 s per process. Nor does
    # any preset need the standard library's network, mail or XML packages:
    # xml.sax.saxutils alone pulls in urllib.request, ssl and email, about
    # 30 ms and 7 MB per process. The presets run with --svg, so every
    # writer is reached.
    script = f"""
import sys
HEAVY = ("scipy", "urllib.request", "ssl", "email", "http", "xml")
def loaded():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))
import rabisim
after_import = loaded()
import rabisim.cli
after_cli = loaded()
from rabisim.cli import main
from rabisim.scenario import PRESET_NAMES
assert len(PRESET_NAMES) == 11, PRESET_NAMES
for name in PRESET_NAMES:
    assert main(["reproduce", name, "--out", {str(tmp_path)!r}, "--svg"]) == 0, name
print([after_import, after_cli, loaded()])
"""
    src = str(Path(rabisim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[[], [], []]"


def _scipy_imports(node, in_function=False):
    """(imported scipy name, inside a function?) for each import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [f"{child.module}.{alias.name}" for alias in child.names]
        else:
            names = []
        for name in names:
            if name.split(".")[0] == "scipy":
                yield name, in_function
        yield from _scipy_imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_scipy_import_sites_are_pinned():
    # The package imports no scipy at all: scipy is a test dependency
    # only. A new scipy import has to be added here.
    sites = set()
    for path in sorted(Path(rabisim.__file__).parent.glob("*.py")):
        for name, in_function in _scipy_imports(ast.parse(path.read_text())):
            sites.add((path.stem, name, "function" if in_function else "module"))
    assert sites == set()
