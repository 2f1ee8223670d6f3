"""Command-line front end: scenario files in, CSV tables (and SVG plots) out.

Subcommands map one-to-one onto scenario commands; `reproduce <preset>` runs
one of the shipped scenario files by name. Outputs land in --out (default:
current directory) and always carry a metadata block with the tool version
and the scenario hash.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .ensemble import ensemble_signal
from .fieldmap import field_magnitude_histogram
from .multilevel import InvariantViolation
from .scans import scan_detuning
from .scenario import (PRESET_NAMES, Scenario, ScenarioError, _named,
                       load_scenario_dict, parse_scenario, preset_file,
                       scenario_hash)
from .spectrum import fft_spectrum, sliding_window_frequency
from .output import write_csv, write_svg_lines
from .units import angular_to_khz


# Each command takes (scenario, meta) and returns (tables, plot): tables is a
# list of (file suffix, columns, rows) and plot is (series, x_label, y_label).
# run_scenario names and writes the files.

def run_simulate(scenario: Scenario, meta):
    _, _, config = next(scenario.blocks())
    trace = ensemble_signal(config, scenario.times)
    rows = list(zip(trace.times, trace.values))
    return ([("", ("t_ms", "signal"), rows)],
            ([("", trace.times, trace.values)], "t (ms)", "signal"))


# Scan columns and the plotted column, per analysis kind. A cell is the
# ScanRow field of the same name unless _scan_cells derives it.
_SCAN_TABLES = {
    "single": (("omega0_khz", "sigma_khz", "detuning_khz", "frequency_khz",
                "frequency_ci_khz", "homogeneous_khz", "amplitude",
                "amplitude_ci", "gamma", "gamma_ci", "tau_ms", "r_squared",
                "error"), "frequency_khz"),
    "two": (("omega0_khz", "sigma_khz", "detuning_khz", "fraction_a",
             "fraction_a_ci", "omega_bar_khz", "gamma_b", "indistinguishable",
             "fraction_ci_wide", "r_squared", "error"), "fraction_a"),
    "fft": (("omega0_khz", "sigma_khz", "detuning_khz", "frequency_khz",
             "peaks_khz", "error"), "frequency_khz"),
}


def _scan_cells(row, o_khz, s_khz):
    return {"omega0_khz": o_khz, "sigma_khz": s_khz,
            "homogeneous_khz": math.hypot(o_khz, row.detuning_khz),
            "tau_ms": 1.0 / row.gamma if row.gamma > 0 else math.inf,
            "peaks_khz": ";".join("%.12g" % p for p in row.peaks_khz)}


def run_scan(scenario: Scenario, meta):
    analysis = scenario.analysis
    columns, plotted = _SCAN_TABLES[analysis.kind]
    rows = []
    series = []
    for omega0, sigma, config in scenario.blocks():
        window = analysis.window
        if window is None and analysis.kind == "two":
            periods = analysis.window_periods * 2.0 * math.pi / omega0
            window = (0.0, min(periods, float(scenario.times[-1])))
        results = scan_detuning(
            config, scenario.deltas, analysis=analysis.kind,
            times=scenario.times, window=window, decay=analysis.decay,
            fft_options=analysis.fft)
        o_khz = angular_to_khz(omega0)
        s_khz = angular_to_khz(sigma)
        for r in results:
            cells = _scan_cells(r, o_khz, s_khz)
            rows.append(tuple(cells[c] if c in cells else getattr(r, c)
                              for c in columns))
        series.append((f"O0={o_khz:g}, sigma={s_khz:g} kHz",
                       [r.detuning_khz for r in results],
                       [getattr(r, plotted) for r in results]))
    y_label = "fraction_a" if analysis.kind == "two" else "frequency (kHz)"
    return [("", columns, rows)], (series, "detuning (kHz)", y_label)


def run_spectrum(scenario: Scenario, meta):
    analysis = scenario.analysis
    _, _, block = next(scenario.blocks())
    spectra_rows = []
    peak_rows = []
    track_rows = []
    series = []
    offset = 0.0
    for delta in scenario.deltas:
        config = replace(block, drive=replace(block.drive, delta=delta))
        trace = ensemble_signal(config, scenario.times)
        spec = fft_spectrum(trace, **analysis.fft)
        d_khz = angular_to_khz(delta)
        spectra_rows.extend((d_khz, f, p) for f, p in zip(spec.frequencies_khz, spec.power))
        for rank, (f, h) in enumerate(zip(spec.peak_frequencies_khz,
                                          spec.peak_heights), start=1):
            peak_rows.append((d_khz, rank, f, h))
        top = spec.power.max()
        scaled = spec.power / top if top > 0 else spec.power
        series.append((f"detuning {d_khz:g} kHz", spec.frequencies_khz,
                       scaled + offset))
        offset += 1.1
        if analysis.track is not None:
            with _named(f"analysis.track: detuning {d_khz:g} kHz"):
                points = sliding_window_frequency(trace, spec, **analysis.track)
            track_rows.extend((d_khz, pt.t_center, pt.frequency_khz, pt.ci95_khz)
                              for pt in points)

    tables = [("_spectra", ("detuning_khz", "frequency_khz", "power"),
               spectra_rows),
              ("_peaks", ("detuning_khz", "rank", "peak_frequency_khz",
                          "peak_height"), peak_rows)]
    if analysis.track is not None:
        tables.append(("_track", ("detuning_khz", "t_center_ms",
                                  "frequency_khz", "ci95_khz"), track_rows))
    return tables, (series, "frequency (kHz)", "power (offset per curve)")


def run_field_dist(scenario: Scenario, meta):
    spec = scenario.field_dist
    rows = []
    series = []
    for sign in spec.signs:
        model = replace(spec.model, current_sign=sign)
        with _named("fieldmap"):
            hist = field_magnitude_histogram(model, spec.beam, spec.n_bins)
        tag = f"sign_{'+' if sign > 0 else '-'}1"
        meta[f"{tag}_mean_khz"] = hist.mean_khz
        meta[f"{tag}_std_khz"] = hist.std_khz
        meta[f"{tag}_fraction_below"] = hist.fraction_below
        meta[f"{tag}_fraction_above"] = hist.fraction_above
        meta[f"{tag}_third_moment"] = hist.third_moment
        for c, w in zip(hist.bin_centers_khz, hist.weights):
            rows.append((sign, c, w))
        series.append((f"sign {sign:+d}", hist.bin_centers_khz, hist.weights))
    return ([("", ("current_sign", "bin_center_khz", "weight"), rows)],
            (series, "field deviation (kHz)", "weight"))


_COMMANDS = {"simulate": run_simulate, "scan": run_scan,
             "spectrum": run_spectrum, "field-dist": run_field_dist}


def run_scenario(scenario: Scenario, digest, out_dir, *, svg=False):
    """Run a parsed scenario and write its outputs; returns the paths written.

    Each table goes to <out_dir>/<basename><suffix>.csv under one metadata
    block, and with svg the command's plot goes to <out_dir>/<basename>.svg.
    """
    meta = {"tool": f"rabisim {__version__}", "scenario": scenario.name,
            "scenario_hash": digest, "seed": scenario.seed}
    run = _COMMANDS[scenario.command]
    tables, (series, x_label, y_label) = run(scenario, meta)
    out_dir = Path(out_dir)
    written = []
    for suffix, columns, rows in tables:
        path = out_dir / f"{scenario.basename}{suffix}.csv"
        write_csv(path, columns, rows, metadata=meta)
        written.append(path)
    if svg:
        path = out_dir / f"{scenario.basename}.svg"
        write_svg_lines(path, series, x_label=x_label, y_label=y_label,
                        title=scenario.name)
        written.append(path)
    return written


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rabisim",
        description="Simulate driven transitions of inhomogeneous ensembles "
                    "and reproduce the figure-level analyses.",
        epilog="presets: " + ", ".join(PRESET_NAMES),
    )
    parser.add_argument("--version", action="version",
                        version=f"rabisim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="scenario YAML file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--svg", action="store_true",
                       help="also write SVG plots")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    for name in ("simulate", "scan", "spectrum", "field-dist"):
        add_common(sub.add_parser(name, help=f"run a {name} scenario"))
    rep = sub.add_parser("reproduce", help="run a shipped preset by name")
    rep.add_argument("preset", help="preset name, e.g. fig3a")
    add_common(rep, needs_config=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --version and usage errors; keep main returning
        return int(exc.code or 0)
    try:
        if args.subcommand == "reproduce":
            config_path = preset_file(args.preset)
        else:
            config_path = Path(args.config)
        data = load_scenario_dict(config_path)
        if args.seed is not None:
            data["seed"] = args.seed
        scenario = parse_scenario(data, base_dir=config_path.parent)
        digest = scenario_hash(data, config_path.parent)
        if args.subcommand != "reproduce" and scenario.command != args.subcommand:
            raise ScenarioError(
                f"command: scenario declares {scenario.command!r}, "
                f"invoked as {args.subcommand!r}")
        # A five-level density matrix that drifts off its invariants ends
        # the run like a bad input, naming the model; a scan keeps an error row.
        with _named("atom_model", InvariantViolation):
            written = run_scenario(scenario, digest, args.out, svg=args.svg)
    except ScenarioError as exc:
        print(f"rabisim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rabisim: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0
