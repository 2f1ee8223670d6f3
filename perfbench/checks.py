"""Correctness checks on a workload's outputs, each against an independent path.

Every check returns (name, ok, detail). CSVs are read here with the
standard library rather than with the program's own reader.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from rabisim.ensemble import AtomModel, EnsembleConfig, ensemble_signal
from rabisim.model import DriveParams
from rabisim.units import khz_to_angular

import workloads

# Scan columns that echo the scenario's inputs or are flags and text: the
# reference must match them exactly.
_EXACT = {"omega0_khz", "sigma_khz", "detuning_khz", "homogeneous_khz",
          "indistinguishable", "fraction_ci_wide", "error"}
# Fitted value -> the column holding its own 95% CI half-width.
_WITH_CI = {"frequency_khz": "frequency_ci_khz", "amplitude": "amplitude_ci",
            "gamma": "gamma_ci", "fraction_a": "fraction_a_ci"}
# Other numeric columns (CIs, r_squared, omega_bar_khz, gamma_b) must agree
# to this relative tolerance: the same optimum, up to solver precision.
_REL_TOL = 1e-3


def read_table(path):
    """(columns, rows as dicts of strings) of a CSV with '#' metadata lines."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        columns = next(reader)
        return columns, [dict(zip(columns, row)) for row in reader]


def _outputs(plan, scenarios):
    """(scenario, output kind, columns, rows) for every CSV a pass wrote."""
    out = Path(plan["out_dir"])
    tables = []
    for sc in scenarios:
        if sc.command == "spectrum":
            for kind in ("spectra", "peaks", "track"):
                path = out / f"{sc.basename}_{kind}.csv"
                if path.exists():
                    tables.append((sc, kind, *read_table(path)))
        else:
            tables.append((sc, sc.command, *read_table(out / f"{sc.basename}.csv")))
    return tables


def _floats(row, columns):
    for col in columns:
        if col in ("error", "indistinguishable", "fraction_ci_wide"):
            continue
        if col == "peaks_khz":
            yield from (float(v) for v in row[col].split(";") if v)
        else:
            yield float(row[col])


def _failed(row):
    # An FFT scan row without a spectral peak carries a nan frequency and no
    # error text; it yielded no frequency, so it counts as a failure too.
    return bool(row.get("error")) or row.get("peaks_khz") == ""


def count_operations(plan, scenarios):
    """Checks that every trace was written, and the (attempted, failed) counts.

    An operation is an ensemble trace or a track window; a failure is a
    scan row that fails (see _failed) or a track window without a result.
    """
    traces = errors = track_rows = 0
    for sc, kind, _, rows in _outputs(plan, scenarios):
        if kind == "scan":
            traces += len(rows)
            errors += sum(1 for r in rows if _failed(r))
        elif kind == "spectra":
            traces += len({r["detuning_khz"] for r in rows})
        elif kind == "simulate":
            traces += 1
        elif kind == "track":
            track_rows += len(rows)
    expect = plan["expect"]
    ok = traces == expect["traces"] and track_rows <= expect["track_windows"]
    check = ("trace count", ok,
             f"{traces} traces written, {expect['traces']} generated; "
             f"{track_rows} of {expect['track_windows']} track windows")
    attempted = expect["traces"] + expect["track_windows"]
    return check, attempted, errors + expect["track_windows"] - track_rows


def finite_rows(plan, scenarios):
    bad = []
    skipped = 0
    for sc, kind, columns, rows in _outputs(plan, scenarios):
        for i, row in enumerate(rows):
            if _failed(row):
                skipped += 1
            elif not all(math.isfinite(v) for v in _floats(row, columns)):
                bad.append(f"{sc.basename} {kind} row {i + 1}")
    detail = f"{skipped} failed rows skipped; "
    detail += (f"{len(bad)} rows not finite: {', '.join(bad[:5])}" if bad
               else "all others finite")
    return "non-error rows finite", not bad, detail


def _within(col, new, ref, ref_row):
    a, b = float(new), float(ref)
    if not (math.isfinite(a) and math.isfinite(b)):
        return new == ref
    if col in _WITH_CI:
        return abs(a - b) <= float(ref_row[_WITH_CI[col]])
    if col == "tau_ms" and float(ref_row["gamma"]) != 0.0:
        # tau = 1 / gamma: gamma's CI carried through the derivative
        return abs(a - b) <= float(ref_row["gamma_ci"]) / float(ref_row["gamma"]) ** 2
    return abs(a - b) <= _REL_TOL * max(abs(b), 1e-12)


def reference(plan, scenarios, bench_dir):
    """Seed-0 fit-scan rows against the reference CSVs kept with the benchmark."""
    ref_dir = Path(bench_dir) / plan["reference"]
    mismatches = []
    rows_seen = 0
    for sc, _, columns, rows in _outputs(plan, scenarios):
        ref_columns, ref_rows = read_table(ref_dir / f"{sc.basename}.csv")
        if columns != ref_columns or len(rows) != len(ref_rows):
            mismatches.append(f"{sc.basename}: shape")
            continue
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            rows_seen += 1
            for col in columns:
                if col in _EXACT or row["error"] or ref["error"]:
                    same = row[col] == ref[col]
                else:
                    same = _within(col, row[col], ref[col], ref)
                if not same:
                    mismatches.append(f"{sc.basename} row {i + 1} {col}: "
                                      f"{row[col]} vs {ref[col]}")
    return ("reference CSVs", not mismatches,
            f"{rows_seen} rows match" if not mismatches else
            f"{len(mismatches)} mismatches: {'; '.join(mismatches[:3])}")


def _config(sc, delta, atom_model=None):
    return EnsembleConfig(
        drive=DriveParams(omega0=sc.omega0_list[0], delta=delta),
        distribution=sc.distribution,
        atom_model=sc.atom_model if atom_model is None else atom_model,
        quadrature_nodes=sc.quadrature_nodes,
        support_half_width=sc.support_half_width)


def monte_carlo(mc_results):
    """Monte Carlo traces of the pass against quadrature (criterion 10)."""
    worst = 0.0
    for config, times, mc in mc_results:
        exact = ensemble_signal(config, times).values
        worst = max(worst, float(np.max(np.abs(mc.values - exact))))
    ok = bool(mc_results) and worst < workloads.MC_LIMIT
    return ("Monte Carlo vs quadrature", ok,
            f"max |MC - quadrature| {worst:.2e} over {len(mc_results)} "
            f"distributions (limit {workloads.MC_LIMIT:g})")


def two_level(plan, scenarios):
    """Five-level output at a large quadratic shift against the two-level
    ensemble over the same distribution (criterion 09)."""
    sc = scenarios[plan["two_level_check"]]
    _, rows = read_table(Path(plan["out_dir"]) / f"{sc.basename}.csv")
    five = np.array([float(r["signal"]) for r in rows])
    two = ensemble_signal(_config(sc, sc.deltas[0], AtomModel()), sc.times).values
    dev = float(np.max(np.abs(five - two)))
    return ("five-level vs two-level", dev < workloads.MULTILEVEL_LIMIT,
            f"max deviation {dev:.2e} (limit {workloads.MULTILEVEL_LIMIT:g})")


def mc_config(sc, delta_khz):
    """Ensemble configuration and time grid of one Monte Carlo job."""
    times = np.arange(0.0, workloads.MC_T_MAX_MS + workloads.MC_DT_MS / 2,
                      workloads.MC_DT_MS)
    return _config(sc, khz_to_angular(delta_khz)), times


def coverage(plan, metrics):
    """Span counts against counts derived from the generated scenarios."""
    expect = plan["expect"]
    got = metrics
    ok = (got["ensemble.signal_calls"] == expect["traces"]
          and got["fitting.single_calls"] >= expect["single_points"]
          and got["spectrum.track_windows"] == expect["track_windows"]
          and got["multilevel.atom_calls"] == expect["atoms"])
    return ("span coverage", ok,
            f"signal calls {got['ensemble.signal_calls']}/{expect['traces']}, "
            f"single fits {got['fitting.single_calls']} >= {expect['single_points']}, "
            f"track windows {got['spectrum.track_windows']}/{expect['track_windows']}, "
            f"atoms {got['multilevel.atom_calls']}/{expect['atoms']}")
