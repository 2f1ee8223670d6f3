"""Spans around the program's layers, recorded from outside the program.

Every public function a layer offers is wrapped at each module that holds
its own reference to it (`from x import f` copies the binding, so patching
only the defining module would miss calls). Spans live in memory as
(name, start, end, parent, value, failed) and per-layer metrics are derived
from them afterwards; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

# (module, attribute, span name). The lazily imported bindings are reached
# through their defining modules: ensemble_signal imports p1_multilevel, and
# sliding_window_frequency imports fit_single_frequency, at call time.
BINDINGS = (
    ("rabisim.cli", "run_scenario", "cli.run"),
    ("rabisim.scenario", "load_scenario_dict", "scenario.parse"),
    ("rabisim.scenario", "parse_scenario", "scenario.parse"),
    ("rabisim.scenario", "field_magnitude_histogram", "fieldmap.hist"),
    ("rabisim.cli", "field_magnitude_histogram", "fieldmap.hist"),
    ("rabisim.cli", "ensemble_signal", "ensemble.signal"),
    ("rabisim.scans", "ensemble_signal", "ensemble.signal"),
    ("rabisim.ensemble", "monte_carlo_signal", "ensemble.mc"),
    ("rabisim.multilevel", "p1_multilevel", "multilevel.p1"),
    ("rabisim.cli", "scan_detuning", "scans.scan"),
    ("rabisim.scans", "fit_single_frequency", "fitting.single"),
    ("rabisim.fitting", "fit_single_frequency", "fitting.single"),
    ("rabisim.scans", "fit_two_frequency", "fitting.two"),
    ("rabisim.fitting", "fit_two_frequency", "fitting.two"),
    ("rabisim.fitting", "levenberg_marquardt", "lsq.lm"),
    ("rabisim.cli", "fft_spectrum", "spectrum.fft"),
    ("rabisim.scans", "fft_spectrum", "spectrum.fft"),
    ("rabisim.spectrum", "fft_spectrum", "spectrum.fft"),
    ("rabisim.cli", "sliding_window_frequency", "spectrum.track"),
    ("rabisim.cli", "write_csv", "output.csv"),
)

# Layer of each span name, for the self-time split.
LAYER_OF = {
    "cli.run": "cli", "scenario.parse": "scenario", "fieldmap.hist": "fieldmap",
    "ensemble.signal": "ensemble", "ensemble.mc": "ensemble",
    "multilevel.p1": "multilevel", "scans.scan": "scans",
    "fitting.single": "fitting", "fitting.two": "fitting", "lsq.lm": "lsq",
    "spectrum.fft": "spectrum", "spectrum.track": "spectrum",
    "output.csv": "output",
}

# Per-layer metrics of a traced pass: (name, unit).
METRICS = (
    ("fitting.single_s", "s"), ("fitting.single_calls", "count"),
    ("fitting.two_s", "s"), ("fitting.two_calls", "count"),
    ("fitting.failures", "count"),
    ("lsq.lm_s", "s"), ("lsq.lm_runs", "count"), ("lsq.lm_iters", "count"),
    ("lsq.fits_per_lm_run", "ratio"),
    ("ensemble.signal_s", "s"), ("ensemble.signal_calls", "count"),
    ("ensemble.mc_s", "s"), ("ensemble.node_samples", "count"),
    ("ensemble.bytes_computed", "B"),
    ("multilevel.p1_s", "s"), ("multilevel.atom_calls", "count"),
    ("spectrum.fft_s", "s"), ("spectrum.track_s", "s"),
    ("spectrum.track_windows", "count"), ("spectrum.track_gaps", "count"),
    ("scans.self_s", "s"), ("scans.points", "count"),
    ("scans.error_rows", "count"),
    ("output.csv_s", "s"), ("output.csv_bytes", "B"),
    ("scenario.parse_s", "s"), ("fieldmap.hist_s", "s"),
    ("fieldmap.grid_points", "count"),
)

# Counters that must repeat exactly from pass to pass and run to run.
EXACT = ("lsq.lm_runs", "lsq.lm_iters", "ensemble.node_samples",
         "scans.points", "scans.error_rows")


def _quadrature_nodes(config):
    # The node count ensemble_signal sums over (mirrors its quadrature rule).
    dist = config.distribution
    if not dist.is_parametric:
        return int(dist.shifts.size)
    return 1 if dist.sigma == 0.0 else int(config.quadrature_nodes)


def _value(name, args, result):
    """The work count a span carries, from its arguments and result."""
    if name == "ensemble.signal":
        return _quadrature_nodes(args[0]) * len(args[1])
    if name == "lsq.lm":
        return result.n_iter
    if name == "scans.scan":
        return len(result), sum(1 for row in result if row.error)
    if name == "spectrum.track":
        return len(result)
    if name == "output.csv":
        return os.path.getsize(args[0])
    if name == "fieldmap.hist":
        model = args[0]
        return len(model.axis_grid("xy")) ** 2 * len(model.axis_grid("z"))
    return None


class Tracer:
    """Installs span-recording wrappers at every binding; restores on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        # Imported here: the benchmark's parent process never loads the program.
        self._fit_failure = importlib.import_module("rabisim.fitting").FitFailure

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        fit_failure = self._fit_failure

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except fit_failure:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _value(name, args, result)
            return result

        return traced

    def __enter__(self):
        self.spans.clear()
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, plus self time per layer."""
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)
    self_s = {}
    calls = {}
    values = {}
    for i, (name, start, end, _, value, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values.setdefault(name, []).append(value)

    fits = [s for s in spans if s[0].startswith("fitting.")]
    failures = sum(1 for s in fits if s[5])
    lm_runs = calls.get("lsq.lm", 0)
    windows = sum(1 for i, s in enumerate(spans) if s[0] == "spectrum.track"
                  for c in children[i] if spans[c][0] == "fitting.single")
    track_points = sum(values.get("spectrum.track", []))
    node_samples = sum(values.get("ensemble.signal", []))
    scans = values.get("scans.scan", [])

    m = {
        "fitting.single_s": self_s.get("fitting.single", 0.0),
        "fitting.single_calls": calls.get("fitting.single", 0),
        "fitting.two_s": self_s.get("fitting.two", 0.0),
        "fitting.two_calls": calls.get("fitting.two", 0),
        "fitting.failures": failures,
        "lsq.lm_s": self_s.get("lsq.lm", 0.0),
        "lsq.lm_runs": lm_runs,
        "lsq.lm_iters": sum(values.get("lsq.lm", [])),
        "lsq.fits_per_lm_run": (len(fits) - failures) / lm_runs if lm_runs else 0.0,
        "ensemble.signal_s": self_s.get("ensemble.signal", 0.0),
        "ensemble.signal_calls": calls.get("ensemble.signal", 0),
        "ensemble.mc_s": self_s.get("ensemble.mc", 0.0),
        "ensemble.node_samples": node_samples,
        # Computed, not measured: one float64 per node and time sample.
        "ensemble.bytes_computed": 8 * node_samples,
        "multilevel.p1_s": self_s.get("multilevel.p1", 0.0),
        "multilevel.atom_calls": calls.get("multilevel.p1", 0),
        "spectrum.fft_s": self_s.get("spectrum.fft", 0.0),
        "spectrum.track_s": self_s.get("spectrum.track", 0.0),
        "spectrum.track_windows": windows,
        "spectrum.track_gaps": windows - track_points,
        "scans.self_s": self_s.get("scans.scan", 0.0),
        "scans.points": sum(p for p, _ in scans),
        "scans.error_rows": sum(e for _, e in scans),
        "output.csv_s": self_s.get("output.csv", 0.0),
        "output.csv_bytes": sum(values.get("output.csv", [])),
        "scenario.parse_s": self_s.get("scenario.parse", 0.0),
        "fieldmap.hist_s": self_s.get("fieldmap.hist", 0.0),
        "fieldmap.grid_points": sum(values.get("fieldmap.hist", [])),
    }
    layers = {}
    for name, t in self_s.items():
        layer = LAYER_OF[name]
        layers[layer] = layers.get(layer, 0.0) + t
    return m, layers


def median_metrics(per_pass):
    """Median of each time metric over traced passes; counts from the last."""
    out = {}
    for name, unit in METRICS:
        vals = [m[name] for m in per_pass]
        out[name] = statistics.median(vals) if unit == "s" else vals[-1]
    return out
