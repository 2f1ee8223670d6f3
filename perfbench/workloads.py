"""Scenario generation for the benchmark workloads.

Each workload is a set of scenario files written from a seed, plus what the
benchmark knows about them without asking the program: how many ensemble
traces a pass simulates, how many of them get a single-frequency fit, how
many track windows are attempted, and which independent checks apply.

The seed jitters spreads, skews and detuning-grid offsets within the ranges
stated below; seed 0 applies no jitter, so the fit-scan scenarios at seed 0
are the shipped fig3a/fig3b/fig4/fig5/fig7a/fig7b presets row for row. Only
the generated files reach the program. Scenario files are written as JSON,
which the program's YAML loader reads unchanged.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("fit-scan", "ensemble-spectrum", "multilevel")

# Relative jitter of spreads (sigma, field-profile scale) and of skews, and
# the detuning-grid offset as a fraction of the grid step.
SIGMA_JITTER = 0.03
SKEW_JITTER = 0.10
OFFSET_JITTER = 0.2

# Monte Carlo cross-check: criterion 10's sample count, grid and limit.
MC_SAMPLES = 100_000
MC_T_MAX_MS = 1.0
MC_DT_MS = 0.008
MC_LIMIT = 5e-3

# Five-level vs two-level agreement at a large quadratic shift: criterion
# 09's limit.
MULTILEVEL_LIMIT = 5e-2

_SINGLE = {"kind": "single", "decay": "exp", "window_ms": [0.01, 0.6]}

# (name, distribution, omega0 list, detuning grid (start, stop, step),
#  sigma list, gamma_khz, t_max_ms, analysis); mirrors the shipped presets.
_FIT_SCANS = (
    ("fig3a", ("skewed_gaussian", 10.0, 3.0), [5.0, 9.0, 15.0, 20.0],
     (-20.0, 20.0, 2.0), None, 1.0, 1.0, _SINGLE),
    ("fig3b", ("skewed_gaussian", 8.0, 3.0), [5.0, 9.0, 15.0, 20.0],
     (-20.0, 20.0, 2.0), None, 1.0, 1.0, _SINGLE),
    ("fig4", ("skewed_gaussian", 8.0, 3.0), None,
     (-25.0, 25.0, 2.5), None, 1.0, 1.0, _SINGLE),
    ("fig7a", ("gaussian", 12.0, 0.0), [5.0, 9.0, 15.0, 20.0],
     (-25.0, 25.0, 2.5), None, 1.0, 1.0, _SINGLE),
    ("fig7b", ("gaussian", 8.0, 0.0), [5.0, 9.0, 15.0, 20.0],
     (-25.0, 25.0, 2.5), None, 1.0, 1.0, _SINGLE),
    ("fig5", ("gaussian", 9.0, 0.0), None,
     (0.0, 27.0, 4.5), [1.8, 5.4, 9.0, 18.0, 27.0], 0.0, 1.2,
     {"kind": "two", "window_periods": 10.0}),
)

# The fig6-field axial sag: the source of the empirical distribution.
_FIELD = {
    "b_set_khz": 18167.0, "current_sign": 1,
    "bounds_xy_mm": [-8.0, 8.0], "bounds_z_mm": [-20.0, 20.0],
    "spacing_mm": 0.5, "spacing_z_mm": 0.1, "n_bins": 120,
    "beam": {"profile": "gaussian", "diameter_mm": 3.0},
}
_FIELD_SAG = (-1.575, -0.525, -0.04375)

_FFT = {"detrend": True, "window_fn": "hann", "pad_factor": 4,
        "prominence": 0.05}


class _Jitter:
    """Uniform draws in [-1, 1] from the seed; all zero at seed 0."""

    def __init__(self, seed):
        self._rng = random.Random(seed) if seed else None

    def __call__(self):
        return self._rng.uniform(-1.0, 1.0) if self._rng else 0.0


def _grid(start, stop, step, offset):
    n = int(round((stop - start) / step)) + 1
    return [start + offset + k * step for k in range(n)]


def _distribution(kind, sigma, skew, jit):
    d = {"kind": kind, "sigma_khz": sigma * (1.0 + SIGMA_JITTER * jit())}
    if kind == "skewed_gaussian":
        d["skew"] = skew * (1.0 + SKEW_JITTER * jit())
    return d


def _scan(name, seed, omega0, deltas, dist, gamma, t_max, dt, analysis,
          scan=None):
    data = {"name": name, "command": "scan", "seed": seed,
            "drive": {"omega0_khz": omega0, "delta_list_khz": deltas},
            "distribution": dist,
            "atom_model": {"kind": "analytic_two_level", "gamma_khz": gamma},
            "time_grid": {"t_max_ms": t_max, "dt_ms": dt},
            "analysis": analysis}
    if scan:
        data["scan"] = scan
    return data


def _track_windows(t_max, dt, window, hop, t_stop):
    """Windows sliding_window_frequency attempts on a [0, t_max] trace."""
    t_end = min(t_stop, t_max)
    n = 0
    start = 0.0
    while start + window <= t_end + 0.5 * dt:
        n += 1
        start += hop
    return n


def _fit_scan(seed, jit):
    scenarios = []
    traces = single = 0
    for (name, (kind, sigma, skew), omega0_list, (start, stop, step),
         sigma_list, gamma, t_max, analysis) in _FIT_SCANS:
        dist = _distribution(kind, sigma, skew, jit)
        deltas = _grid(start, stop, step, OFFSET_JITTER * step * jit())
        scan = {}
        if omega0_list:
            scan["omega0_list_khz"] = omega0_list
        if sigma_list:
            scan["sigma_list_khz"] = [s * (1.0 + SIGMA_JITTER * jit())
                                      for s in sigma_list]
        scenarios.append(_scan(name, seed, 9.0, deltas, dist, gamma, t_max,
                               0.008, analysis, scan))
        n = len(deltas) * len(omega0_list or [0]) * len(sigma_list or [0])
        traces += n
        if analysis["kind"] == "single":
            single += n
    tiny = [
        _scan("tiny-single", seed, 9.0, [3.0], _distribution(
            "skewed_gaussian", 8.0, 3.0, lambda: 0.0), 1.0, 1.0, 0.008, _SINGLE),
        _scan("tiny-two", seed, 9.0, [4.5], {"kind": "gaussian", "sigma_khz": 9.0},
              0.0, 1.2, 0.008, {"kind": "two", "window_periods": 10.0}),
    ]
    return {"scenarios": scenarios, "tiny": tiny, "files": {}, "mc": [],
            "probe_cos_blocks": 1,
            "expect": {"traces": traces, "single_points": single,
                       "track_windows": 0, "atoms": 0},
            "reference": "reference/fit-scan" if seed == 0 else None}


# Dense FFT scans: long, finely sampled traces (1001 samples) at the default
# 2001 quadrature nodes, so the N x T cosine work of the ensemble dominates.
_DENSE_DT = 0.004
_DENSE_T_MAX = 4.0
_DENSE_GRID = (-30.0, 30.0, 1.5)
_TRACK = {"window_ms": 0.4, "hop_ms": 0.4, "t_stop_ms": 1.2}


def _ensemble_spectrum(seed, jit):
    fft = {"kind": "fft", "fft": _FFT}
    scenarios = []
    mc = []
    traces = 0
    for name, kind, sigma, skew in (("dense-gauss", "gaussian", 12.0, 0.0),
                                    ("dense-skew", "skewed_gaussian", 10.0, -3.0)):
        deltas = _grid(*_DENSE_GRID, OFFSET_JITTER * _DENSE_GRID[2] * jit())
        scenarios.append(_scan(name, seed, 9.0, deltas,
                               _distribution(kind, sigma, skew, jit), 1.0,
                               _DENSE_T_MAX, _DENSE_DT, fft))
        traces += len(deltas)
        mc.append({"scenario": len(scenarios) - 1,
                   "delta_khz": deltas[len(deltas) // 2]})

    scale = 1.0 + SIGMA_JITTER * jit()
    field = dict(_FIELD, profiles={"b0z": {
        "kind": "polynomial", "coefficients": [c * scale for c in _FIELD_SAG]}})
    files = {"field.yaml": json.dumps({"fieldmap": field}, indent=1)}
    windows = 0
    for name, sign, track in (("spec-red", -1.0, True), ("spec-blue", 1.0, False)):
        offset = 0.1 * jit()
        deltas = [sign * d + offset for d in (2.0, 4.0, 6.0, 8.0, 10.0)]
        analysis = {"fft": _FFT}
        if track:
            analysis["track"] = _TRACK
            windows += len(deltas) * _track_windows(
                2.0, 0.008, _TRACK["window_ms"], _TRACK["hop_ms"],
                _TRACK["t_stop_ms"])
        scenarios.append({
            "name": name, "command": "spectrum", "seed": seed,
            "drive": {"omega0_khz": 9.0, "delta_list_khz": deltas},
            "distribution": {"fieldmap": "field.yaml"},
            "atom_model": {"kind": "analytic_two_level", "gamma_khz": 1.0},
            "time_grid": {"t_max_ms": 2.0, "dt_ms": 0.008},
            "analysis": analysis})
        traces += len(deltas)
        if track:
            mc.append({"scenario": len(scenarios) - 1, "delta_khz": deltas[2]})
    tiny = [
        _scan("tiny-fft", seed, 9.0, [1.0], {"kind": "gaussian", "sigma_khz": 12.0},
              1.0, _DENSE_T_MAX, _DENSE_DT, fft),
        {"name": "tiny-spectrum", "command": "spectrum", "seed": seed,
         "drive": {"omega0_khz": 9.0, "delta_list_khz": [-4.0]},
         "distribution": {"kind": "gaussian", "sigma_khz": 3.0},
         "atom_model": {"kind": "analytic_two_level", "gamma_khz": 1.0},
         "time_grid": {"t_max_ms": 2.0, "dt_ms": 0.008},
         "analysis": {"fft": _FFT, "track": _TRACK}},
    ]
    # The ensemble's cosines dominate here, so the speed probe's mix leans
    # on its cosine blocks.
    return {"scenarios": scenarios, "tiny": tiny, "files": files, "mc": mc,
            "probe_cos_blocks": 3,
            "expect": {"traces": traces, "single_points": 0,
                       "track_windows": windows, "atoms": 0},
            "reference": None}


# Five-level ensembles over a small empirical distribution. Each atom costs
# one adaptive master-equation solve; the large quadratic shift is the one
# compared against the two-level ensemble.
_ML_NODES = 8
_ML_LARGE_SHIFT_KHZ = 250.0
_ML_SMALL_SHIFT_KHZ = 25.0


def _multilevel(seed, jit):
    lines = ["# shift_khz weight"]
    for k in range(_ML_NODES):
        shift = -3.0 + 6.0 * k / (_ML_NODES - 1) + 0.3 * jit()
        lines.append(f"{shift!r} {1.0 + 0.5 * jit()!r}")
    files = {"atoms.txt": "\n".join(lines) + "\n"}
    scenarios = []
    for name, quad, gamma in (("ml-large-shift", _ML_LARGE_SHIFT_KHZ, 0.0),
                              ("ml-small-shift", _ML_SMALL_SHIFT_KHZ, 0.5)):
        scenarios.append({
            "name": name, "command": "simulate", "seed": seed,
            "drive": {"omega0_khz": 8.0, "delta_khz": 1.0 * jit()},
            "distribution": {"file": "atoms.txt"},
            "atom_model": {"kind": "multilevel", "gamma_khz": gamma,
                           "quadratic_shift_khz": quad},
            "time_grid": {"t_max_ms": 1.0, "dt_ms": 0.008}})
    files["tiny-atom.txt"] = "0.5 1.0\n"
    tiny = [{"name": "tiny-multilevel", "command": "simulate", "seed": seed,
             "drive": {"omega0_khz": 8.0, "delta_khz": 0.0},
             "distribution": {"file": "tiny-atom.txt"},
             "atom_model": {"kind": "multilevel",
                            "quadratic_shift_khz": _ML_LARGE_SHIFT_KHZ},
             "time_grid": {"t_max_ms": 0.1, "dt_ms": 0.008}}]
    return {"scenarios": scenarios, "tiny": tiny, "files": files, "mc": [],
            "probe_cos_blocks": 1,
            "expect": {"traces": len(scenarios), "single_points": 0,
                       "track_windows": 0,
                       "atoms": _ML_NODES * len(scenarios)},
            "reference": None, "two_level_check": 0}


_BUILDERS = {"fit-scan": _fit_scan, "ensemble-spectrum": _ensemble_spectrum,
             "multilevel": _multilevel}


def generate(workload, seed, workdir):
    """Write one workload's scenario files under workdir; return its plan.

    The plan is a JSON-ready dict: scenario and tiny-scenario paths (tiny
    scenarios touch the same lazy set-up in a fraction of the time), Monte
    Carlo jobs, expected counts, the checks that apply and the speed
    probe's number of cosine blocks.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = Path(workdir)
    scen_dir = workdir / "scenarios"
    scen_dir.mkdir(parents=True)
    spec = _BUILDERS[workload](int(seed), _Jitter(int(seed)))
    for name, text in spec.pop("files").items():
        (scen_dir / name).write_text(text)

    def write(items):
        paths = []
        for data in items:
            path = scen_dir / f"{data['name']}.yaml"
            path.write_text(json.dumps(data, indent=1))
            paths.append(str(path))
        return paths

    spec["scenarios"] = write(spec["scenarios"])
    spec["tiny"] = write(spec["tiny"])
    spec.update(workload=workload, seed=int(seed),
                out_dir=str(workdir / "out"), tiny_out_dir=str(workdir / "tiny"))
    return spec
