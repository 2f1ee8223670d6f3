"""Scenario files: the structured configuration behind every CLI run.

A scenario is a YAML mapping naming a command (simulate, scan, spectrum,
field-dist) plus the physics and analysis inputs that command needs. All
frequencies in scenario files are ordinary kHz and times are ms; parsing
converts to the angular internal units. Validation failures raise
ScenarioError with the dotted path of the offending field.

Scenarios hash deterministically (canonical JSON, SHA-256) so outputs can
record exactly which configuration produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .ensemble import (AtomModel, DetuningDistribution, _quadrature,
                       load_empirical_distribution)
from .fieldmap import (AxisProfile, FieldGridModel, ProbeBeam,
                       field_magnitude_histogram, histogram_to_distribution)
from .spectrum import MIN_FFT_SAMPLES
from .units import khz_to_angular

COMMANDS = ("simulate", "scan", "spectrum", "field-dist")

# Shipped scenario files, one per reproduced figure panel.
PRESET_NAMES = ("fig1b", "fig3a", "fig3b", "fig4", "fig5", "fig6a", "fig6b",
                "fig6-field", "fig7a", "fig7b", "fig8")

# Size caps, checked before anything of that size is allocated, so that a
# huge value fails fast instead of exhausting memory. They sit far above
# every shipped preset, which use at most 1,001 samples, 41 detunings,
# 2,001 quadrature nodes, 436,689 field-grid points and 120 bins.
MAX_SAMPLES = 100_000
MAX_DETUNINGS = 10_000
MAX_QUADRATURE_NODES = 20_001
MAX_GRID_POINTS = 10_000_000
MAX_BINS = 100_000

# What each command reads: its top-level sections and drive keys, and the
# analysis keys of each scan kind and of the spectrum command. parse_scenario
# rejects any other key with its dotted path instead of ignoring it.
_ENSEMBLE_RUN = ("name", "command", "seed", "output", "drive", "distribution",
                 "atom_model", "time_grid", "ensemble")
_DELTAS = ("omega0_khz", "delta_list_khz", "delta_range_khz")
_READS = {
    "simulate": (_ENSEMBLE_RUN, ("omega0_khz", "delta_khz")),
    "scan": (_ENSEMBLE_RUN + ("analysis", "scan"), _DELTAS),
    "spectrum": (_ENSEMBLE_RUN + ("analysis",), _DELTAS),
    "field-dist": (("name", "command", "seed", "output", "fieldmap"), ()),
}
_ANALYSIS_READS = {
    "single": ("kind", "window_ms", "decay"),
    "two": ("kind", "window_ms", "window_periods"),
    "fft": ("kind", "fft"),
    "spectrum": ("fft", "track"),
}


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    return value


def _check_keys(d, allowed, path, reader=None):
    """Reject the first key of d outside allowed, naming its dotted path;
    with reader, the key is one that reader does not read."""
    for key in d:
        if key not in allowed:
            why = f"not read by {reader}" if reader else "unknown key"
            raise ScenarioError(f"{path}.{key}: {why}" if path else f"{key}: {why}")


def _float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    v = float(value)
    if not math.isfinite(v):
        raise ScenarioError(f"{path}: must be finite")
    return v


def _positive(value, path):
    v = _float(value, path)
    if v <= 0:
        raise ScenarioError(f"{path}: must be positive")
    return v


def _nonnegative(value, path):
    v = _float(value, path)
    if v < 0:
        raise ScenarioError(f"{path}: must be non-negative")
    return v


def _integer(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{path}: must be at most {maximum}")
    return value


def _khz(value, path, check):
    """Validate value with check(value, path), then convert kHz to angular
    units, rejecting a result that overflows to inf."""
    angular = khz_to_angular(check(value, path))
    if not math.isfinite(angular):
        raise ScenarioError(f"{path}: {value:.4g} kHz overflows in angular units")
    return angular


@contextmanager
def _named(path):
    """Turn a ValueError raised inside into a ScenarioError naming path."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _check_size(count, cap, path, what):
    """Reject a grid of count elements (a float, possibly inf) above cap."""
    if not count <= cap:
        raise ScenarioError(f"{path}: {what} gives {count:.4g} points, "
                            f"above the cap of {cap}")


def _string(value, path, choices=None):
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ScenarioError(f"{path}: expected one of {list(choices)}, got {value!r}")
    return value


def _float_list(value, path):
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path}: expected a list of numbers")
    out = tuple(_float(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not out:
        raise ScenarioError(f"{path}: must not be empty")
    return out


def _pair(value, path):
    pair = _float_list(value, path)
    if len(pair) != 2 or not pair[1] > pair[0]:
        raise ScenarioError(f"{path}: expected an ordered [low, high] pair")
    return pair


@dataclass(frozen=True)
class AnalysisOptions:
    """Per-command analysis configuration, already unit-converted."""

    kind: str = "none"
    window: tuple | None = None
    decay: str = "exp"
    window_periods: float = 10.0
    fft: dict = field(default_factory=dict)  # fft_spectrum keywords
    track: dict | None = None


@dataclass(frozen=True)
class FieldDistSpec:
    """Field-histogram job: a grid model, the signs to run, beam, binning."""

    model: FieldGridModel
    signs: tuple
    beam: ProbeBeam
    n_bins: int


@dataclass(frozen=True)
class Scenario:
    """Fully parsed and validated scenario, ready to run."""

    name: str
    command: str
    seed: int
    basename: str
    omega0_list: tuple = ()
    deltas: tuple = ()
    sigma_list: tuple | None = None
    distribution: DetuningDistribution | None = None
    atom_model: AtomModel = field(default_factory=AtomModel)
    times: np.ndarray | None = None
    quadrature_nodes: int = 2001
    support_half_width: float = 8.0
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    field_dist: FieldDistSpec | None = None


def presets_root() -> Path:
    return Path(str(resources.files("rabisim").joinpath("presets")))


def preset_file(name) -> Path:
    path = presets_root() / f"{name}.yaml"
    if not path.is_file():
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return path


def load_scenario_dict(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return data


def scenario_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_profile(d, path) -> AxisProfile:
    d = _expect_mapping(d, path)
    _check_keys(d, ("kind", "value", "nodes", "coefficients"), path)
    kind = _string(d.get("kind"), f"{path}.kind",
                   ("constant", "piecewise_linear", "polynomial"))
    with _named(path):
        if kind == "constant":
            return AxisProfile(kind=kind, value=_float(d.get("value", 0.0),
                                                       f"{path}.value"))
        if kind == "piecewise_linear":
            raw = d.get("nodes")
            if not isinstance(raw, (list, tuple)):
                raise ScenarioError(f"{path}.nodes: expected a list of [mm, kHz] pairs")
            nodes = []
            for i, item in enumerate(raw):
                pair = _float_list(item, f"{path}.nodes[{i}]")
                if len(pair) != 2:
                    raise ScenarioError(f"{path}.nodes[{i}]: expected a [mm, kHz] pair")
                nodes.append(pair)
            return AxisProfile(kind=kind, nodes=tuple(nodes))
        coeffs = _float_list(d.get("coefficients"), f"{path}.coefficients")
        return AxisProfile(kind=kind, coefficients=coeffs)


def _parse_field_dist(d, path) -> FieldDistSpec:
    d = _expect_mapping(d, path)
    _check_keys(d, ("b_set_khz", "current_sign", "signs", "bounds_xy_mm",
                    "bounds_z_mm", "spacing_mm", "spacing_z_mm",
                    "max_deviation_khz", "n_bins", "beam", "profiles"), path)
    b_set = _positive(d.get("b_set_khz"), f"{path}.b_set_khz")
    if "signs" in d:
        raw_signs = d["signs"]
        if not isinstance(raw_signs, (list, tuple)) or not raw_signs:
            raise ScenarioError(f"{path}.signs: expected a non-empty list of +1/-1")
        signs = tuple(_integer(s, f"{path}.signs[{i}]")
                      for i, s in enumerate(raw_signs))
    else:
        signs = (_integer(d.get("current_sign", 1), f"{path}.current_sign"),)
    for i, s in enumerate(signs):
        if s not in (1, -1):
            raise ScenarioError(f"{path}.signs[{i}]: must be +1 or -1")

    bounds_xy = tuple(_pair(d.get("bounds_xy_mm", [-8.0, 8.0]),
                            f"{path}.bounds_xy_mm"))
    bounds_z = tuple(_pair(d.get("bounds_z_mm", [-20.0, 20.0]),
                           f"{path}.bounds_z_mm"))
    spacing = _positive(d.get("spacing_mm", 0.5), f"{path}.spacing_mm")
    spacing_z = None
    if "spacing_z_mm" in d:
        spacing_z = _positive(d["spacing_z_mm"], f"{path}.spacing_z_mm")
    max_dev = None
    if "max_deviation_khz" in d:
        max_dev = _positive(d["max_deviation_khz"], f"{path}.max_deviation_khz")
    n_bins = _integer(d.get("n_bins", 120), f"{path}.n_bins", minimum=1,
                      maximum=MAX_BINS)

    beam_d = _expect_mapping(d.get("beam", {}), f"{path}.beam")
    _check_keys(beam_d, ("profile", "diameter_mm", "axis"), f"{path}.beam")
    with _named(f"{path}.beam"):
        beam = ProbeBeam(
            profile=_string(beam_d.get("profile", "flat_top"),
                            f"{path}.beam.profile", ("flat_top", "gaussian")),
            diameter=_positive(beam_d.get("diameter_mm", 12.0),
                               f"{path}.beam.diameter_mm"),
            axis=_string(beam_d.get("axis", "z"), f"{path}.beam.axis"),
        )

    n_xy = (bounds_xy[1] - bounds_xy[0]) / spacing + 1
    n_z = (bounds_z[1] - bounds_z[0]) / (spacing_z or spacing) + 1
    _check_size(n_xy * n_xy * n_z, MAX_GRID_POINTS, path,
                "bounds_xy_mm, bounds_z_mm and the spacing")

    profiles_d = _expect_mapping(d.get("profiles", {}), f"{path}.profiles")
    profiles = {key: _parse_profile(val, f"{path}.profiles.{key}")
                for key, val in profiles_d.items()}
    with _named(path):
        model = FieldGridModel(b_set=b_set, profiles=profiles,
                               current_sign=signs[0], bounds_xy=bounds_xy,
                               bounds_z=bounds_z, spacing=spacing,
                               spacing_z=spacing_z,
                               max_deviation_khz=max_dev)
    return FieldDistSpec(model=model, signs=signs, beam=beam, n_bins=n_bins)


def _resolve_fieldmap_reference(ref, path, base_dir) -> DetuningDistribution:
    if not isinstance(ref, str) or not ref:
        raise ScenarioError(f"{path}: expected a preset name or a file path")
    if "/" in ref or ref.endswith((".yaml", ".yml")):
        sub_path = Path(base_dir) / ref
        if not sub_path.is_file():
            raise ScenarioError(f"{path}: file not found: {sub_path}")
        sub = load_scenario_dict(sub_path)
    else:
        sub_path = presets_root() / f"{ref}.yaml"
        if not sub_path.is_file():
            raise ScenarioError(f"{path}: unknown fieldmap reference {ref!r}")
        sub = load_scenario_dict(sub_path)
    if "fieldmap" not in sub:
        raise ScenarioError(f"{path}: {sub_path} has no fieldmap section")
    spec_path = f"{path}({ref}).fieldmap"
    spec = _parse_field_dist(sub["fieldmap"], spec_path)
    if len(spec.signs) > 1:
        raise ScenarioError(f"{spec_path}.signs: a distribution takes one "
                            f"current sign, got {len(spec.signs)}")
    with _named(spec_path):
        hist = field_magnitude_histogram(spec.model, spec.beam, spec.n_bins)
        return histogram_to_distribution(hist)


def _parse_distribution(d, path, base_dir) -> DetuningDistribution:
    d = _expect_mapping(d, path)
    _check_keys(d, ("kind", "sigma_khz", "skew", "file", "fieldmap"), path)
    if "fieldmap" in d:
        if "file" in d or "sigma_khz" in d:
            raise ScenarioError(
                f"{path}: fieldmap excludes file and sigma_khz")
        return _resolve_fieldmap_reference(d["fieldmap"], f"{path}.fieldmap",
                                           base_dir)
    if "file" in d:
        if "sigma_khz" in d:
            raise ScenarioError(f"{path}: file excludes sigma_khz")
        file_path = Path(base_dir) / _string(d["file"], f"{path}.file")
        if not file_path.is_file():
            raise ScenarioError(f"{path}.file: file not found: {file_path}")
        with _named(f"{path}.file"):
            return load_empirical_distribution(file_path)
    kind = _string(d.get("kind", "gaussian"), f"{path}.kind",
                   ("gaussian", "skewed_gaussian"))
    sigma = _khz(d.get("sigma_khz", 0.0), f"{path}.sigma_khz", _nonnegative)
    skew = _float(d.get("skew", 0.0), f"{path}.skew")
    with _named(path):
        return DetuningDistribution(kind=kind, sigma=sigma, skew=skew)


def _parse_atom_model(d, path) -> AtomModel:
    if d is None:
        return AtomModel()
    d = _expect_mapping(d, path)
    _check_keys(d, ("kind", "gamma_khz", "quadratic_shift_khz"), path)
    kind = _string(d.get("kind", "analytic_two_level"), f"{path}.kind",
                   ("analytic_two_level", "multilevel"))
    gamma = _khz(d.get("gamma_khz", 0.0), f"{path}.gamma_khz", _nonnegative)
    quad = _khz(d.get("quadratic_shift_khz", 100.0),
                f"{path}.quadratic_shift_khz", _positive)
    return AtomModel(kind=kind, gamma=gamma, quadratic_shift=quad)


def _parse_times(d, path):
    d = _expect_mapping(d, path)
    _check_keys(d, ("t_max_ms", "dt_ms"), path)
    t_max = _positive(d.get("t_max_ms"), f"{path}.t_max_ms")
    dt = _positive(d.get("dt_ms"), f"{path}.dt_ms")
    # np.arange's own length, ceil((stop - start) / step), before it allocates.
    _check_size((t_max + dt / 2) / dt, MAX_SAMPLES, path, "t_max_ms / dt_ms")
    times = np.arange(0.0, t_max + dt / 2, dt)
    if times.size < 8:
        raise ScenarioError(f"{path}: grid must contain at least 8 samples")
    return times


def _parse_deltas(d, path):
    has_list = "delta_list_khz" in d
    has_range = "delta_range_khz" in d
    if has_list and has_range:
        raise ScenarioError(f"{path}: give delta_list_khz or delta_range_khz, not both")
    if has_list:
        values = _float_list(d["delta_list_khz"], f"{path}.delta_list_khz")
        return tuple(_khz(v, f"{path}.delta_list_khz[{i}]", _float)
                     for i, v in enumerate(values))
    if has_range:
        r = _expect_mapping(d["delta_range_khz"], f"{path}.delta_range_khz")
        _check_keys(r, ("start", "stop", "step"), f"{path}.delta_range_khz")
        start = _float(r.get("start"), f"{path}.delta_range_khz.start")
        stop = _float(r.get("stop"), f"{path}.delta_range_khz.stop")
        step = _positive(r.get("step"), f"{path}.delta_range_khz.step")
        if stop < start:
            raise ScenarioError(f"{path}.delta_range_khz: stop must not precede start")
        _check_size((stop + step / 2 - start) / step, MAX_DETUNINGS,
                    f"{path}.delta_range_khz", "(stop - start) / step")
        values = np.arange(start, stop + step / 2, step)
        return tuple(_khz(v, f"{path}.delta_range_khz", _float) for v in values)
    raise ScenarioError(f"{path}: needs delta_list_khz or delta_range_khz")


def _parse_analysis(d, path, command) -> AnalysisOptions:
    d = _expect_mapping({} if d is None else d, path)
    if command == "spectrum":
        kind = "fft"
        _check_keys(d, _ANALYSIS_READS["spectrum"], path, "the spectrum command")
    else:
        kind = _string(d.get("kind", "single"), f"{path}.kind",
                       ("single", "two", "fft"))
        _check_keys(d, _ANALYSIS_READS[kind], path,
                    f"a scan with {path}.kind {kind}")
    window = None
    if "window_ms" in d:
        window = tuple(_pair(d["window_ms"], f"{path}.window_ms"))
    decay = _string(d.get("decay", "exp"), f"{path}.decay", ("exp", "gauss"))
    periods = _positive(d.get("window_periods", 10.0), f"{path}.window_periods")

    fft_d = _expect_mapping(d.get("fft", {}), f"{path}.fft")
    _check_keys(fft_d, ("detrend", "window_fn", "pad_factor", "prominence"),
                f"{path}.fft")
    detrend = fft_d.get("detrend", True)
    if not isinstance(detrend, bool):
        raise ScenarioError(f"{path}.fft.detrend: expected true or false")
    window_fn = _string(fft_d.get("window_fn", "hann"), f"{path}.fft.window_fn",
                        ("hann", "none"))
    pad = _integer(fft_d.get("pad_factor", 4), f"{path}.fft.pad_factor",
                   minimum=1, maximum=4)
    prominence = _positive(fft_d.get("prominence", 0.05),
                           f"{path}.fft.prominence")
    if prominence >= 1:
        raise ScenarioError(f"{path}.fft.prominence: must be below 1")

    track = None
    if "track" in d:
        t_d = _expect_mapping(d["track"], f"{path}.track")
        _check_keys(t_d, ("window_ms", "hop_ms", "t_stop_ms"), f"{path}.track")
        track = {
            "window": _positive(t_d.get("window_ms"), f"{path}.track.window_ms"),
            "hop": _positive(t_d.get("hop_ms"), f"{path}.track.hop_ms"),
            "t_stop": (_positive(t_d["t_stop_ms"], f"{path}.track.t_stop_ms")
                       if "t_stop_ms" in t_d else None),
        }
    fft = {"detrend": detrend, "window_fn": window_fn, "pad_factor": pad,
           "prominence": prominence}
    return AnalysisOptions(kind=kind, window=window, decay=decay,
                           window_periods=periods, fft=fft, track=track)


def parse_scenario(data: dict, base_dir=None) -> Scenario:
    """Validate a scenario mapping and convert it to internal units."""
    data = _expect_mapping(data, "scenario")
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    command = _string(data.get("command"), "command", COMMANDS)
    sections, drive_keys = _READS[command]
    _check_keys(data, sections, "", f"the {command} command")
    name = _string(data.get("name", "scenario"), "name")
    seed = _integer(data.get("seed", 0), "seed", minimum=0)

    out_d = _expect_mapping(data.get("output", {}), "output")
    _check_keys(out_d, ("basename",), "output")
    basename_path = "output.basename" if "basename" in out_d else "name"
    basename = _string(out_d.get("basename", name), basename_path)
    if not basename or any(sep in basename for sep in ("/", os.sep, "\0")):
        # The basename names files inside the output directory.
        raise ScenarioError(f"{basename_path}: must be a non-empty file name "
                            "without a path separator or NUL")

    if command == "field-dist":
        if "fieldmap" not in data:
            raise ScenarioError("fieldmap: required for the field-dist command")
        spec = _parse_field_dist(data["fieldmap"], "fieldmap")
        return Scenario(name=name, command=command, seed=seed,
                        basename=basename, field_dist=spec)

    drive_d = _expect_mapping(data.get("drive", {}), "drive")
    _check_keys(drive_d, drive_keys, "drive", f"the {command} command")
    omega0 = _khz(drive_d.get("omega0_khz"), "drive.omega0_khz", _positive)

    scan_d = _expect_mapping(data.get("scan", {}), "scan")
    _check_keys(scan_d, ("omega0_list_khz", "sigma_list_khz"), "scan")
    omega0_list = (omega0,)
    if "omega0_list_khz" in scan_d:
        values = _float_list(scan_d["omega0_list_khz"], "scan.omega0_list_khz")
        omega0_list = tuple(_khz(v, f"scan.omega0_list_khz[{i}]", _positive)
                            for i, v in enumerate(values))
    sigma_list = None
    if "sigma_list_khz" in scan_d:
        values = _float_list(scan_d["sigma_list_khz"], "scan.sigma_list_khz")
        sigma_list = tuple(_khz(v, f"scan.sigma_list_khz[{i}]", _nonnegative)
                           for i, v in enumerate(values))

    if command == "simulate":
        deltas = (_khz(drive_d.get("delta_khz", 0.0), "drive.delta_khz", _float),)
    else:
        deltas = _parse_deltas(drive_d, "drive")

    if "distribution" not in data:
        raise ScenarioError("distribution: required for this command")
    distribution = _parse_distribution(data["distribution"], "distribution",
                                       base_dir)
    if sigma_list is not None and not distribution.is_parametric:
        raise ScenarioError(
            "scan.sigma_list_khz: requires a parametric distribution")

    atom_model = _parse_atom_model(data.get("atom_model"), "atom_model")
    if "time_grid" not in data:
        raise ScenarioError("time_grid: required for this command")
    times = _parse_times(data["time_grid"], "time_grid")
    analysis = AnalysisOptions()
    if command != "simulate":
        analysis = _parse_analysis(data.get("analysis"), "analysis", command)
    if analysis.kind == "fft" and times.size < MIN_FFT_SAMPLES:
        raise ScenarioError(f"time_grid: an FFT analysis needs at least "
                            f"{MIN_FFT_SAMPLES} samples, got {times.size}")

    ens_d = _expect_mapping(data.get("ensemble", {}), "ensemble")
    _check_keys(ens_d, ("quadrature_nodes", "support_half_width"), "ensemble")
    nodes = _integer(ens_d.get("quadrature_nodes", 2001),
                     "ensemble.quadrature_nodes", minimum=201,
                     maximum=MAX_QUADRATURE_NODES)
    half_width = _float(ens_d.get("support_half_width", 8.0),
                        "ensemble.support_half_width")
    if half_width < 5.0:
        raise ScenarioError("ensemble.support_half_width: must be at least 5")
    if distribution.is_parametric and max(sigma_list or (distribution.sigma,)) > 0:
        # The share of mass the rule misses depends on the shape, the node
        # count and the half-width but not on sigma, so one check at unit
        # sigma covers every sigma block.
        with _named("ensemble.support_half_width"):
            _quadrature(replace(distribution, sigma=1.0), nodes, half_width)

    return Scenario(name=name, command=command, seed=seed, basename=basename,
                    omega0_list=omega0_list, deltas=deltas,
                    sigma_list=sigma_list, distribution=distribution,
                    atom_model=atom_model, times=times,
                    quadrature_nodes=nodes, support_half_width=half_width,
                    analysis=analysis)
