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
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .ensemble import (MAX_QUADRATURE_NODES, MIN_QUADRATURE_NODES, AtomModel,
                       DetuningDistribution, EnsembleConfig, QuadratureSupportError,
                       SpreadError, _signal_rule, load_empirical_distribution)
from .fieldmap import (AxisProfile, FieldGridModel, ProbeBeam,
                       field_magnitude_histogram, histogram_to_distribution)
from .model import DriveParams
from .spectrum import MIN_FFT_SAMPLES
from .units import khz_to_angular

COMMANDS = ("simulate", "scan", "spectrum", "field-dist")

# Shipped scenario files, one per reproduced figure panel.
PRESET_NAMES = ("fig1b", "fig3a", "fig3b", "fig4", "fig5", "fig6a", "fig6b",
                "fig6-field", "fig7a", "fig7b", "fig8")

# Size caps, checked before anything of that size is allocated, so that a
# huge value fails fast instead of exhausting memory. They sit far above
# every shipped preset, which use at most 1,001 samples, 41 detunings,
# 2,001 quadrature nodes, 436,689 field-grid points and 120 bins. The field
# grid is binned in fixed-size blocks and never held whole, so
# MAX_GRID_POINTS bounds run time instead: about 30-40 ms per million points
# on a 2-CPU x86-64 host.
MAX_SAMPLES = 100_000
MAX_DETUNINGS = 10_000
MAX_GRID_POINTS = 10_000_000
MAX_BINS = 100_000

# What each choice of a section reads. A section's choices are its command,
# its kind, or which of two alternative keys it gives; None lists the keys
# read whatever the choice. parse_scenario refuses any other key with its
# dotted path: "not read by" when another choice reads it, "unknown key"
# when none does.
_ENSEMBLE_RUN = ("name", "command", "seed", "output", "drive", "distribution",
                 "atom_model", "time_grid", "ensemble")
_READS = {
    "simulate": _ENSEMBLE_RUN,
    "scan": _ENSEMBLE_RUN + ("analysis", "scan"),
    "spectrum": _ENSEMBLE_RUN + ("analysis",),
    "field-dist": ("name", "command", "seed", "output", "fieldmap"),
}
# simulate reads one detuning, scan and spectrum a list or a range
_DRIVE_READS = {None: ("omega0_khz",), "delta_khz": ("delta_khz",),
                "delta_list_khz": ("delta_list_khz",),
                "delta_range_khz": ("delta_range_khz",)}
_DISTRIBUTION_READS = {"fieldmap": ("fieldmap",), "file": ("file",),
                       "parametric": ("kind", "sigma_khz", "skew")}
_ATOM_READS = {"analytic_two_level": ("kind", "gamma_khz"),
               "multilevel": ("kind", "gamma_khz", "quadratic_shift_khz")}
# a two-frequency scan reads one window form
_ANALYSIS_READS = {"single": ("kind", "window_ms", "decay"), "two": ("kind",),
                   "fft": ("kind", "fft"), "spectrum": ("fft", "track"),
                   "window_ms": ("window_ms",), "window_periods": ("window_periods",)}
_ENSEMBLE_READS = {"a parametric distribution": ("quadrature_nodes", "support_half_width"),
                   "an empirical distribution": ()}
_FIELDMAP_READS = {None: ("b_set_khz", "bounds_xy_mm", "bounds_z_mm", "spacing_mm",
                          "spacing_z_mm", "max_deviation_khz", "n_bins", "beam",
                          "profiles"),
                   "signs": ("signs",), "current_sign": ("current_sign",)}
_PROFILE_READS = {"constant": ("kind", "value"), "piecewise_linear": ("kind", "nodes"),
                  "polynomial": ("kind", "coefficients")}
_OUTPUT_READS = ("basename",)
_SCAN_READS = ("omega0_list_khz", "sigma_list_khz")
_TIME_GRID_READS = ("t_max_ms", "dt_ms")
_DELTA_RANGE_READS = ("start", "stop", "step")
_FFT_READS = ("detrend", "window_fn", "pad_factor", "prominence")
_TRACK_READS = ("window_ms", "hop_ms", "t_stop_ms")
_BEAM_READS = ("profile", "diameter_mm")


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    return value


def _check_keys(d, reads, path, choices=(), reader=None):
    """Reject the first key of d that none of its choices reads, naming its
    dotted path. reads maps each choice of the section to its keys (a
    section without choices gives its keys alone), and reader describes
    the choices d made."""
    if not isinstance(reads, dict):
        reads = {None: reads}
    allowed = [key for choice in (None, *choices) for key in reads.get(choice, ())]
    for key in d:
        if key not in allowed:
            known = any(key in keys for keys in reads.values())
            why = f"not read by {reader}" if known else "unknown key"
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
def _named(path, errors=ValueError):
    """Turn an error of type errors raised inside into a ScenarioError
    naming path."""
    try:
        yield
    except ScenarioError:
        raise
    except errors as exc:
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


# The control characters (Unicode category Cc) and the line and paragraph
# separators: str.splitlines breaks a line at each of those it counts.
_LINE_BREAKING = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _line(value, path):
    """A string with no control character and no line or paragraph
    separator, so that it stays one line of a CSV metadata block and one
    path in the list of files written."""
    value = _string(value, path)
    found = _LINE_BREAKING.search(value)
    if found:
        raise ScenarioError(f"{path}: must not contain a control character "
                            f"or line break, found U+{ord(found.group()):04X}")
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
    track: dict | None = None  # sliding_window_frequency keywords


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

    def blocks(self):
        """(omega0, sigma, config) of every block a run simulates, in run
        order: omega0 outer, then sigma from sigma_list or the distribution's
        own spread, each config driven at deltas[0]."""
        dist = self.distribution
        for omega0 in self.omega0_list:
            for sigma in self.sigma_list or (dist.std_shift(),):
                yield omega0, sigma, EnsembleConfig(
                    drive=DriveParams(omega0=omega0, delta=self.deltas[0]),
                    distribution=replace(dist, sigma=sigma) if self.sigma_list else dist,
                    atom_model=self.atom_model, quadrature_nodes=self.quadrature_nodes,
                    support_half_width=self.support_half_width)


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
        # libyaml's parser where PyYAML has it; both build the same dicts
        data = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return data


def scenario_hash(data: dict, base_dir=None) -> str:
    """SHA-256 of the scenario mapping's canonical JSON.

    With base_dir, the bytes of every file the distribution reads, a
    `distribution.file` or a `distribution.fieldmap` given as a file path,
    are folded in, read relative to base_dir as `parse_scenario` reads
    them; a scenario that reads no file keeps the hash of its mapping.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True)
    digest = hashlib.sha256(canonical.encode())
    if base_dir is not None:
        for key, name in _referenced_files(data):
            try:
                content = (Path(base_dir) / name).read_bytes()
            except OSError as exc:
                raise ScenarioError(f"{key}: cannot read {name}: {exc}") from exc
            # Canonical JSON holds no NUL byte, so the appended parts cannot
            # be mistaken for mapping text.
            digest.update(b"\0" + key.encode() + b"\0" + hashlib.sha256(content).digest())
    return digest.hexdigest()


def _is_file_reference(ref) -> bool:
    """A fieldmap reference with a path separator or a YAML suffix names a
    file; any other names a bundled preset."""
    return "/" in ref or ref.endswith((".yaml", ".yml"))


def _referenced_files(data):
    """(key, name) of each file the scenario's distribution reads."""
    d = data.get("distribution")
    if not isinstance(d, dict):
        return []
    if "fieldmap" in d:
        ref = d["fieldmap"]
        return ([("distribution.fieldmap", ref)]
                if isinstance(ref, str) and _is_file_reference(ref) else [])
    if isinstance(d.get("file"), str):
        return [("distribution.file", d["file"])]
    return []


def _parse_profile(d, path) -> AxisProfile:
    d = _expect_mapping(d, path)
    kind = _string(d.get("kind"), f"{path}.kind", tuple(_PROFILE_READS))
    _check_keys(d, _PROFILE_READS, path, (kind,), f"a {kind} profile")
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
    form = "signs" if "signs" in d else "current_sign"
    _check_keys(d, _FIELDMAP_READS, path, (form,), f"a fieldmap with {path}.{form}")
    b_set = _positive(d.get("b_set_khz"), f"{path}.b_set_khz")
    if form == "signs":
        raw_signs = d["signs"]
        if not isinstance(raw_signs, (list, tuple)) or not raw_signs:
            raise ScenarioError(f"{path}.signs: expected a non-empty list of +1/-1")
        named = [(f"{path}.signs[{i}]", s) for i, s in enumerate(raw_signs)]
    else:
        named = [(f"{path}.current_sign", d.get("current_sign", 1))]
    signs = tuple(s for _, s in named)
    for i, (where, s) in enumerate(named):
        if _integer(s, where) not in (1, -1):
            raise ScenarioError(f"{where}: must be +1 or -1")
        if s in signs[:i]:
            raise ScenarioError(f"{where}: repeats sign {s:+d}")

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
    _check_keys(beam_d, _BEAM_READS, f"{path}.beam")
    with _named(f"{path}.beam"):
        beam = ProbeBeam(
            profile=_string(beam_d.get("profile", "flat_top"),
                            f"{path}.beam.profile", ("flat_top", "gaussian")),
            diameter=_positive(beam_d.get("diameter_mm", 12.0),
                               f"{path}.beam.diameter_mm"),
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
    if _is_file_reference(ref):
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
    source = next((key for key in ("fieldmap", "file") if key in d), "parametric")
    _check_keys(d, _DISTRIBUTION_READS, path, (source,),
                f"a distribution with {path}.{source}")
    if source == "fieldmap":
        return _resolve_fieldmap_reference(d["fieldmap"], f"{path}.fieldmap",
                                           base_dir)
    if source == "file":
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
    kind = _string(d.get("kind", "analytic_two_level"), f"{path}.kind",
                   tuple(_ATOM_READS))
    _check_keys(d, _ATOM_READS, path, (kind,), f"the {kind} atom model")
    gamma = _khz(d.get("gamma_khz", 0.0), f"{path}.gamma_khz", _nonnegative)
    if "quadratic_shift_khz" not in d:
        return AtomModel(kind=kind, gamma=gamma)
    quad = _khz(d["quadratic_shift_khz"], f"{path}.quadratic_shift_khz",
                _positive)
    return AtomModel(kind=kind, gamma=gamma, quadratic_shift=quad)


def _parse_times(d, path):
    d = _expect_mapping(d, path)
    _check_keys(d, _TIME_GRID_READS, path)
    t_max = _positive(d.get("t_max_ms"), f"{path}.t_max_ms")
    dt = _positive(d.get("dt_ms"), f"{path}.dt_ms")
    # np.arange's own length, ceil((stop - start) / step), before it allocates.
    _check_size((t_max + dt / 2) / dt, MAX_SAMPLES, path, "t_max_ms / dt_ms")
    times = np.arange(0.0, t_max + dt / 2, dt)
    if times.size < 8:
        raise ScenarioError(f"{path}: grid must contain at least 8 samples")
    return times


def _parse_deltas(d, path):
    if "delta_list_khz" in d:
        values = _float_list(d["delta_list_khz"], f"{path}.delta_list_khz")
        return tuple(_khz(v, f"{path}.delta_list_khz[{i}]", _float)
                     for i, v in enumerate(values))
    if "delta_range_khz" in d:
        r = _expect_mapping(d["delta_range_khz"], f"{path}.delta_range_khz")
        _check_keys(r, _DELTA_RANGE_READS, f"{path}.delta_range_khz")
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
        kind, choices, reader = "fft", ("spectrum",), "the spectrum command"
    else:
        kind = _string(d.get("kind", "single"), f"{path}.kind",
                       ("single", "two", "fft"))
        choices, reader = (kind,), f"a scan with {path}.kind {kind}"
        if kind == "two":
            form = "window_ms" if "window_ms" in d else "window_periods"
            choices, reader = (kind, form), reader + (f" and {path}.{form}" if form in d else "")
    _check_keys(d, _ANALYSIS_READS, path, choices, reader)
    window = tuple(_pair(d["window_ms"], f"{path}.window_ms")) if "window_ms" in d else None
    decay = _string(d.get("decay", "exp"), f"{path}.decay", ("exp", "gauss"))
    periods = _positive(d.get("window_periods", 10.0), f"{path}.window_periods")

    fft_d = _expect_mapping(d.get("fft", {}), f"{path}.fft")
    _check_keys(fft_d, _FFT_READS, f"{path}.fft")
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
        _check_keys(t_d, _TRACK_READS, f"{path}.track")
        track = {
            "window_length": _positive(t_d.get("window_ms"), f"{path}.track.window_ms"),
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
    _check_keys(data, _READS, "", (command,), f"the {command} command")
    name = _line(data.get("name", "scenario"), "name")
    seed = _integer(data.get("seed", 0), "seed", minimum=0)

    out_d = _expect_mapping(data.get("output", {}), "output")
    _check_keys(out_d, _OUTPUT_READS, "output")
    basename_path = "output.basename" if "basename" in out_d else "name"
    basename = _line(out_d.get("basename", name), basename_path)
    if not basename or any(sep in basename for sep in ("/", os.sep)):
        # The basename names files inside the output directory.
        raise ScenarioError(f"{basename_path}: must be a non-empty file name "
                            "without a path separator")

    if command == "field-dist":
        if "fieldmap" not in data:
            raise ScenarioError("fieldmap: required for the field-dist command")
        spec = _parse_field_dist(data["fieldmap"], "fieldmap")
        return Scenario(name=name, command=command, seed=seed,
                        basename=basename, field_dist=spec)

    drive_d = _expect_mapping(data.get("drive", {}), "drive")
    form = ("delta_khz" if command == "simulate" else
            "delta_list_khz" if "delta_list_khz" in drive_d else "delta_range_khz")
    _check_keys(drive_d, _DRIVE_READS, "drive", (form,),
                f"the {command} command" + (f" with drive.{form}" if form in drive_d else ""))
    omega0 = _khz(drive_d.get("omega0_khz"), "drive.omega0_khz", _positive)

    scan_d = _expect_mapping(data.get("scan", {}), "scan")
    _check_keys(scan_d, _SCAN_READS, "scan")
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
    track = analysis.track
    if track is not None:
        t_end = times[-1] if track["t_stop"] is None else min(track["t_stop"], times[-1])
        if track["window_length"] > t_end + 0.5 * times[-1] / (times.size - 1):
            raise ScenarioError(f"analysis.track.window_ms: longer than the {t_end:g} ms tracked")
        # A hop below the sample spacing only repeats windows' sample sets,
        # so a track holds at most as many windows as the trace has samples.
        _check_size((t_end - track["window_length"]) / track["hop"] + 1, times.size,
                    "analysis.track.hop_ms", "(min(t_stop_ms, t_max_ms) - window_ms) / hop_ms + 1")

    ens_d = _expect_mapping(data.get("ensemble", {}), "ensemble")
    source = ("a parametric distribution" if distribution.is_parametric
              else "an empirical distribution")
    _check_keys(ens_d, _ENSEMBLE_READS, "ensemble", (source,), source)
    nodes = _integer(ens_d.get("quadrature_nodes", 2001),
                     "ensemble.quadrature_nodes", minimum=MIN_QUADRATURE_NODES,
                     maximum=MAX_QUADRATURE_NODES)
    half_width = _float(ens_d.get("support_half_width", 8.0),
                        "ensemble.support_half_width")
    if half_width < 5.0:
        raise ScenarioError("ensemble.support_half_width: must be at least 5")

    scenario = Scenario(name=name, command=command, seed=seed, basename=basename,
                        omega0_list=omega0_list, deltas=deltas,
                        sigma_list=sigma_list, distribution=distribution,
                        atom_model=atom_model, times=times,
                        quadrature_nodes=nodes, support_half_width=half_width,
                        analysis=analysis)
    # Build the rule each block sums, which the run then finds in the cache;
    # the first block, in run order, whose rule is refused names the refusal,
    # and a spread too small for its density names the field it came from.
    with (_named("ensemble.quadrature_nodes"),
          _named("ensemble.support_half_width", QuadratureSupportError)):
        for _, sigma, config in scenario.blocks():
            spread = ("distribution.sigma_khz" if sigma_list is None
                      else f"scan.sigma_list_khz[{sigma_list.index(sigma)}]")
            with _named(spread, SpreadError):
                _signal_rule(config, float(times[-1]))
    return scenario
