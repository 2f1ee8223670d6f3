import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabisim.scenario import (
    MAX_QUADRATURE_NODES,
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    load_scenario_dict,
    parse_scenario,
    preset_file,
    scenario_hash,
)
from rabisim.units import khz_to_angular


def _minimal_simulate(**overrides):
    data = {
        "name": "demo",
        "command": "simulate",
        "seed": 1,
        "output": {"basename": "demo"},
        "drive": {"omega0_khz": 9.0, "delta_khz": 0.0},
        "distribution": {"kind": "gaussian", "sigma_khz": 8.0},
        "atom_model": {"kind": "analytic_two_level", "gamma_khz": 1.0},
        "time_grid": {"t_max_ms": 1.0, "dt_ms": 0.008},
    }
    data.update(overrides)
    return data


def test_minimal_simulate_parses():
    scenario = parse_scenario(_minimal_simulate())
    assert isinstance(scenario, Scenario)
    assert scenario.command == "simulate"
    assert list(scenario.omega0_list) == [pytest.approx(khz_to_angular(9.0))]
    assert scenario.distribution.sigma == pytest.approx(khz_to_angular(8.0))
    assert scenario.atom_model.gamma == pytest.approx(khz_to_angular(1.0))
    assert scenario.times[0] == 0.0
    assert scenario.times[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(scenario.times), 0.008)


def test_all_presets_parse():
    for name in PRESET_NAMES:
        data = load_scenario_dict(preset_file(name))
        scenario = parse_scenario(data, base_dir=preset_file(name).parent)
        assert scenario.name
        assert scenario.command in ("simulate", "scan", "spectrum", "field-dist")


def test_unknown_preset_lists_available():
    with pytest.raises(ScenarioError) as info:
        preset_file("fig99")
    message = str(info.value)
    assert "fig99" in message
    assert "fig1b" in message


def test_hash_key_order_insensitive():
    a = _minimal_simulate()
    b = dict(reversed(list(a.items())))
    assert scenario_hash(a) == scenario_hash(b)
    c = _minimal_simulate()
    c["seed"] = 2
    assert scenario_hash(a) != scenario_hash(c)


def test_error_messages_carry_paths():
    bad = _minimal_simulate()
    bad["drive"] = {"omega0_khz": -3.0}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(bad)
    assert "drive.omega0_khz" in str(info.value)

    bad = _minimal_simulate()
    bad["distribution"] = {"kind": "cauchy"}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(bad)
    assert "distribution" in str(info.value)

    bad = _minimal_simulate()
    bad["extra_section"] = {}
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_scan_requires_deltas_one_way():
    data = _minimal_simulate(command="scan")
    data["scan"] = {"omega0_list_khz": [9.0]}
    data["analysis"] = {"kind": "single"}
    with pytest.raises(ScenarioError):
        parse_scenario(data)  # no deltas at all
    data["drive"] = {
        "omega0_khz": 9.0,
        "delta_list_khz": [0.0, 4.5],
        "delta_range_khz": {"start": 0.0, "stop": 9.0, "step": 4.5},
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)  # both forms at once
    data["drive"] = {"omega0_khz": 9.0, "delta_list_khz": []}
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_sigma_list_needs_parametric_distribution():
    data = _minimal_simulate(command="scan")
    data["drive"] = {"omega0_khz": 9.0, "delta_list_khz": [0.0]}
    data["analysis"] = {"kind": "single"}
    data["scan"] = {"sigma_list_khz": [1.0, 2.0]}
    data["distribution"] = {
        "kind": "gaussian", "sigma_khz": 8.0,
    }
    parse_scenario(data)
    data["distribution"] = {"fieldmap": "fig6-field"}
    with pytest.raises(ScenarioError):
        parse_scenario(data, base_dir=preset_file("fig1b").parent)


def test_quadrature_settings_bounds():
    data = _minimal_simulate()
    data["ensemble"] = {"quadrature_nodes": 100}
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["ensemble"] = {"quadrature_nodes": 401, "support_half_width": 2.0}
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["ensemble"] = {"quadrature_nodes": MAX_QUADRATURE_NODES + 2}
    with pytest.raises(ScenarioError, match="ensemble.quadrature_nodes"):
        parse_scenario(data)
    data["ensemble"] = {"quadrature_nodes": 401, "support_half_width": 6.0}
    assert parse_scenario(data).quadrature_nodes == 401


@pytest.mark.parametrize("section, field, value, named", [
    ("time_grid", "t_max_ms", 1e308, "time_grid: t_max_ms / dt_ms"),
    ("time_grid", "t_max_ms", 2**70, "time_grid: t_max_ms / dt_ms"),
    ("time_grid", "dt_ms", 1e-300, "time_grid: t_max_ms / dt_ms"),
    ("time_grid", "t_max_ms", 1e4, "time_grid: t_max_ms / dt_ms"),
    ("delta_range_khz", "stop", 1e308, "drive.delta_range_khz"),
    ("delta_range_khz", "start", -1e308, "drive.delta_range_khz"),
    ("delta_range_khz", "step", 1e-300, "drive.delta_range_khz"),
    ("fieldmap", "bounds_xy_mm", [-8.0, 1e308], "fieldmap: bounds_xy_mm"),
    ("fieldmap", "bounds_z_mm", [-1e308, 20.0], "fieldmap: bounds_xy_mm"),
    ("fieldmap", "spacing_mm", 1e-3, "fieldmap: bounds_xy_mm"),
    ("fieldmap", "n_bins", 2**70, "fieldmap.n_bins"),
])
def test_size_caps_name_their_field(section, field, value, named):
    # Every value here is over its cap; none is allocated at.
    preset = {"time_grid": "fig1b", "delta_range_khz": "fig3a",
              "fieldmap": "fig8"}[section]
    data = load_scenario_dict(preset_file(preset))
    target = data["drive"][section] if section == "delta_range_khz" else data[section]
    target[field] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(data, base_dir=preset_file(preset).parent)
    assert named in str(info.value)


_OVERFLOW_CASES = [
    ("simulate", ("drive", "omega0_khz"), 1e308, "drive.omega0_khz"),
    ("simulate", ("drive", "delta_khz"), 1e308, "drive.delta_khz"),
    ("simulate", ("distribution", "sigma_khz"), 1e308, "distribution.sigma_khz"),
    ("simulate", ("atom_model", "gamma_khz"), 1e308, "atom_model.gamma_khz"),
    ("simulate", ("atom_model", "quadratic_shift_khz"), 1e308,
     "atom_model.quadratic_shift_khz"),
    ("scan", ("scan", "omega0_list_khz", 1), 1e308, "scan.omega0_list_khz[1]"),
    ("scan", ("scan", "sigma_list_khz", 1), 1e308, "scan.sigma_list_khz[1]"),
    ("scan", ("drive", "delta_list_khz", 1), -1e308, "drive.delta_list_khz[1]"),
    # few enough points for the count cap, but the start overflows
    ("scan", ("drive",), {"omega0_khz": 9.0, "delta_range_khz":
                          {"start": -1e308, "stop": 0.0, "step": 1e305}},
     "drive.delta_range_khz"),
]


@pytest.mark.parametrize("command, path, value, named", _OVERFLOW_CASES,
                         ids=[case[3] for case in _OVERFLOW_CASES])
def test_khz_overflow_names_its_field(command, path, value, named):
    # Each value is finite in kHz but overflows to inf once multiplied by 2 pi.
    data = _minimal_simulate(command=command)
    if command == "scan":
        data["drive"] = {"omega0_khz": 9.0, "delta_list_khz": [0.0, 4.5]}
        data["scan"] = {"omega0_list_khz": [9.0, 4.5], "sigma_list_khz": [8.0, 4.0]}
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ScenarioError, match="overflows in angular units") as info:
        parse_scenario(data)
    assert str(info.value).startswith(named + ": ")


def _field_paths(obj, prefix=()):
    """Key paths to every mapping value and list element below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


_PRESETS = {name: load_scenario_dict(preset_file(name)) for name in PRESET_NAMES}
_PRESET_FIELDS = [(name, path) for name, data in _PRESETS.items()
                  for path in _field_paths(data)]
_DELETE = object()
_MUTATIONS = [None, 1e308, -1e308, math.nan, math.inf, -math.inf, "text",
              [1.0], 2**70, _DELETE]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_PRESET_FIELDS), value=st.sampled_from(_MUTATIONS))
def test_mutated_presets_parse_or_raise_scenario_error(field, value):
    name, path = field
    data = copy.deepcopy(_PRESETS[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        scenario = parse_scenario(data, base_dir=preset_file(name).parent)
    except ScenarioError:
        return
    # Whatever parses must give finite angular frequencies.
    dist = scenario.distribution
    freqs = [*scenario.omega0_list, *scenario.deltas, *(scenario.sigma_list or ()),
             scenario.atom_model.gamma, scenario.atom_model.quadratic_shift]
    if dist is not None:
        freqs += [dist.sigma] if dist.is_parametric else list(dist.shifts)
    assert np.isfinite(freqs).all()


def test_analysis_validation():
    data = _minimal_simulate(command="scan")
    data["drive"] = {"omega0_khz": 9.0, "delta_list_khz": [0.0]}
    data["analysis"] = {"kind": "wavelet"}
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["analysis"] = {"kind": "fft", "pad_factor": 9}
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["analysis"] = {"kind": "fft", "prominence": 1.2}
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_fieldmap_reference_resolves_relative_path(tmp_path):
    fieldmap_yaml = tmp_path / "cell.yaml"
    fieldmap_yaml.write_text(
        "fieldmap:\n"
        "  b_set_khz: 18167.0\n"
        "  current_sign: 1\n"
        "  beam: {profile: flat_top, diameter_mm: 12.0}\n"
        "  n_bins: 40\n"
        "  profiles:\n"
        "    b0z: {kind: piecewise_linear, nodes: [[-20.0, -1.0], [20.0, 2.0]]}\n"
    )
    data = _minimal_simulate()
    data["distribution"] = {"fieldmap": "cell.yaml"}
    scenario = parse_scenario(data, base_dir=tmp_path)
    assert scenario.distribution.kind == "empirical"
    assert scenario.distribution.shifts.size > 1


def test_fieldmap_reference_takes_one_sign():
    # fig8 runs both current signs; a distribution is one histogram.
    data = _minimal_simulate()
    data["distribution"] = {"fieldmap": "fig8"}
    with pytest.raises(ScenarioError,
                       match=r"^distribution\.fieldmap\(fig8\)\.fieldmap\.signs: "):
        parse_scenario(data)


def test_empirical_distribution_from_file(tmp_path):
    dist_file = tmp_path / "shifts.txt"
    dist_file.write_text("-4.0 1\n0.0 2\n4.0 1\n")
    data = _minimal_simulate()
    data["distribution"] = {"file": "shifts.txt"}
    scenario = parse_scenario(data, base_dir=tmp_path)
    assert scenario.distribution.kind == "empirical"
    assert scenario.distribution.mean_shift() == pytest.approx(0.0, abs=1e-12)


def test_load_scenario_dict_requires_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError):
        load_scenario_dict(path)
