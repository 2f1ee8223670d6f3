"""The benchmark's tracer wraps program functions by (module, name).

perfbench/tracing.py replaces each binding in its BINDINGS table with a
span-recording wrapper, and its coverage check expects one single-frequency
fit span and one ensemble-signal span per scan point, and one five-level
atom span per atom of a multilevel ensemble. A refactor that drops a
binding crashes the traced benchmark run, and one that fits a scan's points
or evolves an ensemble's atoms through another function fails its coverage
check; both show here first. The tracer module is read from its file and
only used.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from rabisim import cli, ensemble
from rabisim.scenario import parse_scenario

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    missing = [(module, attr) for module, attr, _ in _tracing().BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_scan_has_one_fit_and_one_signal_span_per_point(tmp_path):
    scenario = parse_scenario({
        "name": "traced", "command": "scan",
        "drive": {"omega0_khz": 9.0, "delta_list_khz": [0.0, 4.5, 9.0]},
        "distribution": {"kind": "gaussian", "sigma_khz": 8.0},
        "time_grid": {"t_max_ms": 1.0, "dt_ms": 0.008},
        "ensemble": {"quadrature_nodes": 401},
    })
    with _tracing().Tracer() as tracer:
        cli.run_scenario(scenario, "0" * 64, tmp_path)
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["fitting.single"] == 3
    assert spans["ensemble.signal"] == 3


def test_traced_multilevel_simulate_has_one_span_per_atom(tmp_path):
    shifts = [-2.0, -0.5, 0.25, 1.0, 2.5]
    (tmp_path / "atoms.txt").write_text("".join(f"{x} 1.0\n" for x in shifts))
    scenario = parse_scenario({
        "name": "traced-multilevel", "command": "simulate",
        "drive": {"omega0_khz": 8.0, "delta_khz": 0.0},
        "distribution": {"file": "atoms.txt"},
        "atom_model": {"kind": "multilevel", "quadratic_shift_khz": 250.0},
        "time_grid": {"t_max_ms": 0.2, "dt_ms": 0.008},
    }, base_dir=tmp_path)
    with _tracing().Tracer() as tracer:
        cli.run_scenario(scenario, "0" * 64, tmp_path / "out")
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["multilevel.p1"] == len(shifts)
    assert spans["ensemble.signal"] == 1


def test_traced_parametric_multilevel_simulate_runs_the_sized_rule(tmp_path):
    # The benchmark counts one five-level atom span per quadrature node, so
    # the atoms that run must be the rule's sized count: 279 here, between
    # the 201-node floor and the 2001-node cap.
    scenario = parse_scenario({
        "name": "traced-parametric-multilevel", "command": "simulate",
        "drive": {"omega0_khz": 8.0, "delta_khz": 0.0},
        "distribution": {"kind": "gaussian", "sigma_khz": 20.0},
        "atom_model": {"kind": "multilevel", "quadratic_shift_khz": 250.0},
        "time_grid": {"t_max_ms": 0.2, "dt_ms": 0.008},
    })
    _, _, config = next(scenario.blocks())
    nodes = ensemble._signal_rule(config, scenario.times[-1])[0].size
    assert 201 < nodes < config.quadrature_nodes
    with _tracing().Tracer() as tracer:
        cli.run_scenario(scenario, "0" * 64, tmp_path)
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["multilevel.p1"] == nodes
    assert spans["ensemble.signal"] == 1
