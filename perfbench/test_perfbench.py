"""Tests of the benchmark itself: python3 -m pytest perfbench

The counter test runs every workload twice in fresh processes and takes
about a minute and a half.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from rabisim.scenario import load_scenario_dict, parse_scenario, preset_file  # noqa: E402


def _parsed(path):
    path = Path(path)
    return parse_scenario(load_scenario_dict(path), base_dir=path.parent)


def test_seed_zero_fit_scan_is_the_presets(tmp_path):
    plan = workloads.generate("fit-scan", 0, tmp_path / "w")
    for path in plan["scenarios"]:
        ours = _parsed(path)
        preset = _parsed(preset_file(ours.name))
        for field in ("omega0_list", "deltas", "sigma_list", "distribution",
                      "atom_model", "analysis", "quadrature_nodes"):
            assert getattr(ours, field) == getattr(preset, field), (ours.name, field)
        assert (ours.times == preset.times).all()


def test_generation_depends_only_on_seed(tmp_path):
    def files(seed, name):
        plan = workloads.generate("ensemble-spectrum", seed, tmp_path / name)
        scen_dir = Path(plan["scenarios"][0]).parent
        return {p.name: p.read_text() for p in sorted(scen_dir.iterdir())}

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def test_self_time_excludes_children():
    spans = [["scans.scan", 0.0, 10.0, -1, (2, 0), False],
             ["ensemble.signal", 1.0, 4.0, 0, 100, False],
             ["fitting.single", 4.0, 9.0, 0, None, False],
             ["lsq.lm", 5.0, 8.0, 2, 7, False]]
    metrics, layers = tracing.layer_metrics(spans)
    assert metrics["scans.self_s"] == 2.0
    assert metrics["fitting.single_s"] == 2.0
    assert metrics["lsq.lm_s"] == 3.0
    assert metrics["ensemble.node_samples"] == 100
    assert metrics["lsq.lm_iters"] == 7
    assert sum(layers.values()) == 10.0


def test_rescale_uses_the_harmonic_mean_of_samples_inside():
    import probe

    p = probe.Probe(cos_blocks=1)
    ref = p.ref_s
    # Kernel runs ending at 1..4 s; the unit [0.5, 4.5] holds all four.
    p.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, ref), (4.0, 2 * ref)]
    net = 4.0 - 6 * ref
    assert p.rescale(0.5, 4.5) == pytest.approx(net * 0.75)
    # A unit holding one sample uses the three nearest to its middle
    # (durations ref, 2 ref, 2 ref: harmonic mean 1.5 ref).
    assert p.rescale(2.9, 3.1) == pytest.approx((0.2 - ref) / 1.5)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_run_to_run(workload):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"]
    runs = []
    for _ in range(2):
        proc = _run(args)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        runs.append({k: result["metrics"][k]["value"] for k in tracing.EXACT})
    assert runs[0] == runs[1]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "multilevel", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
