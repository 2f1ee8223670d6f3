"""Fresh-process side of the benchmark.

    python3 perfbench/measure.py passes|trace|setup PLAN.json RESULT.json START

START is the caller's perf_counter reading just before it started this
process (the clock is system-wide), where the set-up time begins.

The speed probe samples from before the program's first import.
passes: the tiny scenarios cold and then warm (one set-up sample, see
cold_start), then warm passes of the workload until the plan's seconds are
spent; reports the time of one pass at the probe's reference speed (see
pass_estimate), the raw wall time of one pass, the process's peak RSS and
the correctness checks.
trace: the same, but the probe stops after the set-up sample and traced and
untraced passes alternate; reports per-layer metrics from the spans and the
tracing overhead, in raw wall time.
setup: the set-up sample only.

A pass is what `rabisim scan|spectrum|simulate --config` does per scenario:
load_scenario_dict, parse_scenario, cli.run_scenario with one thread,
writing CSVs; ensemble-spectrum passes also draw their Monte Carlo traces.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

SAMPLER = None
if __name__ == "__main__":
    # The kernel's mix comes from the plan, read before the program's import.
    _plan = json.loads(Path(sys.argv[2]).read_text())
    SAMPLER = probe.Probe(_plan["probe_cos_blocks"])
    SAMPLER.start()

from rabisim import cli, ensemble, scenario  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(paths, out_dir, mc_jobs=(), seed=0, unit_times=None, deadline=None):
    """One pass over the scenario files; returns parsed scenarios and MC traces.

    Each scenario and each Monte Carlo job is a timing unit; with unit_times
    given, their (start, end) clock readings are appended to it in order.
    With a deadline, the pass stops after the first unit that ends past it
    and returns None.
    """
    clock = time.perf_counter
    parsed, mc = [], []
    n_units = len(paths) + len(mc_jobs)
    for i in range(n_units):
        t0 = clock()
        if i < len(paths):
            path = Path(paths[i])
            data = scenario.load_scenario_dict(path)
            sc = scenario.parse_scenario(data, base_dir=path.parent)
            cli.run_scenario(sc, scenario.scenario_hash(data), out_dir)
            parsed.append(sc)
        else:
            job = mc_jobs[i - len(paths)]
            config, times = checks.mc_config(parsed[job["scenario"]], job["delta_khz"])
            mc.append((config, times, ensemble.monte_carlo_signal(
                config, times, workloads.MC_SAMPLES, seed=seed)))
        t1 = clock()
        if unit_times is not None:
            unit_times.append((t0, t1))
        if deadline is not None and t1 > deadline and i + 1 < n_units:
            return None
    return parsed, mc


def _raw(t0, t1):
    return t1 - t0


def pass_estimate(unit_runs, seconds=_raw):
    """Time of one pass: the sum over its units of each unit's median.

    seconds turns a unit's (start, end) into its time: raw wall time, or
    the probe's rescaling to the reference speed. Units are timed in every
    pass, so noise that hits one unit in one pass moves only that unit's
    sample, and the median discards it. The first pass is complete; a pass
    cut at the deadline adds its finished units.
    """
    return sum(statistics.median(seconds(*run[i]) for run in unit_runs
                                 if i < len(run))
               for i in range(len(unit_runs[0])))


def cold_start(plan, start):
    """One set-up sample: the time from start (before this process began)
    to the end of a cold run of the tiny scenarios, minus a warm rerun of
    them, both at the probe's reference speed."""
    run_pass(plan["tiny"], plan["tiny_out_dir"])
    mark = time.perf_counter()
    run_pass(plan["tiny"], plan["tiny_out_dir"])
    return (SAMPLER.rescale(start, mark)
            - SAMPLER.rescale(mark, time.perf_counter()))


def _digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(plan, seconds, traced, start):
    out_dir = plan["out_dir"]
    setup = cold_start(plan, start)
    if traced:
        # Traced runs report raw wall times: the probe would interrupt spans.
        SAMPLER.stop()

    walls = {False: [], True: []}
    layer_runs = []
    digests = []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not walls[False]
           or (traced and not walls[True])):
        with_trace = traced and len(walls[True]) < len(walls[False])
        # The first pass of each kind completes; later ones stop at the deadline.
        cut = deadline if walls[with_trace] else None
        unit_times = []
        if with_trace:
            with tracer:
                done = run_pass(plan["scenarios"], out_dir, plan["mc"],
                                plan["seed"], unit_times, cut)
        else:
            done = run_pass(plan["scenarios"], out_dir, plan["mc"],
                            plan["seed"], unit_times, cut)
        walls[with_trace].append(unit_times)
        if done is None:
            break
        parsed, mc = done
        digests.append(_digest(out_dir))
        if with_trace:
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            spans = list(tracer.spans)
    SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    count_check, attempted, failed = checks.count_operations(plan, parsed)
    found = [count_check, checks.finite_rows(plan, parsed),
             ("deterministic outputs", len(set(digests)) == 1,
              f"{len(set(digests))} distinct output sets over "
              f"{len(digests)} complete passes")]
    if plan["reference"]:
        found.append(checks.reference(plan, parsed, BENCH_DIR))
    if plan["mc"]:
        found.append(checks.monte_carlo(mc))
    if "two_level_check" in plan:
        found.append(checks.two_level(plan, parsed))

    result = {"raw_wall_s": pass_estimate(walls[False]),
              "passes": len(walls[False]), "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed, "setup_s": setup,
              "probe": {"samples": len(SAMPLER.samples), "ref_s": SAMPLER.ref_s,
                        "median_s": statistics.median(
                            d for _, d in SAMPLER.samples)}}
    if not traced:
        result["wall_s"] = pass_estimate(walls[False], SAMPLER.rescale)
    if traced:
        per_pass = [m for m, _ in layer_runs]
        exact = {name: {m[name] for m in per_pass} for name in tracing.EXACT}
        found.append(("exact counters", all(len(v) == 1 for v in exact.values()),
                      ", ".join(f"{k}={sorted(v)}" for k, v in exact.items())))
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = (pass_estimate(walls[True])
                                       - pass_estimate(walls[False]))
        found.append(checks.coverage(plan, metrics))
        layers = {k: statistics.median(l[k] for _, l in layer_runs)
                  for k in layer_runs[-1][1]}
        result.update(metrics=metrics, layers=layers)
        spans_path = BENCH_DIR.parent / ".perfbench-work" / f"spans-{plan['workload']}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "value", "fit_failure"],
             "spans": spans}))
    result["checks"] = found
    return result


def main(argv):
    mode, plan_path, result_path, start = argv
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        result = {"setup_s": cold_start(plan, float(start))}
        SAMPLER.stop()
    else:
        result = measure(plan, plan["seconds"], mode == "trace", float(start))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
