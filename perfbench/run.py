#!/usr/bin/env python3
"""rabisim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit-scan|ensemble-spectrum|multilevel
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory and nothing is installed. All work happens in fresh child
processes with one thread each (BLAS threads pinned to 1): one measures warm
passes (and, with --trace 1, alternates untraced and traced passes), then
several short-lived processes measure the one-shot set-up cost. Scratch files
go under .perfbench-work/ in the checkout and are removed afterwards, except
the spans of the last traced pass of each workload.

With --trace 0 the result carries the end-to-end metrics, with times
rescaled to the speed probe's reference speed (see probe.py); with --trace 1
it carries the per-layer metrics, in raw wall time. The exit code is 1 if
any correctness check fails, 2 if the checkout holds no program, 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"

SETUP_RUNS = 2
DEADLINE_S = 170.0

# The layer whose self time the workload is designed to be dominated by.
DESIGNED_SPLIT = {"fit-scan": "fitting+lsq", "ensemble-spectrum": "ensemble",
                  "multilevel": "multilevel"}


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(mode, plan_path, result_path, deadline):
    # perf_counter reads the system-wide monotonic clock, so the child can
    # measure its set-up time from this reading.
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"), mode, str(plan_path),
           str(result_path), repr(time.perf_counter())]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {mode} exited {proc.returncode}")
    return json.loads(Path(result_path).read_text())


def _setup_seconds(first, plan_path, work, deadline):
    """Median over fresh processes of (start to end of the cold tiny run)
    minus the warm tiny run: interpreter start, imports and lazy set-up, at
    the probe's reference speed.

    first is the sample of the measuring process; the others come from
    processes that do nothing else.
    """
    samples = [first]
    for i in range(SETUP_RUNS):
        samples.append(_child("setup", plan_path, work / f"setup{i}.json",
                              deadline)["setup_s"])
    return statistics.median(samples)


def _split(layers):
    merged = dict(layers)
    merged["fitting+lsq"] = merged.pop("fitting", 0.0) + merged.pop("lsq", 0.0)
    return max(merged, key=merged.get), merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "rabisim" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        plan["seconds"] = args.seconds
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        res = _child("trace" if args.trace else "passes", plan_path,
                     work / "result.json", deadline)
        if args.trace:
            metrics = {name: (res["metrics"][name], unit)
                       for name, unit in tracing.METRICS}
            metrics["trace.overhead_s"] = (res["metrics"]["trace.overhead_s"], "s")
        else:
            metrics = {
                "wall_s": (res["wall_s"], "s"),
                "points_per_s": (plan["expect"]["traces"] / res["wall_s"], "1/s"),
                "setup_s": (_setup_seconds(res["setup_s"], plan_path, work,
                                           deadline), "s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
                "ok_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(ok for _, ok, _ in res["checks"])
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{res['passes']} untraced passes")
    print(f"raw wall time of one pass {res['raw_wall_s']:.6g} s")
    if not args.trace:
        print(f"speed probe: {res['probe']['samples']} samples, median "
              f"{res['probe']['median_s'] * 1e3:.4g} ms, reference "
              f"{res['probe']['ref_s'] * 1e3:g} ms")
    for name, ok, detail in res["checks"]:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    print(f"operations attempted {res['attempted']}, failed {res['failed']} "
          f"(fail_frac {res['failed'] / res['attempted']:.6g})")
    if args.trace:
        largest, merged = _split(res["layers"])
        designed = DESIGNED_SPLIT[args.workload]
        print("self time by layer: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in sorted(merged.items(), key=lambda kv: -kv[1])))
        print(f"largest self time: {largest} (designed: {designed}; "
              f"{'holds' if largest == designed else 'does not hold'})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
