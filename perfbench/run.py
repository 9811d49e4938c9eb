#!/usr/bin/env python3
"""Benchmark of localp2: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload solutions_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see ``workloads.py`` for why each exists): ``reproduce_cold`` and
``solutions_sweep``.  With ``--trace 0`` the run reports the end-to-end
metrics of ``metrics.END_TO_END``; with ``--trace 1`` it wraps the public
functions of every localp2 module (``spans.py``) and reports
``metrics.PER_LAYER``.  Run from the root of a checkout: the package is
imported from ``src/`` there.

Output: human-readable report lines, one ``record`` line with provenance and
every number measured, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are scaled to a
core of fixed speed (``hostspeed.py``); the record holds the wall times too.  Exit code 0 when a
result was printed; 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys

# Load comes from one process with one thread: keep the BLAS of numpy, here
# and in every child, from starting helper threads on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (after the thread settings)
import metrics  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("reproduce_cold", "solutions_sweep")
PROVENANCE_KEYS = ("seed", "git_commit", "python", "numpy", "mpmath",
                   "kernels_backend", "nproc")


def provenance(seed):
    import mpmath
    import numpy

    from localp2 import _kernels

    commit = "unknown (not a git checkout)"
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "kernels_backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
    }


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(run, values, specs, extra):
    print(f"localp2 benchmark: workload {run.workload}, seed {run.seed}, "
          f"{run.seconds:g} s, trace {int(run.trace)}")
    for name, unit, *_ in specs:
        print(f"  {name:<44} {_fmt(values[name]):>14} {unit}")
    for name, v in extra.items():
        unit = metrics.EXTRA_UNITS.get(name, "count")
        print(f"  {name:<44} {_fmt(v):>14} {unit}")
    print(f"  attempted {run.attempted}, failed {run.failed}, "
          f"correct {str(run.correct).lower()}")
    for p in run.problems:
        print(f"  problem: {p}")
    if run.probe.get("error"):
        print(f"  known defect, periods at tol 1e-12: {run.probe['error']}")


def measure(args):
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    if run.attempted < 1:
        raise workloads.WorkloadError("no operation was attempted")
    if args.trace:
        values, specs = metrics.per_layer(run), metrics.PER_LAYER
        extra = {k.rsplit("_", 1)[0] + ".points": w for k, (_, w) in run.micro.items()}
    else:
        values, extra = metrics.end_to_end(run, workloads.TAIL_PCT[run.workload])
        specs = metrics.END_TO_END
        extra.update({k: run.accuracy[k] for k, _ in metrics.ACCURACY
                      if k in run.accuracy})
    report(run, values, specs, extra)
    record = {"workload": run.workload, "seconds": run.seconds,
              "trace": int(run.trace), "provenance": provenance(run.seed),
              "metrics": values, "extra": extra,
              "setup_samples_s": run.setup_samples,
              "setup_wall_samples_s": run.setup_wall_samples, "problems": run.problems,
              "probe_tol_1e-12": run.probe}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics.with_units(values, specs)}))


def self_check():
    """Every workload at a tiny size, both modes: every metric is emitted,
    with its unit, as a finite number, and BENCHMARK.json agrees."""
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }
    problems = []
    if declared[0] != [tuple(s) for s in metrics.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if declared[1] != [tuple(s) for s in metrics.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            where = f"{workload} trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (ValueError, IndexError):
                problems.append(f"{where}: exit {proc.returncode}, no result: "
                                f"{proc.stderr[-300:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed"):
                problems.append(f"{where}: correct {result.get('correct')}, "
                                f"failed {result.get('failed')}")
            want = {s[0]: s[1] for s in declared[trace]}
            got = result.get("metrics", {})
            if set(got) != set(want):
                problems.append(f"{where}: metric names differ: "
                                f"{sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                v = m.get("value")
                if m.get("unit") != want.get(name) or not (
                        isinstance(v, (int, float)) and math.isfinite(v)):
                    problems.append(f"{where}: bad metric {name}: {m}")
            records = [json.loads(line[len("record "):])
                       for line in proc.stdout.splitlines() if line.startswith("record ")]
            need = set(PROVENANCE_KEYS)
            have = set(records[0]["provenance"]) if records else set()
            if trace == 0 and records:
                need |= {"op_tail_s", "op_tail_pct", "op_samples",
                         "op_samples_beyond_tail", "fail_frac", "setup_wall_s",
                         "ops_per_wall_s"}
                have |= set(records[0]["extra"])
            if need - have:
                problems.append(f"{where}: record lacks {sorted(need - have)}")
            print(f"self-check {where}: {len(got)} metrics, "
                  f"attempted {result.get('attempted')}")
    for p in problems:
        print(f"self-check problem: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly and check the metric set")
    args = ap.parse_args(argv)
    if not (workloads.SRC / "localp2" / "__init__.py").is_file():
        print(f"error: no localp2 package under {workloads.SRC}; run from the "
              "root of a localp2 checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    hostspeed.pin_to_one_cpu()
    # On SIGTERM, unwind so that a child stopped for calibration is killed
    # and reaped rather than left stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        measure(args)
    except (workloads.WorkloadError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
