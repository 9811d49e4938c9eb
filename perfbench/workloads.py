"""The two workloads of the localp2 benchmark.

Every workload is a closed loop with one client in one process and one
thread: the next operation starts only after the previous one returned.
Inputs come from ``random.Random(seed)``; the library receives only the
generated moduli.  Outputs are checked outside the measured time, so checking
costs none.  Every time is measured on one pinned CPU and scaled to a core of
fixed speed, between calibrations of the host's speed (``hostspeed.py``).  An operation that raises counts as failed; an
operation whose output fails its check counts as failed and also makes the
run incorrect.

reproduce_cold
    Each operation is a fresh interpreter running ``python -m localp2
    reproduce``: the one-shot command of the README.  It pays, on every
    operation, for import, empty caches, the modulus-independent
    critical-point rays and JSON output, and its time is almost all period
    quadrature (segment integrals, root tracking), so it exercises that
    mechanism.  Its periods stage revisits the moduli of the fit and
    central-charge stages, so a change to the ray caches shows here.  After
    the loop, a transfer fit at three seeded moduli with |y| >= 1e3 and a
    period request at the documented tolerance 1e-12 are checked in-process.
solutions_sweep
    Each operation is one solution-triple request from a fixed seeded mix
    of ODE continuation, series, Mellin-Barnes, large-|y| series, monodromy
    and closed-form checks.  It does no period quadrature, so it bypasses
    that mechanism: a change to ``mirror_geometry`` or the segment kernel
    should show no change here.

A third workload, periods at fresh moduli over a tolerance mix, was tried
and left out: on a shared host its runs had to be shorter to fit the run
budget, and its spread was wider than the bounds allow.
"""

from __future__ import annotations

import cmath
import importlib
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hostspeed
import setup_child
import spans

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 60
EXPECTED_TRANSFER = ((1, 0, 0), (-1, 1, -1), (1, 1, 0))

# The CLI documents --tol down to 1e-12, but a period request at 1e-12 fails
# today with a QuadratureError; it is probed once per reproduce_cold run
# outside the timed loop and reported, so that the loop holds only
# operations that succeed.
PROBE_TOL = 1e-12

# Percentile reported as op_tail_s: the highest standard
# percentile with at least ten samples beyond it at the nominal run length
# (40 s here: 5000-9000 solution requests).  It is fixed per workload rather
# than worked out from each run's count, so that a faster program, which
# completes more operations, is not measured at a higher percentile.
# reproduce_cold makes only about fifteen operations, too few for ten beyond
# any percentile above the median; its p75 has three or four beyond, and the
# record says how many.
TAIL_PCT = {"reproduce_cold": 75, "solutions_sweep": 99}

# Setup samples per run: fresh processes, median reported.
SETUP_REPEATS = 15

# Operations per second of each half (untraced, traced) of a traced run at
# the reference speed.  A traced run makes a fixed number of whole input
# cycles, so its counts repeat exactly and both halves hold the same mix.
TRACE_RATE = {"reproduce_cold": 0.3, "solutions_sweep": 120.0}
CYCLE = {"reproduce_cold": 1, "solutions_sweep": 20}


class WorkloadError(Exception):
    """The benchmark itself cannot run (missing program, bad child output)."""


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def import_localp2():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("localp2")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise WorkloadError(f"localp2 imported from {origin}, not from {SRC}")
    importlib.import_module("localp2.cli")  # the rest comes with the package


def run_child(argv, clock, sliced=True):
    """One subprocess at a time, killed and reaped on timeout; returns the
    ``CompletedProcess`` and its scaled time."""
    return hostspeed.run_child(argv, clock, CHILD_TIMEOUT_S, sliced=sliced,
                               cwd=ROOT, env=child_env())


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _large_modulus(rng, lo=27.0 * 1.001, hi=1e8):
    return cmath.rect(_log_uniform(rng, lo, hi), rng.uniform(-math.pi, math.pi))


# Inside the series disc |y| < 1/27 the 80-term series reach double precision
# only up to about here (27|y| = 0.54).
_SERIES_CONVERGED = 0.02


def _small_modulus(rng):
    # off the negative axis, where the contour route is cut
    return cmath.rect(_log_uniform(rng, 1e-4, _SERIES_CONVERGED),
                      rng.uniform(-math.pi + 0.25, math.pi - 0.25))


_S_START = cmath.log(0.01)
_S_SING = cmath.log(complex(-1.0 / 27.0))


def _continuation_modulus(rng):
    """|y| in [1e-2, 1e8]; continue_solutions refuses straight log-paths that
    pass within 0.05 of log(-1/27), so such draws are drawn again."""
    while True:
        y = cmath.rect(_log_uniform(rng, 1e-2, 1e8), rng.uniform(-math.pi, math.pi))
        seg = cmath.log(y) - _S_START
        t = max(0.0, min(1.0, ((_S_SING - _S_START) / seg).real))
        if abs(_S_START + t * seg - _S_SING) > 0.1:
            return y


def solution_ops(rng):
    """Cycles of 20 requests; the two halves differ in the precision mode of
    their closed-form check."""
    for i in itertools.count():
        y_big = _large_modulus(rng, lo=28.0)
        y_s1 = _small_modulus(rng)
        y_any = _continuation_modulus(rng)
        y_s2 = _small_modulus(rng)
        mode = "double" if i % 2 == 0 else "extended"
        yield from (("continue", y_big), ("chf", y_s1), ("mellin_barnes", y_s1),
                    ("w_at_infinity", y_big), ("series", y_s1),
                    ("continue", y_any), ("mellin_barnes", y_s2),
                    ("monodromy", None), ("chf", y_s2),
                    ("closed_forms", mode))


# ---------------------------------------------------------------------------
# shared run machinery
# ---------------------------------------------------------------------------


class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.latencies = array("d")  # a faster program must not hold more memory
        self.clock = hostspeed.ScaledClock()
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.setup_samples = []
        self.setup_wall_samples = []
        self.peak_rss_mb = 0.0
        self.accuracy = {}
        self.tracer = None
        self.overhead_frac = 0.0
        self.micro = {}
        self.probe = {"attempted": 0, "failed": 0}

    def fail(self, what, wrong_output):
        self.failed += 1
        if wrong_output:
            self.correct = False
        if len(self.problems) < 5:
            self.problems.append(what)

    def worst(self, key, value):
        self.accuracy[key] = max(self.accuracy.get(key, 0.0), float(value))


def closed_loop(run, ops, do_op, check, seconds=None, count=None):
    """Run ``do_op`` on ``ops`` until ``seconds`` pass or ``count`` ops are done.

    Operations run in whole input cycles, so that every run measures the same
    mix.  After each cycle, outside the measured time, the run's clock
    calibrates and scales the cycle's time, and ``check`` gets the cycle's
    [(op, output or None)], which are then dropped, so that the memory the
    benchmark holds does not grow with the number of operations.  Latencies
    are recorded scaled; failures are recorded on ``run``.  Returns the
    scaled time of the loop.
    """
    cycle = CYCLE[run.workload]
    ops = itertools.islice(ops, count)
    scaled = 0.0
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    while time.perf_counter() < deadline:
        done, latencies = [], []
        start = time.perf_counter()
        for op in itertools.islice(ops, cycle):
            t0 = time.perf_counter()
            run.attempted += 1
            try:
                out = do_op(op)
                run.completed += 1
            except Exception as exc:  # boundary: a raising op is a counted failure
                out = None
                run.fail(f"{op!r}: {type(exc).__name__}: {exc}", wrong_output=False)
            latencies.append(time.perf_counter() - t0)
            done.append((op, out))
        if not done:
            break
        wall = time.perf_counter() - start
        factor = run.clock.add(wall)
        scaled += wall * factor
        run.latencies.extend(v * factor for v in latencies)
        check(done)
    return scaled


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _measure_setup(run):
    """``SETUP_REPEATS`` fresh processes that set up the workload
    (``setup_child.py``), scaled by reference processes between them."""
    argv = [sys.executable, str(PERF / "setup_child.py"), run.workload]
    try:
        run.setup_wall_samples, run.setup_samples = hostspeed.start_times(
            argv, SETUP_REPEATS, CHILD_TIMEOUT_S, cwd=ROOT, env=child_env())
    except RuntimeError as exc:
        raise WorkloadError(f"set-up failed: {exc}")


def _kernel_micro(run):
    """Kernel micro-timings on seeded inputs, median of five repeats."""
    import numpy as np
    from localp2 import _kernels as ker

    rng = np.random.default_rng(run.seed)
    pts = rng.normal(size=20000) + 1j * rng.normal(size=20000) + 3.0
    moduli = 0.9 * (rng.random(20000) + 1j * rng.random(20000)) / 1.5
    zpath = np.linspace(0.0, 1.0, 20000) * (2.0 + 0.5j)
    seed_roots = ker.cubic_roots(0.0)
    xa, xb, xc = -0.5 + 0.1j, 0.4 + 0.9j, 1.1 - 0.2j
    seg_calls = 500

    def segments():
        for _ in range(seg_calls):
            ker.segment_integral(xa, xb, xc, 64)

    cases = {
        "kernels.gamma_array_20k_s": (lambda: ker.gamma_array(pts), 1.0, len(pts)),
        "kernels.digamma_array_20k_s": (lambda: ker.digamma_array(pts), 1.0, len(pts)),
        "kernels.ellipke_array_20k_s": (lambda: ker.ellipke_array(moduli), 1.0, len(moduli)),
        "kernels.track_roots_20k_s": (lambda: ker.track_roots(zpath, seed_roots), 1.0, len(zpath)),
        "kernels.segment_integral_n64_us": (segments, 1e6 / seg_calls, 64 * seg_calls),
    }
    for name, (fn, scale, work) in cases.items():
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        run.micro[name] = (statistics.median(times) * scale, work)


def _trace_count(run):
    cycle = CYCLE[run.workload]
    return cycle * max(1, round(TRACE_RATE[run.workload] * run.seconds / 2.0 / cycle))


def _measured_passes(run, ops, do_op, check):
    """Untraced: one timed loop.  Traced: whole input cycles alternate
    between untraced and traced, so that drift in the speed of the host
    cancels from the tracing overhead; only traced cycles enter the spans."""
    if not run.trace:
        closed_loop(run, ops, do_op, check, seconds=run.seconds)
        return
    cycle = CYCLE[run.workload]
    run.tracer = spans.Tracer()
    scaled = [0.0, 0.0]
    for i in range(2 * _trace_count(run) // cycle):
        traced = i % 2
        parts = []
        if traced:
            run.tracer.install()
        scaled[traced] += closed_loop(run, ops, do_op, parts.extend, count=cycle)
        run.tracer.uninstall()
        check(parts)
    run.overhead_frac = scaled[1] / scaled[0] - 1.0


# ---------------------------------------------------------------------------
# reproduce_cold
# ---------------------------------------------------------------------------

_DETAIL_NUMBERS = {
    "appendix_closed_forms": ("closed_form_rel_err_max", r"worst rel err (\S+)"),
    "solution_cross_checks": ("solution_route_dev_max", r"worst pairwise dev (\S+)"),
    "periods": ("period_sum_gap_max", r"sum gap (\S+),"),
}


def _check_reproduce(run, proc, reference):
    if proc.returncode != 0:
        run.fail(f"reproduce exit code {proc.returncode}", wrong_output=True)
        return
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        run.fail("reproduce printed invalid JSON", wrong_output=True)
        return
    if not payload.get("all_pass"):
        run.fail("reproduce all_pass is false", wrong_output=True)
    elif tuple(map(tuple, payload["transfer_matrix"])) != EXPECTED_TRANSFER:
        run.fail(f"transfer matrix {payload['transfer_matrix']}", wrong_output=True)
    elif proc.stdout != reference:
        run.fail("reproduce output differs from the first run", wrong_output=True)
    else:
        for st in payload["stages"]:
            if st["name"] in _DETAIL_NUMBERS:
                key, pattern = _DETAIL_NUMBERS[st["name"]]
                for m in re.finditer(pattern, st["detail"]):
                    run.worst(key, float(m.group(1)))


def _cold_loop(run, argvs, sliced, seconds=None, count=None):
    """Closed loop of fresh processes, one at a time, until ``seconds`` pass
    or ``count`` are done; returns [(argv, CompletedProcess, scaled time)]."""
    done = []
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    for argv in itertools.islice(argvs, count):
        if time.perf_counter() >= deadline:
            break
        run.attempted += 1
        try:
            proc, scaled = run_child(argv, run.clock, sliced=sliced)
        except subprocess.TimeoutExpired as exc:
            run.fail(str(exc), wrong_output=False)
            continue
        run.completed += 1
        run.latencies.append(scaled)
        done.append((argv, proc, scaled))
    return done


def run_reproduce_cold(run):
    import_localp2()
    argv = [sys.executable, "-m", "localp2", "reproduce"]
    traced_argv = [sys.executable, str(PERF / "trace_child.py")]
    if run.trace:
        _kernel_micro(run)
        # Untraced and traced runs alternate, as in _measured_passes.  The
        # traced child times its own spans, so no child is stopped to
        # calibrate: the clock calibrates between children only.
        done = _cold_loop(run, itertools.cycle((argv, traced_argv)), sliced=False,
                          count=2 * _trace_count(run))
        scaled = [sum(t for a, _, t in done if a is which) for which in (argv, traced_argv)]
        run.overhead_frac = scaled[1] / scaled[0] - 1.0
        summaries = []
        for proc in (p for a, p, _ in done if a is traced_argv):
            try:
                summaries.append(json.loads(proc.stderr.decode().splitlines()[-1]))
            except (ValueError, IndexError) as exc:
                raise WorkloadError(f"traced reproduce gave no spans: {exc}")
        run.tracer = spans.merge(summaries)
    else:
        _measure_setup(run)
        done = _cold_loop(run, itertools.repeat(argv), sliced=True, seconds=run.seconds)
    run.peak_rss_mb = _children_rss_mb()
    for _, proc, _ in done:
        _check_reproduce(run, proc, done[0][1].stdout)
    _close_reproduce_cold(run)


def _close_reproduce_cold(run):
    """A transfer fit at three seeded moduli with |y| >= 1e3 (the fit of
    `reproduce` always uses 1e3, 2e3, 4e3), and the 1e-12 probe."""
    from localp2 import mirror_geometry as geom
    from localp2 import mirror_map as mm
    from localp2.specfun import PrecisionConfig

    rng = random.Random(run.seed)
    triple = [_large_modulus(rng, lo=1e3) for _ in range(3)]
    run.attempted += 1
    try:
        tm = mm.fit_transfer_matrix(triple)
    except Exception as exc:  # boundary: a failed fit is a failed check
        run.fail(f"fit {triple}: {type(exc).__name__}: {exc}", wrong_output=True)
    else:
        run.worst("fit_pre_round_dev_max", tm.pre_round_dev)
        if tm.entries != EXPECTED_TRANSFER:
            run.fail(f"fit {triple} gave {tm.entries}", wrong_output=True)
    run.probe["attempted"] = 1
    try:
        geom.periods(triple[0], PrecisionConfig(mode="double", target_rel_err=PROBE_TOL))
    except Exception as exc:  # boundary: record the failure and go on
        run.probe["failed"] = 1
        run.probe["error"] = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# solutions_sweep
# ---------------------------------------------------------------------------


def _mb_triple(y, pf):
    """w1 and w2 from the two Mellin-Barnes sums, as printed in series_w2."""
    plain = pf.mellin_barnes(y, "plain")
    psi = pf.mellin_barnes(y, "digamma")
    ln_y = cmath.log(y)
    ln_my = ln_y - 1j * math.pi
    pi2 = math.pi ** 2
    w1 = (ln_y + 3.0 * plain) / (2j * math.pi)
    w2 = (-(ln_my * ln_my) / (8.0 * pi2) + 0.125
          - 3.0 * ln_my * plain / (4.0 * pi2) - 9.0 * psi / (4.0 * pi2))
    return w1, w2


def _solution_op(pf, specfun, configs):
    def do(op):
        kind, arg = op
        if kind == "continue":
            return pf.continue_solutions(arg)
        if kind == "chf":
            return pf.chf_expand(arg)
        if kind == "mellin_barnes":
            return _mb_triple(arg, pf)
        if kind == "w_at_infinity":
            return pf.w_at_infinity(arg, n_terms=16)
        if kind == "series":
            return pf.series_w1(arg), pf.series_w2(arg)
        if kind == "monodromy":
            return pf.monodromy_around_origin()
        return specfun.closed_form_checks(configs[arg])
    return do


def _check_solutions(run, done, pf):
    """Compare each output of one input cycle with an independent route;
    reuse outputs at the same modulus, compute the rest here (outside the
    timing)."""
    by_key = {(kind, arg): out for (kind, arg), out in done if out is not None}

    def ref(kind, y, compute):
        got = by_key.get((kind, y))
        return got if got is not None else compute()

    def agree(what, dev, bound):
        run.worst("solution_route_dev_max", dev)
        if not dev <= bound:
            run.fail(f"{what}: route deviation {dev:.3e} > {bound:.1e}",
                     wrong_output=True)

    def vec_dev(a, b):
        return max(abs(p - q) for p, q in zip(a.as_vector(), b.as_vector()))

    monodromy = None
    for (kind, arg), out in done:
        if out is None:
            continue
        if kind == "continue":
            if abs(arg) > 27.0:
                other = ref("w_at_infinity", arg, lambda: pf.w_at_infinity(arg, n_terms=16))
            elif abs(arg) <= _SERIES_CONVERGED:
                other = ref("chf", arg, lambda: pf.chf_expand(arg))
            else:
                other = pf.continue_solutions(arg, y_start=0.005)
            agree(f"continue_solutions({arg})", vec_dev(out, other),
                  out.err_estimate + other.err_estimate)
        elif kind == "w_at_infinity":
            other = ref("continue", arg, lambda: pf.continue_solutions(arg))
            agree(f"w_at_infinity({arg})", vec_dev(out, other),
                  out.err_estimate + other.err_estimate)
        elif kind in ("chf", "series", "mellin_barnes"):
            chf = ref("chf", arg, lambda: pf.chf_expand(arg))
            if kind == "chf":
                w1, w2 = pf.series_w1(arg), pf.series_w2(arg)
            else:
                w1, w2 = out
            # the tolerance of the solution_cross_checks stage of `reproduce`
            agree(f"{kind}({arg})", max(abs(chf.w1 - w1), abs(chf.w2 - w2)), 1e-9)
        elif kind == "monodromy":
            n = [[out[i][j] - (i == j) for j in range(3)] for i in range(3)]
            n3 = _matmul(_matmul(n, n), n)
            if any(v for row in n3 for v in row) or (monodromy and out != monodromy):
                run.fail(f"monodromy {out} is not the integer unipotent matrix",
                         wrong_output=True)
            monodromy = monodromy or out
        else:
            worst = max(r["rel_err"] for r in out)
            if arg == "double":
                run.worst("closed_form_rel_err_max", worst)
            if worst > (1e-10 if arg == "double" else 1e-20):
                run.fail(f"closed_form_checks({arg}) worst {worst:.3e}",
                         wrong_output=True)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def run_solutions_sweep(run):
    import_localp2()
    from localp2 import picard_fuchs as pf
    from localp2 import specfun

    if not run.trace:
        _measure_setup(run)
    else:
        _kernel_micro(run)
    configs = setup_child.setup_solutions_sweep()
    ops = solution_ops(random.Random(run.seed))
    _measured_passes(run, ops, _solution_op(pf, specfun, configs),
                     lambda part: _check_solutions(run, part, pf))
    run.peak_rss_mb = _self_rss_mb()


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    if workload == "reproduce_cold":
        run_reproduce_cold(run)
    else:
        run_solutions_sweep(run)
    return run
