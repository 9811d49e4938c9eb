"""Metric definitions of the localp2 benchmark and their computation.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` at the root of the
repository; ``run.py --self-check`` fails when the two disagree.

Which end-to-end metric each per-layer metric should move, and on which
workload:

- ``kernels.segment_integral.*``, ``kernels.track_roots.*``,
  ``mirror_geometry.periods.*``, ``segment_calls_per_period`` and
  ``root_points_per_period``: ops_per_s on reproduce_cold (its time is
  almost all period quadrature); no change on solutions_sweep.
- ``kernels.{gamma,digamma,hyp2f1_half}_array.*``: ops_per_s on
  solutions_sweep (through mellin_barnes); barely reproduce_cold.
- ``mirror_map.*`` (``periods_calls_per_fit`` shows cache revisits),
  ``cohomology.self_s``, ``cli.dispatch.self_s`` and ``cli.stage.*``:
  reproduce_cold.
- ``picard_fuchs.*`` and ``specfun.closed_form_checks.*``: ops_per_s on
  solutions_sweep.
"""

from __future__ import annotations

import math
import statistics

# name, unit, better, bound.  Every time here is scaled to a core of fixed
# speed (hostspeed.py); the wall-clock figures are in the record beside them.
# On a shared 2-vCPU KVM guest (Xeon, Sapphire Rapids) the speed of a core
# switched between levels up to 1.75x apart, which spread the wall-clock
# figures of ten runs of one workload by 0.2-0.4 (interquartile range over
# median) and moved the median of ten runs by a third between two sets; the
# scaled figures spread by less than 0.05.  Reported beside these, not gated:
# op_tail_s, the percentile TAIL_PCT of workloads.py, which depends on the
# seeded inputs (its spread over ten seeds of solutions_sweep was 0.14);
# fail_frac, which is 0 today; and the accuracy maxima.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("op_p50_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

REPRODUCE_STAGES = (
    "appendix_closed_forms", "solution_cross_checks", "annihilator",
    "periods", "transfer_matrix", "central_charges", "ktheory",
)

# First public call of each reproduce stage, by span name.  A call that is in
# no list belongs to the stage of the call before it.
_STAGE_OF_CALL = {
    "specfun.closed_form_checks.double": "appendix_closed_forms",
    "specfun.closed_form_checks.extended": "appendix_closed_forms",
    "picard_fuchs.chf_expand": "solution_cross_checks",
    "picard_fuchs.annihilation_residual": "annihilator",
    "mirror_geometry.periods": "periods",
    "mirror_map.fit_transfer_matrix": "transfer_matrix",
    "mirror_map.central_charge_report": "central_charges",
    "mirror_map.hom_dimensions": "ktheory",
}

ACCURACY = [
    ("period_sum_gap_max", "abs"),
    ("fit_pre_round_dev_max", "abs"),
    ("solution_route_dev_max", "abs"),
    ("closed_form_rel_err_max", "rel"),
]

# Units of the numbers a run reports beside the gated ones.
EXTRA_UNITS = {"op_tail_s": "s", "op_tail_pct": "%",
               "op_samples": "count", "op_samples_beyond_tail": "count",
               "fail_frac": "frac", "setup_wall_s": "s", "ops_per_wall_s": "1/s",
               **dict(ACCURACY)}

_PF_CALLS = ("continue_solutions", "monodromy_around_origin", "mellin_barnes",
             "chf_expand", "w_at_infinity")


def _per_layer_specs():
    specs = []

    def calls_s(span, self_s=False):
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.s", "s", "lower"))
        if self_s:
            specs.append((f"{span}.self_s", "s", "lower"))

    def layer(name):
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))

    calls_s("kernels.segment_integral")
    specs.append(("kernels.track_roots.points", "count", "lower"))
    calls_s("kernels.track_roots")
    for k in ("gamma_array", "digamma_array", "hyp2f1_half_array"):
        calls_s(f"kernels.{k}")
    layer("kernels")
    specs += [
        ("kernels.gamma_array_20k_s", "s", "lower"),
        ("kernels.digamma_array_20k_s", "s", "lower"),
        ("kernels.ellipke_array_20k_s", "s", "lower"),
        ("kernels.track_roots_20k_s", "s", "lower"),
        ("kernels.segment_integral_n64_us", "us", "lower"),
    ]
    calls_s("mirror_geometry.periods", self_s=True)
    specs += [
        ("mirror_geometry.segment_calls_per_period", "count", "lower"),
        ("mirror_geometry.root_points_per_period", "count", "lower"),
        ("mirror_geometry.tol_1e-12.attempted", "count", "higher"),
        ("mirror_geometry.tol_1e-12.failed", "count", "lower"),
    ]
    layer("mirror_geometry")
    calls_s("mirror_map.fit_transfer_matrix", self_s=True)
    calls_s("mirror_map.central_charge_report", self_s=True)
    specs.append(("mirror_map.periods_calls_per_fit", "count", "lower"))
    layer("mirror_map")
    for f in _PF_CALLS:
        calls_s(f"picard_fuchs.{f}", self_s=True)
    layer("picard_fuchs")
    for mode in ("double", "extended"):
        specs.append((f"specfun.closed_form_checks.{mode}_calls", "count", "lower"))
        specs.append((f"specfun.closed_form_checks.{mode}_s", "s", "lower"))
    layer("specfun")
    layer("cohomology")
    specs.append(("cli.dispatch.calls", "count", "lower"))
    specs.append(("cli.dispatch.self_s", "s", "lower"))
    specs += [(f"cli.stage.{st}_s", "s", "lower") for st in REPRODUCE_STAGES]
    specs.append(("trace.overhead_frac", "frac", "lower"))
    specs += [(name, unit, "lower") for name, unit in ACCURACY]
    return specs


PER_LAYER = _per_layer_specs()


def percentile(sorted_values, pct):
    """Linear interpolation between order statistics; pct 50 is the median."""
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(run, tail_pct):
    """Gated values, and the rest of what the run measured (``extra``)."""
    lat = sorted(run.latencies)
    tail = percentile(lat, tail_pct)
    values = {
        "setup_s": statistics.median(run.setup_samples),
        "ops_per_s": run.completed / run.clock.scaled_s,
        "op_p50_s": statistics.median(lat),
        "peak_rss_mb": run.peak_rss_mb,
    }
    extra = {"op_tail_s": tail,
             "op_tail_pct": tail_pct,
             "op_samples": len(lat),
             "op_samples_beyond_tail": sum(v > tail for v in lat),
             "fail_frac": run.failed / run.attempted,
             "setup_wall_s": statistics.median(run.setup_wall_samples),
             "ops_per_wall_s": run.completed / run.clock.wall_s}
    return values, extra


def _stage_times(tracer):
    times = dict.fromkeys(REPRODUCE_STAGES, 0.0)
    stage = REPRODUCE_STAGES[0]
    for name, dur in tracer.top_children:
        stage = _STAGE_OF_CALL.get(name, stage)
        times[stage] += dur
    return times


def per_layer(run):
    t = run.tracer
    m = {}

    def span(name, self_s=False):
        m[f"{name}.calls"] = t.calls.get(name, 0)
        m[f"{name}.s"] = t.incl_s.get(name, 0.0)
        if self_s:
            m[f"{name}.self_s"] = t.self_s.get(name, 0.0)

    def layer(name):
        m[f"{name}.calls"], m[f"{name}.self_s"] = t.layer_totals(name)

    def per(outer, inner, table):
        n = t.calls.get(outer, 0)
        return table.get((outer, inner), 0) / n if n else 0.0

    span("kernels.segment_integral")
    span("kernels.track_roots")
    m["kernels.track_roots.points"] = t.points.get("kernels.track_roots", 0)
    for k in ("gamma_array", "digamma_array", "hyp2f1_half_array"):
        span(f"kernels.{k}")
    layer("kernels")
    m.update({name: value for name, (value, _) in run.micro.items()})
    periods = "mirror_geometry.periods"
    span(periods, self_s=True)
    m["mirror_geometry.segment_calls_per_period"] = per(
        periods, "kernels.segment_integral", t.within_calls)
    m["mirror_geometry.root_points_per_period"] = per(
        periods, "kernels.track_roots", t.within_points)
    m["mirror_geometry.tol_1e-12.attempted"] = run.probe["attempted"]
    m["mirror_geometry.tol_1e-12.failed"] = run.probe["failed"]
    layer("mirror_geometry")
    span("mirror_map.fit_transfer_matrix", self_s=True)
    span("mirror_map.central_charge_report", self_s=True)
    m["mirror_map.periods_calls_per_fit"] = per(
        "mirror_map.fit_transfer_matrix", periods, t.within_calls)
    layer("mirror_map")
    for f in _PF_CALLS:
        span(f"picard_fuchs.{f}", self_s=True)
    layer("picard_fuchs")
    for mode in ("double", "extended"):
        name = f"specfun.closed_form_checks.{mode}"
        m[f"{name}_calls"] = t.calls.get(name, 0)
        m[f"{name}_s"] = t.incl_s.get(name, 0.0)
    layer("specfun")
    layer("cohomology")
    m["cli.dispatch.calls"] = t.calls.get("cli.dispatch", 0)
    m["cli.dispatch.self_s"] = t.self_s.get("cli.dispatch", 0.0)
    for stage, secs in _stage_times(t).items():
        m[f"cli.stage.{stage}_s"] = secs
    m["trace.overhead_frac"] = run.overhead_frac
    for name, _ in ACCURACY:
        m[name] = run.accuracy.get(name, 0.0)
    return m


def with_units(values, specs):
    units = {s[0]: s[1] for s in specs}
    return {name: {"value": values[name], "unit": units[name]}
            for name in (s[0] for s in specs)}
