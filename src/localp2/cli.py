"""Command-line front end: dispatch, serialization, reproduction pipeline.

Complex numbers serialize as {"re": .., "im": ..} objects, matrices
row-major, rationals as {"num": .., "den": ..} strings; every subcommand's
JSON payload matches the schema of the same name under ``schemas/``, and an
error report matches ``schemas/error.json``.
Exit code 0 means no row of the emitted report was flagged.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import cohomology as coh
from . import mirror_geometry as geom
from . import mirror_map as mm
from . import picard_fuchs as pf
from . import specfun
from .errors import FitError, LocalP2Error
from .specfun import PrecisionConfig

SUBCOMMANDS = (
    "series", "continue", "monodromy", "periods", "transfer-matrix",
    "mirror-objects", "central-charges", "verify-appendix",
    "ktheory-table", "reproduce",
)

# the subcommands whose output the precision mode changes
_PRECISION_AWARE = ("verify-appendix", "reproduce")
# the subcommands that read --y
_MODULUS_AWARE = ("series", "continue", "periods", "transfer-matrix", "central-charges")

_DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings shared by all subcommands.

    ``precision_mode`` is "double" or "extended": ``dispatch`` takes it from
    ``--precision``, else from ``specfun.default_config()``, which reads
    ``LOCALP2_PRECISION`` and rejects an unknown mode.
    """

    precision_mode: str
    tolerance: float = _DEFAULT_TOL
    y_values: tuple = ()
    output_format: str = "json"
    out_path: str | None = None

    def __post_init__(self):
        if not (1e-12 <= self.tolerance <= 1e-3):
            raise LocalP2Error(
                f"tolerance must lie in [1e-12, 1e-3], got {self.tolerance:g}")
        object.__setattr__(self, "y_values",
                           tuple(complex(v) for v in self.y_values))

    def precision(self) -> PrecisionConfig:
        # PrecisionConfig accepts a narrower accuracy window than the CLI
        rel = min(self.tolerance, 1e-6)
        return PrecisionConfig(mode=self.precision_mode, target_rel_err=rel)

    def require_y(self) -> tuple:
        if not self.y_values:
            raise LocalP2Error("this subcommand needs at least one --y value")
        return self.y_values


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite real or 're,im' pair, got {text!r}")


def _cplx(v) -> dict:
    v = complex(v)
    return {"re": float(v.real), "im": float(v.imag)}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="localp2",
        description="Mirror correspondence for the canonical bundle of the "
                    "projective plane: solutions, periods, transfer matrix.")
    p.add_argument("command", choices=SUBCOMMANDS)
    p.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                   help="flagging tolerance (default %(default)g)")
    p.add_argument("--y", action="append", type=_parse_complex,
                   default=None, metavar="RE[,IM]",
                   help=f"modulus sample, repeatable; {', '.join(_MODULUS_AWARE)} only")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", choices=("double", "extended"), default=None,
                   help=f"closed-form identity precision; {' and '.join(_PRECISION_AWARE)} only")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (payload dict, flagged row count)
# ---------------------------------------------------------------------------


def _solution_payload(triples, tol) -> tuple[dict, int]:
    rows = []
    flagged = 0
    for t in triples:
        bad = bool(t.err_estimate > tol)
        flagged += bad
        rows.append({
            "y": _cplx(t.y), "w0": _cplx(t.w0), "w1": _cplx(t.w1),
            "w2": _cplx(t.w2), "err_estimate": float(t.err_estimate),
            "flagged": bad,
        })
    return {"rows": rows, "n_flagged": flagged}, flagged


def _cmd_series(cfg: RunConfig) -> tuple[dict, int]:
    ys = cfg.y_values or (0.02,)
    target = cfg.precision().target_rel_err
    return _solution_payload([pf.series_solutions(y, target) for y in ys], cfg.tolerance)


def _cmd_continue(cfg: RunConfig) -> tuple[dict, int]:
    ys = cfg.require_y()
    target = cfg.precision().target_rel_err
    return _solution_payload(
        [pf.continue_solutions(y, err_target=target) for y in ys], cfg.tolerance)


def _cmd_monodromy(cfg: RunConfig) -> tuple[dict, int]:
    m = pf.monodromy_around_origin()
    mat = np.array(m)
    n = mat - np.eye(3, dtype=int)
    unipotent = bool(not np.any(n @ n @ n))
    payload = {
        "matrix": [[int(v) for v in row] for row in m],
        "unipotent": unipotent,
        "flagged": not unipotent,
    }
    return payload, 0 if unipotent else 1


def _cmd_periods(cfg: RunConfig) -> tuple[dict, int]:
    ys = cfg.require_y()
    quad = cfg.precision()
    rows = []
    flagged = 0
    for y in ys:
        pv = geom.periods(y, quad)
        bad = bool(max(pv.err) > cfg.tolerance)
        flagged += bad
        rows.append({
            "y": _cplx(y),
            "I": [_cplx(v) for v in pv.as_vector()],
            "err": [float(e) for e in pv.err],
            "flagged": bad,
        })
    return {"rows": rows, "n_flagged": flagged}, flagged


def _cmd_transfer_matrix(cfg: RunConfig) -> tuple[dict, int]:
    ys = cfg.y_values or mm.FIT_MODULI
    tm = mm.fit_transfer_matrix(ys, cfg.precision())
    # the fit checks the pinned matrix
    bad = tm.entries != mm.TRANSFER_MATRIX
    payload = {
        "entries": [list(r) for r in tm.entries],
        "residual": tm.residual,
        "pre_round_dev": tm.pre_round_dev,
        "determinant": tm.determinant(),
        "first_column": list(tm.column(0)),
        "flagged": bad,
    }
    return payload, int(bad)


def _kclass_payload(k: coh.KClass) -> dict:
    lb = coh.basis_change(k, coh.Basis.LINE_BUNDLE)
    return {"basis": k.basis.value, "coords": list(k.coords),
            "line_bundle_coords": list(lb.coords)}


def _cmd_mirror_objects(cfg: RunConfig) -> tuple[dict, int]:
    ns = mm.mirror_objects()
    ok = mm.ako_twist_check()
    payload = {
        "objects": [
            {"name": f"N_{i}", **_kclass_payload(n)} for i, n in enumerate(ns)
        ],
        "twist_check": bool(ok),
    }
    return payload, 0 if ok else 1


def _cmd_central_charges(cfg: RunConfig) -> tuple[dict, int]:
    # every modulus is checked before any period vector is computed
    ys = [geom._period_modulus(y) for y in cfg.y_values or (1e3,)]
    quad = cfg.precision()
    rows = []
    flagged = 0
    for y in ys:
        for r in mm.central_charge_report(geom.periods(y, quad)):
            flagged += r["flagged"]
            rows.append({
                "y": _cplx(y), "brane": r["brane"],
                "charge_analytic": _cplx(r["charge_analytic"]),
                "charge_periods": _cplx(r["charge_periods"]),
                "abs_dev": float(r["abs_dev"]),
                "tolerance": float(r["tolerance"]),
                "flagged": bool(r["flagged"]),
            })
    return {"rows": rows, "n_flagged": flagged}, flagged


def _cmd_verify_appendix(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    flagged = 0
    for r in specfun.closed_form_checks(cfg.precision()):
        bad = bool(r["rel_err"] > cfg.tolerance)
        flagged += bad
        rows.append({
            "name": r["name"],
            "computed": _cplx(r["computed"]),
            "closed_form": _cplx(r["closed_form"]),
            "rel_err": float(r["rel_err"]),
            "flagged": bad,
        })
    return {"rows": rows, "n_flagged": flagged}, flagged


def _cmd_ktheory_table(cfg: RunConfig) -> tuple[dict, int]:
    duality = coh.pairing_table()
    ident = all(duality[i][j] == (1 if i == j else 0)
                for i in range(3) for j in range(3))
    payload = {
        "brane_charge_duality": duality,
        "hom_dimensions": mm.hom_dimensions(),
        "mirror_objects": [
            {"name": f"N_{i}", **_kclass_payload(n)}
            for i, n in enumerate(mm.mirror_objects())
        ],
        "duality_is_identity": bool(ident),
    }
    return payload, 0 if ident else 1


def _cmd_reproduce(cfg: RunConfig) -> tuple[dict, int]:
    """Full pipeline: appendix identities, solution cross-checks, periods,
    transfer fit, central charges.  Exit 0 only if every stage passes; a
    fit that raises fails its stage, and the payload's matrix is null."""
    stages = []

    def stage(name, ok, detail):
        stages.append({"name": name, "pass": bool(ok), "detail": detail})

    checks = specfun.closed_form_checks(cfg.precision())
    worst = max(r["rel_err"] for r in checks)
    stage("appendix_closed_forms", worst <= 1e-10, f"worst rel err {worst:.3e}")

    devs = []
    # stay off the negative real axis, where the contour representation cuts
    for y in (0.02, -0.01 + 0.017j, 0.012 + 0.015j):
        t = pf.chf_expand(y)
        # contour route: the plain and digamma-weighted sums in the printed form
        _, (mb_w1,), (mb_w2,) = pf._printed_rows(
            cmath.log(y), [pf.mellin_barnes(y, "plain")], [pf.mellin_barnes(y, "digamma")])
        for w1, w2 in ((pf.series_w1(y), pf.series_w2(y)), (mb_w1, mb_w2)):
            devs += [abs(t.w1 - w1), abs(t.w2 - w2)]
    stage("solution_cross_checks", max(devs) <= 1e-9,
          f"worst pairwise dev {max(devs):.3e}")

    resid = pf.annihilation_residual((0.01, -0.015, 0.02j, 0.5, -2.0 + 2.0j))
    stage("annihilator", resid <= 1e-10, f"residual {resid:.3e}")

    quad = cfg.precision()
    # each period vector is computed once, here, and reused by the fit and
    # the central charges
    period_rows = []
    ok_p = True
    detail_p = []
    for y in mm.FIT_MODULI:
        pv = geom.periods(y, quad)
        period_rows.append(pv)
        gap = abs(pv.alternating_sum() - 1.0)
        bound = 10.0 * max(sum(pv.err), 1e-15)
        ok_p &= gap <= bound
        detail_p.append(f"y={y:g}: sum gap {gap:.2e}, bound {bound:.2e}")
    stage("periods", ok_p, "; ".join(detail_p))

    # the constant (-1)^k/3 the periods use, against its own quadrature
    ray_dev = max(abs(c - (-1.0) ** k / 3.0) * 3.0
                  for k, c in enumerate(geom.critical_ray_constants()))
    stage("critical_rays", ray_dev <= 1e-14,
          f"critical-ray rel dev {ray_dev:.2e}")

    try:
        tm = mm.fit_transfer_matrix(period_rows)
        stage("transfer_matrix", tm.entries == mm.TRANSFER_MATRIX,
              f"entries {tm.entries}, residual {tm.residual:.3e}")
    except FitError as exc:
        tm = None
        stage("transfer_matrix", False, str(exc))

    # the periods against the large-|y| series through T, at every period vector
    cc = [r for pv in period_rows for r in mm.central_charge_report(pv)]
    n_flagged = sum(r["flagged"] for r in cc)
    worst_cc = max(r["abs_dev"] / r["tolerance"] for r in cc)
    stage("central_charges", n_flagged == 0,
          f"{n_flagged} flagged rows, worst dev/tolerance {worst_cc:.2e}")

    ktab = mm.hom_dimensions()
    twist = mm.ako_twist_check()
    stage("ktheory", twist and ktab == [[1, 3, 3], [-3, 1, 3], [-3, -3, 1]],
          f"twist {twist}, hom table {ktab}")

    all_pass = all(s["pass"] for s in stages)
    payload = {"stages": stages, "all_pass": all_pass,
               "transfer_matrix": [list(r) for r in tm.entries] if tm else None}
    return payload, 0 if all_pass else 1


_BODIES = {
    "series": _cmd_series,
    "continue": _cmd_continue,
    "monodromy": _cmd_monodromy,
    "periods": _cmd_periods,
    "transfer-matrix": _cmd_transfer_matrix,
    "mirror-objects": _cmd_mirror_objects,
    "central-charges": _cmd_central_charges,
    "verify-appendix": _cmd_verify_appendix,
    "ktheory-table": _cmd_ktheory_table,
    "reproduce": _cmd_reproduce,
}

_CSV_ABLE = {"series", "continue", "periods", "central-charges",
             "verify-appendix"}


def _csv_emit(command: str, payload: dict) -> str:
    out = io.StringIO()
    rows = payload["rows"]
    if command in ("series", "continue"):
        out.write("y_re,y_im,abs_w0,abs_w1,abs_w2,err_estimate\n")
        for r in rows:
            w = [math.hypot(r[f"w{i}"]["re"], r[f"w{i}"]["im"]) for i in range(3)]
            out.write(f'{r["y"]["re"]!r},{r["y"]["im"]!r},'
                      f'{w[0]!r},{w[1]!r},{w[2]!r},{r["err_estimate"]!r}\n')
    elif command == "periods":
        out.write("y_re,y_im,k,I_re,I_im,err\n")
        for r in rows:
            for k in range(3):
                out.write(f'{r["y"]["re"]!r},{r["y"]["im"]!r},{k},'
                          f'{r["I"][k]["re"]!r},{r["I"][k]["im"]!r},'
                          f'{r["err"][k]!r}\n')
    elif command == "central-charges":
        out.write("y_re,y_im,brane,analytic_re,analytic_im,"
                  "periods_re,periods_im,abs_dev,flagged\n")
        for r in rows:
            out.write(f'{r["y"]["re"]!r},{r["y"]["im"]!r},{r["brane"]},'
                      f'{r["charge_analytic"]["re"]!r},'
                      f'{r["charge_analytic"]["im"]!r},'
                      f'{r["charge_periods"]["re"]!r},'
                      f'{r["charge_periods"]["im"]!r},'
                      f'{r["abs_dev"]!r},{int(r["flagged"])}\n')
    else:
        out.write("name,rel_err,flagged\n")
        for r in rows:
            out.write(f'{r["name"]},{r["rel_err"]!r},{int(r["flagged"])}\n')
    return out.getvalue()


def _json_text(obj) -> str:
    """Strict JSON: a non-finite number is an error, never ``NaN``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise LocalP2Error(f"report holds a non-finite number: {exc}") from None


def _write(text: str, out_path: str | None) -> bool:
    """Write ``text`` to ``out_path``, else to stdout; an OSError on
    ``out_path`` propagates.  False when stdout cannot be written (its reader
    has closed the pipe): stdout is then pointed at os.devnull, so the
    interpreter's flush at exit cannot fail again, and nothing is retried
    there."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        return True
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _report_error(command: str, exc: Exception, out_path: str | None) -> int:
    """Write the JSON error report (schema ``error``) where the report would
    have gone, so no earlier run's report is left at ``out_path``; to stdout
    when ``out_path`` cannot be written.  Exit 1."""
    text = _json_text({"error": type(exc).__name__,
                       "context": {"command": command, "message": str(exc)}})
    try:
        _write(text, out_path)
    except OSError:
        _write(text, None)
    return 1


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
        if ns.precision and ns.command not in _PRECISION_AWARE:
            parser.error(f"--precision applies to {' and '.join(_PRECISION_AWARE)} only")
        if ns.y and ns.command not in _MODULUS_AWARE:
            parser.error(f"--y applies to {', '.join(_MODULUS_AWARE)} only")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(
            tolerance=ns.tol,
            y_values=tuple(ns.y) if ns.y else (),
            output_format=ns.format,
            precision_mode=ns.precision or specfun.default_config().mode,
            out_path=ns.out,
        )
        if cfg.output_format == "csv" and ns.command not in _CSV_ABLE:
            raise LocalP2Error(
                f"subcommand {ns.command} has no CSV form; use --format json")
        payload, flagged = _BODIES[ns.command](cfg)
        if cfg.output_format == "csv":
            text = _csv_emit(ns.command, payload)
        else:
            text = _json_text(payload)
    except LocalP2Error as exc:
        return _report_error(ns.command, exc, ns.out)
    try:
        written = _write(text, cfg.out_path)
    except OSError as exc:
        return _report_error(ns.command, exc, None)
    return 0 if written and flagged == 0 else 1


def main() -> None:
    """Console entry.  The modules imported by now live until exit, so they
    are frozen out of the cyclic collector: neither the run's collections
    nor the one at interpreter shutdown walk them again.  ``dispatch``
    leaves the collector as it finds it, for library callers."""
    gc.freeze()
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
