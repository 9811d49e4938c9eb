"""Command-line front end: dispatch, serialization, reproduction pipeline.

``dispatch`` checks ``--tol`` against [1e-12, 1e-3] and calls the
subcommand's body as ``body(tol, ys)``: the flagging tolerance, and the
``--y`` moduli as a tuple of complex numbers, empty when none is given.
Every subcommand runs in double precision.
Subcommand bodies return plain values; ``_json_text`` and ``_csv_emit``
write them.  Complex numbers, numpy's included, serialize as
{"re": .., "im": ..} objects, matrices row-major; every subcommand's JSON
payload matches the schema of the same name under ``schemas/``, and an
error report matches ``schemas/error.json``.
Exit code 0 means no row of the emitted report was flagged.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys

import numpy as np

from . import cohomology as coh
from . import mirror_geometry as geom
from . import mirror_map as mm
from . import picard_fuchs as pf
from . import specfun
from .errors import FitError, LocalP2Error

SUBCOMMANDS = (
    "series", "continue", "monodromy", "periods", "transfer-matrix",
    "mirror-objects", "central-charges", "verify-appendix",
    "ktheory-table", "reproduce",
)

# the subcommands that read --y
_MODULUS_AWARE = ("series", "continue", "periods", "transfer-matrix", "central-charges")

_DEFAULT_TOL = 1e-6


def _require_y(ys: tuple) -> None:
    if not ys:
        raise LocalP2Error("this subcommand needs at least one --y value")


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


# the options, each taking one value
_OPTIONS = (
    ("--tol", dict(type=float, default=_DEFAULT_TOL,
                   help="flagging tolerance (default %(default)g)")),
    ("--y", dict(action="append", type=_parse_complex, default=None, metavar="RE[,IM]",
                 help=f"modulus sample, repeatable; {', '.join(_MODULUS_AWARE)} only")),
    ("--format", dict(choices=("json", "csv"), default="json")),
    ("--out", dict(default=None, metavar="PATH",
                   help="write the report here instead of stdout")),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="localp2",
        description="Mirror correspondence for the canonical bundle of the "
                    "projective plane: solutions, periods, transfer matrix.")
    p.add_argument("command", choices=SUBCOMMANDS)
    for flag, spec in _OPTIONS:
        p.add_argument(flag, **spec)
    return p


class _Token(str):
    """An argv string as an object of its own, found again by identity."""


def _subcommand_first(argv: list) -> list:
    """argv with the subcommand moved to the front.  argparse cannot tell
    the value of an unknown flag from a positional, so before the
    subcommand (``--bogus 1 reproduce``) it would read the value as the
    subcommand; after it, both are the unrecognized arguments they are.
    The subcommand is the first token that names one once the options and
    their values are set aside, found by a parse that checks no value;
    without one, argv stays as it is."""
    if not argv or argv[0] in SUBCOMMANDS:
        return argv
    scan = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    scan.add_argument("-h", "--help", action="store_true")
    for flag, _ in _OPTIONS:
        scan.add_argument(flag)
    tokens = [_Token(token) for token in argv]
    try:
        rest = scan.parse_known_args(tokens)[1]
    except argparse.ArgumentError:
        return argv
    for token in rest:
        if token in SUBCOMMANDS:
            i = next(i for i, t in enumerate(tokens) if t is token)
            return [argv[i], *argv[:i], *argv[i + 1:]]
    return argv


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (payload dict, flagged row count)
# ---------------------------------------------------------------------------


def _rows_payload(rows: list) -> tuple[dict, int]:
    """The report of a row-shaped subcommand, and its count of the rows
    whose ``flagged`` is set."""
    n_flagged = sum(r["flagged"] for r in rows)
    return {"rows": rows, "n_flagged": n_flagged}, n_flagged


def _solution_payload(triples, tol) -> tuple[dict, int]:
    return _rows_payload([{**t._asdict(), "flagged": t.err_estimate > tol}
                          for t in triples])


def _cmd_series(tol: float, ys: tuple) -> tuple[dict, int]:
    return _solution_payload([pf.series_solutions(y, min(tol, _DEFAULT_TOL))
                              for y in ys or (0.02,)], tol)


def _cmd_continue(tol: float, ys: tuple) -> tuple[dict, int]:
    _require_y(ys)
    return _solution_payload(
        [pf.continue_solutions(y, err_target=min(tol, _DEFAULT_TOL)) for y in ys], tol)


def _cmd_monodromy(tol: float, ys: tuple) -> tuple[dict, int]:
    m = pf.monodromy_around_origin()
    n = np.array(m) - np.eye(3, dtype=int)
    unipotent = not np.any(n @ n @ n)
    payload = {"matrix": m, "unipotent": unipotent, "flagged": not unipotent}
    return payload, 0 if unipotent else 1


def _cmd_periods(tol: float, ys: tuple) -> tuple[dict, int]:
    _require_y(ys)
    return _rows_payload([{"y": pv.y, "I": pv.as_vector(), "err": pv.err,
                           "flagged": max(pv.err) > tol}
                          for pv in (geom.periods(y) for y in ys)])


def _cmd_transfer_matrix(tol: float, ys: tuple) -> tuple[dict, int]:
    tm = mm.fit_transfer_matrix(ys or mm.FIT_MODULI)
    # the fit checks the pinned matrix
    bad = tm.entries != mm.TRANSFER_MATRIX
    payload = {
        "entries": tm.entries,
        "residual": tm.residual,
        "pre_round_dev": tm.pre_round_dev,
        "determinant": tm.determinant(),
        "first_column": tm.column(0),
        "flagged": bad,
    }
    return payload, int(bad)


def _mirror_object_rows() -> list:
    """The mirror objects N_k in their basis and in line-bundle coordinates."""
    return [{"name": f"N_{i}", "basis": n.basis.value, "coords": n.coords,
             "line_bundle_coords": coh.basis_change(n, coh.Basis.LINE_BUNDLE).coords}
            for i, n in enumerate(mm.mirror_objects())]


def _cmd_mirror_objects(tol: float, ys: tuple) -> tuple[dict, int]:
    ok = mm.ako_twist_check()
    payload = {"objects": _mirror_object_rows(), "twist_check": ok}
    return payload, 0 if ok else 1


def _cmd_central_charges(tol: float, ys: tuple) -> tuple[dict, int]:
    # every modulus is checked before any period vector is computed
    ys = [geom._period_modulus(y) for y in ys or (1e3,)]
    return _rows_payload([{"y": y, **r} for y in ys
                          for r in mm.central_charge_report(geom.periods(y))])


def _cmd_verify_appendix(tol: float, ys: tuple) -> tuple[dict, int]:
    return _rows_payload([{**r, "flagged": r["rel_err"] > tol}
                          for r in specfun.closed_form_checks()])


def _cmd_ktheory_table(tol: float, ys: tuple) -> tuple[dict, int]:
    duality = coh.pairing_table()
    ident = all(duality[i][j] == (1 if i == j else 0)
                for i in range(3) for j in range(3))
    payload = {
        "brane_charge_duality": duality,
        "hom_dimensions": mm.hom_dimensions(),
        "mirror_objects": _mirror_object_rows(),
        "duality_is_identity": ident,
    }
    return payload, 0 if ident else 1


def _cmd_reproduce(tol: float, ys: tuple) -> tuple[dict, int]:
    """Full pipeline: appendix identities, solution cross-checks, periods,
    transfer fit, central charges.  Exit 0 only if every stage passes; a
    fit that raises fails its stage, and the payload's matrix is null."""
    stages = []

    def stage(name, ok, detail):
        stages.append({"name": name, "pass": ok, "detail": detail})

    checks = specfun.closed_form_checks()
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

    # each period vector is computed once, here, and reused by the fit and
    # the central charges
    period_rows = []
    ok_p = True
    detail_p = []
    for y in mm.FIT_MODULI:
        pv = geom.periods(y)
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
    _, n_flagged = _rows_payload(cc)
    worst_cc = max(r["abs_dev"] / r["tolerance"] for r in cc)
    stage("central_charges", n_flagged == 0,
          f"{n_flagged} flagged rows, worst dev/tolerance {worst_cc:.2e}")

    ktab = mm.hom_dimensions()
    twist = mm.ako_twist_check()
    stage("ktheory", twist and ktab == [[1, 3, 3], [-3, 1, 3], [-3, -3, 1]],
          f"twist {twist}, hom table {ktab}")

    all_pass = all(s["pass"] for s in stages)
    payload = {"stages": stages, "all_pass": all_pass,
               "transfer_matrix": tm.entries if tm else None}
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
    """One line per row (per cycle for periods); each number in its
    shortest round-trip form."""
    rows = payload["rows"]
    if command in ("series", "continue"):
        head = "y_re,y_im,abs_w0,abs_w1,abs_w2,err_estimate"
        lines = [(r["y"].real, r["y"].imag,
                  *(math.hypot(r[w].real, r[w].imag) for w in ("w0", "w1", "w2")),
                  r["err_estimate"]) for r in rows]
    elif command == "periods":
        head = "y_re,y_im,k,I_re,I_im,err"
        lines = [(r["y"].real, r["y"].imag, k, z.real, z.imag, r["err"][k])
                 for r in rows for k, z in enumerate(r["I"])]
    elif command == "central-charges":
        head = "y_re,y_im,brane,analytic_re,analytic_im,periods_re,periods_im,abs_dev,flagged"
        lines = [(r["y"].real, r["y"].imag, r["brane"],
                  r["charge_analytic"].real, r["charge_analytic"].imag,
                  r["charge_periods"].real, r["charge_periods"].imag,
                  r["abs_dev"], int(r["flagged"])) for r in rows]
    else:
        head = "name,rel_err,flagged"
        lines = [(r["name"], r["rel_err"], int(r["flagged"])) for r in rows]
    return head + "\n" + "".join(",".join(map(str, line)) + "\n" for line in lines)


def _json_default(value) -> dict:
    """The one wire form of a complex number, numpy's included; any other
    type json cannot write is an error."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"{type(value).__name__} has no JSON form")


def _json_text(obj) -> str:
    """Strict JSON: a non-finite number is an error, never ``NaN``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default) + "\n"
    except ValueError as exc:
        raise LocalP2Error(f"report holds a non-finite number: {exc}") from None


def _write(text: str, out_path: str | None) -> bool:
    """Write ``text`` to ``out_path`` when one is given, else to stdout; an
    OSError on ``out_path`` propagates, so an empty path fails as a missing
    file does.  False when stdout cannot be written (its reader has closed
    the pipe): stdout is then pointed at os.devnull, so the interpreter's
    flush at exit cannot fail again, and nothing is retried there."""
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
        return True
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
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
        ns = parser.parse_args(_subcommand_first(list(argv)))
        if ns.y and ns.command not in _MODULUS_AWARE:
            parser.error(f"--y applies to {', '.join(_MODULUS_AWARE)} only")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not (1e-12 <= ns.tol <= 1e-3):
            raise LocalP2Error(f"tolerance must lie in [1e-12, 1e-3], got {ns.tol:g}")
        if ns.format == "csv" and ns.command not in _CSV_ABLE:
            raise LocalP2Error(
                f"subcommand {ns.command} has no CSV form; use --format json")
        payload, flagged = _BODIES[ns.command](ns.tol, tuple(ns.y or ()))
        if ns.format == "csv":
            text = _csv_emit(ns.command, payload)
        else:
            text = _json_text(payload)
    except LocalP2Error as exc:
        return _report_error(ns.command, exc, ns.out)
    try:
        written = _write(text, ns.out)
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
