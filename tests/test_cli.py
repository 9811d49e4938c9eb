"""End-to-end command dispatch: schemas, exit codes, CSV, determinism."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import localp2
import localp2.cli as cli
import localp2.mirror_geometry as geom
import localp2.mirror_map as mm
import localp2.picard_fuchs as pf
import localp2.specfun as sf
from localp2.cli import (SUBCOMMANDS, _build_parser, _json_text, _parse_complex,
                         dispatch, main)
from localp2.errors import LocalP2Error

# minimal clean invocation per subcommand
CLEAN_ARGS = {
    "series": [],
    "continue": ["--y", "0.02"],
    "monodromy": [],
    "periods": ["--y", "1000"],
    "transfer-matrix": [],
    "mirror-objects": [],
    "central-charges": ["--y", "1000"],
    "verify-appendix": [],
    "ktheory-table": [],
    "reproduce": [],
}


def _schema(command):
    name = command.replace("-", "_") + ".json"
    path = resources.files("localp2").joinpath("schemas", name)
    return json.loads(path.read_text())


def _run_json(tmp_path, command, extra=()):
    out = tmp_path / f"{command}.json"
    code = dispatch([command, *CLEAN_ARGS[command], *extra, "--out", str(out)])
    return code, json.loads(out.read_text())


# what "nothing flagged" looks like per payload shape
CLEAN_MARKER = {
    "monodromy": ("flagged", False),
    "transfer-matrix": ("flagged", False),
    "mirror-objects": ("twist_check", True),
    "ktheory-table": ("duality_is_identity", True),
    "reproduce": ("all_pass", True),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_clean_run_and_schema(tmp_path, command):
    code, payload = _run_json(tmp_path, command)
    assert code == 0, payload
    jsonschema.validate(payload, _schema(command))
    key, value = CLEAN_MARKER.get(command, ("n_flagged", 0))
    assert payload[key] == value


def test_no_arguments_exits_two(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_y_value_exits_two(capsys):
    assert dispatch(["series", "--y", "abc"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e3,nan", "1e400"])
def test_non_finite_y_exits_two(capsys, value):
    assert dispatch(["periods", f"--y={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_json_output_is_strict():
    assert _json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    with pytest.raises(LocalP2Error):
        _json_text({"x": float("inf")})


def test_periods_at_tightest_tolerance(tmp_path):
    code, payload = _run_json(tmp_path, "periods", ["--tol", "1e-12"])
    assert code == 0
    assert payload["n_flagged"] == 0
    assert max(payload["rows"][0]["err"]) <= 1e-12


def test_continue_at_tightest_tolerance(tmp_path):
    # --tol sets the transport accuracy, so the rows meet it instead of
    # being flagged against a fixed 1e-8 estimate
    code, payload = _run_json(tmp_path, "continue",
                              ["--y", "1e4", "--y=-3e5,1", "--tol", "1e-12"])
    assert code == 0
    assert payload["n_flagged"] == 0
    assert all(row["err_estimate"] <= 1e-12 for row in payload["rows"])


@pytest.mark.parametrize("extra, tol", [(["--y", "0.036"], 1e-6),
                                        (["--y", "0.035", "--tol", "1e-12"], 1e-12)])
def test_series_meets_the_tolerance_near_the_rim(tmp_path, extra, tol):
    # 80 terms leave 1.5e-4 at y = 0.036 and 8.0e-6 at y = 0.035; --tol sets
    # the truncation order instead
    code, payload = _run_json(tmp_path, "series", extra)
    assert code == 0
    assert payload["n_flagged"] == 0
    assert all(row["err_estimate"] <= tol for row in payload["rows"])


def test_series_answers_on_both_sides_of_the_annulus(tmp_path, capsys):
    # inside the disc and past the outer margin |y| = 1/(729 * 0.02)
    code, payload = _run_json(tmp_path, "series",
                              ["--y", "0.01", "--y", "0.5", "--y", "1e30", "--tol", "1e-12"])
    assert code == 0
    assert all(row["err_estimate"] <= 1e-12 for row in payload["rows"])
    # between the disc and the margin: the JSON DomainError
    for y in ("0.05", "0,-0.068"):
        assert dispatch(["series", "--y", y]) == 1
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, _schema("error"))
        assert report["error"] == "DomainError"


def test_continue_far_out_gets_w1_to_the_tolerance(tmp_path):
    # w1 ~ 0.23 |y|^(-1/3) is subdominant at y = infinity: against the
    # large-|y| series summed at 30 digits (mpmath, frozen here) each row
    # meets --tol relative, or is flagged
    oracle = {1e6: 0.0023237498202608397j, 1e22: 1.0792860480219191e-08j,
              1e30: 2.3252513092801035e-11j}
    extra = [a for y in oracle for a in ("--y", repr(y))]
    out = tmp_path / "continue.json"
    for tol in ("1e-6", "1e-12"):
        code = dispatch(["continue", *extra, "--tol", tol, "--out", str(out)])
        for row in json.loads(out.read_text())["rows"]:
            want = oracle[row["y"]["re"]]
            w1 = complex(row["w1"]["re"], row["w1"]["im"])
            assert row["flagged"] or abs(w1 - want) <= float(tol) * abs(want), (row, tol)
        assert code == 0


def test_double_precision_solution_runs_load_no_mpmath():
    code = ("import os, sys; from localp2.cli import dispatch; "
            "print(dispatch(['continue', '--y', '1e30', '--y=-0.05,0.001', '--y', '0,0.04', "
            "'--tol', '1e-12', '--out', os.devnull]), "
            "dispatch(['series', '--y', '0.5', '--y', '1e30', '--tol', '1e-12', "
            "'--out', os.devnull]), 'mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_package_env())
    assert out.stdout.split() == ["0", "0", "False"]


def test_reproduce_critical_ray_stage(tmp_path):
    code, payload = _run_json(tmp_path, "reproduce")
    assert code == 0
    names = [st["name"] for st in payload["stages"]]
    assert names.index("critical_rays") == names.index("periods") + 1
    stage = payload["stages"][names.index("critical_rays")]
    assert stage["pass"]
    assert float(stage["detail"].rsplit(" ", 1)[1]) <= 1e-14


def test_a_fit_that_raises_fails_its_stage_and_keeps_the_others(monkeypatch, capsys):
    # one cycle sign swapped: the fit raises FitError (not unimodular), and
    # reproduce still prints every stage's verdict, with a null matrix
    monkeypatch.setitem(geom._CYCLE_SEGMENTS, 0, ((+1, 0), (-1, 2)))
    assert dispatch(["reproduce"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("reproduce"))
    assert [st["name"] for st in payload["stages"]] == [
        "appendix_closed_forms", "solution_cross_checks", "annihilator", "periods",
        "critical_rays", "transfer_matrix", "central_charges", "ktheory"]
    failing = {st["name"] for st in payload["stages"] if not st["pass"]}
    assert {"periods", "transfer_matrix"} <= failing
    stages = {st["name"]: st for st in payload["stages"]}
    assert "unimodular" in stages["transfer_matrix"]["detail"]
    assert payload["transfer_matrix"] is None and not payload["all_pass"]


def test_help_names_the_subcommands_each_flag_applies_to(capsys):
    from localp2.cli import _MODULUS_AWARE
    assert dispatch(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"--y RE\[,IM\] [^;]*; (.*?) only", text).group(1)
    assert listed.split(", ") == list(_MODULUS_AWARE), listed


def test_module_error_reports_json(capsys):
    # |y| <= 27 is outside the period contour domain
    code = dispatch(["periods", "--y", "5"])
    captured = capsys.readouterr().out
    assert code == 1
    report = json.loads(captured)
    assert report["error"] == "DomainError"
    assert report["context"]["command"] == "periods"
    assert "27" in report["context"]["message"]


@pytest.mark.parametrize("moduli", [["5"], ["1e3", "5"], ["1e3", "0,20"]])
def test_central_charges_refuse_a_bad_modulus_before_any_period(moduli, capsys, monkeypatch):
    # each modulus needs a period vector; a modulus outside the periods'
    # domain, anywhere in the request, is refused before any is computed
    calls = []
    periods = geom.periods

    def counting(*args, **kwargs):
        calls.append(args)
        return periods(*args, **kwargs)

    monkeypatch.setattr(geom, "periods", counting)
    argv = ["central-charges"] + [f"--y={y}" for y in moduli]
    assert dispatch(argv) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("error"))
    assert report["error"] == "DomainError"
    assert report["context"]["command"] == "central-charges"
    assert "27" in report["context"]["message"]
    assert calls == []


@pytest.mark.parametrize("moduli, computed", [([], [1e3]), (["1e3", "5e3"], [1e3, 5e3])])
def test_central_charges_compute_one_period_vector_per_modulus(moduli, computed, tmp_path,
                                                               monkeypatch):
    # the charges map the periods through the pinned matrix: no fit, so no
    # period vector beyond the requested moduli
    calls = []
    periods = geom.periods

    def counting(y, quad=None):
        calls.append(y)
        return periods(y, quad)

    monkeypatch.setattr(geom, "periods", counting)
    out = tmp_path / "cc.json"
    argv = ["central-charges", *(f"--y={y}" for y in moduli), "--out", str(out)]
    assert dispatch(argv) == 0
    assert calls == computed
    assert len(json.loads(out.read_text())["rows"]) == 3 * len(computed)


def test_a_pinned_matrix_the_fit_contradicts_fails_every_check(tmp_path, monkeypatch):
    # unimodular, but not the matrix the periods fit
    monkeypatch.setattr(mm, "TRANSFER_MATRIX", ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    code, payload = _run_json(tmp_path, "transfer-matrix")
    assert (code, payload["flagged"]) == (1, True)
    assert payload["entries"] == [[1, 0, 0], [-1, 1, -1], [1, 1, 0]]
    jsonschema.validate(payload, _schema("transfer-matrix"))
    code, payload = _run_json(tmp_path, "reproduce")
    stages = {st["name"]: st for st in payload["stages"]}
    assert (code, payload["all_pass"]) == (1, False)
    assert not stages["transfer_matrix"]["pass"]
    assert not stages["central_charges"]["pass"]
    assert not stages["central_charges"]["detail"].startswith("0 flagged")
    # the payload reports the fit, not the pin
    assert payload["transfer_matrix"] == [[1, 0, 0], [-1, 1, -1], [1, 1, 0]]
    code, payload = _run_json(tmp_path, "central-charges")
    assert code == 1 and payload["n_flagged"] > 0


def test_error_report_replaces_an_earlier_out_file(tmp_path, capsys):
    # a failed run must not leave the previous run's report at --out
    out = tmp_path / "r.json"
    assert dispatch(["periods", "--y", "1000", "--out", str(out)]) == 0
    assert dispatch(["periods", "--y", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema("error"))
    assert report["error"] == "DomainError"
    assert "27" in report["context"]["message"]


def test_the_environment_picks_no_arithmetic(monkeypatch, capsys):
    # an explicit PrecisionConfig mode is the only switch: a precision
    # variable in the environment, valid or not, changes nothing
    def observed():
        runs = [(dispatch([command]), capsys.readouterr())
                for command in ("monodromy", "verify-appendix")]
        return sf.PrecisionConfig(), sf.default_config(), sf.closed_form_checks(), runs

    monkeypatch.delenv("LOCALP2_PRECISION", raising=False)
    want = observed()
    assert want[0].mode == "double" and [code for code, _ in want[3]] == [0, 0]
    for value in ("extended", "bogus"):
        monkeypatch.setenv("LOCALP2_PRECISION", value)
        assert observed() == want, value


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_precision_flag_is_a_usage_error_on_every_subcommand(command, capsys):
    # every subcommand runs in double precision; the flag is no option
    for flag in (["--precision=double"], ["--precision", "extended"]):
        assert dispatch([command, *CLEAN_ARGS[command], *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--precision" in captured.err


@pytest.mark.parametrize("flag", [["--bogus", "1"], ["--precision", "extended"]])
def test_an_unknown_flag_before_the_subcommand_is_the_usage_error_it_is_after(flag, capsys):
    # before the subcommand the flag's value was read as the subcommand
    # ("invalid choice: '1'"); on either side the error names both
    errors = []
    for argv in ([*flag, "reproduce"], ["reproduce", *flag]):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert f"error: unrecognized arguments: {' '.join(flag)}" in errors[0]


def test_options_before_the_subcommand_read_as_after_it(tmp_path, monkeypatch, capsys):
    # a value that names a subcommand stays the value of its option
    monkeypatch.chdir(tmp_path)
    runs = []
    for argv in (["--tol", "1e-8", "--y", "0.01", "--y=0.02,0.01", "series"],
                 ["series", "--tol", "1e-8", "--y", "0.01", "--y=0.02,0.01"],
                 ["--y", "0.01", "series", "--tol", "1e-8", "--y=0.02,0.01"]):
        runs.append((dispatch(argv), capsys.readouterr()))
    assert runs[0][0] == 0 and runs[1:] == runs[:1] * 2
    assert dispatch(["--out", "reproduce", "monodromy"]) == 0
    assert capsys.readouterr().out == ""
    assert dispatch(["monodromy"]) == 0
    assert (tmp_path / "reproduce").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["monodromy", "mirror-objects", "verify-appendix",
                                     "ktheory-table", "reproduce"])
def test_modulus_flag_is_a_usage_error_where_no_modulus_is_read(command, capsys):
    # these subcommands read no modulus; the flag was accepted and ignored
    for value in ("1", "1e3", "0.02,0.01"):
        assert dispatch([command, f"--y={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--y" in captured.err


@pytest.mark.parametrize("tol", ["1e-13", "9.9e-13", "1.01e-3", "1", "nan"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_tolerance_validation(command, tol, capsys):
    # checked before any body, so continue and periods need no --y here
    assert dispatch([command, "--tol", tol]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("error"))
    assert report["error"] == "LocalP2Error"
    assert "tolerance must lie in" in report["context"]["message"]


@pytest.mark.parametrize("tol", ["1e-12", "1e-3"])
def test_the_ends_of_the_tolerance_window_are_accepted(tol, capsys):
    for command in ("series", "monodromy"):
        assert dispatch([command, "--tol", tol]) == 0, command
        assert "error" not in json.loads(capsys.readouterr().out)


def test_the_tolerance_is_checked_before_the_csv_refusal(capsys):
    assert dispatch(["monodromy", "--tol", "1", "--format", "csv"]) == 1
    assert "tolerance must lie in" in json.loads(capsys.readouterr().out)["context"]["message"]


def test_a_tolerance_outside_the_window_runs_no_body(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("periods computed at a refused tolerance")

    monkeypatch.setattr(geom, "periods", refuse)
    assert dispatch(["periods", "--y", "1e3", "--tol", "1"]) == 1
    assert "tolerance must lie in" in json.loads(capsys.readouterr().out)["context"]["message"]


def test_missing_y_is_reported(capsys):
    code = dispatch(["continue"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "--y" in report["context"]["message"]


def test_negative_real_y_equals_form(tmp_path):
    assert _parse_complex("-0.5,0.5") == complex(-0.5, 0.5)
    assert _parse_complex("0.25") == complex(0.25, 0.0)
    out = tmp_path / "c.json"
    code = dispatch(["continue", "--y=-0.5,0.5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["y"] == {"re": -0.5, "im": 0.5}


def test_csv_rejected_for_structured_reports(capsys):
    code = dispatch(["monodromy", "--format", "csv"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "CSV" in report["context"]["message"]


def test_series_csv_shape(tmp_path):
    out = tmp_path / "s.csv"
    code = dispatch(["series", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y_re,y_im,abs_w0,abs_w1,abs_w2,err_estimate"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 6


def test_periods_csv_shape(tmp_path):
    out = tmp_path / "p.csv"
    code = dispatch(["periods", "--y", "1000", "--format", "csv",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y_re,y_im,k,I_re,I_im,err"
    assert len(lines) == 4
    assert [ln.split(",")[2] for ln in lines[1:]] == ["0", "1", "2"]


def test_central_charges_csv_shape(tmp_path):
    out = tmp_path / "cc.csv"
    code = dispatch(["central-charges", "--y", "1000", "--format", "csv",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("y_re,y_im,brane,")
    assert len(lines) == 4


def test_verify_appendix_csv_shape(tmp_path):
    out = tmp_path / "va.csv"
    code = dispatch(["verify-appendix", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,rel_err,flagged"
    assert len(lines) > 3
    assert all(ln.endswith(",0") for ln in lines[1:])


# one call per CSV-able subcommand; continue at a disc, an annulus and a
# large-|y| modulus
_CSV_CALLS = [
    ["series", "--y", "0.02", "--y", "1e30"],
    ["continue", "--y", "0.02", "--y=-0.05,0.001", "--y", "100,3"],
    ["periods", "--y", "1000", "--y=-500,30"],
    ["central-charges", "--y", "1000", "--y=-500,30"],
    ["verify-appendix"],
]


def _csv_lines_of(command, rows):
    """The CSV lines a JSON report's rows must print, as numbers."""
    def parts(z, prefix):
        return {f"{prefix}_re": z["re"], f"{prefix}_im": z["im"]}
    if command in ("series", "continue"):
        return [{**parts(r["y"], "y"), "err_estimate": r["err_estimate"],
                 **{f"abs_w{i}": math.hypot(r[f"w{i}"]["re"], r[f"w{i}"]["im"])
                    for i in range(3)}} for r in rows]
    if command == "periods":
        return [{**parts(r["y"], "y"), "k": k, **parts(z, "I"), "err": r["err"][k]}
                for r in rows for k, z in enumerate(r["I"])]
    if command == "central-charges":
        return [{**parts(r["y"], "y"), "brane": r["brane"],
                 **parts(r["charge_analytic"], "analytic"),
                 **parts(r["charge_periods"], "periods"),
                 "abs_dev": r["abs_dev"], "flagged": r["flagged"]} for r in rows]
    return [{"name": r["name"], "rel_err": r["rel_err"], "flagged": r["flagged"]}
            for r in rows]


@pytest.mark.parametrize("argv", _CSV_CALLS, ids=[argv[0] for argv in _CSV_CALLS])
def test_csv_carries_the_numbers_of_the_json_report(tmp_path, argv):
    json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
    assert dispatch([*argv, "--out", str(json_out)]) == 0
    assert dispatch([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
    with open(csv_out, newline="") as fh:
        lines = [{k: v if k in ("brane", "name") else float(v) for k, v in line.items()}
                 for line in csv.DictReader(fh)]
    # exact: each CSV number reads back as the JSON one
    assert lines == _csv_lines_of(argv[0], json.loads(json_out.read_text())["rows"])


def test_reproduce_deterministic(tmp_path):
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    assert dispatch(["reproduce", "--out", str(a)]) == 0
    assert dispatch(["reproduce", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_computes_each_period_vector_once(tmp_path, monkeypatch):
    # the fit and the central charges reuse the vectors of the periods stage
    calls = []
    periods = geom.periods

    def counted(y, quad=None):
        calls.append(y)
        return periods(y, quad)

    monkeypatch.setattr(geom, "periods", counted)
    code, payload = _run_json(tmp_path, "reproduce")
    assert code == 0
    assert calls == [1e3, 2e3, 4e3]
    assert payload["transfer_matrix"] == [[1, 0, 0], [-1, 1, -1], [1, 1, 0]]


@pytest.mark.parametrize("call", [
    lambda: dispatch(["reproduce", "--out", os.devnull]),
    lambda: dispatch(["periods", "--y", "1e3", "--tol", "1e-12", "--out", os.devnull]),
    lambda: dispatch(["central-charges", "--out", os.devnull]),
    lambda: dispatch(["transfer-matrix", "--out", os.devnull]),
    lambda: mm.fit_transfer_matrix(mm.FIT_MODULI),
], ids=["reproduce", "periods", "central-charges", "transfer-matrix", "fit_transfer_matrix"])
def test_periods_are_asked_for_at_the_modulus_alone(call, monkeypatch):
    # the threshold a config would set cannot fire (every err is the 1e-15
    # floor, the least target a PrecisionConfig takes), so none is passed
    calls = []
    periods = geom.periods

    def recorded(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return periods(*args, **kwargs)

    monkeypatch.setattr(geom, "periods", recorded)
    result = call()
    # dispatch exits 0; the fit gives the pinned matrix
    assert result == 0 or result.entries == mm.TRANSFER_MATRIX
    assert calls and all(c == ((), {}) for c in calls), calls


def test_reproduce_checks_the_series_at_every_period_vector(tmp_path, monkeypatch):
    # the central charges compare the periods through T with the large-|y|
    # series at each modulus of the periods stage; that stage reports one
    # sum gap per modulus in the form the benchmark reads
    seen = []
    report = mm.central_charge_report

    def recorded(y):
        seen.append(y.y)
        return report(y)

    monkeypatch.setattr(mm, "central_charge_report", recorded)
    code, payload = _run_json(tmp_path, "reproduce")
    assert code == 0
    assert seen == [1e3, 2e3, 4e3]
    stages = {st["name"]: st for st in payload["stages"]}
    assert len(re.findall(r"sum gap (\S+),", stages["periods"]["detail"])) == 3
    assert float(stages["central_charges"]["detail"].rsplit(" ", 1)[1]) <= 1.0


def _package_env() -> dict:
    """The environment of a child interpreter that imports this localp2."""
    src = os.path.dirname(os.path.dirname(localp2.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_periods_report_a_fiber_agm_that_does_not_converge():
    # `python -m localp2 periods --y 1e3` with the AGM cut to one step
    code = ("import runpy, sys; import localp2._kernels as k; k._AGM_MAX_ITER = 1; "
            "sys.argv = ['localp2', 'periods', '--y', '1e3']; "
            "runpy.run_module('localp2', run_name='__main__', alter_sys=True)")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True, env=_package_env())
    assert (out.returncode, out.stderr) == (1, "")
    report = json.loads(out.stdout, parse_constant=pytest.fail)
    jsonschema.validate(report, _schema("error"))
    assert report["error"] == "QuadratureError"
    assert report["context"]["command"] == "periods"


def test_continue_at_the_top_of_the_double_range_is_quiet():
    # 27y/(1 + 27y) overflowed here: a numpy warning, then a ConvergenceError.
    # The row now comes from the large-|y| series, whose estimate is its tail
    # bound; the transport from y = 0.01 reaches it within its own estimate
    out = subprocess.run([sys.executable, "-m", "localp2", "continue", "--y", "7e306"],
                         capture_output=True, text=True, env=_package_env())
    assert (out.returncode, out.stderr) == (0, "")
    (row,) = json.loads(out.stdout)["rows"]
    assert not row["flagged"]
    ref = pf.continue_solutions(7e306, y_start=0.01)
    got = [complex(row[f"w{i}"]["re"], row[f"w{i}"]["im"]) for i in range(3)]
    assert max(abs(a - b) for a, b in zip(got, ref.as_vector())) <= ref.err_estimate
    assert abs(got[2] - 1.0 / 3.0) <= ref.err_estimate


def _run_quiet(argv):
    """Run ``python -W error -m localp2 argv``; its exit code and JSON stdout,
    after checking that it wrote nothing to stderr (no traceback, no warning)."""
    out = subprocess.run([sys.executable, "-W", "error", "-m", "localp2", *argv],
                         capture_output=True, text=True, env=_package_env())
    assert out.stderr == "", out.stderr
    return out.returncode, json.loads(out.stdout)


HUGE = "1.7e308,1.7e308"   # |y| overflows a double; log|y| does not


def test_periods_at_a_modulus_past_the_double_range_of_its_modulus():
    # abs(y) raised OverflowError here; the guard now reads |y| from log y
    code, payload = _run_quiet(["periods", "--y", HUGE])
    (row,) = payload["rows"]
    assert (code, row["flagged"]) == (0, False)
    # the y-dependent part is of order |y|^(-1/3) ~ 1e-103
    for k, (value, err) in enumerate(zip(row["I"], row["err"])):
        assert abs(complex(value["re"], value["im"]) - (-1.0) ** k / 3.0) <= err


def test_central_charges_at_a_modulus_past_the_double_range_of_its_modulus():
    code, payload = _run_quiet(["central-charges", "--y", HUGE])
    assert (code, payload["n_flagged"]) == (0, 0)
    assert len(payload["rows"]) == 3
    assert all(row["abs_dev"] <= row["tolerance"] for row in payload["rows"])


def test_transfer_matrix_with_a_sample_past_the_double_range_of_its_modulus():
    code, payload = _run_quiet(["transfer-matrix", "--y", HUGE, "--y", "1e3", "--y", "2e3"])
    assert (code, payload["flagged"]) == (0, False)
    # the pinned integer matrix
    assert payload["entries"] == [list(row) for row in mm.TRANSFER_MATRIX]


# modules reproduce never runs: dataclasses (the records are named tuples),
# fractions and decimal (series_coefficient), the Taylor transport
# (continuation and monodromy) and the extended arithmetic
_NOT_IN_A_DOUBLE_REPRODUCE = ("dataclasses", "decimal", "fractions", "localp2._extended",
                              "localp2._taylor", "mpmath")
_EXTENDED = ("localp2._extended", "mpmath")


def test_no_subcommand_loads_mpmath_and_the_extended_library_call_does():
    # after numpy, reproduce adds none of those modules to the interpreter;
    # no subcommand then loads the extended arithmetic, and the library's
    # extended closed-form checks load both its modules
    runs = [[c, *CLEAN_ARGS[c]] for c in SUBCOMMANDS]
    code = ("import os, sys; import numpy; before = set(sys.modules); "
            "import localp2.cli as cli; "
            "loaded = lambda names: sorted(set(names) & (set(sys.modules) - before)); "
            "print(cli.dispatch(['reproduce', '--out', os.devnull]), "
            f"loaded({_NOT_IN_A_DOUBLE_REPRODUCE!r})); "
            f"print([cli.dispatch([*argv, '--out', os.devnull]) for argv in {runs!r}], "
            f"loaded({_EXTENDED!r})); "
            "cli.specfun.closed_form_checks(cli.specfun.PrecisionConfig(mode='extended')); "
            f"print(loaded({_EXTENDED!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_package_env())
    assert out.stdout.split("\n")[:3] == [
        "0 []", f"{[0] * len(runs)} []", repr(sorted(_EXTENDED))]


# a module imported inside the functions that use it, and a call whose
# first run in a fresh interpreter runs that import: a subcommand, which
# writes its report to the path ``out``, or a library call
_FIRST_CALLS = {
    "continue": ("localp2._taylor", "cli.dispatch(['continue', '--y', '1e30', "
                 "'--y=-0.05,0.001', '--y', '0,0.04', '--tol', '1e-12', '--out', out])"),
    "monodromy": ("localp2._taylor", "cli.dispatch(['monodromy', '--out', out])"),
    "closed_form_checks": ("localp2._extended", "cli.specfun.closed_form_checks("
                           "cli.specfun.PrecisionConfig(mode='extended'))"),
}


@pytest.mark.parametrize("module, call", _FIRST_CALLS.values(), ids=_FIRST_CALLS)
def test_a_first_call_imports_its_module_and_writes_the_warm_bytes(tmp_path, module, call):
    # the fresh call's value (a subcommand's exit code, the checks' rows)
    # and report are those of the same call here
    fresh, warm = tmp_path / "fresh.json", tmp_path / "warm.json"
    code = ("import sys; import localp2.cli as cli; "
            f"out = {str(fresh)!r}; print({module!r} in sys.modules); "
            f"value = {call}; print({module!r} in sys.modules); print(repr(value))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_package_env())
    value = eval(call, {"cli": cli, "out": str(warm)})
    assert out.stdout.split("\n")[:3] == ["False", "True", repr(value)]
    if call.startswith("cli.dispatch"):
        assert value == 0 and fresh.read_bytes() == warm.read_bytes()


def test_console_entry_prints_the_dispatch_bytes(tmp_path, capsys, monkeypatch):
    # main freezes the collector before dispatching; the report stays byte
    # for byte the one in-process dispatch prints, on stdout and via --out
    assert dispatch(["reproduce"]) == 0
    want = capsys.readouterr().out.encode()
    out = subprocess.run([sys.executable, "-m", "localp2", "reproduce"],
                         capture_output=True, env=_package_env())
    assert (out.returncode, out.stdout, out.stderr) == (0, want, b"")
    path = tmp_path / "r.json"
    monkeypatch.setattr(sys, "argv", ["localp2", "reproduce", "--out", str(path)])
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as done:
            main()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert done.value.code == 0
    assert path.read_bytes() == want


def test_dispatch_leaves_the_collector_unfrozen():
    # library callers keep the default collector
    frozen = gc.get_freeze_count()
    assert dispatch(["reproduce", "--out", os.devnull]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv", [["reproduce"], ["monodromy"], ["periods"]])
def test_closed_stdout_exits_one_quietly(argv):
    # a large report, a small one that fits the buffer, and an error report
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "localp2", *argv],
                             stdout=write_end, stderr=subprocess.PIPE,
                             env=_package_env())
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # dispatch points the dead stdout at os.devnull and closes its own
    # descriptor of os.devnull, so repeated calls do not leak one each
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        before = sorted(os.listdir("/proc/self/fd"))
        assert dispatch(["monodromy"]) == 1
        assert sorted(os.listdir("/proc/self/fd")) == before


def test_stdout_matches_out_file(tmp_path, capsys):
    code = dispatch(["mirror-objects"])
    stdout_text = capsys.readouterr().out
    assert code == 0
    out = tmp_path / "m.json"
    dispatch(["mirror-objects", "--out", str(out)])
    assert out.read_text() == stdout_text


def test_multiple_y_rows(tmp_path):
    out = tmp_path / "multi.json"
    code = dispatch(["series", "--y", "0.01", "--y", "0.02",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 2


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_is_reported(tmp_path, capsys, target):
    # a missing directory, and a directory in place of a file
    path = str(tmp_path / target)
    assert dispatch(["mirror-objects", "--out", path]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("error"))
    assert report["error"] in ("FileNotFoundError", "IsADirectoryError")
    assert report["context"]["command"] == "mirror-objects"
    assert path in report["context"]["message"]


@pytest.mark.parametrize("argv", [["--out="], ["--out", ""]])
def test_an_empty_out_path_is_reported_as_a_missing_file(capsys, argv):
    # an empty path names no file: the report is not printed in its place
    assert dispatch(["mirror-objects", *argv]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("error"))
    assert report["error"] == "FileNotFoundError"
    assert report["context"]["command"] == "mirror-objects"


# --- argv fuzzing ----------------------------------------------------------------

CSV_HEADERS = {
    "series": "y_re,y_im,abs_w0,abs_w1,abs_w2,err_estimate",
    "continue": "y_re,y_im,abs_w0,abs_w1,abs_w2,err_estimate",
    "periods": "y_re,y_im,k,I_re,I_im,err",
    "central-charges": "y_re,y_im,brane,analytic_re,analytic_im,"
                       "periods_re,periods_im,abs_dev,flagged",
    "verify-appendix": "name,rel_err,flagged",
}

# "<OUT>" is replaced by a fresh temporary directory in each example
FLAG_VALUES = {
    "--tol": ("1e-6", "1e-3", "1e-12", "1", "0", "-1e-6", "nan", "abc"),
    "--y": ("1000", "2e3,1e3", "0.02", "-0.01,0.017", "5", "27.03", "1e8",
            "0", "nan", "abc", "1,2,3"),
    "--format": ("json", "csv", "xml"),
    "--precision": ("double", "extended", "quad"),
    "--out": ("<OUT>/report.txt", "<OUT>/missing/report.txt", "<OUT>", ""),
}
# no help flag (it prints usage and exits 0) and no prefix of --out (it
# would write outside the temporary directory)
JUNK = ("frobnicate", "42", "-x", "--bogus", "--", "--y", "--tol")

_FLAG_PIECE = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.sampled_from(FLAG_VALUES[flag]).flatmap(
        lambda value: st.sampled_from(((flag, value), (f"{flag}={value}",)))))
_PIECE = st.one_of(
    _FLAG_PIECE,
    st.sampled_from(JUNK + SUBCOMMANDS).map(lambda token: (token,)))


@st.composite
def _argv(draw):
    pieces = [(draw(st.sampled_from(SUBCOMMANDS)),)]
    pieces += draw(st.lists(_FLAG_PIECE, max_size=4))
    pieces += draw(st.lists(_PIECE, max_size=1))
    return [token for piece in draw(st.permutations(pieces)) for token in piece]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_random_argv_honours_the_output_contract(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [token.replace("<OUT>", out_dir) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = dispatch(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 2:
            assert stdout.getvalue() == "", argv
            return
        ns = _build_parser().parse_args(argv)
        text = stdout.getvalue()
        if not text:
            with open(ns.out) as fh:
                text = fh.read()
    if text.startswith("{"):
        payload = json.loads(text, parse_constant=_reject_constant)
        jsonschema.validate(payload, _schema(
            "error" if "error" in payload else ns.command))
    else:
        assert ns.format == "csv", argv
        assert text.splitlines()[0] == CSV_HEADERS[ns.command], argv
