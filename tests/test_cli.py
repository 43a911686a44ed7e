"""CLI surface: exit codes, JSON reports, CSV tables, presets listing."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import cli_report, scan_table

import mtwcheck
from mtwcheck import PRESETS, checker, cli, csvtext, make_cost, preset
from mtwcheck.cli import CSV_CHUNK_ROWS, CSV_COLUMNS, RunReport, _write_csv, main
from mtwcheck.csvtext import format_rows
from mtwcheck.errors import AdmissibilityError, InputError
from mtwcheck.jets import ELEMENTARY_FUNCTIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_neg_cosh_a3s(capsys):
    code, out, _ = run(capsys, "check", "--cost", "neg-cosh", "--K", "-1",
                       "--dim", "3", "--diameter", "2")
    assert code == 0
    assert "A3s" in out


def test_check_sq_weak_only(capsys):
    code, out, _ = run(capsys, "check", "--cost", "sq", "--K", "0",
                       "--dim", "3", "--diameter", "5")
    assert code == 0
    assert "A3w-only" in out


@pytest.mark.parametrize("cost", ["log(cosh(z))", "-log(cosh(z))"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_newton_inverse_cost_matches_paper_verdict(capsys, cost, dim):
    # an expression cost has no analytic inverse of l', so h comes from the
    # Newton inverse; the paper, and the presets log-cosh and neg-log-cosh,
    # give A3w-only at K = -1
    code, out, _ = run(capsys, "check", f"--cost={cost}", "--K", "-1", "--dim", dim,
                       "--diameter", "2", "--grid", "4096", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "A3w-only"


def test_check_not_even_exit_2(capsys):
    code, _, err = run(capsys, "check", "--cost", "z^3", "--K", "0",
                       "--dim", "3", "--diameter", "1")
    assert code == 2
    assert "not-even" in err


def test_check_failing_cost_exit_1(capsys):
    code, out, _ = run(capsys, "check", "--cost", "z^2/2 + 0.05*z^4", "--K", "0",
                       "--dim", "3", "--diameter", "1")
    assert code == 1
    assert "fails" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--cost", "neg-log1p-cos", "--K", "1",
                       "--dim", "3", "--diameter", "2.5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["verdict"] == "A3s"
    assert data["grid"] == 4096
    assert set(data["min_slacks"]) == {"beta", "gamma", "delta", "combo"}
    assert data["wall_time_ms"] > 0.0


def test_json_report_roundtrip(capsys):
    code, out, _ = run(capsys, "check", "--cost", "neg-cosh", "--K", "-1",
                       "--dim", "2", "--diameter", "2", "--json")
    assert code == 0
    report = RunReport(**json.loads(out))
    assert RunReport(**json.loads(json.dumps(report.to_dict()))) == report


def test_report_to_dict_equals_asdict(capsys, monkeypatch):
    # to_dict copies the fields shallowly; on the reports that the commands
    # build it must give what the deep copy of dataclasses.asdict gives
    reports = []
    to_dict = RunReport.to_dict
    monkeypatch.setattr(RunReport, "to_dict", lambda self: reports.append(self) or to_dict(self))
    for argv in (["check", "--cost=neg-cosh", "--K", "-1", "--dim", "2"],
                 ["eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2",
                  "--u=1,0", "--v=0.5,0", "--w=0,1"],
                 ["perturb", "--f=-4*z^2", "--k", "-1", "--b", "1"]):
        code, _, err = run(capsys, *argv, "--json")
        assert code == 0, err
    assert [report.command for report in reports] == ["check", "eval", "perturb"]
    for report in reports:
        assert to_dict(report) == dataclasses.asdict(report)


_EVAL = ["eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--u=1,0", "--v=0.5,0",
         "--w=0,1"]


@pytest.mark.parametrize("argv", [
    ["check", "--cost=neg-cosh", "--K", "-1", "--dim", "2"],
    _EVAL,
    ["perturb", "--f=-4*z^2", "--k", "-1", "--b", "1"],
], ids=lambda argv: argv[0])
def test_json_report_is_one_timed_line(capsys, argv):
    # a command returns its report and prints nothing; main times it and
    # prints the report as one JSON line
    args = cli.PARSER.parse_args([*argv, "--json"])
    code, report, _ = args.func(args)
    assert code == 0 and report.wall_time_ms == 0.0
    assert capsys.readouterr() == ("", "")
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    line, newline, rest = out.partition("\n")
    assert newline and rest == ""
    assert json.loads(line)["wall_time_ms"] > 0.0


def test_main_builds_no_parser(capsys, monkeypatch):
    # main parses with the parser built at import, never with a new one
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    code, out, _ = run(capsys, *_EVAL)
    assert code == 0 and "closed: " in out and "oracle: " in out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--K", "0", "--dim", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --cost" in capsys.readouterr().err


def test_no_state_between_calls(capsys):
    # options given to one call are not the defaults of the next
    check = ["check", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--json"]
    code, out, _ = run(capsys, *check, "--grid", "300", "--diameter", "1")
    assert code == 0 and json.loads(out)["grid"] == 300 and json.loads(out)["diameter"] == 1.0
    code, out, _ = run(capsys, *check)
    assert code == 0 and json.loads(out)["grid"] == 4096 and json.loads(out)["diameter"] == 2.0
    code, out, _ = run(capsys, *_EVAL, "--method", "closed", "--json")
    assert code == 0 and set(json.loads(out)["values"]) == {"closed"}
    code, out, _ = run(capsys, *_EVAL, "--json")
    report = json.loads(out)
    assert code == 0 and set(report["values"]) == {"closed", "jacobi", "oracle"}
    assert len(report["deviations"]) == 3 and report["diameter"] == 2.0
    code, out, _ = run(capsys, *_EVAL)
    assert code == 0 and out.startswith("closed: ")


@pytest.mark.parametrize("argv", [
    ["--help"], ["check", "--help"], ["eval", "--help"], ["perturb", "--help"],
    ["presets", "--help"], ["check", "--K", "0", "--dim", "2"], ["nosuch"],
])
def test_help_and_usage_match_a_fresh_parser(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    shared = outcome(main)
    assert shared == outcome(cli.build_parser().parse_args)
    assert shared[0] == (0 if "--help" in argv else 2) and "usage: mtwcheck" in "".join(shared[1:])


def test_check_csv_output(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "check", "--cost", "neg-cosh", "--K", "-1",
                     "--dim", "3", "--diameter", "2", "--grid", "512",
                     "--csv", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 512
    first = dict(zip(CSV_COLUMNS, map(float, rows[1])))
    assert first["z"] == 0.0
    assert first["A"] == pytest.approx(-1.0)


def test_eval_flat_zero(capsys):
    code, out, _ = run(capsys, "eval", "--cost", "sq", "--K", "0", "--dim", "3",
                       "--u", "1,0,0", "--v", "0,1,0", "--w", "0,0,1",
                       "--method", "closed")
    assert code == 0
    assert float(out.split(":")[1]) == pytest.approx(0.0, abs=1e-12)


def test_eval_all_routes_agree(capsys):
    code, out, _ = run(capsys, "eval", "--cost", "neg-log1p-cosh", "--K", "-1",
                       "--dim", "3", "--u", "1,0,0", "--v", "0,0.5,0",
                       "--w", "0,0,1", "--method", "all", "--json")
    assert code == 0
    data = json.loads(out)
    values = data["values"]
    assert values["closed"] == pytest.approx(1.5, abs=1e-9)
    assert abs(values["closed"] - values["jacobi"]) <= 1e-8
    assert abs(values["closed"] - values["oracle"]) <= 5e-3 * max(1.0, abs(values["closed"]))


def test_eval_newton_inverse_at_tiny_v_matches_preset(capsys):
    # |v| = 1e-14 is below the Newton inverse's old absolute residual floor
    values = {}
    for cost in ("-cosh(z)", "neg-cosh"):
        code, out, _ = run(capsys, "eval", f"--cost={cost}", "--K", "-1", "--dim", "2",
                           "--u=1,0", "--v=1e-14,0", "--w=0.6,0.8", "--method", "closed",
                           "--json")
        assert code == 0
        values[cost] = json.loads(out)["values"]["closed"]
    assert values["-cosh(z)"] == pytest.approx(values["neg-cosh"], rel=1e-12, abs=0.0)


def test_eval_newton_inverse_just_above_lprime_of_d_matches_preset(capsys):
    # |v| = |l'(D)|(1 + 5e-10) lies in the roundoff margin that
    # in_lprime_range accepts, and Newton inverts it as |l'(D)|
    zmax = make_cost("-cosh(z)", 1.0).zmax
    values = {}
    for cost, v in (("-cosh(z)", "1.1752011942314021"), ("neg-cosh", repr(zmax))):
        code, out, _ = run(capsys, "eval", f"--cost={cost}", "--K", "-1", "--dim", "2",
                           "--diameter", "1", "--u=1,0", f"--v={v},0", "--w=0,1",
                           "--method", "closed", "--json")
        assert code == 0
        values[cost] = json.loads(out)["values"]["closed"]
    assert float("1.1752011942314021") / zmax - 1.0 == pytest.approx(5e-10, rel=1e-3)
    assert values["-cosh(z)"] == pytest.approx(values["neg-cosh"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv", [
    ["perturb", "--f=-exp(z^2)", "--k", "-1", "--b", "30"],
    ["check", "--cost=z^2/2", "--K", "0", "--dim", "3", "--diameter", "1e300"],
], ids=["perturb-overflow", "check-overflow"])
def test_numeric_failure_prints_one_line(argv):
    # in a fresh interpreter, so that numpy warns as it does for a user: the
    # message is the only line on stderr, with no RuntimeWarning before it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mtwcheck.__file__)))
    proc = subprocess.run([sys.executable, "-m", "mtwcheck.cli"] + argv, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("numeric failure: ")


_SECOND_RUN_FAULTS = """
import contextlib, io, resource
from mtwcheck.cli import main
argv = ["check", "--cost=neg-cosh", "--K", "-1", "--dim", "3", "--grid", "65536", "--json"]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc heap policy")
def test_second_check_faults_no_heap_pages_back_in():
    # guards perfbench's op loop, which runs many checks through main in one
    # process, not a single command line: there a second identical check
    # must find the heap pages the first one freed still mapped (about 700
    # minor faults, if glibc trimmed them)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mtwcheck.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 50


def test_eval_zero_w_all_routes(capsys):
    code, out, _ = run(capsys, "eval", "--cost", "neg-cosh", "--K", "-1",
                       "--dim", "3", "--u", "1,0,0", "--v", "0,0.5,0",
                       "--w", "0,0,0", "--method", "all", "--json")
    assert code == 0
    values = json.loads(out)["values"]
    for name in ("closed", "jacobi", "oracle"):
        assert values[name] == pytest.approx(0.0, abs=1e-10)


def test_eval_all_on_a_small_lprime_range(capsys):
    # |l'(D)| = 1e-3: a fixed 1e-2 step in s took the oracle's stencil out
    # of the range of l', and the run exited 2 with a message about |y|
    argv = ["eval", "--cost=z^2/2", "--K", "0", "--dim", "2", "--diameter", "1e-3",
            "--u=1,0", "--w=0.6,0.8", "--method", "all"]
    code, out, err = run(capsys, *argv, "--v=3e-4,4e-4", "--json")
    assert code == 0 and err == ""
    values = json.loads(out)["values"]
    assert abs(values["oracle"] - values["closed"]) < 1e-6
    # at |v| = |l'(D)| no step fits: the message names |v|, |w| and |l'(D)|
    code, out, err = run(capsys, *argv, "--v=6e-4,8e-4")
    assert code == 2 and out == ""
    assert "|v| = 0.001, |w| = 1.0, |l'(D)| = 0.001" in err and "|y|" not in err


def test_eval_zero_v_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--cost", "sq", "--K", "0", "--dim", "3",
                       "--u", "1,0,0", "--v", "0,0,0", "--w", "0,0,1")
    assert code == 2


@pytest.mark.parametrize("method", ["closed", "jacobi", "oracle", "all"])
@pytest.mark.parametrize("length", [1e-160, 1e-300])
def test_eval_v_below_the_normal_floats_exit_2(capsys, method, length):
    # |v|^2 is subnormal or 0, which no route can divide by: every route
    # refuses it and names |v|, instead of a value off in its leading digits
    code, out, err = run(capsys, "eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2",
                         "--u=1,0", f"--v={length!r},0", "--w=0,1", "--method", method)
    assert code == 2 and out == ""
    assert err.startswith("error: v must be nonzero") and f"|v| = {length!r}" in err
    assert "Traceback" not in err


def test_eval_dimension_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--cost", "sq", "--K", "0", "--dim", "3",
                       "--u", "1,0", "--v", "0,1,0", "--w", "0,0,1")
    assert code == 2
    assert err == "error: expected 3 frame components\n"


@pytest.mark.parametrize("argv,code,message", [
    (["check", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--diameter", "400"], 3,
     "numeric failure: non-finite alpha encountered during the scan"),
    (["eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--u=a,b", "--v=0.5,0", "--w=0,1"],
     2, "error: --u must be comma-separated numbers, got 'a,b'"),
    (["perturb", "--f=-4*z^2", "--k", "-1", "--b", "1", "--grid", "0"], 2,
     "error: grid_points must be positive"),
    (["check", "--cost=" + "+".join(["z^2"] * 500), "--K", "0", "--dim", "2"], 2,
     "error: expression nested deeper than 100 levels"),
    (["check", "--cost=" + "(" * 300 + "z^2" + ")" * 300, "--K", "0", "--dim", "2"], 2,
     "error: expression nested deeper than 100 levels"),
], ids=["non-finite-alpha", "bad-vector", "grid-zero", "long-sum", "deep-parentheses"])
def test_exit_code_with_one_line(capsys, argv, code, message):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["--cost=neg-log1p-cos", "--K", "1", "--dim", "2", "--u=400,0", "--v=0.5,0", "--w=0,1"],
    ["--cost=neg-cosh", "--K", "-1", "--dim", "3", "--diameter", "1", "--u=0,0,1e5",
     "--v=0,0,0.001", "--w=0,0,0"],
], ids=["sphere-u-400", "u-1e5-w-zero"])
def test_eval_oracle_on_long_vectors(capsys, argv):
    # unscaled, the oracle's t u would leave the sphere's injectivity
    # radius, or overflow math.cosh
    code, out, err = run(capsys, "eval", *argv, "--method", "all", "--json")
    assert code == 0 and err == ""
    values = json.loads(out)["values"]
    assert values["oracle"] == pytest.approx(values["closed"], rel=5e-3, abs=1e-12)


def test_eval_v_out_of_range_exit_2(capsys):
    code, _, _ = run(capsys, "eval", "--cost", "neg-log1p-cosh", "--K", "-1",
                     "--dim", "3", "--u", "1,0,0", "--v", "0,5,0", "--w", "0,0,1")
    assert code == 2


@pytest.mark.parametrize("command", [
    # D < pi, but h(|l'(D)|) = D lies within the pole tolerance of pi
    ["check", "--cost", "sq", "--K", "1", "--dim", "2", "--diameter", "3.1415926535"],
    ["eval", "--cost", "sq", "--K", "1", "--dim", "2", "--diameter", "4", "--u=1,0",
     "--v=3.2,0", "--w=0,1"],
])
def test_sphere_diameter_at_the_cot_pole_exit_2(capsys, command):
    code, out, err = run(capsys, *command)
    assert code == 2 and out == ""
    assert "--diameter" in err and "Traceback" not in err


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "abc", ""])
def test_quartic_non_finite_eps_exit_2(capsys, eps):
    # the message names eps, not an offset into the text preset() builds
    code, out, err = run(capsys, "check", f"--cost=quartic({eps})", "--K", "0", "--dim", "2")
    assert code == 2 and out == ""
    assert "quartic eps must be finite and positive" in err and "offset" not in err


@pytest.mark.parametrize("method", ["closed", "all"])
def test_eval_non_finite_route_value_exit_3(capsys, method):
    # |u|^2 and |w|^2 overflow, and the closed route, which runs first, reads nan
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, "eval", "--cost", "neg-cosh", "--K", "-1", "--dim", "2",
                             "--u=1e200,0", "--v=0.5,0", "--w=1e200,1", "--method", method,
                             "--json")
    assert code == 3 and out == ""
    assert "the closed route gave nan" in err


def test_perturb_holds(capsys):
    code, out, _ = run(capsys, "perturb", "--f=-4*z^2", "--k", "-1", "--b", "1")
    assert code == 0
    assert "holds" in out


def test_perturb_zero_profile_fails(capsys):
    code, out, _ = run(capsys, "perturb", "--f", "0", "--k", "-1", "--b", "1")
    assert code == 1
    assert "fails" in out


def test_perturb_boundary_fails(capsys):
    code, out, _ = run(capsys, "perturb", "--f=-4*z^2", "--k", "-9", "--b", "1")
    assert code == 1


@pytest.mark.parametrize("k,b", [("1", "1"), ("nan", "1"), ("-inf", "1"), ("-1", "nan"),
                                 ("-1", "inf"), ("-1", "0")],
                         ids=["k-positive", "k-nan", "k-minus-inf", "b-nan", "b-inf", "b-zero"])
def test_perturb_bad_k_exit_2(capsys, k, b):
    # a non-finite k or b would give a verdict on nan values ("holds" for k = nan)
    code, out, err = run(capsys, "perturb", "--f=0", "--k", k, "--b", b)
    assert code == 2 and out == ""
    assert "must be finite" in err and "Traceback" not in err


def test_perturb_k_in_exponent_notation(capsys):
    # --k is always negative, so its value may start with "-" in any notation
    code, out, _ = run(capsys, "perturb", "--f=-4*z^2", "--k", "-1e-3", "--b", "1")
    assert code == 0 and "holds" in out


@pytest.mark.parametrize("profile", ["log(z-1)", "1/0*z"])
def test_perturb_undefined_profile_exit_2(capsys, profile):
    # the message names the first grid point b/grid, not the argument of log
    code, out, err = run(capsys, "perturb", f"--f={profile}", "--k", "-1", "--b", "1")
    assert code == 2 and out == ""
    assert "the profile is undefined at z = 0.0009765625" in err and "Traceback" not in err


def test_eval_newton_failure_on_constant_lpp(capsys):
    # l = z: l' = 1 has no inverse on (0, 1), but eval checks admissibility
    # first, as check does, and l = z is odd: exit 2 before any Newton step
    code, _, err = run(capsys, "eval", "--cost=z", "--K", "0", "--dim", "2",
                       "--u", "1,0", "--v", "0,0.5", "--w", "1,1")
    assert code == 2
    assert "not-even at z=0.0" in err and "Traceback" not in err


def test_eval_inadmissible_cost_exit_2(capsys):
    # l' of log((z^2-1)^2) has a pole at z = 1: check and eval both exit 2
    # with the same message, and eval prints no value
    message = "lprime-not-monotone at z=0.996"
    for command in (["check"], ["eval", "--u", "1,0", "--v", "0.5,0", "--w", "0,1"]):
        code, out, err = run(capsys, command[0], "--cost=log((z^2-1)^2)", "--K", "0",
                             "--dim", "2", *command[1:])
        assert code == 2 and out == ""
        assert message in err


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert "neg-cosh" in out and "A3s at K=-1" in out
    assert "neg-log1p-cos" in out and "A3s at K=+1" in out
    assert "quartic" in out and "perturbation" in out


def test_quartic_check_via_cli(capsys):
    code, out, _ = run(capsys, "check", "--cost", "quartic(0.001)", "--K", "0",
                       "--dim", "3", "--diameter", "1")
    assert code == 0
    assert "A3s" in out


def test_dash_values_as_separate_tokens(capsys):
    code, out, err = run(capsys, "eval", "--cost", "neg-cosh", "--K", "-1", "--dim", "2",
                         "--u", "1,0", "--v", "-0.5,0.2", "--w", "0,1", "--json")
    assert code == 0, err
    values = json.loads(out)["values"]
    assert abs(values["closed"] - values["jacobi"]) <= 1e-8
    code, out, err = run(capsys, "check", "--cost", "-cosh(z)", "--K", "-1",
                         "--dim", "3", "--json")
    assert code == 0, err
    assert json.loads(out)["verdict"] == "A3s"
    code, out, err = run(capsys, "perturb", "--f", "-4*z^2", "--k", "-1", "--b", "1")
    assert code == 0, err
    assert "holds" in out


@pytest.mark.parametrize("argv", [
    ["check", "--K", "0", "--dim", "2", "--cost"],
    ["check", "--cost", "--K", "0", "--dim", "2"],
])
def test_missing_option_value_still_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--cost: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["check", "--cost", "neg-cosh", "--K", "-1", "--dim", "2"],
    ["check", "--cost", "z^2/2", "--K", "0", "--dim", "2"],
    ["eval", "--cost", "sq", "--K", "0", "--dim", "2", "--u", "1,0", "--v", "0,1",
     "--w", "1,1"],
])
def test_infinite_diameter_exit_2(capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *command, "--diameter", "inf")
    assert code == 2
    assert "diameter" in err


def test_strict_margin_is_no_option(capsys):
    # the strict hurdle is checker.STRICT_MARGIN, which no caller sets
    with pytest.raises(SystemExit) as exc:
        main(["check", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--strict-margin", "1e-9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --strict-margin" in captured.err


def test_check_odd_term_beyond_the_origin_jet_exit_2(capsys):
    # z^7 leaves the jet at 0 even; the sampled evenness check finds it at D/8
    code, out, err = run(capsys, "check", "--cost=z^2/2 + z^7", "--K", "0", "--dim", "2",
                         "--diameter", "1")
    assert code == 2 and out == ""
    assert "not-even at z=0.125" in err and "Traceback" not in err


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--u", "--v", "--w"])
def test_non_finite_vector_component_exit_2(capsys, option, component):
    vectors = {"--u": "1,0", "--v": "0.5,0", "--w": "0,1"}
    vectors[option] = f"{component},0"
    code, out, err = run(capsys, "eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2",
                         *(f"{name}={text}" for name, text in vectors.items()), "--json")
    assert code == 2 and out == ""
    assert f"{option} must have finite components" in err


@pytest.mark.parametrize("command,message", [
    (["check"], "not-finite at z="),
    (["eval", "--u=1,0", "--v=0,0.5", "--w=1,1"], "not-finite at z=1.3254901960784313"),
])
def test_overflowing_cost_exit_2(capsys, command, message):
    # l' of exp(z^2)^400 overflows from z = 1.33 on: both commands run the
    # admissibility check, which names the z, and no numpy warning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, command[0], "--cost=exp(z^2)^400", "--K", "0", "--dim", "2",
                           "--diameter", "2", *command[1:])
    assert code == 2
    assert message in err and "Traceback" not in err


def _csv_writer_reference(path, table):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in zip(*(table[name] for name in CSV_COLUMNS)):
            writer.writerow([f"{value:.17g}" for value in row])


# one row, the edges of one block, and eight blocks around a ragged last one
@pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                  4095, 4096, 4097])
def test_csv_bytes_match_csv_writer(tmp_path, rows):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7e308, -1.7e308,
               0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]
    rng = np.random.default_rng(rows)
    table = {}
    for i, name in enumerate(CSV_COLUMNS):
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
        picks = rng.integers(0, len(special), rows)
        mask = rng.uniform(size=rows) < 0.3
        values[mask] = np.array(special)[picks[mask]]
        values[0] = special[i % len(special)]
        table[name] = values
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    with _write_csv(got) as write:
        write(table)
    _csv_writer_reference(expected, table)
    assert got.read_bytes() == expected.read_bytes()


def test_check_csv_streams_chunks(tmp_path, capsys, monkeypatch):
    # scan chunks that do not line up with the writer's row blocks
    monkeypatch.setattr(checker, "SCAN_CHUNK", 1000)
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    code, _, _ = run(capsys, "check", "--cost", "neg-cosh", "--K", "-1", "--dim", "3",
                     "--grid", "4500", "--csv", str(got))
    assert code == 0
    _, table = scan_table(preset("neg-cosh", 2.0), -1, 3, grid_points=4500)
    _csv_writer_reference(expected, table)
    assert got.read_bytes() == expected.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.csv", "got.csv"]


def _fail_on_second_chunk(monkeypatch):
    profiles = checker.coefficient_arrays
    calls = []

    def failing(cost, K, z):
        calls.append(len(z))
        if len(calls) == 2:
            raise FloatingPointError("injected failure in the second chunk")
        return profiles(cost, K, z)

    monkeypatch.setattr(checker, "SCAN_CHUNK", 1000)
    monkeypatch.setattr(checker, "coefficient_arrays", failing)


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("cost,expected_code", [("z^3", 2), ("neg-cosh", 3)])
def test_failed_check_leaves_csv_target(tmp_path, capsys, monkeypatch, exists, cost,
                                        expected_code):
    # "z^3" is inadmissible (exit 2); neg-cosh fails after one chunk's rows (exit 3)
    if expected_code == 3:
        _fail_on_second_chunk(monkeypatch)
    path = tmp_path / "scan.csv"
    if exists:
        path.write_bytes(b"earlier contents\r\n")
    code, _, err = run(capsys, "check", "--cost", cost, "--K", "-1", "--dim", "3",
                       "--grid", "4096", "--csv", str(path))
    assert code == expected_code, err
    if exists:
        assert path.read_bytes() == b"earlier contents\r\n"
    else:
        assert not path.exists()
    assert [p.name for p in tmp_path.iterdir()] == (["scan.csv"] if exists else [])


def test_unwritable_csv_exit_2(tmp_path, capsys):
    argv = ("check", "--cost", "neg-cosh", "--K", "-1", "--dim", "3", "--csv")
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "scan.csv"))
    assert code == 2 and "Traceback" not in err
    # a file in the way of the sibling the rows go to is left alone
    (tmp_path / "scan.csv.partial").write_bytes(b"not ours\r\n")
    code, _, err = run(capsys, *argv, str(tmp_path / "scan.csv"))
    assert code == 2 and "Traceback" not in err
    assert (tmp_path / "scan.csv.partial").read_bytes() == b"not ours\r\n"
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("argv", [["presets"], _EVAL, [*_EVAL, "--json"]])
def test_os_error_while_printing_exit_2(capsys, monkeypatch, argv):
    class ClosedStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError("stdout is closed")

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"


@pytest.mark.parametrize("cost,K", [("-log(1-cos(z))", "1"), ("1/z", "0")])
def test_singular_cost_exit_2(capsys, cost, K):
    code, _, err = run(capsys, "check", f"--cost={cost}", "--K", K, "--dim", "2")
    assert code == 2
    assert f"cost {cost!r} is undefined at z = 0.0" in err
    assert "Traceback" not in err


def test_pole_between_admissibility_samples_exit_2(capsys):
    # l = log((z^2-1)^2) has a pole at z = 1, between two samples, where l'
    # drops from +inf to -inf while l'' keeps its sign
    code, _, err = run(capsys, "check", "--cost=log((z^2-1)^2)", "--K", "0", "--dim", "2",
                       "--diameter", "2.2")
    assert code == 2, err
    assert "lprime-not-monotone" in err and "Traceback" not in err


def _percent_rows(values, ncols):
    """The reference: each value as "%.17g" formats it, as csv.writer joins them."""
    row = ",".join(["%.17g"] * ncols) + "\r\n"
    return (row * (len(values) // ncols) % tuple(values)).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=16), st.integers(1, 8))
def test_format_rows_matches_percent_g(values, ncols):
    values = values * ncols
    assert format_rows(np.array(values), ncols) == _percent_rows(values, ncols)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=16), st.integers(1, 8))
def test_format_rows_matches_percent_g_on_bit_patterns(bits, ncols):
    values = np.array(bits * ncols, dtype=np.uint64).view(np.float64)
    assert format_rows(values, ncols) == _percent_rows(values.tolist(), ncols)


def _with_neighbours(values):
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def _ties():
    """Values exactly halfway between two 17-digit decimals, which "%.17g"
    rounds to even: M * 2**-e for odd M with M * 5**e of 18 digits."""
    ties = [1234567890123456.75, 999999999999999.125]
    for e in range(1, 26):
        m = -(-10 ** 17 // 5 ** e)
        m += 1 - m % 2
        if m + 2 < 2 ** 53:
            ties += [math.ldexp(m, -e), math.ldexp(m + 2, -e)]
    return ties


_BOUNDARY = np.concatenate([
    _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    _with_neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)]),
    _ties(),
    [0.0, math.inf, math.nan, 5e-324, 1.7976931348623157e308, 0.1, 123.456, 1e16 - 2],
    np.arange(-1000, 1001) * 0.1,
])
_BOUNDARY = np.concatenate([_BOUNDARY, -_BOUNDARY])


def test_ties_are_exact():
    for value in _ties():
        digits = format(Decimal(value), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits[-1] == "5", value


@pytest.mark.parametrize("ncols", [1, 3, 8])
def test_format_rows_boundary_values(ncols):
    # every value lands in every column, the last one ending its row with \r\n
    for shift in range(ncols):
        values = np.roll(_BOUNDARY, shift)[:len(_BOUNDARY) // ncols * ncols]
        assert format_rows(values, ncols) == _percent_rows(values.tolist(), ncols)


def test_format_rows_rejects_ragged_block():
    with pytest.raises(InputError, match="7 values do not fill rows of 8"):
        format_rows(np.zeros(7), 8)


@pytest.mark.parametrize("ncols", [1, 8])
def test_format_rows_empty_block(ncols):
    assert format_rows(np.zeros(0), ncols) == b""


def test_scale_table_columns_equal_binade():
    # 2**(e-1) has the exponent e of np.frexp, so these values fill every
    # column of the table, subnormals included
    exponents = np.arange(csvtext._FREXP_MIN, csvtext._FREXP_MAX + 1)
    values = np.ldexp(1.0, exponents - 1)
    assert format_rows(values, 1) == _percent_rows(values.tolist(), 1)
    thresholds, scales = csvtext._scales()
    assert (thresholds > 0.0).all()
    for ex in exponents.tolist():
        col = 2 * ex % len(scales)
        binade = csvtext._binade(ex)
        assert np.array_equal(thresholds[col:col + 2], binade[0]), ex
        assert np.array_equal(scales[col:col + 2], binade[1:].T), ex


_FILL_ORDER = """
import hashlib, sys
import numpy as np
from mtwcheck.csvtext import format_rows
for scale in sys.argv[2:]:
    format_rows(np.linspace(1.0, 2.0, 4096) * float(scale), 8)
print(hashlib.sha256(format_rows(np.load(sys.argv[1]), 8)).hexdigest())
"""


def test_format_rows_bytes_do_not_depend_on_filled_exponents(tmp_path):
    # the scale table fills the columns of an exponent when a block first
    # meets it: in a fresh process, the boundary values alone, and after
    # blocks of subnormals, of 1e-300, of 1 to 2 and of 1e300
    values = _BOUNDARY[:len(_BOUNDARY) // 8 * 8]
    np.save(tmp_path / "boundary.npy", values)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mtwcheck.__file__)))
    digests = [subprocess.run([sys.executable, "-c", _FILL_ORDER, str(tmp_path / "boundary.npy"),
                               *scales], env=env, capture_output=True, text=True,
                              check=True).stdout.strip()
               for scales in ([], ["5e-324", "1e-300", "1.0", "1e300"])]
    expected = hashlib.sha256(_percent_rows(values.tolist(), 8)).hexdigest()
    assert digests[0] == digests[1] == expected


_NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "0.001", "3.5e2"])


def _cost_texts():
    return st.recursive(
        st.one_of(st.just("z"), _NUMBERS),
        lambda sub: st.one_of(
            sub.map(lambda a: f"(-{a})"),
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(sub, st.integers(-2, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(sorted(ELEMENTARY_FUNCTIONS)), sub).map(
                lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=6,
    )


@settings(max_examples=40, deadline=None)
@given(cost=_cost_texts(), K=st.sampled_from(["-1", "0", "1"]), dim=st.integers(1, 4),
       diameter=st.sampled_from(["0", "-1", "inf", "nan", "1e-3", "0.5", "2", "5"]),
       grid=st.integers(256, 1024), with_csv=st.booleans())
def test_check_exits_with_a_code_and_never_raises(tmp_path_factory, cost, K, dim, diameter,
                                                   grid, with_csv):
    path = tmp_path_factory.mktemp("check") / "scan.csv"
    argv = ["check", f"--cost={cost}", "--K", K, "--dim", str(dim),
            f"--diameter={diameter}", "--grid", str(grid)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with np.errstate(all="ignore"):
            code = main(argv + (["--csv", str(path)] if with_csv else []))
    assert code in (0, 1, 2, 3)
    if with_csv and code in (0, 1):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS and len(rows) == 1 + grid
        assert all(len(row) == 8 for row in rows[1:])
        np.array(rows[1:], dtype=float)
    else:
        assert not path.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


_COMPONENTS = st.one_of(st.sampled_from([0.0, 1e200, -1e200, 1.0, -0.5, 1e-5, 5e4]),
                        st.floats(-3.0, 3.0, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(cost=st.sampled_from(sorted(PRESETS) + ["quartic(0.01)", "z^2/2 + z^4"]),
       K=st.sampled_from(["-1", "0", "1"]), dim=st.integers(1, 4),
       diameter=st.sampled_from(["0.5", "1", "2", "3"]),
       method=st.sampled_from(["closed", "jacobi", "oracle", "all"]),
       data=st.data())
def test_eval_exits_with_a_code_and_never_raises(cost, K, dim, diameter, method, data):
    vectors = [data.draw(st.lists(_COMPONENTS, min_size=dim, max_size=dim), label=name)
               for name in "uvw"]
    argv = ["eval", f"--cost={cost}", "--K", K, "--dim", str(dim), f"--diameter={diameter}",
            *(f"--{name}=" + ",".join(map(repr, vec)) for name, vec in zip("uvw", vectors)),
            "--method", method, "--json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)


_ODD_PERTURBED = "z^2/2 + 1e-7*z^3 + 1e4*z^6"


def _invariant_argvs(cost, K, diameter, zmax):
    """check and eval argument lists for one cost, with --json, eval at
    |v| = 0.5 zmax."""
    common = [f"--cost={cost}", "--K", K, "--dim", "2", f"--diameter={diameter!r}", "--json"]
    vectors = ["--u=1,0", f"--v={0.3 * zmax!r},{0.4 * zmax!r}", "--w=0.6,0.8"]
    return [["check", *common, "--grid", "256"], ["eval", *common, *vectors]]


@pytest.mark.parametrize("command", ["check", "eval"])
def test_odd_perturbed_cost_exit_2(capsys, command):
    # its z^3 term is below 1e-10 of the largest Taylor coefficient, 1e4,
    # not of l''(0)/2: it is rejected as odd, not left to the origin series
    argv = _invariant_argvs(_ODD_PERTURBED, "0", 1e-3, 1e-3)[command == "eval"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "not-even at z=0.0" in err


@settings(max_examples=40, deadline=None)
@given(even=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4),
       c3=st.one_of(st.just(0.0), st.floats(-14.0, 0.0).map(lambda e: 10.0 ** e),
                    st.floats(-14.0, 0.0).map(lambda e: -10.0 ** e)),
       K=st.sampled_from(["-1", "0", "1"]), diameter=st.floats(1e-3, 1.0))
@example(even=[0.0, 0.5, 0.0, 1e4], c3=1e-7, K="0", diameter=1e-3)
def test_cost_is_rejected_or_never_a_numeric_failure(even, c3, K, diameter):
    # an even polynomial plus c3*z^3: either construction rejects it, or
    # neither check nor eval meets a numeric failure (exit 3)
    cost = " + ".join(f"{c!r}*z^{2 * k}" for k, c in enumerate(even)) + f" + {c3!r}*z^3"
    try:
        zmax = make_cost(cost, diameter).zmax
    except AdmissibilityError:
        return
    for argv in _invariant_argvs(cost, K, diameter, zmax):
        code, _ = cli_report(argv)
        assert code != 3, argv


def test_quartic_tiny_eps_matches_its_expression(capsys):
    # the analytic inverse of quartic(1e-240) keeps its digits, so check and
    # eval give what the Newton inverse of the same expression gives
    for argv in _invariant_argvs("quartic(1e-240)", "0", 1.0, 1.0):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        text_argv = [a.replace("quartic(1e-240)", "z^2/2 - 1e-240*z^4") for a in argv]
        code, text_out, _ = run(capsys, *text_argv)
        preset_report, text_report = json.loads(out), json.loads(text_out)
        for report in (preset_report, text_report):
            report.pop("cost"), report.pop("wall_time_ms")
        assert preset_report == text_report


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for code, meaning in [("0", "not \"fails\""), ("1", "fails"), ("2", "inadmissible cost"),
                          ("3", "numeric failure")]:
        assert any(line.split()[:1] == [code] and meaning in line
                   for line in out.splitlines()), code
