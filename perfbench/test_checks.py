"""Self-test of the benchmark's checks: each one rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py -q

Outputs come from the real CLI, so the checks are also shown to accept what
the program prints today.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mtwcheck import cli  # noqa: E402

CASES = {case.preset: case for case in checks.CASES}


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli.main(list(argv))
    return exit_code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("preset", sorted(CASES))
def test_scan_check_rejects_flipped_verdict(preset):
    case = CASES[preset]
    argv = workloads._scan_argv(preset, case, 3, 4096)
    exit_code, report = _invoke(argv)
    checks.check_scan(preset, case, 3, 4096, exit_code, report)
    flipped = checks.A3S if case.verdict == checks.A3W_ONLY else checks.A3W_ONLY
    with pytest.raises(checks.CheckFailure, match="verdict"):
        checks.check_scan(preset, case, 3, 4096, exit_code, {**report, "verdict": flipped})


def test_scan_check_rejects_moved_min_slack():
    case = CASES["neg-cosh"]
    exit_code, report = _invoke(workloads._scan_argv("neg-cosh", case, 2, 4096))
    slacks = dict(report["min_slacks"], gamma=report["min_slacks"]["gamma"] + 1e-5)
    with pytest.raises(checks.CheckFailure, match="gamma"):
        checks.check_scan("neg-cosh", case, 2, 4096, exit_code,
                          {**report, "min_slacks": slacks})


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """The real --csv output of every preset at the scan-export grid."""
    out_dir = tmp_path_factory.mktemp("csv")
    columns = {}
    for i, case in enumerate(checks.CASES):
        op = workloads._export_op(case, str(out_dir), i)
        exit_code, report = _invoke(op.argv)
        op.check(exit_code, report)
        columns[case.preset] = checks.read_csv_columns(op.argv[-1])
    return columns


@pytest.mark.parametrize("column", ["alpha", "beta", "gamma", "delta"])
@pytest.mark.parametrize("preset", sorted(CASES))
def test_csv_check_rejects_shifted_column(exported, preset, column):
    case = CASES[preset]
    columns = dict(exported[preset])
    checks.check_csv_columns(preset, case, workloads.EXPORT_GRID, columns)
    # the quartic form holds to 10% only, so its shift is 10% of -8*eps
    shift = 1e-6 if case.approx is None else 2.0 * case.approx * 8.0 * checks.QUARTIC_EPS
    columns[column] = columns[column] + shift
    with pytest.raises(checks.CheckFailure, match=column):
        checks.check_csv_columns(preset, case, workloads.EXPORT_GRID, columns)


def _route_reports():
    ops = workloads.make_ops("routes", 7, None)
    return [(op.label, *_invoke(op.argv)) for op in ops[::12]]


def test_routes_check_rejects_swapped_value():
    for label, exit_code, report in _route_reports():
        checks.check_routes(label, exit_code, report)
        values = dict(report["values"])
        values["closed"], values["oracle"] = values["oracle"], values["closed"]
        with pytest.raises(checks.CheckFailure, match="closed .* and jacobi"):
            checks.check_routes(label, exit_code, {**report, "values": values})


def test_routes_check_rejects_value_of_another_input():
    reports = _route_reports()
    for (label, exit_code, report), (_, _, other) in zip(reports, reports[1:] + reports[:1]):
        values = dict(report["values"], closed=other["values"]["closed"])
        with pytest.raises(checks.CheckFailure, match="disagree"):
            checks.check_routes(label, exit_code, {**report, "values": values})


class _FakeCli:
    """Prints a fixed report, standing in for mtwcheck.cli."""

    def __init__(self, report, exit_code=0):
        self.report, self.exit_code = report, exit_code

    def main(self, argv):
        print(json.dumps(self.report))
        return self.exit_code


def test_runner_counts_known_faults_as_failed_and_others_as_wrong():
    case = CASES["log-cosh"]
    report = {"verdict": "fails", "grid": 4096, "dimension": 2, "min_slacks": {}}
    known = workloads._scan_op(case.expression, case, 2, 4096, known_fault=True)
    unknown = workloads._scan_op(case.preset, case, 2, 4096)
    runner = run.Runner(_FakeCli(report, exit_code=1), caches=[], kernels=("scalar",))
    runner.run_op(known)
    assert (runner.attempted, runner.failed, runner.mismatches) == (1, 1, [])
    runner.run_op(unknown)
    assert (runner.attempted, runner.failed, len(runner.mismatches)) == (2, 1, 1)


def test_newton_known_faults_are_the_log_cosh_expressions():
    ops = workloads.make_ops("scan-newton", 3, None)
    faulty = sorted({op.argv[1] for op in ops if op.known_fault})
    assert faulty == ["--cost=-log(cosh(z))", "--cost=log(cosh(z))"]
    assert sum(op.known_fault for op in ops) == 4


def test_only_routes_draws_from_the_seed():
    for name in workloads.WORKLOADS:
        first = [op.argv for op in workloads.make_ops(name, 5, "out")]
        assert first == [op.argv for op in workloads.make_ops(name, 5, "out")]
        other = [op.argv for op in workloads.make_ops(name, 6, "out")]
        assert (first != other) == (name == "routes")


def test_routes_vectors_have_the_stated_lengths():
    for op in workloads.make_ops("routes", 11, None):
        args = dict(a.split("=", 1) for a in op.argv if a.startswith("--") and "=" in a)
        u, v, w = (np.array([float(x) for x in args[k].split(",")])
                   for k in ("--u", "--v", "--w"))
        case = CASES[args["--cost"]]
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12 and abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert 0.1 <= np.linalg.norm(v) <= 0.9 * case.zmax
