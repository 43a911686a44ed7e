"""CLI reports against the golden outputs that tests/write_golden.py froze.

The profiles may change in their last bits, so each value is compared with
the bound that its route is held to, not bitwise:

- exit codes, verdicts and every other report field are equal;
- each min_slacks value is within SLACK_TOL, the bound the benchmark holds
  the min slacks to against the closed forms;
- closed and Jacobi values are within VALUE_REL_TOL * max(1, |golden|);
- the oracle, which reads no profile, is within ORACLE_REL_TOL *
  max(1, |golden|).  Its fourth difference divides by (ht*hs)^2, so the
  last bit of a cosh or a log moves it far: numpy's AVX-512 and AVX2 loops
  round those functions differently, and 32 of the golden oracle values
  move by up to 1.29e-5 from one to the other.  The bound is 7.7 times
  that, and 50 times inside the 5e-3 that the oracle is held to against
  the closed formula.

The witness is not compared: on most presets the slack is constant or
identically zero, so the witness is the argmin of roundoff.
"""

import json
import os

import pytest
from helpers import cli_report

SLACK_TOL = 1e-6
VALUE_REL_TOL = 1e-12
ORACLE_REL_TOL = 1e-4

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")) as fh:
    GOLDEN = json.load(fh)


def _label(entry):
    return " ".join(arg for arg in entry["argv"] if arg != "--json")


def _value_tol(name, golden):
    return (ORACLE_REL_TOL if name == "oracle" else VALUE_REL_TOL) * max(1.0, abs(golden))


@pytest.mark.parametrize("entry", GOLDEN, ids=_label)
def test_report_matches_golden_output(entry):
    code, report = cli_report(entry["argv"])
    golden = entry["report"]
    assert code == entry["exit"]
    assert (report is None) == (golden is None)
    if golden is None:
        return
    loose = {"witness", "min_slacks", "values", "deviations"}
    assert {k: v for k, v in report.items() if k not in loose} == \
        {k: v for k, v in golden.items() if k not in loose}
    if golden["min_slacks"] is not None:
        assert report["min_slacks"].keys() == golden["min_slacks"].keys()
        for name, value in golden["min_slacks"].items():
            assert abs(report["min_slacks"][name] - value) <= SLACK_TOL, name
    if golden["values"] is not None:
        values = report["values"]
        assert values.keys() == golden["values"].keys()
        tols = {}
        for name, value in golden["values"].items():
            tols[name] = _value_tol(name, value)
            assert abs(values[name] - value) <= tols[name], name
        # each deviation is |a - b| of two values, so it moves by at most
        # the sum of their bounds
        assert report["deviations"].keys() == golden["deviations"].keys()
        for pair, value in golden["deviations"].items():
            a, b = pair.split("-")
            assert abs(report["deviations"][pair] - value) <= tols[a] + tols[b], pair
