"""CLI surface: exit codes, JSON reports, CSV tables, presets listing."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from mtwcheck import ScanConfig, checker, preset, scan_table
from mtwcheck.cli import CSV_CHUNK_ROWS, CSV_COLUMNS, RunReport, _write_csv, main, resolve_cost


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
    report = RunReport.from_dict(json.loads(out))
    assert RunReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report


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


def test_eval_zero_w_all_routes(capsys):
    code, out, _ = run(capsys, "eval", "--cost", "neg-cosh", "--K", "-1",
                       "--dim", "3", "--u", "1,0,0", "--v", "0,0.5,0",
                       "--w", "0,0,0", "--method", "all", "--json")
    assert code == 0
    values = json.loads(out)["values"]
    for name in ("closed", "jacobi", "oracle"):
        assert values[name] == pytest.approx(0.0, abs=1e-10)


def test_eval_zero_v_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--cost", "sq", "--K", "0", "--dim", "3",
                       "--u", "1,0,0", "--v", "0,0,0", "--w", "0,0,1")
    assert code == 2


def test_eval_dimension_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--cost", "sq", "--K", "0", "--dim", "3",
                       "--u", "1,0", "--v", "0,1,0", "--w", "0,0,1")
    assert code == 2
    assert "components" in err


def test_eval_v_out_of_range_exit_2(capsys):
    code, _, _ = run(capsys, "eval", "--cost", "neg-log1p-cosh", "--K", "-1",
                     "--dim", "3", "--u", "1,0,0", "--v", "0,5,0", "--w", "0,0,1")
    assert code == 2


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


def test_perturb_bad_k_exit_2(capsys):
    code, _, _ = run(capsys, "perturb", "--f=-4*z^2", "--k", "1", "--b", "1")
    assert code == 2


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert "neg-cosh" in out and "A3s at K=-1" in out
    assert "neg-log1p-cos" in out and "A3s at K=+1" in out
    assert "quartic" in out and "perturbation" in out


def test_resolve_cost_forms():
    assert resolve_cost("neg-cosh", 2.0).name == "neg-cosh"
    quartic = resolve_cost("quartic(0.002)", 1.0)
    assert "0.002" in quartic.text
    custom = resolve_cost("z^2/2", 1.0)
    assert custom.name is None


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


def _csv_writer_reference(path, table):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in zip(*(table[name] for name in CSV_COLUMNS)):
            writer.writerow([f"{value:.17g}" for value in row])


@pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
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
    _, table = scan_table(preset("neg-cosh", 2.0), -1,
                          ScanConfig(diameter=2.0, dimension=3, grid_points=4500))
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


@pytest.mark.parametrize("cost,K", [("-log(1-cos(z))", "1"), ("1/z", "0")])
def test_singular_cost_exit_2(capsys, cost, K):
    code, _, err = run(capsys, "check", f"--cost={cost}", "--K", K, "--dim", "2")
    assert code == 2
    assert f"cost {cost!r} is undefined at z = 0.0" in err
    assert "Traceback" not in err
