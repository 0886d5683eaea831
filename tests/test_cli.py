"""Run configs, serialization invariants, subcommands, and exit codes."""

import argparse
import csv
import json
import math
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gravortex import cli, solvers
from gravortex.cli import (
    _FORMAT,
    ConfigError,
    RunConfig,
    _build_parser,
    _load_config,
    config_from_dict,
    main,
    parse_real,
    sweep_alpha,
)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_parse_real_accepts_rationals():
    assert parse_real("1/16", "x") == 0.0625
    assert parse_real(3, "x") == 3.0
    assert parse_real("2.5", "x") == 2.5
    with pytest.raises(ConfigError):
        parse_real("three", "x")
    with pytest.raises(ConfigError):
        parse_real(True, "x")
    with pytest.raises(ConfigError):
        parse_real("1/0", "x")
    with pytest.raises(ConfigError, match="value must be finite"):
        parse_real("1e400", "x")


def test_config_round_trip_is_identity():
    data = {
        "command": "SolveGravitating",
        "surface": {"model": "torus", "resolution": 24},
        "divisor": [[0.25, 0.25, 1]],
        "tau": 2.5,
        "alpha": 0.05,
    }
    config = config_from_dict(data)
    echoed = config.to_dict()
    again = config_from_dict(echoed)
    assert again == config
    assert again.to_dict() == echoed
    # all defaults are explicit in the serialized form
    assert set(echoed) == {
        "command", "surface", "divisor", "tau", "alpha", "alpha_values", "genus", "triple",
        "sigma", "solver", "output",
    }
    assert echoed["solver"]["newton_tol"] == 1e-10


def test_config_rejects_removed_linear_tol():
    # records written while the linear tolerance was a solver field carry it;
    # the forcing term replaced it, so re-running such a record names the key
    record = config_from_dict({"command": "SolveVortex", "divisor": [[0.25, 0.25, 1]],
                               "tau": 2.5}).to_dict()
    assert "linear_tol" not in record["solver"]
    record["solver"]["linear_tol"] = 1e-12
    with pytest.raises(ConfigError) as err:
        config_from_dict(record)
    assert err.value.path == "solver.linear_tol"


@pytest.mark.parametrize("path", ["solver.armijo_constant", "solver.linear_maxiter",
                                  "solver.divergence_norm", "warm_start", "output.sweep_jsonl"])
def test_config_rejects_removed_keys(path):
    # records written while these were config fields carry them; no caller set
    # them to a second value, so re-running such a record names the dropped key
    record = config_from_dict({"command": "SweepAlpha", "divisor": [[0.25, 0.25, 1]],
                               "alpha_values": [0, 0.02]}).to_dict()
    *parents, key = path.split(".")
    node = record
    for part in parents:
        node = node[part]
    assert key not in node
    node[key] = {"warm_start": True, "sweep_jsonl": "sweep.jsonl"}.get(key, 8)
    with pytest.raises(ConfigError) as err:
        config_from_dict(record)
    assert err.value.path == path


def test_config_rational_strings_stay_exact():
    config = config_from_dict({"command": "Oracle", "divisor": [[0, 0, 1], ["inf", 1]],
                               "tau": "8", "alpha": "1/16"})
    assert config.to_dict()["alpha"] == "1/16"
    assert config.alpha_value == 0.0625
    assert config.alpha_rational * config.tau_rational * 2 == 1


def test_config_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "divisor": [], "typo": 1})
    assert err.value.path == "typo"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "surface": {"model": "torus", "res": 8}})
    assert err.value.path == "surface.res"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "solver": {"newton_tolerance": 1e-8}})
    assert err.value.path == "solver.newton_tolerance"


def test_config_field_validation_paths():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Nope"})
    assert err.value.path == "command"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "tau": -2})
    assert err.value.path == "tau"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "divisor": [[0.1, 0.2]]})
    assert err.value.path == "divisor[0]"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"command": "Classify", "surface": {"resolution": 2}})
    assert err.value.path == "surface.resolution"
    for block, key, value in [("solver", "newton_tol", -1), ("solver", "newton_tol", 0),
                              ("solver", "max_newton_iters", 0),
                              ("solver", "max_newton_iters", 2.5)]:
        with pytest.raises(ConfigError) as err:
            config_from_dict({"command": "SolveGravitating", block: {key: value}})
        assert err.value.path == f"{block}.{key}"


def test_default_config_construction():
    config = RunConfig(command="Classify")
    assert config.surface_model == "torus"
    assert config.solver.max_newton_iters == 50


# ---------------------------------------------------------------------------
# the format table is the config format
# ---------------------------------------------------------------------------


def test_format_table_has_one_entry_per_run_config_field():
    # command comes from the subcommand and the solver block is SolverConfig's
    table_fields = sorted(name for name, _ in _FORMAT.values())
    assert table_fields == sorted(f.name for f in fields(RunConfig)
                                  if f.name not in ("command", "solver"))


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def test_record_config_paths_are_the_table_paths():
    solver_paths = [f"solver.{f.name}" for f in fields(solvers.SolverConfig)]
    assert sorted(dict(_leaves(RunConfig(command="Classify").to_dict()))) == sorted(
        [*_FORMAT, "command", *solver_paths])


# every config flag: (the path it sets, an argument, the same value as --set JSON)
_FLAG_FORMS = {
    "--model": ("surface.model", "sphere", '"sphere"'),
    "--resolution": ("surface.resolution", "24", "24"),
    "--tau": ("tau", "1/3", '"1/3"'),
    "--alpha": ("alpha", "0.5", '"0.5"'),
    "--sigma": ("sigma", "2/5", '"2/5"'),
    "--genus": ("genus", "1", "1"),
    "--alphas": ("alpha_values", "0,1/2,,1", '["0", "1/2", "1"]'),
    "--triple": ("triple", "2,1,3,1", "[2, 1, 3, 1]"),
    "--fields-csv": ("output.fields_csv", "f.csv", '"f.csv"'),
    "--summary-csv": ("output.summary_csv", "s.csv", '"s.csv"'),
    "--record": ("output.record_path", "r.json", '"r.json"'),
}
_SUBCOMMANDS = {"classify": "Classify", "solve": "SolveVortex", "sweep": "SweepAlpha",
                "triple": "Triple", "oracle": "Oracle"}


def _config_flags():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in subparsers.choices.items() for action in parser._actions
            if action.option_strings[0] not in ("-h", "--config", "--set", "--kind")]


@pytest.mark.parametrize("subcommand,flag", _config_flags())
def test_each_flag_equals_its_set_form(subcommand, flag):
    path, argument, json_value = _FLAG_FORMS[flag]
    command = _SUBCOMMANDS[subcommand]
    parser = _build_parser()
    by_flag = _load_config(parser.parse_args([subcommand, flag, argument]), command)
    by_set = _load_config(parser.parse_args([subcommand, "--set", f"{path}={json_value}"]),
                          command)
    assert by_flag == by_set != RunConfig(command=command)


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_every_config_path_with_its_default():
    rows = re.findall(r"^\| `([\w.]+)` \| `([^`]*)` \|", _readme(), re.MULTILINE)
    defaults = dict(_leaves(RunConfig(command="Classify").to_dict()))
    del defaults["command"]
    assert {path: json.loads(default) for path, default in rows} == defaults


def _readme_command_lines():
    block = _readme().split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gravortex ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert [argv[0] for argv in lines] == ["classify", "oracle", "triple", "solve", "sweep"]
    for argv in lines:
        assert main(argv) == 0, capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.json", "sweep.jsonl", "sweep_summary.csv"]


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_subcommand(capsys):
    code, out, _ = _run(capsys, ["classify", "--set", "divisor=[[0,0,3],[1,0,1]]"])
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == {"verdict": "Unstable", "witness": 0}
    assert record["report"] is None
    assert record["grid_checksum"] is None
    assert record["version"]


def test_oracle_subcommand_boundary_coupling(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "--genus", "0", "--tau", "8", "--alpha", "1/16",
        "--set", 'divisor=[[0,0,1],["inf",1]]',
    ])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["verdict"] == "Exists"
    assert verdict["theorem_tag"] == "Theorem 3.5/3.7"


def test_oracle_superimposed(capsys):
    code, out, _ = _run(capsys, [
        "oracle", "--genus", "0", "--tau", "8", "--alpha", "0.01",
        "--set", "divisor=[[0,0,2]]",
    ])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["verdict"] == "NotExists"
    assert verdict["theorem_tag"] == "Theorem 3.8"


def test_oracle_applies_the_degree_bound_on_the_torus(capsys):
    # the solver reports NoSolution for these data; the oracle agrees
    code, out, _ = _run(capsys, [
        "oracle", "--genus", "1", "--tau", "2", "--alpha", "0.035",
        "--set", "divisor=[[0.25,0.25,1]]",
    ])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["verdict"] == "NotExists"
    assert verdict["theorem_tag"] == "degree identity"


def test_triple_subcommand(capsys):
    code, out, _ = _run(capsys, ["triple", "--triple", "2,1,3,1", "--sigma", "1/3"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["sigma_m"] == "1/2"
    assert verdict["sigma_M"] == "2"
    assert verdict["slope"] == "13/9"
    # equal ranks leave the window unbounded; null stands in for +inf
    code, out, _ = _run(capsys, ["triple", "--triple", "2,2,3,1"])
    assert json.loads(out)["verdict"]["sigma_M"] is None


def test_solve_subcommand_and_determinism(capsys, tmp_path):
    argv = [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]",
    ]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    rec1, rec2 = json.loads(out1), json.loads(out2)
    assert rec1["report"]["converged"]
    assert abs(rec1["identity"]["degree_identity"]) <= 1e-6
    assert rec1["grid_checksum"] == rec2["grid_checksum"]
    rec1["wall_time"] = rec2["wall_time"] = 0.0
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2, sort_keys=True)


def test_solve_failure_exit_code(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "1.8", "--set", "divisor=[[0.25,0.25,1]]",
    ])
    assert code == 2
    record = json.loads(out)
    assert not record["report"]["converged"]
    assert record["report"]["failure_reason"]


def test_solve_record_names_identity_failure(capsys, monkeypatch):
    real = solvers.identity_report
    monkeypatch.setattr(solvers, "identity_report",
                        lambda state: replace(real(state), degree_identity=1e-3))
    code, out, _ = _run(capsys, [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]",
    ])
    assert code == 2
    report = json.loads(out)["report"]
    assert not report["converged"]
    assert report["failure_reason"] == "IdentityFailure"


def test_solve_fields_csv(capsys, tmp_path):
    out_csv = tmp_path / "fields.csv"
    code, out, _ = _run(capsys, [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]",
        "--fields-csv", str(out_csv),
    ])
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["x", "y", "f", "v", "density", "S"]
    assert len(rows) == 1 + 16 * 16
    assert float(rows[1][4]) == 1.0  # vortex background density


def test_solve_record_file_round_trip(capsys, tmp_path):
    record_path = tmp_path / "record.json"
    config_path = tmp_path / "config.json"
    code, out, _ = _run(capsys, [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]",
        "--record", str(record_path),
    ])
    assert code == 0
    record = json.loads(record_path.read_text())
    config_path.write_text(json.dumps(record["config"]))
    code2, out2, _ = _run(capsys, ["solve", "--kind", "vortex", "--config", str(config_path)])
    assert code2 == 0
    rerun = json.loads(out2)
    assert rerun["config"] == record["config"]
    assert abs(rerun["report"]["final_residual"]
               - record["report"]["final_residual"]) <= 1e-12


def test_sweep_subcommand(capsys, tmp_path):
    jsonl = tmp_path / "sweep.jsonl"
    summary = tmp_path / "summary.csv"
    code, out, _ = _run(capsys, [
        "sweep", "--model", "torus", "--resolution", "16", "--tau", "2.5",
        "--set", "divisor=[[0.25,0.25,1]]", "--alphas", "0,0.02,0.04",
        "--record", str(jsonl), "--summary-csv", str(summary),
    ])
    assert code == 0
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [r["config"]["alpha"] for r in records] == [0.0, 0.02, 0.04]
    # one records destination for solve and sweep alike
    assert {r["config"]["output"]["record_path"] for r in records} == {str(jsonl)}
    assert all(r["report"]["converged"] for r in records)
    rows = list(csv.reader(summary.open()))
    assert rows[0] == ["alpha", "converged", "final_residual", "min_density", "gauss_bonnet",
                       "iterations", "alpha_reached", "failure_reason", "coarse_resolution"]
    assert len(rows) == 4
    assert rows[1][1] == "true"
    assert float(rows[3][3]) > 0  # min density stays positive in this regime
    for row, rec in zip(rows[1:], records):
        assert int(row[5]) == rec["report"]["iterations"]
        assert float(row[6]) == rec["report"]["alpha_reached"] == rec["config"]["alpha"]
        assert row[7] == row[8] == ""  # certified, and n = 16 is not sequenced


def test_sweep_summary_diagnoses_a_failed_row(capsys, tmp_path):
    summary = tmp_path / "summary.csv"
    code, _, _ = _run(capsys, [
        "sweep", "--model", "torus", "--resolution", "16", "--tau", "1.8",
        "--set", "divisor=[[0.25,0.25,1]]", "--alphas", "0,0.02",
        "--summary-csv", str(summary),
    ])
    assert code == 0  # below the degree bound: every row fails, the sweep completes
    rows = list(csv.reader(summary.open()))[1:]
    assert [row[1] for row in rows] == ["false", "false"]
    assert [row[7] for row in rows] == ["StepFloor", "StepFloor"]
    assert [float(row[6]) for row in rows] == [0.0, 0.0]
    assert all(int(row[5]) > 0 for row in rows)


def _spied_sweep(monkeypatch, data, fail_at=()):
    """sweep_alpha's records and, per Newton loop, (start state, predicted, result); a loop
    started at a coupling in ``fail_at`` fails at once."""
    loops, newton_loop = [], solvers._newton_loop

    def spy(state, config, predicted=False):
        if state.spec.alpha in fail_at:
            out = solvers._LoopResult(state, 1, 1.0, solvers.FailureReason.MAX_ITERS, "forced")
        else:
            out = newton_loop(state, config, predicted)
        loops.append((state, predicted, out))
        return out

    monkeypatch.setattr(solvers, "_newton_loop", spy)
    return sweep_alpha(config_from_dict({"command": "SweepAlpha", **data})), loops


def _assert_on_the_polynomial(start, rows):
    """``start`` is (f, v) extrapolated exactly by the Lagrange polynomial in alpha through
    ``rows`` (two: the secant, three: the quadratic), v re-centred to mean zero."""
    alphas = [row.spec.alpha for row in rows]
    weights = [math.prod((start.spec.alpha - b) / (a - b) for j, b in enumerate(alphas) if j != i)
               for i, a in enumerate(alphas)]
    f = sum(w * row.f.values for w, row in zip(weights, rows))
    v = sum(w * row.v.values for w, row in zip(weights, rows))
    assert np.array_equal(start.f.values, f)
    grid = start.spec.grid
    assert np.array_equal(start.v.values,
                          v - float(np.dot(grid.quad_weights, v)) / (2.0 * math.pi))


def test_sweep_rows_start_on_the_secant_through_the_last_two_certified_rows(monkeypatch):
    # the benchmark's sweep shape: n = 64, tau = 6, two points, eight couplings up to 0.035
    data = {"surface": {"model": "torus", "resolution": 64},
            "divisor": [[0.1, 0.2, 1], [0.6, 0.71, 1]], "tau": 6.0,
            "alpha_values": [0.035 * k / 7 for k in range(8)]}
    records, loops = _spied_sweep(monkeypatch, data)
    assert all(r["report"]["converged"] for r in records)
    # one loop per row: the cold alpha = 0 row, a warm start, then six predicted starts
    assert [predicted for _, predicted, _ in loops] == [False, False] + [True] * 6
    certified = [out.state for _, _, out in loops]
    # row 3 on the secant through rows 1 and 2, every later row on the quadratic through the
    # last three
    _assert_on_the_polynomial(loops[2][0], certified[:2])
    for k in range(3, len(loops)):
        _assert_on_the_polynomial(loops[k][0], certified[k - 3:k])
    # a first step solved to the forcing floor: two Newton steps from the secant, one from the
    # quadratic, three from a warm start
    steps = [r["report"]["iterations"] for r in records]
    assert steps[2:] == [2] + [1] * 5
    monkeypatch.setattr(cli, "advance_gravitating", lambda state, alpha, config, history:
                        solvers.advance_gravitating(state, alpha, config))
    plain, _ = _spied_sweep(monkeypatch, data)
    assert all(r["report"]["converged"] for r in plain)
    assert sum(r["report"]["iterations"] for r in plain) > sum(steps)
    assert max(abs(a["report"]["c_prime"] - b["report"]["c_prime"])
               for a, b in zip(records, plain)) <= 1e-9


def test_a_failed_sweep_row_is_no_point_of_the_secant(monkeypatch):
    data = {"surface": {"model": "torus", "resolution": 16}, "divisor": [[0.25, 0.25, 1]],
            "tau": 2.5, "alpha_values": [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]}
    records, loops = _spied_sweep(monkeypatch, data, fail_at=(0.03,))
    reports = [r["report"] for r in records]
    assert [r["converged"] for r in reports] == [True, True, True, False, True, True]
    assert reports[3]["alpha_reached"] == 0.02
    rows = [out.state for _, _, out in loops]
    # 0.03 and 0.04 start on the quadratic through 0, 0.01 and 0.02; 0.05 through 0.01, 0.02
    # and 0.04
    _assert_on_the_polynomial(loops[3][0], rows[:3])
    _assert_on_the_polynomial(loops[4][0], rows[:3])
    _assert_on_the_polynomial(loops[5][0], [rows[1], rows[2], rows[4]])
    assert [predicted for _, predicted, _ in loops] == [False, False] + [True] * 4


def test_a_sweep_toward_the_torus_concentration_onset_takes_no_more_steps_than_the_secant():
    # the one-point torus branch toward its concentration onset, alpha = 0 .. 0.14: secant
    # starts, their first step forced by the start's residual, took 50 Newton steps here;
    # quadratic starts take 37
    data = {"command": "SweepAlpha", "surface": {"model": "torus", "resolution": 32},
            "divisor": [[0.25, 0.25, 1]], "tau": 6.0,
            "alpha_values": [0.01 * k for k in range(15)]}
    reports = [r["report"] for r in sweep_alpha(config_from_dict(data))]
    assert all(r["converged"] for r in reports)
    assert sum(r["iterations"] for r in reports) <= 50


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON token")


def test_sweep_records_are_strict_json(capsys, tmp_path):
    # the alpha = 0.2 and 0.4 rows end StepFloor with a negative metric density,
    # where the Gauss-Bonnet defect is NaN
    jsonl, summary = tmp_path / "sweep.jsonl", tmp_path / "summary.csv"
    code, out, _ = _run(capsys, [
        "sweep", "--model", "torus", "--resolution", "16", "--tau", "6",
        "--alphas", "0,0.05,0.1,0.2,0.4", "--set", "divisor=[[0.25,0.25,1]]",
        "--record", str(jsonl), "--summary-csv", str(summary),
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines == jsonl.read_text().splitlines()
    records = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    assert len(records) == 5
    assert sum(not r["report"]["converged"] for r in records) == 2
    for rec in records:
        ident = rec["identity"]
        assert (ident["gauss_bonnet"] is None) == (ident["min_density"] <= 0.0)
    rows = list(csv.reader(summary.open()))[1:]
    assert [row[4] == "" for row in rows] == [r["identity"]["gauss_bonnet"] is None
                                              for r in records]


def test_solve_record_names_the_coarse_grid(capsys):
    argv = [
        "solve", "--kind", "gravitating", "--model", "torus", "--resolution", "64",
        "--tau", "6", "--alpha", "0.035", "--set", "divisor=[[0.1,0.2,1],[0.6,0.71,1]]",
    ]
    records = []
    for _ in range(2):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        records.append(json.loads(out))
        records[-1]["wall_time"] = 0.0
    assert records[0]["report"]["coarse_resolution"] == 16
    assert json.dumps(records[0], sort_keys=True) == json.dumps(records[1], sort_keys=True)


def test_data_that_fail_the_degree_bound_exit_two_and_every_sweep_row_is_no_solution(
        capsys, tmp_path):
    surface = ["--model", "torus", "--resolution", "64", "--tau", "2",
               "--set", "divisor=[[0.25,0.25,1]]"]
    code, out, _ = _run(capsys, ["solve", "--kind", "gravitating", *surface, "--alpha", "0.035"])
    assert code == 2
    report = json.loads(out)["report"]
    assert report["failure_reason"] == "NoSolution" and report["coarse_resolution"] is None
    assert report["message"].count("degree bound") == 1
    code, out, _ = _run(capsys, ["sweep", *surface, "--alphas", "0,0.01,0.035",
                                 "--summary-csv", str(tmp_path / "summary.csv")])
    assert code == 0
    reports = [json.loads(line)["report"] for line in out.splitlines()]
    assert [r["failure_reason"] for r in reports] == ["NoSolution"] * 3


def test_sweep_rejects_bad_alpha_lists(capsys):
    code, _, err = _run(capsys, [
        "sweep", "--model", "torus", "--resolution", "16", "--tau", "2.5",
        "--set", "divisor=[[0.25,0.25,1]]", "--alphas", "0.01,0.02",
    ])
    assert code == 1
    assert json.loads(err)["error"]["field"] == "alpha_values[0]"
    code, _, err = _run(capsys, [
        "sweep", "--model", "torus", "--resolution", "16", "--tau", "2.5",
        "--set", "divisor=[[0.25,0.25,1]]", "--alphas", "",
    ])
    assert code == 1
    assert json.loads(err)["error"]["field"] == "alpha_values"


def test_solve_rejects_bad_solver_setting_before_solving(capsys):
    # without the check, newton_tol = -1 runs Newton to StepFloor and exits 2
    code, out, err = _run(capsys, [
        "solve", "--kind", "vortex", "--model", "torus", "--resolution", "16",
        "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]", "--set", "solver.newton_tol=-1",
    ])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["field"] == "solver.newton_tol"


_TORUS = ["--model", "torus", "--resolution", "8", "--set", "divisor=[[0.25,0.25,1]]"]


@pytest.mark.parametrize("argv,field", [
    (["solve", "--tau", "1e400", *_TORUS], "tau"),
    (["solve", "--kind", "gravitating", "--alpha", "1e400", *_TORUS], "alpha"),
    (["sweep", "--alphas", "0,1e400", *_TORUS], "alpha_values[1]"),
    (["solve", *_TORUS, "--set", 'solver.newton_tol="1e400"'], "solver.newton_tol"),
    (["sweep", *_TORUS, "--set", 'alpha_values=[0,"1e400"]'], "alpha_values[1]"),
    (["solve", "--set", 'divisor=[["1e400",0.2,1]]'], "divisor[0][0]"),
    # JSON integers beyond the float range, as --set writes them
    (["solve", "--set", f"tau={10**400}", *_TORUS], "tau"),
    (["solve", "--kind", "gravitating", "--set", f"alpha={10**400}", *_TORUS], "alpha"),
    # JSON float literals beyond the float range, kept as their exact strings
    (["solve", "--set", "tau=1e400", *_TORUS], "tau"),
])
def test_numbers_beyond_float_range_name_their_field(capsys, argv, field):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["field"] == field and error["message"] == "value must be finite"


def test_oracle_keeps_exact_rationals_beyond_float_range(capsys, tmp_path):
    config = tmp_path / "tau.json"
    config.write_text('{"tau": 1e400}')
    for tau in (["--tau", "1e400"], ["--set", f"tau={10**400}"], ["--set", "tau=1e400"],
                ["--config", str(config)]):
        code, out, _ = _run(capsys, ["oracle", *tau, "--set", "divisor=[[0.25,0.25,1]]"])
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["verdict"] == "ExistsUnique"
        assert f"N=1 < {5 * 10**399} holds" in verdict["reason"]  # tau Vol/(4 pi) = 10^400 / 2


def test_usage_errors_exit_one(capsys):
    assert main(["bogus-subcommand"]) == 1
    assert main([]) == 1
    capsys.readouterr()  # discard argparse usage text
    code, _, err = _run(capsys, ["classify", "--set", "divisor=[[0,0,3]]",
                                 "--set", "mystery=1"])
    assert code == 1
    assert json.loads(err)["error"]["field"] == "mystery"


def test_eb_subcommand_rejects_explicit_alpha(capsys):
    code, _, err = _run(capsys, [
        "solve", "--kind", "eb", "--model", "sphere", "--resolution", "16",
        "--tau", "8", "--alpha", "0.1", "--set", 'divisor=[[0,0,1],["inf",1]]',
    ])
    assert code == 1
    assert json.loads(err)["error"]["field"] == "alpha"


def test_vortex_subcommand_rejects_explicit_alpha(capsys):
    # a vortex solve has no coupling: the record would echo alpha with alpha_reached 0
    code, out, err = _run(capsys, ["solve", "--kind", "vortex", "--alpha", "0.1", *_TORUS])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["field"] == "alpha"


def test_eb_below_degree_bound_names_tau(capsys):
    # N = 2 is not below tau/2 = 1: the error names tau, not the whole config
    code, out, err = _run(capsys, [
        "solve", "--kind", "eb", "--model", "sphere", "--resolution", "8",
        "--tau", "2", "--set", 'divisor=[[0,0,1],["inf",1]]',
    ])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["field"] == "tau"
    assert "N < tau/2" in error["message"]


def test_eb_on_torus_names_surface_model(capsys):
    code, out, err = _run(capsys, [
        "solve", "--kind", "eb", "--model", "torus", "--resolution", "8",
        "--tau", "8", "--set", "divisor=[[0.25,0.25,1]]",
    ])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["field"] == "surface.model"
    assert "sphere" in error["message"]


@pytest.mark.parametrize("override", ["schedule.max_step_halvings=3",
                                      "schedule.alpha_targets=[0,0.02]"])
def test_eb_vortex_and_sweep_reject_schedule(capsys, override):
    # the continuation is fixed: no command takes a schedule, SolveGravitating included
    eb = ["solve", "--kind", "eb", "--model", "sphere", "--resolution", "8", "--tau", "8",
          "--set", 'divisor=[[0,0,1],["inf",1]]', "--set", override]
    vortex = ["solve", "--kind", "vortex", "--model", "torus", "--resolution", "8",
              "--tau", "2.5", "--set", "divisor=[[0.25,0.25,1]]", "--set", override]
    sweep = ["sweep", "--model", "torus", "--resolution", "16", "--tau", "2.5",
             "--set", "divisor=[[0.25,0.25,1]]", "--alphas", "0,0.02", "--set", override]
    gravitating = ["solve", "--kind", "gravitating", "--model", "torus", "--resolution", "8",
                   "--tau", "2.5", "--alpha", "0.02", "--set", "divisor=[[0.25,0.25,1]]",
                   "--set", override]
    for argv in (eb, vortex, gravitating, sweep):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["field"] == "schedule"



_SPHERE = ["--model", "sphere", "--resolution", "8", "--tau", "8"]


@pytest.mark.parametrize("argv,field", [
    (["solve", "--kind", "gravitating", "--alpha=-0.1", *_TORUS], "alpha"),
    (["sweep", "--alphas", "0,0.02,0.01", *_TORUS], "alpha_values"),
    (["solve", *_TORUS, "--set", "tau"], "--set"),
    (["triple", "--triple", "1,2"], "--triple"),
    (["triple", "--triple", "a,b,c,d"], "--triple"),
    (["triple"], "triple"),
    (["solve", "--model", "torus", "--set", 'divisor={"p":[0.25,0.25,1]}'], "divisor"),
    (["solve", "--model", "torus", "--set", "divisor=[0.25]"], "divisor[0]"),
    (["solve", "--model", "torus"], "divisor"),
    (["solve", "--model", "torus", "--set", "divisor=[[0.25,0.25,1],[0.25,0.25,1]]"],
     "divisor"),
    (["solve", *_SPHERE, "--set", 'divisor=[["inf",1],["inf",1]]'], "divisor"),
    # distinct in the chart, but closer than the grid can tell apart
    (["solve", *_SPHERE, "--set", "divisor=[[0,0,1],[1e-12,0,1]]"], "divisor"),
    (["solve", *_TORUS, "--set", "tau=true"], "tau"),
    (["solve", *_TORUS, "--set", "tau=[2.5]"], "tau"),
    (["solve", *_TORUS, "--set", "surface.resolution=true"], "surface.resolution"),
    (["solve", *_TORUS, "--set", "surface.resolution=[16]"], "surface.resolution"),
    (["solve", *_TORUS, "--set", 'surface.model="plane"'], "surface.model"),
])
def test_input_checks_name_their_field(capsys, argv, field):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["field"] == field


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "not-an-object"])
def test_config_file_errors_name_the_flag(capsys, tmp_path, content):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, ["classify", "--config", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["field"] == "--config"


@pytest.mark.parametrize("argv,field", [
    (["solve", *_TORUS, "--tau", "2.5", "--record"], "output.record_path"),
    (["solve", *_TORUS, "--tau", "2.5", "--fields-csv"], "output.fields_csv"),
    (["sweep", *_TORUS, "--tau", "2.5", "--alphas", "0", "--summary-csv"], "output.summary_csv"),
], ids=["record", "fields-csv", "summary-csv"])
def test_an_unwritable_output_path_names_its_field(capsys, monkeypatch, tmp_path, argv, field):
    # every output opens before the first solve: no Newton loop runs and no record is printed
    loops, newton_loop = [], solvers._newton_loop
    monkeypatch.setattr(solvers, "_newton_loop",
                        lambda *args: loops.append(args[0]) or newton_loop(*args))
    code, out, err = _run(capsys, [*argv, str(tmp_path / "missing" / "out")])
    assert code == 1 and out == "" and loops == []
    error = json.loads(err)["error"]
    assert error["field"] == field and "No such file or directory" in error["message"]


@pytest.mark.parametrize("argv", [
    ["solve", *_TORUS, "--tau", "2.5", "--fields-csv"],
    ["sweep", *_TORUS, "--tau", "2.5", "--alphas", "0", "--summary-csv"],
], ids=["fields-csv", "summary-csv"])
def test_the_records_and_another_output_cannot_share_a_file(capsys, tmp_path, argv):
    # both files are open while the solve runs, so one path would interleave two outputs
    path = tmp_path / "out"
    code, out, err = _run(capsys, [*argv, str(path), "--record", str(tmp_path / "." / "out")])
    assert code == 1 and out == "" and not path.exists()
    assert json.loads(err)["error"]["field"] == "output.record_path"
