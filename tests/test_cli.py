import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stepplan import cli, qp
from stepplan.cli import (
    EXIT_INFEASIBLE,
    EXIT_LIMITS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from stepplan.errors import PlanningError


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
        "version": 1,
        "name": "cli_hop",
        "robot": {
            "n_legs": 4,
            "leg_offsets": [math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4],
            "l_leg": 0.2 * math.sqrt(2.0),
            "l_bnd": 0.13,
            "d_lim": 0.22,
            "dz_max": 0.08,
        },
        "regions": [
            {"name": "ground", "polygon": [[-0.7, -0.8], [1.5, -0.8], [1.5, 0.8], [-0.7, 0.8]], "z": 0.0}
        ],
        "start": {
            "footholds": [[0.2, 0.2, 0.0], [-0.2, 0.2, 0.0], [-0.2, -0.2, 0.0], [0.2, -0.2, 0.0]],
            "yaw": 0.0,
        },
        "goal": {"position": [0.3, 0.0, 0.0], "yaw": 0.0},
        "max_steps": 16,
        "theta_range": [-0.8, 0.8],
        "n_segments": 4,
        "weights": {"q_goal": [8.0, 8.0, 8.0, 3.0], "q_t": -0.2, "q_r": [0.05, 0.05]},
        "workspace_box": {"min": [-0.75, -0.85, -0.06], "max": [1.55, 0.85, 0.06]},
    }
    path = tmp_path / "hop.json"
    path.write_text(json.dumps(doc))
    return path


class TestPlanCommand:
    def test_plan_writes_outputs(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        svg_path = tmp_path / "plan.svg"
        code = main(
            ["plan", str(scenario_file), "-o", str(plan_path), "--svg", str(svg_path), "--chunk", "2"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "converged" in out
        doc = json.loads(plan_path.read_text())
        assert doc["convergence"]["converged"] is True
        assert svg_path.read_text().startswith("<svg")

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code = main(["plan", str(tmp_path / "nope.json")])
        assert code == EXIT_PARSE

    def test_malformed_scenario_names_key(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1}')
        code = main(["plan", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert "robot" in err

    def test_non_finite_scenario_number_is_parse_error(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        doc["robot"]["l_bnd"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code = main(["plan", str(path), "--chunk", "2"])
        assert code == EXIT_PARSE
        assert "l_bnd must be finite" in capsys.readouterr().err

    def test_unsupported_coc_window_is_parse_error(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        doc["coc_convention"] = "include-current"
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        code = main(["plan", str(path), "--chunk", "2", "-o", str(tmp_path / "plan.json")])
        assert code == EXIT_PARSE
        assert "coc_convention" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()

    def test_unreachable_goal_not_converged(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        doc["goal"]["position"] = [1.2, 0.0, 0.0]  # beyond the step budget
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code = main(["plan", str(path), "--chunk", "2"])
        assert code == EXIT_NOT_CONVERGED


class TestValidateCommand:
    def test_validate_round_trip(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"]) == EXIT_OK
        code = main(["validate", str(plan_path), str(scenario_file)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0 issue" in out

    @pytest.mark.parametrize("key, value", [("start_footholds", [[0.2, 0.2, 0.0]]), ("chunk_steps", -4)])
    def test_malformed_chunk_record_is_a_parse_error(self, scenario_file, tmp_path, capsys, key, value):
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"]) == EXIT_OK
        doc = json.loads(plan_path.read_text())
        doc["chunks"][0][key] = value
        plan_path.write_text(json.dumps(doc))
        assert main(["validate", str(plan_path), str(scenario_file)]) == EXIT_PARSE
        assert f"chunks[0].{key}" in capsys.readouterr().err

    def test_tampered_plan_fails(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"])
        doc = json.loads(plan_path.read_text())
        if doc["steps"]:
            doc["steps"][0]["y"] += 1.5
            plan_path.write_text(json.dumps(doc))
            code = main(["validate", str(plan_path), str(scenario_file)])
            assert code == EXIT_INFEASIBLE

    def test_non_finite_coordinate_fails(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"])
        doc = json.loads(plan_path.read_text())
        assert doc["steps"]
        doc["steps"][0]["x"] = float("nan")
        plan_path.write_text(json.dumps(doc))
        assert "NaN" in plan_path.read_text()
        code = main(["validate", str(plan_path), str(scenario_file)])
        assert code == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "0 issue" not in out and "worst=nan" in out

    def test_step_missing_key_is_parse_error(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"])
        doc = json.loads(plan_path.read_text())
        assert doc["steps"]
        del doc["steps"][0]["x"]
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["validate", str(plan_path), str(scenario_file)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert "steps[0]" in err and "'x'" in err

    def test_bad_segment_count_is_parse_error(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"])
        doc = json.loads(plan_path.read_text())
        doc["chunks"][0]["n_segments"] = 0
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["validate", str(plan_path), str(scenario_file)])
        assert code == EXIT_PARSE
        assert "chunks[0].n_segments" in capsys.readouterr().err

    def test_malformed_robot_block_is_parse_error(self, scenario_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(["plan", str(scenario_file), "-o", str(plan_path), "--chunk", "2"])
        doc = json.loads(plan_path.read_text())
        doc["robot"]["leg_offsets"] = "0 1 2 3"
        plan_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["validate", str(plan_path), str(scenario_file)])
        assert code == EXIT_PARSE
        assert "robot" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_counts(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code = main(
            ["bench", str(scenario_file), "--horizons", "4,8", "-o", str(out_path),
             "--node-limit", "2"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = out_path.read_text().strip().splitlines()
        assert rows[0].startswith("steps,")
        first = rows[1].split(",")
        # binaries: N*N_r + 2*C*N_s + N with N=4, N_r=1, N_s=4, C=1
        assert int(first[1]) == 4 * 1 + 2 * 1 * 4 + 4
        second = rows[2].split(",")
        assert int(second[1]) > int(first[1])
        assert "external baseline" in out

    def test_empty_horizons_usage_error(self, scenario_file, capsys):
        code = main(["bench", str(scenario_file), "--horizons", ""])
        assert code == EXIT_PARSE

    def test_horizon_multiple_enforced(self, scenario_file, capsys):
        code = main(["bench", str(scenario_file), "--horizons", "5"])
        assert code == EXIT_PARSE


class TestLimitFlags:
    @pytest.mark.parametrize("command", [["plan"], ["bench", "--horizons", "4"]])
    @pytest.mark.parametrize(
        "flag, value",
        [("--gap", "-1"), ("--gap", "nan"), ("--gap", "inf"), ("--node-limit", "-3"),
         ("--time-limit", "-1"), ("--time-limit", "0"), ("--time-limit", "nan")],
    )
    def test_meaningless_limit_is_a_parse_error(self, scenario_file, capsys, command, flag, value):
        code = main([command[0], str(scenario_file), *command[1:], flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert f"error: {flag}:" in captured.err
        assert captured.out == ""  # nothing was planned

    def test_boundary_limits_plan(self, scenario_file, capsys):
        code = main(["plan", str(scenario_file), "--chunk", "2", "--gap", "0", "--node-limit", "0",
                     "--time-limit", "60"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert "chunk 0" in capsys.readouterr().out


class TestExportCommand:
    def test_export_lp(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "model.lp"
        code = main(["export-mip", str(scenario_file), "-o", str(out_path), "--horizon", "4"])
        assert code == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("\\ cli_hop")
        assert "Minimize" in text and "Binaries" in text and text.rstrip().endswith("End")


@pytest.fixture()
def infeasible_file(scenario_file, tmp_path):
    doc = json.loads(scenario_file.read_text())
    doc["goal"]["position"] = [1.45, 0.0, 0.0]  # goal footholds reach x = 1.65, past the 1.5 m ground
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    return path


class TestExitCodes:
    """Every command maps an error to the same exit code and one ``error:`` line on stderr;
    ``quiet`` rows must print nothing on stdout and solve no relaxation."""

    @pytest.mark.parametrize(
        "argv, code, message, quiet",
        [
            (["plan", "{infeasible}"], EXIT_INFEASIBLE, "outside every safe region", False),
            (["bench", "{infeasible}", "--horizons", "4"], EXIT_INFEASIBLE, "outside every safe region", True),
            (["export-mip", "{infeasible}", "-o", "{tmp}/model.lp"], EXIT_INFEASIBLE, "outside every safe region",
             False),
            # an unwritable output is found before the scenario is loaded
            (["plan", "{scenario}", "--chunk", "2", "-o", "{tmp}/missing/out"], EXIT_PARSE, "No such file", True),
            (["bench", "{scenario}", "--horizons", "4", "--node-limit", "2", "-o", "{tmp}/missing/out"],
             EXIT_PARSE, "No such file", True),
            (["export-mip", "{scenario}", "--horizon", "4", "-o", "{tmp}/missing/out"], EXIT_PARSE, "No such file",
             True),
            (["plan", "{scenario}", "--chunk", "2", "--svg", "{tmp}/missing/p.svg"], EXIT_PARSE, "No such file",
             True),
            (["plan", "{scenario}", "--chunk", "2", "-o", "{tmp}"], EXIT_PARSE, "Is a directory", True),
            # a bad horizon is reported by the scenario check
            (["bench", "{scenario}", "--horizons", "5"], EXIT_PARSE,
             "max_steps (5) must be a positive multiple of n_legs (4)", True),
            (["export-mip", "{scenario}", "--horizon", "5", "-o", "{tmp}/model.lp"], EXIT_PARSE,
             "max_steps (5) must be a positive multiple of n_legs (4)", True),
            (["plan", "{scenario}", "--chunk", "5"], EXIT_PARSE, "chunk of 20 steps does not fit max_steps 16", True),
            (["validate", "{tmp}/missing.json", "{scenario}"], EXIT_PARSE, "cannot read file", True),
            (["plan", "{broken}"], EXIT_PARSE, "invalid JSON", True),
        ],
        ids=["plan-infeasible", "bench-infeasible", "export-infeasible", "plan-unwritable-output",
             "bench-unwritable-output", "export-unwritable-output", "plan-unwritable-svg", "plan-output-is-a-dir",
             "bench-bad-horizon", "export-bad-horizon", "plan-chunk-too-long", "validate-missing-plan",
             "plan-malformed-json"],
    )
    def test_error_exit_code(self, scenario_file, infeasible_file, tmp_path, capsys, monkeypatch, argv, code,
                             message, quiet):
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        paths = {"scenario": scenario_file, "infeasible": infeasible_file, "broken": broken, "tmp": tmp_path}
        solves, solve = [], qp.BoxQp.solve
        monkeypatch.setattr(qp.BoxQp, "solve", lambda ws, *args, **kw: solves.append(ws) or solve(ws, *args, **kw))
        assert main([arg.format(**paths) for arg in argv]) == code
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and message in errors[0]
        if quiet:
            assert captured.out == "" and not solves

    def test_limits_without_a_plan(self, scenario_file, monkeypatch, capsys):
        def limited(scenario, **kwargs):
            raise PlanningError("chunk 0 hit solver limits (node-limit) with no feasible plan", 0, scenario,
                                reason="limits")

        monkeypatch.setattr(cli, "plan", limited)
        assert main(["plan", str(scenario_file)]) == EXIT_LIMITS
        assert "error: chunk 0 hit solver limits" in capsys.readouterr().err


def test_polygon_preset_plans_without_scipy_optimize(tmp_path):
    """A polygon scenario's region boxes need no LP, so the planning process
    never imports scipy.optimize. A fresh process is needed: the test modules
    import it themselves."""
    src = Path(cli.__file__).resolve().parents[1]
    preset = src / "stepplan" / "scenarios" / "quadruped_tilted_terrain.json"
    script = (
        "import sys; from stepplan.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = ["plan", str(preset), "-o", str(tmp_path / "plan.json"), "--svg", str(tmp_path / "plan.svg")]
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False"
