import dataclasses
import json

import numpy as np
import pytest

import polycbf.cli
import polycbf.verify
from polycbf.barrier import margin_agent, smooth_barrier
from polycbf.cli import main
from polycbf.scenarios import BUILTIN_NAMES, builtin, save
from polycbf.verify import SUITES

from test_sim import closing_walls


def must_not_run(*args, **kwargs):
    raise AssertionError("the work started before the output path check")


class TestSimulateCommand:
    def test_builtin_run(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        code = main(["simulate", "l-shape", "--csv", str(csv),
                     "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination : goal" in out
        assert "min h" in out
        assert csv.exists() and svg.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t,p_x,p_y")
        assert svg.read_text().startswith('<?xml version="1.0"')

    def test_alternative_start_override(self, capsys):
        s = builtin("l-shape")
        start = s.alternative_starts[0]
        code = main(["simulate", "l-shape", "--start",
                     str(start[0]), str(start[1])])
        assert code == 0
        assert "termination : goal" in capsys.readouterr().out

    def test_pyramid_stops_above_goal(self, capsys):
        code = main(["simulate", "pyramid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination : horizon" in out
        final = json.loads(out.split("final state :")[1].splitlines()[0])
        goal = builtin("pyramid").controller.goal
        assert abs(final[0] - goal[0]) <= 0.05
        assert abs(final[1] - goal[1]) <= 0.05
        assert final[2] > 0.2  # hovering above the ground goal

    def test_parameter_overrides(self, capsys):
        code = main(["simulate", "convex-corner", "--kappa", "20",
                     "--buffer", "0.1", "--alpha-gain", "1.0",
                     "--dt", "0.02", "--t-end", "5"])
        assert code == 0

    @pytest.mark.parametrize("flag, values, field, key", [
        ("--kappa", ["4"], "cbf", "kappa"),
        ("--buffer", ["0.8"], "cbf", "buffer"),
        ("--alpha-gain", ["1.5"], "cbf", "alpha_gain"),
        ("--dt", ["0.02"], "default_sim", "dt"),
        ("--t-end", ["8"], "default_sim", "t_end"),
        ("--start", ["-1", "2.8"], "default_sim", "x0"),
        ("--goal", ["3", "2.5"], "controller", "goal"),
    ])
    def test_override_lands_in_its_field(self, monkeypatch, flag, values,
                                         field, key):
        """The scenario that reaches `run` is the builtin with one field
        replaced, and differs from it there."""
        handed = []

        class Handed(Exception):
            pass

        def capture(scenario):
            handed.append(scenario)
            raise Handed

        monkeypatch.setattr(polycbf.cli, "run", capture)
        with pytest.raises(Handed):
            main(["simulate", "l-shape", flag, *values])
        s = builtin("l-shape")
        value = [float(v) for v in values] if len(values) > 1 \
            else float(values[0])
        expected = dataclasses.replace(s, **{field: dataclasses.replace(
            getattr(s, field), **{key: value})})
        assert handed == [expected]
        assert handed[0] != s

    @pytest.mark.parametrize("flag", ["--gain", "--u-max", "--goal-tolerance"])
    def test_file_only_key_has_no_flag(self, capsys, flag):
        assert main(["simulate", "l-shape", flag, "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["simulate", "no-such-place"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"

    @pytest.mark.parametrize("argv", [
        ["simulate", "l-shape", "--dt", "-1"],
        ["simulate", "l-shape", "--kappa", "-1"],
        ["simulate", "l-shape", "--t-end", "nan"],
        ["simulate", "l-shape", "--t-end", "inf"],
        ["simulate", "convex-corner", "--t-end", "1e308"],
        ["field", "l-shape", "--kappa", "-1", "--out", "unused.csv"],
        ["field", "l-shape", "--resolution", "-1", "--out", "unused.csv"],
        ["field", "l-shape", "--resolution", "0", "--out", "unused.csv"],
        ["field", "revolving-door", "--time", "nan", "--out", "unused.csv"],
        ["field", "revolving-door", "--time", "inf", "--out", "unused.csv"],
        ["verify", "gradients", "--n", "-5", "--scenario", "l-shape"],
        ["verify", "qp", "--n", "0"],
        ["verify", "sandwich", "--seed", "-1"],
        ["field", "l-shape", "--bounds", "0", "nan", "0", "1",
         "--resolution", "2", "--out", "unused.csv"],
        ["field", "l-shape", "--bounds", "0", "inf", "0", "1",
         "--resolution", "2", "--out", "unused.csv"],
        ["field", "l-shape", "--bounds", "0", "1", "0", "inf",
         "--resolution", "2", "--out", "unused.csv"],
    ])
    def test_bad_override_exits_2(self, argv, capsys, tmp_path,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert argv[2].lstrip("-").replace("-", "_") in err["message"]
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("path, value, field", [
        (("cbf", "kappa"), [], "cbf.kappa"),
        (("sim", "dt"), None, "sim.dt"),
        (("halfspaces", 0, "motion", "center", 0), float("nan"),
         "halfspaces[0].motion"),
        (("regions", 1, 0), 1.5, "regions[1]"),
        (("regions", 1, 1), 1e308, "regions[1]"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, path, value,
                                      field):
        config_path = tmp_path / "door.json"
        save(builtin("revolving-door"), config_path)
        config = json.loads(config_path.read_text())
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config_path.write_text(json.dumps(config))
        assert main(["simulate", str(config_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert field in err["message"]

    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_unwritable_output_fails_before_run(self, tmp_path, capsys,
                                                monkeypatch, flag):
        monkeypatch.setattr(polycbf.cli, "run", must_not_run)
        out = tmp_path / "missing" / "out"
        assert main(["simulate", "l-shape", flag, str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_unsafe_start_exits_4(self, capsys):
        code = main(["simulate", "l-shape", "--start", "1.0", "0.5"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnsafeStartError"

    def test_filter_error_exits_4_with_prefix_csv(self, tmp_path, capsys):
        path, csv = tmp_path / "closing.json", tmp_path / "out.csv"
        save(closing_walls(0.5), path)
        assert main(["simulate", str(path), "--csv", str(csv)]) == 4
        captured = capsys.readouterr()
        assert "termination : error" in captured.out
        err = json.loads(captured.err)
        assert err["error"] == "DegenerateGradientError"
        assert err["message"].endswith("t=0.72")
        assert "near-zero barrier gradient" in err["message"]
        assert len(csv.read_text().splitlines()) == 1 + 72

    def test_error_before_first_row_exits_4(self, tmp_path, capsys):
        path = tmp_path / "closing.json"
        csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        save(closing_walls(2.0), path)
        assert main(["simulate", str(path), "--csv", str(csv),
                     "--svg", str(svg)]) == 4
        captured = capsys.readouterr()
        assert "final state : -" in captured.out
        err = json.loads(captured.err)
        assert err["error"] == "DegenerateGradientError"
        assert err["message"].endswith("at state [0.0, 0.0], t=0")
        assert csv.read_text().splitlines() == [
            "t,p_x,p_y,udes_x,udes_y,usafe_x,usafe_y,h,constraint_active"]
        assert svg.read_text().startswith('<?xml version="1.0"')

    def test_method_flag_removed(self, capsys):
        assert main(["simulate", "l-shape", "--method", "rk4"]) == 2

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["field", "--out", "unused.csv"]])
    def test_unreadable_config_path_exits_2(self, tmp_path, capsys,
                                             monkeypatch, command):
        # A directory exists but cannot be read as a config.  A file
        # without read permission takes the same path, but cannot be
        # tested when the suite runs as root.
        monkeypatch.chdir(tmp_path)
        folder = tmp_path / "configs"
        folder.mkdir()
        assert main([command[0], str(folder), *command[1:]]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert str(folder) in err["message"]
        assert not (tmp_path / "unused.csv").exists()

    def test_config_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "corner.json"
        save(builtin("convex-corner"), path)
        assert main(["simulate", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("POLYCBF_SCENARIO_DIR", str(tmp_path))
        assert main(["simulate", "corner"]) == 0

    def test_byte_stable_outputs(self, tmp_path, capsys):
        paths = [(tmp_path / f"a{i}.csv", tmp_path / f"a{i}.svg")
                 for i in range(2)]
        for csv, svg in paths:
            assert main(["simulate", "crossroad", "--csv", str(csv),
                         "--svg", str(svg)]) == 0
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


class TestFieldCommand:
    def test_corner_sign_change_across_boundary(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        code = main(["field", "convex-corner", "--bounds", "1.0", "3.0",
                     "2.5", "2.5", "--resolution", "100", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        x = np.array([float(r[0]) for r in rows])
        psi = np.array([float(r[2]) for r in rows])
        # the boundary x = 2 separates unsafe from safe at y = 2.5
        assert np.all(psi[x < 2.0 - 1e-9] < 0)
        assert np.all(psi[x > 2.0 + 1e-9] > 0)

    def test_time_varying_field_differs(self, tmp_path, capsys):
        a, b = tmp_path / "t0.csv", tmp_path / "t5.csv"
        assert main(["field", "revolving-door", "--resolution", "20",
                     "--time", "0.0", "--out", str(a)]) == 0
        assert main(["field", "revolving-door", "--resolution", "20",
                     "--time", "5.0", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_resolution_one_is_the_one_row_call(self, tmp_path, capsys):
        # A one-point grid makes `barrier_field` a batch of one.
        out = tmp_path / "f.csv"
        assert main(["field", "revolving-door", "--resolution", "1",
                     "--time", "1.3", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "x,y,psi,h" and len(rows) == 1
        x, y, psi, h = rows[0].split(",")
        s = builtin("revolving-door")
        env, agent, point = s.environment, s.agent, [float(x), float(y)]
        barrier = smooth_barrier(env, agent, point, 1.3, s.cbf)
        assert psi == f"{margin_agent(env, agent, point, 1.3):.17g}"
        assert h == f"{barrier.value:.17g}"

    def test_under_approximation_visible_in_field(self, tmp_path, capsys):
        # with the provable buffer b = ln(N_p), psi >= h on every grid row
        out = tmp_path / "f.csv"
        assert main(["field", "l-shape", "--resolution", "50",
                     "--buffer", str(np.log(5)), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2500
        psi = np.array([float(r[2]) for r in rows])
        h = np.array([float(r[3]) for r in rows])
        assert np.all(psi >= h - 1e-12)

    def test_unwritable_out_fails_before_field(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(polycbf.cli, "barrier_field", must_not_run)
        out = tmp_path / "missing" / "f.csv"
        assert main(["field", "l-shape", "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_bad_bounds_exit_2(self, capsys):
        assert main(["field", "l-shape", "--bounds", "0", "1", "--out",
                     "/tmp/x.csv"]) == 2


class TestVerifyCommand:
    def test_sandwich_suite(self, capsys):
        code = main(["verify", "sandwich", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert [r["parameters"]["scenario"] for r in reports] == \
            list(BUILTIN_NAMES)
        assert all(r["passed"] for r in reports)

    def test_sandwich_suite_single_scenario(self, capsys):
        code = main(["verify", "sandwich", "--scenario", "crossroad"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["parameters"]["scenario"] == "crossroad"

    def test_qp_suite(self, capsys):
        code = main(["verify", "qp", "--n", "2000"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["name"] == "qp-closed-form"

    def test_hull_suite_single_scenario(self, capsys):
        code = main(["verify", "hull", "--scenario", "crossroad"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["parameters"]["scenario"] == "crossroad"
        assert reports[0]["worst"] >= -1e-12

    def test_gradients_suite_single_scenario(self, capsys):
        code = main(["verify", "gradients", "--scenario", "l-shape",
                     "--n", "100"])
        assert code == 0

    def test_under_suite_single_scenario(self, capsys):
        code = main(["verify", "under", "--scenario", "concave-corner"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["worst"] <= 1e-12

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "sandwich", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert reports and all("worst" in r for r in reports)

    def test_unknown_builtin_exits_2(self, capsys):
        assert main(["verify", "hull", "--scenario", "nope"]) == 2

    def test_unwritable_report_exits_4(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "qp", "--n", "10", "--out", str(out)])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert not out.exists()

    def test_unwritable_report_fails_before_audits(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(polycbf.verify, "run_suite", must_not_run)
        out = tmp_path / "missing" / "x.json"
        assert main(["verify", "all", "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_suite_alone_matches_all(self, capsys):
        # A report's seed reproduces it on its own: each suite reports
        # exactly its share of `verify all` under the same seed and n.
        def reports(suite):
            assert main(["verify", suite, "--seed", "5", "--n", "2000"]) == 0
            return json.loads(capsys.readouterr().out)

        alone = [report for suite in SUITES for report in reports(suite)]
        assert alone == reports("all")


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["simulate", "l-shape", "--warp-speed"]) == 2
