import json

import numpy as np
import pytest

from polycbf.cli import main
from polycbf.scenarios import BUILTIN_NAMES, builtin, save
from polycbf.verify import SUITES


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
        ["field", "l-shape", "--kappa", "-1", "--out", "unused.csv"],
        ["field", "l-shape", "--resolution", "-1", "--out", "unused.csv"],
        ["field", "l-shape", "--resolution", "0", "--out", "unused.csv"],
        ["field", "revolving-door", "--time", "nan", "--out", "unused.csv"],
        ["field", "revolving-door", "--time", "inf", "--out", "unused.csv"],
        ["verify", "gradients", "--n", "-5", "--scenario", "l-shape"],
        ["verify", "qp", "--n", "0"],
        ["verify", "sandwich", "--seed", "-1"],
    ])
    def test_bad_override_exits_2(self, argv, capsys, tmp_path,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert argv[2].lstrip("-").replace("-", "_") in err["message"]
        assert not (tmp_path / "unused.csv").exists()

    def test_fractional_record_stride_exits_2(self, tmp_path, capsys):
        path = tmp_path / "strided.json"
        save(builtin("convex-corner"), path)
        config = json.loads(path.read_text())
        config["sim"]["record_stride"] = 2.5
        path.write_text(json.dumps(config))
        assert main(["simulate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "record_stride" in err["message"]

    def test_unsafe_start_exits_4(self, capsys):
        code = main(["simulate", "l-shape", "--start", "1.0", "0.5"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnsafeStartError"

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
