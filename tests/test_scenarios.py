import dataclasses
import json
import math

import numpy as np
import pytest

from polycbf.barrier import smooth_barrier
from polycbf.scenarios import (BUILTIN_NAMES, Scenario, ScenarioError, builtin,
                               load, save, static_variant)
from polycbf.sim import UnsafeStartError, run


class TestBuiltinFixtures:
    def test_known_names(self):
        assert set(BUILTIN_NAMES) == {
            "convex-corner", "concave-corner", "l-shape", "crossroad",
            "ellipse", "revolving-door", "pyramid"}
        with pytest.raises(ScenarioError, match="unknown scenario"):
            builtin("moebius-strip")

    def test_l_shape_parameters(self):
        s = builtin("l-shape")
        assert s.cbf.kappa == 5.0
        assert s.cbf.buffer == 0.7
        assert s.cbf.alpha_gain == 2.0
        assert s.controller.gain == 1.0
        assert s.controller.u_max == 1.0
        assert s.environment.num_half_spaces == 6
        assert s.environment.num_regions == 5
        index_sets = [r.indices.tolist() for r in s.environment.regions]
        assert index_sets == [[0], [1], [2], [3], [4, 5]]
        assert s.agent.num_vertices == 1
        assert len(s.alternative_starts) >= 3

    def test_crossroad_topology(self):
        s = builtin("crossroad")
        assert s.environment.num_half_spaces == 4
        assert s.environment.num_regions == 2
        index_sets = [r.indices.tolist() for r in s.environment.regions]
        assert index_sets == [[0, 1], [2, 3]]
        assert s.agent.num_vertices == 4  # diamond

    def test_ellipse_structure(self):
        s = builtin("ellipse")
        assert s.cbf.buffer == 0.0
        assert s.environment.num_half_spaces == 32
        assert s.environment.num_regions == 32
        assert all(r.indices.tolist() == [j]
                   for j, r in enumerate(s.environment.regions))
        assert s.agent.num_vertices == 32
        # agent vertices at angles 2 pi m / 32 scaled by the semi-axes
        angles = 2 * np.pi * np.arange(32) / 32
        rx = s.agent.offsets[0, 0]
        ry = s.agent.offsets[8, 1]
        assert np.allclose(s.agent.offsets,
                           np.column_stack([rx * np.cos(angles),
                                            ry * np.sin(angles)]), atol=1e-12)

    def test_revolving_door_structure(self):
        s = builtin("revolving-door")
        env = s.environment
        assert env.num_half_spaces == 12
        assert env.num_regions == 8
        sizes = [len(r) for r in env.regions]
        assert sizes == [1, 2, 1, 2, 1, 2, 1, 2]
        assert s.agent.num_vertices == 6
        motions = {id(hs.motion) for hs in env.half_spaces}
        assert len(motions) == 1  # whole door moves as one rigid body
        assert env.half_spaces[0].motion.spin == 0.2
        assert not env.is_static

    def test_pyramid_structure(self):
        s = builtin("pyramid")
        env = s.environment
        assert env.dimension == 3
        assert env.num_half_spaces == 6
        assert env.num_regions == 5
        index_sets = [r.indices.tolist() for r in env.regions]
        assert index_sets == [[0], [1, 5], [2, 5], [3, 5], [4, 5]]
        assert s.agent.num_vertices == 8  # cube

    def test_corner_buffers(self):
        assert builtin("convex-corner").cbf.buffer == 0.0
        assert builtin("concave-corner").cbf.buffer == pytest.approx(math.log(2))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_all_starts_safe(self, name):
        s = builtin(name)
        for x0 in s.all_starts():
            ev = smooth_barrier(s.environment, s.agent, x0, 0.0, s.cbf)
            assert ev.value > 0.0, f"{name} start {x0} has h = {ev.value}"

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_returns_fresh_copies(self, name):
        assert builtin(name) == builtin(name)
        assert builtin(name) is not builtin(name)


class TestStaticVariant:
    def test_strips_motion(self):
        s = builtin("revolving-door")
        frozen = static_variant(s)
        assert frozen.environment.is_static
        assert frozen.name == "revolving-door-static"
        assert frozen.environment.num_regions == s.environment.num_regions
        # same pose at t = 0
        ev0 = smooth_barrier(s.environment, s.agent, (-4.0, 0.0), 0.0, s.cbf)
        ev1 = smooth_barrier(frozen.environment, frozen.agent, (-4.0, 0.0),
                             0.0, frozen.cbf)
        assert ev0.value == pytest.approx(ev1.value, abs=1e-14)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_save_load_identity(self, name, tmp_path):
        s = builtin(name)
        path = tmp_path / f"{name}.json"
        save(s, path)
        assert load(path) == s

    def test_shared_motion_preserved(self, tmp_path):
        s = builtin("revolving-door")
        path = tmp_path / "door.json"
        save(s, path)
        loaded = load(path)
        motions = {id(hs.motion) for hs in loaded.environment.half_spaces}
        assert len(motions) == 1


class TestConfigValidation:
    def good_config(self):
        return {
            "dimension": 2,
            "halfspaces": [
                {"normal": [1.0, 0.0], "anchor": [0.0, 0.0]},
                {"normal": [0.0, 1.0], "anchor": [0.0, 0.0]},
            ],
            "regions": [[0, 1]],
            "agent": {"offsets": [[0.0, 0.0]]},
            "controller": {"goal": [2.0, 2.0], "gain": 1.0, "u_max": 1.0},
            "cbf": {"kappa": 5.0, "buffer": 0.0, "alpha_gain": 2.0},
            "sim": {"dt": 0.01, "t_end": 5.0, "x0": [1.0, 1.0],
                    "goal_tolerance": 0.05},
        }

    def write(self, tmp_path, config):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        return path

    def test_good_config_loads(self, tmp_path):
        s = load(self.write(tmp_path, self.good_config()))
        assert s.environment.num_half_spaces == 2
        assert s.default_sim.record_stride == 1

    def test_out_of_range_region_names_region(self, tmp_path):
        config = self.good_config()
        config["regions"] = [[0, 2]]
        with pytest.raises(ScenarioError, match=r"regions\[0\].*index 2"):
            load(self.write(tmp_path, config))

    def test_zero_normal_names_halfspace(self, tmp_path):
        config = self.good_config()
        config["halfspaces"][1]["normal"] = [0.0, 0.0]
        with pytest.raises(ScenarioError, match=r"halfspaces\[1\].*nonzero"):
            load(self.write(tmp_path, config))

    def test_missing_dimension(self, tmp_path):
        config = self.good_config()
        del config["dimension"]
        with pytest.raises(ScenarioError, match="dimension"):
            load(self.write(tmp_path, config))

    def test_inconsistent_dimension(self, tmp_path):
        config = self.good_config()
        config["halfspaces"][0]["normal"] = [1.0, 0.0, 0.0]
        with pytest.raises(ScenarioError, match=r"halfspaces\[0\].normal"):
            load(self.write(tmp_path, config))
        config = self.good_config()
        config["controller"]["goal"] = [1.0]
        with pytest.raises(ScenarioError, match="controller.goal"):
            load(self.write(tmp_path, config))

    def test_missing_key_reports_location(self, tmp_path):
        config = self.good_config()
        del config["cbf"]["kappa"]
        with pytest.raises(ScenarioError, match="kappa"):
            load(self.write(tmp_path, config))

    @pytest.mark.parametrize("section, key", [("cbf", "kappa"),
                                              ("cbf", "buffer"),
                                              ("cbf", "alpha_gain"),
                                              ("sim", "dt"),
                                              ("sim", "t_end"),
                                              ("sim", "record_stride"),
                                              ("controller", "gain"),
                                              ("controller", "u_max")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        config = self.good_config()
        config[section][key] = value  # written as NaN / Infinity
        with pytest.raises(ScenarioError, match=key):
            load(self.write(tmp_path, config))

    def test_fractional_record_stride_rejected(self, tmp_path):
        config = self.good_config()
        config["sim"]["record_stride"] = 2.5
        with pytest.raises(ScenarioError, match="record_stride"):
            load(self.write(tmp_path, config))
        config["sim"]["record_stride"] = 2.0
        loaded = load(self.write(tmp_path, config))
        assert loaded.default_sim.record_stride == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load(path)

    def test_unsafe_x0_accepted_at_load_rejected_at_run(self, tmp_path):
        config = self.good_config()
        config["sim"]["x0"] = [-1.0, -1.0]  # outside both half-spaces
        s = load(self.write(tmp_path, config))  # loads fine
        with pytest.raises(UnsafeStartError):
            run(s)

    def test_motion_requires_omega_in_2d(self, tmp_path):
        config = self.good_config()
        config["halfspaces"][0]["motion"] = {"center": [0.0, 0.0]}
        with pytest.raises(ScenarioError, match="omega"):
            load(self.write(tmp_path, config))

    def test_scenario_dimension_cross_checks(self):
        s = builtin("l-shape")
        with pytest.raises(ScenarioError, match="agent"):
            dataclasses.replace(s, agent=builtin("pyramid").agent)
