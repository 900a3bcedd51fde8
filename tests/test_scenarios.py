import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycbf.barrier import provable_buffer, smooth_barrier
from polycbf.scenarios import (_SECTIONS, BUILTIN_NAMES, Scenario,
                               ScenarioError, _scenario_to_dict, builtin,
                               load, save)
from polycbf.sim import UnsafeStartError, run
from polycbf.verify import run_suite, scenario_bounds

from worlds import static_variant


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

    def test_certified_buffer(self):
        # buffer >= ln N_p: both corners (ln 1, ln 2) and the crossroad
        # (ln 2) are certified; the L-shape (0.7 < ln 5) and the three
        # fixtures at buffer 0 are not.
        assert {name for name in BUILTIN_NAMES if builtin(name).certified} \
            == {"convex-corner", "concave-corner", "crossroad"}
        s = builtin("revolving-door")
        lifted = dataclasses.replace(s, cbf=dataclasses.replace(
            s.cbf, buffer=provable_buffer(s.environment)))
        assert lifted.certified
        assert run(s, dataclasses.replace(s.default_sim, t_end=0.1)
                   ).certified is False
        assert run(lifted, dataclasses.replace(lifted.default_sim,
                                               t_end=0.1)).certified is True
        with pytest.raises(AttributeError):
            s.certified = True


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

    # The four builtins built from literal floats alone save the same bytes
    # on every host; the others hold cos, sin or sqrt of their geometry.
    @pytest.mark.parametrize("name, digest", [
        ("convex-corner",
         "aa15d86bd408a4b31ddff27428ec9230cc9a30673fffa03924a0b2d48cd65eb3"),
        ("concave-corner",
         "766d8cea8f72eaaf65445f72a2aac2874f2ea947023b64f0be092c2a3f4acae5"),
        ("l-shape",
         "21be81cfb5909f948f0d8a17cadc807cf430e625e84967a6c99aedf562f62550"),
        ("crossroad",
         "412b13df77ec91474d62406346dae1154d2daec7788d9e6ca32cfda2f532d7c5"),
    ])
    def test_saved_bytes(self, name, digest, tmp_path):
        path = tmp_path / f"{name}.json"
        save(builtin(name), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_resave_rewrites_same_bytes(self, name, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(builtin(name), first)
        save(load(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_saved_keys_in_table_order(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        save(builtin(name), path)
        config = json.loads(path.read_text())
        assert list(config) == ["name", "dimension", "halfspaces", "regions",
                                "agent", "controller", "cbf", "sim",
                                "alternative_starts"]
        for section, _, _, keys in _SECTIONS:
            assert list(config[section]) == list(keys)

    def test_shared_motion_preserved(self, tmp_path):
        s = builtin("revolving-door")
        path = tmp_path / "door.json"
        save(s, path)
        loaded = load(path)
        motions = {id(hs.motion) for hs in loaded.environment.half_spaces}
        assert len(motions) == 1

    def test_legacy_record_stride_records_every_step(self, tmp_path):
        # Files written before every step became a row may still carry
        # the key; like any key the format does not use, it is ignored.
        s = builtin("revolving-door")
        path = tmp_path / "door.json"
        save(s, path)
        config = json.loads(path.read_text())
        config["sim"]["record_stride"] = 7
        path.write_text(json.dumps(config))
        assert run(load(path)) == run(s)


def without_start(name):
    """A builtin with no sim.x0, which `Scenario` and `run` accept."""
    s = builtin(name)
    return dataclasses.replace(
        s, default_sim=dataclasses.replace(s.default_sim, x0=None))


class TestWithoutStart:
    def test_all_starts_are_the_alternatives(self):
        s, full = without_start("l-shape"), builtin("l-shape")
        assert len(s.alternative_starts) == 4
        assert all(a is b for a, b in zip(s.all_starts(),
                                         s.alternative_starts, strict=True))
        assert full.all_starts()[0] is full.default_sim.x0
        assert len(full.all_starts()) == 5
        # The box and the audits use every start that is set.
        low, high = scenario_bounds(s)
        assert np.all(low < np.min(s.alternative_starts, axis=0))
        assert np.all(np.max(s.alternative_starts, axis=0) < high)
        assert run_suite("hull", [s], seed=0, n=10)[0].passed

    def test_save_refuses_before_writing(self, tmp_path):
        path = tmp_path / "l-shape.json"
        with pytest.raises(ScenarioError, match=r"^sim\.x0 "):
            save(without_start("l-shape"), path)
        assert not path.exists()


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
                                              ("controller", "gain"),
                                              ("controller", "u_max")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        config = self.good_config()
        config[section][key] = value  # written as NaN / Infinity
        with pytest.raises(ScenarioError, match=key):
            load(self.write(tmp_path, config))

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

    @pytest.mark.parametrize("path, value, field", [
        (("cbf", "kappa"), [], "cbf.kappa"),
        (("cbf", "kappa"), "5", "cbf.kappa"),
        (("sim", "dt"), None, "sim.dt"),
        (("controller", "gain"), True, "controller.gain"),
        (("sim", "t_end"), 10**400, "sim.t_end"),
        (("cbf",), [], "cbf"),
        (("halfspaces",), 5, "halfspaces"),
        (("halfspaces", 0, "anchor", 0), "0", r"halfspaces\[0\].anchor"),
        (("halfspaces", 1, "normal"), [1e200, 0.0], r"halfspaces\[1\]"),
        (("halfspaces", 0, "motion"), {"center": [math.nan, 0.0],
                                       "omega": 1.0},
         r"halfspaces\[0\].motion"),
        (("halfspaces", 0, "motion"), {"center": [0.0, 0.0],
                                       "omega": math.inf},
         r"halfspaces\[0\].motion"),
        (("regions", 0, 1), 1.5, r"regions\[0\]"),
        (("regions", 0, 1), 1e308, r"regions\[0\]"),
        (("regions", 0, 1), True, r"regions\[0\]"),
        (("agent", "offsets"), [[0.0, "0"]], r"agent.offsets\[0\]"),
        (("alternative_starts",), [[math.nan, 0.0]],
         r"alternative_starts\[0\]"),
    ])
    def test_malformed_value_names_field(self, tmp_path, path, value, field):
        config = self.good_config()
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=field):
            load(self.write(tmp_path, config))

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match=f"cannot read {tmp_path}"):
            load(tmp_path)

    def test_overflowing_axis_rate_names_motion(self, tmp_path):
        path = tmp_path / "pyramid.json"
        save(builtin("pyramid"), path)
        config = json.loads(path.read_text())
        config["halfspaces"][0]["motion"] = {"center": [0.0, 0.0, 0.0],
                                             "axis_rate": [1e200, 0.0, 0.0]}
        with pytest.raises(ScenarioError,
                           match=r"halfspaces\[0\].motion.*axis_rate length"):
            load(self.write(tmp_path, config))

    @pytest.mark.parametrize("content", [b'{"name": "\xff"}',
                                         b"[" * 100000])
    def test_undecodable_file_rejected(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load(path)

    def test_non_finite_alternative_start_rejected(self):
        with pytest.raises(ScenarioError, match=r"alternative_starts\[0\]"):
            dataclasses.replace(builtin("l-shape"),
                                alternative_starts=((math.nan, 0.0),))

    @pytest.mark.parametrize("start", [[1.0, [2.0]], ("ab",)], ids=str)
    def test_malformed_alternative_start_names_field(self, start):
        with pytest.raises(ScenarioError, match=r"alternative_starts\[0\]"):
            dataclasses.replace(builtin("l-shape"), alternative_starts=(start,))

    def test_scenario_dimension_cross_checks(self):
        s = builtin("l-shape")
        with pytest.raises(ScenarioError, match="agent"):
            dataclasses.replace(s, agent=builtin("pyramid").agent)


def _paths(value, prefix=()):
    """The path of value and of every value nested in it."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    return [prefix, *(path for key, child in children
                      for path in _paths(child, (*prefix, key)))]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


class TestLoadFuzz:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @settings(deadline=None)
    @given(data=st.data())
    def test_load_returns_scenario_or_scenario_error(self, name, fuzz_file,
                                                     data):
        """One value anywhere in a builtin's config replaced by arbitrary
        JSON: load returns a Scenario or raises ScenarioError, nothing
        else, and warns of no overflow or invalid operation."""
        config = _scenario_to_dict(builtin(name))
        path = data.draw(st.sampled_from(_paths(config)), label="path")
        value = data.draw(_JSON_VALUES, label="value")
        if path:
            target = config
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            config = value
        fuzz_file.write_text(json.dumps(config))
        try:
            assert isinstance(load(fuzz_file), Scenario)
        except ScenarioError:
            pass
