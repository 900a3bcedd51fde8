import numpy as np
import pytest

from polycbf.barrier import BarrierEvaluation, CbfParams
from polycbf.safety_filter import (DegenerateGradientError, DesiredController,
                                   safe_velocity)


def make_eval(grad, h, dht=0.0):
    return BarrierEvaluation(value=h, gradient=np.asarray(grad, dtype=float),
                             time_partial=dht, nonsmooth_value=h)


def random_instance(rng, dim):
    ev = make_eval(rng.normal(size=dim), float(rng.normal()),
                   float(rng.normal()))
    params = CbfParams(kappa=5.0, alpha_gain=float(rng.uniform(0.2, 5.0)))
    u_des = rng.normal(size=dim) * float(rng.uniform(0.1, 3.0))
    return ev, u_des, params


class TestDesiredController:
    def test_zero_at_goal(self):
        ctrl = DesiredController(goal=(1.0, 2.0), gain=1.0, u_max=1.0)
        assert np.array_equal(ctrl.velocity((1.0, 2.0)), [0.0, 0.0])

    def test_saturates_long_error(self):
        ctrl = DesiredController(goal=(3.0, 4.0), gain=1.0, u_max=1.0)
        assert np.allclose(ctrl.velocity((0.0, 0.0)), [0.6, 0.8])

    def test_passes_short_error(self):
        ctrl = DesiredController(goal=(0.3, 0.4), gain=1.0, u_max=1.0)
        assert np.allclose(ctrl.velocity((0.0, 0.0)), [0.3, 0.4])

    def test_gain_scales(self):
        ctrl = DesiredController(goal=(1.0, 0.0), gain=2.0, u_max=10.0)
        assert np.allclose(ctrl.velocity((0.0, 0.0)), [2.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            DesiredController(goal=(0.0, 0.0), gain=0.0)
        with pytest.raises(ValueError):
            DesiredController(goal=(0.0, 0.0), u_max=-1.0)

    @pytest.mark.parametrize("field", ["gain", "u_max"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesiredController(goal=(0.0, 0.0), **{field: value})


class TestSafeVelocity:
    def test_inactive_when_constraint_holds(self):
        ev = make_eval((1.0, 0.0), h=1.0)
        res = safe_velocity(ev, (1.0, 0.0), CbfParams(kappa=5.0, alpha_gain=2.0))
        assert not res.constraint_active
        assert np.array_equal(res.u_safe, [1.0, 0.0])
        assert res.slack == pytest.approx(3.0)

    def test_sliding_on_boundary(self):
        # heading straight into the wall at h = 0: the correction cancels it
        ev = make_eval((1.0, 0.0), h=0.0)
        res = safe_velocity(ev, (-1.0, 0.0), CbfParams(kappa=5.0, alpha_gain=2.0))
        assert res.constraint_active
        assert np.allclose(res.u_safe, [0.0, 0.0], atol=1e-15)
        assert res.slack == pytest.approx(0.0, abs=1e-15)

    def test_tangential_component_survives(self):
        ev = make_eval((1.0, 0.0), h=0.0)
        res = safe_velocity(ev, (-1.0, 0.7), CbfParams(kappa=5.0, alpha_gain=2.0))
        assert np.allclose(res.u_safe, [0.0, 0.7], atol=1e-15)

    def test_boundary_equality_input_unchanged(self):
        # u_des already meets the constraint with equality
        ev = make_eval((2.0, 0.0), h=-0.5, dht=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        u_des = np.array([0.5, 3.0])  # 2*0.5 + 2*(-0.5) = 0
        res = safe_velocity(ev, u_des, params)
        assert np.array_equal(res.u_safe, u_des)
        assert not res.constraint_active

    def test_time_partial_enters_residual(self):
        ev = make_eval((1.0, 0.0), h=0.0, dht=-1.0)
        res = safe_velocity(ev, (0.5, 0.0), CbfParams(kappa=5.0, alpha_gain=2.0))
        # a = 0.5 - 1.0 = -0.5 < 0: active despite the spatial term
        assert res.constraint_active
        assert np.allclose(res.u_safe, [1.0, 0.0])

    def test_degenerate_gradient_raises(self):
        ev = make_eval((0.0, 0.0), h=-1.0)
        with pytest.raises(DegenerateGradientError):
            safe_velocity(ev, (1.0, 0.0), CbfParams(kappa=5.0, alpha_gain=2.0))
        tiny = make_eval((1e-11, 0.0), h=-1.0)
        with pytest.raises(DegenerateGradientError):
            safe_velocity(tiny, (1.0, 0.0), CbfParams(kappa=5.0, alpha_gain=2.0))

    def test_no_post_saturation(self):
        # the corrected input may exceed any desired-controller bound
        ev = make_eval((1.0, 0.0), h=-10.0)
        res = safe_velocity(ev, (0.0, 1.0), CbfParams(kappa=5.0, alpha_gain=2.0))
        assert np.linalg.norm(res.u_safe) > 1.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kkt_conditions(self, dim):
        rng = np.random.default_rng(61)
        for _ in range(20000):
            ev, u_des, params = random_instance(rng, dim)
            res = safe_velocity(ev, u_des, params)
            grad = ev.gradient
            # (i) feasibility
            assert res.slack >= -1e-12
            # (ii) correction parallel to the gradient, nonnegative coefficient
            delta = res.u_safe - res.u_desired
            coeff = float(delta @ grad) / float(grad @ grad)
            assert np.linalg.norm(delta - coeff * grad) <= 1e-12
            assert coeff >= -1e-12
            # (iii) complementary slackness
            assert abs(coeff * res.slack) <= 1e-10

    def test_minimal_modification(self):
        rng = np.random.default_rng(67)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        for _ in range(200):
            ev, u_des, params = random_instance(rng, 2)
            res = safe_velocity(ev, u_des, params)
            bias = ev.time_partial + params.alpha_gain * ev.value
            for _ in range(100):
                v = u_des + rng.normal(size=2) * 2.0
                if float(ev.gradient @ v) + bias >= 0.0:  # feasible competitor
                    assert (np.linalg.norm(res.u_safe - u_des)
                            <= np.linalg.norm(v - u_des) + 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            ev, u_des, params = random_instance(rng, 2)
            once = safe_velocity(ev, u_des, params)
            twice = safe_velocity(ev, once.u_safe, params)
            assert np.allclose(twice.u_safe, once.u_safe, atol=1e-12)
