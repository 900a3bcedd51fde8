import math

import numpy as np
import pytest

from polycbf.barrier import BarrierEvaluation, CbfParams
from polycbf.safety_filter import (DegenerateGradientError, DesiredController,
                                   _project, _project_rows, safe_velocity)

from oracles import desired_velocity

pytestmark = pytest.mark.bits


def make_eval(grad, h, dht=0.0):
    return BarrierEvaluation(value=h, gradient=np.asarray(grad, dtype=float),
                             time_partial=dht, nonsmooth_value=h)


def residual(ev, u, params):
    """grad(h) . u + dh/dt + gamma * h at the input u."""
    return float(ev.gradient @ u + ev.time_partial
                 + params.alpha_gain * ev.value)


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
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        res = safe_velocity(ev, (1.0, 0.0), params)
        assert not res.constraint_active
        assert np.array_equal(res.u_safe, [1.0, 0.0])
        assert residual(ev, res.u_safe, params) == pytest.approx(3.0)

    def test_sliding_on_boundary(self):
        # heading straight into the wall at h = 0: the correction cancels it
        ev = make_eval((1.0, 0.0), h=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        res = safe_velocity(ev, (-1.0, 0.0), params)
        assert res.constraint_active
        assert np.allclose(res.u_safe, [0.0, 0.0], atol=1e-15)
        assert residual(ev, res.u_safe, params) == pytest.approx(0.0,
                                                                 abs=1e-15)

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

    @pytest.mark.parametrize("value, grad", [
        (np.nan, (1.0, 0.0)),      # NaN residual
        (-np.inf, (1.0, 0.0)),     # residual -inf
        (1.0, (np.nan, 0.0)),      # NaN gradient
        (1.0, (-np.inf, 0.0)),     # infinite gradient, residual -inf
    ])
    def test_non_finite_active_row_raises(self, value, grad):
        # Projecting would return a NaN input as the safe command.
        with pytest.raises(DegenerateGradientError) as info:
            safe_velocity(make_eval(grad, h=value), (1.0, 0.0),
                          CbfParams(kappa=5.0, alpha_gain=2.0))
        assert str(info.value).startswith("non-finite constraint: residual ")

    def test_huge_finite_gradient_projects(self):
        # The squared norm 1e400 overflows, but the gradient is finite: the
        # projection still lands on the constraint, without a warning.
        ev = make_eval((1e200, 0.0), h=1.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        res = safe_velocity(ev, (-1.0, 0.0), params)
        assert res.constraint_active
        assert np.array_equal(res.u_safe, [0.0, 0.0])
        assert residual(ev, res.u_safe, params) >= 0.0

    def test_takes_one_row(self):
        # A batch gradient or input, or two shapes, is refused; batches go
        # to `_project_rows`.
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        for grad, u in [((1.0, 0.0), ((1.0, 0.0),)),
                        (((1.0, 0.0),), (1.0, 0.0)),
                        (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0))),
                        ((1.0, 0.0), (1.0, 0.0, 0.0)),
                        ((1.0, 0.0, 0.0), (1.0, 0.0)),
                        (1.0, 1.0)]:
            ev = make_eval(grad, h=np.ones(np.shape(grad)[:-1]))
            with pytest.raises(ValueError) as info:
                safe_velocity(ev, u, params)
            assert str(info.value) == (
                f"gradient and u_desired must have one shape (p,), got "
                f"{np.shape(grad)} and {np.shape(u)}")

    def test_takes_scalar_value_and_time_partial(self):
        # A per-row value or time partial next to a one-row gradient is a
        # shape error too, not a failed float conversion.
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        row = np.array([1.0, 2.0])
        for value, time_partial in [(row, 0.0), (1.0, row), (row, row),
                                    (np.array([1.0]), 0.0),
                                    (1.0, [[0.0]])]:
            ev = BarrierEvaluation(value, np.array([1.0, 0.0]), time_partial,
                                   0.0)
            with pytest.raises(ValueError) as info:
                safe_velocity(ev, (1.0, 0.0), params)
            assert str(info.value) == (
                f"value and time_partial must be scalars, got shapes "
                f"{np.shape(value)} and {np.shape(time_partial)}")
        for value in (1.0, np.float64(1.0), np.array(1.0)):
            ev = BarrierEvaluation(value, np.array([1.0, 0.0]), value, 0.0)
            assert not safe_velocity(ev, (1.0, 0.0), params).constraint_active

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
            slack = residual(ev, res.u_safe, params)
            # (i) feasibility
            assert slack >= -1e-12
            # (ii) correction parallel to the gradient, nonnegative coefficient
            delta = res.u_safe - res.u_desired
            coeff = float(delta @ grad) / float(grad @ grad)
            assert np.linalg.norm(delta - coeff * grad) <= 1e-12
            assert coeff >= -1e-12
            # (iii) complementary slackness
            assert abs(coeff * slack) <= 1e-10

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


def mixed_batch(rng, dim, m):
    """m filter problems mixing inactive rows, active rows and rows whose
    residual is exactly zero (h = dh/dt = 0, input orthogonal to grad)."""
    grads = rng.normal(size=(m, dim))
    u_des = rng.normal(size=(m, dim))
    values, partials = rng.normal(size=(2, m))
    zero = rng.random(m) < 0.2
    values[zero] = partials[zero] = 0.0
    grads[zero] = 0.0
    grads[zero, 0] = 1.0
    u_des[zero, 0] = 0.0
    return values, grads, partials, u_des


def same_bits(a, b):
    """Equal type, shape and bytes, so -0.0 differs from +0.0 and a numpy
    bool from a Python one."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


# Filter rows at the edges of the one-row code: (value, gradient, time
# partial, desired input), in 2-D and padded with zeros to 3-D.
FILTER_EDGES = {
    "zero residual": (0.0, (1.0, 0.0), 0.0, (0.0, 1.0)),
    # Every term is -0.0; the BLAS dot sums them to a residual of +0.0.
    "negative-zero terms": (-0.0, (1.0, -1.0), -0.0, (-0.0, -0.0)),
    "nan residual": (np.nan, (1.0, 0.0), 0.0, (1.0, 1.0)),
    "gradient norm 1e-10": (-1.0, (1e-10, 0.0), 0.0, (1.0, 0.0)),
    "gradient norm 1e-11": (-1.0, (0.0, -1e-11), 0.0, (1.0, 0.0)),
    "gradient entry 1e150": (0.5, (1e150, 0.0), 0.0, (-1.0, 1.0)),
    "gradient square overflows": (0.5, (3e180, -4e180), 0.0, (-1.0, 1.0)),
}


# Desired inputs (3, 4 + 2^-50) and (3, 4 - 3 * 2^-51) around a goal at the
# origin: their squares sum to 25 + 2^-47 and 25 - 3 * 2^-48 up to 2^-100,
# whether the BLAS dot fuses its multiply-adds or not, so their speeds are
# one ulp above and one ulp below 5.
ULP_ABOVE = (-3.0, -np.nextafter(4.0, 5.0))
ULP_BELOW = (-3.0, 3 * 2.0 ** -51 - 4.0)


# The bound of `DesiredController._law`'s float test at u_max = 5, and the
# floats one ulp either side of it.
INSIDE = 5.0 * (1.0 - 1e-12)
INSIDE_BELOW = np.nextafter(INSIDE, 0.0)
INSIDE_ABOVE = np.nextafter(INSIDE, 6.0)


class TestBatchedLaw:
    """Row i of the batch filter `_project_rows` equals the one-row
    `safe_velocity` call, and the one-row controller the numpy law of
    `oracles.desired_velocity`, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 7, 4096])
    def test_safe_velocity_rows_match_one_row_calls(self, dim, m):
        # The random mix, then the mix with each edge row as row m // 2.
        for edge in (None, *FILTER_EDGES):
            self.check_safe_velocity_rows(dim, m, edge)

    @staticmethod
    def check_safe_velocity_rows(dim, m, edge):
        rng = np.random.default_rng(1000 * dim + m)
        values, grads, partials, u_des = mixed_batch(rng, dim, m)
        at = m // 2  # the edge row, if any
        if edge is not None:
            values[at], grad, partials[at], u = FILTER_EDGES[edge]
            grads[at], u_des[at] = 0.0, 0.0
            grads[at, :2], u_des[at, :2] = grad, u
        params = CbfParams(kappa=5.0, alpha_gain=1.7)

        def one_row(i, scalar=float):
            return safe_velocity(make_eval(grads[i], scalar(values[i]),
                                           scalar(partials[i])),
                                 u_des[i], params)

        def projected(i):
            """`_project` on row i as a rollout's stage calls it, and
            whether it returned its input itself."""
            u = u_des[i].tolist()
            got = _project(grads[i], u, float(partials[i]), float(values[i]),
                           params)
            return got, got is u

        try:
            one_row(at)
        except DegenerateGradientError as err:
            with pytest.raises(DegenerateGradientError) as info:
                projected(at)
            assert str(info.value) == str(err)
            with pytest.raises(DegenerateGradientError) as info:
                _project_rows(grads, u_des, partials, values, params)
            assert str(info.value) == (
                str(err).replace("violated (", f"violated in row {at} (")
                .replace("constraint:", f"constraint in row {at}:"))
            return
        u_safe, active = _project_rows(grads, u_des, partials, values, params)
        assert u_safe.shape == (m, dim)
        assert active.shape == (m,)
        for i in range(m):
            one = one_row(i)
            assert same_bits(u_safe[i], one.u_safe)
            assert same_bits(active[i], one.constraint_active)
            if not one.constraint_active:
                assert one.u_safe.base is u_des  # the desired input itself
            got, unchanged = projected(i)
            assert unchanged == (not one.constraint_active)
            assert same_bits(np.array(got), u_safe[i])
        # Numpy scalars and 0-d arrays are taken as floats, to the same
        # bits.
        for scalar in (np.float64, np.array):
            res, one = one_row(at, scalar), one_row(at)
            assert same_bits(res.u_safe, one.u_safe)
            assert same_bits(res.constraint_active, one.constraint_active)
        if m >= 7 and edge is None:  # the mix is really mixed
            assert 0 < np.count_nonzero(active) < m

    @pytest.mark.parametrize("m", [1, 2, 7, 4096])
    def test_planar_rows_padded_to_three(self, m):
        # The qp audit filters planar problems as (M, 3) rows whose third
        # gradient entry is +0.0.  Every product with that entry is an
        # exact zero, so the first two columns keep the (M, 2) call's bits,
        # inactive, active and rescaled rows alike.
        rng = np.random.default_rng(3000 + m)
        values, grads, partials, u_des = mixed_batch(rng, 2, m)
        grads[2::5] *= 1e180  # squared norms overflow: rescaled rows
        third = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
        third[1::7] = 0.0  # an active row's step turns -0.0 into +0.0
        params = CbfParams(kappa=5.0, alpha_gain=1.7)
        want, active = _project_rows(grads, u_des, partials, values, params)
        got, got_active = _project_rows(
            np.column_stack([grads, np.zeros(m)]),
            np.column_stack([u_des, third]), partials, values, params)
        assert same_bits(got[:, :2], want)
        assert same_bits(got_active, active)
        assert same_bits(got[:, 2], third)
        if m == 4096:  # every kind of row occurs
            assert 0 < np.count_nonzero(active) < m
            assert np.any(active[2::5]) and not np.all(active[2::5])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 7, 4096])
    def test_velocity_rows_match_one_row_calls(self, dim, m):
        rng = np.random.default_rng(2000 * dim + m)
        goal = rng.normal(size=dim)
        ctrl = DesiredController(goal=goal, gain=1.5, u_max=0.8)
        offsets = rng.normal(size=(m, dim))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        # Inside, at (up to rounding) and beyond the saturation radius.
        radius = rng.choice([0.1, 0.8 / 1.5, 3.0], size=(m, 1))
        points = goal + radius * offsets
        points[0] = goal
        for p in points:
            assert same_bits(ctrl.velocity(p), desired_velocity(ctrl, p))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p, scale", [
        ((-3.0, -4.0), 1.0),  # speed exactly u_max
        ((1e200, -1e200), 0.0),  # speed overflows: scaled to signed zeros
        ((np.nan, 0.0), None),
        ((0.0, np.inf), None),
        (ULP_ABOVE, 5.0 / np.nextafter(5.0, 6.0)),
        (ULP_BELOW, 1.0),
        ((0.0, -0.0), 1.0),  # signed zeros through an unscaled row
        ((-0.0, 6.0), 5.0 / 6.0),  # and through a scaled one
    ])
    def test_velocity_edge_rows(self, dim, p, scale):
        # The row, padded with zeros to 3-D, around a goal at the origin,
        # +0.0 or -0.0, that keeps u exact; then it and six random rows
        # against the numpy law.
        p = np.pad(p, (0, dim - 2))
        seven = np.random.default_rng(dim).normal(size=(7, dim))
        seven[3] = p
        for zero in (0.0, -0.0):
            ctrl = DesiredController(goal=np.full(dim, zero), gain=1.0,
                                     u_max=5.0)
            if scale is None:
                with pytest.raises(ValueError) as info:
                    ctrl.velocity(p)
                assert str(info.value) == f"p must be finite, got {p}"
                continue
            assert same_bits(ctrl.velocity(p), (zero - p) * scale)
            for row in seven:
                assert same_bits(ctrl.velocity(row),
                                 desired_velocity(ctrl, row))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("u_max, p", [
        # One ulp below, at and one ulp above the bound u_max (1 - 1e-12)
        # of `_law`'s float test, which only the first row passes.
        (5.0, (-INSIDE_BELOW, 0.0)),
        (5.0, (-INSIDE, 0.0)),
        (5.0, (-INSIDE_ABOVE, 0.0)),
        (5.0, (0.6 * INSIDE_BELOW, -0.8 * INSIDE_BELOW)),
        (1e200, (1e150, 0.0)),  # a huge row, below u_max
        (1e200, (1e160, -1e160)),  # its square overflows: signed zeros
        (1e-150, (1e-151, 0.0)),  # a subnormal square, below u_max
        (1e-150, (3e-150, 0.0)),  # and above it
        (5.0, (np.nan, 0.0)),
    ])
    def test_velocity_rows_at_the_inside_test(self, dim, u_max, p):
        # The row, padded with zeros to 3-D, and six random rows against
        # the numpy law, around a goal at the origin that keeps u = -p.
        p = np.pad(p, (0, dim - 2))
        seven = np.random.default_rng(dim).normal(size=(7, dim)) * u_max
        seven[3] = p
        ctrl = DesiredController(goal=np.zeros(dim), gain=1.0, u_max=u_max)
        if np.isnan(p).any():
            with pytest.raises(ValueError, match="p must be finite"):
                ctrl.velocity(p)
            return
        for row in seven:
            assert same_bits(ctrl.velocity(row), desired_velocity(ctrl, row))

    def test_inside_rows_straddle_the_bound(self):
        # The hypot of each row above at u_max = 5, as `_law` tests it.
        assert math.hypot(INSIDE_BELOW, 0.0) < INSIDE
        assert not math.hypot(INSIDE, 0.0) < INSIDE
        assert math.hypot(0.6 * INSIDE_BELOW, 0.8 * INSIDE_BELOW) < INSIDE

    def test_edge_rows_one_ulp_from_u_max(self):
        # The speeds of two rows above, from the dot the law takes, and the
        # law at both rows.
        ctrl = DesiredController(goal=(0.0, 0.0), gain=1.0, u_max=5.0)
        for p, speed in ((ULP_ABOVE, np.nextafter(5.0, 6.0)),
                         (ULP_BELOW, np.nextafter(5.0, 4.0))):
            u = 0.0 - np.array(p)
            assert math.sqrt(u.dot(u)) == speed
            assert same_bits(ctrl.velocity(p), desired_velocity(ctrl, p))

    def test_velocity_validates_rows(self):
        ctrl = DesiredController(goal=(1.0, 2.0))
        for bad in ([1.0, 2.0, 3.0], [[[1.0, 2.0]]], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="shape"):
                ctrl.velocity(bad)
        # One row only: a batch (M, p) is refused, finite or not.
        for value in (0.0, np.nan, np.inf):
            for rows in ([[value, 0.0]], [[0.0, 0.0], [value, 0.0]]):
                with pytest.raises(ValueError) as info:
                    ctrl.velocity(rows)
                assert str(info.value) == (
                    f"p must have shape (2,), got {np.shape(rows)}")
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ctrl.velocity([0.0, value])

    def test_degenerate_active_row_named(self):
        # Row 2 is violated with a zero gradient; row 1 has a zero gradient
        # but holds the constraint, so it alone would not raise.
        grads = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        values = np.array([1.0, 1.0, -1.0, 1.0])
        u_des = np.ones((4, 2))
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        with pytest.raises(DegenerateGradientError, match="in row 2 "):
            _project_rows(grads, u_des, 0.0, values, params)
        _, active = _project_rows(grads[:2], u_des[:2], 0.0, values[:2],
                                  params)
        assert not np.any(active)

    def test_degenerate_one_row_message(self):
        with pytest.raises(DegenerateGradientError) as info:
            safe_velocity(make_eval((0.0, 0.0), h=-1.0), (1.0, 0.0),
                          CbfParams(kappa=5.0, alpha_gain=2.0))
        assert str(info.value) == (
            "constraint violated (residual -2.000e+00) with near-zero "
            "barrier gradient (norm 0.000e+00)")

    def test_huge_gradient_row_leaves_other_rows(self):
        # Row 1's squared gradient norm overflows; rows 0 and 2 keep the
        # bits of their one-row calls.
        grads = np.array([[0.6, -0.8], [3e180, -4e180], [1.0, 2.0]])
        values = np.array([0.1, 0.5, -0.2])
        u_des = np.array([[-1.0, 0.5], [-1.0, 1.0], [0.3, -0.9]])
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        u_safe, active = _project_rows(grads, u_des, 0.0, values, params)
        assert np.all(active)
        for i in (0, 2):
            one = safe_velocity(make_eval(grads[i], values[i]), u_des[i],
                                params)
            assert np.array_equal(u_safe[i], one.u_safe)
        huge = make_eval(grads[1], values[1])
        assert residual(huge, u_safe[1], params) >= -1e-12 * 5e180
        assert np.allclose(u_safe[1], u_des[1] - (-7.0 / 25.0)
                           * np.array([0.6, -0.8]) * 5.0, atol=1e-15)

    def test_non_finite_active_row_named(self):
        # Row 1 has a NaN value, so it is active; row 2 has an infinite
        # gradient but a residual of +inf, so it holds the constraint and
        # alone must not raise, next to the active row 0.
        grads = np.array([[1.0, 0.0], [1.0, 0.0], [np.inf, 0.0]])
        values = np.array([-1.0, np.nan, 1.0])
        u_des = np.ones((3, 2))
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        with pytest.raises(DegenerateGradientError) as info:
            _project_rows(grads, u_des, 0.0, values, params)
        assert str(info.value) == ("non-finite constraint in row 1: residual "
                                   "nan, barrier gradient norm 1.000e+00")
        keep = [0, 2]
        u_safe, active = _project_rows(grads[keep], u_des[keep], 0.0,
                                       values[keep], params)
        assert np.array_equal(active, [True, False])
        assert np.array_equal(u_safe, [[2.0, 1.0], [1.0, 1.0]])


class TestProjection:
    """`_project`, the float filter of one row; the rows of
    `check_safe_velocity_rows` check it against `_project_rows` as well."""

    def test_negative_zero_residual_is_inactive(self):
        # In one dimension the dot keeps the sign of its one product, so
        # every term of the residual, and the residual, is -0.0; in 2-D and
        # 3-D the BLAS dot sums from +0.0 ("negative-zero terms").
        grad, u = np.array([1.0]), np.array([-0.0])
        params = CbfParams(kappa=5.0, alpha_gain=1.7)
        a = float(grad.dot(u)) + -0.0 + params.alpha_gain * -0.0
        assert same_bits(a, -0.0)
        u_list = u.tolist()
        assert _project(grad, u_list, -0.0, -0.0, params) is u_list
        one = safe_velocity(make_eval(grad, -0.0, -0.0), u, params)
        assert one.u_safe is u and not one.constraint_active
        u_safe, active = _project_rows(
            np.array([grad, grad]), np.array([u, u]), np.array([-0.0, 0.0]),
            np.array([-0.0, 1.0]), params)
        assert same_bits(u_safe[0], u)
        assert same_bits(active[0], np.False_)
