"""Desired controller and the closed-form safety filter.

For single-integrator dynamics the barrier constraint
grad(h) . u + dh/dt + gamma * h >= 0 is a single half-space in input space,
so the minimum-deviation safe input is the Euclidean projection of the
desired input onto it; no numeric QP solver is involved.

The controller and the filter take one row (p,), as a rollout or a
control tick passes it, and work in Python floats: their dot products are
`a.dot(b)` and their tests plain float comparisons, which cost less than
numpy calls on a 2- or 3-vector.  The one-row laws are
`DesiredController._law` for the controller and `_project` for the
filter, on lists of floats, and a rollout's stages call both directly.
The batch filter `_project_rows` of rows (M, p) reduces over rows with
numpy (`_count`, np.where), and its row dot products go through
np.vecdot, which calls the same BLAS dot as the one-row `a.dot(b)` and so
rounds like it (broadcast products summed with .sum(-1) or einsum do
not); every row equals the one-row filter bit for bit.  `_project` hands
a row it cannot project at once (a non-finite residual, a degenerate
gradient or one that needs rescaling) to `_project_rows`, which raises or
rescales, and the qp audit of `verify` filters its random problems
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierEvaluation, CbfParams
from .geometry import _as_point, _eq_by, _require_positive

__all__ = ["DesiredController", "FilterResult", "DegenerateGradientError",
           "safe_velocity"]

_DEGENERATE_NORM = 1e-10
# A row whose entries are all below this in magnitude has a finite square.
_HUGE = 1e150


class DegenerateGradientError(RuntimeError):
    """The constraint is violated but the barrier gradient is (numerically)
    zero, so no input direction can restore it.  Usually means kappa is too
    small for the geometry or the state is deep outside the safe set."""


def _squared_norms(rows):
    """np.vecdot(rows, rows) without an overflow warning: a row whose square
    sum leaves the float range gets inf, which `_project_rows` rescales and
    `DesiredController._law` scales to zero."""
    if np.max(np.abs(rows)) < _HUGE:  # False for NaN: the guarded path
        return np.vecdot(rows, rows)
    with np.errstate(over="ignore"):
        return np.vecdot(rows, rows)


def _count(mask) -> int:
    """Number of set entries of a boolean scalar or array.  np.count_nonzero
    of an ndarray costs a fraction of np.any or .any() on a numpy bool."""
    return np.count_nonzero(np.asarray(mask))


@dataclass
class DesiredController:
    """Saturated proportional controller toward a goal point:
    u_des = sat(gain * (goal - p)) with saturation at norm u_max."""

    goal: np.ndarray
    gain: float = 1.0
    u_max: float = 1.0

    def __post_init__(self):
        self.goal = _as_point(self.goal, "goal")
        _require_positive("gain", self.gain)
        _require_positive("u_max", self.u_max)

    def velocity(self, p) -> np.ndarray:
        """Desired input at a position of shape (p,)."""
        p = np.asarray(p, dtype=float)
        dim = self.goal.shape[0]
        if p.shape != (dim,):
            raise ValueError(f"p must have shape ({dim},), got {p.shape}")
        return np.array(self._law(p.tolist()))

    def _law(self, p: list) -> list:
        """The desired input at one position, both lists of floats, bit for
        bit the numpy law u = gain (goal - p) scaled by
        u_max / max(||u||, u_max): each entry is rounded as numpy rounds it,
        and the speed comes from the BLAS dot of ndarray.dot.  A row at or
        below u_max keeps u, which that law scales by exactly 1.0."""
        u = [self.gain * (g - q) for g, q in zip(self.goal.tolist(), p)]
        # math.hypot is within an ulp of the exact speed, and the BLAS dot,
        # fused or not, within a few ulps of its square, so a hypot below
        # u_max (1 - 1e-12) proves speed <= u_max.  The bounds on u_max
        # keep the dot's square normal and finite; NaN fails the test.
        hypot = math.hypot(*u)
        if hypot < self.u_max * (1.0 - 1e-12) and 1e-140 < self.u_max < 1e150:
            return u
        row = np.array(u)
        # A hypot below _HUGE bounds every entry, whose squares then cannot
        # overflow; ndarray.dot warns if they do.
        speed = math.sqrt(row.dot(row) if hypot < _HUGE
                          else _squared_norms(row))
        if speed <= self.u_max:
            return u
        if not speed < math.inf and not all(map(math.isfinite, p)):
            raise ValueError(f"p must be finite, got {np.array(p)}")
        scale = self.u_max / speed
        return [scale * v for v in u]

    __eq__ = _eq_by()


@dataclass
class FilterResult:
    """Filtered input together with the desired input, the barrier value
    and whether the projection acted, for one row."""

    u_safe: np.ndarray
    u_desired: np.ndarray
    h: float
    constraint_active: bool

    __eq__ = _eq_by()


def _raise_unusable(usable, a, grad_sq, batch: bool):
    """Raise DegenerateGradientError for the first row that is not usable."""
    row = int(np.argmin(np.ravel(usable)))
    in_row = f" in row {row}" if batch else ""
    a, norm = np.ravel(a)[row], np.sqrt(np.ravel(grad_sq)[row])
    if a > -np.inf and norm < np.inf:
        raise DegenerateGradientError(
            f"constraint violated{in_row} (residual {a:.3e}) with "
            f"near-zero barrier gradient (norm {norm:.3e})")
    raise DegenerateGradientError(
        f"non-finite constraint{in_row}: residual {a:.3e}, barrier "
        f"gradient norm {norm:.3e}")


def _project(grad: np.ndarray, u: list, time_partial: float, value: float,
             params: CbfParams):
    """The filter of one row in Python floats: a gradient of shape (p,) and
    a desired input u, a list of floats.

    Returns u itself when the residual a = grad . u + dh/dt + gamma h is at
    least zero, and otherwise the projection u - (a / ||grad||^2) grad as a
    list of floats.  The dots are the BLAS dot that np.vecdot calls, and
    every float operation is `_project_rows`', in its order, so the result
    is a batch row bit for bit.  A row with a non-finite residual, a
    gradient entry of 1e150 or more, or a squared gradient norm that is
    near zero or overflows goes to `_project_rows`, which raises
    DegenerateGradientError or projects the rescaled row.
    """
    a = float(grad.dot(u)) + time_partial + params.alpha_gain * value
    if a >= 0.0:
        return u
    g = grad.tolist()
    if a > -math.inf and max(map(abs, g)) < _HUGE:
        grad_sq = float(grad.dot(grad))
        if _DEGENERATE_NORM ** 2 < grad_sq < math.inf:
            step = a / grad_sq
            return [v - w * step for v, w in zip(u, g)]
    return _project_rows(grad, np.array(u), time_partial, value,
                         params)[0].tolist()


def _project_rows(grad: np.ndarray, u: np.ndarray, time_partial, value,
                  params: CbfParams):
    """The filter of one row (p,) or of a batch (M, p) in numpy, with value
    and time partial broadcasting against (M,): (u_safe, active).  u_safe
    is u itself when no row is active; an inactive row of a batch keeps its
    input bit for bit."""
    a = np.vecdot(grad, u) + time_partial + params.alpha_gain * value
    active = (a < 0.0) | (a != a)  # a NaN residual counts as violated
    n_active = _count(active)
    if not n_active:
        return u, active
    grad_sq = _squared_norms(grad)
    if n_active < active.size:
        # Rows that already meet the constraint take the step
        # (0 / 1) * 0 = +0.0, which leaves their input bit for bit.
        a = np.where(active, a, 0.0)
        grad_sq = np.where(active, grad_sq, 1.0)
        grad = np.where(active[..., None], grad, 0.0)
    # An active row needs a finite residual (active means a < 0 or NaN) and
    # a finite gradient that is not near zero; NaN fails every comparison.
    usable = ((a > -np.inf) & (grad_sq > _DEGENERATE_NORM ** 2)
              & (grad_sq < np.inf))
    if _count(usable) < usable.size:
        # A finite gradient whose square overflows: dividing its row and
        # the residual by the largest entry leaves the step unchanged.
        huge = ((grad_sq == np.inf) & (a > -np.inf)
                & np.isfinite(grad).all(axis=-1))
        if _count(huge):
            scale = np.where(huge, np.max(np.abs(grad), axis=-1), 1.0)
            grad, a = (grad.T / scale).T, a / scale
            grad_sq = np.where(huge, np.vecdot(grad, grad), grad_sq)
            usable = usable | huge
        if _count(usable) < usable.size:
            _raise_unusable(usable, a, grad_sq, grad.ndim > 1)
    return u - (grad.T * (a / grad_sq)).T, active


def safe_velocity(evaluation: BarrierEvaluation, u_desired,
                  params: CbfParams) -> FilterResult:
    """Minimally modify a desired velocity to satisfy the barrier constraint.

    Let a = grad(h) . u_des + dh/dt + gamma * h.  If a >= 0 the desired
    input already satisfies the constraint and is returned unchanged;
    otherwise the projection u_des - (a / ||grad||^2) * grad lands on the
    constraint boundary.  No saturation is applied to the corrected input:
    only the desired controller saturates.

    The gradient and the desired input have one shape (p,), and the value
    and time partial are scalars, taken as floats; any other shape raises
    ValueError.  An inactive filter returns the desired input array itself
    as u_safe.

    Raises
    ------
    DegenerateGradientError
        If a < 0 while ||grad(h)|| <= 1e-10, or if the filter is active and
        a or grad(h) is not finite; there is deliberately no silent
        fallback for either case.  A finite gradient whose squared norm
        overflows is projected from its rescaled row instead.
    """
    grad = np.asarray(evaluation.gradient, dtype=float)
    u_desired = np.asarray(u_desired, dtype=float)
    if grad.ndim != 1 or u_desired.shape != grad.shape:
        raise ValueError(f"gradient and u_desired must have one shape (p,), "
                         f"got {grad.shape} and {u_desired.shape}")
    value, time_partial = evaluation.value, evaluation.time_partial
    if (type(value) is not float and np.ndim(value)) or \
            (type(time_partial) is not float and np.ndim(time_partial)):
        raise ValueError(f"value and time_partial must be scalars, got "
                         f"shapes {np.shape(value)} and "
                         f"{np.shape(time_partial)}")
    value, u = float(value), u_desired.tolist()
    u_safe = _project(grad, u, float(time_partial), value, params)
    if u_safe is u:
        return FilterResult(u_desired, u_desired, value, np.False_)
    return FilterResult(np.array(u_safe), u_desired, value, np.True_)
