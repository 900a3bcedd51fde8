"""Desired controller and the closed-form safety filter.

For single-integrator dynamics the barrier constraint
grad(h) . u + dh/dt + gamma * h >= 0 is a single half-space in input space,
so the minimum-deviation safe input is the Euclidean projection of the
desired input onto it; no numeric QP solver is involved.

Both the controller and the filter take one row (p,) or a batch of rows
(M, p) through the same code, and every row of a batch equals the one-row
call bit for bit.  Row dot products go through np.vecdot, which rounds like
the one-row `a @ b` (broadcast products summed with .sum(-1) or einsum do
not).  On one row every intermediate is a numpy scalar, whose arithmetic is
cheap; the few reductions over rows go through `_count`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import BarrierEvaluation, CbfParams
from .geometry import _as_point

__all__ = ["DesiredController", "FilterResult", "DegenerateGradientError",
           "safe_velocity"]

_DEGENERATE_NORM = 1e-10


class DegenerateGradientError(RuntimeError):
    """The constraint is violated but the barrier gradient is (numerically)
    zero, so no input direction can restore it.  Usually means kappa is too
    small for the geometry or the state is deep outside the safe set."""


def _squared_norms(grad):
    """np.vecdot(grad, grad) without an overflow warning: a row whose square
    sum leaves the float range gets inf, which `safe_velocity` rescales.
    Entries below 1e150 cannot overflow, and one row is checked in Python,
    which costs less than switching numpy's error state."""
    top = (max(map(abs, grad.tolist())) if grad.ndim == 1
           else np.max(np.abs(grad)))
    if top < 1e150:  # False for NaN, which takes the guarded path
        return np.vecdot(grad, grad)
    with np.errstate(over="ignore"):
        return np.vecdot(grad, grad)


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
        self.goal = _as_point(self.goal, name="goal")
        if not 0 < self.gain < np.inf:
            raise ValueError(
                f"gain must be positive and finite, got {self.gain}")
        if not 0 < self.u_max < np.inf:
            raise ValueError(
                f"u_max must be positive and finite, got {self.u_max}")

    def velocity(self, p) -> np.ndarray:
        """Desired input at a position (p,) or at each row of (M, p)."""
        p = np.asarray(p, dtype=float)
        dim = self.goal.shape[0]
        if p.ndim not in (1, 2) or p.shape[-1] != dim:
            raise ValueError(
                f"p must have shape ({dim},) or (M, {dim}), got {p.shape}")
        u = self.gain * (self.goal - p)
        speed = np.sqrt(np.vecdot(u, u))
        # A finite speed needs a finite p, so p itself is only scanned when
        # some speed is not finite (a non-finite p, or an overflow).
        if _count(speed < np.inf) < speed.size and not np.isfinite(p).all():
            raise ValueError(f"p must be finite, got {p}")
        # Scale u in place through its transpose, which lines each row up
        # with its scale; rows at or below u_max are scaled by exactly 1.0.
        rows = u.T
        rows *= self.u_max / np.maximum(speed, self.u_max)
        return u

    def __eq__(self, other) -> bool:
        if not isinstance(other, DesiredController):
            return NotImplemented
        return (np.array_equal(self.goal, other.goal)
                and self.gain == other.gain and self.u_max == other.u_max)


@dataclass
class FilterResult:
    """Filtered input together with the desired input, the barrier value
    and whether the projection acted: one row, or one entry per row."""

    u_safe: np.ndarray
    u_desired: np.ndarray
    h: float | np.ndarray
    constraint_active: bool | np.ndarray


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


def safe_velocity(evaluation: BarrierEvaluation, u_desired,
                  params: CbfParams) -> FilterResult:
    """Minimally modify a desired velocity to satisfy the barrier constraint.

    Let a = grad(h) . u_des + dh/dt + gamma * h.  If a >= 0 the desired
    input already satisfies the constraint and is returned unchanged;
    otherwise the projection u_des - (a / ||grad||^2) * grad lands on the
    constraint boundary.  No saturation is applied to the corrected input:
    only the desired controller saturates.

    One problem has a gradient and input of shape (p,); a batch has both of
    shape (M, p), with value and time partial broadcasting against (M,).

    Raises
    ------
    DegenerateGradientError
        If a < 0 while ||grad(h)|| <= 1e-10 on some row, or if an active
        row's a or grad(h) is not finite; there is deliberately no silent
        fallback for either case.  A finite gradient whose squared norm
        overflows is projected from its rescaled row instead.
    """
    grad = np.asarray(evaluation.gradient, dtype=float)
    u_desired = np.asarray(u_desired, dtype=float)
    a = (np.vecdot(grad, u_desired) + evaluation.time_partial
         + params.alpha_gain * evaluation.value)
    active = (a < 0.0) | (a != a)  # a NaN residual counts as violated
    n_active = _count(active)
    if not n_active:
        return FilterResult(u_desired, u_desired, evaluation.value, active)
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
    u_safe = u_desired - (grad.T * (a / grad_sq)).T
    return FilterResult(u_safe, u_desired, evaluation.value, active)
