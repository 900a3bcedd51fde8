"""Desired controller and the closed-form safety filter.

For single-integrator dynamics the barrier constraint
grad(h) . u + dh/dt + gamma * h >= 0 is a single half-space in input space,
so the minimum-deviation safe input is the Euclidean projection of the
desired input onto it; no numeric QP solver is involved.
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
        p = _as_point(p, self.goal.shape[0], "p")
        u = self.gain * (self.goal - p)
        speed = np.linalg.norm(u)
        if speed > self.u_max:
            u = u * (self.u_max / speed)
        return u

    def __eq__(self, other) -> bool:
        if not isinstance(other, DesiredController):
            return NotImplemented
        return (np.array_equal(self.goal, other.goal)
                and self.gain == other.gain and self.u_max == other.u_max)


@dataclass
class FilterResult:
    """Filtered input together with the quantities needed to audit it.

    slack is the constraint residual grad(h) . u + dh/dt + gamma * h at the
    returned input: the unmodified residual when inactive, and exactly zero
    when active (the projection lands on the constraint boundary).
    """

    u_safe: np.ndarray
    u_desired: np.ndarray
    h: float
    constraint_active: bool
    slack: float


def safe_velocity(evaluation: BarrierEvaluation, u_desired,
                  params: CbfParams) -> FilterResult:
    """Minimally modify a desired velocity to satisfy the barrier constraint.

    Let a = grad(h) . u_des + dh/dt + gamma * h.  If a >= 0 the desired
    input already satisfies the constraint and is returned unchanged;
    otherwise the projection u_des - (a / ||grad||^2) * grad lands exactly
    on the constraint boundary.  No saturation is applied to the corrected
    input: only the desired controller saturates.

    Raises
    ------
    DegenerateGradientError
        If a < 0 while ||grad(h)|| <= 1e-10; there is deliberately no
        silent fallback for this case.
    """
    grad = np.asarray(evaluation.gradient, dtype=float)
    u_desired = np.asarray(u_desired, dtype=float)
    a = float(grad @ u_desired + evaluation.time_partial
              + params.alpha_gain * evaluation.value)
    if a >= 0.0:
        return FilterResult(u_desired, u_desired, evaluation.value, False, a)
    grad_sq = float(grad @ grad)
    if grad_sq <= _DEGENERATE_NORM ** 2:
        raise DegenerateGradientError(
            f"constraint violated (residual {a:.3e}) with near-zero barrier "
            f"gradient (norm {np.sqrt(grad_sq):.3e})")
    u_safe = u_desired - (a / grad_sq) * grad
    # The projection satisfies the constraint with equality; recomputing the
    # residual at the rounded output would only report cancellation noise.
    return FilterResult(u_safe, u_desired, evaluation.value, True, 0.0)
