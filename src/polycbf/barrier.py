"""Barrier compositions for polytope environments.

Two layers live here: the exact nonsmooth margins (max over regions of the
min over faces and agent vertices) and their differentiable log-sum-exp
counterpart with analytic gradient and time partial.  Both come from one
kernel, `_evaluate`, which is stabilized so that exponents of magnitude up
to ~1e4 cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AgentShape, PolytopeEnvironment

__all__ = [
    "CbfParams",
    "BarrierEvaluation",
    "margin_agent",
    "margin_field",
    "smooth_barrier",
    "barrier_field",
    "provable_buffer",
]

# Centers per kernel call in barrier_field, bounding its peak memory.
_CHUNK = 4096


@dataclass(frozen=True)
class CbfParams:
    """Smoothing sharpness kappa, buffer b (subtracted as b/kappa), and the
    linear class-K gain gamma in alpha(h) = gamma * h."""

    kappa: float
    buffer: float = 0.0
    alpha_gain: float = 1.0

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ValueError(
                f"kappa must be positive and finite, got {self.kappa}")
        if not 0 <= self.buffer < np.inf:
            raise ValueError(
                f"buffer must be nonnegative and finite, got {self.buffer}")
        if not 0 < self.alpha_gain < np.inf:
            raise ValueError(
                f"alpha_gain must be positive and finite, got {self.alpha_gain}")


@dataclass
class BarrierEvaluation:
    """Smooth barrier value with its spatial gradient, time partial, and the
    exact nonsmooth margin kept alongside for diagnostics.  `safe_velocity`
    also takes a batch: a gradient of shape (M, p), with the scalars given
    per row, shape (M,), or once for all rows."""

    value: float | np.ndarray
    gradient: np.ndarray
    time_partial: float | np.ndarray
    nonsmooth_value: float | np.ndarray


def provable_buffer(env: PolytopeEnvironment) -> float:
    """Buffer log(N_p) that makes the smooth barrier a guaranteed
    under-approximation of the nonsmooth margin."""
    return float(np.log(env.num_regions))


def _face_terms(env: PolytopeEnvironment, shape: AgentShape, t: float,
                kappa: float | None):
    """The centre-independent half of `_evaluate`, memoised on env.

    The agent translates without rotating, so vertex k shifts face i by the
    constant n_i . dp_k, and the agent's vertex axis reduces to one support
    per face: the hard support min_k n_i . dp_k for the exact margin psi and
    the soft support -(1/kappa) ln sum_k exp(-kappa n_i . dp_k) for h, since
    sum_k exp(-kappa psi_ik) = exp(-kappa (n_i . p - c_i)) sum_k
    exp(-kappa n_i . dp_k).  None of this depends on the centre, so it is
    kept in a one-entry memo on env keyed by (shape identity, kappa, t),
    where t is ignored in a static world.  The entry is read once and
    replaced by a single assignment, so concurrent callers each see a
    whole entry.

    Returns
    -------
    (normals, hard_offsets, soft_offsets, row_normals, normal_rates,
     rate_offsets)
        Per face: hard - c_i, soft - c_i, and the soft support's rate less
        the level rate (the softmin-weighted mean of ndot_i . dp_k, minus
        cdot_i); row_normals are the normals per region row.  Without
        kappa the soft, row and rate-offset terms are None; in a static
        world both rate terms are.
    """
    entry = env._memo
    if (entry is not None and entry[0] is shape and entry[1] == kappa
            and (env.is_static or entry[2] == t)):
        return entry[3]
    if shape.dimension != env.dimension:
        raise ValueError(
            f"agent dimension {shape.dimension} != environment dimension "
            f"{env.dimension}")
    normals, levels, normal_rates, level_rates = env.frame(t)
    vertex_dots = normals @ shape.offsets.T                  # (N_w, N_v)
    hard = np.minimum.reduce(vertex_dots, axis=1)
    soft_offsets = row_normals = rate_offsets = None
    if kappa is not None:
        # Shifting by the hard support keeps every sum in [1, N_v].
        vertex_exp = np.exp((hard[:, None] - vertex_dots) * kappa)
        vertex_sums = np.add.reduce(vertex_exp, axis=1)      # >= 1 each
        soft = hard - np.log(vertex_sums) / kappa
        soft_offsets = soft - levels
        row_normals = normals[env._rows]
        if normal_rates is not None:
            support_rates = np.einsum("ik,ik->i", vertex_exp,
                                      normal_rates @ shape.offsets.T) \
                / vertex_sums
            rate_offsets = support_rates - level_rates
    terms = (normals, hard - levels, soft_offsets, row_normals, normal_rates,
             rate_offsets)
    env._memo = (shape, kappa, t, terms)
    return terms


def _evaluate(env: PolytopeEnvironment, shape: AgentShape, centers, t: float,
              params: CbfParams | None = None, derivatives: bool = False):
    """The one composition behind every barrier and margin in this module.

    The agent reduces to a point with one support per face (see
    `_face_terms`), and the rest is the point-agent composition over the
    per-face values n_i . p - c_i + support_i.  Every exponential is
    shifted by its group's exact minimum (or soft maximum), so no exponent
    exceeds ln N_v.

    Parameters
    ----------
    centers : array_like, shape (p,) or (M, p)
    params : CbfParams, optional
        Without it only psi is computed.
    derivatives : bool
        Also compute the gradient (shape of centers) and the time partial.

    Returns
    -------
    (h, gradient, time_partial, psi)
        Scalars for one center, arrays of leading length M for a batch;
        the quantities not asked for are None.
    """
    kappa = None if params is None else params.kappa
    (normals, hard_offsets, soft_offsets, row_normals, normal_rates,
     rate_offsets) = _face_terms(env, shape, t, kappa)
    rows, segments, row_region = env._rows, env._segments, env._row_region
    # Face-major layout, (N_w,) or (N_w, M): per-face constants are folded
    # in before the transpose so they broadcast for one center or many.
    spatial = centers @ normals.T
    exact = (spatial + hard_offsets).T[rows]                 # (R, ...)
    mins = np.minimum.reduceat(exact, segments)              # (N_p, ...)
    psi = np.maximum.reduce(mins)
    if params is None:
        return None, None, None, psi

    # Soft values sit at most ln(N_v)/kappa below the exact ones and the
    # argmin term is at least one, so shifting by the exact region minima
    # keeps every sum in [1, R * N_v].
    values = (spatial + soft_offsets).T[rows]
    shifted = np.exp((mins[row_region] - values) * kappa)
    region_sums = np.add.reduceat(shifted, segments)
    soft_mins = mins - np.log(region_sums) / kappa
    top = np.maximum.reduce(soft_mins)
    outer = np.exp((soft_mins - top) * kappa)
    outer_total = np.add.reduce(outer)                       # >= 1
    h = top + (np.log(outer_total) - params.buffer) / kappa
    if not derivatives:
        return h, None, None, psi

    # Region weight times within-region softmin weight: they sum to one,
    # so the gradient is a convex combination of face normals.
    weights = shifted * (outer / (outer_total * region_sums))[row_region]
    gradient = weights.T @ row_normals
    if normal_rates is None:                                 # dh/dt = 0
        return h, gradient, h * 0.0, psi
    rates = (centers @ normal_rates.T + rate_offsets).T
    time_partial = np.add.reduce(weights * rates[rows])
    return h, gradient, time_partial, psi


def _as_centers(env: PolytopeEnvironment, centers) -> np.ndarray:
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != env.dimension:
        raise ValueError(f"centers must have shape (M, {env.dimension})")
    return centers


def margin_agent(env: PolytopeEnvironment, shape: AgentShape, center,
                 t: float = 0.0) -> float:
    """Exact nonsmooth margin: max over regions of the min over the region's
    faces and all agent vertices.

    Nonnegative values certify that the agent's convex hull lies inside the
    environment.  The max-of-mins order is essential: all vertices must sit
    in a common convex region.
    """
    return float(_evaluate(env, shape, np.asarray(center, dtype=float), t)[3])


def margin_field(env: PolytopeEnvironment, shape: AgentShape, centers,
                 t: float = 0.0) -> np.ndarray:
    """Exact nonsmooth margins over a batch of agent centers, shape (M,)."""
    return _evaluate(env, shape, _as_centers(env, centers), t)[3]


def smooth_barrier(env: PolytopeEnvironment, shape: AgentShape, center,
                   t: float, params: CbfParams) -> BarrierEvaluation:
    """Differentiable barrier candidate for a polytope agent.

    The value is
        (1/kappa) * ln( sum_j ( sum_{i in I_j, k} exp(-kappa psi_ik) )^-1 )
            - buffer/kappa,
    a soft max over regions of the soft min over each region's face-vertex
    values psi_ik.  The gradient with respect to the agent center is the
    convex combination of face normals induced by the soft weights; the
    time partial applies the identical weights to the face-value time rates.

    Returns
    -------
    BarrierEvaluation
        value, gradient (shape (p,)), time_partial, and the exact nonsmooth
        margin for diagnostics.
    """
    h, gradient, time_partial, psi = _evaluate(
        env, shape, np.asarray(center, dtype=float), t, params,
        derivatives=True)
    return BarrierEvaluation(float(h), gradient, float(time_partial),
                             float(psi))


def barrier_field(env: PolytopeEnvironment, shape: AgentShape, centers,
                  t: float, params: CbfParams):
    """Smooth barrier and nonsmooth margin over a batch of agent centers.

    Vectorized value-only path for grid audits and field dumps; gradients
    are not computed.  Centers go through the kernel in fixed-size blocks,
    bounding peak memory.

    Parameters
    ----------
    centers : array_like, shape (M, p)

    Returns
    -------
    (h, margin) : two arrays of shape (M,)
    """
    centers = _as_centers(env, centers)
    h_out = np.empty(centers.shape[0])
    margin_out = np.empty(centers.shape[0])
    for start in range(0, centers.shape[0], _CHUNK):
        block = slice(start, start + _CHUNK)
        h_out[block], _, _, margin_out[block] = _evaluate(
            env, shape, centers[block], t, params)
    return h_out, margin_out
