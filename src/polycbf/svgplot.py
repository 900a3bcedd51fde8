"""Dependency-free SVG rendering of scenarios and trajectories.

Output is plain hand-assembled SVG with fixed number formatting, so files
are byte-identical across runs for identical inputs.  2D scenarios render
as one panel; 3D scenarios as three orthographic projections (xy, xz, yz).
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_trajectory"]

_SIZE = 420.0
_MARGIN = 24.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices counterclockwise."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                a, b = out[-1] - out[-2], p - out[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


class _Panel:
    """One coordinate frame mapped into a square pixel viewport."""

    def __init__(self, low, high, origin_x):
        span = max(float(high[0] - low[0]), float(high[1] - low[1]), 1e-9)
        self.scale = (_SIZE - 2 * _MARGIN) / span
        self.low = low
        self.origin_x = origin_x
        self.parts: list[str] = []

    def to_px(self, p) -> tuple[float, float]:
        x = self.origin_x + _MARGIN + (p[0] - self.low[0]) * self.scale
        y = _SIZE - _MARGIN - (p[1] - self.low[1]) * self.scale
        return x, y

    def polyline(self, points, stroke, width, closed=False):
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self.to_px(p) for p in points))
        tag = "polygon" if closed else "polyline"
        self.parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def line(self, a, b, stroke):
        ax, ay = self.to_px(a)
        bx, by = self.to_px(b)
        self.parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
            f'y2="{_fmt(by)}" stroke="{stroke}" stroke-width="1.0"/>')

    def marker(self, p, fill, r=4.0):
        x, y = self.to_px(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{fill}"/>')

    def label(self, text, x, y):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="12" fill="#333">{text}</text>')


def _clip_line_to_box(point, direction, low, high):
    """Segment of the line point + s*direction inside the box, or None."""
    s_min, s_max = -np.inf, np.inf
    for axis in range(2):
        d = direction[axis]
        if abs(d) < 1e-12:
            if not (low[axis] - 1e-9 <= point[axis] <= high[axis] + 1e-9):
                return None
            continue
        s0 = (low[axis] - point[axis]) / d
        s1 = (high[axis] - point[axis]) / d
        s_min = max(s_min, min(s0, s1))
        s_max = min(s_max, max(s0, s1))
    if s_min >= s_max:
        return None
    return point + s_min * direction, point + s_max * direction


def _draw_environment(panel: _Panel, scenario, t: float, axes, low, high,
                      stroke: str):
    normals, levels, _, _ = scenario.environment.frame(t)
    for normal, level in zip(normals, levels):
        # The point of face n . x = level nearest the origin.
        n = normal[axes]
        w = (level / (normal @ normal) * normal)[axes]
        if np.linalg.norm(n) < 1e-12:
            continue  # face is edge-on in this projection
        direction = np.array([-n[1], n[0]])
        direction = direction / np.linalg.norm(direction)
        seg = _clip_line_to_box(w, direction, low, high)
        if seg is not None:
            panel.line(seg[0], seg[1], stroke)


def _render_panel(scenario, result, axes, origin_x, title):
    traj = result.positions[:, axes]
    pts = np.vstack([traj, scenario.controller.goal[axes],
                     *(hs.anchor[axes]
                       for hs in scenario.environment.half_spaces)])
    pad = scenario.agent.circumradius + 0.5
    low, high = pts.min(axis=0) - pad, pts.max(axis=0) + pad

    panel = _Panel(low, high, origin_x)
    panel.label(title, origin_x + _MARGIN, 16.0)

    # an error run can end before its first row, at t = 0
    times = result.times if result.times.size else np.zeros(1)
    _draw_environment(panel, scenario, float(times[0]), axes, low, high,
                      "#999999")
    if not scenario.environment.is_static:
        _draw_environment(panel, scenario, float(times[-1]), axes, low, high,
                          "#cccccc")

    # agent hull snapshots along the trajectory
    n_snap = min(8, traj.shape[0])
    snap_idx = np.unique(np.linspace(0, traj.shape[0] - 1, n_snap).astype(int))
    offsets2 = scenario.agent.offsets[:, axes]
    for i in snap_idx:
        hull = _convex_hull_2d(traj[i] + offsets2)
        if hull.shape[0] >= 3:
            panel.polyline(hull, "#8db4e2", width=1.0, closed=True)
        else:
            panel.marker(traj[i], "#8db4e2", r=2.0)

    if traj.size:
        panel.polyline(traj, "#1f4e9c", width=2.0)
        panel.marker(traj[0], "#2a9d2a")
    panel.marker(scenario.controller.goal[axes], "#d62728")
    return panel.parts


def render_trajectory(scenario, result, path) -> None:
    """Write an SVG of the environment outline, trajectory, and agent
    snapshots; 3D results are shown as xy / xz / yz projections."""
    dim = result.positions.shape[1]
    if dim == 2:
        panels = [(0, 1, 0.0, "xy")]
        width = _SIZE
    else:
        panels = [(0, 1, 0.0, "xy"), (0, 2, _SIZE, "xz"), (1, 2, 2 * _SIZE, "yz")]
        width = 3 * _SIZE

    body: list[str] = []
    for ax0, ax1, origin, title in panels:
        body.extend(_render_panel(scenario, result, [ax0, ax1], origin, title))

    content = "\n".join(
        ['<?xml version="1.0" encoding="UTF-8"?>',
         f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
         f'height="{_SIZE:.0f}" viewBox="0 0 {width:.0f} {_SIZE:.0f}">',
         '<rect width="100%" height="100%" fill="white"/>',
         *body,
         "</svg>", ""])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
