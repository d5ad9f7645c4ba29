"""Plan-view geometry primitives.

Everything here works in 2D plan coordinates (meters). Heights are handled
by the transport layer; walls and door leaves are treated as full-height
opaque planes, so occlusion reduces to 2D segment crossing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cross products below this magnitude (m^2) are treated as degenerate, so a
# sight line grazing a wall endpoint does not count as blocked.
CROSSING_TOL = 1e-9


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class WallSegment:
    a: Point2
    b: Point2

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)


def _tol_sign(value: float) -> int:
    if value > CROSSING_TOL:
        return 1
    if value < -CROSSING_TOL:
        return -1
    return 0


def segments_cross(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """True when segment p1-p2 properly crosses q1-q2.

    Proper means the crossing point is strictly interior to both segments;
    touching an endpoint (within CROSSING_TOL) does not count. That makes a
    ray through a doorway endpoint unobstructed.
    """
    dqx, dqy = q2.x - q1.x, q2.y - q1.y
    d1 = dqx * (p1.y - q1.y) - dqy * (p1.x - q1.x)
    d2 = dqx * (p2.y - q1.y) - dqy * (p2.x - q1.x)
    s1, s2 = _tol_sign(d1), _tol_sign(d2)
    if s1 * s2 >= 0:
        return False
    dpx, dpy = p2.x - p1.x, p2.y - p1.y
    d3 = dpx * (q1.y - p1.y) - dpy * (q1.x - p1.x)
    d4 = dpx * (q2.y - p1.y) - dpy * (q2.x - p1.x)
    s3, s4 = _tol_sign(d3), _tol_sign(d4)
    return s3 * s4 < 0


def segments_as_array(segments: list[WallSegment] | tuple[WallSegment, ...]) -> np.ndarray:
    """Pack segments into an (S, 4) float array of ax, ay, bx, by."""
    if not segments:
        return np.zeros((0, 4))
    return np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments], dtype=float)


def sightlines_blocked(origin_xy: np.ndarray, targets_xy: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Vectorized occlusion: which origin->target sight lines cross a segment.

    origin_xy is shape (2,), targets_xy is (P, 2), segments is (S, 4).
    Returns a boolean array of shape (P,). Uses the same strict-crossing rule
    as segments_cross, so both paths agree point for point.
    """
    targets_xy = np.asarray(targets_xy, dtype=float)
    n_pts = targets_xy.shape[0]
    if segments.shape[0] == 0 or n_pts == 0:
        return np.zeros(n_pts, dtype=bool)
    ox, oy = float(origin_xy[0]), float(origin_xy[1])
    px = targets_xy[:, 0][:, None]  # (P, 1)
    py = targets_xy[:, 1][:, None]
    ax = segments[None, :, 0]  # (1, S)
    ay = segments[None, :, 1]
    bx = segments[None, :, 2]
    by = segments[None, :, 3]

    dqx, dqy = bx - ax, by - ay
    d1 = dqx * (oy - ay) - dqy * (ox - ax)
    d2 = dqx * (py - ay) - dqy * (px - ax)
    s1 = np.sign(d1) * (np.abs(d1) > CROSSING_TOL)
    s2 = np.sign(d2) * (np.abs(d2) > CROSSING_TOL)

    dpx, dpy = px - ox, py - oy
    d3 = dpx * (ay - oy) - dpy * (ax - ox)
    d4 = dpx * (by - oy) - dpy * (bx - ox)
    s3 = np.sign(d3) * (np.abs(d3) > CROSSING_TOL)
    s4 = np.sign(d4) * (np.abs(d4) > CROSSING_TOL)

    crossing = (s1 * s2 < 0) & (s3 * s4 < 0)
    return crossing.any(axis=1)


def point_on_segment(p: Point2, seg: WallSegment, tol: float = CROSSING_TOL) -> bool:
    """True when p lies on seg within tol (used to drop grid points buried in walls)."""
    ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return p.distance_to(seg.a) <= tol
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg_len2
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(p.x - cx, p.y - cy) <= tol


def points_near_segment(xy: np.ndarray, seg: WallSegment, tol: float) -> np.ndarray:
    """point_on_segment's clamp-and-distance test for many (P, 2) points.

    np.hypot may differ from math.hypot in the last place, so a caller
    that needs point_on_segment's exact verdict passes a wider tol here and
    confirms the few hits with the scalar test.
    """
    ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    px, py = xy[:, 0], xy[:, 1]
    if seg_len2 == 0.0:
        return np.hypot(px - ax, py - ay) <= tol
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy)) <= tol
