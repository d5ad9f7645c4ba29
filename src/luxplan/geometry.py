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


def sightlines_blocked(origins: np.ndarray, targets: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Vectorized occlusion: which origin->target sight lines cross a segment.

    origins is (L, 2), targets is (P, 2), segments is (S, 4). Returns a
    boolean array of shape (L, P). Uses the same strict-crossing rule and
    the same float expressions as segments_cross, so both paths agree point
    for point.

    One pass per segment serves every origin. The targets' side of the
    segment's line is computed once per segment, and the crossing test
    along the sight line (d3, d4) runs only for pairs whose ends lie
    strictly on opposite sides of that line and that no earlier segment has
    blocked. Temporaries are O(L * P).
    """
    origins = np.asarray(origins, dtype=float)
    targets = np.asarray(targets, dtype=float)
    shape = (origins.shape[0], targets.shape[0])
    ox, oy = origins[:, 0], origins[:, 1]
    px, py = targets[:, 0], targets[:, 1]
    pxs, pys = np.broadcast_to(px, shape), np.broadcast_to(py, shape)
    tol = CROSSING_TOL
    open_ = np.ones(shape, dtype=bool)
    for ax, ay, bx, by in np.asarray(segments, dtype=float).tolist():
        dqx, dqy = bx - ax, by - ay
        d1 = dqx * (oy - ay) - dqy * (ox - ax)
        d2 = dqx * (py - ay) - dqy * (px - ax)
        # pairs still open whose ends lie strictly on opposite sides
        cand = np.zeros(shape, dtype=bool)
        cand[d1 > tol] = d2 < -tol
        cand[d1 < -tol] = d2 > tol
        cand &= open_
        # cand is row-major, so its pairs come origin by origin
        per_origin = np.count_nonzero(cand, axis=1)
        oxs, oys = np.repeat(ox, per_origin), np.repeat(oy, per_origin)
        dpx, dpy = pxs[cand] - oxs, pys[cand] - oys
        d3 = dpx * (ay - oys) - dpy * (ax - oxs)
        d4 = dpx * (by - oys) - dpy * (bx - oxs)
        cand[cand] = (np.minimum(d3, d4) < -tol) & (np.maximum(d3, d4) > tol)
        open_ ^= cand
    return ~open_


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
