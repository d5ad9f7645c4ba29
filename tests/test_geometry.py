"""Segment crossing and batch occlusion.

The scalar predicate is checked against an exact integer-arithmetic oracle
(on lattice coordinates the deadband never matters), and the vectorized
occlusion kernel must agree with the scalar predicate point for point, and
bit for bit with a broadcast single-origin reference kept here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan.geometry import (
    CROSSING_TOL,
    Point2,
    WallSegment,
    point_on_segment,
    segments_as_array,
    segments_cross,
    sightlines_blocked,
)


def exact_proper_cross(p1, p2, q1, q2) -> bool:
    """Strict proper-crossing predicate in exact integer arithmetic."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def test_proper_crossing():
    assert segments_cross(Point2(0, 0), Point2(2, 2), Point2(0, 2), Point2(2, 0))


def test_parallel_segments_do_not_cross():
    assert not segments_cross(Point2(0, 0), Point2(2, 0), Point2(0, 1), Point2(2, 1))


def test_collinear_overlap_is_not_a_proper_crossing():
    assert not segments_cross(Point2(0, 0), Point2(2, 0), Point2(1, 0), Point2(3, 0))


def test_endpoint_touch_does_not_count():
    # sight line through a doorway endpoint must remain unobstructed
    assert not segments_cross(Point2(0, 0), Point2(2, 2), Point2(1, 1), Point2(3, 0))
    assert not segments_cross(Point2(0, 0), Point2(1, 1), Point2(1, 1), Point2(2, 0))


def test_shared_endpoint_between_segments():
    assert not segments_cross(Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(1, 1))


coord = st.integers(min_value=-8, max_value=8)
lattice_point = st.tuples(coord, coord)


@given(lattice_point, lattice_point, lattice_point, lattice_point)
@settings(max_examples=300, deadline=None)
def test_crossing_matches_exact_oracle(a, b, c, d):
    got = segments_cross(Point2(*a), Point2(*b), Point2(*c), Point2(*d))
    assert got == exact_proper_cross(a, b, c, d)


def broadcast_sightlines_blocked(origin_xy, targets_xy, segments):
    """Reference occlusion for one origin: every (target, segment) pair at
    once, with the crossing rule's sign products spelled out."""
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


def check_kernel(origins, pts, segs):
    """sightlines_blocked row by row against the scalar loop and the
    broadcast reference."""
    segments = segments_as_array(segs)
    got = sightlines_blocked(np.array(origins, dtype=float).reshape(-1, 2),
                             np.array(pts, dtype=float).reshape(-1, 2), segments)
    assert got.shape == (len(origins), len(pts)) and got.dtype == bool
    for l, origin in enumerate(origins):
        o = Point2(*origin)
        scalar = [any(segments_cross(o, Point2(px, py), s.a, s.b) for s in segs) for px, py in pts]
        assert got[l].tolist() == scalar
        assert np.array_equal(got[l], broadcast_sightlines_blocked(origin, np.array(pts), segments))


def draw_segments(data, coord, max_segs):
    segs = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=max_segs))):
        ax, ay, bx, by = (data.draw(coord) for _ in range(4))
        if (ax, ay) == (bx, by):
            bx += 1.0
        segs.append(WallSegment(Point2(ax, ay), Point2(bx, by)))
    return segs


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_batch_occlusion_equals_scalar_loop(data):
    fc = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32)
    segs = draw_segments(data, fc, 6)
    origins = [(data.draw(fc), data.draw(fc)) for _ in range(data.draw(st.integers(1, 4)))]
    pts = [(data.draw(fc), data.draw(fc)) for _ in range(data.draw(st.integers(1, 12)))]
    check_kernel(origins, pts, segs)


# half-metre lattice coordinates put sight lines through segment endpoints
# and origins on a segment's line, where CROSSING_TOL decides
halves = st.integers(min_value=-6, max_value=6).map(lambda k: k / 2.0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_batch_occlusion_on_lattice_equals_scalar_loop(data):
    segs = draw_segments(data, halves, 6)
    origins = [(data.draw(halves), data.draw(halves)) for _ in range(data.draw(st.integers(1, 5)))]
    pts = [(data.draw(halves), data.draw(halves)) for _ in range(data.draw(st.integers(1, 16)))]
    check_kernel(origins, pts, segs)


def test_batch_occlusion_degenerate_lattice_cases():
    wall = [WallSegment(Point2(0, 0), Point2(2, 0))]
    # an origin on the wall's line, targets on it, and a sight line
    # through the endpoint (0, 0): none of these is blocked
    origins = [(-1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    pts = [(3.0, 0.0), (1.0, -1.0), (0.0, -1.0), (0.5, 0.0), (4.0, -3.0)]
    check_kernel(origins, pts, wall)
    got = sightlines_blocked(np.array(origins), np.array(pts), segments_as_array(wall))
    assert got.tolist() == [[False, False, False, False, False],
                            [False, True, True, False, True],
                            [False, True, False, False, True]]


def test_batch_occlusion_tolerance_band():
    # cross products within CROSSING_TOL of zero count as zero: a lamp
    # 1e-11 m off a wall's line, and a sight line passing 1e-11 m inside a
    # wall's end, are both clear
    wall = [WallSegment(Point2(0, 0), Point2(2, 0))]
    origins = [(1.0, -1e-11), (0.0, -1.0), (1.0, 1e-11)]
    pts = [(1.5, 1.0), (2e-11, 1.0), (0.2, 1.0), (0.5, -1.0)]
    check_kernel(origins, pts, wall)
    got = sightlines_blocked(np.array(origins), np.array(pts), segments_as_array(wall))
    assert got.tolist() == [[False, False, False, False],
                            [True, False, True, False],
                            [False, False, False, False]]


def test_batch_occlusion_empty_inputs():
    origins = np.array([[0.0, 0.0], [2.0, 1.0]])
    out = sightlines_blocked(origins, np.zeros((0, 2)), np.zeros((0, 4)))
    assert out.shape == (2, 0) and out.dtype == bool
    out = sightlines_blocked(origins, np.zeros((0, 2)), np.array([[0.0, -1.0, 0.0, 1.0]]))
    assert out.shape == (2, 0)
    out = sightlines_blocked(origins, np.array([[1.0, 1.0], [3.0, 3.0]]), np.zeros((0, 4)))
    assert out.shape == (2, 2) and not out.any()
    out = sightlines_blocked(np.zeros((0, 2)), np.array([[1.0, 1.0]]), np.array([[0.0, -1.0, 0.0, 1.0]]))
    assert out.shape == (0, 1)


def test_point_on_segment():
    seg = WallSegment(Point2(0, 0), Point2(4, 0))
    assert point_on_segment(Point2(2, 0), seg)
    assert point_on_segment(Point2(0, 0), seg)
    assert not point_on_segment(Point2(2, 0.1), seg)
    assert not point_on_segment(Point2(5, 0), seg)


def test_wall_segment_length():
    assert WallSegment(Point2(0, 0), Point2(3, 4)).length == pytest.approx(5.0)
