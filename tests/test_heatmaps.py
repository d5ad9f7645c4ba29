"""CSV and plain-PGM rasters of distinctness scores."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan import (
    Point2,
    build_grid,
    heatmap_csv,
    heatmap_pgm,
    heatmap_scores,
    parse_scene,
    sweep,
    write_heatmap_set,
)
from luxplan.geometry import WallSegment
from luxplan.heatmaps import _point_lines

ONE_LAMP = """\
ceiling 3.0
wall 0.75 -1 0.75 2
lum L 0.25 0.25 2.0 50 iso
grid 0 0 2 1 0.5 1.0 omni
"""


def test_csv_lists_points_in_grid_order():
    grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None)
    text = heatmap_csv(grid, np.array([1, 2, 3, 4]))
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,score"
    assert lines[1] == "0,0,1"
    assert lines[4] == "0.5,0.5,4"


def test_csv_requires_one_value_per_point():
    grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None)
    with pytest.raises(ValueError):
        heatmap_csv(grid, np.array([1, 2]))


def test_pgm_layout_top_row_first():
    grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None)
    pgm = heatmap_pgm(grid, np.array([1, 2, 3, 4]), maxval=4)
    lines = pgm.strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "4"
    assert lines[3] == "3 4"  # y = 0.5 row renders first
    assert lines[4] == "1 2"


def test_pgm_validates_scale():
    grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None)
    with pytest.raises(ValueError, match="maxval"):
        heatmap_pgm(grid, np.ones(4), maxval=0)
    with pytest.raises(ValueError, match="exceeds"):
        heatmap_pgm(grid, np.full(4, 9), maxval=4)


def test_excluded_cells_render_as_zero():
    wall = WallSegment(Point2(0.5, -1.0), Point2(0.5, 2.0))
    grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None, walls=[wall])
    assert len(grid.points) == 2  # the x = 0.5 column was dropped
    pgm = heatmap_pgm(grid, np.array([7, 7]), maxval=8)
    rows = pgm.strip().splitlines()[3:]
    assert rows == ["7 0", "7 0"]


def test_one_lamp_scene_heatmap_is_binary():
    scene = parse_scene(ONE_LAMP)
    scores = heatmap_scores(sweep(scene), tau=0.01)
    assert scores.shape == (len(scene.grid.points), 1)
    assert set(np.unique(scores)) == {0, 2}
    # points east of the wall see nothing; the rest resolve on/off
    assert np.array_equal(scores[:, 0], np.where(scene.grid.points[:, 0] > 0.75, 0, 2))


def test_write_heatmap_set_files(tmp_path, apartment, apartment_scores):
    paths = write_heatmap_set(apartment.grid, apartment_scores, 64, tmp_path)
    names = sorted(p.name for p in paths)
    assert "heatmap_q0.csv" in names and "heatmap_q8.pgm" in names
    assert "heatmap_total.csv" in names and "heatmap_total.pgm" in names
    assert len(paths) == 2 * (9 + 1)

    q8 = (tmp_path / "heatmap_q8.csv").read_text(encoding="utf-8")
    scores = [int(line.rsplit(",", 1)[1]) for line in q8.strip().splitlines()[1:]]
    assert max(scores) == 64

    total_pgm = (tmp_path / "heatmap_total.pgm").read_text(encoding="utf-8").splitlines()
    assert total_pgm[2] == "576"
    total_csv = (tmp_path / "heatmap_total.csv").read_text(encoding="utf-8")
    totals = [int(line.rsplit(",", 1)[1]) for line in total_csv.strip().splitlines()[1:]]
    assert max(totals) <= 576


def test_heatmap_outputs_are_deterministic(tmp_path):
    scene = parse_scene(ONE_LAMP)
    scores = heatmap_scores(sweep(scene), tau=0.01)
    a = write_heatmap_set(scene.grid, scores, 2, tmp_path / "a")
    b = write_heatmap_set(scene.grid, scores, 2, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def reference_csv(grid, values):
    lines = ["x,y,score"]
    for (x, y), v in zip(grid.points.tolist(), values):
        lines.append(f"{x:.6g},{y:.6g},{int(v)}")
    return "\n".join(lines) + "\n"


def reference_pgm(grid, values, maxval):
    raster = [[0] * grid.nx for _ in range(grid.ny)]
    for (ix, iy), v in zip(grid.cells.tolist(), values):
        raster[iy][ix] = int(v)
    rows = [" ".join(str(v) for v in raster[iy]) for iy in range(grid.ny - 1, -1, -1)]
    return f"P2\n{grid.nx} {grid.ny}\n{maxval}\n" + "".join(row + "\n" for row in rows)


@given(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    st.sampled_from([0.1, 0.165, 0.25, 1.0 / 3.0, 0.5, 1.7]),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.lists(st.tuples(*[st.integers(min_value=-1, max_value=15)] * 4), max_size=4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_writers_equal_a_per_cell_reference(corner, spacing, nx, ny, ends, data):
    # walls run between lattice points, so some cells are dropped
    minx, miny = corner
    walls = [WallSegment(Point2(minx + ax * spacing, miny + ay * spacing),
                         Point2(minx + bx * spacing, miny + by * spacing))
             for ax, ay, bx, by in ends if (ax, ay) != (bx, by)]
    bounds = (minx, miny, minx + (nx - 0.5) * spacing, miny + (ny - 0.5) * spacing)
    grid = build_grid(bounds, spacing, 1.0, None, walls)
    maxval = data.draw(st.integers(min_value=1, max_value=600))
    values = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=maxval),
                                         min_size=len(grid.points), max_size=len(grid.points))),
                      dtype=np.int64)
    assert heatmap_csv(grid, values) == reference_csv(grid, values)
    assert heatmap_pgm(grid, values, maxval) == reference_pgm(grid, values, maxval)


def test_heatmap_set_equals_the_references(tmp_path, apartment, apartment_scores):
    write_heatmap_set(apartment.grid, apartment_scores, 64, tmp_path)
    n_states = apartment_scores.shape[1]
    expected = {f"q{q}": (apartment_scores[:, q], 64) for q in range(n_states)}
    expected["total"] = (apartment_scores.sum(axis=1), 64 * n_states)
    for name, (values, maxval) in expected.items():
        csv_text = (tmp_path / f"heatmap_{name}.csv").read_text(encoding="utf-8")
        pgm_text = (tmp_path / f"heatmap_{name}.pgm").read_text(encoding="utf-8")
        assert csv_text == reference_csv(apartment.grid, values), name
        assert pgm_text == reference_pgm(apartment.grid, values, maxval), name


def edge_grid():
    # 4 x 3 lattice; a wall stub drops the cell at (1, 0) from the bottom row
    wall = WallSegment(Point2(1.0, -1.0), Point2(1.0, 0.25))
    grid = build_grid((0.0, 0.0, 1.75, 1.25), 0.5, 1.0, None, walls=[wall])
    assert (grid.nx, grid.ny) == (4, 3) and len(grid.points) < 12
    return grid


def edge_values(grid, case):
    values = np.zeros(len(grid.points), dtype=np.int64)
    bottom, top = grid.cells[:, 1] == 0, grid.cells[:, 1] == grid.ny - 1
    if case == "all nonzero":
        values[:] = np.arange(1, len(values) + 1)
    elif case == "first raster row":  # the top row renders first
        values[np.flatnonzero(top)[-1]] = 5
    elif case == "last raster row":
        values[np.flatnonzero(bottom)[0]] = 5
    elif case == "at maxval":
        values[::2] = 12
    return values


@pytest.mark.parametrize("case", ["all zero", "all nonzero", "first raster row",
                                  "last raster row", "at maxval"])
def test_writer_edge_cases_equal_the_references(case):
    grid = edge_grid()
    values = edge_values(grid, case)
    assert heatmap_csv(grid, values) == reference_csv(grid, values)
    assert heatmap_pgm(grid, values, 12) == reference_pgm(grid, values, 12)


def test_heatmap_set_edge_cases_equal_the_references(tmp_path):
    grid = edge_grid()
    # door states: all zero, a lone cell in each outer raster row, all
    # nonzero; the total reaches its maxval of 4 * 12 where all four do
    per_state = np.stack([edge_values(grid, "all zero"),
                          edge_values(grid, "first raster row") + edge_values(grid, "last raster row"),
                          np.full(len(grid.points), 12), np.full(len(grid.points), 12)], axis=1)
    per_state[0, :] = 12
    write_heatmap_set(grid, per_state, 12, tmp_path)
    expected = {f"q{q}": (per_state[:, q], 12) for q in range(4)}
    expected["total"] = (per_state.sum(axis=1), 48)
    assert per_state.sum(axis=1).max() == 48
    for name, (values, maxval) in expected.items():
        assert (tmp_path / f"heatmap_{name}.csv").read_text(encoding="utf-8") == reference_csv(grid, values)
        assert (tmp_path / f"heatmap_{name}.pgm").read_text(encoding="utf-8") == reference_pgm(grid, values, maxval)


def test_csv_of_dense_float_values_equals_the_reference():
    grid = edge_grid()
    values = np.linspace(0.5, 300.25, len(grid.points))  # no zero; %d truncates
    assert heatmap_csv(grid, values) == reference_csv(grid, values)


@pytest.mark.parametrize("spacing", [0.1, 0.05, 0.165, 1.0 / 3.0])
@pytest.mark.parametrize("bounds", [(0.0, 0.0, 3.2, 2.1), (-1.37, -0.83, 1.9, 1.15)])
def test_point_lines_equal_per_point_formatting(bounds, spacing):
    grid = build_grid(bounds, spacing, 1.0, None)
    prefixes, zero_lines = _point_lines(grid)
    want = ["%.6g,%.6g," % (x, y) for x, y in grid.points.tolist()]
    assert prefixes.tolist() == want
    assert zero_lines.tolist() == [p + "0\n" for p in want]


def test_point_lines_keep_negative_zero_apart_from_zero():
    grid = edge_grid()
    points = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 0.5]])
    grid = dataclasses.replace(grid, points=points, cells=grid.cells[:4])
    assert _point_lines(grid)[0].tolist() == ["0,-0,", "-0,0,", "0,0,", "-0,0.5,"]
