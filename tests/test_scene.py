"""Scene grammar, door kinematics, candidate grids, and validation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan import (
    Door,
    DoorState,
    Point2,
    SceneError,
    build_grid,
    door_leaf_segment,
    enumerate_door_states,
    load_scene,
    open_door_state_index,
    parse_scene,
    render_scene,
)
from luxplan.geometry import WallSegment, point_on_segment
from luxplan.scene import SceneParseError, active_occluders

MINIMAL = "lum A 1 1 2.5 100 iso\n"


class TestParsing:
    def test_minimal_scene(self):
        scene = parse_scene(MINIMAL)
        assert scene.n_luminaires == 1
        assert scene.ceiling_height == 3.0  # default
        assert scene.walls == () and scene.doors == ()
        assert scene.grid is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nlum A 1 1 2.5 100 iso  # trailing\n\n"
        assert parse_scene(text).n_luminaires == 1

    def test_unknown_keyword_reports_line(self):
        with pytest.raises(SceneParseError, match="line 2"):
            parse_scene("ceiling 3\nfloor 1 2\n" + MINIMAL)

    def test_bad_number_reports_line(self):
        with pytest.raises(SceneParseError, match="not a number"):
            parse_scene("wall 0 0 x 1\n" + MINIMAL)

    def test_door_field_count(self):
        with pytest.raises(SceneParseError, match="door"):
            parse_scene("door d 1 1 1\n" + MINIMAL)

    def test_unknown_profile(self):
        with pytest.raises(SceneParseError, match="unknown profile"):
            parse_scene("lum A 1 1 2.5 100 blob\n")

    @pytest.mark.parametrize("line", [
        "ceiling nan",
        "wall 0 0 inf 1",
        "wall nan 0 1 1",
        "door d 1 1 1 -inf 0,90",
        "door d nan 1 1 0 0,90",
        "door d 1 1 1 0 0,nan",
        "lum B 1 1 2.5 inf iso",
        "lum B 1 nan 2.5 100 iso",
        "lum B 1 1 nan 100 iso",
        "grid 0 0 1 1 0.5 nan omni",
        "grid 0 0 inf 1 0.5 1 omni",
        "grid 0 0 1 1 0.5 1 0 nan 1",
    ])
    def test_non_finite_number_reports_line(self, line):
        with pytest.raises(SceneParseError, match="line 2: .*not a finite number"):
            parse_scene(MINIMAL + line + "\n")

    def test_duplicate_grid_rejected(self):
        text = MINIMAL + "grid 0 0 1 1 0.5 1 omni\ngrid 0 0 1 1 0.5 1 omni\n"
        with pytest.raises(SceneParseError, match="one grid"):
            parse_scene(text)

    def test_round_trip_through_render(self, apartment):
        rendered = render_scene(apartment)
        back = parse_scene(rendered)
        assert back.ceiling_height == apartment.ceiling_height
        assert back.walls == apartment.walls
        assert back.doors == apartment.doors
        assert len(back.luminaires) == len(apartment.luminaires)
        for a, b in zip(back.luminaires, apartment.luminaires):
            assert (a.label, a.position, a.mount_height, a.intensity) == (
                b.label, b.position, b.mount_height, b.intensity)
        assert back.grid is not None
        assert np.array_equal(back.grid.points, apartment.grid.points)
        assert np.array_equal(back.grid.cells, apartment.grid.cells)


class TestValidation:
    def test_duplicate_luminaire_label(self):
        with pytest.raises(SceneError, match="duplicate"):
            parse_scene("lum A 1 1 2.5 100 iso\nlum A 2 2 2.5 100 iso\n")

    def test_luminaire_cap(self):
        lums = "".join(f"lum L{i} {i} 0 2.5 10 iso\n" for i in range(25))
        with pytest.raises(SceneError, match="exceed"):
            parse_scene(lums)

    def test_zero_length_wall(self):
        with pytest.raises(SceneError, match="zero-length"):
            parse_scene("wall 1 1 1 1\n" + MINIMAL)

    def test_scene_needs_a_luminaire(self):
        with pytest.raises(SceneError, match="luminaire"):
            parse_scene("ceiling 3\n")

    @pytest.mark.parametrize("angles", ["0,0,90", "45,0,45", "0,45,45.0000000001"])
    def test_repeated_door_angle_rejected(self, angles):
        with pytest.raises(SceneError, match="door d: angle .* repeats"):
            parse_scene(f"door d 1 1 0.8 0 {angles}\n" + MINIMAL)

    def test_door_angle_outside_quarter_turn(self):
        with pytest.raises(SceneError, match="outside"):
            Door(label="d", hinge=Point2(0, 0), leaf_length=1.0,
                 closed_heading_deg=0.0, allowed_angles_deg=(0.0, 120.0))

    def test_door_needs_positive_leaf(self):
        with pytest.raises(SceneError, match="leaf"):
            Door(label="d", hinge=Point2(0, 0), leaf_length=0.0,
                 closed_heading_deg=0.0, allowed_angles_deg=(0.0,))

    def test_closed_leaf_must_fill_a_gap_not_cross_walls(self):
        text = (
            "wall 0 0 4 0\n"
            "wall 2 -1 2 1\n"          # the closed leaf would cross this
            "door d 1 0 2 0 0,90\n"
            + MINIMAL
        )
        with pytest.raises(SceneError, match="crosses a wall"):
            parse_scene(text)

    def test_negative_intensity(self):
        with pytest.raises(SceneError, match="intensity"):
            parse_scene("lum A 1 1 2.5 -5 iso\n")


class TestDoors:
    def test_leaf_at_zero_fills_the_doorway(self):
        door = Door(label="d", hinge=Point2(3, 1.5), leaf_length=1.0,
                    closed_heading_deg=90.0, allowed_angles_deg=(0.0, 90.0))
        seg = door_leaf_segment(door, 0.0)
        assert seg.a == Point2(3, 1.5)
        assert seg.b.x == pytest.approx(3.0)
        assert seg.b.y == pytest.approx(2.5)

    def test_leaf_rotates_counterclockwise(self):
        door = Door(label="d", hinge=Point2(0, 0), leaf_length=2.0,
                    closed_heading_deg=0.0, allowed_angles_deg=(0.0, 45.0, 90.0))
        tip45 = door_leaf_segment(door, 45.0).b
        tip90 = door_leaf_segment(door, 90.0).b
        assert tip45.x == pytest.approx(2 * math.cos(math.radians(45)))
        assert tip45.y == pytest.approx(2 * math.sin(math.radians(45)))
        assert tip90.x == pytest.approx(0.0, abs=1e-12)
        assert tip90.y == pytest.approx(2.0)

    def test_unlisted_angle_rejected(self):
        door = Door(label="d", hinge=Point2(0, 0), leaf_length=1.0,
                    closed_heading_deg=0.0, allowed_angles_deg=(0.0, 90.0))
        with pytest.raises(SceneError, match="not among allowed"):
            door_leaf_segment(door, 30.0)

    def test_single_door_two_angles(self):
        scene = parse_scene("door d 0 0 1 0 0,90\n" + MINIMAL)
        states = enumerate_door_states(scene)
        assert [s.angles_deg for s in states] == [(0.0,), (90.0,)]

    def test_two_doors_three_angles_nine_states_first_door_slowest(self, apartment):
        states = enumerate_door_states(apartment)
        assert len(states) == 9
        assert states[0].angles_deg == (0.0, 0.0)
        assert states[1].angles_deg == (0.0, 45.0)
        assert states[3].angles_deg == (45.0, 0.0)
        assert states[8].angles_deg == (90.0, 90.0)

    def test_no_doors_single_empty_state(self):
        states = enumerate_door_states(parse_scene(MINIMAL))
        assert states == [DoorState(angles_deg=())]

    def test_open_door_state_has_every_door_at_its_widest_angle(self, apartment):
        assert open_door_state_index(apartment) == 8
        # listed widest-first, the open state comes first
        assert open_door_state_index(parse_scene("door d 0 0 1 0 90,0\n" + MINIMAL)) == 0
        assert open_door_state_index(parse_scene(MINIMAL)) == 0

    def test_active_occluders_appends_leaves(self, apartment):
        states = enumerate_door_states(apartment)
        occ = active_occluders(apartment, states[8])
        assert len(occ) == len(apartment.walls) + 2

    def test_state_length_checked(self, apartment):
        with pytest.raises(SceneError):
            active_occluders(apartment, DoorState(angles_deg=(90.0,)))


class TestGrid:
    def test_lattice_is_row_major_from_min_corner(self):
        grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.2, None)
        assert (grid.nx, grid.ny) == (2, 2)
        assert grid.points.tolist() == [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
        assert grid.cells.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
        assert grid.points.dtype == np.float64 and grid.cells.dtype.kind == "i"
        assert (grid.height, grid.normal) == (1.2, None)
        with pytest.raises(ValueError):
            grid.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            grid.cells[0, 0] = 9

    def test_points_buried_in_walls_are_dropped(self):
        wall = WallSegment(Point2(0.5, -1.0), Point2(0.5, 2.0))
        grid = build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, None, walls=[wall])
        assert 0.5 not in grid.points[:, 0]
        assert len(grid.points) == 2

    @given(
        st.lists(st.tuples(*[st.integers(min_value=-2, max_value=12)] * 4), max_size=5),
        st.sampled_from([0.5, 0.25, 0.1, 0.3, 1.0 / 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_wall_exclusion_matches_scalar_filter(self, ends, spacing):
        # walls between half-metre lattice points, so many grid points sit
        # exactly on them, and some walls have zero length
        walls = [WallSegment(Point2(ax / 2, ay / 2), Point2(bx / 2, by / 2))
                 for ax, ay, bx, by in ends]
        grid = build_grid((0.0, 0.0, 4.0, 3.0), spacing, 1.0, None, walls=walls)
        kept = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                if not any(point_on_segment(Point2(ix * spacing, iy * spacing), w) for w in walls)]
        assert grid.cells.tolist() == [list(c) for c in kept]
        assert grid.points.tolist() == [
            [ix * spacing, iy * spacing] for ix, iy in kept]

    def test_non_unit_normal_rejected(self):
        with pytest.raises(SceneError, match="unit length"):
            build_grid((0.0, 0.0, 1.0, 1.0), 0.5, 1.0, (0.0, 0.0, 2.0))

    def test_zero_spacing_rejected(self):
        with pytest.raises(SceneError, match="spacing"):
            build_grid((0.0, 0.0, 1.0, 1.0), 0.0, 1.0, None)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(SceneError, match="grid spacing must be positive and finite"):
            build_grid((0.0, 0.0, 1.0, 1.0), spacing, 1.0, None)

    def test_empty_bounds_rejected(self):
        with pytest.raises(SceneError, match="bounds"):
            build_grid((1.0, 0.0, 1.0, 1.0), 0.5, 1.0, None)

    def test_directional_grid_normalizes_normal(self):
        scene = parse_scene(MINIMAL + "grid 0 0 1 1 0.5 1 0 0 2\n")
        assert scene.grid.normal == (0.0, 0.0, 1.0)

    def test_bad_grid_tail_rejected(self):
        with pytest.raises(SceneParseError, match="omni"):
            parse_scene(MINIMAL + "grid 0 0 1 1 0.5 1 sideways\n")

    def test_load_scene_builds_one_grid_at_the_requested_spacing(self, apartment_path, monkeypatch):
        from luxplan import scene as scene_mod

        built = []
        monkeypatch.setattr(scene_mod, "build_grid",
                            lambda *a, **k: built.append(a[1]) or build_grid(*a, **k))
        scene = load_scene(apartment_path, grid_spacing=0.1)
        assert built == [0.1]
        g = scene.grid
        want = build_grid((g.minx, g.miny, g.maxx, g.maxy), 0.1, g.height, g.normal, scene.walls)
        assert g.spacing == 0.1
        assert np.array_equal(g.points, want.points)
        assert np.array_equal(g.cells, want.cells)


class TestApartment:
    def test_counts(self, apartment):
        assert apartment.n_luminaires == 6
        assert len(apartment.doors) == 2
        assert apartment.ceiling_height == 3.0
        assert [lum.label for lum in apartment.luminaires] == ["A", "B", "C", "E", "D", "F"]

    def test_grid_size_suits_a_full_sweep(self, apartment):
        assert apartment.grid is not None
        assert 2000 <= len(apartment.grid.points) <= 3600
        assert apartment.grid.height == 2.13
        assert apartment.grid.normal is None

    def test_door_angles(self, apartment):
        for door in apartment.doors:
            assert door.allowed_angles_deg == (0.0, 45.0, 90.0)

    def test_load_scene_reads_from_disk(self, apartment_path):
        scene = load_scene(apartment_path)
        assert scene.n_luminaires == 6
