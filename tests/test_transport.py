"""Direct-illuminance transport: falloff, occlusion, readings, CSV round trip."""
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxplan import (
    CandidatePoint,
    DoorState,
    LightConfig,
    NoiseModel,
    Point2,
    config_sums_batch,
    contribution,
    contribution_vector,
    parse_scene,
    reading,
    read_matrix_csv,
    sweep,
    write_matrix_csv,
)
from luxplan import transport
from luxplan.geometry import WallSegment, segments_as_array
from luxplan.scene import Luminaire, Scene, SceneError, active_occluders, enumerate_door_states
from luxplan.transport import (
    ContributionMatrix,
    ContributionVector,
    _unoccluded_batch,
    exact_sums,
    matrix_to_csv,
)
from test_geometry import broadcast_sightlines_blocked


def single_lamp_scene(walls=(), intensity=100.0, mount=3.0, profile="iso", grid=None):
    lines = ["ceiling 4.0"]
    lines += [f"wall {w.a.x} {w.a.y} {w.b.x} {w.b.y}" for w in walls]
    lines.append(f"lum L 0.0 0.0 {mount} {intensity} {profile}")
    if grid is not None:
        lines.append(f"grid {grid}")
    return parse_scene("\n".join(lines))


def omni(x, y, h=1.0):
    return CandidatePoint(position=Point2(x, y), height=h, normal=None)


NO_DOORS = DoorState(angles_deg=())


class TestFalloff:
    def test_inverse_square_directly_below(self):
        scene = single_lamp_scene(intensity=200.0)
        lum = scene.luminaires[0]
        for h in (2.9, 2.0, 1.0, 0.1):
            pt = omni(0.0, 0.0, h)
            d2 = (3.0 - h) ** 2
            e = contribution(scene, NO_DOORS, lum, pt)
            assert e * d2 == pytest.approx(200.0, rel=1e-12)

    def test_horizontal_offset_keeps_isotropic_inverse_square(self):
        scene = single_lamp_scene(intensity=150.0)
        lum = scene.luminaires[0]
        for r in (0.5, 1.0, 4.0, 25.0):
            pt = omni(r, 0.0, 1.0)
            d2 = r * r + 4.0
            e = contribution(scene, NO_DOORS, lum, pt)
            assert e * d2 == pytest.approx(150.0, rel=1e-12)

    def test_upward_normal_applies_cosine_of_incidence(self):
        scene = single_lamp_scene(intensity=100.0)
        lum = scene.luminaires[0]
        up = CandidatePoint(position=Point2(3.0, 0.0), height=1.0, normal=(0, 0, 1))
        d = math.hypot(3.0, 2.0)
        expected = 100.0 * (2.0 / d) / d**2
        assert contribution(scene, NO_DOORS, lum, up) == pytest.approx(expected, rel=1e-12)

    def test_normal_facing_away_gives_zero(self):
        scene = single_lamp_scene()
        lum = scene.luminaires[0]
        down = CandidatePoint(position=Point2(1.0, 0.0), height=1.0, normal=(0, 0, -1))
        assert contribution(scene, NO_DOORS, lum, down) == 0.0

    def test_cosine_lobe_profile_scales_emission(self):
        iso = single_lamp_scene(profile="iso")
        cos = single_lamp_scene(profile="cos")
        pt = omni(2.0, 0.0, 1.0)  # vertical emission angle 45 degrees
        e_iso = contribution(iso, NO_DOORS, iso.luminaires[0], pt)
        e_cos = contribution(cos, NO_DOORS, cos.luminaires[0], pt)
        assert e_cos == pytest.approx(e_iso * math.cos(math.radians(45)), rel=1e-12)

    def test_point_coinciding_with_luminaire_rejected(self):
        scene = single_lamp_scene()
        with pytest.raises(ValueError, match="coincides"):
            contribution(scene, NO_DOORS, scene.luminaires[0], omni(0.0, 0.0, 3.0))


class TestOcclusion:
    def test_wall_between_blocks_completely(self):
        wall = WallSegment(Point2(1.0, -5.0), Point2(1.0, 5.0))
        scene = single_lamp_scene(walls=[wall])
        assert contribution(scene, NO_DOORS, scene.luminaires[0], omni(2.0, 0.0)) == 0.0
        # same side as the lamp: unobstructed
        assert contribution(scene, NO_DOORS, scene.luminaires[0], omni(0.5, 0.0)) > 0.0

    def test_sightline_through_wall_endpoint_is_clear(self):
        wall = WallSegment(Point2(1.0, 0.0), Point2(1.0, 5.0))
        scene = single_lamp_scene(walls=[wall])
        assert contribution(scene, NO_DOORS, scene.luminaires[0], omni(2.0, 0.0)) > 0.0

    def test_adding_occluders_never_increases_light(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            walls = []
            for _ in range(rng.integers(1, 6)):
                a = rng.uniform(-4, 4, size=2)
                b = a + rng.uniform(-3, 3, size=2)
                if np.allclose(a, b):
                    b = a + (0.7, 0.3)
                walls.append(WallSegment(Point2(*a), Point2(*b)))
            pt = omni(*rng.uniform(-4, 4, size=2), h=1.0)
            if abs(pt.position.x) < 1e-6 and abs(pt.position.y) < 1e-6:
                continue
            prev = math.inf
            for k in range(len(walls) + 1):
                scene = single_lamp_scene(walls=walls[:k])
                e = contribution(scene, NO_DOORS, scene.luminaires[0], pt)
                assert e <= prev
                prev = e

    def test_door_leaf_occludes_when_open(self):
        # leaf at 90 degrees lies along y in [0,1] at x=1, between lamp and point
        text = (
            "ceiling 4.0\n"
            "wall -5 -5 5 -5\n"
            "door d 1.0 0.0 1.0 0.0 0,90\n"
            "lum L 0.0 0.5 3.0 100 iso\n"
        )
        scene = parse_scene(text)
        pt = omni(2.0, 0.5)
        e_closed = contribution(scene, DoorState((0.0,)), scene.luminaires[0], pt)
        e_open = contribution(scene, DoorState((90.0,)), scene.luminaires[0], pt)
        assert e_closed > 0.0
        assert e_open == 0.0


class TestReadings:
    def test_all_off_reads_zero(self):
        x = ContributionVector(values=np.array([3.0, 1.0, 0.5]))
        assert reading(x, LightConfig.from_index(0, 3)) == 0.0

    def test_reading_is_correctly_rounded_sum(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 50.0, size=10)
        x = ContributionVector(values=values)
        for p in rng.integers(0, 1 << 10, size=50):
            config = LightConfig.from_index(int(p), 10)
            exact = sum(Fraction(values[i]) for i in config.on_indices)
            assert reading(x, config) == float(exact)

    def test_reading_additive_over_disjoint_configs(self):
        values = np.array([0.1, 0.2, 0.3, 7.7, 11.11])
        x = ContributionVector(values=values)
        a = LightConfig.from_index(0b00101, 5)
        b = LightConfig.from_index(0b10010, 5)
        union = LightConfig.from_index(0b10111, 5)
        exact = sum(Fraction(v) for i, v in enumerate(values) if i in union.on_indices)
        assert reading(x, union) == float(exact)
        assert reading(x, a) + reading(x, b) == pytest.approx(reading(x, union), rel=1e-15)

    def test_config_sums_batch_matches_reading(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 20, size=8)
        x = ContributionVector(values=values)
        sums = config_sums_batch(values)
        assert sums.shape == (256,)
        for p in range(256):
            assert sums[p] == pytest.approx(reading(x, LightConfig.from_index(p, 8)), abs=1e-9)

    def test_config_index_round_trip(self):
        for p in range(16):
            cfg = LightConfig.from_index(p, 4)
            assert (cfg.index, cfg.n) == (p, 4)
            assert sum(1 << i for i in cfg.on_indices) == p
        assert LightConfig.from_index(5, 4).on_indices == (0, 2)

    def test_config_index_out_of_range(self):
        with pytest.raises(ValueError):
            LightConfig.from_index(16, 4)
        with pytest.raises(ValueError):
            LightConfig.from_index(-1, 4)

    def test_mismatched_config_length_rejected(self):
        x = ContributionVector(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            reading(x, LightConfig.from_index(1, 3))
        with pytest.raises(ValueError):
            reading(x, LightConfig.from_index(1, 1))


class TestNoise:
    def test_noiseless_kinds_agree(self):
        x = ContributionVector(values=np.array([5.0, 2.0]))
        cfg = LightConfig.from_index(3, 2)
        assert reading(x, cfg, NoiseModel()) == reading(x, cfg, NoiseModel(0.0, 1))

    def test_same_seed_same_reading(self):
        x = ContributionVector(values=np.array([5.0, 2.0]), point_index=4, door_state_index=1)
        cfg = LightConfig.from_index(1, 2)
        noise = NoiseModel(0.5, seed=11)
        assert reading(x, cfg, noise) == reading(x, cfg, noise)

    def test_noise_keyed_by_point_state_and_config(self):
        noise = NoiseModel(0.5, seed=11)
        base = ContributionVector(values=np.array([5.0, 2.0]), point_index=0, door_state_index=0)
        moved = ContributionVector(values=np.array([5.0, 2.0]), point_index=1, door_state_index=0)
        cfg = LightConfig.from_index(1, 2)
        assert reading(base, cfg, noise) != reading(moved, cfg, noise)

    def test_noisy_reading_clamped_at_zero(self):
        x = ContributionVector(values=np.array([0.001]))
        noise = NoiseModel(50.0, seed=0)
        vals = [
            reading(ContributionVector(values=x.values, point_index=k), LightConfig.from_index(1, 1), noise)
            for k in range(50)
        ]
        assert min(vals) == 0.0  # sigma 50 on a 1 mlux signal must clip sometimes

    def test_invalid_noise_model(self):
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"sigma {sigma}"):
                NoiseModel(sigma=sigma)
        with pytest.raises(ValueError, match="seed -1"):
            NoiseModel(sigma=0.05, seed=-1)


class TestSweep:
    def test_single_cell_matches_contribution(self):
        scene = single_lamp_scene(intensity=90.0, grid="1.5 0.5 1.6 0.6 0.5 1.0 omni")
        assert scene.grid.points.tolist() == [[1.5, 0.5]]
        matrix = sweep(scene)
        assert matrix.values.shape == (1, 1, 1)
        expected = contribution(scene, NO_DOORS, scene.luminaires[0], omni(1.5, 0.5))
        assert matrix.values[0, 0, 0] == expected

    def test_sweep_shape_and_vector_at(self, apartment, apartment_matrix):
        m = apartment_matrix
        assert m.values.shape == (len(apartment.grid.points), 9, 6)
        x = m.vector_at(5, 2)
        assert x.point_index == 5 and x.door_state_index == 2
        assert np.array_equal(x.values, m.values[5, 2])

    def test_open_hall_point_sees_all_six_when_doors_open(self, apartment):
        from luxplan.geometry import segments_cross
        from luxplan.scene import active_occluders, enumerate_door_states

        state = enumerate_door_states(apartment)[8]  # both doors wide open
        pt = omni(3.35, 0.05, 2.13)
        x = contribution_vector(apartment, state, pt)
        assert (x.values > 0).all()
        # independent scalar ray-cast agrees that no occluder cuts a sightline
        occluders = active_occluders(apartment, state)
        for lum in apartment.luminaires:
            blocked = any(
                segments_cross(lum.position, pt.position, s.a, s.b) for s in occluders
            )
            assert not blocked

    def test_sweep_requires_candidates(self):
        scene = single_lamp_scene()
        with pytest.raises(ValueError):
            sweep(scene)

    @pytest.mark.parametrize("normal", ["0 0 1", "1 0 1", "0 1 -1", "0 0 -1"])
    def test_directional_grid_matches_contribution_per_point(self, normal):
        # a door, a wall and a lamp mounted below the grid, so cells see
        # light from above, from below (cosine 0) and through the doorway
        scene = parse_scene(
            "ceiling 3.0\nwall 3 0 3 1.5\nwall 3 2.5 3 4\ndoor d 3 1.5 1.0 90 0,90\n"
            "lum L 1.5 2.0 2.7 80 cos\nlum R 4.5 2.0 0.5 60 iso\n"
            f"grid 0.25 0.25 5.75 3.75 0.5 1.0 {normal}\n"
        )
        grid = scene.grid
        matrix = sweep(scene)
        for q, state in enumerate(enumerate_door_states(scene)):
            for k, (x, y) in enumerate(grid.points.tolist()):
                pt = CandidatePoint(position=Point2(x, y), height=grid.height, normal=grid.normal)
                for i, lum in enumerate(scene.luminaires):
                    expected = contribution(scene, state, lum, pt)
                    assert matrix.values[k, q, i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (matrix.values == 0).any() and (matrix.values > 0).any()


def per_state_sweep(scene, states):
    """The sweep without door or luminaire factoring: every (state,
    luminaire) pair tests the state's active_occluders together over the
    whole grid, with the broadcast single-origin reference kernel."""
    grid = scene.grid
    out = np.zeros((len(grid.points), len(states), scene.n_luminaires))
    for q, state in enumerate(states):
        segments = segments_as_array(active_occluders(scene, state))
        for i, lum in enumerate(scene.luminaires):
            lux = _unoccluded_batch(lum, grid.points, grid.height, grid.normal)
            origin = (lum.position.x, lum.position.y)
            out[:, q, i] = np.where(broadcast_sightlines_blocked(origin, grid.points, segments), 0.0, lux)
    return out


def test_apartment_sweep_equals_per_state_sweep_bit_for_bit(apartment, apartment_matrix):
    values = apartment_matrix.values
    assert values.flags.c_contiguous and values.dtype == np.float64
    expected = per_state_sweep(apartment, enumerate_door_states(apartment))
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


# half-metre lattice coordinates put sight lines through wall and leaf
# endpoints, the cases where the crossing tolerance decides
halves = st.integers(min_value=0, max_value=16).map(lambda k: k / 2.0)


@st.composite
def door_scenes(draw):
    lines = ["ceiling 3.0"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ax, ay, bx, by = (draw(halves) for _ in range(4))
        if (ax, ay) != (bx, by):
            lines.append(f"wall {ax} {ay} {bx} {by}")
    for d in range(draw(st.integers(min_value=0, max_value=3))):
        angles = draw(st.lists(st.sampled_from([0.0, 30.0, 45.0, 90.0]), min_size=1,
                               max_size=3, unique=True))
        heading = draw(st.sampled_from([0.0, 90.0, 180.0, 270.0, 33.0]))
        lines.append(f"door d{d} {draw(halves)} {draw(halves)} {draw(halves) / 4 + 0.5} "
                     f"{heading} {','.join(map(str, angles))}")
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        lines.append(f"lum L{i} {draw(halves)} {draw(halves)} 2.5 "
                     f"{draw(st.integers(min_value=10, max_value=200))} "
                     f"{draw(st.sampled_from(['iso', 'cos']))}")
    normal = draw(st.sampled_from(["omni", "0 0 1"]))
    lines.append(f"grid 0.25 0.25 7.75 7.75 {draw(st.sampled_from([0.5, 0.75, 1.0]))} 1.0 {normal}")
    try:
        return parse_scene("\n".join(lines))
    except SceneError:
        return None


@given(door_scenes(), st.data())
@settings(max_examples=120, deadline=None)
def test_door_factored_sweep_equals_per_state_sweep(scene, data):
    if scene is None or len(scene.grid.points) == 0:
        return
    states = enumerate_door_states(scene)
    got = sweep(scene)
    assert np.array_equal(got.values.view(np.int64), per_state_sweep(scene, states).view(np.int64))
    # a sweep of some cells, in any order and with repeats, gives those
    # cells' rows bit for bit
    cells = np.array(data.draw(st.lists(st.integers(0, len(scene.grid.points) - 1), max_size=12)),
                     dtype=np.intp)
    assert np.array_equal(sweep(scene, cells).values.view(np.int64),
                          got.values[cells].view(np.int64))
    # so does a sweep of some door states, alone and with cells
    qs = np.array(data.draw(st.lists(st.integers(0, len(states) - 1), max_size=4)), dtype=np.intp)
    by_state = sweep(scene, states=qs)
    assert np.array_equal(by_state.door_states, qs)
    assert np.array_equal(by_state.values.view(np.int64), got.values[:, qs].view(np.int64))
    assert np.array_equal(sweep(scene, cells, qs).values.view(np.int64),
                          got.values[np.ix_(cells, qs)].view(np.int64))


def test_sweep_of_cells_equals_whole_sweep_rows(apartment, apartment_matrix):
    cells = np.random.default_rng(2).integers(0, len(apartment.grid.points), 300)
    got = sweep(apartment, cells)
    assert got.values.shape == (300, 9, 6) and got.values.flags.c_contiguous
    assert np.array_equal(got.values.view(np.int64), apartment_matrix.values[cells].view(np.int64))
    assert sweep(apartment, np.array([], dtype=np.intp)).values.shape == (0, 9, 6)
    for bad in ([-1], [len(apartment.grid.points)], [[0]]):
        with pytest.raises(ValueError, match="grid point indices"):
            sweep(apartment, np.array(bad))


def test_sweep_of_states_equals_whole_sweep_rows(apartment, apartment_matrix):
    whole = apartment_matrix.values
    cells = np.random.default_rng(5).integers(0, len(apartment.grid.points), 200)
    for qs in ([8], [0], [4, 2], [8, 8, 0], list(range(9))[::-1]):
        got = sweep(apartment, states=np.array(qs))
        assert got.values.shape == (len(whole), len(qs), 6) and got.values.flags.c_contiguous
        assert got.door_states.tolist() == qs
        assert np.array_equal(got.values.view(np.int64), whole[:, qs].view(np.int64))
        assert np.array_equal(sweep(apartment, cells, np.array(qs)).values.view(np.int64),
                              whole[np.ix_(cells, qs)].view(np.int64))
    assert sweep(apartment, states=np.array([], dtype=np.intp)).values.shape == (len(whole), 0, 6)
    # the CSV names the swept states
    lines = matrix_to_csv(sweep(apartment, np.array([3]), np.array([8, 2]))).splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "8"], ["0", "2"]]
    for bad in ([-1], [9], [[0]]):
        with pytest.raises(ValueError, match="door state indices"):
            sweep(apartment, states=np.array(bad))


def test_sweep_of_states_tests_only_their_leaves():
    # two doors of three angles each: 9 states, 6 leaves
    scene = parse_scene(
        "ceiling 3.0\nwall 0 4 3 4\nwall 4 4 8 4\nwall 3.5 0 3.5 4\n"
        "door d1 3 4 1.0 0 0,45,90\ndoor d2 3.5 1 1.0 90 0,45,90\n"
        "lum A 1.5 2 2.7 100 iso\nlum B 6 2 2.7 120 iso\nlum C 4 6 2.7 90 iso\n"
        "grid 0.25 0.25 7.75 7.75 0.5 1.0 omni\n"
    )
    whole = sweep(scene).values
    calls = []

    def counting(*args):
        calls.append(args)
        return blocked(*args)

    blocked = transport.sightlines_blocked
    with mock.patch.object(transport, "sightlines_blocked", counting):
        for q in range(9):
            calls.clear()
            got = sweep(scene, states=np.array([q]))
            assert np.array_equal(got.values.view(np.int64), whole[:, [q]].view(np.int64))
            assert len(calls) == 3  # the walls and one leaf per door
        calls.clear()
        sweep(scene, states=np.array([0, 4, 8]))
        assert len(calls) == 1 + 6
        calls.clear()
        sweep(scene, states=np.array([0, 1]))  # d1 at 0, d2 at 0 and 45
        assert len(calls) == 1 + 3
    assert (whole[:, 0] != whole[:, 8]).any()


class TestCsv:
    def test_round_trip(self, tmp_path):
        scene = single_lamp_scene(grid="1 0.5 3 1.5 1 1.0 omni")
        matrix = sweep(scene)
        assert matrix.values.shape == (2, 1, 1)
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        back = read_matrix_csv(path)
        assert back.values.shape == matrix.values.shape
        assert np.allclose(back.values, matrix.values, rtol=1e-5)

    def test_csv_is_deterministic(self):
        scene = single_lamp_scene(grid="1 1 1.5 1.5 1 1.0 omni")
        matrix = sweep(scene)
        assert matrix_to_csv(matrix) == matrix_to_csv(matrix)

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("body, message", [
        # (0, 1) and (1, 0) are missing, not dark
        ("0,0,1.5\n1,1,2.5\n", r"2 rows do not cover 2 points x 2 door states"),
        ("0,0,1.5\n0,1,2.5\n0,0,3.5\n", r"line 4: point 0, door state 0 given twice"),
        ("0,0,1.5\n0,1\n", r"line 3: expected 3 fields, got 2"),
        ("0,0,1.5\n0,1,2.5,7\n", r"line 3: expected 3 fields, got 4"),
        ("0,0,1.5\n0,1,bright\n", r"line 3: could not convert"),
        ("0,0,1.5\n0,x,2.5\n", r"line 3: invalid literal"),
        ("0,0,1.5\n0,-1,2.5\n", r"line 3: negative"),
        ("0,0,1.5\n0,1,nan\n", r"line 3: lux 'nan' is not finite and nonnegative"),
        ("0,0,inf\n0,1,2.5\n", r"line 2: lux 'inf' is not finite and nonnegative"),
        ("0,0,1.5\n0,1,-2.5\n", r"line 3: lux '-2.5' is not finite and nonnegative"),
    ])
    def test_read_rejects_incomplete_or_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "m.csv"
        path.write_text("point_index,door_state,lum_0\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"m.csv: {message}"):
            read_matrix_csv(path)

    def test_read_accepts_rows_in_any_order(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("point_index,door_state,lum_0\n1,0,3\n0,1,2\n\n1,1,4\n0,0,1\n",
                        encoding="utf-8")
        assert read_matrix_csv(path).values[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_level_grid_facing_up_writes_zero_not_minus_zero(self, tmp_path):
        # the lamp's rays reach these cells edge-on, at cos(incidence) = 0
        scene = single_lamp_scene(grid="1 0.5 3 1.5 1 3.0 0 0 1")
        matrix = sweep(scene)
        assert matrix.values.tolist() == [[[0.0]], [[0.0]]]
        assert not np.signbit(matrix.values).any()
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        assert path.read_text(encoding="utf-8") == "point_index,door_state,lum_0\n0,0,0\n1,0,0\n"
        # "-0" is not negative lux, so it still reads
        path.write_text("point_index,door_state,lum_0\n0,0,-0\n1,0,-0\n", encoding="utf-8")
        assert read_matrix_csv(path).values.tolist() == [[[0.0]], [[0.0]]]

    def test_streamed_file_spans_blocks_and_stays_smaller_than_itself(self, tmp_path):
        # the 0.05 m apartment's shape: each cell repeats one row over 9 door states,
        # and 15% of those rows are dark
        rng = np.random.default_rng(5)
        values = np.repeat(np.round(rng.uniform(0.0, 60.0, (31050, 1, 6)), 1), 9, axis=1)
        values[rng.random((31050, 9)) < 0.15] = 0.0
        matrix = ContributionMatrix(values)
        assert values[0].nbytes * len(values) > 4 * transport.CSV_BLOCK_BYTES
        path = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            write_matrix_csv(matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        assert path.read_text(encoding="utf-8") == matrix_to_csv(matrix)


def reference_matrix_csv(values):
    """contributions.csv formatted row by row."""
    n = values.shape[2]
    lines = ["point_index,door_state" + "".join(f",lum_{i}" for i in range(n))]
    for p, rows in enumerate(values.tolist()):
        for q, row in enumerate(rows):
            lines.append(f"{p},{q}" + "".join(",%.6g" % v for v in row))
    return "\n".join(lines) + "\n"


lux_values = st.sampled_from([0.0, -0.0, 1.0, 0.1, 2.5e-7, 123456.5, 1234567.0, 9.9999995,
                              1e300, math.inf, math.nan]) | st.floats(min_value=0.0, max_value=1e4)


@st.composite
def repeating_matrices(draw):
    """Matrices whose later door states copy state 0's row, copy it with
    the sign of every zero flipped, or are drawn afresh."""
    n = draw(st.sampled_from([1, 2, 6, 16]))
    n_states = draw(st.sampled_from([1, 2, 3, 9]))
    n_points = draw(st.integers(min_value=1, max_value=12))
    values = np.zeros((n_points, n_states, n))
    for p in range(n_points):
        values[p, 0] = draw(st.lists(lux_values, min_size=n, max_size=n))
        first = values[p, 0]
        for q in range(1, n_states):
            kind = draw(st.sampled_from(["copy", "flip_zeros", "fresh"]))
            if kind == "copy":
                values[p, q] = first
            elif kind == "flip_zeros":
                values[p, q] = np.where(first == 0.0, -first, first)
            else:
                values[p, q] = draw(st.lists(lux_values, min_size=n, max_size=n))
    return values


@given(repeating_matrices(), st.integers(min_value=1, max_value=4096))
@example(np.array([[[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]]), 8)
@settings(max_examples=100, deadline=None)
def test_writers_equal_a_per_row_reference(tmp_path_factory, values, block_bytes):
    # small blocks put most examples over several blocks
    matrix = ContributionMatrix(values)
    expected = reference_matrix_csv(values)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    with mock.patch.object(transport, "CSV_BLOCK_BYTES", block_bytes):
        assert matrix_to_csv(matrix) == expected
        write_matrix_csv(matrix, path)
    assert path.read_text(encoding="utf-8") == expected


def test_writers_equal_the_reference_past_one_default_block():
    # Q = 1, n = 16: no row repeats, and 2.5 blocks of points at the default size
    n_points = 5 * transport.CSV_BLOCK_BYTES // (2 * 16 * 8)
    values = np.random.default_rng(3).uniform(0.0, 50.0, (n_points, 1, 16))
    assert matrix_to_csv(ContributionMatrix(values)) == reference_matrix_csv(values)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_config_sums_batch_doubling_matches_fsum(values):
    sums = config_sums_batch(np.array(values))
    n = len(values)
    for p in (0, (1 << n) - 1, 1, 1 << (n - 1)):
        cfg = LightConfig.from_index(p, n)
        expected = math.fsum(values[i] for i in cfg.on_indices)
        assert sums[p] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def fsum_runs(values, counts):
    """math.fsum of each run of values, one run at a time."""
    ends = np.cumsum(counts).tolist()
    return [math.fsum(values[end - c:end].tolist()) for end, c in zip(ends, counts)]


# non-dyadic values, values that cancel to a few ulps or to zero, and signed zeros
RUN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.sampled_from([0.1, 0.2, 0.3, -0.1, -0.3, 1 / 3, 1e16, -1e16, 1.0, -1.0, 2.0 ** -60,
                     0.0, -0.0, 5e-324, -5e-324, 88_000.0]),
    st.integers(-40, 40).map(lambda k: k / 7),
)


@given(st.lists(st.lists(RUN_VALUES, max_size=40), max_size=12))
@example([[]])
@example([[-0.0], [-0.0, -0.0], [0.0, -0.0], []])
@example([[1e16, 1.0, -1e16], [1e308, 1e308], [1.0, -1.0]])
@example([[0.1] * 3, [1 / 3] * 7])
# TwoSum errors that sum to just past the tie at 2^53 + 1, while their
# floating-point sum falls short of it
@example([[2.0 ** 53, 0.2908211161990689, -2.0 ** 53, 0.3200834110625501, 2.0 ** 53,
           0.47338281736632004, -2.0 ** 53, 0.28377901606977585, 2.0 ** 53, -0.4161712815132484,
           -2.0 ** 53, -0.4336349102943077, 2.0 ** 53, 0.39503270414562175, 0.0,
           0.08670712696421945]])
@settings(max_examples=300, deadline=None)
def test_exact_sums_equal_fsum_bit_for_bit(runs):
    values = np.array([v for run in runs for v in run], dtype=float)
    counts = [len(run) for run in runs]
    try:
        want = fsum_runs(values, counts)
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sums(values, counts)
        return
    assert exact_sums(values, counts).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("kind", ["noisy", "cancelling", "ties"])
def test_exact_sums_of_long_runs_equal_fsum(kind):
    rng = np.random.default_rng(7)
    counts = [100_000, 3, 0, 65_537, 1]
    n = sum(counts)
    if kind == "noisy":  # lux-like samples
        values = 300.0 + 0.05 * rng.standard_normal(n)
    elif kind == "cancelling":  # a sum far below the magnitudes
        values = rng.uniform(1.0, 1e6, n) * rng.choice([-1.0, 1.0], n) / 7
    else:  # every sum is a multiple of 1/2 that may fall on a tie
        values = rng.integers(-2**53, 2**53, n).astype(float) / 2 ** 52
    assert exact_sums(values, counts).tobytes() == np.array(fsum_runs(values, counts)).tobytes()
