"""Tests of the benchmark's own oracle and input generators.

    python3 -m pytest luxbench/test_luxbench.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402


def test_quickstart_reading_has_two_explanations():
    cands, _ = oracle.perfect_sum_brute([2.0, 3.0, 4.0, 5.0], 7.0, 0.0)
    assert {tuple(sorted(oracle.bits(c, 4))) for c in cands} == {(1, 2), (0, 3)}


def test_crossing_and_grazing_by_hand():
    # the diagonals of a square cross at (1, 1), well inside both
    assert oracle.crossing_exact((0, 0), (2, 2), (0, 2), (2, 0)) == (True, 4.0)
    # a sight line through a wall's end point only touches it
    crosses, margin = oracle.crossing_exact((0, 0), (2, 0), (1, 0), (1, 1))
    assert not crosses and margin == 0.0

    spec = oracle.SceneSpec(walls=[(1.0, 0.0, 1.0, 2.0)], doors=[],
                            lums=[oracle.Lum("A", 0.0, 0.0, 2.0, 100.0)],
                            grid=oracle.GridSpec(0, 0, 4, 5, 1, 0.0))
    lum = spec.lums[0]
    # (0,0) -> (3,4) meets x = 1 at y = 4/3, inside the wall: dark
    assert oracle.contribution_exact(spec, (), lum, (3.0, 4.0), 0.0) == (0.0, False)
    # with the wall moved aside the cell sees E = 100 / (9 + 16 + 4)
    spec.walls = [(5.0, 0.0, 5.0, 2.0)]
    value, grazing = oracle.contribution_exact(spec, (), lum, (3.0, 4.0), 0.0)
    assert value == pytest.approx(100.0 / 29.0, rel=1e-15) and not grazing
    # a wall ending exactly on the sight line at (1.5, 2): grazing, not blocked
    spec.walls = [(1.5, 2.0, 1.5, 3.0)]
    value, grazing = oracle.contribution_exact(spec, (), lum, (3.0, 4.0), 0.0)
    assert grazing and value > 0
    # the float sweep agrees away from grazing
    spec.walls = [(1.0, 0.0, 1.0, 2.0), (5.0, 0.0, 5.0, 2.0)]
    pts = np.array([[3.0, 4.0], [3.0, -1.0]])
    lux = oracle.sweep_float(spec, pts)[:, 0, 0]
    assert lux[0] == 0.0 and lux[1] == pytest.approx(100.0 / (9 + 1 + 4))


def test_isolation_flags_match_fsum_counts():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.0, 2.0, size=(20, 5)).round(1)  # coarse values force collisions
    flags = oracle.isolation_flags(vals, 0.01)
    for v, f in zip(vals, flags):
        count, near = oracle.isolation_count_fsum(v.tolist(), 0.01)
        assert not near and int(f.sum()) == count < 32


def test_majority_fusion_outvotes_an_exact_sensor():
    # one sensor decodes "lamp 3 only" exactly, two others each admit three
    # configurations; the per-luminaire majority still says all off
    vecs = [np.array(v, dtype=float) for v in ([1, 2, 4, 8], [1, 2, 3, 3], [2, 4, 6, 6])]
    truth = 0b1000
    sensors = []
    for v in vecs:
        target = math.fsum(v[i] for i in range(4) if truth >> i & 1)
        sensors.append((v, oracle.perfect_sum_brute(v, target, 0.0)[0]))
    assert set.intersection(*(set(c) for _, c in sensors)) == {truth}
    assert oracle.majority_fuse(sensors, 4) == 0


def test_window_baselines_and_calibration_by_hand():
    t = np.arange(0.0, 25.0, 0.5)
    cmd_t, cmd_p = np.array([0.0, 7.0, 14.0]), np.array([0, 1, 2])
    level = np.select([t < 7, t < 14], [10.0, 12.5], 13.0)
    base = oracle.window_baselines(t, np.array(["a"] * len(t)), level, cmd_t, cmd_p, 3.0, 3.0)
    assert base == {("a", 0): (10.0, False), ("a", 1): (12.5, False), ("a", 2): (13.0, False)}
    assert oracle.ingest_accuracies(base, "a", 2, 0.01) == [1.0, 1.0, 1.0]


def test_min_cover_of_a_square():
    sets = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=bool)
    assert oracle.min_cover_size(sets) == 2


def test_scene_text_round_trips():
    spec = gen.hall_doors_scene(3)
    assert oracle.render_scene(oracle.parse_scene_text(oracle.render_scene(spec))) == \
        oracle.render_scene(spec)


@pytest.mark.parametrize("make, cells", [(gen.hall_doors_scene, 160), (gen.decode_wide_scene, None)])
def test_same_seed_same_inputs(make, cells):
    a, b, c = make(5), make(5), make(6)
    assert oracle.render_scene(a) == oracle.render_scene(b) != oracle.render_scene(c)
    pts = oracle.grid_points(a)
    if cells is not None:
        assert len(pts) == len(oracle.grid_points(c)) == cells
    cells = gen.pick_cells(gen.rng_for(5, "sensors"), a, pts, oracle.door_states(a)[0], 2)
    logs = [gen.ingest_logs(5, a, pts, cells, 0, 5) for _ in range(2)]
    assert logs[0] == logs[1]
    assert gen.survey_rows(5, len(pts), 3, a.n, 50) == gen.survey_rows(5, len(pts), 3, a.n, 50)


def test_probe_trials_meet_in_the_truth():
    spec = gen.decode_wide_scene(gen.WIDE_SEED)
    pts = oracle.grid_points(spec)
    sensors = gen.pick_cells(gen.rng_for(gen.WIDE_SEED, "sensors"), spec, pts, (), 4, gen.AMBIGUITY)
    rows = gen.probe_rows(spec, pts, sensors, 3)
    assert rows == gen.probe_rows(spec, pts, sensors, 3) and len(rows) == 12
    vecs = oracle.sweep_float(spec, pts[sensors])[:, 0, :]
    for k in range(0, 12, 4):
        truth = rows[k][3]
        common = set.intersection(*(set(oracle.perfect_sum_brute(
            v, math.fsum(v[i] for i in range(16) if truth >> i & 1), gen.EPSILON)[0]) for v in vecs))
        assert common == {truth}
