"""Seeded inputs for the benchmark's workloads.

Only numpy and the benchmark's own oracle are used, never luxplan, so a
change to the program cannot change what it is fed. The same seed gives
byte-identical files. Sizes (cells, luminaires, door states, rows) do not
depend on the seed; positions, intensities and chosen configurations do.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from oracle import Door, GridSpec, Lum, SceneSpec, config_sums, door_states, perfect_sum_brute, \
    sees_all, sweep_float

INTENSITIES = (120.0, 140.0, 160.0, 180.0, 200.0)  # candela, the short list
DOOR_ANGLES = (0.0, 45.0, 90.0)
MOUNT = 2.8
EPSILON = 0.01  # the CLI's default perfect-sum tolerance, lux
DWELL, RATE_HZ = 7.0, 4.7  # seconds per command, samples per second
SETTLE, WINDOW = 3.0, 3.0  # the CLI's default settle and averaging window, seconds
LOG_SIGMA = 0.001  # sensor noise in the ingest logs, well below EPSILON
AMBIGUITY = 25.0  # target candidates per reading at decode-wide's sensor cells
# decode-wide's hall, its sensor and log cells and the fusion probe come
# from this seed alone; --seed draws the configurations read and logged.
# Search cost differs up to 2.5x between cells of equal ambiguity, so a
# seeded hall would make infer_rps swing with the seed, not the program.
WIDE_SEED = 20230413

_STREAMS = {"scene": 1, "survey": 2, "sensors": 3, "logs": 4, "probe": 5, "check": 6}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def _zoned_lums(rng, cols: int, rows: int, w: float, h: float, jitter: float) -> list[Lum]:
    """One luminaire within `jitter` of the centre of each cell of a
    cols x rows zoning; intensities are a seeded permutation of a fixed
    multiset drawn from INTENSITIES, so every seed has the same mix."""
    count = cols * rows
    cds = rng.permutation([INTENSITIES[k % len(INTENSITIES)] for k in range(count)])
    lums = []
    for r in range(rows):
        for c in range(cols):
            x = (c + 0.5) * w / cols + rng.uniform(-jitter, jitter)
            y = (r + 0.5) * h / rows + rng.uniform(-jitter, jitter)
            lums.append(Lum(f"L{len(lums)}", float(x), float(y), MOUNT, float(cds[len(lums)])))
    return lums


def _grid(rng, w: float, h: float, nx: int, ny: int, spacing: float, height: float) -> GridSpec:
    """A lattice of exactly nx * ny cells centred in [0, w] x [0, h]."""
    minx = (w - (nx - 1) * spacing) / 2 + rng.uniform(-0.01, 0.01)
    miny = (h - (ny - 1) * spacing) / 2 + rng.uniform(-0.01, 0.01)
    return GridSpec(float(minx), float(miny), float(minx + (nx - 0.5) * spacing),
                    float(miny + (ny - 0.5) * spacing), spacing, height)


def hall_doors_scene(seed: int) -> SceneSpec:
    """A 12 m x 8 m hall with four storerooms, two off each long wall.

    Each doorway holds a door hinged on one jamb whose leaf swings into the
    hall at 0/45/90 degrees (81 door states) and shadows part of it. Eight
    luminaires, one near the centre of each 3 m x 4 m zone; 16 x 10 = 160
    cells over the hall.
    """
    rng = rng_for(seed, "scene")
    w, h = 12.0, 8.0
    walls, doors = [(w, 0.0, w, h), (0.0, h, 0.0, 0.0)], []
    for side, y, ranges in (("s", 0.0, ((1.2, 3.6), (7.2, 9.6))),
                            ("n", h, ((2.2, 4.6), (7.6, 10.0)))):
        x0 = 0.0
        for k, (lo, hi) in enumerate(ranges):
            gap, leaf = float(rng.uniform(lo, hi)), float(rng.uniform(0.8, 1.0))
            walls.append((x0, y, gap, y))
            x0 = gap + leaf
            depth = -2.5 if side == "s" else 2.5
            a, b = gap - 0.6, gap + leaf + 0.6
            walls += [(a, y, a, y + depth), (a, y + depth, b, y + depth), (b, y + depth, b, y)]
            if side == "s":  # hinge on the west jamb, closed leaf points east
                doors.append(Door(f"{side}{k}", gap, y, leaf, 0.0, DOOR_ANGLES))
            else:  # hinge on the east jamb, closed leaf points west
                doors.append(Door(f"{side}{k}", gap + leaf, y, leaf, 180.0, DOOR_ANGLES))
        walls.append((x0, y, w, y))
    lums = _zoned_lums(rng, 4, 2, w, h, 0.5)
    return SceneSpec(walls=walls, doors=doors, lums=lums, grid=_grid(rng, w, h, 16, 10, 0.72, 0.8))


def decode_wide_scene(seed: int) -> SceneSpec:
    """A 16 m x 10 m hall without doors, 16 luminaires (one near the centre
    of each 4 m x 2.5 m zone) and three free-standing screens, 0.5 to 0.8 m
    wide, that hide some luminaires from some cells. 50 x 30 cells before
    the few that fall on a screen."""
    rng = rng_for(seed, "scene")
    w, h = 16.0, 10.0
    walls = [(0.0, 0.0, w, 0.0), (w, 0.0, w, h), (w, h, 0.0, h), (0.0, h, 0.0, 0.0)]
    for k in range(3):
        cx, cy = 4.0 * (k + 1) + rng.uniform(-0.3, 0.3), 5.0 + rng.uniform(-0.3, 0.3)
        half, ang = rng.uniform(0.25, 0.4), rng.uniform(0.0, math.pi)
        walls.append((float(cx - half * math.cos(ang)), float(cy - half * math.sin(ang)),
                      float(cx + half * math.cos(ang)), float(cy + half * math.sin(ang))))
    lums = _zoned_lums(rng, 4, 4, w, h, 0.3)
    return SceneSpec(walls=walls, doors=[], lums=lums, grid=_grid(rng, w, h, 50, 30, 0.31, 0.8))


# ------------------------------------------------------------------ readings

def pick_cells(rng, spec: SceneSpec, pts: np.ndarray, state, k: int,
               ambiguity: float | None = None) -> list[int]:
    """k distinct cells that see every luminaire in the given door state.

    With `ambiguity` set, the k cells (of up to 96 drawn) whose mean
    candidate count per reading is nearest to it; otherwise k random ones.
    """
    ok = np.flatnonzero(sees_all(spec, pts, state))
    if len(ok) < k:
        raise RuntimeError(f"only {len(ok)} cells see every luminaire, {k} needed")
    if ambiguity is None:
        return sorted(int(c) for c in rng.choice(ok, size=k, replace=False))
    drawn = np.sort(rng.choice(ok, size=min(96, len(ok)), replace=False))
    sums = np.sort(config_sums(sweep_float(spec, pts[drawn], [state])[:, 0, :]), axis=1)
    configs = rng.integers(0, sums.shape[1], 256)
    mean = np.array([np.mean(np.searchsorted(s, s[configs] + EPSILON, "right")
                             - np.searchsorted(s, s[configs] - EPSILON, "left")) for s in sums])
    return sorted(int(c) for c in drawn[np.argsort(np.abs(mean - ambiguity), kind="stable")[:k]])


def readings_csv(rows: list[tuple[str, int, int, int]]) -> str:
    """trial,point_index,door_state,truth; the CLI simulates each reading."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["trial", "point_index", "door_state", "truth"])
    w.writerows(rows)
    return buf.getvalue()


def survey_rows(seed: int, n_points: int, n_states: int, n: int, count: int) -> list:
    """Readings at random (cell, door state, configuration), one per trial."""
    rng = rng_for(seed, "survey")
    p = rng.integers(0, n_points, count)
    q = rng.integers(0, n_states, count)
    c = rng.integers(0, 1 << n, count)
    return [(f"s{k}", int(p[k]), int(q[k]), int(c[k])) for k in range(count)]


def sensor_rows(seed: int, sensors: list[int], n: int, count: int) -> list:
    """Readings at fixed sensor cells, one per trial, the cells taken in
    turn; random configurations."""
    c = rng_for(seed, "survey").integers(0, 1 << n, count)
    return [(f"t{k}", sensors[k % len(sensors)], 0, int(c[k])) for k in range(count)]


def probe_rows(spec: SceneSpec, pts: np.ndarray, sensors: list[int], trials: int) -> list:
    """Trials read at every sensor whose candidate sets meet in exactly the
    truth, so a correct fusion must return it. Built from WIDE_SEED only."""
    rng = rng_for(WIDE_SEED, "probe")
    vecs = sweep_float(spec, pts[sensors])[:, 0, :]
    sums = config_sums(vecs)
    rows: list = []
    while len(rows) < len(sensors) * trials:
        truth = int(rng.integers(0, 1 << spec.n))
        common = set(range(1 << spec.n))
        for v, s in zip(vecs, sums):
            common &= set(perfect_sum_brute(v, float(s[truth]), EPSILON)[0])
        if common == {truth}:
            rows += [(f"f{len(rows) // len(sensors)}", c, 0, truth) for c in sensors]
    return rows


# ---------------------------------------------------------------------- logs

def ingest_logs(seed: int, spec: SceneSpec, pts: np.ndarray, cells: list[int],
                state_index: int, extra_configs: int) -> tuple[str, str, int]:
    """Sample and command logs at the given cells, under one door state.

    Commands: all off, each single light, then distinct random
    configurations, DWELL seconds apart. Samples at RATE_HZ per location
    read ambient + the commanded sum + LOG_SIGMA noise. Returns the two CSV
    texts and the number of sample rows.
    """
    rng = rng_for(seed, "logs")
    state = door_states(spec)[state_index]
    x = sweep_float(spec, pts[cells], [state])[:, 0, :]
    n = spec.n
    reserved = {0} | {1 << i for i in range(n)}
    pool = np.array([p for p in range(1 << n) if p not in reserved])
    configs = [0] + [1 << i for i in range(n)] + \
        [int(p) for p in rng.choice(pool, size=extra_configs, replace=False)]
    n_samples = int(math.ceil(DWELL * (len(configs) + 1) * RATE_HZ))
    t = np.arange(n_samples) / RATE_HZ
    k = np.minimum((t // DWELL).astype(int), len(configs) - 1)
    sums = config_sums(x)  # (locations, 2^n)
    samples = io.StringIO()
    w = csv.writer(samples, lineterminator="\n")
    w.writerow(["t", "location", "lux"])
    for j, cell in enumerate(cells):
        ambient = rng.uniform(5.0, 20.0)
        lux = ambient + sums[j, np.array(configs)[k]] + LOG_SIGMA * rng.standard_normal(n_samples)
        w.writerows((repr(float(a)), f"cell{cell}", repr(float(b))) for a, b in zip(t, lux))
    commands = io.StringIO()
    w = csv.writer(commands, lineterminator="\n")
    w.writerow(["t", "bitmask"])
    w.writerows((repr(kk * DWELL), p) for kk, p in enumerate(configs))
    return samples.getvalue(), commands.getvalue(), n_samples * len(cells)
