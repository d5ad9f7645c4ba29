"""Direct-illuminance transport from luminaires to candidate sensor points.

The model is 2.5D: occlusion is decided in plan view (walls and door leaves
are full-height opaque planes) while distances and incidence angles use the
true 3D positions. Only the direct path is modeled; there are no bounces.

A "light configuration" is an on/off assignment to all n luminaires,
identified by the integer whose bit i is luminaire i's state.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvcolumns import Column, read_columns
from .geometry import segments_as_array, sightlines_blocked
from .scene import (
    CandidatePoint,
    DoorState,
    Luminaire,
    Scene,
    active_occluders,
    door_leaf_segment,
    enumerate_door_states,
)


@dataclass(frozen=True)
class LightConfig:
    """On/off state of n luminaires: bit i of index is luminaire i's state."""

    index: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < (1 << self.n):
            raise ValueError(f"config index {self.index} out of range for {self.n} luminaires")

    @classmethod
    def from_index(cls, index: int, n: int) -> "LightConfig":
        return cls(index, n)

    @property
    def on_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.index >> i & 1)


@dataclass(frozen=True)
class NoiseModel:
    """Additive gaussian sensor noise with std sigma (lux); sigma 0 is none."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma {self.sigma} must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")


@dataclass
class ContributionVector:
    """Per-luminaire lux at one point under one door state."""

    values: np.ndarray
    point_index: int = 0
    door_state_index: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("contribution vector must be 1-D")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass
class ContributionMatrix:
    """Contributions for every (candidate point, door state) pair.

    values has shape (n_points, n_door_states, n_luminaires), in the order
    of the grid's points and of door_states: the enumerate_door_states
    index of each entry of the second axis, by default all of them in order.
    """

    values: np.ndarray
    door_states: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("contribution matrix must have shape (points, door_states, luminaires)")
        if self.door_states is None:
            self.door_states = np.arange(self.values.shape[1])
        self.door_states = np.asarray(self.door_states, dtype=np.intp)
        if self.door_states.shape != self.values.shape[1:2]:
            raise ValueError("door_states must name one door state per entry of the second axis")

    @property
    def n_points(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_door_states(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_luminaires(self) -> int:
        return int(self.values.shape[2])

    def vector_at(self, point_index: int, door_state_index: int) -> ContributionVector:
        return ContributionVector(
            values=self.values[point_index, door_state_index],
            point_index=point_index,
            door_state_index=door_state_index,
        )


def _unoccluded_batch(
    lum: Luminaire,
    pts_xy: np.ndarray,
    height: float,
    normal: tuple[float, float, float] | None,
) -> np.ndarray:
    """Direct lux from one luminaire at many points of one height and
    normal (None for omnidirectional), ignoring occluders."""
    lx, ly, lz = lum.position.x, lum.position.y, lum.mount_height
    dx = pts_xy[:, 0] - lx
    dy = pts_xy[:, 1] - ly
    dz = height - lz
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 == 0.0):
        raise ValueError(f"candidate point coincides with luminaire {lum.label}")
    d = np.sqrt(d2)

    # Emission direction in the profile's frame: vertical angle from nadir,
    # horizontal angle in plan from +x.
    cos_down = np.clip((lz - height) / d, -1.0, 1.0)
    v_deg = np.degrees(np.arccos(cos_down))
    h_deg = np.degrees(np.arctan2(dy, dx)) % 360.0
    rel = np.asarray(lum.profile.relative_intensity(v_deg, h_deg), dtype=float)

    if normal is None:
        cos_inc = 1.0
    else:
        nx, ny, nz = normal
        cos_inc = -(dx / d * nx + dy / d * ny + dz / d * nz)
        # np.maximum(0.0, -0.0) is -0.0, which would print as "-0" lux
        cos_inc = np.where(cos_inc > 0.0, cos_inc, 0.0)

    return lum.intensity * rel * cos_inc / d2


def _plan_xy(luminaires: list[Luminaire] | tuple[Luminaire, ...]) -> np.ndarray:
    """The luminaires' plan positions as an (L, 2) array: occlusion origins."""
    return np.array([(lum.position.x, lum.position.y) for lum in luminaires], dtype=float)


def _lux_at_point(
    scene: Scene,
    door_state: DoorState,
    luminaires: list[Luminaire] | tuple[Luminaire, ...],
    point: CandidatePoint,
) -> np.ndarray:
    """Direct lux from each of luminaires at one point under one door state."""
    segments = segments_as_array(active_occluders(scene, door_state))
    xy = np.array([[point.position.x, point.position.y]], dtype=float)
    blocked = sightlines_blocked(_plan_xy(luminaires), xy, segments)[:, 0]
    lux = [_unoccluded_batch(lum, xy, point.height, point.normal)[0] for lum in luminaires]
    return np.where(blocked, 0.0, lux)


def contribution(
    scene: Scene,
    door_state: DoorState,
    luminaire: Luminaire,
    point: CandidatePoint,
) -> float:
    """Lux that one luminaire alone delivers to one point."""
    return float(_lux_at_point(scene, door_state, [luminaire], point)[0])


def contribution_vector(
    scene: Scene,
    door_state: DoorState,
    point: CandidatePoint,
    point_index: int = 0,
    door_state_index: int = 0,
) -> ContributionVector:
    """Per-luminaire contributions at one point under one door state."""
    values = _lux_at_point(scene, door_state, scene.luminaires, point)
    return ContributionVector(values=values, point_index=point_index, door_state_index=door_state_index)


def sweep(scene: Scene, cells: np.ndarray | None = None,
          states: np.ndarray | None = None) -> ContributionMatrix:
    """Contributions for every (grid point, door state, luminaire) triple,
    over the scene's grid and every state of enumerate_door_states; with
    cells, over the grid points of those indices only, in their order; with
    states, over the door states of those enumerate_door_states indices
    only, in their order.

    Factored over door states and luminaires: each luminaire's photometry
    is computed once, and sightlines_blocked runs once for the walls and
    once per (door, angle) leaf that some swept state shows, each time for
    all luminaires together. A state's mask ORs the wall mask with its
    leaves' masks, gathered from the stacked leaf masks, which equals
    testing its active_occluders together, bit for bit. The computation is
    independent per point and per state, so the result does not depend on
    evaluation order: a row of sweep(scene, cells, states) is bit-identical
    to the same (point, state) row of sweep(scene). values is a
    C-contiguous float64 (points, door states, luminaires) array.
    """
    grid = scene.grid
    if grid is None or len(grid.points) == 0:
        raise ValueError("sweep needs a scene grid with at least one candidate point")
    pts_xy = grid.points
    if cells is not None:
        pts_xy = pts_xy[_indices(cells, len(pts_xy), "cells", "grid point")]
    door_states = enumerate_door_states(scene)
    states = (np.arange(len(door_states)) if states is None
              else _indices(states, len(door_states), "states", "door state"))
    leaves = [(d, a) for d, door in enumerate(scene.doors) for a in door.allowed_angles_deg]
    leaf_index = {leaf: k for k, leaf in enumerate(leaves)}
    # state_leaves[s, d] is the leaf that door d shows in swept state s
    state_leaves = np.array(
        [[leaf_index[leaf] for leaf in enumerate(door_states[q].angles_deg)]
         for q in states.tolist()],
        dtype=np.intp,
    ).reshape(len(states), len(scene.doors))
    origins = _plan_xy(scene.luminaires)
    lux = np.array([_unoccluded_batch(lum, pts_xy, grid.height, grid.normal)
                    for lum in scene.luminaires])  # (L, P)
    # only the leaves some swept state shows are tested; no state gathers
    # the others
    leaf_blocked = np.zeros((len(leaves),) + lux.shape, dtype=bool)
    for k in set(state_leaves.ravel().tolist()):
        d, a = leaves[k]
        leaf_blocked[k] = sightlines_blocked(
            origins, pts_xy, segments_as_array([door_leaf_segment(scene.doors[d], a)]))
    # blocked[s, i, p]: some occluder of swept state s cuts luminaire i's
    # sight line to point p
    blocked = np.repeat(sightlines_blocked(origins, pts_xy, segments_as_array(scene.walls))[None],
                        len(states), axis=0)
    for d in range(len(scene.doors)):
        blocked |= leaf_blocked[state_leaves[:, d]]
    values = np.empty((len(pts_xy), len(states), scene.n_luminaires))
    by_state = values.transpose(1, 2, 0)
    np.copyto(by_state, lux)
    np.copyto(by_state, 0.0, where=blocked)
    return ContributionMatrix(values=values, door_states=states)


def _indices(indices: np.ndarray, size: int, name: str, what: str) -> np.ndarray:
    """sweep's argument name as a 1-D intp array of indices in [0, size)."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim != 1 or not ((indices >= 0) & (indices < size)).all():
        raise ValueError(f"sweep {name} must be a 1-D array of {what} indices")
    return indices


def reading(
    x: ContributionVector,
    config: LightConfig,
    noise: NoiseModel = NoiseModel(),
) -> float:
    """Sensor reading for a light configuration: sum of on-contributions.

    The noiseless sum uses exact (correctly rounded) accumulation. Gaussian
    noise is drawn from a stream keyed by (seed, point, door state, config),
    so repeated calls with the same inputs return the same value, and the
    reading is clamped at zero like a real sensor.
    """
    if config.n != x.n:
        raise ValueError(f"config has {config.n} bits, vector has {x.n}")
    base = math.fsum(v for i, v in enumerate(x.values.tolist()) if config.index >> i & 1)
    if noise.sigma > 0:
        key = (noise.seed, x.point_index, x.door_state_index, config.index)
        rng = np.random.default_rng(np.random.SeedSequence(key))
        base += noise.sigma * rng.standard_normal()
    return max(0.0, base)


def exact_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each run of values, bit for bit
    math.fsum's: run i is the next counts[i] entries. A sum that is exactly
    zero, an empty run's too, is +0.0, as math.fsum gives (math.fsum([-0.0])
    is 0.0 on CPython 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13).

    Runs are padded with zeros to a power-of-two length, and the runs of
    each length are summed together by _settled_sums. math.fsum sums each
    run that it does not settle, such as one near a rounding tie, or one
    with a non-finite value or sum.
    """
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    sums = np.zeros(len(counts))
    # a run of c > 0 values is padded to 2^b, b = (c - 1).bit_length()
    bits = np.where(counts > 0, np.frexp(np.maximum(counts - 1, 0))[1], -1)
    for b in np.unique(bits[counts > 0]).tolist():
        runs = np.flatnonzero(bits == b)
        c = counts[runs]
        first = np.cumsum(c) - c
        at = np.arange(c.sum())
        block = np.zeros(len(runs) << b)
        block[np.repeat((np.arange(len(runs)) << b) - first, c) + at] = values[
            np.repeat(starts[runs] - first, c) + at]
        with np.errstate(over="ignore", invalid="ignore"):  # math.fsum judges those runs
            sums[runs], settled = _settled_sums(block.reshape(len(runs), 1 << b))
        for i in runs[~settled].tolist():
            sums[i] = math.fsum(values[starts[i]:starts[i] + counts[i]].tolist())
    return sums


def _settled_sums(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum, and whether it is the row's correctly rounded sum,
    for rows of 2^b columns.

    The columns are added pairwise, with each addition's TwoSum error kept
    aside, so that a row's sum is exactly its hi plus its errors. The
    errors are summed in floating point, within gamma(m - 1) times the sum
    of their magnitudes for m errors (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., eq. 4.4). A row is settled where hi +
    errors rounds to the same double anywhere within that bound.
    """
    b = block.shape[1].bit_length() - 1
    # each level's errors are added into the first columns of err
    err = np.zeros((len(block), max(1, block.shape[1] // 2)))
    err_abs = np.zeros_like(err)
    while block.shape[1] > 1:
        x, y = block[:, 0::2], block[:, 1::2]
        block = x + y
        e = _two_sum_error(x, y, block)
        err[:, :e.shape[1]] += e
        err_abs[:, :e.shape[1]] += np.abs(e)
    hi, lo, lo_abs = block[:, 0], err.sum(axis=1), err_abs.sum(axis=1)
    s = hi + lo  # +0.0 for an exact zero sum, as math.fsum gives
    tail = _two_sum_error(hi, lo, s)
    # 2^(b - 52) bounds gamma(m) / (1 - gamma(m)) for m < 2^b errors, which
    # covers both the errors' sum and the sum of their magnitudes; the power
    # of two scales exactly, and the least subnormal covers a product that
    # underflows
    bound = lo_abs * 2.0 ** (b - 52) + 5e-324
    up, down = np.nextafter(s, math.inf) - s, s - np.nextafter(s, -math.inf)
    settled = (lo_abs == 0) | ((tail + bound < up / 2) & (tail - bound > -down / 2))
    return s, settled & (up + down < math.inf)  # s and the doubles beside it are finite


def _two_sum_error(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x + y - s exactly, where s is x + y rounded (Knuth's TwoSum)."""
    y_part = s - x
    return (x - (s - y_part)) + (y - y_part)


CSV_SIG_DIGITS = 6
CSV_BLOCK_BYTES = 1 << 18
"""Bytes of matrix values whose rows make one block of contributions.csv."""


def _csv_blocks(matrix: ContributionMatrix) -> Iterator[str]:
    """contributions.csv as its header, then blocks of whole points' rows.

    Rows are labelled with matrix.door_states. A row whose values are
    bit-identical to its point's first row reuses that row's text (-0.0
    and 0.0 differ in bits and in print), and a block's other rows are
    formatted in one call.
    """
    values = matrix.values
    n_points, n_states, n = values.shape
    yield ",".join(["point_index", "door_state"] + [f"lum_{i}" for i in range(n)]) + "\n"
    row = f",%.{CSV_SIG_DIGITS}g" * n + "\n"
    states = [f",{q}" for q in matrix.door_states.tolist()]
    step = max(1, CSV_BLOCK_BYTES // max(1, values.itemsize * n_states * n))
    for start in range(0, n_points, step):
        block = values[start:start + step]
        bits = block.view(np.int64)
        reused = np.zeros(block.shape[:2], dtype=bool)
        reused[:, 1:] = (bits[:, 1:] == bits[:, :1]).all(axis=2)
        fresh = block[~reused]
        # pieces[p, q] is the row's point, its door state and its values
        pieces = np.empty((len(block), n_states, 3), dtype=object)
        pieces[:, :, 0] = np.array([str(p) for p in range(start, start + len(block))],
                                   dtype=object)[:, None]
        pieces[:, :, 1] = states
        text = pieces[:, :, 2]
        text[~reused] = (row * len(fresh) % tuple(fresh.ravel().tolist())).splitlines(keepends=True)
        np.copyto(text, text[:, :1], where=reused)
        yield "".join(pieces.ravel().tolist())


def matrix_to_csv(matrix: ContributionMatrix) -> str:
    """CSV with one row per (point, door state): point_index,door_state,lum_*."""
    return "".join(_csv_blocks(matrix))


def write_matrix_csv(matrix: ContributionMatrix, path: str | Path) -> None:
    """Write matrix_to_csv's text block by block, never holding all of it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_blocks(matrix))


def read_matrix_csv(path: str | Path) -> ContributionMatrix:
    """Inverse of write_matrix_csv (values carry CSV rounding).

    Rows may come in any order but must give each (point_index, door_state)
    pair of the full points x door states block exactly once. A short,
    overlong, unparsable or repeated row, or a lux value that is NaN,
    infinite or negative, raises ValueError naming the file and its 1-based
    line.
    """
    def columns(header: list[str]) -> list[Column]:
        if header[:2] != ["point_index", "door_state"]:
            raise ValueError(f"{path}: not a contribution matrix CSV")
        return [Column(0, int), Column(1, int)] + [Column(k, float) for k in range(2, len(header))]

    table = read_columns(path, columns)
    p, q, *lux = table.values
    lux = np.reshape(lux, (len(lux), len(p)))
    # a row gives its key twice where it is not the key's first row; keys are
    # ranked per column so that a pair of ranks fits in one int64
    ranks = [np.unique(key, return_inverse=True)[1] for key in (p, q)]
    twice = np.ones(len(p), dtype=bool)
    twice[np.unique(ranks[0] * len(p) + ranks[1], return_index=True)[1]] = False
    out_of_range = ~((lux >= 0.0) & (lux < math.inf))
    table.check([
        *table.failed[:2],
        ((p < 0) | (q < 0), lambda i: "negative point_index or door_state"),
        (twice, lambda i: f"point {p[i]}, door state {q[i]} given twice"),
        *table.failed[2:],
        (out_of_range.any(axis=0), lambda i: "lux {!r} is not finite and nonnegative".format(
            table.text[2 + out_of_range[:, i].argmax()][i])),
    ])
    if not len(p):
        raise ValueError(f"{path}: empty contribution matrix")
    n_points, n_states = int(p.max()) + 1, int(q.max()) + 1
    if len(p) != n_points * n_states:
        raise ValueError(
            f"{path}: {len(p)} rows do not cover {n_points} points x {n_states} door states"
        )
    values = np.zeros((n_points, n_states, len(lux)))
    values[p, q] = lux.T
    return ContributionMatrix(values=values)
