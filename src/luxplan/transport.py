"""Direct-illuminance transport from luminaires to candidate sensor points.

The model is 2.5D: occlusion is decided in plan view (walls and door leaves
are full-height opaque planes) while distances and incidence angles use the
true 3D positions. Only the direct path is modeled; there are no bounces.

A "light configuration" is an on/off assignment to all n luminaires,
identified by the integer whose bit i is luminaire i's state.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import segments_as_array, sightlines_blocked
from .scene import (
    CandidatePoint,
    DoorState,
    Luminaire,
    Scene,
    active_occluders,
    check_door_state,
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
    """Sensor noise: 'none' or additive 'gaussian' with std sigma (lux)."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


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

    values has shape (n_points, n_door_states, n_luminaires).
    """

    values: np.ndarray
    points: tuple[CandidatePoint, ...] = ()
    door_states: tuple[DoorState, ...] = ()

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("contribution matrix must have shape (points, door_states, luminaires)")

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
    heights: np.ndarray,
    normals: np.ndarray | None,
) -> np.ndarray:
    """Direct lux from one luminaire at many points, ignoring occluders.

    normals is (P, 3) with NaN rows for omnidirectional points, or None when
    every point is omnidirectional.
    """
    lx, ly, lz = lum.position.x, lum.position.y, lum.mount_height
    dx = pts_xy[:, 0] - lx
    dy = pts_xy[:, 1] - ly
    dz = heights - lz
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 == 0.0):
        raise ValueError(f"candidate point coincides with luminaire {lum.label}")
    d = np.sqrt(d2)

    # Emission direction in the profile's frame: vertical angle from nadir,
    # horizontal angle in plan from +x.
    cos_down = np.clip((lz - heights) / d, -1.0, 1.0)
    v_deg = np.degrees(np.arccos(cos_down))
    h_deg = np.degrees(np.arctan2(dy, dx)) % 360.0
    rel = np.asarray(lum.profile.relative_intensity(v_deg, h_deg), dtype=float)

    if normals is None:
        cos_inc = 1.0
    else:
        ux, uy, uz = dx / d, dy / d, dz / d
        dot = -(ux * normals[:, 0] + uy * normals[:, 1] + uz * normals[:, 2])
        cos_inc = np.where(np.isnan(dot), 1.0, np.maximum(0.0, dot))

    return lum.intensity * rel * cos_inc / d2


def _illuminance_batch(
    lum: Luminaire,
    pts_xy: np.ndarray,
    heights: np.ndarray,
    normals: np.ndarray | None,
    segments: np.ndarray,
) -> np.ndarray:
    """Direct lux from one luminaire at many points (order-independent)."""
    lux = _unoccluded_batch(lum, pts_xy, heights, normals)
    blocked = sightlines_blocked(np.array([lum.position.x, lum.position.y]), pts_xy, segments)
    return np.where(blocked, 0.0, lux)


def _candidate_arrays(points) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    pts_xy = np.array([(p.position.x, p.position.y) for p in points], dtype=float)
    heights = np.array([p.height for p in points], dtype=float)
    if all(p.normal is None for p in points):
        normals = None
    else:
        normals = np.array(
            [p.normal if p.normal is not None else (math.nan,) * 3 for p in points],
            dtype=float,
        )
    return pts_xy, heights, normals


def contribution(
    scene: Scene,
    door_state: DoorState,
    luminaire: Luminaire,
    point: CandidatePoint,
) -> float:
    """Lux that one luminaire alone delivers to one point."""
    segments = segments_as_array(active_occluders(scene, door_state))
    pts_xy, heights, normals = _candidate_arrays([point])
    return float(_illuminance_batch(luminaire, pts_xy, heights, normals, segments)[0])


def contribution_vector(
    scene: Scene,
    door_state: DoorState,
    point: CandidatePoint,
    point_index: int = 0,
    door_state_index: int = 0,
) -> ContributionVector:
    """Per-luminaire contributions at one point under one door state."""
    segments = segments_as_array(active_occluders(scene, door_state))
    pts_xy, heights, normals = _candidate_arrays([point])
    values = np.array([
        _illuminance_batch(lum, pts_xy, heights, normals, segments)[0]
        for lum in scene.luminaires
    ])
    return ContributionVector(values=values, point_index=point_index, door_state_index=door_state_index)


def sweep(
    scene: Scene,
    door_states: list[DoorState] | tuple[DoorState, ...] | None = None,
    candidates: list[CandidatePoint] | tuple[CandidatePoint, ...] | None = None,
) -> ContributionMatrix:
    """Contributions for every (candidate, door state, luminaire) triple.

    Factored over door states: per luminaire, the photometry and the walls'
    occlusion mask are computed once, and one mask per (door, angle) leaf
    the states use. A state's mask ORs the wall mask with its leaves'
    masks, which equals testing its active_occluders together, bit for bit.
    The computation is independent per candidate, so the result does not
    depend on evaluation order.
    """
    if door_states is None:
        door_states = enumerate_door_states(scene)
    if candidates is None:
        candidates = scene.candidates
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("sweep needs at least one candidate point")
    for state in door_states:
        check_door_state(scene, state)
    leaf_segments = {
        (d, a): segments_as_array([door_leaf_segment(scene.doors[d], a)])
        for state in door_states for d, a in enumerate(state.angles_deg)
    }
    walls = segments_as_array(scene.walls)
    pts_xy, heights, normals = _candidate_arrays(candidates)
    values = np.zeros((len(candidates), len(door_states), scene.n_luminaires))
    for i, lum in enumerate(scene.luminaires):
        origin = np.array([lum.position.x, lum.position.y])
        lux = _unoccluded_batch(lum, pts_xy, heights, normals)
        wall_blocked = sightlines_blocked(origin, pts_xy, walls)
        leaf_blocked = {
            leaf: sightlines_blocked(origin, pts_xy, seg) for leaf, seg in leaf_segments.items()
        }
        for q, state in enumerate(door_states):
            blocked = wall_blocked.copy()
            for leaf in enumerate(state.angles_deg):
                blocked |= leaf_blocked[leaf]
            values[:, q, i] = np.where(blocked, 0.0, lux)
    return ContributionMatrix(values=values, points=candidates, door_states=tuple(door_states))


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
    base = math.fsum(x.values[i] for i in config.on_indices)
    if noise.kind == "gaussian" and noise.sigma > 0:
        key = (noise.seed, x.point_index, x.door_state_index, config.index)
        rng = np.random.default_rng(np.random.SeedSequence(key))
        base += noise.sigma * rng.standard_normal()
    return max(0.0, base)


CSV_SIG_DIGITS = 6


def matrix_to_csv(matrix: ContributionMatrix) -> str:
    """CSV with one row per (point, door state): point_index,door_state,lum_*."""
    n = matrix.n_luminaires
    lines = [",".join(["point_index", "door_state"] + [f"lum_{i}" for i in range(n)]) + "\n"]
    row = "%d,%d" + f",%.{CSV_SIG_DIGITS}g" * n + "\n"
    for p in range(matrix.n_points):
        lines += [row % (p, q, *vals) for q, vals in enumerate(matrix.values[p].tolist())]
    return "".join(lines)


def write_matrix_csv(matrix: ContributionMatrix, path: str | Path) -> None:
    Path(path).write_text(matrix_to_csv(matrix), encoding="utf-8")


def read_matrix_csv(path: str | Path) -> ContributionMatrix:
    """Inverse of write_matrix_csv (values carry CSV rounding)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["point_index", "door_state"]:
        raise ValueError(f"{path}: not a contribution matrix CSV")
    n = len(rows[0]) - 2
    data: dict[tuple[int, int], list[float]] = {}
    for row in rows[1:]:
        if not row:
            continue
        p, q = int(row[0]), int(row[1])
        data[(p, q)] = [float(v) for v in row[2:]]
    if not data:
        raise ValueError(f"{path}: empty contribution matrix")
    n_points = max(k[0] for k in data) + 1
    n_states = max(k[1] for k in data) + 1
    values = np.zeros((n_points, n_states, n))
    for (p, q), vals in data.items():
        values[p, q] = vals
    return ContributionMatrix(values=values)
