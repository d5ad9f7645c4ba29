"""Scene description: walls, hinged doors, luminaires, candidate sensor grid.

Scenes are stored in a small line-oriented text format (UTF-8, '#' starts a
comment, blank lines ignored):

    ceiling <height_m>
    wall <ax> <ay> <bx> <by>
    door <label> <hinge_x> <hinge_y> <leaf_m> <closed_heading_deg> <angles_deg_csv>
    lum <label> <x> <y> <mount_height_m> <peak_candela> <profile>
    grid <minx> <miny> <maxx> <maxy> <spacing_m> <height_m> <nx> <ny> <nz>|omni

A door at angle 0 exactly fills its doorway gap; the gap itself is modeled
by simply not placing a wall segment there. Opening rotates the leaf
counterclockwise by the given angle. Luminaire profiles are 'iso', 'cos',
or 'ies:<path>' (path resolved against the scene file's directory).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    CROSSING_TOL,
    Point2,
    WallSegment,
    point_on_segment,
    points_near_segment,
    segments_cross,
)
from .photometry import COSINE_LOBE, ISOTROPIC, PhotometricProfile, parse_ies

MAX_LUMINAIRES = 24  # keeps the 2^n configuration space enumerable


class SceneError(ValueError):
    """Semantic problem with a scene (bad angle range, duplicate label, ...)."""


class SceneParseError(SceneError):
    """Syntax problem in a scene file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Door:
    label: str
    hinge: Point2
    leaf_length: float
    closed_heading_deg: float
    allowed_angles_deg: tuple[float, ...] = (0.0, 45.0, 90.0)

    def __post_init__(self) -> None:
        if self.leaf_length <= 0:
            raise SceneError(f"door {self.label}: leaf length must be positive")
        if not self.allowed_angles_deg:
            raise SceneError(f"door {self.label}: needs at least one allowed angle")
        for i, a in enumerate(self.allowed_angles_deg):
            if not 0.0 <= a <= 90.0:
                raise SceneError(f"door {self.label}: angle {a} outside [0, 90] degrees")
            # door_leaf_segment matches an angle within this tolerance
            if any(math.isclose(a, b, abs_tol=1e-9) for b in self.allowed_angles_deg[:i]):
                raise SceneError(f"door {self.label}: angle {a} repeats an earlier allowed angle")


@dataclass(frozen=True)
class Luminaire:
    index: int
    label: str
    position: Point2
    mount_height: float
    intensity: float  # peak candela; the profile scales direction-dependence
    profile: PhotometricProfile
    profile_spec: str = field(default="iso", compare=False)

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise SceneError(f"luminaire {self.label}: negative intensity")
        if self.mount_height <= 0:
            raise SceneError(f"luminaire {self.label}: mount height must be positive")


@dataclass(frozen=True)
class CandidatePoint:
    """One sensor position, for the single-point contribution API; a
    scene's candidate cells are its Grid arrays."""

    position: Point2
    height: float
    normal: tuple[float, float, float] | None = None  # None = omnidirectional

    def __post_init__(self) -> None:
        _check_unit_normal(self.normal)


def _check_unit_normal(normal: tuple[float, float, float] | None) -> None:
    if normal is not None:
        mag = math.sqrt(sum(c * c for c in normal))
        if not math.isclose(mag, 1.0, rel_tol=0, abs_tol=1e-9):
            raise SceneError("candidate normal must have unit length")


@dataclass(frozen=True)
class DoorState:
    """One assignment of an opening angle (degrees) to every door."""

    angles_deg: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Grid:
    """Candidate lattice plus the bookkeeping needed to rasterize results.

    points is a read-only (P, 2) float array of plan x, y and cells the
    matching read-only (P, 2) int array of lattice (ix, iy), both in
    row-major order. Every cell has the grid's height and normal.
    """

    minx: float
    miny: float
    maxx: float
    maxy: float
    spacing: float
    height: float
    normal: tuple[float, float, float] | None
    nx: int
    ny: int
    points: np.ndarray
    cells: np.ndarray


@dataclass(frozen=True)
class Scene:
    ceiling_height: float
    walls: tuple[WallSegment, ...]
    doors: tuple[Door, ...]
    luminaires: tuple[Luminaire, ...]
    grid: Grid | None = None

    def __post_init__(self) -> None:
        if not self.luminaires:
            raise SceneError("scene needs at least one luminaire")
        if len(self.luminaires) > MAX_LUMINAIRES:
            raise SceneError(
                f"{len(self.luminaires)} luminaires exceed the supported maximum of {MAX_LUMINAIRES}"
            )
        indices = [lum.index for lum in self.luminaires]
        if indices != list(range(len(indices))):
            raise SceneError("luminaire indices must be contiguous from 0")
        labels = [lum.label for lum in self.luminaires]
        if len(set(labels)) != len(labels):
            raise SceneError("duplicate luminaire label")
        door_labels = [d.label for d in self.doors]
        if len(set(door_labels)) != len(door_labels):
            raise SceneError("duplicate door label")
        for wall in self.walls:
            if wall.length == 0:
                raise SceneError("zero-length wall segment")
        for door in self.doors:
            closed = door_leaf_segment(door, _closest_allowed(door, 0.0)) if _allows_closed(door) else None
            if closed is not None:
                for wall in self.walls:
                    if segments_cross(closed.a, closed.b, wall.a, wall.b):
                        raise SceneError(
                            f"door {door.label}: closed leaf crosses a wall instead of filling a gap"
                        )

    @property
    def n_luminaires(self) -> int:
        return len(self.luminaires)


def _allows_closed(door: Door) -> bool:
    return any(math.isclose(a, 0.0, abs_tol=1e-9) for a in door.allowed_angles_deg)


def _closest_allowed(door: Door, angle: float) -> float:
    return min(door.allowed_angles_deg, key=lambda a: abs(a - angle))


def door_leaf_segment(door: Door, angle_deg: float) -> WallSegment:
    """Leaf position at an allowed opening angle, as a wall-like occluder."""
    if not any(math.isclose(angle_deg, a, abs_tol=1e-9) for a in door.allowed_angles_deg):
        raise SceneError(
            f"door {door.label}: angle {angle_deg} not among allowed {door.allowed_angles_deg}"
        )
    heading = math.radians(door.closed_heading_deg + angle_deg)
    tip = Point2(
        door.hinge.x + door.leaf_length * math.cos(heading),
        door.hinge.y + door.leaf_length * math.sin(heading),
    )
    return WallSegment(door.hinge, tip)


def enumerate_door_states(scene: Scene) -> list[DoorState]:
    """All door-angle combinations; the first door's angle varies slowest.

    A scene without doors yields exactly one (empty) state.
    """
    per_door = [door.allowed_angles_deg for door in scene.doors]
    return [DoorState(angles_deg=combo) for combo in itertools.product(*per_door)]


def open_door_state_index(scene: Scene) -> int:
    """Index, in enumerate_door_states order, of the state with every door
    at its widest allowed angle."""
    widest = tuple(max(d.allowed_angles_deg) for d in scene.doors)
    for q, state in enumerate(enumerate_door_states(scene)):
        if state.angles_deg == widest:
            return q
    raise SceneError("no door state with all doors at their widest angle")


def active_occluders(scene: Scene, state: DoorState) -> list[WallSegment]:
    """Walls plus every door leaf at its angle for this state."""
    if len(state.angles_deg) != len(scene.doors):
        raise SceneError("door state does not match scene doors")
    segs = list(scene.walls)
    for door, angle in zip(scene.doors, state.angles_deg):
        segs.append(door_leaf_segment(door, angle))
    return segs


def build_grid(
    bounds: tuple[float, float, float, float],
    spacing: float,
    height: float,
    normal: tuple[float, float, float] | None,
    walls: tuple[WallSegment, ...] | list[WallSegment] = (),
) -> Grid:
    """Row-major lattice over bounds; points sitting inside a wall are dropped.

    The lattice starts at (minx, miny) and steps by spacing, giving
    ceil(width/spacing) * ceil(height/spacing) cells before exclusion.
    """
    minx, miny, maxx, maxy = bounds
    if maxx <= minx or maxy <= miny:
        raise SceneError("grid bounds are empty")
    if not 0 < spacing < math.inf:
        raise SceneError("grid spacing must be positive and finite")
    _check_unit_normal(normal)
    nx = math.ceil((maxx - minx) / spacing)
    ny = math.ceil((maxy - miny) / spacing)
    ix = np.tile(np.arange(nx), ny)
    iy = np.repeat(np.arange(ny), nx)
    lattice = np.column_stack([minx + ix * spacing, miny + iy * spacing])
    # the doubled tolerance keeps every point the scalar test drops
    near = np.zeros(nx * ny, dtype=bool)
    for w in walls:
        near |= points_near_segment(lattice, w, 2 * CROSSING_TOL)
    for k in np.flatnonzero(near):
        p = Point2(*lattice[k].tolist())
        near[k] = any(point_on_segment(p, w) for w in walls)
    keep = ~near
    points = lattice[keep]
    cells = np.column_stack([ix[keep], iy[keep]])
    points.flags.writeable = False
    cells.flags.writeable = False
    return Grid(
        minx=minx, miny=miny, maxx=maxx, maxy=maxy,
        spacing=spacing, height=height, normal=normal,
        nx=nx, ny=ny, points=points, cells=cells,
    )


def _parse_floats(parts: list[str], count: int, line_no: int, what: str) -> list[float]:
    if len(parts) != count:
        raise SceneParseError(line_no, f"{what}: expected {count} numeric fields, got {len(parts)}")
    out = []
    for p in parts:
        try:
            v = float(p)
        except ValueError:
            raise SceneParseError(line_no, f"{what}: {p!r} is not a number") from None
        if not math.isfinite(v):
            raise SceneParseError(line_no, f"{what}: {p!r} is not a finite number")
        out.append(v)
    return out


def _load_profile(spec: str, base_dir: Path | None, line_no: int) -> PhotometricProfile:
    if spec == "iso":
        return PhotometricProfile(kind=ISOTROPIC)
    if spec == "cos":
        return PhotometricProfile(kind=COSINE_LOBE)
    if spec.startswith("ies:"):
        rel = spec[4:]
        if not rel:
            raise SceneParseError(line_no, "empty ies path")
        path = Path(rel)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        return parse_ies(path.read_text(encoding="utf-8"), source=rel)
    raise SceneParseError(line_no, f"unknown profile {spec!r} (expected iso, cos, or ies:<path>)")


def parse_scene(text: str, base_dir: str | Path | None = None,
                grid_spacing: float | None = None) -> Scene:
    """Parse the scene grammar; raises SceneParseError with a line number.

    A grid_spacing builds the grid at that spacing in place of the grid
    line's own, which must still be positive.
    """
    base = Path(base_dir) if base_dir is not None else None
    ceiling = 3.0
    walls: list[WallSegment] = []
    doors: list[Door] = []
    luminaires: list[Luminaire] = []
    grid: Grid | None = None
    grid_line: tuple[int, list[str]] | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        if keyword == "ceiling":
            (ceiling,) = _parse_floats(args, 1, line_no, "ceiling")
            if ceiling <= 0:
                raise SceneParseError(line_no, "ceiling height must be positive")
        elif keyword == "wall":
            ax, ay, bx, by = _parse_floats(args, 4, line_no, "wall")
            walls.append(WallSegment(Point2(ax, ay), Point2(bx, by)))
        elif keyword == "door":
            if len(args) != 6:
                raise SceneParseError(line_no, f"door: expected 6 fields, got {len(args)}")
            label = args[0]
            hx, hy, leaf, heading = _parse_floats(args[1:5], 4, line_no, "door")
            angle_parts = [a for a in args[5].split(",") if a != ""]
            angles = tuple(_parse_floats(angle_parts, len(angle_parts), line_no, "door angles"))
            doors.append(Door(
                label=label, hinge=Point2(hx, hy), leaf_length=leaf,
                closed_heading_deg=heading, allowed_angles_deg=angles,
            ))
        elif keyword == "lum":
            if len(args) != 6:
                raise SceneParseError(line_no, f"lum: expected 6 fields, got {len(args)}")
            label = args[0]
            x, y, mount, intensity = _parse_floats(args[1:5], 4, line_no, "lum")
            profile = _load_profile(args[5], base, line_no)
            luminaires.append(Luminaire(
                index=len(luminaires), label=label, position=Point2(x, y),
                mount_height=mount, intensity=intensity, profile=profile,
                profile_spec=args[5],
            ))
        elif keyword == "grid":
            if grid_line is not None:
                raise SceneParseError(line_no, "only one grid line is supported")
            if len(args) not in (7, 9):
                raise SceneParseError(line_no, f"grid: expected 7 or 9 fields, got {len(args)}")
            grid_line = (line_no, args)
        else:
            raise SceneParseError(line_no, f"unknown keyword {keyword!r}")

    if grid_line is not None:
        line_no, args = grid_line
        minx, miny, maxx, maxy, spacing, height = _parse_floats(args[:6], 6, line_no, "grid")
        if spacing <= 0:
            raise SceneParseError(line_no, "grid spacing must be positive and finite")
        if len(args) == 7:
            if args[6] != "omni":
                raise SceneParseError(line_no, f"grid: expected 'omni' or 3 normal components, got {args[6]!r}")
            normal = None
        else:
            ncomp = _parse_floats(args[6:], 3, line_no, "grid normal")
            mag = math.sqrt(sum(c * c for c in ncomp))
            if mag == 0:
                raise SceneParseError(line_no, "grid normal must be nonzero")
            normal = (ncomp[0] / mag, ncomp[1] / mag, ncomp[2] / mag)
        if grid_spacing is not None:
            spacing = grid_spacing
        grid = build_grid((minx, miny, maxx, maxy), spacing, height, normal, walls)

    return Scene(
        ceiling_height=ceiling,
        walls=tuple(walls),
        doors=tuple(doors),
        luminaires=tuple(luminaires),
        grid=grid,
    )


def load_scene(path: str | Path, grid_spacing: float | None = None) -> Scene:
    path = Path(path)
    return parse_scene(path.read_text(encoding="utf-8"), base_dir=path.parent,
                       grid_spacing=grid_spacing)


def _fmt(x: float) -> str:
    return repr(float(x))


def render_scene(scene: Scene) -> str:
    """Serialize a scene so parse_scene(render_scene(s)) reproduces it."""
    lines = [f"ceiling {_fmt(scene.ceiling_height)}"]
    for w in scene.walls:
        lines.append(f"wall {_fmt(w.a.x)} {_fmt(w.a.y)} {_fmt(w.b.x)} {_fmt(w.b.y)}")
    for d in scene.doors:
        angles = ",".join(_fmt(a) for a in d.allowed_angles_deg)
        lines.append(
            f"door {d.label} {_fmt(d.hinge.x)} {_fmt(d.hinge.y)} "
            f"{_fmt(d.leaf_length)} {_fmt(d.closed_heading_deg)} {angles}"
        )
    for lum in scene.luminaires:
        lines.append(
            f"lum {lum.label} {_fmt(lum.position.x)} {_fmt(lum.position.y)} "
            f"{_fmt(lum.mount_height)} {_fmt(lum.intensity)} {lum.profile_spec}"
        )
    if scene.grid is not None:
        g = scene.grid
        normal = "omni" if g.normal is None else " ".join(_fmt(c) for c in g.normal)
        lines.append(
            f"grid {_fmt(g.minx)} {_fmt(g.miny)} {_fmt(g.maxx)} {_fmt(g.maxy)} "
            f"{_fmt(g.spacing)} {_fmt(g.height)} {normal}"
        )
    return "\n".join(lines) + "\n"
