"""Reference computations that the benchmark checks luxplan's outputs against.

Nothing here imports luxplan. The scene grammar, the lattice, occlusion,
illuminance, isolation counts, perfect-sum search, vote fusion, ingest
baselines and the minimum cover are re-derived from their definitions:

- occlusion: a sight line is blocked when it properly crosses a wall or a
  door leaf; the exact test uses rational arithmetic on the binary values
  of the coordinates, the fast test mirrors it in floats with the same
  1e-9 dead band on cross products;
- illuminance: E = I * cos / d^2, with cos = 1 for omnidirectional cells
  and isotropic luminaires;
- isolation: a configuration is isolated at a cell when its summed reading
  is more than tau away from every other configuration's reading;
- perfect sum: every configuration whose summed reading is within epsilon
  of the target, found by enumerating all 2^n sums.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CROSS_TOL = 1e-9  # dead band of the float crossing test, in m^2
# Sampled exact checks skip sight lines whose closest exact cross product is
# this small: there the float test's dead band and exact arithmetic may
# legitimately disagree.
GRAZING_MARGIN = 1e-6


@dataclass(frozen=True)
class Door:
    label: str
    hx: float
    hy: float
    leaf: float
    heading: float
    angles: tuple[float, ...]


@dataclass(frozen=True)
class Lum:
    label: str
    x: float
    y: float
    z: float
    cd: float


@dataclass(frozen=True)
class GridSpec:
    minx: float
    miny: float
    maxx: float
    maxy: float
    spacing: float
    height: float


@dataclass
class SceneSpec:
    walls: list[tuple[float, float, float, float]]
    doors: list[Door]
    lums: list[Lum]
    grid: GridSpec
    ceiling: float = 3.0

    @property
    def n(self) -> int:
        return len(self.lums)


# ---------------------------------------------------------------- scene text

def parse_scene_text(text: str) -> SceneSpec:
    """Read the subset of the scene grammar the benchmark uses: iso
    luminaires and an omnidirectional grid."""
    walls, doors, lums, grid, ceiling = [], [], [], None, 3.0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        if key == "ceiling":
            ceiling = float(args[0])
        elif key == "wall":
            walls.append(tuple(float(a) for a in args))
        elif key == "door":
            doors.append(Door(args[0], float(args[1]), float(args[2]), float(args[3]),
                              float(args[4]), tuple(float(a) for a in args[5].split(","))))
        elif key == "lum":
            if args[5] != "iso":
                raise ValueError(f"unsupported profile {args[5]!r}")
            lums.append(Lum(args[0], *(float(a) for a in args[1:5])))
        elif key == "grid":
            if args[6:] != ["omni"]:
                raise ValueError("only omnidirectional grids are supported")
            grid = GridSpec(*(float(a) for a in args[:6]))
        else:
            raise ValueError(f"unknown keyword {key!r}")
    if grid is None:
        raise ValueError("scene has no grid line")
    return SceneSpec(walls=walls, doors=doors, lums=lums, grid=grid, ceiling=ceiling)


def render_scene(spec: SceneSpec) -> str:
    f = repr
    lines = [f"ceiling {f(spec.ceiling)}"]
    lines += [f"wall {f(a)} {f(b)} {f(c)} {f(d)}" for a, b, c, d in spec.walls]
    for d in spec.doors:
        angles = ",".join(f(a) for a in d.angles)
        lines.append(f"door {d.label} {f(d.hx)} {f(d.hy)} {f(d.leaf)} {f(d.heading)} {angles}")
    lines += [f"lum {m.label} {f(m.x)} {f(m.y)} {f(m.z)} {f(m.cd)} iso" for m in spec.lums]
    g = spec.grid
    lines.append(f"grid {f(g.minx)} {f(g.miny)} {f(g.maxx)} {f(g.maxy)} "
                 f"{f(g.spacing)} {f(g.height)} omni")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- geometry

def door_states(spec: SceneSpec) -> list[tuple[float, ...]]:
    """Every door-angle combination, first door slowest."""
    return list(itertools.product(*(d.angles for d in spec.doors)))


def open_state_index(spec: SceneSpec) -> int:
    widest = tuple(max(d.angles) for d in spec.doors)
    return door_states(spec).index(widest)


def leaf_segment(door: Door, angle: float) -> tuple[float, float, float, float]:
    """The leaf rotated counterclockwise from its closed heading by angle."""
    h = math.radians(door.heading + angle)
    return (door.hx, door.hy, door.hx + door.leaf * math.cos(h), door.hy + door.leaf * math.sin(h))


def occluders(spec: SceneSpec, state: tuple[float, ...]) -> list[tuple[float, float, float, float]]:
    return list(spec.walls) + [leaf_segment(d, a) for d, a in zip(spec.doors, state)]


def grid_points(spec: SceneSpec, spacing: float | None = None) -> np.ndarray:
    """Row-major lattice from (minx, miny); points within 1e-9 of a wall dropped."""
    g = spec.grid
    s = g.spacing if spacing is None else spacing
    nx = math.ceil((g.maxx - g.minx) / s)
    ny = math.ceil((g.maxy - g.miny) / s)
    xs = np.array([g.minx + ix * s for ix in range(nx)])
    ys = np.array([g.miny + iy * s for iy in range(ny)])
    pts = np.stack(np.broadcast_arrays(xs[None, :], ys[:, None]), axis=-1).reshape(-1, 2)
    keep = np.ones(len(pts), dtype=bool)
    for ax, ay, bx, by in spec.walls:
        dx, dy = bx - ax, by - ay
        t = np.clip(((pts[:, 0] - ax) * dx + (pts[:, 1] - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        dist = np.hypot(pts[:, 0] - (ax + t * dx), pts[:, 1] - (ay + t * dy))
        keep &= dist > CROSS_TOL
    return pts[keep]


def crossing_exact(p1, p2, q1, q2) -> tuple[bool, float]:
    """Proper crossing of p1-p2 and q1-q2 in exact rational arithmetic.

    Returns (crosses, margin): margin is the smallest magnitude of the four
    orientation cross products, used to spot grazing sight lines.
    """
    P1, P2, Q1, Q2 = ([Fraction(c) for c in v] for v in (p1, p2, q1, q2))

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(Q1, Q2, P1), orient(Q1, Q2, P2)
    d3, d4 = orient(P1, P2, Q1), orient(P1, P2, Q2)
    crosses = (d1 * d2 < 0) and (d3 * d4 < 0)
    return crosses, float(min(abs(d1), abs(d2), abs(d3), abs(d4)))


def contribution_exact(spec: SceneSpec, state, lum: Lum, xy, height: float) -> tuple[float, bool]:
    """Lux from one luminaire at one cell, and whether the sight line grazes
    an occluder (then the float dead band decides and the value is not
    checked)."""
    grazing = False
    for seg in occluders(spec, state):
        crosses, margin = crossing_exact((lum.x, lum.y), xy, seg[:2], seg[2:])
        if crosses:
            return 0.0, margin < GRAZING_MARGIN
        grazing |= margin < GRAZING_MARGIN
    dx, dy, dz = (Fraction(xy[0]) - Fraction(lum.x), Fraction(xy[1]) - Fraction(lum.y),
                  Fraction(height) - Fraction(lum.z))
    return float(Fraction(lum.cd) / (dx * dx + dy * dy + dz * dz)), grazing


def blocked_float(ox: float, oy: float, pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """(P,) mask of sight lines from (ox, oy) that properly cross a segment."""
    if len(segs) == 0:
        return np.zeros(len(pts), dtype=bool)
    px, py = pts[:, 0:1], pts[:, 1:2]
    ax, ay, bx, by = (segs[None, :, k] for k in range(4))

    def sgn(v):
        return np.where(v > CROSS_TOL, 1, np.where(v < -CROSS_TOL, -1, 0))

    s1 = sgn((bx - ax) * (oy - ay) - (by - ay) * (ox - ax))
    s2 = sgn((bx - ax) * (py - ay) - (by - ay) * (px - ax))
    s3 = sgn((px - ox) * (ay - oy) - (py - oy) * (ax - ox))
    s4 = sgn((px - ox) * (by - oy) - (py - oy) * (bx - ox))
    return ((s1 * s2 < 0) & (s3 * s4 < 0)).any(axis=1)


def sweep_float(spec: SceneSpec, pts: np.ndarray, states=None) -> np.ndarray:
    """(P, Q, n) lux for every cell, door state and luminaire."""
    states = door_states(spec) if states is None else states
    h = spec.grid.height
    out = np.zeros((len(pts), len(states), spec.n))
    for i, lum in enumerate(spec.lums):
        d2 = (pts[:, 0] - lum.x) ** 2 + (pts[:, 1] - lum.y) ** 2 + (h - lum.z) ** 2
        lux = lum.cd / d2
        wall_block = blocked_float(lum.x, lum.y, pts, np.array(spec.walls, dtype=float).reshape(-1, 4))
        for q, state in enumerate(states):
            leaves = np.array([leaf_segment(d, a) for d, a in zip(spec.doors, state)]).reshape(-1, 4)
            out[:, q, i] = np.where(wall_block | blocked_float(lum.x, lum.y, pts, leaves), 0.0, lux)
    return out


def sees_all(spec: SceneSpec, pts: np.ndarray, state) -> np.ndarray:
    """Cells whose sight line to every luminaire is clear of every occluder
    by more than GRAZING_MARGIN-sized cross products (float test)."""
    ok = np.ones(len(pts), dtype=bool)
    segs = np.array(occluders(spec, state), dtype=float).reshape(-1, 4)
    for lum in spec.lums:
        ok &= ~blocked_float(lum.x, lum.y, pts, segs)
    return ok


# ------------------------------------------------------------ configurations

def config_sums(values: np.ndarray) -> np.ndarray:
    """(..., n) contributions -> (..., 2^n) summed readings, entry p = bits of p."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    sums = np.zeros(values.shape[:-1] + (1 << n,))
    for i in range(n):
        sums[..., 1 << i:2 << i] = sums[..., :1 << i] + values[..., i:i + 1]
    return sums


def isolation_flags(values: np.ndarray, tau: float) -> np.ndarray:
    """(..., n) -> (..., 2^n) bool: reading more than tau from every other."""
    sums = config_sums(values)
    order = np.argsort(sums, axis=-1, kind="stable")
    s = np.take_along_axis(sums, order, axis=-1)
    gap = np.diff(s, axis=-1)
    edge = np.full(s.shape[:-1] + (1,), np.inf)
    iso = np.minimum(np.concatenate((edge, gap), -1), np.concatenate((gap, edge), -1)) > tau
    out = np.empty_like(iso)
    np.put_along_axis(out, order, iso, axis=-1)
    return out


def isolation_count_fsum(vec, tau: float) -> tuple[int, bool]:
    """Isolated configurations at one (cell, door state), with every subset
    sum correctly rounded by math.fsum. Also reports whether some gap lies
    within 1e-9 of tau, where summation order could flip the answer."""
    n = len(vec)
    sums = sorted(math.fsum(vec[i] for i in range(n) if p >> i & 1) for p in range(1 << n))
    gaps = [b - a for a, b in zip(sums, sums[1:])]
    near = any(abs(g - tau) < 1e-9 for g in gaps)
    count = 0
    for k in range(len(sums)):
        left = gaps[k - 1] if k > 0 else math.inf
        right = gaps[k] if k < len(gaps) else math.inf
        count += min(left, right) > tau
    return count, near


def perfect_sum_brute(vec, target: float, eps: float) -> tuple[list[int], bool]:
    """All configurations within eps of target, by enumerating all 2^n sums.

    Also reports whether some sum sits within 1e-9 of the window's edge.
    """
    dist = np.abs(config_sums(vec) - target)
    near = bool(np.any(np.abs(dist - eps) < 1e-9))
    return [int(p) for p in np.flatnonzero(dist <= eps)], near


def bits(p: int, n: int) -> set[int]:
    return {i for i in range(n) if p >> i & 1}


def jaccard(truth: int, cands: list[int], n: int) -> float:
    """Mean Jaccard similarity of on-sets; all-off vs all-off scores 1."""
    if not cands:
        return 0.0
    t = bits(truth, n)
    total = 0.0
    for c in cands:
        u = t | bits(c, n)
        total += len(t & bits(c, n)) / len(u) if u else 1.0
    return total / len(cands)


def majority_fuse(sensors: list[tuple[np.ndarray, list[int]]], n: int) -> int:
    """Per-luminaire majority vote of each sensor over its candidates
    (luminaires a sensor cannot see abstain), then a sum of votes across
    sensors; positive means on, ties mean off."""
    total = [0] * n
    for vec, cands in sensors:
        for i in range(n):
            if vec[i] <= 0:
                continue
            ones = sum(c >> i & 1 for c in cands)
            zeros = len(cands) - ones
            total[i] += (ones > zeros) - (zeros > ones)
    return sum(1 << i for i in range(n) if total[i] > 0)


# --------------------------------------------------------------------- ingest

def window_baselines(t: np.ndarray, loc: np.ndarray, lux: np.ndarray, cmd_t: np.ndarray,
                     cmd_p: np.ndarray, settle: float, window: float) -> dict:
    """{(location, config): (mean, short)} over [t_k + settle, t_k + settle + window),
    cut at the next command (or the last sample). A constant window averages
    exactly; otherwise the mean is math.fsum(values) / count."""
    end = float(t.max())
    out: dict = {}
    for name in dict.fromkeys(loc.tolist()):
        sel = loc == name
        ts, vs = t[sel], lux[sel]
        acc: dict = {}
        for k, (c_t, p) in enumerate(zip(cmd_t, cmd_p)):
            stop = cmd_t[k + 1] if k + 1 < len(cmd_t) else end
            lo, hi = c_t + settle, c_t + settle + window
            a, b = np.searchsorted(ts, lo, "left"), np.searchsorted(ts, min(hi, stop), "left")
            vals, short = acc.setdefault(int(p), ([], False))
            acc[int(p)] = (vals + vs[a:b].tolist(), short or stop < hi)
        for p, (vals, short) in acc.items():
            if not vals:
                out[(name, p)] = (math.nan, True)
            elif min(vals) == max(vals):
                out[(name, p)] = (vals[0], short)
            else:
                out[(name, p)] = (math.fsum(vals) / len(vals), short)
    return out


def ingest_accuracies(base: dict, location: str, n: int, eps: float) -> list[float]:
    """Calibrate x_i = b(only i) - b(off), clamped at 0, then decode every
    unflagged configuration by brute force and score it by Jaccard."""
    off, _ = base[(location, 0)]
    x = np.array([max(0.0, base[(location, 1 << i)][0] - off) for i in range(n)])
    sums = config_sums(x)
    accs = []
    for p in sorted(p for (loc, p) in base if loc == location):
        mean, short = base[(location, p)]
        if short:
            continue
        cands = np.flatnonzero(np.abs(sums - (mean - off)) <= eps).tolist()
        accs.append(jaccard(p, cands, n))
    return accs


def summary(accs: list[float]) -> list[float]:
    """min, q1, median, mean, q3, max as the accuracy CSV defines them."""
    a = np.asarray(accs)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    return [float(a.min()), float(q1), float(med), float(a.mean()), float(q3), float(a.max())]


# ---------------------------------------------------------------------- cover

def min_cover_size(sets: np.ndarray) -> int:
    """Minimum number of rows of a (cells, states) bool matrix covering every
    coverable state, by integer programming (scipy's HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    cols = sets[:, sets.any(axis=0)]
    cols = np.unique(cols, axis=1)  # identical constraints once
    rows = np.flatnonzero(cols.any(axis=1))
    a = cols[rows].T.astype(float)
    res = milp(c=np.ones(len(rows)), integrality=np.ones(len(rows)), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, lb=np.ones(a.shape[0]), ub=np.inf))
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))
