"""Luminous intensity profiles.

Supports three emitter shapes: isotropic, a downward cosine lobe, and
tabulated candela data read from LM-63 style photometric files. Vertical
angle 0 deg points straight down at the floor; 180 deg points at the
ceiling. Horizontal angle is measured in plan, counterclockwise from +x.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ISOTROPIC = "isotropic"
COSINE_LOBE = "cosine_lobe"
IES_TABLE = "ies_table"


class IESParseError(ValueError):
    """Raised when a photometric file is malformed or uses unsupported features."""


@dataclass(frozen=True)
class PhotometricProfile:
    """Angular intensity distribution of one luminaire.

    For kind == IES_TABLE, candela[i][j] is the intensity at
    vertical_angles[i], horizontal_angles[j]. Other kinds carry no table.
    """

    kind: str
    vertical_angles: tuple[float, ...] = ()
    horizontal_angles: tuple[float, ...] = ()
    candela: tuple[tuple[float, ...], ...] = ()
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (ISOTROPIC, COSINE_LOBE, IES_TABLE):
            raise ValueError(f"unknown profile kind: {self.kind!r}")
        if self.kind == IES_TABLE:
            if not self.vertical_angles or not self.horizontal_angles:
                raise IESParseError("empty angle grid")
            if len(self.candela) != len(self.vertical_angles):
                raise IESParseError("candela rows do not match vertical angles")
            for row in self.candela:
                if len(row) != len(self.horizontal_angles):
                    raise IESParseError("candela columns do not match horizontal angles")
                if any(c < 0 for c in row):
                    raise IESParseError("negative candela value")
            _require_increasing(self.vertical_angles, "vertical")
            _require_increasing(self.horizontal_angles, "horizontal")

    @property
    def peak(self) -> float:
        """Largest candela in the table; 1.0 for analytic kinds."""
        if self.kind == IES_TABLE:
            return max(max(row) for row in self.candela)
        return 1.0

    def lookup(self, vertical_deg, horizontal_deg):
        """Bilinear candela lookup, clamped at the grid edges.

        Only meaningful for IES_TABLE profiles. Accepts scalars or arrays.
        Exact at grid nodes.
        """
        if self.kind != IES_TABLE:
            raise ValueError("lookup() requires a tabulated profile")
        v = np.clip(np.asarray(vertical_deg, dtype=float), self.vertical_angles[0], self.vertical_angles[-1])
        h = np.clip(np.asarray(horizontal_deg, dtype=float), self.horizontal_angles[0], self.horizontal_angles[-1])
        vi, vi1, tv = _bracket(np.asarray(self.vertical_angles), v)
        hi, hi1, th = _bracket(np.asarray(self.horizontal_angles), h)
        table = np.asarray(self.candela)
        c00 = table[vi, hi]
        c01 = table[vi, hi1]
        c10 = table[vi1, hi]
        c11 = table[vi1, hi1]
        out = (1 - tv) * ((1 - th) * c00 + th * c01) + tv * ((1 - th) * c10 + th * c11)
        if np.isscalar(vertical_deg) and np.isscalar(horizontal_deg):
            return float(out)
        return out

    def relative_intensity(self, vertical_deg, horizontal_deg):
        """Intensity toward (vertical, horizontal) as a fraction of the peak.

        Isotropic emits 1 everywhere; the cosine lobe emits cos(vertical)
        clipped at the horizon; tables are normalized by their peak candela.
        """
        v = np.asarray(vertical_deg, dtype=float)
        if self.kind == ISOTROPIC:
            out = np.ones_like(v)
        elif self.kind == COSINE_LOBE:
            out = np.maximum(0.0, np.cos(np.radians(v)))
        else:
            peak = self.peak
            raw = self.lookup(vertical_deg, horizontal_deg)
            out = np.asarray(raw, dtype=float) / peak if peak > 0 else np.zeros_like(v)
        if np.isscalar(vertical_deg):
            return float(out)
        return out


def _bracket(grid: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid nodes each x (within the grid) lies between, and its
    fraction of the way from the first to the second; on a one-node axis,
    node 0 twice and fraction 0."""
    if len(grid) == 1:
        i = np.zeros_like(x, dtype=int)
        return i, i, np.zeros_like(x)
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
    return i, i + 1, (x - grid[i]) / (grid[i + 1] - grid[i])


def _require_increasing(angles: tuple[float, ...], which: str) -> None:
    for lo, hi in zip(angles, angles[1:]):
        if hi <= lo:
            raise IESParseError(f"{which} angles must be strictly increasing")


def parse_ies(text: str, source: str | None = None) -> PhotometricProfile:
    """Parse an LM-63 style photometric file into a table profile.

    Only TILT=NONE files are supported. Vertical angles must lie in
    [0, 180] and horizontal angles in [0, 360], both strictly increasing.
    """
    lines = text.splitlines()
    tilt_idx = None
    for i, line in enumerate(lines):
        if line.strip().upper().startswith("TILT="):
            tilt_idx = i
            break
    if tilt_idx is None:
        raise IESParseError("missing TILT= line")
    tilt = lines[tilt_idx].strip()[5:].strip().upper()
    if tilt != "NONE":
        raise IESParseError(f"unsupported TILT mode: {tilt or '<empty>'}")

    tokens: list[float] = []
    for line in lines[tilt_idx + 1:]:
        for tok in line.replace(",", " ").split():
            try:
                tokens.append(float(tok))
            except ValueError as exc:
                raise IESParseError(f"non-numeric token {tok!r} in photometric data") from exc

    # Numeric block: lamps, lumens/lamp, multiplier, nV, nH, photometric type,
    # units, width, length, height, then ballast factor, future use, watts.
    if len(tokens) < 13:
        raise IESParseError("truncated photometric header")
    multiplier = tokens[2]
    n_vertical = int(tokens[3])
    n_horizontal = int(tokens[4])
    if n_vertical < 1 or n_horizontal < 1:
        raise IESParseError("angle counts must be positive")
    body = tokens[13:]
    expected = n_vertical + n_horizontal + n_vertical * n_horizontal
    if len(body) < expected:
        raise IESParseError(
            f"truncated candela table: expected {expected} values, found {len(body)}"
        )

    vertical = tuple(body[:n_vertical])
    horizontal = tuple(body[n_vertical:n_vertical + n_horizontal])
    if vertical[0] < 0 or vertical[-1] > 180:
        raise IESParseError("vertical angles must lie in [0, 180]")
    if horizontal[0] < 0 or horizontal[-1] > 360:
        raise IESParseError("horizontal angles must lie in [0, 360]")

    flat = body[n_vertical + n_horizontal:n_vertical + n_horizontal + n_vertical * n_horizontal]
    # LM-63 stores one vertical sweep per horizontal angle.
    candela_by_h = [
        flat[h * n_vertical:(h + 1) * n_vertical] for h in range(n_horizontal)
    ]
    candela = tuple(
        tuple(candela_by_h[h][v] * multiplier for h in range(n_horizontal))
        for v in range(n_vertical)
    )
    return PhotometricProfile(
        kind=IES_TABLE,
        vertical_angles=vertical,
        horizontal_angles=horizontal,
        candela=candela,
        source=source,
    )
