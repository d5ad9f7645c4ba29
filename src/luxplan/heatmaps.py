"""Export distinctness scores as point CSVs and plain-PGM rasters.

The PGM uses the candidate grid's lattice: one pixel per cell, top row at
max y. Cells that were excluded from the candidate list (e.g. inside a
wall) render as 0.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .scene import Grid


def heatmap_csv(grid: Grid, values: np.ndarray) -> str:
    """Rows of x,y,score for each candidate point, in grid order."""
    return _scores_csv(*_point_lines(grid), values)


def _point_lines(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Each grid point's "x,y," row prefix and its "x,y,0" line, both as
    object arrays of str.

    A lattice has nx distinct x values and ny distinct y values, so each
    distinct coordinate is formatted once, in one call per axis, and the
    prefixes are joined from those texts. Coordinates are told apart by
    their float bits, not their values, so -0.0 keeps its own text; equal
    bits print equally, so each prefix is what "%.6g,%.6g," gives.
    """
    bits = np.ascontiguousarray(grid.points, dtype=float).view(np.int64)
    texts = []
    for axis in (0, 1):
        distinct, at = np.unique(bits[:, axis], return_inverse=True)
        text = ("%.6g,\n" * distinct.size % tuple(distinct.view(float).tolist())).splitlines()
        texts.append(np.array(text, dtype=object)[at])
    prefixes = texts[0] + texts[1]
    return prefixes, prefixes + "0\n"


def _scores_csv(prefixes: np.ndarray, zero_lines: np.ndarray, values: np.ndarray) -> str:
    """The CSV text: each zero score takes its ready "x,y,0" line, and only
    the nonzero scores are formatted, in one call."""
    values = np.asarray(values)
    if values.shape[0] != len(prefixes):
        raise ValueError("one value per grid point required")
    lines = zero_lines.copy()
    nonzero = np.flatnonzero(values)
    scores = ("%d\n" * nonzero.size % tuple(values[nonzero].tolist())).splitlines(keepends=True)
    lines[nonzero] = prefixes[nonzero] + np.array(scores, dtype=object)
    return "x,y,score\n" + "".join(lines.tolist())


def heatmap_pgm(grid: Grid, values: np.ndarray, maxval: int) -> str:
    """Plain (P2) PGM of the score lattice; maxval is the score ceiling.

    The all-zero raster row is formatted once; only the rows that hold a
    nonzero pixel are formatted, in one call.
    """
    values = np.asarray(values)
    if values.shape[0] != len(grid.points):
        raise ValueError("one value per grid point required")
    if maxval < 1:
        raise ValueError("maxval must be at least 1")
    raster = np.zeros((grid.ny, grid.nx), dtype=int)
    raster[grid.cells[:, 1], grid.cells[:, 0]] = values
    if raster.max(initial=0) > maxval:
        raise ValueError("score exceeds the declared maxval")
    raster = raster[::-1]  # image convention: top row first
    busy = np.flatnonzero(raster.any(axis=1))
    row_format = " ".join(["%d"] * grid.nx) + "\n"
    rows = (row_format * busy.size % tuple(raster[busy].ravel().tolist())).splitlines(keepends=True)
    lines = [" ".join(["0"] * grid.nx) + "\n"] * grid.ny
    for k, row in zip(busy.tolist(), rows):
        lines[k] = row
    return f"P2\n{grid.nx} {grid.ny}\n{maxval}\n" + "".join(lines)


def write_heatmap_set(
    grid: Grid,
    per_state_scores: np.ndarray,
    n_configs: int,
    out_dir: str | Path,
) -> list[Path]:
    """Write heatmap_q<k>.{csv,pgm} per door state plus heatmap_total.{csv,pgm}.

    Per-state rasters scale to n_configs; the total scales to
    n_configs * n_door_states. Each point's x,y text and its "x,y,0" line
    are formatted once for all the CSVs; each file then formats only its
    nonzero scores, and each raster only its rows that hold one.
    """
    per_state_scores = np.asarray(per_state_scores)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = _point_lines(grid)
    written: list[Path] = []
    n_states = per_state_scores.shape[1]
    for q in range(n_states):
        scores = per_state_scores[:, q]
        csv_path = out / f"heatmap_q{q}.csv"
        pgm_path = out / f"heatmap_q{q}.pgm"
        csv_path.write_text(_scores_csv(*lines, scores), encoding="utf-8")
        pgm_path.write_text(heatmap_pgm(grid, scores, maxval=n_configs), encoding="utf-8")
        written += [csv_path, pgm_path]
    totals = per_state_scores.sum(axis=1)
    csv_path = out / "heatmap_total.csv"
    pgm_path = out / "heatmap_total.pgm"
    csv_path.write_text(_scores_csv(*lines, totals), encoding="utf-8")
    pgm_path.write_text(heatmap_pgm(grid, totals, maxval=n_configs * n_states), encoding="utf-8")
    written += [csv_path, pgm_path]
    return written
