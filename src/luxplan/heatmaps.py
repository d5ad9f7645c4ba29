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
    return _scores_csv(_point_prefixes(grid), values)


def _point_prefixes(grid: Grid) -> list[str]:
    """Each grid point's "x,y," row prefix, formatted in one call."""
    return ("%.6g,%.6g,\n" * len(grid.points) % tuple(grid.points.ravel().tolist())).splitlines()


def _scores_csv(prefixes: list[str], values: np.ndarray) -> str:
    values = np.asarray(values)
    if values.shape[0] != len(prefixes):
        raise ValueError("one value per grid point required")
    pieces = np.empty((len(prefixes), 2), dtype=object)
    pieces[:, 0] = prefixes
    pieces[:, 1] = ("%d\n" * len(prefixes) % tuple(values.tolist())).splitlines(keepends=True)
    return "x,y,score\n" + "".join(pieces.ravel().tolist())


def heatmap_pgm(grid: Grid, values: np.ndarray, maxval: int) -> str:
    """Plain (P2) PGM of the score lattice; maxval is the score ceiling."""
    values = np.asarray(values)
    if values.shape[0] != len(grid.points):
        raise ValueError("one value per grid point required")
    if maxval < 1:
        raise ValueError("maxval must be at least 1")
    raster = np.zeros((grid.ny, grid.nx), dtype=int)
    raster[grid.cells[:, 1], grid.cells[:, 0]] = values
    if raster.max(initial=0) > maxval:
        raise ValueError("score exceeds the declared maxval")
    row_format = " ".join(["%d"] * grid.nx) + "\n"
    # image convention: top row first
    body = row_format * grid.ny % tuple(raster[::-1].ravel().tolist())
    return f"P2\n{grid.nx} {grid.ny}\n{maxval}\n" + body


def write_heatmap_set(
    grid: Grid,
    per_state_scores: np.ndarray,
    n_configs: int,
    out_dir: str | Path,
) -> list[Path]:
    """Write heatmap_q<k>.{csv,pgm} per door state plus heatmap_total.{csv,pgm}.

    Per-state rasters scale to n_configs; the total scales to
    n_configs * n_door_states. The points' x,y text is formatted once for
    all the CSVs.
    """
    per_state_scores = np.asarray(per_state_scores)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefixes = _point_prefixes(grid)
    written: list[Path] = []
    n_states = per_state_scores.shape[1]
    for q in range(n_states):
        scores = per_state_scores[:, q]
        csv_path = out / f"heatmap_q{q}.csv"
        pgm_path = out / f"heatmap_q{q}.pgm"
        csv_path.write_text(_scores_csv(prefixes, scores), encoding="utf-8")
        pgm_path.write_text(heatmap_pgm(grid, scores, maxval=n_configs), encoding="utf-8")
        written += [csv_path, pgm_path]
    totals = per_state_scores.sum(axis=1)
    csv_path = out / "heatmap_total.csv"
    pgm_path = out / "heatmap_total.pgm"
    csv_path.write_text(_scores_csv(prefixes, totals), encoding="utf-8")
    pgm_path.write_text(heatmap_pgm(grid, totals, maxval=n_configs * n_states), encoding="utf-8")
    written += [csv_path, pgm_path]
    return written
