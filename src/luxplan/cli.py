"""Command-line front end.

Subcommands and the options each one takes:
    simulate     sweep a scene and write the contribution matrix CSV
                 --scene, --grid-spacing, --out
    heatmap      write per-door-state and total distinctness rasters
                 the simulate options, --tau
    solve-cover  choose a sensor set covering the application states
                 the heatmap options, --universe, --exact, --exact-limit
    infer        run perfect-sum inference over a readings file
                 --scene, --grid-spacing, --out, --readings, --epsilon,
                 --sigma, --seed
    ingest       process recorded sample/command logs into accuracy stats
                 --samples, --commands, --settle, --window, --epsilon, --out

Exit codes: 0 success, 2 usage or I/O problem, 3 invalid input data.
Identical inputs and flags produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest as ingest_mod
from .csvcolumns import Column, coded, csv_text, read_columns
from .heatmaps import write_heatmap_set
from .inference import (
    DecodeBatch,
    check_epsilon,
    fuse_candidates,
    fuse_votes,
    infer_reading,
    jaccard_rows,
    sensor_votes,
)
from .planning import (
    DEFAULT_TAU,
    build_cover_instance,
    exact_min_cover,
    greedy_set_cover,
    heatmap_scores,
    restrict_cover_instance,
    StateSpace,
)
from .scene import (
    Grid,
    Scene,
    SceneError,
    build_grid,  # not called here; luxbench/spans.py wraps cli.build_grid by name
    enumerate_door_states,
    load_scene,
    open_door_state_index,
)
from .transport import (
    ContributionVector,
    LightConfig,
    NoiseModel,
    reading,
    sweep,
    write_matrix_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3


def _load_scene_with_grid(args: argparse.Namespace) -> tuple[Scene, Grid]:
    scene = load_scene(args.scene, grid_spacing=args.grid_spacing)
    if scene.grid is None:
        raise SceneError("scene has no grid line; candidate lattice is required")
    return scene, scene.grid


def cmd_simulate(args: argparse.Namespace) -> int:
    scene, grid = _load_scene_with_grid(args)
    matrix = sweep(scene)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "contributions.csv"
    write_matrix_csv(matrix, out_path)
    vals = matrix.values
    print(f"scene: {args.scene}")
    print(f"points: {matrix.n_points}  door states: {matrix.n_door_states}  luminaires: {matrix.n_luminaires}")
    print(f"rows written: {matrix.n_points * matrix.n_door_states}")
    print(f"lux range: min {vals.min():.6g}  mean {vals.mean():.6g}  max {vals.max():.6g}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    scene, grid = _load_scene_with_grid(args)
    matrix = sweep(scene)
    scores = heatmap_scores(matrix, args.tau)
    paths = write_heatmap_set(grid, scores, 1 << scene.n_luminaires, args.out)
    per_state_max = scores.max(axis=0)
    for q, m in enumerate(per_state_max):
        print(f"door state {q}: best score {int(m)} / {1 << scene.n_luminaires}")
    totals = scores.sum(axis=1)
    print(f"total: best score {int(totals.max())} / {(1 << scene.n_luminaires) * scores.shape[1]}")
    print(f"wrote {len(paths)} files to {args.out}")
    return EXIT_OK


def cmd_solve_cover(args: argparse.Namespace) -> int:
    scene, grid = _load_scene_with_grid(args)
    space = StateSpace(n_luminaires=scene.n_luminaires, door_states=tuple(enumerate_door_states(scene)))
    # only the universe's door states are swept and flagged, and the exact
    # solver's limit is checked before any of that work
    if args.universe == "open-door":
        q_open = open_door_state_index(scene)
        states, universe = [q_open], range(q_open * space.n_configs, (q_open + 1) * space.n_configs)
    else:
        states, universe = None, range(space.total)
    n_states = len(universe)
    if args.exact and n_states > args.exact_limit:
        raise ValueError(f"universe of {n_states} exceeds exact-solver limit {args.exact_limit}")
    instance = build_cover_instance(sweep(scene, states=states), args.tau)
    if states is not None:
        # only the open state was swept: this is a view of all the columns
        instance = restrict_cover_instance(instance, universe)
    solution = (
        exact_min_cover(instance, limit=args.exact_limit)
        if args.exact
        else greedy_set_cover(instance)
    )
    solver = "exact" if args.exact else "greedy"
    print(f"universe: {args.universe} ({n_states} states), solver: {solver}")
    rows = []
    covered_total = 0
    for step, (point_index, gain) in enumerate(zip(solution.chosen, solution.gains), start=1):
        covered_total += gain
        x, y = grid.points[point_index].tolist()
        print(
            f"step {step}: point {point_index} at ({x:.6g}, {y:.6g}) "
            f"gain {gain} covered {covered_total}"
        )
        rows.append([step, point_index, f"{x:.6g}", f"{y:.6g}", gain, covered_total])
    status = "complete" if solution.complete else (
        f"incomplete: {n_states - len(solution.covered)} states cannot be covered"
    )
    print(f"chose {len(solution.chosen)} points; cover {status}")
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "cover_report.csv"
    out_path.write_text(csv_text(["step", "point_index", "x", "y", "gain", "covered_total"], rows),
                        encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


READINGS_COLUMNS = ("trial", "point_index", "door_state", "lux", "truth")


@dataclass(frozen=True, eq=False)
class Readings:
    """A readings file as columns, one entry per nonblank row in file order.

    Row i belongs to the trial names[trial[i]] (names in first-appearance
    order) and reads grid point point[i] under door state door[i]. lux[i]
    is its reading, NaN where the row gives none; truth[i] is its true
    configuration where has_truth[i], else -1. point, door and truth are
    int64 arrays.
    """

    names: tuple[str, ...]
    trial: np.ndarray
    point: np.ndarray
    door: np.ndarray
    lux: np.ndarray
    truth: np.ndarray
    has_truth: np.ndarray


def _readings_columns(path: Path, header: list[str]) -> list[Column]:
    """The READINGS_COLUMNS of this header, in that order."""
    if not {"trial", "point_index", "door_state"}.issubset(header):
        raise ValueError(
            f"{path}: readings need columns trial,point_index,door_state[,lux][,truth]"
        )
    for name in READINGS_COLUMNS:
        if header.count(name) > 1:
            raise ValueError(f"{path}: the header names column {name!r} twice")
    at = {name: header.index(name) for name in READINGS_COLUMNS if name in header}
    return [Column(at["trial"], str), Column(at["point_index"], int),
            Column(at["door_state"], int), Column(at.get("lux"), float, math.nan),
            Column(at.get("truth"), int, -1)]


def _read_readings_csv(path: Path, n_points: int, n_states: int, n: int) -> Readings:
    """The readings of a trial,point_index,door_state[,lux][,truth] CSV, its
    columns in any order, on a grid of n_points points, n_states door states
    and n luminaires. An empty lux or truth is none. The first bad row in
    file order raises ValueError naming the file and its 1-based line, with
    the first rule the row breaks: its width is the header's, its fields
    parse, its lux is finite, its point is on the grid, its door state and
    truth are in range, and it has lux or truth."""
    table = read_columns(path, lambda header: _readings_columns(path, header))
    trial, point, door, lux, truth = table.values
    lux_text, truth_text = table.text[3:]
    has_truth = np.fromiter(map(bool, truth_text), bool, len(truth))
    table.check([(mask, lambda i: "malformed reading row") for mask, _ in table.failed] + [
        (np.fromiter(map(bool, lux_text), bool, len(lux)) & ~np.isfinite(lux),
         lambda i: f"lux {lux_text[i]!r} is not finite"),
        ((point < 0) | (point >= n_points),
         lambda i: f"point_index {point[i]} outside the candidate grid"),
        ((door < 0) | (door >= n_states), lambda i: f"door_state {door[i]} out of range"),
        (has_truth & ((truth < 0) | (truth >= 1 << n)),
         lambda i: f"config index {truth[i]} out of range for {n} luminaires"),
        (np.isnan(lux) & ~has_truth, lambda i: "a reading row needs lux, or truth to simulate it"),
    ])
    names, codes = coded(trial)
    return Readings(names, codes, point, door, lux, truth, has_truth)


def cmd_infer(args: argparse.Namespace) -> int:
    check_epsilon(args.epsilon)
    scene, grid = _load_scene_with_grid(args)
    n = scene.n_luminaires
    readings = _read_readings_csv(args.readings, len(grid.points),
                                  len(enumerate_door_states(scene)), n)
    noise = NoiseModel(sigma=args.sigma, seed=args.seed)

    # The rows come as columns, every one checked before any cell is swept.
    # Only the grid points they name are swept. Rows that revisit a (point,
    # door state) share its vector, numbered by np.unique; no output hangs
    # on that order. The whole file is one batch: one decode, one vote and
    # one fusion of every trial.
    point, door, truth = readings.point, readings.door, readings.truth
    cells = np.unique(point).astype(np.intp)
    matrix = sweep(scene, cells=cells)
    _, first, vector_arr = np.unique(point * matrix.n_door_states + door, return_index=True,
                                     return_inverse=True)
    values = matrix.values[cells.searchsorted(point[first]), door[first]]

    # a row without lux is simulated from its truth, by the vector's lattice
    # point (the noise key), not its place in cells
    lux_arr = readings.lux.copy()
    simulated = np.flatnonzero(np.isnan(lux_arr))
    vector_point, vector_door = point[first].tolist(), door[first].tolist()
    vectors = {v: ContributionVector(values[v], vector_point[v], vector_door[v])
               for v in np.unique(vector_arr[simulated]).tolist()}
    configs = {t: LightConfig(t, n) for t in np.unique(truth[simulated]).tolist()}
    lux_arr[simulated] = [reading(vectors[v], configs[t], noise)
                          for v, t in zip(vector_arr[simulated].tolist(),
                                          truth[simulated].tolist())]

    trial_arr, n_trials = readings.trial, len(readings.names)
    trial_truth = _trial_value(truth, trial_arr, n_trials)
    trial_door = _trial_value(door, trial_arr, n_trials)
    batch = DecodeBatch(values, vector_arr, lux_arr, args.epsilon)
    result = infer_reading(batch, truth)
    n_candidates, accuracy = result.counts, result.accuracy
    votes = sensor_votes(batch, result)
    fused, decided = np.zeros(n_trials, np.int64), np.zeros(n_trials, bool)
    if n_trials:  # a header-only file has nothing to fuse
        fused, decided = fuse_candidates(result.candidates, result.offsets, trial_arr,
                                         fuse_votes(votes, trial_arr))

    report = np.column_stack([point, door, truth, n_candidates,
                              _accuracy_text(accuracy, readings.has_truth),
                              (n_candidates == 0).astype(np.int64)])
    fused_acc = jaccard_rows(trial_truth, fused, np.arange(n_trials + 1))
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "inference_report.csv"
    fused_path = args.out / "fused.csv"
    # the report is all numbers, formatted with one % per block of 256 rows
    # so that the argument tuple and the text stay small; trial names may
    # need the csv module's quoting
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("point_index,door_state,config_p,n_candidates,accuracy,no_solution\n")
        for block in np.split(report, range(256, len(report), 256)):
            fh.write("%d,%d,%d,%d,%s,%d\n" * len(block) % tuple(block.ravel().tolist()))
    fused_path.write_text(csv_text(
        ["trial", "door_state", "truth", "fused_p", "accuracy", "rule"],
        zip(readings.names, trial_door.tolist(), trial_truth.tolist(), fused.tolist(),
            _accuracy_text(fused_acc, trial_truth >= 0).tolist(),
            np.where(decided, "intersection", "vote").tolist())), encoding="utf-8")
    print(f"{len(point)} readings in {n_trials} trials")
    print(f"wrote {report_path}")
    print(f"wrote {fused_path}")
    return EXIT_OK


def _accuracy_text(accuracy: np.ndarray, scored: np.ndarray) -> np.ndarray:
    """Each accuracy printed with %.6g, empty where unscored (no truth), as
    an object array of str."""
    text = np.array(("%.6g," * len(accuracy) % tuple(accuracy.tolist())).split(",")[:-1],
                    dtype=object)
    text[~scored] = ""
    return text


def _trial_value(values: np.ndarray, trial: np.ndarray, n_trials: int) -> np.ndarray:
    """The value all of a trial's rows share, or -1 where they differ;
    values are nonnegative, or -1 for none."""
    lo = np.full(n_trials, np.iinfo(np.int64).max)
    hi = np.full(n_trials, -1)
    np.minimum.at(lo, trial, values)
    np.maximum.at(hi, trial, values)
    return np.where(lo == hi, hi, -1)


def cmd_ingest(args: argparse.Namespace) -> int:
    samples = ingest_mod.read_samples_csv(args.samples)
    commands = ingest_mod.read_commands_csv(args.commands)
    table = ingest_mod.extract_baselines(samples, commands, settle=args.settle, window=args.window)
    calibrations = {
        loc: ingest_mod.calibrate_contributions(table, loc) for loc in table.locations
    }
    summaries = ingest_mod.evaluate_locations(table, calibrations, args.epsilon)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "accuracy_by_location.csv"
    ingest_mod.write_accuracy_csv(summaries, out_path)
    for s in summaries:
        print(f"{s.location}: median {s.median:.3f} mean {s.mean:.3f} over {s.n} configs")
    print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxplan",
        description="Plan and evaluate light-sensor placements from a scene description.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    simulate = sub.add_parser("simulate", help="sweep the scene and write contributions.csv")
    heatmap = sub.add_parser("heatmap", help="write distinctness heatmaps (CSV and PGM)")
    cover = sub.add_parser("solve-cover", help="choose sensor points covering the state universe")
    infer = sub.add_parser("infer", help="run perfect-sum inference over a readings CSV")
    ingest = sub.add_parser("ingest", help="process recorded sample and command logs")
    for p, func in ((simulate, cmd_simulate), (heatmap, cmd_heatmap), (cover, cmd_solve_cover),
                    (infer, cmd_infer), (ingest, cmd_ingest)):
        p.set_defaults(func=func)

    for p in (simulate, heatmap, cover, infer):
        p.add_argument("--scene", type=Path, required=True, help="scene description file")
        p.add_argument("--grid-spacing", type=float, default=None,
                       help="override the scene grid spacing in meters")
    for p in (heatmap, cover):
        p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                       help="distinctness tolerance in lux (default %(default)s)")
    for p in (infer, ingest):
        p.add_argument("--epsilon", type=float, default=0.01,
                       help="perfect-sum tolerance in lux (default %(default)s)")
    for p in (simulate, heatmap, cover, infer, ingest):
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    cover.add_argument("--universe", choices=["open-door", "full"], default="full",
                       help="cover all states or only the widest-open door state")
    cover.add_argument("--exact", action="store_true",
                       help="use the exact branch-and-bound solver; --exact-limit bounds the universe")
    cover.add_argument("--exact-limit", type=int, default=24,
                       help="largest universe, in states, the exact solver accepts (default %(default)s)")

    infer.add_argument("--readings", type=Path, required=True,
                       help="CSV with columns trial,point_index,door_state[,lux][,truth], "
                            "in any order")
    infer.add_argument("--sigma", type=float, default=0.0,
                       help="gaussian noise std in lux for simulated readings")
    infer.add_argument("--seed", type=int, default=0, help="noise seed")

    ingest.add_argument("--samples", type=Path, required=True, help="CSV with t,location,lux")
    ingest.add_argument("--commands", type=Path, required=True, help="CSV with t,bitmask")
    ingest.add_argument("--settle", type=float, default=ingest_mod.DEFAULT_SETTLE,
                        help="seconds discarded after each command (default %(default)s)")
    ingest.add_argument("--window", type=float, default=ingest_mod.DEFAULT_WINDOW,
                        help="seconds averaged after the settle period (default %(default)s)")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SceneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
