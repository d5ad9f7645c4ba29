"""Command-line front end.

Subcommands:
    simulate     sweep a scene and write the contribution matrix CSV
    heatmap      write per-door-state and total distinctness rasters
    solve-cover  choose a sensor set covering the application states
    infer        run perfect-sum inference over a readings file
    ingest       process recorded sample/command logs into accuracy stats

Exit codes: 0 success, 2 usage or I/O problem, 3 invalid input data.
Identical inputs and flags produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ingest as ingest_mod
from .heatmaps import write_heatmap_set
from .inference import (
    PerfectSumQuery,
    fuse_candidates,
    fuse_votes,
    half_sums_batch,
    infer_reading,
    jaccard_accuracy,
    sensor_votes,
    tables_per_batch,
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
    build_grid,
    enumerate_door_states,
    load_scene,
    open_door_state_index,
)
from .transport import (
    ContributionMatrix,
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


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; equal configs give identical bytes."""

    scene_path: Path | None = None
    tau: float = DEFAULT_TAU
    epsilon: float = 0.01
    sigma: float = 0.0
    seed: int = 0
    grid_spacing: float | None = None
    out_dir: Path = Path(".")
    universe: str = "full"
    exact: bool = False
    exact_limit: int = 24


def _load_scene_with_grid(config: RunConfig) -> tuple[Scene, Grid]:
    if config.scene_path is None:
        raise SceneError("a --scene file is required")
    scene = load_scene(config.scene_path)
    grid = scene.grid
    if grid is None:
        raise SceneError("scene has no grid line; candidate lattice is required")
    if config.grid_spacing is not None:
        grid = build_grid(
            (grid.minx, grid.miny, grid.maxx, grid.maxy),
            config.grid_spacing,
            grid.height,
            grid.normal,
            scene.walls,
        )
        scene = replace(scene, grid=grid)
    return scene, grid


def cmd_simulate(config: RunConfig) -> int:
    scene, grid = _load_scene_with_grid(config)
    matrix = sweep(scene)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / "contributions.csv"
    write_matrix_csv(matrix, out_path)
    vals = matrix.values
    print(f"scene: {config.scene_path}")
    print(f"points: {matrix.n_points}  door states: {matrix.n_door_states}  luminaires: {matrix.n_luminaires}")
    print(f"rows written: {matrix.n_points * matrix.n_door_states}")
    print(f"lux range: min {vals.min():.6g}  mean {vals.mean():.6g}  max {vals.max():.6g}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_heatmap(config: RunConfig) -> int:
    scene, grid = _load_scene_with_grid(config)
    matrix = sweep(scene)
    scores = heatmap_scores(matrix, config.tau)
    paths = write_heatmap_set(grid, scores, 1 << scene.n_luminaires, config.out_dir)
    per_state_max = scores.max(axis=0)
    for q, m in enumerate(per_state_max):
        print(f"door state {q}: best score {int(m)} / {1 << scene.n_luminaires}")
    totals = scores.sum(axis=1)
    print(f"total: best score {int(totals.max())} / {(1 << scene.n_luminaires) * scores.shape[1]}")
    print(f"wrote {len(paths)} files to {config.out_dir}")
    return EXIT_OK


def cmd_solve_cover(config: RunConfig) -> int:
    scene, grid = _load_scene_with_grid(config)
    matrix = sweep(scene)
    instance = build_cover_instance(matrix, config.tau)
    space = StateSpace(n_luminaires=scene.n_luminaires, door_states=tuple(enumerate_door_states(scene)))
    if config.universe == "open-door":
        q_open = open_door_state_index(scene)
        instance = restrict_cover_instance(
            instance, range(q_open * space.n_configs, (q_open + 1) * space.n_configs))
    solution = (
        exact_min_cover(instance, limit=config.exact_limit)
        if config.exact
        else greedy_set_cover(instance)
    )
    solver = "exact" if config.exact else "greedy"
    n_states = instance.ids.size
    print(f"universe: {config.universe} ({n_states} states), solver: {solver}")
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
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / "cover_report.csv"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "point_index", "x", "y", "gain", "covered_total"])
    w.writerows(rows)
    out_path.write_text(buf.getvalue(), encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


def _read_readings_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"trial", "point_index", "door_state"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(
                f"{path}: readings need columns trial,point_index,door_state[,lux][,truth]"
            )
        rows = []
        for row in reader:
            try:
                rows.append({
                    "trial": row["trial"],
                    "point_index": int(row["point_index"]),
                    "door_state": int(row["door_state"]),
                    "lux": float(row["lux"]) if row.get("lux") not in (None, "") else None,
                    "truth": int(row["truth"]) if row.get("truth") not in (None, "") else None,
                })
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}: malformed reading row") from None
            if rows[-1]["lux"] is not None and not math.isfinite(rows[-1]["lux"]):
                raise ValueError(f"{path}: line {reader.line_num}: lux {row['lux']!r} is not finite")
        return rows


def cmd_infer(config: RunConfig, readings_path: Path) -> int:
    scene, grid = _load_scene_with_grid(config)
    matrix = sweep(scene)
    rows = _read_readings_csv(readings_path)
    noise = NoiseModel(kind="gaussian" if config.sigma > 0 else "none",
                       sigma=config.sigma, seed=config.seed)
    n = scene.n_luminaires

    # Every row is checked, in file order, before any is answered; a row
    # keeps only its lux and its vector's number until then. Rows that
    # revisit a (point, door state) share its vector; vectors are numbered
    # as they first appear, and each run of `step` of them shares one table
    # build. Each batch's rows are answered in file order.
    step = tables_per_batch(n)
    numbers: dict[tuple[int, int], int] = {}
    vectors: list[ContributionVector] = []
    contributions: list[tuple[float, ...]] = []
    luxes: list[float] = []
    vector_of: list[int] = []
    batches: list[list[int]] = []
    trials: dict[str, list[int]] = {}  # each trial's rows, trials in first-appearance order
    for i, row in enumerate(rows):
        if not 0 <= row["point_index"] < matrix.n_points:
            raise ValueError(f"point_index {row['point_index']} outside the candidate grid")
        if not 0 <= row["door_state"] < matrix.n_door_states:
            raise ValueError(f"door_state {row['door_state']} out of range")
        v = numbers.setdefault((row["point_index"], row["door_state"]), len(vectors))
        if v == len(vectors):
            vectors.append(matrix.vector_at(row["point_index"], row["door_state"]))
            contributions.append(tuple(vectors[v].values.tolist()))
            if v % step == 0:
                batches.append([])
        truth = LightConfig.from_index(row["truth"], n) if row["truth"] is not None else None
        lux = row["lux"]
        if lux is None:
            if truth is None:
                raise ValueError("a reading row needs lux, or truth to simulate it")
            lux = reading(vectors[v], truth, noise)
        luxes.append(lux)
        vector_of.append(v)
        batches[v // step].append(i)
        trials.setdefault(row["trial"], []).append(i)

    # A trial is fused as soon as its last row is answered, so candidate
    # lists are held only for the rows of trials still open.
    left = {trial: len(members) for trial, members in trials.items()}
    report_rows: list[tuple | None] = [None] * len(rows)
    fused_rows: dict[str, tuple | None] = dict.fromkeys(trials)
    held: dict[int, list[int]] = {}
    for b, batch_rows in enumerate(batches):
        tables = half_sums_batch(np.array(contributions[b * step:(b + 1) * step], dtype=float))
        for i in batch_rows:
            row, trial, v = rows[i], rows[i]["trial"], vector_of[i]
            truth = LightConfig.from_index(row["truth"], n) if row["truth"] is not None else None
            query = PerfectSumQuery(contributions=contributions[v], target=luxes[i],
                                    epsilon=config.epsilon)
            result = infer_reading(query, truth=truth, halves=tables[v - b * step])
            acc = f"{result.accuracy:.6g}" if result.accuracy is not None else ""
            truth_p = row["truth"] if row["truth"] is not None else -1
            report_rows[i] = (row["point_index"], row["door_state"], truth_p,
                              len(result.candidates), acc, int(result.no_solution))
            held[i] = result.candidates
            left[trial] -= 1
            if not left[trial]:
                fused_rows[trial] = _fused_row(trial, [(rows[j], vectors[vector_of[j]], held.pop(j))
                                                       for j in trials[trial]], n)
        del tables  # the next batch's tables replace these rather than join them

    report_buf = io.StringIO()
    report = csv.writer(report_buf, lineterminator="\n")
    report.writerow(["point_index", "door_state", "config_p", "n_candidates", "accuracy", "no_solution"])
    report.writerows(report_rows)
    fused_buf = io.StringIO()
    fused_csv = csv.writer(fused_buf, lineterminator="\n")
    fused_csv.writerow(["trial", "door_state", "truth", "fused_p", "accuracy", "rule"])
    fused_csv.writerows(fused_rows.values())

    config.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = config.out_dir / "inference_report.csv"
    fused_path = config.out_dir / "fused.csv"
    report_path.write_text(report_buf.getvalue(), encoding="utf-8")
    fused_path.write_text(fused_buf.getvalue(), encoding="utf-8")
    print(f"{len(rows)} readings in {len(trials)} trials")
    print(f"wrote {report_path}")
    print(f"wrote {fused_path}")
    return EXIT_OK


def _fused_row(trial: str, entries: list[tuple[dict, ContributionVector, list[int]]],
               n: int) -> tuple:
    """The fused.csv row of a trial from its (row, vector, candidate indices) entries."""
    votes = [sensor_votes(x, candidates) for _, x, candidates in entries]
    fused, rule = fuse_candidates([candidates for _, _, candidates in entries], fuse_votes(votes))
    truths = {r["truth"] for r, _, _ in entries}
    truth_index = truths.pop() if len(truths) == 1 else None
    acc = ""
    if truth_index is not None:
        acc = f"{jaccard_accuracy(LightConfig.from_index(truth_index, n), [fused.index]):.6g}"
    door_states = {r["door_state"] for r, _, _ in entries}
    ds = door_states.pop() if len(door_states) == 1 else -1
    return (trial, ds, truth_index if truth_index is not None else -1, fused.index, acc, rule)


def cmd_ingest(config: RunConfig, samples_path: Path, commands_path: Path,
               settle: float, window: float) -> int:
    samples = ingest_mod.read_samples_csv(samples_path)
    commands = ingest_mod.read_commands_csv(commands_path)
    table = ingest_mod.extract_baselines(samples, commands, settle=settle, window=window)
    calibrations = {
        loc: ingest_mod.calibrate_contributions(table, loc) for loc in table.locations
    }
    summaries = ingest_mod.evaluate_locations(table, calibrations, config.epsilon)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / "accuracy_by_location.csv"
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

    def add_common(p: argparse.ArgumentParser, scene_required: bool = True) -> None:
        if scene_required:
            p.add_argument("--scene", type=Path, required=True, help="scene description file")
        p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                       help="distinctness tolerance in lux (default %(default)s)")
        p.add_argument("--epsilon", type=float, default=0.01,
                       help="perfect-sum tolerance in lux (default %(default)s)")
        p.add_argument("--sigma", type=float, default=0.0, help="gaussian noise std in lux")
        p.add_argument("--seed", type=int, default=0, help="noise seed")
        p.add_argument("--grid-spacing", type=float, default=None,
                       help="override the scene grid spacing in meters")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p = sub.add_parser("simulate", help="sweep the scene and write contributions.csv")
    add_common(p)

    p = sub.add_parser("heatmap", help="write distinctness heatmaps (CSV and PGM)")
    add_common(p)

    p = sub.add_parser("solve-cover", help="choose sensor points covering the state universe")
    add_common(p)
    p.add_argument("--universe", choices=["open-door", "full"], default="full",
                   help="cover all states or only the widest-open door state")
    p.add_argument("--exact", action="store_true",
                   help="use the exact branch-and-bound solver; --exact-limit bounds the universe")
    p.add_argument("--exact-limit", type=int, default=24,
                   help="largest universe, in states, the exact solver accepts (default %(default)s)")

    p = sub.add_parser("infer", help="run perfect-sum inference over a readings CSV")
    add_common(p)
    p.add_argument("--readings", type=Path, required=True,
                   help="CSV with trial,point_index,door_state[,lux][,truth]")

    p = sub.add_parser("ingest", help="process recorded sample and command logs")
    add_common(p, scene_required=False)
    p.add_argument("--samples", type=Path, required=True, help="CSV with t,location,lux")
    p.add_argument("--commands", type=Path, required=True, help="CSV with t,bitmask")
    p.add_argument("--settle", type=float, default=ingest_mod.DEFAULT_SETTLE,
                   help="seconds discarded after each command (default %(default)s)")
    p.add_argument("--window", type=float, default=ingest_mod.DEFAULT_WINDOW,
                   help="seconds averaged after the settle period (default %(default)s)")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        scene_path=getattr(args, "scene", None),
        tau=args.tau,
        epsilon=args.epsilon,
        sigma=args.sigma,
        seed=args.seed,
        grid_spacing=args.grid_spacing,
        out_dir=args.out,
        universe=getattr(args, "universe", "full"),
        exact=getattr(args, "exact", False),
        exact_limit=getattr(args, "exact_limit", 24),
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "heatmap":
            return cmd_heatmap(config)
        if args.command == "solve-cover":
            return cmd_solve_cover(config)
        if args.command == "infer":
            return cmd_infer(config, args.readings)
        if args.command == "ingest":
            return cmd_ingest(config, args.samples, args.commands, args.settle, args.window)
        parser.error(f"unknown command {args.command!r}")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SceneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
