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
import csv
import io
import math
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import ingest as ingest_mod
from .heatmaps import write_heatmap_set
from .inference import (
    DecodeBatch,
    check_epsilon,
    fuse_candidates,
    fuse_votes,
    half_sums_batch,
    infer_reading,
    jaccard_rows,
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


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


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
    matrix = sweep(scene)
    instance = build_cover_instance(matrix, args.tau)
    space = StateSpace(n_luminaires=scene.n_luminaires, door_states=tuple(enumerate_door_states(scene)))
    if args.universe == "open-door":
        q_open = open_door_state_index(scene)
        instance = restrict_cover_instance(
            instance, range(q_open * space.n_configs, (q_open + 1) * space.n_configs))
    solution = (
        exact_min_cover(instance, limit=args.exact_limit)
        if args.exact
        else greedy_set_cover(instance)
    )
    solver = "exact" if args.exact else "greedy"
    n_states = instance.ids.size
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
    _write_csv(out_path, ["step", "point_index", "x", "y", "gain", "covered_total"], rows)
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


def cmd_infer(args: argparse.Namespace) -> int:
    check_epsilon(args.epsilon)
    scene, grid = _load_scene_with_grid(args)
    matrix = sweep(scene)
    rows = _read_readings_csv(args.readings)
    noise = NoiseModel(sigma=args.sigma, seed=args.seed)
    n = scene.n_luminaires

    # Every row is checked, in file order, before any is answered. Rows that
    # revisit a (point, door state) share its vector; vectors are numbered
    # as they first appear, and each run of `step` of them is one batch: one
    # table build and one decode of all the batch's rows. A trial is fused
    # in the batch of its last-numbered vector.
    step = tables_per_batch(n)
    numbers: dict[tuple[int, int], int] = {}
    vectors: list[ContributionVector] = []
    contributions: list[tuple[float, ...]] = []
    luxes: list[float] = []
    vector_of: list[int] = []
    trial_of: list[int] = []
    trials: dict[str, int] = {}  # trial numbers in first-appearance order
    for row in rows:
        if not 0 <= row["point_index"] < matrix.n_points:
            raise ValueError(f"point_index {row['point_index']} outside the candidate grid")
        if not 0 <= row["door_state"] < matrix.n_door_states:
            raise ValueError(f"door_state {row['door_state']} out of range")
        v = numbers.setdefault((row["point_index"], row["door_state"]), len(vectors))
        if v == len(vectors):
            vectors.append(matrix.vector_at(row["point_index"], row["door_state"]))
            contributions.append(tuple(vectors[v].values.tolist()))
        truth = LightConfig.from_index(row["truth"], n) if row["truth"] is not None else None
        lux = row["lux"]
        if lux is None:
            if truth is None:
                raise ValueError("a reading row needs lux, or truth to simulate it")
            lux = reading(vectors[v], truth, noise)
        luxes.append(lux)
        vector_of.append(v)
        trial_of.append(trials.setdefault(row["trial"], len(trials)))

    vector_arr, trial_arr = np.array(vector_of, dtype=np.intp), np.array(trial_of, dtype=np.intp)
    lux_arr = np.array(luxes, dtype=float)
    truth_arr = np.array([-1 if r["truth"] is None else r["truth"] for r in rows], dtype=np.int64)
    trial_truth = _trial_value(truth_arr, trial_arr, len(trials))
    trial_door = _trial_value(np.array([r["door_state"] for r in rows], dtype=np.int64), trial_arr,
                              len(trials))
    batch_of = vector_arr // step
    closes = np.zeros(len(trials), np.intp)
    np.maximum.at(closes, trial_arr, batch_of)
    n_candidates = np.zeros(len(rows), np.int64)
    accuracy = np.zeros(len(rows))
    fused = np.zeros(len(trials), np.int64)
    decided = np.zeros(len(trials), bool)
    # rows of trials that a later batch fuses: batch -> (rows, votes,
    # candidate counts, candidates) parts
    pending: dict[int, list[tuple]] = {}
    order = np.argsort(batch_of, kind="stable")
    cuts = np.flatnonzero(np.diff(batch_of[order])) + 1
    for b, members in enumerate(np.split(order, cuts) if len(order) else []):
        batch = DecodeBatch(tuple(contributions[b * step:(b + 1) * step]),
                            vector_arr[members] - b * step, lux_arr[members], args.epsilon)
        tables = half_sums_batch(batch.values)
        result = infer_reading(batch, truth_arr[members], tables)
        del tables  # the next batch's tables replace these rather than join them
        counts = result.counts
        n_candidates[members] = counts
        accuracy[members] = result.accuracy
        votes = sensor_votes(batch, result)
        close = closes[trial_arr[members]]
        for c in np.flatnonzero(np.bincount(close)).tolist():
            keep = close == c
            pending.setdefault(c, []).append((members[keep], votes[keep], counts[keep],
                                              result.candidates[np.repeat(keep, counts)]))
        if b in pending:
            at, votes, counts, candidates = map(np.concatenate, zip(*pending.pop(b)))
            closing, trial = np.unique(trial_arr[at], return_inverse=True)
            offsets = np.zeros(len(counts) + 1, np.int64)
            counts.cumsum(out=offsets[1:])
            fused[closing], decided[closing] = fuse_candidates(candidates, offsets, trial,
                                                               fuse_votes(votes, trial))

    report_rows = [(r["point_index"], r["door_state"], t, k, f"{acc:.6g}" if t >= 0 else "",
                    int(not k))
                   for r, t, k, acc in zip(rows, truth_arr.tolist(), n_candidates.tolist(),
                                           accuracy.tolist())]
    fused_acc = jaccard_rows(trial_truth, fused, np.arange(len(trials) + 1))
    fused_rows = [(name, door, t, p, f"{acc:.6g}" if t >= 0 else "",
                   "intersection" if hit else "vote")
                  for name, door, t, p, acc, hit in zip(
                      trials, trial_door.tolist(), trial_truth.tolist(), fused.tolist(),
                      fused_acc.tolist(), decided.tolist())]

    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "inference_report.csv"
    fused_path = args.out / "fused.csv"
    _write_csv(report_path, ["point_index", "door_state", "config_p", "n_candidates", "accuracy",
                             "no_solution"], report_rows)
    _write_csv(fused_path, ["trial", "door_state", "truth", "fused_p", "accuracy", "rule"],
               fused_rows)
    print(f"{len(rows)} readings in {len(trials)} trials")
    print(f"wrote {report_path}")
    print(f"wrote {fused_path}")
    return EXIT_OK


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
                       help="CSV with trial,point_index,door_state[,lux][,truth]")
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
