#!/usr/bin/env python3
"""End-to-end placement study on a floor plan.

Sweeps per-luminaire illuminance over every candidate cell and door state,
scores each cell by how many of the 2^n on/off combinations its summed
reading isolates, then solves the sensor-placement cover twice: once for
the all-doors-open universe and once for the full universe of
(configuration, door state) pairs. Writes heatmaps and a cover report.

Usage:
    python scripts/apartment_study.py --out results/
    python scripts/apartment_study.py --scene my.scene --tau 0.05
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import ExitStack
from importlib import resources
from pathlib import Path

from luxplan import (
    StateSpace,
    build_cover_instance,
    enumerate_door_states,
    greedy_set_cover,
    heatmap_scores,
    load_scene,
    open_door_state_index,
    restrict_cover_instance,
    sweep,
    write_heatmap_set,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", type=Path, default=None,
                        help="scene file (default: bundled apartment)")
    parser.add_argument("--tau", type=float, default=0.01,
                        help="distinctness tolerance in lux (default 0.01)")
    parser.add_argument("--out", type=Path, default=Path("study_out"),
                        help="output directory (default study_out/)")
    return parser.parse_args(argv)


def describe_cover(label: str, solution, grid) -> None:
    print(f"\n{label}:")
    total = 0
    for step, (point, gain) in enumerate(zip(solution.chosen, solution.gains), 1):
        total += gain
        x, y = grid.points[point].tolist()
        print(f"  {step}. point {point} at ({x:.3f}, {y:.3f}) "
              f"isolates {gain} new states (running total {total})")
    verdict = "complete" if solution.complete else "incomplete"
    print(f"  -> {len(solution.chosen)} sensors, cover {verdict}, "
          f"{len(solution.covered)} states covered")


def main(argv=None) -> int:
    args = parse_args(argv)
    with ExitStack() as stack:
        scene_path = args.scene
        if scene_path is None:
            scene_path = stack.enter_context(
                resources.as_file(resources.files("luxplan") / "data" / "apartment.scene")
            )
        scene = load_scene(scene_path)

        t0 = time.perf_counter()
        matrix = sweep(scene)
        scores = heatmap_scores(matrix, args.tau)
        t_sim = time.perf_counter() - t0

        n_configs = 1 << scene.n_luminaires
        states = enumerate_door_states(scene)
        print(f"scene: {scene_path}")
        print(f"{scene.n_luminaires} luminaires -> {n_configs} light configurations")
        print(f"{len(scene.doors)} doors -> {len(states)} door states "
              f"-> {n_configs * len(states)} application states")
        print(f"{matrix.n_points} candidate cells swept in {t_sim:.2f}s")

        print(f"\nbest cell per door state (tau {args.tau} lux):")
        for q, state in enumerate(states):
            col = scores[:, q]
            best = int(col.argmax())
            x, y = scene.grid.points[best].tolist()
            angles = ",".join(f"{a:g}" for a in state.angles_deg) or "none"
            print(f"  q{q} (angles {angles}): point {best} at "
                  f"({x:.3f}, {y:.3f}) isolates {int(col[best])}/{n_configs}")
        totals = scores.sum(axis=1)
        b = int(totals.argmax())
        print(f"aggregate best: point {b} with {int(totals[b])}/{n_configs * len(states)}")

        instance = build_cover_instance(matrix, args.tau)
        space = StateSpace(n_luminaires=scene.n_luminaires, door_states=tuple(states))
        q_open = open_door_state_index(scene)
        keep = frozenset(space.state_id(p, q_open) for p in range(space.n_configs))
        open_cover = greedy_set_cover(restrict_cover_instance(instance, keep))
        describe_cover(f"greedy cover, doors-open universe (q{q_open})", open_cover, scene.grid)
        full_cover = greedy_set_cover(instance)
        describe_cover("greedy cover, full universe", full_cover, scene.grid)

        args.out.mkdir(parents=True, exist_ok=True)
        paths = write_heatmap_set(scene.grid, scores, n_configs, args.out)
        report = args.out / "cover_full.csv"
        with open(report, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "point_index", "x", "y", "gain"])
            for step, (point, gain) in enumerate(zip(full_cover.chosen, full_cover.gains), 1):
                x, y = scene.grid.points[point].tolist()
                w.writerow([step, point, f"{x:.6g}", f"{y:.6g}", gain])
        print(f"\nwrote {len(paths)} heatmap files and {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
