#!/usr/bin/env python3
"""Accuracy vs. sensor noise at one candidate cell.

Synthesizes sample and command logs for every light configuration at a
chosen cell, adds gaussian noise at each sigma in the ladder (the same
seeded realization scaled, so runs are comparable), pushes the logs
through the baseline-extraction and calibration pipeline, and reports the
per-sigma accuracy distribution.

Usage:
    python scripts/noise_sweep.py
    python scripts/noise_sweep.py --point 870 --sigmas 0,0.05,0.5,5 --out sweep.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
from contextlib import ExitStack
from importlib import resources
from pathlib import Path

import numpy as np

from luxplan import (
    calibrate_contributions,
    config_sums_batch,
    evaluate_locations,
    extract_baselines,
    heatmap_scores,
    load_scene,
    open_door_state_index,
    sweep,
    synthesize_logs,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", type=Path, default=None,
                        help="scene file (default: bundled apartment)")
    parser.add_argument("--point", type=int, default=None,
                        help="candidate cell index (default: best open-door cell)")
    parser.add_argument("--door-state", type=int, default=None,
                        help="door state index (default: all doors open)")
    parser.add_argument("--sigmas", type=str, default="0,0.01,0.05,0.2,1,5",
                        help="comma-separated noise sigmas in lux")
    parser.add_argument("--epsilon", type=float, default=0.01,
                        help="perfect-sum tolerance in lux (default 0.01)")
    parser.add_argument("--seed", type=int, default=0, help="noise seed")
    parser.add_argument("--out", type=Path, default=Path("noise_sweep.csv"),
                        help="output CSV (default noise_sweep.csv)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with ExitStack() as stack:
        scene_path = args.scene
        if scene_path is None:
            scene_path = stack.enter_context(
                resources.as_file(resources.files("luxplan") / "data" / "apartment.scene")
            )
        scene = load_scene(scene_path)
        matrix = sweep(scene)

    q = args.door_state
    if q is None:
        q = open_door_state_index(scene)
    point = args.point
    if point is None:
        point = int(heatmap_scores(matrix, 0.01)[:, q].argmax())

    x = matrix.values[point, q, :]
    n_configs = 1 << scene.n_luminaires
    sums = np.sort(config_sums_batch(x))
    min_gap = float(np.diff(sums).min())
    px, py = scene.grid.points[point].tolist()
    print(f"cell {point} at ({px:.3f}, {py:.3f}), door state {q}")
    print(f"contributions (lux): {np.array2string(x, precision=3)}")
    print(f"smallest gap between configuration sums: {min_gap:.4f} lux")
    print(f"epsilon {args.epsilon} lux; accuracy over all {n_configs} configurations\n")

    sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    rows = []
    header = f"{'sigma':>8} {'min':>6} {'q1':>6} {'median':>6} {'mean':>6} {'q3':>6} {'max':>6}"
    print(header)
    for sigma in sigmas:
        samples, commands = synthesize_logs(
            {"cell": x}, config_indices=list(range(n_configs)),
            sigma=sigma, seed=args.seed,
        )
        table = extract_baselines(samples, commands)
        calib = {"cell": calibrate_contributions(table, "cell")}
        acc = evaluate_locations(table, calib, args.epsilon)[0]
        rows.append([sigma, acc.minimum, acc.q1, acc.median, acc.mean, acc.q3, acc.maximum])
        print(f"{sigma:8.3f} {acc.minimum:6.3f} {acc.q1:6.3f} {acc.median:6.3f} "
              f"{acc.mean:6.3f} {acc.q3:6.3f} {acc.maximum:6.3f}")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "min", "q1", "median", "mean", "q3", "max"])
        w.writerows([f"{v:.6g}" for v in row] for row in rows)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
