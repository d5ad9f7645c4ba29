#!/usr/bin/env python3
"""The stage ladder: per-stage wall time and memory at fixed sizes, as JSON.

The ladder has two rung kinds:
- the perfect-sum search (`inference.search`): `search_batch` on readings
  of n-luminaire contribution vectors, at n = 6, 12, 16, 20 and 24, with 1
  and with 100 rows per vector;
- ingest of a `synthesize_logs` log at 4, 16 and 64 locations, with every
  configuration of 6 lights commanded, timed as three stages apart:
  `ingest.read` (`read_samples_csv` of the written log), `ingest.extract`
  (`extract_baselines`) and `ingest.evaluate` (`evaluate_locations`).
Each rung records the median wall time over repeated in-process calls (per
query for the search), the `tracemalloc` peak of one more call, and its
counts (for the search, how many row chunks `search_chunks` cuts). The
file also describes the machine it ran on.

Usage:
    PYTHONPATH=src python scripts/ladder.py                  # writes BENCH_ladder.json
    PYTHONPATH=src python scripts/ladder.py --quick --out ladder.json   # the smallest rungs
    PYTHONPATH=src python scripts/ladder.py --before BENCH_ladder.json  # keep the old values

--quick runs the search rungs at n = 6 and 12 and the ingest rungs at 4
locations. With --before, each rung also carries the matching rung's values
from that file under "before", so a change that claims a speed-up commits
both.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from luxplan.inference import DecodeBatch, search_batch, search_chunks
from luxplan.ingest import (
    calibrate_contributions,
    evaluate_locations,
    extract_baselines,
    read_samples_csv,
    synthesize_logs,
    write_samples_csv,
)

SEARCH_SIZES = (6, 12, 16, 20, 24)
QUICK_SIZES = (6, 12)
ROWS_PER_VECTOR = (1, 100)
EPSILON = 0.001  # lux
INGEST_LOCATIONS = (4, 16, 64)
QUICK_LOCATIONS = (4,)
INGEST_N = 6
INGEST_EPSILON = 0.01  # lux, the ingest subcommand's default
MIN_CALLS = 3
MIN_SECONDS = 0.5  # calls repeat until both minimums are met


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only the search rungs at n = {', '.join(map(str, QUICK_SIZES))} "
                             f"and the ingest rungs at {QUICK_LOCATIONS[0]} locations")
    parser.add_argument("--out", type=Path, default=Path("BENCH_ladder.json"))
    parser.add_argument("--before", type=Path, default=None,
                        help="an earlier ladder file whose values each rung keeps as 'before'")
    return parser.parse_args(argv)


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def search_batch_of(n: int, rows_per_vector: int) -> DecodeBatch:
    """Readings of random configurations: 64 vectors read once each, or 4
    vectors read rows_per_vector times each; contributions uniform in
    (1/7, 100/7) lux, so sums round."""
    rng = np.random.default_rng(n)
    vectors = 64 if rows_per_vector == 1 else 4
    values = rng.uniform(1.0, 100.0, (vectors, n)) / 7
    vector = np.repeat(np.arange(vectors), rows_per_vector)
    on = rng.integers(0, 2, (len(vector), n)).astype(bool)
    targets = [math.fsum(values[v][mask]) for v, mask in zip(vector.tolist(), on)]
    return DecodeBatch(values, vector, targets, EPSILON)


def timed(call) -> tuple[int, float, float]:
    """How many calls were timed, their median wall time in seconds, and
    the tracemalloc peak of one more call in MB; one warm-up call first."""
    call()
    times: list[float] = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(times), statistics.median(times), peak / 2**20


def search_rung(n: int, rows_per_vector: int) -> dict:
    batch = search_batch_of(n, rows_per_vector)
    candidates, _ = search_batch(batch)
    calls, seconds, peak_mb = timed(lambda: search_batch(batch))
    rows = len(batch.targets)
    return {
        "stage": "inference.search", "n": n, "rows_per_vector": rows_per_vector,
        "vectors": len(batch.values), "rows": rows, "epsilon": EPSILON,
        "chunks": len(search_chunks(np.sort(batch.vector), n)),
        "candidates": len(candidates), "calls": calls,
        "ms_per_query": seconds / rows * 1e3,
        "peak_mb": peak_mb,
    }


def ingest_rungs(locations: int, n: int = INGEST_N) -> list[dict]:
    """The read, extract and evaluate rungs of one synthesize_logs log:
    all 2^n configurations commanded, all-off and the single lights first,
    at locations with contributions uniform in (1/7, 100/7) lux, 5 lux of
    ambient light and 0.05 lux of noise, so that no window is constant."""
    rng = np.random.default_rng(locations)
    contributions = {f"loc{k}": rng.uniform(1.0, 100.0, n) / 7 for k in range(locations)}
    configs = [0] + [1 << i for i in range(n)] + [p for p in range(1, 1 << n) if p & (p - 1)]
    samples, commands = synthesize_logs(contributions, configs, sigma=0.05, seed=locations,
                                        ambient=5.0)
    table = extract_baselines(samples, commands)
    calibrations = {loc: calibrate_contributions(table, loc) for loc in table.locations}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        write_samples_csv(samples, path)
        stages = {
            "ingest.read": lambda: read_samples_csv(path),
            "ingest.extract": lambda: extract_baselines(samples, commands),
            "ingest.evaluate": lambda: evaluate_locations(table, calibrations, INGEST_EPSILON),
        }
        rungs = []
        for stage, call in stages.items():
            calls, seconds, peak_mb = timed(call)
            rungs.append({
                "stage": stage, "n": n, "locations": locations, "samples": len(samples.t),
                "cells": len(table.cells), "calls": calls, "ms": seconds * 1e3,
                "peak_mb": peak_mb,
            })
    return rungs


def rung_key(rung: dict) -> tuple:
    return tuple(rung[k] for k in ("stage", "n", "rows_per_vector", "locations") if k in rung)


def main(argv=None) -> int:
    args = parse_args(argv)
    before = {}
    if args.before is not None:
        old = json.loads(args.before.read_text(encoding="utf-8"))
        before = {rung_key(r): {k: r[k] for k in ("ms_per_query", "ms", "peak_mb") if k in r}
                  for r in old["rungs"]}
    rungs = []
    for n in QUICK_SIZES if args.quick else SEARCH_SIZES:
        for rows_per_vector in ROWS_PER_VECTOR:
            rung = search_rung(n, rows_per_vector)
            print(f"search n={n} rows/vector={rows_per_vector}: "
                  f"{rung['ms_per_query']:.4f} ms/query, peak {rung['peak_mb']:.2f} MB")
            rungs.append(rung)
    for locations in QUICK_LOCATIONS if args.quick else INGEST_LOCATIONS:
        for rung in ingest_rungs(locations):
            print(f"{rung['stage']} locations={locations} samples={rung['samples']}: "
                  f"{rung['ms']:.3f} ms, peak {rung['peak_mb']:.2f} MB")
            rungs.append(rung)
    for rung in rungs:
        if rung_key(rung) in before:
            rung["before"] = before[rung_key(rung)]
    args.out.write_text(json.dumps({"machine": machine(), "rungs": rungs}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
