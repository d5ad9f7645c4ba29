#!/usr/bin/env python3
"""The stage ladder: per-stage wall time and memory at fixed sizes, as JSON.

So far the ladder has one rung kind, the perfect-sum search
(`inference.search`): `search_batch` on readings of n-luminaire
contribution vectors, at n = 6, 12, 16, 20 and 24, with 1 and with 100 rows
per vector. Each rung records the median wall time per query over repeated
in-process calls, the `tracemalloc` peak of one more call, and its counts.
The file also describes the machine it ran on.

Usage:
    PYTHONPATH=src python scripts/ladder.py                  # writes BENCH_ladder.json
    PYTHONPATH=src python scripts/ladder.py --quick --out ladder.json   # n = 6 and 12
    PYTHONPATH=src python scripts/ladder.py --before BENCH_ladder.json  # keep the old values

With --before, each rung also carries the matching rung's values from that
file under "before", so a change that claims a speed-up commits both.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from luxplan.inference import DecodeBatch, search_batch

SEARCH_SIZES = (6, 12, 16, 20, 24)
QUICK_SIZES = (6, 12)
ROWS_PER_VECTOR = (1, 100)
EPSILON = 0.001  # lux
MIN_CALLS = 3
MIN_SECONDS = 0.5  # calls repeat until both minimums are met


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only the search rungs at n = {', '.join(map(str, QUICK_SIZES))}")
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
    return DecodeBatch(tuple(map(tuple, values.tolist())), vector, targets, EPSILON)


def search_rung(n: int, rows_per_vector: int) -> dict:
    batch = search_batch_of(n, rows_per_vector)
    candidates, _ = search_batch(batch)  # warm-up
    times: list[float] = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        search_batch(batch)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        search_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(batch.targets)
    return {
        "stage": "inference.search", "n": n, "rows_per_vector": rows_per_vector,
        "vectors": len(batch.contributions), "rows": rows, "epsilon": EPSILON,
        "candidates": len(candidates), "calls": len(times),
        "ms_per_query": statistics.median(times) / rows * 1e3,
        "peak_mb": peak / 2**20,
    }


def rung_key(rung: dict) -> tuple:
    return rung["stage"], rung["n"], rung["rows_per_vector"]


def main(argv=None) -> int:
    args = parse_args(argv)
    before = {}
    if args.before is not None:
        old = json.loads(args.before.read_text(encoding="utf-8"))
        before = {rung_key(r): {k: r[k] for k in ("ms_per_query", "peak_mb")}
                  for r in old["rungs"]}
    rungs = []
    for n in QUICK_SIZES if args.quick else SEARCH_SIZES:
        for rows_per_vector in ROWS_PER_VECTOR:
            rung = search_rung(n, rows_per_vector)
            if rung_key(rung) in before:
                rung["before"] = before[rung_key(rung)]
            print(f"search n={n} rows/vector={rows_per_vector}: "
                  f"{rung['ms_per_query']:.4f} ms/query, peak {rung['peak_mb']:.2f} MB")
            rungs.append(rung)
    args.out.write_text(json.dumps({"machine": machine(), "rungs": rungs}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
