#!/usr/bin/env python3
"""luxplan benchmark: run one workload and print its metrics as JSON.

    python3 luxbench/run.py --workload apartment --seed 1 --seconds 55 --trace 0

Run from the root of a luxplan source tree; luxplan is imported from its
`src/` directory. Every CLI job goes through `luxplan.cli.run`, in this
process and thread, with stdout captured and BLAS pools pinned to one
thread. A run sets up, then repeats whole rounds of the workload's jobs for
as long as the next round should end within --seconds (at least one round).
The first round's outputs are checked against luxbench/oracle.py; later
rounds must write byte-identical outputs.

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 prints
the per-layer metrics from spans around the CLI's calls into each module,
and the tracing overhead. The last line of stdout is the JSON result.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".luxbench"
TAU = 0.01  # the CLI's default distinctness tolerance, lux
SETUP_REPEATS = 3  # set-ups before the first round; one more follows each round
# End-to-end times are scaled to the speed at which speed_probe() takes
# PROBE_S, its time on the reference box when that box runs at full speed.
# The shared VM the benchmark was built on slows interpreter-bound code by
# up to 1.9x for tens of seconds at a time, and such stretches moved whole
# runs' medians by 20-35%.
PROBE_S = 0.012
# The sweep/heatmap/cover jobs run the bundled apartment at 0.1 m (7,821
# cells, 2.7x the paper's lattice): cell count still dominates, and a round
# stays short enough to repeat several times within a run.
APARTMENT_SPACING = 0.1

JOB_METRIC = {"simulate": "simulate_s", "heatmap": "heatmap_s", "cover": "cover_s",
              "cover_open": "cover_open_s", "cover_exact": "cover_exact_s"}


@dataclass
class Job:
    kind: str  # simulate, heatmap, cover, cover_open, cover_exact, infer, ingest, probe
    argv: list[str]
    out: Path
    spec: oracle.SceneSpec | None = None
    spacing: float | None = None  # --grid-spacing, None for the scene's own
    rows: list = field(default_factory=list)  # readings, for infer and probe
    logs: tuple | None = None  # (samples path, commands path, n) for ingest


@dataclass
class Workload:
    scene_path: Path
    spacing: float | None  # the grid whose set-up setup_s times
    jobs: list[Job]
    infer_rows: int
    ingest_samples: int


# ------------------------------------------------------------------ workloads

def _scene_jobs(work: Path, scene: Path, spec, sim: float | None, plan: float | None,
                exact: float | None, exact_args: list[str]) -> list[Job]:
    """simulate at spacing `sim`, heatmap and both greedy covers at `plan`,
    the exact solve at `exact`; None is the scene's own grid."""
    def job(kind, args, spacing):
        grid = ["--grid-spacing", repr(spacing)] if spacing is not None else []
        return Job(kind, args + ["--scene", str(scene), "--out", str(work / kind)] + grid,
                   work / kind, spec, spacing)

    return [
        job("simulate", ["simulate"], sim),
        job("heatmap", ["heatmap"], plan),
        job("cover", ["solve-cover", "--universe", "full"], plan),
        job("cover_open", ["solve-cover", "--universe", "open-door"], plan),
        job("cover_exact", ["solve-cover", "--exact"] + exact_args, exact),
    ]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _infer_job(kind: str, work: Path, scene: Path, spec, rows: list) -> Job:
    readings = _write(work / f"{kind}_readings.csv", gen.readings_csv(rows))
    return Job(kind, ["infer", "--scene", str(scene), "--readings", str(readings),
                      "--out", str(work / kind)], work / kind, spec, None, rows)


def _ingest_job(work: Path, seed: int, spec, pts, cells: list[int], state_index: int,
                extra: int) -> tuple[Job, int]:
    samples, commands, count = gen.ingest_logs(seed, spec, pts, cells, state_index, extra)
    s_path = _write(work / "samples.csv", samples)
    c_path = _write(work / "commands.csv", commands)
    job = Job("ingest", ["ingest", "--samples", str(s_path), "--commands", str(c_path),
                         "--out", str(work / "ingest")], work / "ingest")
    job.logs = (s_path, c_path, spec.n)
    return job, count


def apartment(seed: int, work: Path) -> Workload:
    """The bundled plan at APARTMENT_SPACING for the sweep/heatmap/cover
    jobs, at its own 0.165 m grid for the exact solve, the survey and the
    logs (16 cells that see all 6 luminaires with the doors open, all 64
    configurations commanded)."""
    scene = SRC / "luxplan" / "data" / "apartment.scene"
    spec = oracle.parse_scene_text(scene.read_text(encoding="utf-8"))
    pts = oracle.grid_points(spec)
    states = oracle.door_states(spec)
    jobs = _scene_jobs(work, scene, spec, APARTMENT_SPACING, APARTMENT_SPACING, None,
                       ["--exact-limit", "576"])
    rows = gen.survey_rows(seed, len(pts), len(states), spec.n, 2000)
    jobs.append(_infer_job("infer", work, scene, spec, rows))
    q = oracle.open_state_index(spec)
    cells = gen.pick_cells(gen.rng_for(seed, "sensors"), spec, pts, states[q], 16)
    ingest, count = _ingest_job(work, seed, spec, pts, cells, q, 57)
    jobs.append(ingest)
    return Workload(scene, APARTMENT_SPACING, jobs, len(rows), count)


def hall_doors(seed: int, work: Path) -> Workload:
    """8 luminaires, 81 door states, 160 cells; the exact solve on the
    open-door universe over a 3x coarser lattice; logs at 4 cells with every
    door closed."""
    spec = gen.hall_doors_scene(seed)
    scene = _write(work / "hall.scene", oracle.render_scene(spec))
    pts = oracle.grid_points(spec)
    states = oracle.door_states(spec)
    jobs = _scene_jobs(work, scene, spec, None, None, 3 * spec.grid.spacing,
                       ["--universe", "open-door", "--exact-limit", "256"])
    rows = gen.survey_rows(seed, len(pts), len(states), spec.n, 3000)
    jobs.append(_infer_job("infer", work, scene, spec, rows))
    cells = gen.pick_cells(gen.rng_for(seed, "sensors"), spec, pts, states[0], 4)
    ingest, count = _ingest_job(work, seed, spec, pts, cells, 0, 120)
    jobs.append(ingest)
    return Workload(scene, None, jobs, len(rows), count)


def decode_wide(seed: int, work: Path) -> Workload:
    """16 luminaires, no doors, the hall built from gen.WIDE_SEED. simulate
    runs on a 2x finer lattice (5,841 cells) so that it is not a few
    milliseconds long; heatmap and the covers on 5x and 10x coarser ones,
    since 2^16 configurations per cell is what this workload is about.
    Decoding reads 4 sensor cells of about gen.AMBIGUITY candidates per
    reading; the logs come from 6 such cells; the fusion probe reads all 4
    sensors per trial."""
    spec = gen.decode_wide_scene(gen.WIDE_SEED)
    scene = _write(work / "wide.scene", oracle.render_scene(spec))
    pts = oracle.grid_points(spec)
    s = spec.grid.spacing
    jobs = _scene_jobs(work, scene, spec, s / 2, 5 * s, 10 * s, ["--exact-limit", "65536"])
    sensors = gen.pick_cells(gen.rng_for(gen.WIDE_SEED, "sensors"), spec, pts, (), 4,
                             gen.AMBIGUITY)
    rows = gen.sensor_rows(seed, sensors, spec.n, 400)
    jobs.append(_infer_job("infer", work, scene, spec, rows))
    cells = gen.pick_cells(gen.rng_for(gen.WIDE_SEED, "logs"), spec, pts, (), 6, gen.AMBIGUITY)
    ingest, count = _ingest_job(work, seed, spec, pts, cells, 0, 100)
    jobs.append(ingest)
    probe = gen.probe_rows(spec, pts, sensors, 20)
    jobs.append(_infer_job("probe", work, scene, spec, probe))
    return Workload(scene, None, jobs, len(rows), count)


WORKLOADS = {"apartment": apartment, "hall-doors": hall_doors, "decode-wide": decode_wide}


# ---------------------------------------------------------------------- checks

class Checker:
    """Compares a job's outputs with the oracle. Errors are collected;
    `failed` counts trials whose fused answer breaks the decoding promise
    (the sensors' candidate sets meet in exactly the truth)."""

    def __init__(self, seed: int):
        self.rng = gen.rng_for(seed, "check")
        self.errors: list[str] = []
        self.failed = 0
        self._flags: dict = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def close(self, a: float, b: float, what: str) -> None:
        """Values printed with 6 significant digits."""
        self.expect(abs(a - b) <= 6e-6 * max(abs(a), abs(b)) + 1e-12, f"{what}: {a} vs {b}")

    def points(self, job: Job) -> np.ndarray:
        return oracle.grid_points(job.spec, job.spacing)

    def flags(self, job: Job) -> np.ndarray:
        """(cells, Q * 2^n) isolation flags, state id = q * 2^n + p."""
        key = (id(job.spec), job.spacing)
        if key not in self._flags:
            pts = self.points(job)
            # about 2^20 (cell, state, configuration) entries at a time
            # keeps the reference's memory small
            step = max(1, 2**20 // (len(oracle.door_states(job.spec)) << job.spec.n))
            parts = []
            for lo in range(0, len(pts), step):
                vals = oracle.sweep_float(job.spec, pts[lo:lo + step])
                parts.append(oracle.isolation_flags(vals, TAU).reshape(len(vals), -1))
            self._flags[key] = np.concatenate(parts)
        return self._flags[key]

    def run(self, job: Job, stdout: str) -> None:
        shared = {"cover_open": self.check_cover, "cover_exact": self.check_cover,
                  "probe": self.check_infer}
        (shared.get(job.kind) or getattr(self, "check_" + job.kind))(job, stdout)

    def check_simulate(self, job: Job, stdout: str) -> None:
        spec, pts = job.spec, self.points(job)
        states = oracle.door_states(spec)
        lines = (job.out / "contributions.csv").read_text().splitlines()
        self.expect(len(lines) == 1 + len(pts) * len(states), "simulate: row count")
        checked = 0
        for _ in range(60):
            p, q, i = (int(self.rng.integers(len(pts))), int(self.rng.integers(len(states))),
                       int(self.rng.integers(spec.n)))
            want, grazing = oracle.contribution_exact(spec, states[q], spec.lums[i], pts[p],
                                                      spec.grid.height)
            if grazing:
                continue
            row = lines[1 + p * len(states) + q].split(",")
            self.expect(row[:2] == [str(p), str(q)], f"simulate: row order at {p},{q}")
            self.close(float(row[2 + i]), want, f"simulate: lux at cell {p} state {q} lum {i}")
            checked += 1
        self.expect(checked >= 30, f"simulate: only {checked} triples clear of grazing")

    def check_heatmap(self, job: Job, stdout: str) -> None:
        spec, pts = job.spec, self.points(job)
        states = oracle.door_states(spec)
        n_q, n_cfg = len(states), 1 << spec.n
        files = sorted(p.name for p in job.out.iterdir())
        self.expect(len(files) == 2 * (n_q + 1), f"heatmap: {len(files)} files")
        total = (job.out / "heatmap_total.csv").read_text().splitlines()
        self.expect([r.rsplit(",", 1)[0] for r in total[1:]] == [f"{x:.6g},{y:.6g}" for x, y in pts],
                    "heatmap: cell positions differ from the lattice")
        g = spec.grid
        s = g.spacing if job.spacing is None else job.spacing
        dims = f"{math.ceil((g.maxx - g.minx) / s)} {math.ceil((g.maxy - g.miny) / s)}"
        head = (job.out / "heatmap_q0.pgm").read_text().split("\n", 3)[:3]
        self.expect(head == ["P2", dims, str(n_cfg)], f"heatmap: pgm header {head}")
        samples = max(2, min(40, 2**18 // n_cfg))
        vals = {}
        for _ in range(samples):
            p, q = int(self.rng.integers(len(pts))), int(self.rng.integers(n_q))
            vec = oracle.sweep_float(spec, pts[p:p + 1], [states[q]])[0, 0]
            count, near = oracle.isolation_count_fsum(vec.tolist(), TAU)
            if near:
                continue
            if q not in vals:
                vals[q] = (job.out / f"heatmap_q{q}.csv").read_text().splitlines()
            self.expect(int(vals[q][1 + p].split(",")[2]) == count,
                        f"heatmap: score at cell {p} state {q}")
        flags = self.flags(job).reshape(len(pts), n_q, n_cfg).sum(axis=(1, 2))
        got = np.array([int(r.split(",")[2]) for r in total[1:]])
        self.expect(np.array_equal(got, flags), "heatmap: totals differ from isolation counts")

    def check_cover(self, job: Job, stdout: str) -> None:
        spec = job.spec
        n_cfg = 1 << spec.n
        flags = self.flags(job)
        if "open-door" in job.argv:
            q = oracle.open_state_index(spec)
            flags, label = flags[:, q * n_cfg:(q + 1) * n_cfg], "open-door"
        else:
            label = "full"
        coverable = flags.any(axis=0)
        self.expect(f"universe: {label} ({flags.shape[1]} states)" in stdout, "cover: universe size")
        rows = [r.split(",") for r in (job.out / "cover_report.csv").read_text().splitlines()[1:]]
        covered = np.zeros(flags.shape[1], dtype=bool)
        for step, p, _, _, gain, running in rows:
            new = flags[int(p)] & ~covered
            self.expect(int(gain) == int(new.sum()) > 0, f"cover: gain of step {step}")
            covered |= flags[int(p)]
            self.expect(int(running) == int(covered.sum()), f"cover: covered_total at step {step}")
        self.expect(np.array_equal(covered, coverable),
                    "cover: covered states differ from the union of isolatable states")
        missing = flags.shape[1] - int(coverable.sum())
        status = "complete" if missing == 0 else f"incomplete: {missing} states cannot be covered"
        self.expect(f"chose {len(rows)} points; cover {status}" in stdout, "cover: status line")
        if "--exact" in job.argv:
            want = oracle.min_cover_size(flags) if coverable.any() else 0
            self.expect(len(rows) == want, f"cover: exact size {len(rows)}, milp optimum {want}")
        elif rows:
            self.expect(int(rows[0][4]) == int(flags.sum(axis=1).max()), "cover: first greedy gain")

    def check_infer(self, job: Job, stdout: str) -> None:
        spec, rows = job.spec, job.rows
        pts = self.points(job)
        states = oracle.door_states(spec)
        cells = sorted({(p, q) for _, p, q, _ in rows})
        vecs = {}
        for q in sorted({q for _, q in cells}):
            ps = [p for p, qq in cells if qq == q]
            for p, v in zip(ps, oracle.sweep_float(spec, pts[ps], [states[q]])[:, 0]):
                vecs[(p, q)] = v
        report = [r.split(",") for r in (job.out / "inference_report.csv").read_text().splitlines()[1:]]
        self.expect(len(report) == len(rows), "infer: report rows")
        trials: dict = {}
        for (trial, p, q, truth), got in zip(rows, report):
            vec = vecs[(p, q)]
            lux = math.fsum(vec[i] for i in range(spec.n) if truth >> i & 1)
            cands, near = oracle.perfect_sum_brute(vec, lux, gen.EPSILON)
            trials.setdefault(trial, []).append((vec, None if near else cands, truth))
            if near:
                continue
            self.expect(got[:3] == [str(p), str(q), str(truth)], f"infer: row {trial} keys")
            self.expect(int(got[3]) == len(cands), f"infer: candidates of {trial}")
            self.close(float(got[4]), oracle.jaccard(truth, cands, spec.n), f"infer: accuracy of {trial}")
            self.expect(got[5] == str(int(not cands)), f"infer: no_solution of {trial}")
        fused = [r.split(",") for r in (job.out / "fused.csv").read_text().splitlines()[1:]]
        self.expect([f[0] for f in fused] == list(trials), "infer: fused trials")
        for f in fused:
            entries = trials.get(f[0], [])
            if not entries or any(c is None for _, c, _ in entries):
                continue
            got, truth = int(f[3]), entries[0][2]
            common = set.intersection(*(set(c) for _, c, _ in entries))
            if common == {truth}:
                # every sensor admits only the truth: anything else breaks
                # the decoding promise, a failed operation
                self.failed += got != truth
            else:
                # a configuration every sensor admits, or the per-luminaire
                # majority vote that fuse_votes documents
                self.expect(got in common or got == oracle.majority_fuse(
                    [(v, c) for v, c, _ in entries], spec.n), f"infer: fused answer of {f[0]}")

    def check_ingest(self, job: Job, stdout: str) -> None:
        s_path, c_path, n = job.logs
        s = np.genfromtxt(s_path, delimiter=",", names=True, dtype=None, encoding="utf-8")
        c = np.loadtxt(c_path, delimiter=",", skiprows=1, ndmin=2)
        base = oracle.window_baselines(s["t"], s["location"], s["lux"], c[:, 0],
                                       c[:, 1].astype(int), gen.SETTLE, gen.WINDOW)
        got = [r.split(",") for r in (job.out / "accuracy_by_location.csv").read_text().splitlines()[1:]]
        locs = list(dict.fromkeys(s["location"].tolist()))
        self.expect([g[0] for g in got] == locs, "ingest: locations")
        for g, loc in zip(got, locs):
            accs = oracle.ingest_accuracies(base, loc, n, gen.EPSILON)
            for a, b in zip(map(float, g[1:7]), oracle.summary(accs)):
                self.close(a, b, f"ingest: summary of {loc}")
            self.expect(int(g[7]) == len(accs), f"ingest: count of {loc}")


# ----------------------------------------------------------------------- runs

def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_job(cli, job: Job) -> tuple[float, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run(job.argv)
    dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{job.kind}: luxplan exited {code}")
    return dt, buf.getvalue()


_PROBE_DATA = np.random.default_rng(0).random(1 << 18)  # 2 MB


def speed_probe() -> float:
    """Wall time of a fixed piece of work that never touches luxplan: a
    dict-heavy Python loop, a numpy sort and two streaming array passes.
    The VM's slow stretches hit interpreter-bound code harder than numpy
    kernels; this mix, about two thirds interpreter time, tracked the CLI
    jobs' swings better than either part alone."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(50_000):
        d[i % 977] = d.get(i % 977, 0) + i * i
    np.sort(_PROBE_DATA)
    for _ in range(2):
        np.cumsum(_PROBE_DATA * 1.5 + _PROBE_DATA)
    return time.perf_counter() - t0


def setup_sample(wl: Workload) -> float:
    """One set-up: import luxplan in a fresh interpreter, then load_scene
    and the grid at the workload's spacing in this process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import luxplan; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    from luxplan.scene import build_grid, load_scene

    t0 = time.perf_counter()
    scene = load_scene(wl.scene_path)
    if wl.spacing is not None:
        g = scene.grid
        build_grid((g.minx, g.miny, g.maxx, g.maxy), wl.spacing, g.height, g.normal, scene.walls)
    return float(done.stdout.split()[-1]) + time.perf_counter() - t0


def scaled_setup(wl: Workload) -> float:
    """One set-up, scaled by the median of three probes taken just before."""
    scale = PROBE_S / statistics.median(speed_probe() for _ in range(3))
    return setup_sample(wl) * scale


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "luxplan" / "cli.py").is_file():
        print(f"luxbench: no luxplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import luxplan.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"luxbench: imported luxplan from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # a terminated run still removes its scratch files and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, tracer = run(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        path = WORK / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        print(f"spans written to {path}")
    print(json.dumps(result))
    return 0


def run(cli, args, work: Path) -> tuple[dict, Tracer | None]:
    """Whole rounds within --seconds. Round 0 is checked and not timed: it
    also pays the process's first-touch costs, which made it up to 1.8x
    slower than the rest and, mixed in with one or two later rounds, the
    main source of run-to-run spread. Untraced, a job's time is the median
    of its probe-scaled wall times over rounds 1 on (at least one), and
    setup_s the median of scaled set-ups taken before round 0 and after
    each round. Traced, round 1 measures memory peaks with tracemalloc;
    later rounds alternate traced and untraced (at least one of each), and
    a layer's time or count is its median over the traced ones."""
    # inputs are built in a child process, so that the generators' own
    # arrays (decode-wide's sensor search holds about 100 MB) stay out of
    # this process's peak_rss_mb
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        wl = pool.submit(WORKLOADS[args.workload], args.seed, work).result()
    tracer = Tracer() if args.trace else None
    setups = [] if tracer else [scaled_setup(wl) for _ in range(SETUP_REPEATS)]
    checker = Checker(args.seed)
    times: dict[str, list[float]] = {j.kind: [] for j in wl.jobs}
    totals: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    digests: dict[str, str] = {}
    probe_trials = sum(len({r[0] for r in j.rows}) for j in wl.jobs if j.kind == "probe")
    attempted = failed = rounds = 0
    last = 0.0  # job time of the previous round
    start = time.perf_counter()
    # past the minimum, a round starts only if it should end within
    # --seconds, so a slow machine runs fewer rounds rather than running over
    while rounds < (4 if tracer else 2) or time.perf_counter() - start + last <= args.seconds:
        traced = tracer is not None and rounds > 0 and (rounds == 1 or rounds % 2 == 0)
        if tracer:
            tracer.memory = rounds == 1
        first_cmd = tracer.cmd + 1 if tracer else 0
        took, stdout, probes = {}, {}, []
        with tracer.patched() if traced else contextlib.nullcontext():
            for job in wl.jobs:
                if traced:
                    tracer.new_command()
                probes.append(speed_probe())
                took[job.kind], stdout[job.kind] = run_job(cli, job)
        probes.append(speed_probe())
        # a job's wall time, scaled by the mean of the probes just before and
        # just after it
        scaled = {job.kind: took[job.kind] * 2 * PROBE_S / (probes[i] + probes[i + 1])
                  for i, job in enumerate(wl.jobs)}
        if rounds == 0:
            # later rounds repeat the same work; what they add to the peak is
            # allocator growth that depends on how many rounds fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for job in wl.jobs:
            if rounds == 0:
                checker.run(job, stdout[job.kind])
                digests[job.kind] = _digest(job.out)
            elif _digest(job.out) != digests[job.kind]:
                checker.errors.append(f"{job.kind}: round {rounds} output differs from round 0")
        last = sum(took.values())
        kind = " memory" if tracer and tracer.memory else " traced" if traced else ""
        print(f"round {rounds}{kind}: "
              + ", ".join(f"{k} {v:.3f}s" for k, v in took.items())
              + f"; probe {statistics.median(probes) * 1e3:.2f}ms", file=sys.stderr)
        if rounds > 0 and tracer and tracer.memory:
            peaks = tracer.command_totals(range(first_cmd, tracer.cmd + 1))
        elif rounds > 0:
            totals[traced].append(sum(scaled.values()))
            if traced:
                layers.append(tracer.command_totals(range(first_cmd, tracer.cmd + 1)))
            else:
                for k, v in scaled.items():
                    times[k].append(v)
        if not tracer:
            setups.append(scaled_setup(wl))
        attempted += len(wl.jobs) + probe_trials
        failed += checker.failed
        rounds += 1
    for e in checker.errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {len(checker.errors)} check errors, "
          f"{failed} of {attempted} operations failed", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if tracer else "end_to_end"]}
    if tracer is None:
        med = {k: statistics.median(v) for k, v in times.items()}
        values = {"setup_s": statistics.median(setups),
                  **{m: med[k] for k, m in JOB_METRIC.items()},
                  "infer_rps": wl.infer_rows / med["infer"],
                  "ingest_sps": wl.ingest_samples / med["ingest"],
                  "peak_rss_mb": peak_rss_mb}
    else:
        values = {}
        for name in units:
            if name == "trace.overhead_s":
                continue
            key = name.replace("cli.infer_self_s", "cli.infer_s")
            recorded = [peaks] if name.endswith("_peak_mb") else layers
            if any(key not in r for r in recorded):
                # a wrapper that no longer intercepts its call would
                # otherwise read as a layer that takes no time
                raise RuntimeError(f"a traced round recorded no {key}: spans.py no longer "
                                   "intercepts that call")
            values[name] = statistics.median(r[key] for r in recorded)
        values["trace.overhead_s"] = statistics.median(totals[True]) - statistics.median(totals[False])
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    return ({"correct": not checker.errors, "attempted": attempted, "failed": failed,
             "metrics": metrics}, tracer)


if __name__ == "__main__":
    sys.exit(main())
