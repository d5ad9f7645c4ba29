"""Spans around the calls luxplan.cli makes into each module.

Tracing lives in the benchmark: `Tracer.patched()` swaps the module
attributes that the CLI looks up at call time (for example `cli.sweep`,
`planning.distinctness_flags_batch`, `ingest.extract_baselines`) for
wrappers that record a span, then restores them. Spans and counts are kept
in memory and written out once, when the run ends. `tracemalloc` runs only
inside the isolation-flag and cover-instance spans, and only while
`memory` is set, since it slows every allocation it watches (the cover
instance build five-fold).
"""
from __future__ import annotations

import contextlib
import os
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    cmd: int
    end: float = 0.0
    peak_mb: float | None = None
    child_s: float = 0.0
    # tracemalloc bookkeeping for spans that measure memory
    base: int = 0
    floor: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: list[Counter] = field(default_factory=list)  # one Counter per command
    cmd: int = -1
    memory: bool = False  # run tracemalloc in spans that ask for it
    _stack: list[int] = field(default_factory=list)
    _mem_stack: list[Span] = field(default_factory=list)
    _vectors: list[set] = field(default_factory=list)

    def new_command(self) -> None:
        self.cmd += 1
        self.counts.append(Counter())
        self._vectors.append(set())

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.cmd][name] += value

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, start=0.0, parent=parent, cmd=self.cmd)
        memory = memory and self.memory
        if memory:
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer.floor = max(outer.floor, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            s.base = tracemalloc.get_traced_memory()[0]
            self._mem_stack.append(s)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.end - s.start
            if memory:
                self._mem_stack.pop()
                peak = max(s.floor, tracemalloc.get_traced_memory()[1])
                s.peak_mb = (peak - s.base) / 2**20
                if self._mem_stack:
                    self._mem_stack[-1].floor = max(self._mem_stack[-1].floor, peak)
                else:
                    tracemalloc.stop()

    def wrap(self, name: str, fn, after=None, memory: bool = False):
        """fn wrapped in a span; after(result, args) records counts."""
        def traced(*args, **kwargs):
            with self.span(name, memory=memory):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the public functions the CLI calls, for the duration."""
        import luxplan.cli as cli
        import luxplan.ingest as ingest
        import luxplan.planning as planning
        import luxplan.scene as scene
        import luxplan.transport as transport

        c = self.count

        def grid_done(grid, args):
            c("scene.cells", len(grid.points))

        def states_done(states, args):
            c("scene.door_states", len(states))

        def sweep_done(m, args):
            c("transport.sweep_calls")
            c("transport.sweep_entries", m.values.size)

        def csv_done(_, args):
            c("transport.csv_bytes", os.path.getsize(args[1]))

        def reading_done(_, args):
            c("transport.readings")

        def flags_done(flags, args):
            c("planning.flag_passes")
            c("planning.flag_entries", flags.size)

        def cover_done(sol, args):
            c("planning.cover_size", len(sol.chosen))
            c("planning.covered_states", len(sol.covered))

        def greedy_done(sol, args):
            c("planning.greedy_steps", len(sol.chosen))
            cover_done(sol, args)

        def heatmaps_done(paths, args):
            c("heatmaps.files", len(paths))
            c("heatmaps.bytes", sum(os.path.getsize(p) for p in paths))

        def search_done(res, args):
            c("inference.queries")
            c("inference.candidates", len(res.candidates))
            c("inference.no_solution", int(res.no_solution))
            self._vectors[self.cmd].add(args[0].contributions)

        def fuse_done(_, args):
            c("inference.fused_trials")

        def samples_done(log, args):
            c("ingest.samples", len(log.samples))

        def baselines_done(table, args):
            c("ingest.baselines", len(table.cells))

        plan = [
            (scene, "build_grid", "scene.grid", grid_done, False),
            (cli, "build_grid", "scene.grid", grid_done, False),
            (cli, "load_scene", "scene.load", None, False),
            (cli, "enumerate_door_states", "scene.door_states", states_done, False),
            (transport, "enumerate_door_states", "scene.door_states", states_done, False),
            (cli, "sweep", "transport.sweep", sweep_done, False),
            (cli, "write_matrix_csv", "transport.csv_write", csv_done, False),
            (cli, "reading", "transport.reading", reading_done, False),
            (planning, "distinctness_flags_batch", "planning.flags", flags_done, True),
            (cli, "heatmap_scores", "planning.heatmap_scores", None, False),
            (cli, "build_cover_instance", "planning.cover_build", None, True),
            (cli, "restrict_cover_instance", "planning.restrict", None, False),
            (cli, "greedy_set_cover", "planning.greedy", greedy_done, False),
            (cli, "exact_min_cover", "planning.exact", cover_done, False),
            (cli, "write_heatmap_set", "heatmaps.write", heatmaps_done, False),
            (cli, "infer_reading", "inference.search", search_done, False),
            (ingest, "infer_reading", "inference.search", search_done, False),
            (cli, "sensor_votes", "inference.votes", None, False),
            (cli, "fuse_votes", "inference.fuse", fuse_done, False),
            (ingest, "read_samples_csv", "ingest.read", samples_done, False),
            (ingest, "read_commands_csv", "ingest.read", None, False),
            (ingest, "extract_baselines", "ingest.extract", baselines_done, False),
            (ingest, "calibrate_contributions", "ingest.calibrate", None, False),
            (ingest, "evaluate_locations", "ingest.evaluate", None, False),
            (ingest, "write_accuracy_csv", "ingest.write", None, False),
        ] + [(cli, f"cmd_{cmd}", f"cli.{cmd}", None, False)
             for cmd in ("simulate", "heatmap", "solve_cover", "infer", "ingest")]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in plan]
        try:
            for mod, attr, name, after, memory in plan:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), after, memory))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def command_totals(self, cmds: range) -> dict[str, float]:
        """Self time per span name, counts, memory peaks and distinct query
        vectors, summed over the given commands."""
        out: Counter = Counter()
        peaks: dict[str, float] = {}
        for s in self.spans:
            if s.cmd in cmds:
                out[s.name + "_s"] += s.self_s
                if s.peak_mb is not None:
                    key = s.name + "_peak_mb"
                    peaks[key] = max(peaks.get(key, 0.0), s.peak_mb)
        for k in cmds:
            out.update(self.counts[k])
            out["inference.distinct_vectors"] += len(self._vectors[k])
        out.update(peaks)
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "cmd": s.cmd, "self_s": s.self_s, "peak_mb": s.peak_mb}
                      for s in self.spans],
            "counts": [dict(c) for c in self.counts],
        }
