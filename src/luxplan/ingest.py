"""Turn raw deployment logs into calibrated contributions and accuracy stats.

Inputs are two CSV logs: lux samples (t, location, lux) and light-switch
commands (t, bitmask). After each command the system waits out a settle
period, then averages a fixed window of samples to get one baseline per
(location, configuration) cell. Baselines for the all-off and each
single-light configuration calibrate the per-luminaire contributions; the
remaining baselines become perfect-sum queries whose answers are scored
against the commanded configuration.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .csvcolumns import Column, Rule, coded, csv_text, first_problem, read_columns
from .inference import DecodeBatch, _validate, infer_reading
from .transport import LightConfig

LUX_MIN = 0.0
LUX_MAX = 88_000.0  # sensor saturation ceiling

DEFAULT_SETTLE = 3.0  # seconds ignored after each command
DEFAULT_WINDOW = 3.0  # seconds averaged after the settle period

FLAG_OK = ""
FLAG_SHORT = "short_interval"
FLAG_NO_SAMPLES = "no_samples"

SAMPLES_HEADER = ["t", "location", "lux"]


@dataclass(frozen=True)
class Sample:
    t: float
    location: str
    lux: float


def _sample_rules(t: np.ndarray, code: np.ndarray, lux: np.ndarray,
                  names: tuple[str, ...]) -> list[Rule]:
    """The rules each sample row keeps, in the order they are checked: a
    finite time, a lux within [LUX_MIN, LUX_MAX], and no rewind, a time
    below the one before it at its location."""
    order = code.argsort(kind="stable")
    at = code[order]
    rewind = np.zeros(t.size, dtype=bool)
    rewind[order[1:][(at[1:] == at[:-1]) & (t[order[1:]] < t[order[:-1]])]] = True
    return [
        (~np.isfinite(t), lambda i: f"timestamp {t[i].item()} is not a finite number"),
        (~((lux >= LUX_MIN) & (lux <= LUX_MAX)),
         lambda i: f"lux {lux[i].item()} outside [{LUX_MIN}, {LUX_MAX}]"),
        (rewind, lambda i: f"timestamps for {names[code[i]]!r} must be nondecreasing"),
    ]


def _command_rules(t: np.ndarray, bitmask: np.ndarray) -> list[Rule]:
    """The rules each command row keeps, in the order they are checked: a
    finite time, later than the row before's, and a nonnegative bitmask."""
    rewind = np.zeros(t.size, dtype=bool)
    rewind[1:] = t[1:] <= t[:-1]
    return [
        (~np.isfinite(t), lambda i: f"command timestamp {t[i].item()} is not a finite number"),
        (rewind, lambda i: "command timestamps must be strictly increasing"),
        (bitmask < 0, lambda i: "config bitmask must be nonnegative"),
    ]


@dataclass(eq=False)
class SampleLog:
    """Lux samples as columns: row i is lux[i] at time t[i] from location
    names[code[i]]; names are in first-appearance order."""

    t: np.ndarray
    code: np.ndarray
    lux: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.t.shape == self.code.shape == self.lux.shape == (self.t.size,):
            raise ValueError("sample columns must be 1-D and of equal length")
        problem = first_problem(_sample_rules(self.t, self.code, self.lux, self.names))
        if problem is not None:
            raise ValueError(problem[1])

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> SampleLog:
        samples = list(samples)
        names, code = coded([s.location for s in samples])
        return cls(np.array([s.t for s in samples], dtype=float), code,
                   np.array([s.lux for s in samples], dtype=float), names)

    @property
    def samples(self) -> list[Sample]:
        """The rows as Sample objects, built anew on each access; luxplan
        itself reads only the columns."""
        names = map(self.names.__getitem__, self.code.tolist())
        return list(map(Sample, self.t.tolist(), names, self.lux.tolist()))

    @property
    def locations(self) -> list[str]:
        return list(self.names)

    @property
    def end_time(self) -> float:
        return self.t.max().item() if self.t.size else -math.inf


@dataclass(eq=False)
class CommandLog:
    """Light-switch commands as columns: row i switches to configuration
    bitmask[i] at time t[i]."""

    t: np.ndarray
    bitmask: np.ndarray

    def __post_init__(self) -> None:
        if not self.t.shape == self.bitmask.shape == (self.t.size,):
            raise ValueError("command columns must be 1-D and of equal length")
        problem = first_problem(_command_rules(self.t, self.bitmask))
        if problem is not None:
            raise ValueError(problem[1])


@dataclass
class BaselineCell:
    mean: float
    count: int
    stddev: float
    flag: str = FLAG_OK


@dataclass
class BaselineTable:
    """Baselines per (location, configuration index).

    cells is grouped by location the first time locations or configs is
    read, and the grouping is kept: add no cell after that.
    """

    cells: dict[tuple[str, int], BaselineCell]
    settle: float
    window: float

    def cell(self, location: str, config_index: int) -> BaselineCell | None:
        return self.cells.get((location, config_index))

    @cached_property
    def _configs(self) -> dict[str, list[int]]:
        """Each location's ascending config indices, locations in
        first-appearance order; grouped in one pass over the cells."""
        grouped: dict[str, list[int]] = {}
        for loc, p in self.cells:
            grouped.setdefault(loc, []).append(p)
        return {loc: sorted(ps) for loc, ps in grouped.items()}

    @property
    def locations(self) -> list[str]:
        return list(self._configs)

    def configs(self, location: str) -> list[int]:
        return list(self._configs.get(location, ()))


@dataclass
class CalibratedContributions:
    location: str
    values: np.ndarray
    clamped: tuple[int, ...] = ()  # luminaire indices whose estimate went negative

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass
class LocationAccuracy:
    location: str
    accuracies: tuple[float, ...]
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float

    @property
    def n(self) -> int:
        return len(self.accuracies)


def _window_mean(values: list[float]) -> tuple[float, float]:
    """Mean and population stddev; a constant window averages exactly."""
    if min(values) == max(values):
        return values[0], 0.0
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def extract_baselines(
    samples: SampleLog,
    commands: CommandLog,
    settle: float = DEFAULT_SETTLE,
    window: float = DEFAULT_WINDOW,
) -> BaselineTable:
    """Average the post-settle window of each command interval.

    For command k at time t, samples in [t + settle, t + settle + window)
    from each location form the (location, config) cell. Intervals shorter
    than settle + window produce flagged cells rather than silent averages;
    the final interval ends at the last sample timestamp.
    """
    if not (0 <= settle < math.inf and 0 < window < math.inf):
        raise ValueError("settle must be finite and >= 0, window finite and > 0")
    if not commands.t.size:
        raise ValueError("command log is empty")
    cmd_t = commands.t
    interval_end = np.append(cmd_t[1:], samples.end_time)
    win_lo = cmd_t + settle
    win_hi = win_lo + window
    short = (interval_end < win_hi).tolist()
    win_end = np.minimum(win_hi, interval_end)
    # each location's rows in time order, and each command's window in them
    order = samples.code.argsort(kind="stable")
    bounds = samples.code[order].searchsorted(np.arange(len(samples.names) + 1)).tolist()
    per_loc = []
    for loc, a, b in zip(samples.names, bounds, bounds[1:]):
        times = samples.t[order[a:b]]
        per_loc.append((loc, samples.lux[order[a:b]].tolist(),
                        times.searchsorted(win_lo).tolist(), times.searchsorted(win_end).tolist()))

    collected: dict[tuple[str, int], list[float]] = {}
    flags: dict[tuple[str, int], str] = {}
    for k, p in enumerate(commands.bitmask.tolist()):
        for loc, lux, lo, hi in per_loc:
            key = (loc, p)
            collected.setdefault(key, []).extend(lux[lo[k]:hi[k]])
            if short[k]:
                flags[key] = FLAG_SHORT

    cells: dict[tuple[str, int], BaselineCell] = {}
    for key, vals in collected.items():
        if not vals:
            cells[key] = BaselineCell(mean=math.nan, count=0, stddev=math.nan, flag=FLAG_NO_SAMPLES)
            continue
        mean, std = _window_mean(vals)
        cells[key] = BaselineCell(mean=mean, count=len(vals), stddev=std, flag=flags.get(key, FLAG_OK))
    return BaselineTable(cells=cells, settle=settle, window=window)


def _infer_n(table: BaselineTable, location: str) -> int:
    configs = table.configs(location)
    if not configs:
        raise ValueError(f"no baselines for location {location!r}")
    return max(configs).bit_length() if max(configs) > 0 else 1


def calibrate_contributions(table: BaselineTable, location: str) -> CalibratedContributions:
    """Per-luminaire contribution at a location from its baselines.

    x_i = baseline(only light i) - baseline(all off), clamped at zero.
    Requires an unflagged all-off cell and one per single-light config.
    """
    n = _infer_n(table, location)
    off = table.cell(location, 0)
    if off is None or off.flag:
        raise ValueError(f"{location!r}: missing or flagged all-off baseline")
    values = np.zeros(n)
    clamped: list[int] = []
    for i in range(n):
        cell = table.cell(location, 1 << i)
        if cell is None or cell.flag:
            raise ValueError(f"{location!r}: missing or flagged baseline for light {i}")
        x = cell.mean - off.mean
        if x < 0:
            clamped.append(i)
            x = 0.0
        values[i] = x
    return CalibratedContributions(location=location, values=values, clamped=tuple(clamped))


def _location_queries(table: BaselineTable, location: str,
                      calib: CalibratedContributions) -> tuple[list[int], list[float]]:
    """A location's truths and targets: each unflagged baseline's config
    index, and its mean minus the location's all-off mean."""
    off = table.cell(location, 0)
    if off is None or off.flag:
        raise ValueError(f"{location!r}: missing or flagged all-off baseline")
    truths, targets = [], []
    for p in table.configs(location):
        cell = table.cell(location, p)
        if cell is None or cell.flag:
            continue
        truths.append(p)
        targets.append(cell.mean - off.mean)
    if not truths:
        raise ValueError(f"{location!r}: no usable baselines to evaluate")
    if truths[-1] >> calib.n:
        raise ValueError(f"config index {truths[-1]} out of range for {calib.n} luminaires")
    return truths, targets


def evaluate_locations(
    table: BaselineTable,
    calibrations: dict[str, CalibratedContributions],
    epsilon: float,
) -> list[LocationAccuracy]:
    """Score every unflagged baseline as a perfect-sum query.

    The query target is the cell mean minus the location's all-off mean
    (ambient light cancels out); truth is the commanded configuration.
    Summaries are ordered like the calibration dict.

    Each location is checked as it is gathered, in dict order, as a batch of
    its own would be. The locations of each luminaire count are then decoded
    as one DecodeBatch, one vector per location.
    """
    queries = []  # each location's (calibration, truths, targets), in dict order
    for location, calib in calibrations.items():
        truths, targets = _location_queries(table, location, calib)
        _validate(calib.values, np.array(targets), epsilon)
        queries.append((calib, truths, targets))
    accuracy: list[np.ndarray] = [np.zeros(0)] * len(queries)
    for n in dict.fromkeys(calib.n for calib, _, _ in queries):
        group = [j for j, (calib, _, _) in enumerate(queries) if calib.n == n]
        calibs, truths, targets = zip(*(queries[j] for j in group))
        counts = list(map(len, truths))
        batch = DecodeBatch(tuple(tuple(c.values.tolist()) for c in calibs),
                            np.repeat(np.arange(len(group)), counts),
                            np.concatenate(targets), epsilon)
        rows = infer_reading(batch, truth=np.concatenate(truths).astype(np.int64)).accuracy
        for j, arr in zip(group, np.split(rows, np.cumsum(counts)[:-1])):
            accuracy[j] = arr
    out: list[LocationAccuracy] = []
    for location, arr in zip(calibrations, accuracy):
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        out.append(LocationAccuracy(
            location=location,
            accuracies=tuple(arr.tolist()),
            minimum=float(arr.min()),
            q1=float(q1),
            median=float(med),
            mean=float(arr.mean()),
            q3=float(q3),
            maximum=float(arr.max()),
        ))
    return out


def _log_columns(path: str | Path, names: list[str],
                 parsers: tuple[type, ...]) -> Callable[[list[str]], list[Column]]:
    """The read_columns spec of a log whose header, stripped, is names."""
    def spec(header: list[str]) -> list[Column]:
        if [c.strip() for c in header] != names:
            raise ValueError(f"{path}: expected header {','.join(names)!r}")
        return list(map(Column, range(len(names)), parsers))
    return spec


def read_samples_csv(path: str | Path) -> SampleLog:
    """Read a 't,location,lux' log. A row that does not parse, or that
    breaks a SampleLog rule, raises ValueError naming the file and line of
    the first such row."""
    table = read_columns(path, _log_columns(path, SAMPLES_HEADER, (float, str, float)))
    t, locations, lux = table.values
    names, code = coded(locations)
    table.check(table.failed + _sample_rules(t, code, lux, names))
    return SampleLog(t, code, lux, names)


def read_commands_csv(path: str | Path) -> CommandLog:
    """Read a 't,bitmask' log. A row that does not parse, or that breaks a
    CommandLog rule, raises ValueError naming the file and line of the
    first such row."""
    table = read_columns(path, _log_columns(path, ["t", "bitmask"], (float, int)))
    t, bitmask = table.values
    table.check(table.failed + _command_rules(t, bitmask))
    return CommandLog(t, bitmask)


def write_samples_csv(log: SampleLog, path: str | Path) -> None:
    names = map(log.names.__getitem__, log.code.tolist())
    Path(path).write_text(csv_text(SAMPLES_HEADER, zip(
        map(repr, log.t.tolist()), names, map(repr, log.lux.tolist()))), encoding="utf-8")


def write_commands_csv(log: CommandLog, path: str | Path) -> None:
    Path(path).write_text(csv_text(["t", "bitmask"], zip(
        map(repr, log.t.tolist()), map(str, log.bitmask.tolist()))), encoding="utf-8")


def accuracy_table_csv(summaries: list[LocationAccuracy]) -> str:
    return csv_text(["location", "min", "q1", "median", "mean", "q3", "max", "n"], (
        [s.location, *(f"{v:.6g}" for v in (s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum)),
         str(s.n)] for s in summaries))


def write_accuracy_csv(summaries: list[LocationAccuracy], path: str | Path) -> None:
    Path(path).write_text(accuracy_table_csv(summaries), encoding="utf-8")


def synthesize_logs(
    contributions_by_location: dict[str, np.ndarray],
    config_indices: list[int],
    dwell: float = 7.0,
    rate_hz: float = 4.7,
    sigma: float = 0.0,
    seed: int = 0,
    ambient: float = 0.0,
) -> tuple[SampleLog, CommandLog]:
    """Simulate a command sweep for experiments and round-trip tests.

    The noise term is sigma times a standard normal draw keyed by
    (seed, location, sample index) only, so sweeping sigma rescales one
    fixed noise realization instead of redrawing it. Samples cover whole
    command intervals; extract_baselines applies the settle period.
    """
    commands = CommandLog(np.arange(len(config_indices)) * dwell,
                          np.array(config_indices, dtype=np.int64))
    total = dwell * (len(config_indices) + 1)
    n_samples = int(math.ceil(total * rate_hz))
    t = np.arange(n_samples) / rate_hz
    interval = np.minimum(t // dwell, len(config_indices) - 1).astype(np.intp)
    lux = np.empty((len(contributions_by_location), n_samples))
    for loc_index, x in enumerate(contributions_by_location.values()):
        x = np.asarray(x, dtype=float)
        bases = [ambient + math.fsum(x[i] for i in LightConfig.from_index(p, x.shape[0]).on_indices)
                 for p in config_indices]
        lux[loc_index] = np.array(bases, dtype=float)[interval]
        if sigma > 0:
            rng = np.random.default_rng(np.random.SeedSequence((seed, loc_index)))
            lux[loc_index] += sigma * rng.standard_normal(n_samples)
    lux[lux < LUX_MIN] = LUX_MIN
    lux[lux > LUX_MAX] = LUX_MAX
    samples = SampleLog(t=np.tile(t, len(lux)), code=np.arange(len(lux)).repeat(n_samples),
                        lux=lux.ravel(), names=tuple(contributions_by_location))
    return samples, commands
