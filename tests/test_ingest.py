"""Log reduction: baselines, calibration, and accuracy scoring round trips."""
import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxplan import (
    DecodeBatch,
    LightConfig,
    calibrate_contributions,
    evaluate_locations,
    extract_baselines,
    fuse_votes,
    infer_reading,
    jaccard_accuracy,
    sensor_votes,
    synthesize_logs,
)
from luxplan import ingest
from luxplan.ingest import (
    BaselineCell,
    BaselineTable,
    CalibratedContributions,
    CommandLog,
    FLAG_NO_SAMPLES,
    FLAG_SHORT,
    LUX_MAX,
    LUX_MIN,
    LocationAccuracy,
    Sample,
    SampleLog,
    _window_mean,
    accuracy_table_csv,
    read_commands_csv,
    read_samples_csv,
    write_commands_csv,
    write_samples_csv,
)
from luxplan.transport import ContributionVector


def command_log(*rows):
    """A CommandLog of (t, bitmask) rows."""
    t, bitmask = zip(*rows) if rows else ((), ())
    return CommandLog(np.array(t, dtype=float), np.array(bitmask, dtype=np.int64))


def constant_log(location="s0", lux=100.0, rate=4.7, duration=10.0):
    n = int(duration * rate)
    return SampleLog.from_samples([Sample(t=j / rate, location=location, lux=lux) for j in range(n)])


class TestLogs:
    def test_lux_range_enforced(self):
        with pytest.raises(ValueError, match="lux"):
            SampleLog.from_samples([Sample(t=0.0, location="s0", lux=-1.0)])
        with pytest.raises(ValueError, match="lux"):
            SampleLog.from_samples([Sample(t=0.0, location="s0", lux=88_001.0)])
        SampleLog.from_samples([Sample(t=0.0, location="s0", lux=88_000.0)])  # ceiling is valid

    def test_timestamps_nondecreasing_per_location(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SampleLog.from_samples([
                Sample(t=1.0, location="s0", lux=1.0),
                Sample(t=0.5, location="s0", lux=1.0),
            ])
        # interleaved locations may rewind relative to each other
        SampleLog.from_samples([
            Sample(t=1.0, location="s0", lux=1.0),
            Sample(t=0.5, location="s1", lux=1.0),
        ])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            SampleLog.from_samples([Sample(t=t, location="s0", lux=1.0)])

    def test_command_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            command_log((0.0, 0), (0.0, 1))

    def test_command_columns_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            CommandLog(np.array([0.0, 7.0]), np.array([0]))
        with pytest.raises(ValueError, match="equal length"):
            CommandLog(np.zeros((1, 1)), np.zeros((1, 1), dtype=np.int64))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_timestamp_rejected(self, t):
        # every comparison with nan is false, so "strictly increasing" alone
        # lets a nan through, and its window would read as no_samples
        with pytest.raises(ValueError, match="command timestamp .* not a finite number"):
            command_log((0.0, 0), (t, 1), (14.0, 2))

    def test_first_bad_row_is_reported(self):
        # the columns are checked at once, but the message is the one a
        # row-by-row check in file order gives
        rows = [Sample(1.0, "a", 1.0), Sample(2.0, "b", 1.0), Sample(1.0, "b", -3.0),
                Sample(0.5, "a", 1.0), Sample(math.nan, "c", 1.0)]
        with pytest.raises(ValueError, match=r"^lux -3.0 outside"):
            SampleLog.from_samples(rows)
        with pytest.raises(ValueError, match="timestamps for 'a' must be nondecreasing"):
            SampleLog.from_samples(rows[:2] + rows[3:])
        with pytest.raises(ValueError, match="timestamp nan is not a finite number"):
            SampleLog.from_samples(rows[:2] + rows[4:])

    def test_columns_code_locations_in_first_appearance_order(self):
        log = SampleLog.from_samples([Sample(0.0, "b", 1.0), Sample(0.0, "a", 2.0),
                                      Sample(1.0, "b", 3.0)])
        assert log.names == ("b", "a") and log.locations == ["b", "a"]
        assert log.code.tolist() == [0, 1, 0]
        assert log.end_time == 1.0
        assert len(log.samples) == 3 and log.samples[2] == Sample(1.0, "b", 3.0)
        assert SampleLog.from_samples([]).end_time == -math.inf

    def test_csv_round_trip(self, tmp_path):
        samples = constant_log(duration=2.0)
        commands = command_log((0.0, 5))
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        assert read_samples_csv(tmp_path / "s.csv").samples == samples.samples
        back = read_commands_csv(tmp_path / "c.csv")
        assert back.t.tolist() == commands.t.tolist()
        assert back.bitmask.tolist() == commands.bitmask.tolist()

    def test_noisy_synthetic_log_round_trips(self, tmp_path):
        samples, commands = synthesize_logs({"a": [10, 20]}, [0, 1, 2, 3], sigma=0.05)
        assert {type(s.lux) for s in samples.samples} == {float}
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        assert read_samples_csv(tmp_path / "s.csv").samples == samples.samples
        back = read_commands_csv(tmp_path / "c.csv")
        assert back.t.tolist() == commands.t.tolist()
        assert back.bitmask.tolist() == commands.bitmask.tolist()

    def test_quoted_location_with_comma_round_trips(self, tmp_path):
        samples, _ = synthesize_logs({"hall, east": [10.0], 'say "hi"': [5.0]}, [0, 1], sigma=0.05)
        write_samples_csv(samples, tmp_path / "s.csv")
        back = read_samples_csv(tmp_path / "s.csv")
        assert back.names == ("hall, east", 'say "hi"')
        assert back.t.tolist() == samples.t.tolist() and back.lux.tolist() == samples.lux.tolist()

    @pytest.mark.parametrize("location", [b"a\0b", b"x" * (csv.field_size_limit() + 1), b"\xff"],
                             ids=["nul", "oversized", "not-utf8"])
    def test_nul_oversized_and_undecodable_fields_read_as_csv_reads_them(self, tmp_path, location):
        # csv.reader's own rules decide these: depending on the Python
        # version a NUL is accepted or raises csv.Error, a field over the
        # size limit raises csv.Error, and bad UTF-8 fails while decoding.
        # luxplan raises each as a ValueError naming the file, and for a
        # row its line
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,location,lux\n0.0," + location + b",1.0\n")

        def outcome(read):
            try:
                return read(path)
            except csv.Error as exc:
                return repr(ValueError(f"{path}: line 2: {exc}"))
            except UnicodeDecodeError as exc:
                return repr(ValueError(f"{path}: {exc}"))
            except ValueError as exc:
                return repr(exc)

        want = outcome(rowwise_read_samples)
        got = outcome(read_samples_csv)
        if not isinstance(want, str):
            got = list(zip(got.t.tolist(), [got.names[c] for c in got.code.tolist()], got.lux.tolist()))
        assert got == want

    @pytest.mark.parametrize("text, line, message", [
        ("t,location,lux\n0.0,a,1.0\n1.0,a,nan\n", 3, "lux nan outside [0.0, 88000.0]"),
        ("t,location,lux\n0.0,a,1.0\n\ninf,b,1.0\n", 4, "timestamp inf is not a finite number"),
        ("t,location,lux\n2.0,a,1.0\n1.0,b,1.0\n1.5,a,1.0\n", 4,
         "timestamps for 'a' must be nondecreasing"),
        # the first bad row in file order, whatever rule it breaks
        ("t,location,lux\n0.0,a,-1.0\n1.0,a,dim\n", 2, "lux -1.0 outside [0.0, 88000.0]"),
    ])
    def test_sample_value_errors_name_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "s.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as got:
            read_samples_csv(path)
        assert str(got.value) == f"{path}: line {line}: {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("t,bitmask\n0.0,1\n0.0,2\n", 3, "command timestamps must be strictly increasing"),
        ("t,bitmask\n0.0,1\nnan,2\n", 3, "command timestamp nan is not a finite number"),
        ("t,bitmask\n0.0,1\n7.0,-2\n", 3, "config bitmask must be nonnegative"),
        ("t,bitmask\n0.0,-1\n-1.0,x\n", 2, "config bitmask must be nonnegative"),
    ])
    def test_command_value_errors_name_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as got:
            read_commands_csv(path)
        assert str(got.value) == f"{path}: line {line}: {message}"

    def test_csv_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,loc,value\n0,a,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_samples_csv(bad)
        with pytest.raises(ValueError, match="header"):
            read_commands_csv(bad)


class TestExtractBaselines:
    def test_constant_signal(self):
        samples = constant_log(lux=100.0)
        commands = command_log((0.0, 3))
        table = extract_baselines(samples, commands)
        cell = table.cell("s0", 3)
        assert cell.mean == 100.0
        assert cell.stddev == 0.0
        assert cell.flag == ""

    def test_window_at_sensor_rate_collects_fourteen_samples(self):
        # 3 s averaged at 4.7 Hz
        samples = constant_log(lux=50.0, rate=4.7, duration=8.6)
        commands = command_log((0.0, 0))
        table = extract_baselines(samples, commands, settle=3.0, window=3.0)
        assert table.cell("s0", 0).count == 14

    def test_settle_discards_the_ramp(self):
        ramp = [Sample(t=0.1 * j, location="s0", lux=2.0 * j) for j in range(30)]  # t < 3
        plateau = [Sample(t=3.0 + 0.1 * j, location="s0", lux=42.5) for j in range(40)]
        samples = SampleLog.from_samples(ramp + plateau)
        commands = command_log((0.0, 1))
        table = extract_baselines(samples, commands)
        cell = table.cell("s0", 1)
        assert cell.mean == 42.5
        assert cell.stddev == 0.0

    def test_short_interval_flagged_not_averaged_silently(self):
        samples = constant_log(duration=20.0)
        commands = command_log((0.0, 0), (4.0, 1))  # first interval: 4 s < settle + window
        table = extract_baselines(samples, commands)
        assert table.cell("s0", 0).flag == FLAG_SHORT
        assert table.cell("s0", 1).flag == ""

    def test_empty_window_flagged(self):
        samples = SampleLog.from_samples([Sample(t=0.0, location="s0", lux=1.0)])
        commands = command_log((0.0, 0))
        table = extract_baselines(samples, commands)
        assert table.cell("s0", 0).flag == FLAG_NO_SAMPLES

    def test_parameter_validation(self):
        samples = constant_log()
        commands = command_log((0.0, 0))
        with pytest.raises(ValueError):
            extract_baselines(samples, commands, settle=-1.0)
        with pytest.raises(ValueError):
            extract_baselines(samples, commands, window=0.0)
        with pytest.raises(ValueError):
            extract_baselines(samples, command_log())
        for settle, window in [(math.nan, 3.0), (math.inf, 3.0), (3.0, math.nan), (3.0, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                extract_baselines(samples, commands, settle=settle, window=window)

    def test_locations_and_configs_group_the_cells(self):
        keys = [("b", 3), ("a", 1), ("b", 0), ("a", 4), ("b", 2)]
        table = BaselineTable(cells={k: BaselineCell(mean=1.0, count=1, stddev=0.0) for k in keys},
                              settle=0.0, window=1.0)
        assert table.locations == ["b", "a"]
        assert table.configs("b") == [0, 2, 3] and table.configs("a") == [1, 4]
        assert table.configs("c") == []
        table.configs("a").append(9)  # a caller's list is its own
        assert table.configs("a") == [1, 4]


def scanned_baselines(samples, commands, settle, window):
    """Baseline cells by scanning every sample for every command."""
    cmds, end = list(zip(commands.t.tolist(), commands.bitmask.tolist())), samples.end_time
    collected, flags = {}, {}
    for k, (t, p) in enumerate(cmds):
        interval_end = cmds[k + 1][0] if k + 1 < len(cmds) else end
        lo, hi = t + settle, t + settle + window
        for loc in samples.locations:
            key = (loc, p)
            collected.setdefault(key, []).extend(
                s.lux for s in samples.samples if s.location == loc and lo <= s.t < min(hi, interval_end))
            if interval_end < hi:
                flags[key] = FLAG_SHORT
    out = {}
    for key, vals in collected.items():
        if vals:
            mean, std = _window_mean(vals)
            out[key] = (mean, len(vals), std, flags.get(key, ""))
        else:
            out[key] = (math.nan, 0, math.nan, FLAG_NO_SAMPLES)
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bisected_windows_equal_a_full_scan(data):
    # half-second timestamps put samples exactly on window edges, repeat
    # timestamps within a location, and repeat commanded configurations
    halves = st.integers(min_value=0, max_value=60).map(lambda k: k / 2.0)
    samples = []
    for loc in ("a", "b", "c")[:data.draw(st.integers(min_value=1, max_value=3))]:
        times = sorted(data.draw(st.lists(halves, min_size=1, max_size=40)))
        samples += [Sample(t=t, location=loc, lux=data.draw(st.floats(min_value=0, max_value=500)))
                    for t in times]
    times = sorted(set(data.draw(st.lists(halves, min_size=1, max_size=8))))
    commands = command_log(*[
        (t, data.draw(st.integers(min_value=0, max_value=3))) for t in times])
    settle = data.draw(halves) / 4
    window = data.draw(halves) / 4 + 0.5
    log = SampleLog.from_samples(samples)
    table = extract_baselines(log, commands, settle=settle, window=window)
    got = {k: (c.mean, c.count, c.stddev, c.flag) for k, c in table.cells.items()}
    assert repr(got) == repr(scanned_baselines(log, commands, settle, window))


def rowwise_read_samples(path):
    """(t, location, lux) rows of a samples file, read and checked one row
    at a time with csv.reader: the first row that does not parse or breaks
    a value rule names its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])] != ["t", "location", "lux"]:
            raise ValueError(f"{path}: expected header 't,location,lux'")
        rows, last_t = [], {}
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {len(row)}")
                t, location, lux = float(row[0]), row[1], float(row[2])
                if not math.isfinite(t):
                    raise ValueError(f"timestamp {t} is not a finite number")
                if not LUX_MIN <= lux <= LUX_MAX:
                    raise ValueError(f"lux {lux} outside [{LUX_MIN}, {LUX_MAX}]")
                if location in last_t and t < last_t[location]:
                    raise ValueError(f"timestamps for {location!r} must be nondecreasing")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            last_t[location] = t
            rows.append((t, location, lux))
    return rows


@st.composite
def sample_files(draw):
    """Text of a samples file: interleaved locations, blank lines, mixed line
    ends and quoted names with commas; half the files also get one or two
    faults, such as a row of the wrong width or a bad, non-finite,
    out-of-range or rewinding value."""
    header = draw(st.sampled_from(["t,location,lux"] * 8 + [" t , location,lux ", '"t",location,lux',
                                                             "t,loc,lux", ""]))
    names = ["a", "b", " a", "g h", "5"] + draw(st.sampled_from([[], ['"c,d"', '"e""f"', '"a"']]))
    rows, clock = [], 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        clock += draw(st.sampled_from([0.0, 0.25, 1.5]))
        location = draw(st.sampled_from(names))
        rows.append([repr(clock), location, draw(st.sampled_from(["1.5", "0", "88000", " 3e2"]))])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        if len(row) != 3:
            continue
        fault = draw(st.sampled_from(["rewind", "t", "lux", "short", "long", "space"]))
        if fault == "rewind":
            row[0] = "-1.0"
        elif fault == "t":
            row[0] = draw(st.sampled_from(["nan", "inf", "-inf", "x", "", "1_0"]))
        elif fault == "lux":
            row[2] = draw(st.sampled_from(["88000.5", "-0.5", "nan", "dim", ""]))
        elif fault == "short":
            del row[draw(st.integers(min_value=1, max_value=2)):]
        elif fault == "long":
            row.append("7")
        else:
            row[:] = [" "]
    lines = [header]
    for row in rows:
        lines += [""] * draw(st.integers(min_value=0, max_value=1)) + [",".join(row)]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@given(text=sample_files())
@example(text="t,location,lux\n1.0,a,1.5,7\n2.0,5\n")  # a long and a short row that realign
@settings(max_examples=400, deadline=None)
def test_columnar_reader_equals_the_rowwise_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "samples.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    try:
        want = rowwise_read_samples(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_samples_csv(path)
        assert str(got.value) == str(exc)
        return
    log = read_samples_csv(path)
    got = list(zip(log.t.tolist(), [log.names[c] for c in log.code.tolist()], log.lux.tolist()))
    assert repr(got) == repr(want)
    assert log.locations == list(dict.fromkeys(location for _, location, _ in want))


def rowwise_synthesize(contributions_by_location, config_indices, dwell=7.0, rate_hz=4.7,
                       sigma=0.0, seed=0, ambient=0.0):
    """synthesize_logs's samples as (t, location, lux), one sample at a time,
    as luxplan built them before a log became columns."""
    total = dwell * (len(config_indices) + 1)
    n_samples = int(math.ceil(total * rate_hz))
    rows = []
    for loc_index, (location, x) in enumerate(contributions_by_location.items()):
        x = np.asarray(x, dtype=float)
        bases = [ambient + math.fsum(x[i] for i in LightConfig.from_index(p, x.shape[0]).on_indices)
                 for p in config_indices]
        rng = np.random.default_rng(np.random.SeedSequence((seed, loc_index)))
        z = rng.standard_normal(n_samples)
        for j in range(n_samples):
            t = j / rate_hz
            base = bases[min(int(t // dwell), len(config_indices) - 1)]
            lux = base + sigma * z[j] if sigma > 0 else base
            rows.append((t, location, float(min(max(lux, LUX_MIN), LUX_MAX))))
    return rows


@pytest.mark.parametrize("kwargs", [
    {},
    {"sigma": 0.05, "seed": 3},
    {"sigma": 40.0, "seed": 5, "ambient": 2.5},  # clamps at zero
    {"sigma": 0.3, "dwell": 6.5, "rate_hz": 5.3, "ambient": 1.0},
    {"sigma": 1.0, "dwell": 0.7, "rate_hz": 9.1},
])
def test_synthesized_columns_equal_the_per_sample_loop(kwargs):
    contributions = {"a": [10.0, 20.0, 40.0], "b, east": [4.0, 0.0, 30.0], "c": [0.1, 0.2, 0.3]}
    configs = [0, 5, 1, 7, 2, 2, 3]
    samples, _ = synthesize_logs(contributions, configs, **kwargs)
    got = list(zip(samples.t.tolist(), [samples.names[c] for c in samples.code.tolist()],
                   samples.lux.tolist()))
    assert repr(got) == repr(rowwise_synthesize(contributions, configs, **kwargs))


class TestCalibration:
    def test_background_subtraction(self):
        x = np.array([50.0, 20.0])
        samples, commands = synthesize_logs({"s0": x}, config_indices=[0, 1, 2], ambient=5.0)
        table = extract_baselines(samples, commands)
        calib = calibrate_contributions(table, "s0")
        assert calib.values == pytest.approx([50.0, 20.0])
        assert calib.clamped == ()

    def test_negative_estimate_clamped_and_flagged(self):
        samples = SampleLog.from_samples((
            [Sample(t=0.1 * j, location="s0", lux=10.0) for j in range(70)]
            + [Sample(t=7.0 + 0.1 * j, location="s0", lux=8.0) for j in range(71)]
        ))
        commands = command_log((0.0, 0), (7.0, 1))
        table = extract_baselines(samples, commands)
        calib = calibrate_contributions(table, "s0")
        assert calib.values[0] == 0.0
        assert calib.clamped == (0,)

    def test_missing_single_light_baseline_rejected(self):
        samples = constant_log()
        commands = command_log((0.0, 0))
        table = extract_baselines(samples, commands)
        with pytest.raises(ValueError, match="missing"):
            calibrate_contributions(table, "s0")

    def test_round_trip_recovers_generator_exactly(self):
        x = np.array([12.0, 7.5, 3.25, 30.0])
        samples, commands = synthesize_logs({"s0": x}, config_indices=list(range(16)))
        table = extract_baselines(samples, commands)
        calib = calibrate_contributions(table, "s0")
        assert list(calib.values) == list(x)  # noiseless windows are exact


class TestEvaluate:
    def test_noiseless_separated_sums_score_one(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        samples, commands = synthesize_logs({"s0": x}, config_indices=list(range(16)))
        table = extract_baselines(samples, commands)
        calib = {"s0": calibrate_contributions(table, "s0")}
        summaries = evaluate_locations(table, calib, epsilon=0.01)
        assert len(summaries) == 1
        s = summaries[0]
        assert s.n == 16
        assert s.mean == 1.0 and s.median == 1.0 and s.minimum == 1.0

    def test_ambiguous_sums_score_below_one(self):
        x = np.array([2.0, 3.0, 4.0, 5.0])  # two pairs share the sum 7
        samples, commands = synthesize_logs({"s0": x}, config_indices=list(range(16)))
        table = extract_baselines(samples, commands)
        calib = {"s0": calibrate_contributions(table, "s0")}
        s = evaluate_locations(table, calib, epsilon=0.01)[0]
        assert s.mean < 1.0
        assert s.maximum == 1.0

    def test_median_accuracy_nonincreasing_in_sigma(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        medians = []
        for sigma in (0.0, 0.1, 0.3, 1.0, 3.0):
            samples, commands = synthesize_logs(
                {"s0": x}, config_indices=list(range(16)), sigma=sigma, seed=123,
            )
            table = extract_baselines(samples, commands)
            calib = {"s0": calibrate_contributions(table, "s0")}
            medians.append(evaluate_locations(table, calib, epsilon=0.25)[0].median)
        assert medians[0] == 1.0
        assert all(a >= b for a, b in zip(medians, medians[1:]))
        assert medians[-1] < 1.0

    def test_accuracy_csv_shape(self):
        x = np.array([1.0, 2.0])
        samples, commands = synthesize_logs({"a": x, "b": x}, config_indices=[0, 1, 2, 3])
        table = extract_baselines(samples, commands)
        calib = {loc: calibrate_contributions(table, loc) for loc in table.locations}
        text = accuracy_table_csv(evaluate_locations(table, calib, epsilon=0.01))
        lines = text.strip().splitlines()
        assert lines[0] == "location,min,q1,median,mean,q3,max,n"
        assert len(lines) == 3


def per_location_evaluation(table, calibrations, epsilon):
    """evaluate_locations as one DecodeBatch per location, in dict order,
    each checked before the next is read."""
    out = []
    for location, calib in calibrations.items():
        off = table.cell(location, 0)
        if off is None or off.flag:
            raise ValueError(f"{location!r}: missing or flagged all-off baseline")
        cells = [(p, table.cell(location, p)) for p in table.configs(location)]
        truths = [p for p, cell in cells if not cell.flag]
        targets = [cell.mean - off.mean for _, cell in cells if not cell.flag]
        if not truths:
            raise ValueError(f"{location!r}: no usable baselines to evaluate")
        if truths[-1] >> calib.n:
            raise ValueError(f"config index {truths[-1]} out of range for {calib.n} luminaires")
        batch = DecodeBatch((tuple(calib.values.tolist()),), np.zeros(len(targets), np.intp),
                            np.array(targets), epsilon)
        arr = infer_reading(batch, truth=np.array(truths, dtype=np.int64)).accuracy
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        out.append(LocationAccuracy(location, tuple(arr.tolist()), float(arr.min()), float(q1),
                                    float(med), float(arr.mean()), float(q3), float(arr.max())))
    return out


def mixed_locations():
    """A table of noisy logs at five locations, two of them with three
    luminaires and three with four, and their calibrations, the counts
    interleaved in dict order."""
    four = {"a": [12.1, 7.3, 3.7, 30.9], "b, east": [4.4, 11.7, 29.3, 0.0], "d": [5.5, 5.5, 11.0, 2.2]}
    three = {"c": [10.3, 20.6, 41.2], "e": [1.9, 2.9, 4.9]}
    cells = {}
    for contributions, n in ((four, 4), (three, 3)):
        samples, commands = synthesize_logs(contributions, list(range(1 << n)) * 2, sigma=0.07,
                                            seed=n)
        cells.update(extract_baselines(samples, commands).cells)
    table = BaselineTable(cells=cells, settle=3.0, window=3.0)
    calib = {loc: calibrate_contributions(table, loc) for loc in ("a", "c", "b, east", "e", "d")}
    return table, calib


class TestEvaluateBatch:
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3])
    def test_one_batch_per_count_equals_one_batch_per_location(self, epsilon, monkeypatch):
        table, calib = mixed_locations()
        want = per_location_evaluation(table, calib, epsilon)
        batches = []
        monkeypatch.setattr(ingest, "infer_reading",
                            lambda batch, truth: batches.append(batch) or infer_reading(batch, truth))
        got = evaluate_locations(table, calib, epsilon)
        assert got == want
        assert [len(b.contributions) for b in batches] == [3, 2]
        assert [s.location for s in got] == list(calib)
        assert min(s.mean for s in got) < 1.0

    @pytest.mark.parametrize("faults", [
        {"b, east": "negative", "e": "no off"},
        {"b, east": "no off", "e": "negative"},
        {"c": "range", "d": "nan target"},
        {"c": "nan target", "a": "range"},
        {"d": "no off"},
        {"e": "negative"},
    ])
    def test_the_first_bad_location_raises_its_own_error(self, faults):
        table, calib = mixed_locations()
        for location, fault in faults.items():
            if fault == "negative":
                calib[location].values[1] = -1.0
            elif fault == "no off":
                del table.cells[(location, 0)]
            elif fault == "range":
                calib[location] = CalibratedContributions(location, calib[location].values[:2])
            else:
                table.cells[(location, 3)].mean = math.nan
        with pytest.raises(ValueError) as want:
            per_location_evaluation(table, calib, 0.05)
        with pytest.raises(ValueError) as got:
            evaluate_locations(table, calib, 0.05)
        assert str(got.value) == str(want.value)


class TestFusion:
    def test_two_partial_sensors_beat_either_alone(self, apartment_matrix):
        # both hall cells sit where one luminaire pair's contributions
        # coincide, but they disagree on which pair, so voting untangles it
        x_a = apartment_matrix.vector_at(870, 8)
        x_b = apartment_matrix.vector_at(1229, 8)
        n = x_a.n

        def accuracies(vectors):
            # every configuration is one trial, read by each sensor
            truths = np.arange(1 << n)
            single, votes = [], []
            for x in vectors:
                targets = [math.fsum(x.values[i] for i in LightConfig.from_index(p, n).on_indices)
                           for p in range(1 << n)]
                batch = DecodeBatch((tuple(x.values.tolist()),), np.zeros(1 << n, np.intp),
                                    targets, 0.001)
                res = infer_reading(batch, truth=truths)
                single.append(float(np.mean(res.accuracy)))
                votes.append(sensor_votes(batch, res))
            fused = fuse_votes(np.concatenate(votes), np.tile(truths, len(vectors)))
            fused_acc = [jaccard_accuracy(LightConfig.from_index(p, n), [int(f)])
                         for p, f in enumerate(fused)]
            return single, float(np.mean(fused_acc))

        singles, fused = accuracies([x_a, x_b])
        assert max(singles) < 1.0
        assert fused >= max(singles)
