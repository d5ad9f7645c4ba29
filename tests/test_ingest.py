"""Log reduction: baselines, calibration, and accuracy scoring round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan import (
    LightConfig,
    PerfectSumQuery,
    calibrate_contributions,
    evaluate_locations,
    extract_baselines,
    fuse_votes,
    infer_reading,
    jaccard_accuracy,
    sensor_votes,
    synthesize_logs,
)
from luxplan.ingest import (
    Command,
    CommandLog,
    FLAG_NO_SAMPLES,
    FLAG_SHORT,
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


def constant_log(location="s0", lux=100.0, rate=4.7, duration=10.0):
    n = int(duration * rate)
    return SampleLog(samples=[Sample(t=j / rate, location=location, lux=lux) for j in range(n)])


class TestLogs:
    def test_lux_range_enforced(self):
        with pytest.raises(ValueError, match="lux"):
            SampleLog(samples=[Sample(t=0.0, location="s0", lux=-1.0)])
        with pytest.raises(ValueError, match="lux"):
            SampleLog(samples=[Sample(t=0.0, location="s0", lux=88_001.0)])
        SampleLog(samples=[Sample(t=0.0, location="s0", lux=88_000.0)])  # ceiling is valid

    def test_timestamps_nondecreasing_per_location(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SampleLog(samples=[
                Sample(t=1.0, location="s0", lux=1.0),
                Sample(t=0.5, location="s0", lux=1.0),
            ])
        # interleaved locations may rewind relative to each other
        SampleLog(samples=[
            Sample(t=1.0, location="s0", lux=1.0),
            Sample(t=0.5, location="s1", lux=1.0),
        ])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            SampleLog(samples=[Sample(t=t, location="s0", lux=1.0)])

    def test_command_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            CommandLog(commands=[Command(t=0.0, config_index=0), Command(t=0.0, config_index=1)])

    def test_csv_round_trip(self, tmp_path):
        samples = constant_log(duration=2.0)
        commands = CommandLog(commands=[Command(t=0.0, config_index=5)])
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        assert read_samples_csv(tmp_path / "s.csv").samples == samples.samples
        assert read_commands_csv(tmp_path / "c.csv").commands == commands.commands

    def test_noisy_synthetic_log_round_trips(self, tmp_path):
        samples, commands = synthesize_logs({"a": [10, 20]}, [0, 1, 2, 3], sigma=0.05)
        assert {type(s.lux) for s in samples.samples} == {float}
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        assert read_samples_csv(tmp_path / "s.csv").samples == samples.samples
        assert read_commands_csv(tmp_path / "c.csv").commands == commands.commands

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
        commands = CommandLog(commands=[Command(t=0.0, config_index=3)])
        table = extract_baselines(samples, commands)
        cell = table.cell("s0", 3)
        assert cell.mean == 100.0
        assert cell.stddev == 0.0
        assert cell.flag == ""

    def test_window_at_sensor_rate_collects_fourteen_samples(self):
        # 3 s averaged at 4.7 Hz
        samples = constant_log(lux=50.0, rate=4.7, duration=8.6)
        commands = CommandLog(commands=[Command(t=0.0, config_index=0)])
        table = extract_baselines(samples, commands, settle=3.0, window=3.0)
        assert table.cell("s0", 0).count == 14

    def test_settle_discards_the_ramp(self):
        ramp = [Sample(t=0.1 * j, location="s0", lux=2.0 * j) for j in range(30)]  # t < 3
        plateau = [Sample(t=3.0 + 0.1 * j, location="s0", lux=42.5) for j in range(40)]
        samples = SampleLog(samples=ramp + plateau)
        commands = CommandLog(commands=[Command(t=0.0, config_index=1)])
        table = extract_baselines(samples, commands)
        cell = table.cell("s0", 1)
        assert cell.mean == 42.5
        assert cell.stddev == 0.0

    def test_short_interval_flagged_not_averaged_silently(self):
        samples = constant_log(duration=20.0)
        commands = CommandLog(commands=[
            Command(t=0.0, config_index=0),
            Command(t=4.0, config_index=1),  # first interval: 4 s < settle + window
        ])
        table = extract_baselines(samples, commands)
        assert table.cell("s0", 0).flag == FLAG_SHORT
        assert table.cell("s0", 1).flag == ""

    def test_empty_window_flagged(self):
        samples = SampleLog(samples=[Sample(t=0.0, location="s0", lux=1.0)])
        commands = CommandLog(commands=[Command(t=0.0, config_index=0)])
        table = extract_baselines(samples, commands)
        assert table.cell("s0", 0).flag == FLAG_NO_SAMPLES

    def test_parameter_validation(self):
        samples = constant_log()
        commands = CommandLog(commands=[Command(t=0.0, config_index=0)])
        with pytest.raises(ValueError):
            extract_baselines(samples, commands, settle=-1.0)
        with pytest.raises(ValueError):
            extract_baselines(samples, commands, window=0.0)
        with pytest.raises(ValueError):
            extract_baselines(samples, CommandLog(commands=[]))


def scanned_baselines(samples, commands, settle, window):
    """Baseline cells by scanning every sample for every command."""
    cmds, end = commands.commands, samples.end_time
    collected, flags = {}, {}
    for k, cmd in enumerate(cmds):
        interval_end = cmds[k + 1].t if k + 1 < len(cmds) else end
        lo, hi = cmd.t + settle, cmd.t + settle + window
        for loc in samples.locations:
            key = (loc, cmd.config_index)
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
    commands = CommandLog(commands=[
        Command(t=t, config_index=data.draw(st.integers(min_value=0, max_value=3))) for t in times])
    settle = data.draw(halves) / 4
    window = data.draw(halves) / 4 + 0.5
    log = SampleLog(samples=samples)
    table = extract_baselines(log, commands, settle=settle, window=window)
    got = {k: (c.mean, c.count, c.stddev, c.flag) for k, c in table.cells.items()}
    assert repr(got) == repr(scanned_baselines(log, commands, settle, window))


class TestCalibration:
    def test_background_subtraction(self):
        x = np.array([50.0, 20.0])
        samples, commands = synthesize_logs({"s0": x}, config_indices=[0, 1, 2], ambient=5.0)
        table = extract_baselines(samples, commands)
        calib = calibrate_contributions(table, "s0")
        assert calib.values == pytest.approx([50.0, 20.0])
        assert calib.clamped == ()

    def test_negative_estimate_clamped_and_flagged(self):
        samples = SampleLog(samples=(
            [Sample(t=0.1 * j, location="s0", lux=10.0) for j in range(70)]
            + [Sample(t=7.0 + 0.1 * j, location="s0", lux=8.0) for j in range(71)]
        ))
        commands = CommandLog(commands=[Command(t=0.0, config_index=0), Command(t=7.0, config_index=1)])
        table = extract_baselines(samples, commands)
        calib = calibrate_contributions(table, "s0")
        assert calib.values[0] == 0.0
        assert calib.clamped == (0,)

    def test_missing_single_light_baseline_rejected(self):
        samples = constant_log()
        commands = CommandLog(commands=[Command(t=0.0, config_index=0)])
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


class TestFusion:
    def test_two_partial_sensors_beat_either_alone(self, apartment_matrix):
        # both hall cells sit where one luminaire pair's contributions
        # coincide, but they disagree on which pair, so voting untangles it
        x_a = apartment_matrix.vector_at(870, 8)
        x_b = apartment_matrix.vector_at(1229, 8)
        n = x_a.n

        def accuracies(vectors):
            single = [[] for _ in vectors]
            fused_acc = []
            for p in range(1 << n):
                truth = LightConfig.from_index(p, n)
                votes = []
                for s, x in enumerate(vectors):
                    k = math.fsum(x.values[i] for i in truth.on_indices)
                    res = infer_reading(
                        PerfectSumQuery.from_vector(x, target=k, epsilon=0.001),
                        truth=truth,
                    )
                    single[s].append(res.accuracy)
                    votes.append(sensor_votes(x, res.candidates))
                fused = fuse_votes(votes)
                fused_acc.append(jaccard_accuracy(truth, [fused]))
            return [float(np.mean(a)) for a in single], float(np.mean(fused_acc))

        singles, fused = accuracies([x_a, x_b])
        assert max(singles) < 1.0
        assert fused >= max(singles)
