"""Command-line behavior: exit codes, output files, determinism."""
import csv
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan import (
    LightConfig,
    PerfectSumQuery,
    inference,
    jaccard_accuracy,
    load_scene,
    perfect_sum_indices,
    reading,
    sweep,
    synthesize_logs,
)
from luxplan import cli, csvcolumns, read_matrix_csv
from luxplan.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, build_parser, run
from luxplan.ingest import (
    read_commands_csv,
    read_samples_csv,
    write_commands_csv,
    write_samples_csv,
)


def trial_rule(vectors, candidate_sets):
    """One trial's fusion in Python: each sensor's majority vote over its
    candidates (abstaining where x_i == 0, a tie counting as neither), the
    votes summed per luminaire (on when positive), then the member of the
    candidate sets' intersection nearest the vote, ties to the lowest
    index, or the vote when they share nothing."""
    n = len(vectors[0])
    totals = [0] * n
    for x, cands in zip(vectors, candidate_sets):
        for i in range(n):
            ones = sum(c >> i & 1 for c in cands)
            if x[i] > 0:
                totals[i] += (2 * ones > len(cands)) - (2 * ones < len(cands))
    voted = sum(1 << i for i in range(n) if totals[i] > 0)
    common = set(candidate_sets[0]).intersection(*candidate_sets[1:])
    if not common:
        return voted, "vote"
    return min(common, key=lambda m: ((m ^ voted).bit_count(), m)), "intersection"


def write_readings(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "point_index", "door_state", "lux", "truth"])
        w.writerows(rows)


class TestExitCodes:
    def test_missing_scene_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.scene"
        code = run(["simulate", "--scene", str(missing), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "nope.scene" in capsys.readouterr().err

    def test_invalid_scene_contents(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("lum A 1 1 2.5 -5 iso\n", encoding="utf-8")
        code = run(["simulate", "--scene", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    def test_non_finite_scene_number_rejected(self, toy_scene_file, tmp_path, capsys):
        text = toy_scene_file.read_text(encoding="utf-8")
        toy_scene_file.write_text(text.replace("lum R 4.5 2.0 2.7 80", "lum R 4.5 2.0 2.7 nan"),
                                  encoding="utf-8")
        code = run(["solve-cover", "--scene", str(toy_scene_file), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "line 10" in capsys.readouterr().err

    def test_repeated_door_angle_rejected(self, toy_scene_file, tmp_path, capsys):
        text = toy_scene_file.read_text(encoding="utf-8")
        toy_scene_file.write_text(text.replace("door d 3 1.5 1.0 90 0,90", "door d 3 1.5 1.0 90 0,0,90"),
                                  encoding="utf-8")
        code = run(["simulate", "--scene", str(toy_scene_file), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "door d: angle 0.0 repeats an earlier allowed angle" in capsys.readouterr().err
        assert not (tmp_path / "contributions.csv").exists()

    def test_scene_without_grid_rejected(self, tmp_path, capsys):
        bare = tmp_path / "bare.scene"
        bare.write_text("lum A 1 1 2.5 5 iso\n", encoding="utf-8")
        code = run(["simulate", "--scene", str(bare), "--out", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_nonpositive_grid_spacing_rejected(self, toy_scene_file, tmp_path):
        code = run([
            "simulate", "--scene", str(toy_scene_file),
            "--grid-spacing", "-0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("spacing", ["nan", "inf", "-inf"])
    def test_non_finite_grid_spacing_rejected(self, toy_scene_file, tmp_path, capsys, spacing):
        code = run([
            "simulate", "--scene", str(toy_scene_file),
            f"--grid-spacing={spacing}", "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID
        assert "grid spacing must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "contributions.csv").exists()

    def test_zero_file_spacing_rejected_despite_override(self, toy_scene_file, tmp_path, capsys):
        text = toy_scene_file.read_text(encoding="utf-8")
        toy_scene_file.write_text(text.replace("5.75 3.75 0.5 1.0", "5.75 3.75 0 1.0"),
                                  encoding="utf-8")
        code = run([
            "simulate", "--scene", str(toy_scene_file),
            "--grid-spacing", "0.1", "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID
        assert "line 11: grid spacing must be positive" in capsys.readouterr().err
        assert not (tmp_path / "contributions.csv").exists()

    def test_missing_command_log_is_usage_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("t,location,lux\n0.0,s0,1.0\n", encoding="utf-8")
        code = run([
            "ingest", "--samples", str(samples),
            "--commands", str(tmp_path / "absent.csv"), "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_malformed_readings_rejected(self, toy_scene_file, tmp_path, capsys):
        readings = tmp_path / "r.csv"
        readings.write_text("who,what\nx,y\n", encoding="utf-8")
        code = run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID

    def test_short_readings_row_rejected(self, toy_scene_file, tmp_path, capsys):
        readings = tmp_path / "r.csv"
        readings.write_text("trial,point_index,door_state,truth\n0,5,0,1\n0,5\n", encoding="utf-8")
        code = run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID
        assert "r.csv: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        # an extra field used to be dropped, and a short row read as having
        # no truth; a repeated column used to let its last copy win
        ("trial,point_index,door_state,truth\nt0,5,0,1\nt0,5,0,2,9\n",
         "r.csv: line 3: expected 4 fields, got 5"),
        ("trial,point_index,door_state,truth\nt0,5,0\n", "r.csv: line 2: expected 4 fields, got 3"),
        ('trial,point_index,door_state,truth\n"t,0",5,0,1\n"t,0",5,0,2,9\n',
         "r.csv: line 3: expected 4 fields, got 5"),
        ("trial,point_index,door_state,truth,truth\nt0,5,0,1,2\n",
         "r.csv: the header names column 'truth' twice"),
        # row checks name the line; a blank line still counts
        ("trial,point_index,door_state,lux,truth\nt0,5,0,,1\n\nt0,77,0,,1\n",
         "r.csv: line 4: point_index 77 outside the candidate grid"),
        ("trial,point_index,door_state,lux,truth\r\nt0,5,0,,1\r\nt0,5,2,,1\r\n",
         "r.csv: line 3: door_state 2 out of range"),
        ("truth,trial,door_state,point_index\n-1,t0,0,5\n",
         "r.csv: line 2: config index -1 out of range"),
        ("trial,point_index,door_state,lux,truth\nt0,5,0,,4\n",
         "r.csv: line 2: config index 4 out of range"),
        ('trial,point_index,door_state,lux,truth\n"t0",5,0,1.5,1\n"t0",5,0,,\n',
         "r.csv: line 3: a reading row needs lux, or truth"),
        # a row that fails several checks reports the first, in file order
        ("trial,point_index,door_state,lux,truth\nt0,77,9,,9\nt0,5,9,,\n",
         "r.csv: line 2: point_index 77 outside"),
        # a row that breaks two rules reports the one checked first
        *((f"trial,point_index,door_state,lux,truth\n{row}\n", f"r.csv: line 2: {message}")
          for row, message in [("t0,x,0,inf,", "malformed reading row"),
                               ("t0,99,0,inf,", "lux 'inf' is not finite"),
                               ("t0,99,9,1.0,", "point_index 99 outside the candidate grid"),
                               ("t0,0,9,,9", "door_state 9 out of range"),
                               ("t0,0,9,,", "door_state 9 out of range")]),
    ])
    def test_bad_readings_rows_name_their_line(self, toy_scene_file, tmp_path, capsys, text,
                                               named):
        readings = tmp_path / "r.csv"
        readings.write_bytes(text.encode("utf-8"))
        out = tmp_path / "out"
        assert run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(out),
        ]) == EXIT_INVALID
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, named", [
        # line 2 breaks a grid rule, line 3 a rule of the parse; every rule
        # runs before any cell is swept, so the first row in the file is named
        ("a,999999,0,1.0,\nb,0,0,inf,", "line 2: point_index 999999 outside the candidate grid"),
        ("a,0,0,,999\nb,x,0,1.0,", "line 2: config index 999 out of range for 6 luminaires"),
        ("a,0,99,1.0,\nb,0,0", "line 2: door_state 99 out of range"),
    ], ids=["point-then-lux", "truth-then-malformed", "door-then-short"])
    def test_two_bad_readings_rows_name_the_first(self, apartment_path, tmp_path, capsys,
                                                  monkeypatch, rows, named):
        readings = tmp_path / "r.csv"
        readings.write_text(f"trial,point_index,door_state,lux,truth\n{rows}\n", encoding="utf-8")
        monkeypatch.setattr(cli, "sweep", mock.Mock(side_effect=AssertionError("swept")))
        assert run(["infer", "--scene", str(apartment_path), "--readings", str(readings),
                    "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {readings}: {named}\n"

    def test_non_finite_command_timestamp_rejected(self, tmp_path, capsys):
        samples, commands = synthesize_logs({"s0": np.array([5.0, 9.0])}, [0, 1, 2])
        write_samples_csv(samples, tmp_path / "s.csv")
        (tmp_path / "c.csv").write_text("t,bitmask\n0,0\nnan,1\n14,2\n", encoding="utf-8")
        assert run([
            "ingest", "--samples", str(tmp_path / "s.csv"), "--commands", str(tmp_path / "c.csv"),
            "--out", str(tmp_path),
        ]) == EXIT_INVALID
        assert "command timestamp nan is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("samples_text, commands_text, where", [
        ("t,location,lux\n0.0,s0,1.0\n1.0,a\n", "t,bitmask\n0.0,1\n", "samples.csv: line 3"),
        ("t,location,lux\n0.0,s0,1.0\n", "t,bitmask\n0.0\n", "commands.csv: line 2"),
        ("t,location,lux\n0.0,s0,bright\n", "t,bitmask\n0.0,1\n", "samples.csv: line 2"),
        ("t,location,lux\n0.0,s0,1.0\n", "t,bitmask\n\n0.0,1,2\n", "commands.csv: line 3"),
    ])
    def test_malformed_log_row_rejected(self, tmp_path, capsys, samples_text, commands_text, where):
        samples, commands = tmp_path / "samples.csv", tmp_path / "commands.csv"
        samples.write_text(samples_text, encoding="utf-8")
        commands.write_text(commands_text, encoding="utf-8")
        code = run([
            "ingest", "--samples", str(samples), "--commands", str(commands), "--out", str(tmp_path),
        ])
        assert code == EXIT_INVALID
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["heatmap", "solve-cover"])
    @pytest.mark.parametrize("tau", ["-1", "nan", "inf"])
    def test_bad_tau_rejected(self, toy_scene_file, tmp_path, capsys, command, tau):
        # a negative tau used to report every configuration isolated, and
        # nan none, both with exit 0
        out = tmp_path / "out"
        code = run([command, "--scene", str(toy_scene_file), "--tau", tau, "--out", str(out)])
        assert code == EXIT_INVALID
        assert "tau must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_writes_contributions(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["simulate", "--scene", str(toy_scene_file), "--out", str(out)]) == EXIT_OK
        text = (out / "contributions.csv").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0] == "point_index,door_state,lum_0,lum_1"
        assert len(lines) == 1 + 77 * 2  # 77 grid points, 2 door states
        assert "points: 77" in capsys.readouterr().out

    def test_grid_spacing_override(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run([
            "simulate", "--scene", str(toy_scene_file),
            "--grid-spacing", "1.0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "points: 24" in capsys.readouterr().out  # 6 x 4 coarse lattice

    def test_byte_identical_reruns(self, toy_scene_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--scene", str(toy_scene_file), "--out", str(a)])
        run(["simulate", "--scene", str(toy_scene_file), "--out", str(b)])
        assert (a / "contributions.csv").read_bytes() == (b / "contributions.csv").read_bytes()


class TestHeatmap:
    def test_writes_per_state_and_total(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "hm"
        assert run(["heatmap", "--scene", str(toy_scene_file), "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "heatmap_q0.csv", "heatmap_q0.pgm",
            "heatmap_q1.csv", "heatmap_q1.pgm",
            "heatmap_total.csv", "heatmap_total.pgm",
        ]
        assert "door state 0" in capsys.readouterr().out


class TestSolveCover:
    def test_full_universe_report(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "cover"
        assert run(["solve-cover", "--scene", str(toy_scene_file), "--out", str(out)]) == EXIT_OK
        text = (out / "cover_report.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "step,point_index,x,y,gain,covered_total"
        assert "universe: full (8 states)" in capsys.readouterr().out

    def test_open_door_restriction(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "cover"
        code = run([
            "solve-cover", "--scene", str(toy_scene_file),
            "--universe", "open-door", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "universe: open-door (4 states)" in capsys.readouterr().out

    def test_exact_solver_on_small_universe(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "cover"
        code = run([
            "solve-cover", "--scene", str(toy_scene_file), "--exact", "--out", str(out),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "solver: exact" in captured

    def test_greedy_never_beats_exact(self, toy_scene_file, tmp_path, capsys):
        out = tmp_path / "cover"
        run(["solve-cover", "--scene", str(toy_scene_file), "--out", str(out / "g")])
        greedy_rows = (out / "g" / "cover_report.csv").read_text().strip().splitlines()
        run(["solve-cover", "--scene", str(toy_scene_file), "--exact", "--out", str(out / "e")])
        exact_rows = (out / "e" / "cover_report.csv").read_text().strip().splitlines()
        assert len(greedy_rows) >= len(exact_rows)

    @pytest.mark.parametrize("universe, limit, size", [("full", 100, 576), ("open-door", 63, 64)])
    def test_exact_limit_checked_before_the_sweep(self, apartment_path, tmp_path, capsys,
                                                  monkeypatch, universe, limit, size):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept a universe the exact solver refuses")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        code = run(["solve-cover", "--scene", str(apartment_path), "--universe", universe,
                    "--exact", "--exact-limit", str(limit), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert f"universe of {size} exceeds exact-solver limit {limit}" in capsys.readouterr().err
        assert not (tmp_path / "cover_report.csv").exists()

    @pytest.mark.parametrize("solver", [[], ["--exact", "--exact-limit", "64"]])
    def test_open_door_report_equals_the_restricted_whole_instance(
            self, apartment_path, tmp_path, capsys, monkeypatch, solver):
        argv = ["solve-cover", "--scene", str(apartment_path), "--universe", "open-door"] + solver
        assert run(argv + ["--out", str(tmp_path / "state")]) == EXIT_OK
        # every door state swept and flagged, then the open one's columns kept
        monkeypatch.setattr(cli, "sweep", lambda scene, states=None: sweep(scene))
        assert run(argv + ["--out", str(tmp_path / "whole")]) == EXIT_OK
        got = (tmp_path / "state" / "cover_report.csv").read_bytes()
        assert got == (tmp_path / "whole" / "cover_report.csv").read_bytes()
        step = got.splitlines()[1].split(b",")
        assert (step[1], step[4]) == (b"20", b"64")
        out = capsys.readouterr().out
        assert out.count("universe: open-door (64 states)") == 2


class TestInfer:
    def test_simulated_noiseless_readings_score_one(self, toy_scene_file, tmp_path):
        # points 38 and 40 see both lamps with the door open, with well
        # separated contributions, so every subset sum is unambiguous
        readings = tmp_path / "r.csv"
        write_readings(readings, [
            ("t0", 38, 1, "", 3),
            ("t0", 40, 1, "", 3),
            ("t1", 38, 1, "", 1),
        ])
        out = tmp_path / "inf"
        code = run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(out),
        ])
        assert code == EXIT_OK
        report = list(csv.DictReader(open(out / "inference_report.csv", encoding="utf-8")))
        assert [r["point_index"] for r in report] == ["38", "40", "38"]
        assert all(float(r["accuracy"]) == 1.0 for r in report)
        assert all(r["no_solution"] == "0" for r in report)
        fused = list(csv.DictReader(open(out / "fused.csv", encoding="utf-8")))
        assert [r["trial"] for r in fused] == ["t0", "t1"]
        assert all(r["fused_p"] == r["truth"] for r in fused)
        assert all(float(r["accuracy"]) == 1.0 for r in fused)
        assert [r["rule"] for r in fused] == ["intersection", "intersection"]
        assert list(fused[0]) == ["trial", "door_state", "truth", "fused_p", "accuracy", "rule"]

    def test_header_only_readings_write_header_only_outputs(self, toy_scene_file, tmp_path):
        # no trial to fuse: fuse_votes would reject the empty vote table
        readings = tmp_path / "r.csv"
        write_readings(readings, [])
        out = tmp_path / "inf"
        assert run([
            "infer", "--scene", str(toy_scene_file), "--readings", str(readings),
            "--out", str(out),
        ]) == EXIT_OK
        assert (out / "inference_report.csv").read_text(encoding="utf-8") == (
            "point_index,door_state,config_p,n_candidates,accuracy,no_solution\n")
        assert (out / "fused.csv").read_text(encoding="utf-8") == (
            "trial,door_state,truth,fused_p,accuracy,rule\n")

    def test_unreachable_readings_fuse_by_vote(self, toy_scene_file, tmp_path):
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 38, 1, 1000000.0, 3), ("t0", 40, 1, "", 3)])
        out = tmp_path / "inf"
        assert run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(out),
        ]) == EXIT_OK
        fused = list(csv.DictReader(open(out / "fused.csv", encoding="utf-8")))
        assert fused[0]["rule"] == "vote"

    def test_explicit_lux_overrides_simulation(self, toy_scene_file, tmp_path):
        # a lux value no subset can reach must yield no solution even though
        # the truth column alone would simulate a perfectly solvable reading
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 38, 1, 1000000.0, 0)])
        out = tmp_path / "inf"
        assert run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(out),
        ]) == EXIT_OK
        report = list(csv.DictReader(open(out / "inference_report.csv", encoding="utf-8")))
        assert report[0]["no_solution"] == "1"
        assert report[0]["accuracy"] == "0"

    def test_noisy_inference_is_deterministic(self, toy_scene_file, tmp_path):
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", i, 1, "", 2) for i in range(6)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run([
                "infer", "--scene", str(toy_scene_file), "--readings", str(readings),
                "--sigma", "0.4", "--seed", "9", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append((out / "inference_report.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("lux", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_lux_rejected(self, toy_scene_file, tmp_path, capsys, lux):
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 38, 1, "", 3), ("t0", 40, 1, lux, 3)])
        assert run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(tmp_path),
        ]) == EXIT_INVALID
        assert "r.csv: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, toy_scene_file, tmp_path, capsys, epsilon):
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 38, 1, "", 3)])
        assert run([
            "infer", "--scene", str(toy_scene_file), "--readings", str(readings),
            "--epsilon", epsilon, "--out", str(tmp_path),
        ]) == EXIT_INVALID
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon, named", [
        ("-1", "epsilon must be nonnegative"), ("nan", "epsilon nan must be finite"),
        ("inf", "epsilon inf must be finite"),
    ])
    def test_bad_epsilon_rejected_before_any_row(self, toy_scene_file, tmp_path, capsys,
                                                 epsilon, named):
        # with no rows to answer, a bad tolerance used to exit 0
        readings = tmp_path / "r.csv"
        write_readings(readings, [])
        out = tmp_path / "out"
        assert run([
            "infer", "--scene", str(toy_scene_file), "--readings", str(readings),
            "--epsilon", epsilon, "--out", str(out),
        ]) == EXIT_INVALID
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, named", [
        (["--sigma", "nan"], "sigma nan"),
        (["--sigma", "inf"], "sigma inf"),
        (["--sigma", "-1"], "sigma -1.0"),
        (["--sigma", "0.05", "--seed", "-1"], "seed -1"),
    ])
    def test_bad_noise_rejected(self, toy_scene_file, tmp_path, capsys, noise, named):
        # a nan sigma used to decode noiselessly with exit 0, and a negative
        # seed failed inside numpy without naming the option
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 38, 1, "", 3)])
        out = tmp_path / "out"
        assert run([
            "infer", "--scene", str(toy_scene_file), "--readings", str(readings),
            *noise, "--out", str(out),
        ]) == EXIT_INVALID
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", [1, 600, inference.TABLE_BUDGET_BYTES])
    def test_batched_tables_answer_like_one_row_at_a_time(
        self, apartment_path, tmp_path, monkeypatch, budget,
    ):
        # shuffled rows that come back to earlier (point, door state) keys;
        # a small table budget splits the rows over several search chunks
        rng = np.random.default_rng(4)
        keys = [(int(p), int(q)) for p, q in zip(rng.integers(0, 2880, 9), rng.integers(0, 9, 9))]
        rows = []
        for k in range(40):
            p, q = keys[int(rng.integers(len(keys)))]
            lux = f"{rng.uniform(0, 300):.4f}" if k % 5 == 0 else ""
            rows.append((f"t{k % 13}", p, q, lux, int(rng.integers(64))))
        readings = tmp_path / "r.csv"
        write_readings(readings, rows)
        monkeypatch.setattr(inference, "TABLE_BUDGET_BYTES", budget)
        builds = []
        build = inference.half_sums_batch
        monkeypatch.setattr(inference, "half_sums_batch",
                            lambda v, k: builds.append(len(v)) or build(v, k))
        out = tmp_path / "inf"
        assert run([
            "infer", "--scene", str(apartment_path), "--readings", str(readings),
            "--sigma", "0.05", "--out", str(out),
        ]) == EXIT_OK
        distinct = len({(p, q) for _, p, q, _, _ in rows})
        per_chunk = inference.rows_per_chunk(6, 3)
        assert max(builds) <= per_chunk and sum(builds) >= distinct
        if per_chunk >= len(rows):
            assert builds == [distinct]

        matrix = sweep(load_scene(apartment_path))
        noise = cli.NoiseModel(sigma=0.05, seed=0)
        want = ["point_index,door_state,config_p,n_candidates,accuracy,no_solution"]
        for _, p, q, lux, truth in rows:
            x = matrix.vector_at(p, q)
            truth_config = LightConfig(truth, 6)
            target = float(lux) if lux else reading(x, truth_config, noise)
            cands = perfect_sum_indices(PerfectSumQuery.from_vector(x, target, 0.01))
            acc = jaccard_accuracy(truth_config, cands)
            want.append(f"{p},{q},{truth},{len(cands)},{acc:.6g},{int(not cands)}")
        assert (out / "inference_report.csv").read_text(encoding="utf-8").splitlines() == want

        monkeypatch.setattr(inference, "TABLE_BUDGET_BYTES", 1 << 30)  # one batch
        assert run([
            "infer", "--scene", str(apartment_path), "--readings", str(readings),
            "--sigma", "0.05", "--out", str(tmp_path / "one"),
        ]) == EXIT_OK
        for name in ("inference_report.csv", "fused.csv"):
            assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("budget", [1, 600])
    def test_trials_split_across_batches_fuse_like_grouped_rows(
        self, apartment_path, tmp_path, monkeypatch, budget,
    ):
        # each trial's rows lie scattered through the file, and its vectors
        # fall in different search chunks, so a trial's last row is often
        # matched long after its first
        rng = np.random.default_rng(11)
        keys = [(int(p), int(q)) for p, q in zip(rng.integers(0, 2880, 12), rng.integers(0, 9, 12))]
        rows = []
        for k in range(45):
            p, q = keys[int(rng.integers(len(keys)))]
            truth = int(rng.integers(64)) if k % 7 else ""
            lux = f"{rng.uniform(0, 300):.4f}" if truth == "" or k % 5 == 0 else ""
            rows.append((f"t{int(rng.integers(6))}", p, q, lux, truth))
        readings = tmp_path / "r.csv"
        write_readings(readings, rows)
        monkeypatch.setattr(inference, "TABLE_BUDGET_BYTES", budget)
        builds = []
        build = inference.half_sums_batch
        monkeypatch.setattr(inference, "half_sums_batch",
                            lambda v, k: builds.append(len(v)) or build(v, k))
        out = tmp_path / "inf"
        assert run([
            "infer", "--scene", str(apartment_path), "--readings", str(readings),
            "--sigma", "0.05", "--out", str(out),
        ]) == EXIT_OK
        assert len(builds) > 1 and max(builds) <= inference.rows_per_chunk(6, 3)

        matrix = sweep(load_scene(apartment_path))
        noise = cli.NoiseModel(sigma=0.05, seed=0)
        by_trial = {}
        for trial, p, q, lux, truth in rows:
            by_trial.setdefault(trial, []).append((p, q, lux, truth))
        want = ["trial,door_state,truth,fused_p,accuracy,rule"]
        for trial, members in by_trial.items():
            # the trial alone: its rows searched one at a time, then fused
            # by the rule in Python
            vectors, candidate_sets = [], []
            for p, q, lux, truth in members:
                x = matrix.vector_at(p, q)
                truth_config = LightConfig(truth, 6) if truth != "" else None
                target = float(lux) if lux else reading(x, truth_config, noise)
                vectors.append(tuple(x.values.tolist()))
                query = PerfectSumQuery.from_vector(x, target, 0.01)
                candidate_sets.append(perfect_sum_indices(query))
            fused, rule = trial_rule(vectors, candidate_sets)
            truths = {truth for _, _, _, truth in members}
            truth = truths.pop() if len(truths) == 1 else ""
            acc = ""
            if truth != "":
                acc = f"{jaccard_accuracy(LightConfig(truth, 6), [fused]):.6g}"
            doors = {q for _, q, _, _ in members}
            door = doors.pop() if len(doors) == 1 else -1
            want.append(f"{trial},{door},{truth if truth != '' else -1},{fused},{acc},{rule}")
        assert (out / "fused.csv").read_text(encoding="utf-8").splitlines() == want

    def test_noisy_targets_equal_row_by_row_readings(self, apartment_path, apartment_matrix,
                                                      tmp_path, monkeypatch):
        # rows scattered over the lattice, some revisiting a (point, door
        # state), in columns out of the usual order: each decoded target is
        # the row's lux, or reading() of the lattice vector at its point
        rng = np.random.default_rng(8)
        keys = [(int(p), int(q)) for p, q in zip(rng.integers(0, 2880, 20), rng.integers(0, 9, 20))]
        rows = []
        for k in range(60):
            p, q = keys[int(rng.integers(len(keys)))]
            lux = f"{rng.uniform(0, 300):.4f}" if k % 4 == 0 else ""
            rows.append((int(rng.integers(64)), lux, q, p, f"t{k % 7}"))
        readings = tmp_path / "r.csv"
        readings.write_text("truth,lux,door_state,point_index,trial\n"
                            + "".join("%s,%s,%s,%s,%s\n" % row for row in rows), encoding="utf-8")
        seen = []
        monkeypatch.setattr(cli, "infer_reading", lambda batch, truth: seen.append(
            (batch.contributions, batch.vector, batch.targets, truth))
            or inference.infer_reading(batch, truth))
        assert run([
            "infer", "--scene", str(apartment_path), "--readings", str(readings),
            "--sigma", "0.05", "--seed", "3", "--out", str(tmp_path / "out"),
        ]) == EXIT_OK
        [(contributions, vector, targets, truths)] = seen  # one batch, rows in file order
        noise = cli.NoiseModel(sigma=0.05, seed=3)
        for (truth, lux, q, p, _), v, target, t in zip(rows, vector, targets, truths, strict=True):
            x = apartment_matrix.vector_at(p, q)
            assert contributions[v] == tuple(x.values.tolist())
            want = float(lux) if lux else reading(x, LightConfig(truth, 6), noise)
            assert target.tobytes() == np.float64(want).tobytes()
            assert t == truth

    def test_out_of_range_point_rejected(self, toy_scene_file, tmp_path):
        readings = tmp_path / "r.csv"
        write_readings(readings, [("t0", 999, 0, "", 0)])
        assert run([
            "infer", "--scene", str(toy_scene_file),
            "--readings", str(readings), "--out", str(tmp_path),
        ]) == EXIT_INVALID


class TestIngest:
    def test_seven_location_log_gives_seven_rows(self, tmp_path, capsys):
        contribs = {
            f"pos{k}": np.array([10.0, 20.0, 40.0]) * (1.0 + 0.1 * k) for k in range(7)
        }
        samples, commands = synthesize_logs(contribs, config_indices=list(range(8)))
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        out = tmp_path / "ing"
        code = run([
            "ingest", "--samples", str(tmp_path / "s.csv"),
            "--commands", str(tmp_path / "c.csv"), "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(out / "accuracy_by_location.csv", encoding="utf-8")))
        assert len(rows) == 7
        assert all(float(r["mean"]) == 1.0 for r in rows)  # separated sums round-trip

    def test_settle_and_window_flags(self, tmp_path):
        contribs = {"s0": np.array([5.0, 9.0])}
        samples, commands = synthesize_logs(contribs, config_indices=[0, 1, 2, 3], dwell=9.0)
        write_samples_csv(samples, tmp_path / "s.csv")
        write_commands_csv(commands, tmp_path / "c.csv")
        out = tmp_path / "ing"
        code = run([
            "ingest", "--samples", str(tmp_path / "s.csv"),
            "--commands", str(tmp_path / "c.csv"),
            "--settle", "4.0", "--window", "2.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "accuracy_by_location.csv").exists()


DROPPED_OPTIONS = (
    [("simulate", opt) for opt in ("--tau", "--epsilon", "--sigma", "--seed")]
    + [(cmd, opt) for cmd in ("heatmap", "solve-cover") for opt in ("--epsilon", "--sigma", "--seed")]
    + [("infer", "--tau")]
    + [("ingest", opt) for opt in ("--tau", "--sigma", "--seed", "--grid-spacing")]
)


@pytest.mark.parametrize("command, option", DROPPED_OPTIONS)
def test_option_a_subcommand_does_not_read_is_usage_error(toy_scene_file, tmp_path, capsys,
                                                           command, option):
    # each subcommand declares only the options it reads, so one it would
    # ignore stops the run as a usage error before anything is written
    required = {
        "simulate": ["--scene", str(toy_scene_file)],
        "heatmap": ["--scene", str(toy_scene_file)],
        "solve-cover": ["--scene", str(toy_scene_file)],
        "infer": ["--scene", str(toy_scene_file), "--readings", str(tmp_path / "r.csv")],
        "ingest": ["--samples", str(tmp_path / "s.csv"), "--commands", str(tmp_path / "c.csv")],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, *required, option, "1", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not out.exists()


def test_parser_rejects_unknown_subcommand(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["transmogrify"])


def test_main_raises_system_exit(toy_scene_file, tmp_path, monkeypatch):
    import luxplan.cli as cli

    monkeypatch.setattr(
        "sys.argv",
        ["luxplan", "simulate", "--scene", str(toy_scene_file), "--out", str(tmp_path)],
    )
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == EXIT_OK


# fields the file generator draws from, per format and column: text that
# int() or float() reads, with spaces, signs or past int64, drawn for the
# r-th row where a column is a function of r (times that increase, matrix
# keys that fill a block) ...
FIELD_TEXT = {
    "readings": {
        "trial": st.sampled_from(["t0", "t1", "", "hall east", "hall, east", 'say "hi"', " t2"]),
        "point_index": st.one_of(st.integers(-3, 3000).map(str),
                                 st.sampled_from([" 7", "+2", "1_0", "9" * 25])),
        "door_state": st.one_of(st.integers(-1, 9).map(str), st.just(" 3 ")),
        "lux": st.one_of(st.just(""), st.floats(-1, 500, allow_nan=False).map(repr),
                         st.sampled_from([" 2.5", "1e3", "nan", "inf", "-inf"])),
        "truth": st.one_of(st.just(""), st.integers(-1, 70).map(str), st.just("+3")),
    },
    "samples": {
        "t": lambda r: st.sampled_from([repr(r / 4), f" {r}e-1", f"{r}_0", "nan", "0"]),
        "location": st.sampled_from(["a", "b", " a", "g h", "5", "c,d", 'e"f', ""]),
        "lux": st.sampled_from(["1.5", "0", "88000", " 3e2", "-0.5", "88000.5"]),
    },
    "commands": {
        "t": lambda r: st.sampled_from([repr(r * 1.5), f" {r}", "inf", "0"]),
        "bitmask": st.one_of(st.integers(0, 9).map(str),
                             st.sampled_from([" 3", "+2", "9" * 25, "-1"])),
    },
    "matrix": {
        "point_index": lambda r: st.sampled_from([str(r)] * 4 + [f" {r}", f"+{r}", "-1", "0",
                                                                 "9" * 25]),
        "door_state": st.sampled_from(["0"] * 10 + ["1", "-1"]),
        "lum": st.sampled_from(["1.5", "0", "-0", "1e3", " 2", "2.25", "7", "nan", "inf", "-2.5"]),
    },
}
# ... and text it must reject
BAD_TEXT = {
    "readings": {"trial": st.just("t0"), "point_index": st.sampled_from(["x", "", "1e3", "1.0"]),
                 "door_state": st.just(""), "lux": st.just("x"),
                 "truth": st.sampled_from(["x", "1.5"])},
    "samples": {"t": st.sampled_from(["x", "", "1.0.0"]), "location": st.just("a"),
                "lux": st.sampled_from(["dim", ""])},
    "commands": {"t": st.sampled_from(["x", ""]), "bitmask": st.sampled_from(["x", "1.5", ""])},
    "matrix": {"point_index": st.sampled_from(["x", "1.0"]), "door_state": st.just(""),
               "lum": st.sampled_from(["bright", ""])},
}
HEADERS = {
    "samples": st.sampled_from([["t", "location", "lux"]] * 8 + [[" t ", "location", "lux "],
                                                                 ["t", "loc", "lux"], []]),
    "commands": st.sampled_from([["t", "bitmask"]] * 8 + [["t", " bitmask"], ["t"]]),
    "matrix": st.integers(-1, 3).map(
        lambda n: ["point_index", "door_state"] + [f"lum_{i}" for i in range(n)] if n >= 0
        else ["door_state", "point_index", "lum_0"]),
}


@st.composite
def readings_header(draw):
    optional = draw(st.lists(st.sampled_from(["lux", "truth", "note"]), unique=True))
    header = draw(st.permutations(["trial", "point_index", "door_state"] + optional))
    if draw(st.integers(0, 14)) == 0:
        header.append(draw(st.sampled_from(header)))  # a repeated column
    return header


HEADERS["readings"] = readings_header()


def csv_field(text):
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"') else text


@st.composite
def headed_files(draw, fmt):
    """Text of a CSV of the format: up to eight rows, with blank lines,
    mixed line ends and csv quoting where a field needs it. In half the
    files, one row in three has a field the format rejects or the wrong
    width."""
    def column(name):
        name = name.strip()
        return "lum" if name.startswith("lum_") else name

    def field(name, r):
        text = FIELD_TEXT[fmt].get(column(name), st.sampled_from(["", "n"]))
        return draw(text(r) if callable(text) else text)

    header = draw(HEADERS[fmt])
    faulty = draw(st.booleans())
    lines = [",".join(header)]
    for r in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        row = [field(name, r) for name in header]
        fault = draw(st.integers(0, 5)) if faulty and row else None
        if fault == 0:
            k = draw(st.integers(0, len(header) - 1))
            row[k] = draw(BAD_TEXT[fmt].get(column(header[k]), st.just("n")))
        elif fault == 1:
            row = row[:-1] if draw(st.booleans()) else row + ["9"]
        lines.append(",".join(map(csv_field, row)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


# the readings reader's grid: few enough door states and luminaires that a drawn
# row often breaks more than one range rule
READINGS_GRID = (2880, 6, 5)


def readings_row_error(header, row, seen):
    at = {name: header.index(name) for name in header}
    lux = row[at["lux"]] if "lux" in at else ""
    truth = row[at["truth"]] if "truth" in at else ""
    try:
        point, door = int(row[at["point_index"]]), int(row[at["door_state"]])
        x = float(lux) if lux else 0.0
        p = int(truth) if truth else None
    except ValueError:
        return "malformed reading row"
    n_points, n_states, n = READINGS_GRID
    if not math.isfinite(x):
        return f"lux {lux!r} is not finite"
    if not 0 <= point < n_points:
        return f"point_index {point} outside the candidate grid"
    if not 0 <= door < n_states:
        return f"door_state {door} out of range"
    if p is not None and not 0 <= p < 1 << n:
        return f"config index {p} out of range for {n} luminaires"
    if not lux and p is None:
        return "a reading row needs lux, or truth to simulate it"


def readings_header_error(header):
    if not {"trial", "point_index", "door_state"}.issubset(header):
        return "readings need columns trial,point_index,door_state[,lux][,truth]"
    for name in ("trial", "point_index", "door_state", "lux", "truth"):
        if header.count(name) > 1:
            return f"the header names column {name!r} twice"


def log_header_error(names):
    return lambda header: None if [c.strip() for c in header] == names else (
        f"expected header {','.join(names)!r}")


def parse_error(*parsed):
    """The message of the first (parser, text) pair that does not parse."""
    for parse, text in parsed:
        try:
            parse(text)
        except ValueError as exc:
            return str(exc)


def samples_row_error(header, row, seen):
    """seen maps each location to its last time."""
    problem = parse_error((float, row[0]), (float, row[2]))
    if problem:
        return problem
    t, location, lux = float(row[0]), row[1], float(row[2])
    if not math.isfinite(t):
        return f"timestamp {t} is not a finite number"
    if not 0.0 <= lux <= 88_000.0:
        return f"lux {lux} outside [0.0, 88000.0]"
    if location in seen and t < seen[location]:
        return f"timestamps for {location!r} must be nondecreasing"
    seen[location] = t


def commands_row_error(header, row, seen):
    """seen holds the last row's time."""
    problem = parse_error((float, row[0]), (int, row[1]))
    if problem:
        return problem
    t = float(row[0])
    if not math.isfinite(t):
        return f"command timestamp {t} is not a finite number"
    if "t" in seen and t <= seen["t"]:
        return "command timestamps must be strictly increasing"
    if int(row[1]) < 0:
        return "config bitmask must be nonnegative"
    seen["t"] = t


def matrix_row_error(header, row, seen):
    problem = parse_error((int, row[0]), (int, row[1]))
    if problem:
        return problem
    key = (int(row[0]), int(row[1]))
    if min(key) < 0:
        return "negative point_index or door_state"
    if key in seen:
        return f"point {key[0]}, door state {key[1]} given twice"
    seen[key] = None
    problem = parse_error(*((float, v) for v in row[2:]))
    if problem:
        return problem
    bad = [v for v in row[2:] if not 0.0 <= float(v) < math.inf]
    if bad:
        return f"lux {bad[0]!r} is not finite and nonnegative"


# per format: its reader, what the reader gives as comparable values, and
# the header and row rules for the row-by-row oracle
FORMATS = {
    "readings": (lambda path: cli._read_readings_csv(path, *READINGS_GRID),
                 lambda r: (r.names, r.trial.tolist(), r.point.dtype, r.point.tolist(),
                            r.door.tolist(), r.lux.tobytes(), r.truth.tolist(),
                            r.has_truth.tolist()),
                 readings_header_error, readings_row_error),
    "samples": (read_samples_csv,
                lambda log: (log.names, log.code.tolist(), log.t.tobytes(), log.lux.tobytes()),
                log_header_error(["t", "location", "lux"]), samples_row_error),
    "commands": (read_commands_csv, lambda log: (log.t.tobytes(), log.bitmask.tolist()),
                 log_header_error(["t", "bitmask"]), commands_row_error),
    "matrix": (read_matrix_csv, lambda m: (m.values.shape, m.values.tobytes()),
               lambda header: None if header[:2] == ["point_index", "door_state"] else (
                   "not a contribution matrix CSV"),
               matrix_row_error),
}


def read_outcome(fmt, path):
    read, values = FORMATS[fmt][:2]
    try:
        return values(read(path))
    except ValueError as exc:
        return str(exc)


def rowwise_row_error(fmt, path):
    """The error of the file's first bad row, its rows read and checked one
    at a time with csv.reader, or of its header; None where neither is bad."""
    header_error, row_error = FORMATS[fmt][2:]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header_error(header):
            return f"{path}: {header_error(header)}"
        seen = {}
        for row in reader:
            if not row:
                continue
            problem = (f"expected {len(header)} fields, got {len(row)}" if len(row) != len(header)
                       else row_error(header, row, seen))
            if problem:
                return f"{path}: line {reader.line_num}: {problem}"


@pytest.mark.parametrize("fmt", FORMATS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fast_reader_equals_csv_module_reader(tmp_path_factory, fmt, data):
    text = data.draw(headed_files(fmt))
    path = tmp_path_factory.getbasetemp() / f"{fmt}.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(csvcolumns, "split_csv_text", return_value=None):
        want = read_outcome(fmt, path)
    assert read_outcome(fmt, path) == want
    # the first bad row in file order, and the first rule it breaks, names
    # the error; errors past the rows name no line
    first_bad = rowwise_row_error(fmt, path)
    if first_bad is not None:
        assert want == first_bad
    else:
        assert not (isinstance(want, str) and want.startswith(f"{path}: line "))
    if '"' not in text and not isinstance(want, str):
        # well formed: no fallback
        with mock.patch.object(csvcolumns, "_csv_rows", side_effect=AssertionError):
            assert read_outcome(fmt, path) == want


# per format: a file whose line 2 has one field to fill, and what the
# reader keeps of that field, or None where the format parses it as a number
ONE_FIELD_FILES = {
    "readings": (b"trial,point_index,door_state,truth\n%s,0,0,1\n", lambda r: r.names[0]),
    "samples": (b"t,location,lux\n0.0,%s,1.0\n", lambda log: log.names[0]),
    "commands": (b"t,bitmask\n0.0,%s\n", None),
    "matrix": (b"point_index,door_state,lum_0\n0,0,%s\n", None),
}


@pytest.mark.parametrize("field", [b"a\0b", b"x" * (csv.field_size_limit() + 1), b"\xff"],
                         ids=["nul", "oversized", "not-utf8"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_nul_oversized_and_undecodable_fields_name_the_file(tmp_path, fmt, field):
    # csv.reader rejects a field over the size limit, and a NUL on Python
    # versions before 3.11; bad UTF-8 fails while decoding
    template, kept = ONE_FIELD_FILES[fmt]
    path = tmp_path / f"{fmt}.csv"
    path.write_bytes(template % field)
    read = FORMATS[fmt][0]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        with pytest.raises(ValueError) as got:
            read(path)
        line = "line 2: " if isinstance(exc, csv.Error) else ""
        assert str(got.value) == f"{path}: {line}{exc}"
        return
    if kept is None:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: "):
            read(path)
    else:
        assert kept(read(path)) == field.decode()
