"""Tests for command dispatch, CSV output, exit codes, determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import detnet
from detnet.cli import CSV_HEADER, CsvRow, _build_parser, dispatch, write_csv
from detnet.scenarios import PROFILE_NAMES


def run(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_no_args_prints_usage_and_fails(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_fails():
    assert dispatch(["optimize"]) == 1


def test_analyze_prints_breakdown(capsys):
    assert dispatch(["analyze", "--mass", "1", "--exponent", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("M=1 a=0.5 mode=spatial")
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["t_total"]) == pytest.approx(
        float(fields["t_detect"]) + float(fields["t_recruit"]) + float(fields["t_expand"]),
        rel=1e-7)


def test_analyze_rejects_bad_mass(capsys):
    assert dispatch(["analyze", "--mass", "-1", "--exponent", "0.5"]) == 1
    assert dispatch(["analyze", "--mass", "2", "--exponent", "1.5"]) == 1


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("mass", ["inf", "nan"])
def test_analyze_rejects_non_finite_mass(mass, capsys):
    assert dispatch(["analyze", "--mass", mass, "--exponent", "0.5"]) == 1
    assert mass in one_line_error(capsys)


def test_infeasible_parameters_exit_code_2(tmp_path, capsys):
    cfg = run(tmp_path, "bcrit_coefficient = 5\n")
    assert dispatch(["analyze", "--mass", "10", "--exponent", "0.5", "--config", cfg]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_infeasible_message_tells_the_two_sides_apart(tmp_path, capsys):
    # a pool just below the requirement must not print as equal to it
    cfg = run(tmp_path, "cognate_frequency = 9.99999997e-7\n")
    assert dispatch(["analyze", "--mass", "10", "--exponent", "0.5", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible parameters: system-wide cognate pool ")
    pool, required = (float(word) for word in err.split()
                      if word[0].isdigit() and word != "per")
    assert pool < required == 1.0


def test_config_error_exit_code_1(tmp_path, capsys):
    cfg = run(tmp_path, "dimenson = 2\n")
    assert dispatch(["sweep", "--config", cfg]) == 1
    assert "dimenson" in capsys.readouterr().err


def test_sweep_row_count_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = run(tmp_path, f"masses = 1 10 100\nexponents = 0 0.5 1\noutput = {out}\n")
    assert dispatch(["sweep", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[2] == "analytic" and first[3] == "spatial"


def test_sweep_default_grid_is_21_points(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = run(tmp_path, f"masses = 1 10\noutput = {out}\n")
    assert dispatch(["sweep", "--config", cfg]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 21


def test_csv_total_equals_phase_sum_at_printed_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = run(tmp_path, f"output = {out}\n")
    assert dispatch(["sweep", "--config", cfg]) == 0
    for line in out.read_text().splitlines()[1:]:
        cols = line.split(",")
        phases = sum(float(c) for c in cols[4:7])
        total = float(cols[7])
        assert abs(total - phases) <= 1e-7 * max(1.0, abs(total))


def test_simulate_rows_and_summary(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = run(tmp_path, f"masses = 4\ntrials = 3\noutput = {out}\n")
    assert dispatch(["simulate", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 + 1
    trials = [line.split(",")[-1] for line in lines[1:]]
    assert trials == ["0", "1", "2", "-1"]
    seeds = [line.split(",")[-2] for line in lines[1:]]
    assert seeds == ["42", "43", "44", "42"]
    # summary phases are the means of the trial rows
    rows = [line.split(",") for line in lines[1:]]
    for col in (4, 5, 6):
        mean = sum(float(r[col]) for r in rows[:3]) / 3.0
        assert float(rows[3][col]) == pytest.approx(mean, rel=1e-7)


def test_simulate_trials_flag_overrides_config(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = run(tmp_path, f"masses = 1\ntrials = 9\noutput = {out}\n")
    assert dispatch(["simulate", "--config", cfg, "--trials", "2"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 + 1


def test_simulate_trials_flag_is_validated(tmp_path, capsys):
    cfg = run(tmp_path, f"masses = 1\noutput = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg, "--trials", "0"]) == 1
    assert one_line_error(capsys) == "error: trials must be >= 1, got 0\n"
    assert list(tmp_path.glob("sim.csv*")) == []


def test_simulate_byte_identical_outputs(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    body = "masses = 16\ntrials = 4\nseed = 31\nmovement = random_walk\n"
    cfg_a = run(tmp_path, body + f"output = {out_a}\n")
    path_b = tmp_path / "b.cfg"
    path_b.write_text(body + f"output = {out_b}\n")
    assert dispatch(["simulate", "--config", cfg_a]) == 0
    assert dispatch(["simulate", "--config", str(path_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.csv.events").read_bytes() == (tmp_path / "b.csv.events").read_bytes()


def test_simulate_seed_flag_changes_outputs(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = run(tmp_path, f"masses = 16\ntrials = 2\noutput = {out}\n")
    assert dispatch(["simulate", "--config", cfg]) == 0
    first = out.read_bytes()
    assert dispatch(["simulate", "--config", cfg, "--seed", "1234"]) == 0
    assert out.read_bytes() != first


def test_simulate_event_log_has_trial_markers(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = run(tmp_path, f"masses = 4\ntrials = 2\noutput = {out}\n")
    assert dispatch(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "sim.csv.events").read_text().splitlines()
    markers = [line for line in lines if "\ttrial-begin\t" in line]
    assert len(markers) == 2
    for line in lines:
        parts = line.split("\t")
        assert len(parts) == 4
        float(parts[0])  # fixed-point time parses


def test_scenario_verdict_table(tmp_path, capsys):
    out = tmp_path / "verdict.csv"
    cfg = run(tmp_path, f"masses = 10 100 1000 10000\noutput = {out}\n")
    assert dispatch(["scenario", "--profile", "limited-limited", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("profile,M,winner")
    winners = [line.split(",")[2] for line in lines[1:]]
    assert winners[-1] == "model3"
    assert all(w == "model3" for w in winners)


def test_scenario_all_profiles_summary(tmp_path):
    out = tmp_path / "table.csv"
    cfg = run(tmp_path, f"masses = 10 100 1000 10000\noutput = {out}\n")
    assert dispatch(["scenario", "--profile", "all", "--config", cfg]) == 0
    assert out.read_text() == (
        "profile,winner\n"
        "unlimited-unlimited,tie\n"
        "limited-unlimited,model1\n"
        "unlimited-limited,model2\n"
        "limited-limited,model3\n"
    )


def test_scenario_all_agrees_with_each_profile_run(tmp_path):
    # a pinned model 3 exponent must reach the summary table too; with 0.95
    # the unlimited-unlimited verdict is model1, not the optimised tie
    cfg = run(tmp_path, f"model3_exponent = 0.95\noutput = {tmp_path / 'scen.csv'}\n")
    assert dispatch(["scenario", "--profile", "all", "--config", cfg]) == 0
    table = (tmp_path / "scen.csv").read_text().splitlines()[1:]
    overall = []
    for name in PROFILE_NAMES:
        assert dispatch(["scenario", "--profile", name, "--config", cfg]) == 0
        last = (tmp_path / "scen.csv").read_text().splitlines()[-1]
        assert last.startswith(f"{name},overall,")
        overall.append(f"{name},{last.split(',')[2]}")
    assert table == overall
    assert table[0] == "unlimited-unlimited,model1"


def test_scenario_rejects_unknown_profile():
    assert dispatch(["scenario", "--profile", "fast-slow"]) == 1


@pytest.mark.parametrize("mode", ["contention", "spatial"])
def test_limited_limited_scenario_charges_the_analytic_costs(tmp_path, capsys, mode):
    # both channels limited is the model as configured: model 3 pinned at 0.5
    # costs what `analyze --exponent 0.5` prints for the same config
    out = tmp_path / "scen.csv"
    cfg = run(tmp_path, f"mode = {mode}\nmodel3_exponent = 0.5\noutput = {out}\n")
    assert dispatch(["scenario", "--profile", "limited-limited", "--config", cfg]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
    assert [row[1] for row in rows] == ["1", "10", "100", "1000", "10000"]
    capsys.readouterr()
    for row in rows:
        assert dispatch(["analyze", "--mass", row[1], "--exponent", "0.5", "--config", cfg]) == 0
        printed = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert row[5] == printed["t_total"]


@pytest.mark.parametrize("key, refused, runs", [
    ("contention_coefficient", ["limited-unlimited", "all"], ["unlimited-unlimited"]),
    ("contact_latency", ["unlimited-limited", "limited-limited", "all"],
     ["unlimited-unlimited", "limited-unlimited"]),
    ("detector_speed", ["limited-unlimited", "all"], ["unlimited-unlimited"]),
])
def test_scenario_refuses_a_limited_channel_without_cost(tmp_path, capsys, key, refused, runs):
    # a free channel: rho = 0, which only contention mode reads; lambda = 0;
    # or v = inf, which only spatial mode (the default) reads
    value, bound = ("inf", "< inf") if key == "detector_speed" else ("0", "> 0")
    mode = "mode = contention\n" if key == "contention_coefficient" else ""
    out = tmp_path / "scen.csv"
    cfg = run(tmp_path, f"{mode}{key} = {value}\noutput = {out}\n")
    for profile in refused:
        assert dispatch(["scenario", "--profile", profile, "--config", cfg]) == 1
        assert f"needs {key} {bound} on its limited channel, got {float(value)!r}" in \
            one_line_error(capsys)
        assert not out.exists()
    for profile in runs:
        assert dispatch(["scenario", "--profile", profile, "--config", cfg]) == 0
        out.unlink()


@pytest.mark.parametrize("key", ["limited_rho", "limited_lambda"])
def test_deleted_scenario_cost_keys_are_unknown(tmp_path, capsys, key):
    cfg = run(tmp_path, f"{key} = 0.1\noutput = {tmp_path / 'scen.csv'}\n")
    assert dispatch(["scenario", "--profile", "all", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"config error: line 1: key '{key}': unknown key\n"
    assert not (tmp_path / "scen.csv").exists()


def test_write_csv_header_only_and_determinism(tmp_path):
    empty = tmp_path / "empty.csv"
    write_csv([], empty)
    assert empty.read_text() == CSV_HEADER + "\n"

    rows = [CsvRow(1.0, 0.5, "analytic", "spatial", 0.1, 0.2, 0.3, 0.6, 42, -1)]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    write_csv(rows, p1)
    write_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_write_csv_nine_significant_digits(tmp_path):
    rows = [CsvRow(1.0, 1 / 3, "analytic", "spatial",
                   0.123456789123, 0.0, 4.0, 4.123456789123, 42, -1)]
    path = tmp_path / "digits.csv"
    write_csv(rows, path)
    cols = path.read_text().splitlines()[1].split(",")
    assert cols[1] == "0.333333333"
    assert cols[4] == "0.123456789"
    assert cols[7] == "4.12345679"


def test_unwritable_output_exit_code_1(tmp_path, capsys):
    # a failed write prints one error line and nothing on stdout, no verdict either
    csv = tmp_path / "missing" / "x.csv"
    cfg = run(tmp_path, f"output = {csv}\nmasses = 1\nexponents = 0\ntrials = 1\n")
    for command in (["sweep"], ["simulate"], ["scenario", "--profile", "all"],
                    ["scenario", "--profile", "limited-limited"]):
        assert dispatch([*command, "--config", cfg]) == 1, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]
    # an unwritable .events removes the CSV written beside it
    (tmp_path / "out.csv.events").mkdir()
    cfg = run(tmp_path, f"output = {tmp_path / 'out.csv'}\nmasses = 1\ntrials = 1\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.csv").exists()


def test_simulate_rejects_infinite_mass_in_config(tmp_path, capsys):
    cfg = run(tmp_path, f"masses = 1 inf\noutput = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "masses" in err and err.count("\n") == 1


def test_simulate_refuses_oversized_world(tmp_path, capsys):
    cfg = run(tmp_path, f"masses = 1e8\nexponent = 1\noutput = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    assert "100000000 hubs" in one_line_error(capsys)


def test_simulate_refuses_an_absurd_detector_count(tmp_path, capsys):
    cfg = run(tmp_path, f"masses = 1\ndetectors = 1000000000000\noutput = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    assert "n_detectors must be in [1, 2000000], got 1000000000000" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


def test_scenario_refuses_oversized_exponent_grid(tmp_path, capsys):
    cfg = run(tmp_path, f"grid_resolution = 1e-12\noutput = {tmp_path / 'scen.csv'}\n")
    assert dispatch(["scenario", "--profile", "all", "--config", cfg]) == 1
    assert "limited to 1000001 points" in one_line_error(capsys)
    assert not (tmp_path / "scen.csv").exists()


def test_simulate_walk_step_limit_exit_code_1(tmp_path, capsys):
    # a 100 x 100 domain searched with step 1e-4 is not crossed in 1e6 steps
    cfg = run(tmp_path, "masses = 1e4\nexponent = 0\nmovement = random_walk\n"
                        f"walk_step = 1e-4\nsite = 10 10\ntrials = 1\n"
                        f"output = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    assert "not absorbed within 1000000 steps" in one_line_error(capsys)


def test_simulate_refuses_an_infinite_walk_step(tmp_path, capsys):
    # an infinite step would arrive after 0 steps of length inf, a NaN time
    cfg = run(tmp_path, "masses = 16\nmovement = random_walk\nwalk_step = inf\n"
                        f"output = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("config error: line 3: key 'walk_step': "
                                       "walk_step must be finite and > 0, got inf\n")
    assert list(tmp_path.glob("sim.csv*")) == []


@pytest.mark.parametrize("mass, exponent, config, message", [
    ("1e-322", "0", "cognate_frequency = 1e-9\nbase_hub_count = 1000\n", "underflows to 0.0"),
    ("1e10", "1", "base_hub_count = 1e300\n", "hub count n0*M^a = inf"),
])
def test_analyze_refuses_extreme_scalar_inputs(tmp_path, capsys, mass, exponent, config, message):
    cfg = run(tmp_path, config)
    assert dispatch(["analyze", "--mass", mass, "--exponent", exponent, "--config", cfg]) == 1
    assert message in one_line_error(capsys)


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_seed_flag_is_validated(tmp_path, capsys, command):
    cfg = run(tmp_path, f"masses = 1\nexponents = 0.5\noutput = {tmp_path / 'out.csv'}\n")
    assert dispatch([command, "--config", cfg, "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in one_line_error(capsys)
    assert list(tmp_path.glob("out.csv*")) == []


@pytest.mark.parametrize("command, config", [
    (["analyze", "--mass", "1e308", "--exponent", "0.5"], ""),
    (["sweep"], "masses = 1 1e308\n"),
    (["simulate"], "masses = 1.2e307\nexponent = 0\n"),
    (["scenario", "--profile", "all"], "masses = 1 1e308\n"),
    (["scenario", "--profile", "limited-limited"],
     "masses = 1e10\nantibody_coefficient = 1e300\n"),
])
def test_overflowing_output_target_exits_1(tmp_path, capsys, command, config):
    # antibody_coefficient * M = inf would print t_expand = inf,
    # or double the simulated pool until it overflows
    cfg = run(tmp_path, config + f"output = {tmp_path / 'out.csv'}\n")
    assert dispatch([*command, "--config", cfg]) == 1
    assert "output target antibody_coefficient*M = inf" in one_line_error(capsys)
    assert list(tmp_path.glob("out.csv*")) == []


def refused_quietly(tmp_path, capsys, argv, config):
    # argv with config exits 1 with one error line, no warning and no file written
    cfg = run(tmp_path, config + f"output = {tmp_path / 'out.csv'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch([*argv, "--config", cfg]) == 1
    assert list(tmp_path.glob("out.csv*")) == []
    return one_line_error(capsys)


@pytest.mark.parametrize("mass, config, message", [
    # bcrit * M underflows: the activated pool is 0
    ("1e-200", "bcrit_coefficient = 1e-200\ndoubling_time = 0.01\n",
     "B_initial must be > 0, got 0.0"),
    # antibody_coefficient * M underflows: the output target is 0
    ("1e-30", "antibody_coefficient = 1e-300\n", "B_target must be > 0, got 0.0"),
])
def test_simulate_refuses_what_analyze_refuses_in_expansion(tmp_path, capsys, mass, config,
                                                            message):
    config += f"masses = {mass}\n"
    assert message in refused_quietly(tmp_path, capsys, ["simulate"], config)
    assert message in refused_quietly(
        tmp_path, capsys, ["analyze", "--mass", mass, "--exponent", "0.5"], config)


@pytest.mark.parametrize("command", [["analyze", "--mass", "1", "--exponent", "0.5"],
                                     ["sweep"], ["scenario", "--profile", "limited-limited"]])
def test_target_met_by_a_ratio_that_underflows_takes_no_expansion(tmp_path, capsys, command):
    # antibody_coefficient * M / pool underflows to 0: the target is already
    # met, so t_expand = 0, as simulate writes, where log2(0) used to raise
    out = tmp_path / "out.csv"
    cfg = run(tmp_path, "antibody_coefficient = 5e-324\ncognate_frequency = 1\n"
                        f"bcrit_coefficient = 1e6\noutput = {out}\n")
    assert dispatch([*command, "--config", cfg]) == 0
    if command[0] == "analyze":
        assert " t_expand=0 " in capsys.readouterr().out
    elif command[0] == "sweep":
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0][6] == "t_expand" and {row[6] for row in rows[1:]} == {"0"}
    else:  # each model's total is its detection time alone
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        assert rows[0][1:6] == ["1", "tie", "0.382597858", "0.382597858", "0.382597858"]


def refused_as_unknown(tmp_path, capsys, command, key):
    # a config naming a deleted key exits 1 with one config error and writes no file
    cfg = run(tmp_path, f"{key} = 1\noutput = {tmp_path / 'out.csv'}\n")
    assert dispatch([*command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"config error: line 1: key '{key}': unknown key\n"
    assert list(tmp_path.glob("out.csv*")) == []


ALL_COMMANDS = [["analyze", "--mass", "1", "--exponent", "0.5"], ["sweep"], ["simulate"],
                ["scenario", "--profile", "all"]]


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_deleted_plasma_yield_key_is_unknown(tmp_path, capsys, command):
    refused_as_unknown(tmp_path, capsys, command, "plasma_yield")


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_deleted_body_volume_key_is_unknown(tmp_path, capsys, command):
    refused_as_unknown(tmp_path, capsys, command, "body_volume_coefficient")


def test_analyze_refuses_calibration_overflow(tmp_path, capsys):
    cfg = run(tmp_path, "doubling_time = 1e-3\n")
    assert dispatch(["analyze", "--mass", "1", "--exponent", "0.5", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 1: key 'doubling_time': doubling_time ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_refuses_nan_site(tmp_path, capsys):
    cfg = run(tmp_path, f"site = nan 0.5\noutput = {tmp_path / 'sim.csv'}\n")
    assert dispatch(["simulate", "--config", cfg]) == 1
    assert "outside the domain" in one_line_error(capsys)
    assert list(tmp_path.glob("sim.csv*")) == []


def test_one_process_dispatches_like_fresh_processes(tmp_path, capsys):
    # dispatch reuses one parser; each command must behave as in a new process
    out = tmp_path / "sim.csv"
    cfg = run(tmp_path, f"masses = 1 16\ntrials = 2\noutput = {out}\n")
    commands = [
        ["analyze", "--mass", "256", "--exponent", "0.5"],
        ["simulate", "--config", cfg, "--trials", "two"],
        ["simulate", "--config", cfg],
        ["analyze", "--mass", "256", "--exponent", "0.5"],
    ]

    def files():
        return [p.read_bytes() for p in (out, Path(f"{out}.events")) if p.exists()]

    in_process = []
    for argv in commands:
        status = dispatch(argv)
        captured = capsys.readouterr()
        in_process.append((status, captured.out, captured.err, files()))
    assert _build_parser() is _build_parser()

    env = dict(os.environ, PYTHONPATH=str(Path(detnet.__file__).parents[1]))
    for f in tmp_path.glob("sim.csv*"):
        f.unlink()
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "detnet.cli", *argv], env=env,
                              capture_output=True, text=True, check=False, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr, files()))
    assert in_process == fresh
    assert [status for status, *_ in fresh] == [0, 1, 0, 0]
    assert fresh[1][2] == "error: argument --trials: invalid int value: 'two'\n"
