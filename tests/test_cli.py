"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_verify_a_library_program(capsys):
    exit_code = main(["verify", "ex1.1-(2)(1/2)"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "AST verified" in output
    assert "1/2*d2" in output


def test_verify_a_surface_syntax_program_that_is_not_ast(capsys):
    exit_code = main(
        ["verify", "mu phi x. if sample - 1/4 then x else phi (phi (x + 1))", "--tree"]
    )
    output = capsys.readouterr().out
    assert exit_code == 1
    assert "not verified" in output
    assert "execution tree" in output


def test_lower_bound_command(capsys):
    exit_code = main(
        [
            "lower-bound",
            "(mu phi x. if sample - 1/2 then x else phi (x + 1)) 1",
            "--depth",
            "40",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "lower bound" in output
    assert "0.99" in output


def test_estimate_command_accepts_library_names(capsys):
    exit_code = main(["estimate", "--program", "geo(1/2)", "--runs", "200"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "Pterm (MC)" in output


def test_table2_command_lists_all_rows(capsys):
    exit_code = main(["table2"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert output.count("yes") == 5


def test_list_programs_command(capsys):
    exit_code = main(["list-programs"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "geo(1/2)" in output
    assert "pedestrian" in output


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_classify_command_on_past_program(capsys):
    exit_code = main(["classify", "geo(1/2)"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "PAST (and hence AST) verified" in output
    assert "E[calls]" in output


def test_classify_command_on_critical_program(capsys):
    exit_code = main(["classify", "ex1.1(1/2)"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "AST verified; not PAST" in output


def test_report_command_emits_markdown_tables(capsys):
    exit_code = main(["report", "--depth", "15"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "## Table 1" in output
    assert "## Table 2" in output
    assert "## AST / PAST classification" in output


def test_list_programs_includes_extra_library(capsys):
    exit_code = main(["list-programs"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "two-sample-sum" in output
    assert "von-neumann(1/3)" in output
    assert "sig-branch(3/5)" in output


def test_lower_bound_schedule_streams_anytime_bounds(capsys):
    exit_code = main(["lower-bound", "geo(1/2)", "--schedule", "20,40"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "depth     20 :" in output
    assert "depth     40 :" in output
    assert "gap <=" in output
    # The final summary reports the deepest scheduled bound.
    assert "depth        : 40" in output


def test_lower_bound_schedule_stops_at_the_target_gap(capsys):
    exit_code = main(
        ["lower-bound", "geo(1/2)", "--schedule", "20,40,60,80", "--target-gap", "1/100"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "depth     40 :" in output
    assert "depth     60 :" not in output


def test_lower_bound_rejects_a_decreasing_schedule(capsys):
    with pytest.raises(SystemExit):
        main(["lower-bound", "geo(1/2)", "--schedule", "40,20"])


def test_batch_schedule_on_a_depthless_suite_is_a_clean_error(capsys):
    assert main(["batch", "--suite", "table2", "--schedule", "10,20"]) == 2
    assert "no depth axis" in capsys.readouterr().err


def test_sigmoid_branching_known_probability_is_clamped():
    from repro.programs import sigmoid_branching
    from fractions import Fraction

    # Thresholds below sig(0) = 1/2 never terminate a round: Pterm = 0,
    # never a negative number.
    assert sigmoid_branching(Fraction(2, 5)).known_probability == 0.0
    assert sigmoid_branching(Fraction(9, 10)).known_probability == 1.0


def test_target_gap_without_schedule_is_rejected(capsys):
    for command in (
        ["lower-bound", "geo(1/2)", "--target-gap", "1/100"],
        ["table1", "--target-gap", "1/100"],
        ["batch", "--suite", "table1", "--target-gap", "1/100"],
    ):
        assert main(command) == 2
        assert "--target-gap requires --schedule" in capsys.readouterr().err


def test_table1_schedule_renders_a_depth_column(capsys):
    exit_code = main(["table1", "--schedule", "10,15"])
    output = capsys.readouterr().out
    assert exit_code == 0
    # Two rows per program, one per scheduled depth.
    assert output.count("geo(1/2)") == 2
    assert "    10" in output and "    15" in output


def test_stats_json_dumps_the_new_counters(tmp_path, capsys):
    path = tmp_path / "stats.json"
    exit_code = main(
        ["lower-bound", "geo(1/2)", "--schedule", "20,40", "--stats-json", str(path)]
    )
    assert exit_code == 0
    import json

    counters = json.loads(path.read_text())["counters"]
    for name in ("symbolic_steps", "paths_resumed", "frontier_peak", "sweep_warm_starts"):
        assert name in counters
    assert counters["paths_resumed"] > 0


def test_estimate_stats_json(tmp_path, capsys):
    path = tmp_path / "estimate.json"
    exit_code = main(
        ["estimate", "--program", "geo(1/2)", "--runs", "100", "--stats-json", str(path)]
    )
    assert exit_code == 0
    import json

    document = json.loads(path.read_text())
    assert document["analysis"] == "estimate"
    assert document["runs"] == 100


def test_report_schedule_renders_the_anytime_table(capsys):
    exit_code = main(["report", "--schedule", "10,14"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "anytime lower bounds over a depth schedule" in output
    assert "## Table 2" in output


def test_nondefault_engine_batch_runs_inline_past_a_warm_job_cache(
    tmp_path, capsys, monkeypatch
):
    """A sweep-budget flag is a non-default engine: even with ``--jobs 2``
    against a warm ``--cache-dir`` the batch must run inline (pool workers
    build default engines) and must not replay job results cached under the
    default options, so its JSONL equals a plain ``--jobs 1`` run."""
    from repro.batch import runner

    cache_dir = str(tmp_path / "store")
    warm = ["batch", "--suite", "sweep", "--jobs", "1", "--cache-dir", cache_dir]
    assert main(warm) == 0
    default_lines = capsys.readouterr().out

    def no_pool(*args, **kwargs):
        raise AssertionError("a non-default engine must not reach the pool")

    monkeypatch.setattr(runner, "_run_pool", no_pool)
    configured = ["batch", "--suite", "sweep", "--sweep-depth", "18"]
    assert main(configured + ["--jobs", "2", "--cache-dir", cache_dir]) == 0
    captured = capsys.readouterr()
    assert "job cache        : 0 hits, 3 misses" in captured.err
    assert "cached" not in captured.err  # no progress line replays a result
    assert main(configured + ["--jobs", "1"]) == 0
    assert captured.out == capsys.readouterr().out
    # The default-engine answers really differ, so a replay would show.
    assert captured.out != default_lines


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "geo(1/2)", "--no-"],  # would expand to --no-sweep-kernel
        ["verify", "geo(1/2)", "--sweep-dep", "9"],
        ["batch", "--suite", "sweep", "--cache", "store"],
        ["trace", "watch", "t.jsonl", "--on"],
    ],
)
def test_abbreviated_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    ["--contract", "--no-measure-cache", "--no-block-memo", "--no-block-sweep"],
)
def test_deleted_ablation_flags_are_rejected(flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "geo(1/2)", flag])
