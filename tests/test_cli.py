"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import invariants
from repro.experiments import supervisor


def test_parser_subcommands():
    parser = build_parser()
    for argv in (
        ["run", "--workload", "mcf"],
        ["workloads"],
        ["presets"],
        ["table1"],
        ["fig3", "--case", "fig3a"],
        ["fig5"],
        ["overhead"],
        ["profile", "mcf"],
        ["profile", "mcf", "--config", "knl"],
        ["failures", "list"],
        ["failures", "clear"],
        ["checkpoints", "list"],
        ["checkpoints", "clear"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_parser_harness_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["table1", "--jobs", "2", "--case-timeout", "1.5", "--keep-going",
         "--no-strict"]
    )
    assert args.jobs == 2
    assert args.case_timeout == 1.5
    assert args.keep_going and args.no_strict
    defaults = parser.parse_args(["fig5"])
    assert defaults.case_timeout is None
    assert not defaults.keep_going and not defaults.no_strict


def test_parser_rejects_unknown_workload():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "nonexistent"])


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "cactus" in out


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("bdw", "knl", "skx"):
        assert name in out


def test_run_command_prints_stacks(capsys):
    code = main(["run", "--workload", "exchange2", "--core", "tiny",
                 "--instructions", "2000", "--flops"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dispatch" in out and "issue" in out and "commit" in out
    assert "CPI=" in out


def test_run_command_modes(capsys):
    code = main(["run", "--workload", "leela", "--core", "tiny",
                 "--instructions", "2000", "--mode", "simple"])
    assert code == 0
    assert "bpred" in capsys.readouterr().out


def test_overhead_command(capsys):
    code = main(["overhead", "--workload", "exchange2", "--core", "tiny",
                 "--instructions", "1500"])
    assert code == 0
    assert "overhead" in capsys.readouterr().out


def test_profile_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["profile", "exchange2", "--core", "tiny",
                 "--instructions", "1500", "--top", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    report = tmp_path / "results" / "profile_exchange2.txt"
    assert report.exists()
    text = report.read_text()
    assert "committed_uops" in text and "_step_event" in text
    header = [line for line in text.splitlines() if line.startswith("# ")]
    assert header[1].startswith("# trace_build=")
    assert "instructions=" in header[1]
    assert header[2].startswith("# construct=")
    assert header[3].startswith("# run=")
    assert "uops_per_second=" in header[3]
    # The trace build runs inside the profiled region.
    assert "(make_trace)" in text


def test_socket_command(capsys):
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "socket" in out and "homogeneity" in out


def test_failures_commands(capsys):
    supervisor.clear_failures()
    assert main(["failures", "list"]) == 0
    assert "no failure reports" in capsys.readouterr().out
    supervisor.save_failure(
        supervisor.FailureReport(
            key="cafe" * 16, label="mcf@tiny", classification="timeout",
            attempts=[
                supervisor.Attempt(
                    attempt=0, classification="timeout",
                    error="no result within the 0.3s deadline",
                    elapsed_seconds=0.3, executor="pool",
                )
            ],
        )
    )
    assert main(["failures", "list"]) == 0
    out = capsys.readouterr().out
    assert "mcf@tiny" in out and "timeout" in out
    assert main(["failures", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert supervisor.list_failures() == []


def test_batch_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        supervisor, "fault_plan", {"*": {"kind": "crash", "times": 99}}
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["fig5", "--jobs", "1", "--instructions", "1500"])
    assert code == 1
    captured = capsys.readouterr()
    assert "failed after supervision" in captured.err
    assert "[harness]" in captured.out, "the summary line still prints"
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_failed_baseline_omits_group(capsys, monkeypatch):
    """A baseline that never recovers drops its whole Table I group."""
    monkeypatch.setattr(
        supervisor, "fault_plan",
        {"mcf@knl": {"kind": "crash", "times": 99}},
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["table1", "--jobs", "1", "--instructions", "1500",
                 "--keep-going"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mcf on BDW" in out, "the healthy group still renders"
    assert "mcf on KNL" not in out, "the group without a baseline is gone"
    supervisor.clear_failures()
    clear_cache()


def test_keep_going_incomplete_socket_fails_cleanly(capsys, monkeypatch):
    """Aggregates that need every case report IncompleteBatch, not a crash."""
    monkeypatch.setattr(
        supervisor, "fault_plan", {"*": {"kind": "crash", "times": 99}}
    )
    from repro.experiments.runner import clear_cache

    clear_cache()
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500", "--keep-going"])
    assert code == 1
    captured = capsys.readouterr()
    assert "needs the whole 2-core engine run" in captured.err
    supervisor.clear_failures()
    clear_cache()
    # The homogeneous oracle path reports per-thread holes the same way.
    code = main(["socket", "--workload", "exchange2", "--core", "tiny",
                 "--threads", "2", "--instructions", "1500", "--keep-going",
                 "--homogeneous"])
    assert code == 1
    captured = capsys.readouterr()
    assert "needs all 2 threads" in captured.err
    supervisor.clear_failures()
    clear_cache()


def test_no_strict_flag_disables_guard(capsys):
    import os

    previous = os.environ.pop(invariants.ENV_STRICT, None)
    try:
        code = main(["table1", "--jobs", "1", "--instructions", "1500",
                     "--no-strict"])
        assert code == 0
        assert not invariants.strict_enabled()
        assert os.environ.get(invariants.ENV_STRICT) == "0", (
            "workers must inherit non-strict mode via the environment"
        )
    finally:
        invariants.set_strict(None)
        os.environ.pop(invariants.ENV_STRICT, None)
        if previous is not None:
            os.environ[invariants.ENV_STRICT] = previous
    capsys.readouterr()


def test_no_fast_forward_flag_sets_env(capsys):
    import os

    from repro.pipeline.core import ENV_FAST_FORWARD, fast_forward_default

    previous = os.environ.pop(ENV_FAST_FORWARD, None)
    try:
        code = main(["run", "--workload", "exchange2", "--core", "tiny",
                     "--instructions", "2000", "--no-fast-forward"])
        assert code == 0
        assert os.environ.get(ENV_FAST_FORWARD) == "0", (
            "workers must inherit the escape hatch via the environment"
        )
        assert fast_forward_default() is False
    finally:
        os.environ.pop(ENV_FAST_FORWARD, None)
        if previous is not None:
            os.environ[ENV_FAST_FORWARD] = previous
    capsys.readouterr()


def test_checkpoints_commands(capsys):
    from repro.pipeline import checkpoint as ckpt

    ckpt.clear_checkpoints()
    capsys.readouterr()
    assert main(["checkpoints", "list"]) == 0
    assert "no checkpoints" in capsys.readouterr().out
    ckpt.save_checkpoint(
        ckpt.checkpoint_path("feed" * 16, 1200),
        b"payload",
        {"case": "mcf", "config": "bdw", "committed_instrs": 1200},
    )
    assert main(["checkpoints", "list"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "1200" in out
    assert main(["checkpoints", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert ckpt.list_checkpoints() == []


def test_checkpoint_interval_flag_sets_env(capsys, monkeypatch):
    import os

    from repro.experiments.runner import clear_cache
    from repro.pipeline.checkpoint import (
        ENV_CHECKPOINT_INTERVAL,
        checkpoint_interval_default,
    )

    monkeypatch.setenv(ENV_CHECKPOINT_INTERVAL, "")
    clear_cache()
    code = main(["fig5", "--jobs", "1", "--instructions", "1500",
                 "--checkpoint-interval", "400"])
    assert code == 0
    assert os.environ.get(ENV_CHECKPOINT_INTERVAL) == "400", (
        "workers must inherit the cadence via the environment"
    )
    assert checkpoint_interval_default() == 400
    clear_cache()
    capsys.readouterr()
