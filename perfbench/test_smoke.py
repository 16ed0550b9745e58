"""Smoke tests of the benchmark at tiny size (2,000-instruction cases).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
         "--seconds", "0.2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out, result = run_bench("--workload", workload, "--trace", str(trace))
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]]
            and line.split()[-1] == metric["unit"]
            for line in out.splitlines()
        ), metric["name"]
    assert "failed_ratio" in out
    if trace:
        assert "experiments.fused_runs_saved" in out
        assert "experiments.retries" in out
    else:
        assert "warm_pass_s_p50" in out and "warm_pass_s_p90" in out
    assert result["attempted"] >= 1


def test_corrupted_golden_digest_counts_as_failed(tmp_path):
    golden = tmp_path / "golden.json"
    subprocess.run(
        [sys.executable, str(HERE / "make_golden.py"), "--scale", "tiny",
         "--workload", "loops", "--out", str(golden)],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    _, clean = run_bench("--workload", "loops", "--golden", str(golden))
    assert clean["failed"] == 0
    data = json.loads(golden.read_text())
    digests = data["seeds"]["1"]["loops"]
    label = sorted(digests)[0]
    digests[label] = "0" * len(digests[label])
    golden.write_text(json.dumps(data))
    out, corrupt = run_bench("--workload", "loops", "--golden", str(golden))
    assert corrupt["failed"] == 1
    assert corrupt["attempted"] == clean["attempted"]
    assert corrupt["correct"] is False
    assert f"FAILED {label}: digest" in out


def test_timed_and_traced_runs_check_each_other(tmp_path):
    args = ("--workload", "loops", "--seed", "3",
            "--out-dir", str(tmp_path))
    out, _ = run_bench(*args)
    assert "trace1-run=no" in out
    (saved,) = tmp_path.glob("digests-loops-seed3-tiny-*-trace0.json")
    digests = json.loads(saved.read_text())
    label = sorted(digests)[0]
    digests[label] = "0" * len(digests[label])
    saved.write_text(json.dumps(digests))
    out, traced = run_bench(*args, "--trace", "1")
    assert "trace0-run=yes" in out
    assert traced["failed"] == 1
    assert f"FAILED {label}: digest" in out


def test_self_times_sum_to_the_run_span(tmp_path):
    run_bench("--workload", "loops", "--trace", "1",
              "--out-dir", str(tmp_path))
    spans = json.loads(
        (tmp_path / "spans-loops-seed1.json").read_text())
    records = spans["records"]
    children: dict = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record["id"])
    runs = [r for r in records if r["name"] == "pipeline.core.run"]
    assert runs
    for run in runs:
        subtree, todo = set(), [run["id"]]
        while todo:
            node = todo.pop()
            subtree.add(node)
            todo += children.get(node, [])
        total = sum(records[i]["self_seconds"] for i in subtree)
        total += sum(
            a["self_seconds"] for a in spans["aggregates"]
            if a["anchor"] in subtree
        )
        assert total == pytest.approx(run["seconds"], rel=1e-9, abs=1e-12)
        assert run["self_seconds"] < run["seconds"]
    assert any(
        a["path"].endswith("trace.self") and a["count"] > 0
        for a in spans["aggregates"]
    )
