"""Harness scaling: wall time vs worker count, and cold vs warm cache.

Not a paper figure — this characterizes the experiment runner itself.
A Fig. 2-shaped sweep (several workloads, baseline + idealized reruns)
is executed cold at jobs ∈ {1, 2, max} and then warm from the disk
cache, and the wall times land in ``results/BENCH_runner_scaling.json``
so runner regressions are visible across commits.

Parallel speedup is only observable on multi-core hosts: the JSON
records ``cpu_count`` and carries ``parallel_speedup`` only when it is
at least 2.  Simulated seconds and throughput come from the harness
telemetry (fresh simulations only), so the warm row — served entirely
from the disk cache — reports neither.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.config.idealize import PERFECT_BPRED, PERFECT_DCACHE
from repro.experiments import runner
from repro.experiments.cache import TELEMETRY, CaseSpec
from repro.experiments.parallel import run_cases

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

INSTRUCTIONS = 4000
WORKLOADS = ("mcf", "imagick", "exchange2", "povray")


def _sweep_specs() -> list[CaseSpec]:
    specs = [
        CaseSpec(workload=name, preset="tiny", instructions=INSTRUCTIONS)
        for name in WORKLOADS
    ]
    for name in WORKLOADS:
        specs.append(
            CaseSpec(
                workload=name, preset="tiny", instructions=INSTRUCTIONS,
                idealization=PERFECT_DCACHE,
            )
        )
    specs.append(
        CaseSpec(
            workload="exchange2", preset="tiny", instructions=INSTRUCTIONS,
            idealization=PERFECT_BPRED,
        )
    )
    return specs


def _timed_run(specs, *, jobs: int) -> dict:
    TELEMETRY.reset()
    start = time.perf_counter()
    run_cases(specs, jobs=jobs)
    wall = time.perf_counter() - start
    row = {
        "jobs": jobs,
        "wall_seconds": round(wall, 4),
        "simulated": TELEMETRY.sim_invocations,
        "disk_hits": TELEMETRY.disk_hits,
    }
    if TELEMETRY.sim_invocations:
        row["sim_seconds"] = round(TELEMETRY.sim_seconds, 4)
        row["kinstr_per_second"] = round(
            TELEMETRY.instrs_simulated / wall / 1e3, 1
        )
    return row


def test_runner_scaling(tmp_path, monkeypatch, reporter):
    # Never touch the developer's real cache while clearing/warming.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    specs = _sweep_specs()
    cpu = os.cpu_count() or 1
    job_levels = sorted({1, 2, max(2, cpu)})

    cold: list[dict] = []
    for jobs in job_levels:
        runner.clear_cache()
        cold.append(_timed_run(specs, jobs=jobs))

    # Warm rerun: the last cold run left a fully populated disk cache.
    runner.clear_cache(disk=False)
    warm = _timed_run(specs, jobs=job_levels[-1])
    assert warm["simulated"] == 0, "warm rerun must be disk-served"

    serial = cold[0]["wall_seconds"]
    payload = {
        "bench": "runner_scaling",
        "cpu_count": cpu,
        "cases": len(specs),
        "instructions_per_case": INSTRUCTIONS,
        "cold": cold,
        "warm": warm,
        "cold_vs_warm_speedup": (
            round(serial / warm["wall_seconds"], 1)
            if warm["wall_seconds"] > 0
            else None
        ),
    }
    if cpu >= 2:
        payload["parallel_speedup"] = {
            str(row["jobs"]): round(serial / row["wall_seconds"], 2)
            for row in cold
            if row["wall_seconds"] > 0
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_runner_scaling.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    reporter.emit(f"{len(specs)} cases x {INSTRUCTIONS} instrs, "
                  f"{cpu} CPU(s)")
    for row in cold:
        reporter.emit(
            f"cold jobs={row['jobs']}: {row['wall_seconds']:.2f}s wall "
            f"({row['simulated']} simulated, "
            f"{row['kinstr_per_second']:,} kinstr/s)"
        )
    reporter.emit(
        f"warm jobs={warm['jobs']}: {warm['wall_seconds']:.2f}s wall "
        f"({warm['disk_hits']} disk hits, 0 simulated) — "
        f"{payload['cold_vs_warm_speedup']}x faster than cold serial"
    )
    reporter.emit(f"wrote {out.relative_to(RESULTS_DIR.parent)}")
    assert payload["cold_vs_warm_speedup"] > 1
