"""The performance ledger: every simulator and harness speed gate, one JSON.

Not a paper figure.  This bench measures how fast the simulator and its
experiment harness run, and writes everything to one file,
``results/BENCH.json``, with one section per subject:

* ``host`` — the CPU count (parallel-speedup claims need at least 2).
* ``engines`` — committed micro-ops per host second on ten cells
  (five workloads × the Broadwell and Knights Landing presets), for the
  ``default`` fast path (event scheduler, flat-array memory, both skip
  engines) and the every-cycle ``reference`` path.  ``chase``, ``mcf``
  and ``bwaves`` are memory-bound, where fast-forward does the work;
  ``exchange2`` and ``spin`` are loop traces, where replay does it.
* ``fusion`` — fused against unfused multi-accountant batches.
* ``multicore`` — the lockstep engine's per-core cost against a solo
  core.
* ``harness`` — a Fig. 2-shaped sweep cold at 1, 2 and all CPUs, then
  warm from the disk cache.

Every timed comparison goes through :func:`best_of`, which interleaves
its arms round-robin and keeps each arm's fastest run.  Timing is plain
``time.perf_counter`` (no pytest-benchmark fixture), so CI can run this
file standalone::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_ledger.py

The committed ``BENCH.json`` doubles as a baseline: each engine cell
must stay above ``SLACK`` times its committed default throughput.  The
other gates are pinned absolute uops/s floors, which depend on the
host's speed, and same-run ratios, which do not; each is listed where
it is defined.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro.config.cores import CacheConfig, DramConfig
from repro.config.idealize import PERFECT_BPRED, PERFECT_DCACHE
from repro.config.presets import (
    broadwell, knights_landing, skylake_x, tiny_core,
)
from repro.experiments import runner
from repro.experiments.cache import TELEMETRY, CaseSpec
from repro.experiments.parallel import run_cases
from repro.isa import decoder as asm
from repro.pipeline.core import CoreSimulator
from repro.pipeline.multicore import MulticoreSimulator
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_threaded_traces, make_trace

from benchmarks.conftest import RESULTS_DIR

LEDGER_PATH = RESULTS_DIR / "BENCH.json"

#: Repeats per section; each arm reports its fastest run.  Host timing
#: on shared machines swings by 10%+, and the pinned engine floors
#: leave a modest margin, so the engines get best-of-5.
REPEATS = {"engines": 5, "fusion": 3, "multicore": 3}


def best_of(repeats: int, arms: dict) -> dict:
    """Interleaved best-of-``repeats`` wall time per arm.

    ``arms`` maps a name to a zero-argument *setup* that returns the
    zero-argument callable to time, so construction stays outside the
    timed region.  Each repeat runs every arm once, round-robin, so a
    transient host-load spike lands on every arm instead of skewing the
    ratios the floors are built from.  Returns ``name -> (wall, value)``
    for each arm's fastest run, ``value`` being what that run returned.
    """
    best: dict[str, tuple[float, object]] = {}
    for _ in range(repeats):
        for name, setup in arms.items():
            timed = setup()
            start = time.perf_counter()
            value = timed()
            wall = time.perf_counter() - start
            if name not in best or wall < best[name][0]:
                best[name] = (wall, value)
    return best


# ---------------------------------------------------------------------------
# engines: default fast path vs every-cycle reference
# ---------------------------------------------------------------------------

#: (workload, kind, instructions).  ``chase`` is the designated
#: memory-bound trace: a DRAM-latency pointer chase with no wrong-path
#: delivery, fast-forward's best case.
ENGINE_MATRIX = (
    ("chase", "memory-bound", 6_000),
    ("mcf", "memory-bound", 8_000),
    ("bwaves", "memory-bound", 10_000),
    ("exchange2", "compute-bound", 30_000),
    ("spin", "compute-bound", 30_000),
)

CONFIGS = {"bdw": broadwell, "knl": knights_landing}

#: Absolute default-path floors in uops/s, checked with a strict ``>``.
#: Each is the largest product the earlier per-subsystem benches pinned
#: on that cell, tagged with its source: ``hard`` is the fixed
#: memory-bound floor; ``scan`` is the full-RS-scan throughput committed
#: at 905c8a1 times the event scheduler's speedup floor; ``ff-only`` is
#: the fast-forward-only throughput committed at c24b38d, before replay,
#: times 3; ``dict-mem`` is the throughput committed at 314aa5c, before
#: the flat-array memory, times its speedup floor.
UOPS_FLOORS = {
    ("chase", "bdw"): 15_000,      # hard
    ("chase", "knl"): 17_628,      # dict-mem 8,814 × 2.0
    ("mcf", "bdw"): 14_562,        # dict-mem 11,650 × 1.25
    ("mcf", "knl"): 20_388,        # dict-mem 16,311 × 1.25
    ("bwaves", "bdw"): 33_772,     # dict-mem 29,367 × 1.15
    ("bwaves", "knl"): 39_203,     # dict-mem 34,090 × 1.15
    ("exchange2", "bdw"): 677_511,  # ff-only 225,837 × 3
    ("exchange2", "knl"): 581_589,  # ff-only 193,863 × 3
    ("spin", "bdw"): 173_416,      # dict-mem 86,708 × 2.0
    ("spin", "knl"): 247_434,      # dict-mem 123,717 × 2.0
}

#: Same-run reference/default wall-time ratio floors, on both presets.
#: Host-independent (the two arms interleave), so no slack.  The ratio
#: mixes the skip engines, the flat memory and the full-RS scan of the
#: reference's denominator; per-engine floors are a later ledger section.
RATIO_FLOORS = {
    "chase": 3.0, "exchange2": 3.0, "spin": 3.0, "mcf": 1.2, "bwaves": 1.1,
}

#: A run fails against the committed ledger only when it is slower than
#: ``SLACK`` times the committed default throughput (hosts differ).
SLACK = 0.25


def _engine_cell(workload: str, instructions: int, config_fn) -> dict:
    timed = best_of(REPEATS["engines"], {
        name: (lambda ref=ref: CoreSimulator(
            make_trace(workload, instructions, 1), config_fn(),
            reference=ref,
        ).run)
        for name, ref in (("default", False), ("reference", True))
    })
    cell = {}
    for name, (wall, result) in timed.items():
        cell[name] = {
            "wall_seconds": round(wall, 4),
            "uops_per_second": round(result.committed_uops / wall),
            "committed_uops": result.committed_uops,
            "cycles": result.cycles,
            "ff_windows": result.ff_windows,
            "ff_cycles_skipped": result.ff_cycles_skipped,
            "replay_windows": result.replay_windows,
            "replay_cycles_skipped": result.replay_cycles_skipped,
        }
    cell["default_vs_reference"] = round(
        cell["reference"]["wall_seconds"] / cell["default"]["wall_seconds"], 2
    )
    return cell


def _committed_floor(baseline: dict | None, name: str) -> int:
    """``SLACK`` times the committed default throughput of one cell."""
    try:
        cell = baseline["engines"]["cells"][name]
        return int(cell["default"]["uops_per_second"] * SLACK)
    except (KeyError, TypeError):
        return 0


def measure_engines(reporter) -> dict:
    cells = {}
    for workload, kind, instructions in ENGINE_MATRIX:
        for cfg, config_fn in CONFIGS.items():
            cell = _engine_cell(workload, instructions, config_fn)
            cell.update(kind=kind, instructions=instructions)
            cells[f"{workload}/{cfg}"] = cell
            d, r = cell["default"], cell["reference"]
            reporter.emit(
                f"{workload:10s} {cfg} ({kind}): "
                f"default={d['wall_seconds']:.3f}s "
                f"reference={r['wall_seconds']:.3f}s "
                f"{cell['default_vs_reference']}x, "
                f"{d['uops_per_second']:,} uops/s "
                f"(ff {d['ff_windows']} windows "
                f"{d['ff_cycles_skipped']}/{d['cycles']} cycles; "
                f"replay {d['replay_windows']} windows "
                f"{d['replay_cycles_skipped']}/{d['cycles']})"
            )
    return {
        "repeats": REPEATS["engines"],
        "baseline_slack": SLACK,
        "uops_floors": {f"{w}/{c}": v for (w, c), v in UOPS_FLOORS.items()},
        "ratio_floors": RATIO_FLOORS,
        "cells": cells,
    }


def engine_failures(engines: dict, baseline: dict | None) -> list[str]:
    failures = []
    for (workload, cfg), pinned in UOPS_FLOORS.items():
        name = f"{workload}/{cfg}"
        cell = engines["cells"][name]
        uops = cell["default"]["uops_per_second"]
        floor = max(pinned, _committed_floor(baseline, name))
        if not uops > floor:
            failures.append(f"{name}: {uops:,} uops/s is not above {floor:,}")
        ratio = RATIO_FLOORS[workload]
        if cell["default_vs_reference"] < ratio:
            failures.append(
                f"{name}: default is {cell['default_vs_reference']}x the "
                f"reference, below the {ratio}x floor"
            )
    # The skip engines must actually engage where they do the work.
    engaged = [("chase/bdw", "ff")] + [
        (f"{w}/{c}", "replay") for w in ("exchange2", "spin") for c in CONFIGS
    ]
    for name, engine in engaged:
        if not engines["cells"][name]["default"][f"{engine}_cycles_skipped"]:
            failures.append(f"{name}: {engine} never engaged")
    return failures


# ---------------------------------------------------------------------------
# fusion: one pipeline run per timing, every collector attached
# ---------------------------------------------------------------------------

FUSION_INSTRUCTIONS = 5_000

#: Same-run fused/unfused wall-clock floors (host-independent, no slack).
FUSION_FLOORS = {"comparison": 2.0, "fig2_matrix": 1.5}


def fusion_batches() -> dict[str, list[CaseSpec]]:
    """The two batch shapes fusion was built for.

    ``comparison``: multi-stage stacks, top-down stacks and a
    no-accounting timing reference per workload (three cases per
    timing).  ``fig2_matrix``: baseline and idealized timings, each
    wanted with both stacks (two cases per timing).
    """
    base = dict(preset="bdw", instructions=FUSION_INSTRUCTIONS)
    comparison = []
    for workload in ("mcf", "chase", "exchange2"):
        comparison += [
            CaseSpec(workload=workload, **base),
            CaseSpec(workload=workload, **base, topdown=True),
            CaseSpec(workload=workload, **base, accounting=False),
        ]
    fig2 = [
        CaseSpec(workload=workload, idealization=ideal, topdown=td, **base)
        for workload in ("mcf", "exchange2")
        for ideal in (None, PERFECT_DCACHE, PERFECT_BPRED)
        for td in (False, True)
    ]
    return {"comparison": comparison, "fig2_matrix": fig2}


def _fusion_arm(specs: list[CaseSpec], fuse: bool):
    def run() -> int:
        before = TELEMETRY.sim_invocations
        run_cases(specs, jobs=1, use_cache=False, fuse=fuse)
        return TELEMETRY.sim_invocations - before
    return lambda: run


def measure_fusion(reporter) -> dict:
    batches = {}
    for name, specs in fusion_batches().items():
        # Traces are built once up front so neither arm pays for them.
        for spec in specs:
            runner.get_trace(spec.workload, spec.instructions, spec.seed)
        timed = best_of(REPEATS["fusion"], {
            "unfused": _fusion_arm(specs, False),
            "fused": _fusion_arm(specs, True),
        })
        (w_unfused, unfused_runs), (w_fused, fused_runs) = (
            timed["unfused"], timed["fused"]
        )
        batches[name] = cell = {
            "cases": len(specs),
            # Workload and idealization are the only timing fields that
            # vary in these batches: fusion must make one run per pair.
            "timings": len({(s.workload, s.idealization) for s in specs}),
            "unfused_runs": unfused_runs,
            "fused_runs": fused_runs,
            "unfused_wall_seconds": round(w_unfused, 4),
            "fused_wall_seconds": round(w_fused, 4),
            "speedup": round(w_unfused / w_fused, 2),
        }
        reporter.emit(
            f"fusion {name:12s}: {len(specs)} cases as {fused_runs} fused "
            f"runs (vs {unfused_runs}): {cell['speedup']}x "
            f"(floor {FUSION_FLOORS[name]}x)"
        )
    return {
        "repeats": REPEATS["fusion"],
        "instructions": FUSION_INSTRUCTIONS,
        "floors": FUSION_FLOORS,
        "batches": batches,
    }


def fusion_failures(fusion: dict) -> list[str]:
    failures = []
    for name, floor in FUSION_FLOORS.items():
        cell = fusion["batches"][name]
        if cell["fused_runs"] != cell["timings"]:
            failures.append(
                f"fusion {name}: {cell['fused_runs']} runs for "
                f"{cell['timings']} timings"
            )
        if cell["speedup"] < floor:
            failures.append(
                f"fusion {name}: {cell['speedup']}x is below {floor}x"
            )
    return failures


# ---------------------------------------------------------------------------
# multicore: the lockstep engine's per-core cost
# ---------------------------------------------------------------------------

CORES = 4
FLOOR_INSTRUCTIONS = 8_000
CONV_WORKLOAD = "conv-vgg-2-fwd"
CONV_INSTRUCTIONS = 6_000

#: 4-core engine per-core throughput relative to a solo core on the
#: no-contention cell, same run, no slack.  Per-core work is bitwise
#: identical to the solo run there, and lockstep spreads host time
#: evenly (host seconds per core = wall / N), so the per-core rate is
#: the aggregate uops per wall second and anything below 1.0 is engine
#: scheduling overhead.
PER_CORE_FLOOR = 0.6


def _no_contention_config():
    """tiny core whose shared level cannot couple the cores."""
    config = tiny_core()
    memory = dataclasses.replace(
        config.memory,
        l3=CacheConfig(64 * 1024 * 1024, 16, latency=20, mshrs=64),
        dram=DramConfig(latency=60, cycles_per_line=0.0),
    )
    return dataclasses.replace(config, name="tiny-nc", memory=memory)


def _disjoint_load_trace(core: int, n: int):
    """A barrier-free load/ALU loop over a per-core-disjoint footprint."""
    b = TraceBuilder(f"disjoint-t{core}", seed=1 + core)
    base = DATA_BASE + core * 0x100_0000
    pc0 = b.pc
    for i in range(n):
        b.at(pc0 + (i % 8) * 4)
        if i % 3 == 0:
            addr = base + (i * 7 % 512) * 64
            b.emit(asm.load(b.pc, dst=2, addr=addr, addr_srcs=(1,)))
        else:
            reg = 2 + i % 4
            b.emit(asm.alu(b.pc, dst=reg, srcs=(reg,)))
    return b.program()


def _solo(trace, config):
    """A 1-core simulator with replay disarmed the engine's way.

    The multi-core engine nulls the replay object on every member core
    (replay is unsound under sharing); the solo run must step the same
    code path, or the ratio measures replay rather than the engine.
    """
    sim = CoreSimulator(trace, config, seed=7)
    sim._replay = None
    sim._replay_rec = False
    return sim


def _socket_cell(solo_trace, traces, config, **engine_kwargs) -> dict:
    timed = best_of(REPEATS["multicore"], {
        "single": lambda: _solo(solo_trace, config).run,
        "engine": lambda: MulticoreSimulator(
            traces, config, **engine_kwargs
        ).run,
    })
    cell = {"config": config.name}
    for name, (wall, result) in timed.items():
        cell[name] = {
            "wall_seconds": round(wall, 4),
            "committed_uops": result.committed_uops,
            "cycles": result.cycles,
            "uops_per_second_per_core": round(result.committed_uops / wall),
        }
    cell["per_core_ratio"] = round(
        (timed["engine"][1].committed_uops / timed["engine"][0])
        / (timed["single"][1].committed_uops / timed["single"][0]),
        3,
    )
    return cell


def measure_multicore(reporter) -> dict:
    config = _no_contention_config()
    traces = [_disjoint_load_trace(core, FLOOR_INSTRUCTIONS)
              for core in range(CORES)]
    no_contention = _socket_cell(
        traces[0], traces, config, seeds=tuple(7 + i for i in range(CORES))
    )
    (solo_trace,) = make_threaded_traces(
        CONV_WORKLOAD, 1, CONV_INSTRUCTIONS, seed=3
    )
    contended = _socket_cell(
        solo_trace,
        make_threaded_traces(CONV_WORKLOAD, CORES, CONV_INSTRUCTIONS, seed=3),
        skylake_x(), seed=7,
    )
    contended["workload"] = CONV_WORKLOAD
    contended["note"] = (
        "informational: contention inflates simulated cycles/uop, so "
        "this ratio measures simulated slowdown, not engine overhead"
    )
    reporter.emit(
        f"multicore: {CORES}-core engine keeps "
        f"{no_contention['per_core_ratio']:.2f}x of solo per-core "
        f"throughput (floor {PER_CORE_FLOOR}); contended conv "
        f"{contended['per_core_ratio']:.2f}x (informational)"
    )
    return {
        "repeats": REPEATS["multicore"],
        "cores": CORES,
        "replay": "disarmed in every cell",
        "per_core_floor": PER_CORE_FLOOR,
        "no_contention": dict(no_contention, instructions=FLOOR_INSTRUCTIONS),
        "contended_conv": dict(contended, instructions=CONV_INSTRUCTIONS),
    }


# ---------------------------------------------------------------------------
# harness: worker-count scaling and the warm disk cache
# ---------------------------------------------------------------------------

HARNESS_INSTRUCTIONS = 4_000
HARNESS_WORKLOADS = ("mcf", "imagick", "exchange2", "povray")


def harness_specs() -> list[CaseSpec]:
    """A Fig. 2-shaped sweep: baselines, perfect-dcache reruns, and one
    perfect-bpred rerun."""
    base = dict(preset="tiny", instructions=HARNESS_INSTRUCTIONS)
    specs = [CaseSpec(workload=w, **base) for w in HARNESS_WORKLOADS]
    specs += [
        CaseSpec(workload=w, idealization=PERFECT_DCACHE, **base)
        for w in HARNESS_WORKLOADS
    ]
    specs.append(
        CaseSpec(workload="exchange2", idealization=PERFECT_BPRED, **base)
    )
    return specs


def _harness_row(specs, jobs: int) -> dict:
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


def measure_harness(reporter, cpu: int) -> dict:
    """Cold at jobs 1, 2 and all CPUs, then warm from the disk cache.

    Needs ``REPRO_CACHE_DIR`` pointed at a scratch directory: it clears
    the cache before every cold row.
    """
    specs = harness_specs()
    cold = []
    for jobs in sorted({1, 2, max(2, cpu)}):
        runner.clear_cache()
        cold.append(_harness_row(specs, jobs))
    # The last cold row left a fully populated disk cache.
    runner.clear_cache(disk=False)
    warm = _harness_row(specs, cold[-1]["jobs"])
    serial = cold[0]["wall_seconds"]
    harness = {
        "cases": len(specs),
        "instructions_per_case": HARNESS_INSTRUCTIONS,
        "cold": cold,
        "warm": warm,
        "cold_vs_warm_speedup": round(serial / warm["wall_seconds"], 1),
    }
    # A parallel ratio means nothing on a 1-CPU host, so none is written.
    if cpu >= 2:
        harness["parallel_speedup"] = {
            str(row["jobs"]): round(serial / row["wall_seconds"], 2)
            for row in cold
        }
    for row in cold:
        reporter.emit(
            f"harness cold jobs={row['jobs']}: {row['wall_seconds']:.2f}s "
            f"({row['simulated']} simulated, "
            f"{row['kinstr_per_second']:,} kinstr/s)"
        )
    reporter.emit(
        f"harness warm jobs={warm['jobs']}: {warm['wall_seconds']:.2f}s "
        f"({warm['disk_hits']} disk hits, {warm['simulated']} simulated), "
        f"{harness['cold_vs_warm_speedup']}x faster than cold serial"
    )
    return harness


def harness_failures(harness: dict) -> list[str]:
    failures = []
    warm = harness["warm"]
    if warm["simulated"] or warm["disk_hits"] != harness["cases"]:
        failures.append(f"harness: warm rerun was not all disk hits: {warm}")
    if not harness["cold_vs_warm_speedup"] > 1:
        failures.append(
            f"harness: warm rerun no faster than cold "
            f"({harness['cold_vs_warm_speedup']}x)"
        )
    return failures


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------


def test_ledger(tmp_path, monkeypatch, reporter):
    # Never touch the developer's real cache while clearing/warming.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    baseline = None
    if LEDGER_PATH.exists():
        baseline = json.loads(LEDGER_PATH.read_text())
    cpu = os.cpu_count() or 1
    ledger = {
        "host": {"cpu_count": cpu},
        "engines": measure_engines(reporter),
        "fusion": measure_fusion(reporter),
        "multicore": measure_multicore(reporter),
        "harness": measure_harness(reporter, cpu),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    LEDGER_PATH.write_text(json.dumps(ledger, indent=2) + "\n")
    reporter.emit(f"wrote {LEDGER_PATH.relative_to(RESULTS_DIR.parent)}")

    failures = (
        engine_failures(ledger["engines"], baseline)
        + fusion_failures(ledger["fusion"])
        + harness_failures(ledger["harness"])
    )
    ratio = ledger["multicore"]["no_contention"]["per_core_ratio"]
    if ratio < PER_CORE_FLOOR:
        failures.append(
            f"multicore: per-core ratio {ratio} is below {PER_CORE_FLOOR}"
        )
    assert not failures, "\n".join(failures)
