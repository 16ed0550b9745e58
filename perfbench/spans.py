"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
the public entry points of each layer, at the name each caller looks up,
and the program's source stays untouched.  Spans live in memory, each
with a link to the span that caused it, and are written out by
:meth:`Tracer.dump` when the run ends.

Coarse spans (a whole case, a cache read) are kept one record each.
Calls made once per simulated cycle or memory access (frontend delivery,
memory accesses, branch prediction, accounting, replay) would be
millions of records, so they are aggregated per parent record and call
path: count, total time and self time.  Every span's self time is its
duration minus the time its child spans cover, so the self times of a
span and of all its descendants add up to the span's duration.

An aggregated wrapper does some bookkeeping outside its own timed window
(the call into the wrapper, its stack frame, the aggregate update), which
would land in the caller's self time.  :func:`wrapper_cost` measures that
cost per call, and :meth:`Tracer.book_overhead` moves it, per call, from
each caller to a ``trace.self`` span under the same caller, so the sums
still hold.

Spans only see the calling process, so the traced run is serial.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from repro.branch import predictors
from repro.core import invariants
from repro.core.multistage import MultiStageCollector
from repro.experiments import cache, flops_study, parallel, runner
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import CoreSimulator
from repro.pipeline.frontend import Frontend
from repro.pipeline.multicore import MulticoreSimulator
from repro.pipeline.replay import ReplayEngine
from repro.pipeline.result import SimResult
from repro.workloads.base import WorkloadSpec

perf_counter = time.perf_counter


class Tracer:
    """In-memory span store.

    A frame on the stack is ``[child_seconds, anchor_id, path]``:
    ``anchor_id`` is the nearest recorded span and ``path`` the chain of
    aggregated span names below it ("" for a recorded span).
    """

    def __init__(self) -> None:
        #: One dict per recorded span.
        self.records: list[dict] = []
        #: (anchor id, path) -> [count, seconds, self seconds].
        self.aggregates: dict[tuple, list] = {}
        #: Counts taken at span boundaries.
        self.counters: dict[str, float] = {}
        self._stack: list[list] = [[0.0, None, ""]]
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> dict:
        record = {
            "id": len(self.records),
            "parent": self._stack[-1][1],
            "name": name,
            "start": perf_counter(),
        }
        self.records.append(record)
        self._stack.append([0.0, record["id"], ""])
        return record

    def _exit(self, record: dict) -> None:
        frame = self._stack.pop()
        duration = perf_counter() - record["start"]
        record["seconds"] = duration
        record["self_seconds"] = duration - frame[0]
        self._stack[-1][0] += duration

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a recorded span named ``name``."""
        record = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(record)

    def book_overhead(self, cost: float) -> float:
        """Move ``cost`` seconds per aggregated call from its caller's self
        time to a ``trace.self`` aggregate under that caller; return the
        seconds moved."""
        moved: dict[tuple, list] = {}
        for (anchor, path), (count, _, _) in self.aggregates.items():
            if anchor is None:
                continue
            caller = (anchor, path.rpartition("/")[0])
            entry = moved.setdefault(caller, [0, 0.0])
            entry[0] += count
            entry[1] += count * cost
        for (anchor, parent), (count, seconds) in moved.items():
            if parent:
                self.aggregates[(anchor, parent)][2] -= seconds
                name = f"{parent}/trace.self"
            else:
                self.records[anchor]["self_seconds"] -= seconds
                name = "trace.self"
            self.aggregates[(anchor, name)] = [count, seconds, seconds]
        return sum(seconds for _, seconds in moved.values())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def recorded(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is one recorded span.  ``after(record,
        args, result)`` runs once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def aggregated(self, name: str, fn):
        """Wrap ``fn`` so its calls are summed into their parent's
        aggregate for ``name``."""
        stack = self._stack
        aggregates = self.aggregates

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            path = parent[2]
            frame = [0.0, parent[1], f"{path}/{name}" if path else name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[0] += duration
                key = (frame[1], frame[2])
                entry = aggregates.get(key)
                if entry is None:
                    aggregates[key] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original function)``."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        """Self time of every span whose name is ``layer`` or
        ``layer:<operation>``."""

        def matches(name: str) -> bool:
            return name == layer or name.startswith(layer + ":")

        total = sum(
            r["self_seconds"] for r in self.records if matches(r["name"])
        )
        for (_, path), (_, _, own) in self.aggregates.items():
            if matches(path.rsplit("/", 1)[-1]):
                total += own
        return total

    def calls(self, prefix: str) -> int:
        """Number of calls to aggregated spans whose name starts with
        ``prefix``."""
        return sum(
            count
            for (_, path), (count, _, _) in self.aggregates.items()
            if path.rsplit("/", 1)[-1].startswith(prefix)
        )

    def dump(self, path) -> None:
        payload = {
            "records": self.records,
            "aggregates": [
                {
                    "anchor": anchor, "path": name, "count": count,
                    "seconds": seconds, "self_seconds": own,
                }
                for (anchor, name), (count, seconds, own)
                in self.aggregates.items()
            ],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def wrapper_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds per call an aggregated wrapper adds to its caller's self
    time: a loop over a wrapped no-op minus a loop over the bare no-op,
    median of ``repeats`` batches."""

    def noop(_obj, _arg):
        return None

    probe = Tracer()
    wrapped = probe.aggregated("noop", noop)
    loop = range(calls)
    costs = []
    for _ in range(repeats):
        bare = probe._enter("bare")
        for _ in loop:
            noop(probe, None)
        probe._exit(bare)
        traced = probe._enter("wrapped")
        for _ in loop:
            wrapped(probe, None)
        probe._exit(traced)
        costs.append(
            (traced["self_seconds"] - bare["self_seconds"]) / calls)
    return max(0.0, statistics.median(costs))


def core_counters(sim) -> dict:
    """Whole-run work counters of one core, read after it ran."""
    stats = sim.hierarchy.stats()
    mshr = stats["l2_mshr"]
    return {
        "cycles": sim.cycle,
        "ff_cycles_skipped": sim.ff_cycles_skipped,
        "ff_windows": sim.ff_windows,
        "replay_cycles_skipped": sim.replay_cycles_skipped,
        "replay_windows": sim.replay_windows,
        "committed_uops": sim.committed_uops,
        "wrong_path_uops": sim.frontend.delivered_wrong,
        "branch_lookups": sim.predictor.lookups,
        "branch_mispredicts": sim.predictor.mispredicts,
        "l1d_accesses": stats["l1d"]["accesses"],
        "l1d_hits": stats["l1d"]["hits"],
        "l2_mshr_acquisitions": mshr["acquisitions"],
        "l2_mshr_wait": mshr["avg_wait"] * mshr["acquisitions"],
    }


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with spans."""
    recorded = tracer.recorded
    aggregated = tracer.aggregated

    def after_core_run(record, args, _result):
        record["counters"] = core_counters(args[0])

    def after_multicore_run(record, args, _result):
        record["core_counters"] = [core_counters(c) for c in args[0].cores]

    def after_trace(record, _args, result):
        programs = result if isinstance(result, list) else [result]
        tracer.count("workloads.trace_instrs", sum(len(p) for p in programs))

    def after_harness(_record, _args, _result):
        tracer.count("experiments.retries", parallel.LAST_BATCH.retries)

    def after_cache_get(_record, _args, result):
        tracer.count("experiments.cache.gets")
        if result is not None:
            tracer.count("experiments.cache.hits")

    def count_repeat(fn):
        @functools.wraps(fn)
        def wrapper(collector, obs, k):
            tracer.count("core.observe_repeat_cycles", k)
            return fn(collector, obs, k)

        return wrapper

    patch = tracer.patch
    # workloads: trace generation, where runner looks it up.
    patch(WorkloadSpec, "make", lambda f: recorded(
        "workloads.trace", f, after_trace))
    patch(runner, "make_threaded_traces", lambda f: recorded(
        "workloads.trace", f, after_trace))
    # pipeline.core: construction (decode included) and the step loop.
    patch(CoreSimulator, "__init__", lambda f: recorded(
        "pipeline.core.init", f))
    patch(CoreSimulator, "run", lambda f: recorded(
        "pipeline.core.run", f, after_core_run))
    patch(MulticoreSimulator, "run", lambda f: recorded(
        "pipeline.multicore.run", f, after_multicore_run))
    patch(Frontend, "deliver", lambda f: aggregated(
        "pipeline.frontend.deliver", f))
    for op in ("ifetch", "dload", "dstore", "probe_latency"):
        patch(MemoryHierarchy, op, lambda f, op=op: aggregated(
            f"memory.access:{op}", f))
    for cls in vars(predictors).values():
        if isinstance(cls, type) and "predict" in vars(cls):
            patch(cls, "predict", lambda f: aggregated("branch.predict", f))
    for op in ("observe", "repeat_program", "finalize"):
        patch(MultiStageCollector, op, lambda f, op=op: aggregated(
            f"core.accounting:{op}", f))
    patch(MultiStageCollector, "observe_repeat", lambda f: aggregated(
        "core.accounting:observe_repeat", count_repeat(f)))
    for fn in ("verify_result", "verify_per_core_results", "check_result"):
        patch(invariants, fn, lambda f: recorded("core.invariants", f))
    for op in ("on_cycle", "note_cycle"):
        patch(ReplayEngine, op, lambda f, op=op: aggregated(
            f"pipeline.replay.engine:{op}", f))
    # experiments: the batch API, where each caller looks it up.
    for owner, fn in (
        (parallel, "run_cases"),
        (parallel, "run_multicore_cases"),
        (flops_study, "run_cases"),
    ):
        patch(owner, fn, lambda f: recorded(
            "experiments.harness", f, after_harness))
    patch(cache.DiskCache, "get", lambda f: recorded(
        "experiments.cache.get", f, after_cache_get))
    patch(cache.DiskCache, "put", lambda f: recorded(
        "experiments.cache.put", f))
    for op in ("to_dict", "from_dict"):
        patch(SimResult, op, lambda f, op=op: recorded(
            f"experiments.serialize:{op}", f))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    single = [
        r["counters"] for r in tracer.records
        if r["name"] == "pipeline.core.run"
    ]
    every_core = single + [
        c for r in tracer.records if r["name"] == "pipeline.multicore.run"
        for c in r["core_counters"]
    ]

    def total(counters, key):
        return sum(c[key] for c in counters)

    def ratio(num, den):
        return num / den if den else 0.0

    run_self = tracer.self_seconds("pipeline.core.run")
    stepped = total(single, "cycles") - total(
        single, "ff_cycles_skipped") - total(single, "replay_cycles_skipped")
    cycles = total(every_core, "cycles")
    uops = total(every_core, "committed_uops")
    counters = tracer.counters
    return {
        "pipeline.core.run_self_s": (run_self, "s"),
        "pipeline.core.cycles_stepped": (stepped, "cycles"),
        "pipeline.core.ns_per_stepped_cycle": (
            ratio(run_self * 1e9, stepped), "ns"),
        "pipeline.core.init_s": (
            tracer.self_seconds("pipeline.core.init"), "s"),
        "pipeline.frontend.deliver_s": (
            tracer.self_seconds("pipeline.frontend.deliver"), "s"),
        "pipeline.frontend.useful_ratio": (
            ratio(uops, uops + total(every_core, "wrong_path_uops")),
            "ratio"),
        "memory.access_s": (tracer.self_seconds("memory.access"), "s"),
        "memory.accesses": (tracer.calls("memory.access:"), "count"),
        "memory.l1d_hit_ratio": (
            ratio(total(every_core, "l1d_hits"),
                  total(every_core, "l1d_accesses")), "ratio"),
        "memory.l2_mshr_avg_wait": (
            ratio(total(every_core, "l2_mshr_wait"),
                  total(every_core, "l2_mshr_acquisitions")), "cycles"),
        "branch.predict_s": (tracer.self_seconds("branch.predict"), "s"),
        "branch.mispredict_ratio": (
            ratio(total(every_core, "branch_mispredicts"),
                  total(every_core, "branch_lookups")), "ratio"),
        "core.accounting_s": (tracer.self_seconds("core.accounting"), "s"),
        "core.observe_calls": (
            tracer.calls("core.accounting:observe"), "count"),
        "core.observe_repeat_cycles": (
            counters.get("core.observe_repeat_cycles", 0), "cycles"),
        "core.invariants_s": (tracer.self_seconds("core.invariants"), "s"),
        "pipeline.ff.skip_ratio": (
            ratio(total(every_core, "ff_cycles_skipped"), cycles), "ratio"),
        "pipeline.ff.windows": (total(every_core, "ff_windows"), "count"),
        "pipeline.replay.skip_ratio": (
            ratio(total(every_core, "replay_cycles_skipped"), cycles),
            "ratio"),
        "pipeline.replay.windows": (
            total(every_core, "replay_windows"), "count"),
        "pipeline.replay.engine_s": (
            tracer.self_seconds("pipeline.replay.engine"), "s"),
        "pipeline.multicore.run_s": (
            tracer.self_seconds("pipeline.multicore.run"), "s"),
        "workloads.trace_s": (tracer.self_seconds("workloads.trace"), "s"),
        "workloads.trace_instrs": (
            counters.get("workloads.trace_instrs", 0), "count"),
        "experiments.harness_self_s": (
            tracer.self_seconds("experiments.harness"), "s"),
        "experiments.cache.put_s": (
            tracer.self_seconds("experiments.cache.put"), "s"),
        "experiments.cache.get_s": (
            tracer.self_seconds("experiments.cache.get"), "s"),
        "experiments.cache.hit_ratio": (
            ratio(counters.get("experiments.cache.hits", 0),
                  counters.get("experiments.cache.gets", 0)), "ratio"),
        "experiments.serialize_s": (
            tracer.self_seconds("experiments.serialize"), "s"),
    }


def harness_counts(tracer: Tracer) -> dict:
    """Harness counters that no workload moves from 0: no two cases share
    a timing run to fuse, and no fault is injected to retry.  Printed, but
    not listed in ``BENCHMARK.json``."""
    return {
        "experiments.fused_runs_saved": (
            cache.TELEMETRY.fused_runs_saved, "count"),
        "experiments.retries": (
            tracer.counters.get("experiments.retries", 0), "count"),
    }
