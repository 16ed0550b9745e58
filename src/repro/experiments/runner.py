"""Cached simulation driver for the experiment harness.

Experiments share baselines aggressively (Fig. 2 alone needs the baseline
stacks of every workload plus up to four idealized reruns each), so results
are cached at three levels, consulted in order:

1. an in-process memo (identical objects within one session),
2. the persistent content-addressed disk cache (``results/.cache/``,
   shared across processes and sessions — see
   :mod:`repro.experiments.cache`),
3. the simulator itself.

Traces are memoized too: baseline and idealized runs must replay the
identical program, as in the paper's methodology.

Every simulation runs as a :class:`~repro.experiments.cache.Job` through
the same three steps: :func:`execute_job` (build, run with checkpoints,
guard every member), :func:`lookup_cached` and :func:`publish` (one
cache entry per member key).  :func:`run_spec` strings them together
for one case in-process; for batch scheduling of many cases across
worker processes, see :mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from repro.config.idealize import Idealization
from repro.core import invariants
from repro.core.wrongpath import WrongPathMode
from repro.experiments.cache import (
    DEFAULT_WARMUP_FRACTION,
    TELEMETRY,
    CaseSpec,
    Job,
    get_disk_cache,
)
from repro.isa.instructions import Program
from repro.pipeline import checkpoint as ckpt
from repro.pipeline.core import CoreSimulator
from repro.pipeline.multicore import MulticoreSimulator
from repro.pipeline.result import SimResult
from repro.workloads.registry import get_workload, make_threaded_traces

__all__ = [
    "DEFAULT_WARMUP_FRACTION",
    "CaseSpec",
    "Job",
    "clear_cache",
    "execute_job",
    "get_threaded_traces",
    "get_trace",
    "lookup_cached",
    "publish",
    "run_case",
    "run_spec",
    "store_result",
    "verify_members",
]

_trace_cache: dict[tuple, Program] = {}
_threaded_trace_cache: dict[tuple, list[Program]] = {}
_result_cache: dict[str, SimResult] = {}


def clear_cache(*, disk: bool = True) -> int:
    """Drop all memoized traces and results.

    With ``disk=True`` (the default) the persistent on-disk cache is
    purged as well; returns the number of disk entries removed.
    """
    _trace_cache.clear()
    _threaded_trace_cache.clear()
    _result_cache.clear()
    if disk:
        return get_disk_cache().purge()
    return 0


def get_trace(name: str, instructions: int | None, seed: int) -> Program:
    key = (name, instructions, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = get_workload(name).make(instructions, seed)
        _trace_cache[key] = trace
    return trace


def get_threaded_traces(
    name: str, cores: int, instructions: int | None, seed: int
) -> list[Program]:
    key = (name, cores, instructions, seed)
    traces = _threaded_trace_cache.get(key)
    if traces is None:
        traces = make_threaded_traces(name, cores, instructions, seed)
        _threaded_trace_cache[key] = traces
    return traces


def _simulator(job: Job, snapshot: bytes | None):
    """The job's simulator, fresh or restored from a checkpoint snapshot,
    plus its cores in core order.

    A 1-core job is the historical single-core case (same cache key, the
    plain trace); routing it through the threaded decomposition would
    publish a different program's result under that key.  N > 1 cores
    run the threaded decomposition in cycle lockstep over a shared
    L3/DRAM backend.
    """
    first = job.specs[0]
    collectors = tuple(spec.collector_spec() for spec in job.specs)
    if job.cores == 1:
        if snapshot is not None:
            sim = CoreSimulator.from_snapshot(snapshot)
        else:
            trace = get_trace(first.workload, first.instructions, first.seed)
            sim = CoreSimulator(
                trace,
                first.resolved_config(),
                mode=first.mode,
                warmup_instructions=int(len(trace) * first.warmup_fraction),
                seed=first.simulate_seed,
                collectors=collectors,
            )
        return sim, [sim]
    if snapshot is not None:
        sim = MulticoreSimulator.from_snapshot(snapshot)
    else:
        traces = get_threaded_traces(
            first.workload, first.cores, first.instructions, first.seed
        )
        sim = MulticoreSimulator(
            traces,
            first.resolved_config(),
            mode=first.mode,
            seeds=tuple(
                first.simulate_seed + core for core in range(first.cores)
            ),
            warmup_instructions=tuple(
                int(len(trace) * first.warmup_fraction) for trace in traces
            ),
            collectors=collectors,
        )
    return sim, sim.cores


def execute_job(
    job: Job,
    interval: int | None,
    on_checkpoint=None,
) -> tuple[list[SimResult], int | None]:
    """Run one job's timing simulation: one result per member, in member
    order (see :attr:`Job.members`).

    With ``interval`` set, the job resumes from the newest valid
    checkpoint under its key when one exists (corrupt files are evicted
    on the way — see :func:`repro.pipeline.checkpoint.latest_valid_checkpoint`)
    and writes a new one every ``interval`` committed instructions.  A
    snapshot carries every core and every attached collector, so a
    resumed run restores all members bitwise.  Returns ``(results,
    resumed_from)`` where ``resumed_from`` is the committed instruction
    count the run continued from, or None for an uninterrupted (or
    checkpoint-free) run.  Checkpoints are *not* deleted here: the
    supervisor clears them once the results are safely published, so a
    crash between finish and publish still recovers.

    Telemetry counts the job as one simulator invocation — the batch
    cost scales with distinct timings, however many members ride along.
    Every member passes the invariant guard under its own label: in
    strict mode (the default) a violation raises
    :class:`repro.core.invariants.InvariantViolation`.
    """
    key = job.key()
    snapshot = None
    resumed_from: int | None = None
    if interval:
        found = ckpt.latest_valid_checkpoint(key)
        if found is not None:
            _path, snapshot, meta = found
            resumed_from = int(meta.get("committed_instrs", 0))
    sim, cores = _simulator(job, snapshot)
    sim.run(
        checkpoint_interval=interval,
        checkpoint_key=key if interval else None,
        on_checkpoint=on_checkpoint,
    )
    results = [
        core.fused_results[index]
        for index in range(len(job.specs))
        for core in cores
    ]
    TELEMETRY.record_job(job, results, resumed_from)
    verify_members(job, results)
    return results, resumed_from


def verify_members(job: Job, results: list[SimResult]) -> None:
    """Run the invariant guard on every member result under its label."""
    for (_key, spec, core), result in zip(job.members, results):
        invariants.verify_result(result, context=spec.member_label(core))


def lookup_cached(key: str) -> SimResult | None:
    """Memo -> disk lookup for one member key (updating hit counters)."""
    cached = _result_cache.get(key)
    if cached is not None:
        TELEMETRY.memo_hits += 1
        return cached
    result = get_disk_cache().get(key)
    if result is not None:
        TELEMETRY.disk_hits += 1
        _result_cache[key] = result
        return result
    TELEMETRY.disk_misses += 1
    return None


def store_result(
    key: str, spec: CaseSpec, result: SimResult, core: int = 0
) -> None:
    """Publish a freshly simulated member result to the memo and the disk
    cache, with ``spec.member_fingerprint(core)`` as its stored identity.

    The invariant guard gates the persistent store: in strict mode a
    violating result raises before anything is published; in non-strict
    mode it is kept in the in-process memo (with a recorded warning) but
    is never written to the disk cache, so a wrong counter cannot poison
    later sessions.
    """
    violations = invariants.verify_result(
        result, context=spec.member_label(core)
    )
    _result_cache[key] = result
    if violations:
        return
    get_disk_cache().put(key, spec.member_fingerprint(core), result)


def publish(job: Job, results: list[SimResult]) -> None:
    """Store every member result under its own member key."""
    for (key, spec, core), result in zip(job.members, results):
        store_result(key, spec, result, core)


def run_spec(spec: CaseSpec, *, use_cache: bool = True) -> SimResult:
    """Resolve one single-core case through the cache hierarchy."""
    if use_cache:
        cached = lookup_cached(spec.key())
        if cached is not None:
            return cached
    job = Job((spec,))
    results, _resumed = execute_job(job, ckpt.checkpoint_interval_default())
    if use_cache:
        publish(job, results)
    return results[0]


def run_case(
    workload: str,
    preset: str,
    *,
    idealization: Idealization | None = None,
    instructions: int | None = None,
    seed: int = 1,
    mode: WrongPathMode = WrongPathMode.EXACT,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    use_cache: bool = True,
) -> SimResult:
    """Simulate ``workload`` on ``preset``, optionally idealized."""
    spec = CaseSpec(
        workload=workload,
        preset=preset,
        idealization=idealization,
        instructions=instructions,
        seed=seed,
        mode=mode,
        warmup_fraction=warmup_fraction,
    )
    return run_spec(spec, use_cache=use_cache)
