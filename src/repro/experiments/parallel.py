"""Batch scheduler: dispatch independent cases across worker processes.

The paper's experiments are embarrassingly parallel — every Table I /
Fig. 2 / Fig. 3 / FLOPS-study artifact is a list of fully independent
``run_case`` simulations.  :func:`run_cases` (single-core cases) and
:func:`run_multicore_cases` (sockets) are the batch APIs the experiment
modules declare their full case list to.  Both are result shapers over
one batch path:

1. member keys are computed for every spec and duplicates collapse onto
   one in-flight entry (a Fig. 2 sweep requests each baseline many times);
2. the cache hierarchy (in-process memo, then the persistent disk cache)
   is consulted per member key;
3. the misses are grouped into :class:`~repro.experiments.cache.Job`
   items — one per spec, or one per timing key under fusion — and
   dispatched under **supervision** (:mod:`repro.experiments.supervisor`):
   per-job deadlines, bounded retries, pool rebuild on worker death with
   serial fallback, and persisted
   :class:`~repro.experiments.supervisor.FailureReport` records for cases
   that never recover.  ``jobs`` argument > ``REPRO_JOBS`` env >
   ``os.cpu_count()``; with ``jobs=1`` everything runs in-process, which
   is the deterministic serial baseline;
4. results are collected in submission order (never completion order),
   round-tripped through ``SimResult.to_dict``, checked by the runtime
   invariant guard, published to both cache levels, and returned in the
   caller's original spec order — so a parallel run is bit-identical to
   a serial one.

A batch with unrecovered failures raises
:class:`~repro.experiments.supervisor.BatchFailure` by default; with
``keep_going=True`` it instead returns partial results (``None`` in the
failed slots) so a long sweep survives individual bad cases.

Observability: each batch leaves a :class:`BatchStats` in
:data:`LAST_BATCH` with wall time, per-level hit counts, supervision
counters (retries/timeouts/pool rebuilds) and simulated kinstr/s;
experiments print its ``summary()`` line and ``repro cache stats``
exposes the process-wide counters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.experiments import runner, supervisor
from repro.experiments.cache import TELEMETRY, CaseSpec, Job
from repro.experiments.supervisor import BatchFailure, FailureReport
from repro.pipeline.result import SimResult

#: Environment variable overriding the default worker count.
ENV_JOBS = "REPRO_JOBS"

#: Environment escape hatch for fused multi-accountant execution.  Set to
#: "0" (or pass ``--no-fuse`` / ``fuse=False``) to run every case as its
#: own simulation — the differential baseline fusion is verified against.
ENV_FUSE = "REPRO_FUSE"


def fuse_default() -> bool:
    """Fusion setting from the environment (on unless ``"0"``)."""
    return os.environ.get(ENV_FUSE, "1") != "0"


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else CPUs.

    ``"auto"`` (CLI ``--jobs auto`` / ``REPRO_JOBS=auto``) resolves to
    one less than the CPU count — a full batch that still leaves the
    machine responsive — with a floor of 1.  A zero or negative count is
    a configuration error and raises ``ValueError`` — silently clamping
    it to 1 used to hide typos like ``--jobs 0`` behind an unexpectedly
    serial run.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get(ENV_JOBS)
        if env:
            source = ENV_JOBS
            jobs = env
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return max(1, (os.cpu_count() or 1) - 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be an integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {jobs}")
    return jobs


@dataclass(slots=True)
class BatchStats:
    """What one batch — or a span of batches, see :func:`summarize_since`
    — did, for the summary line."""

    #: Cases requested (over a span: case lookups, hits plus runs).
    cases: int = 0
    #: Distinct cases and worker count; None over a span of batches.
    unique: int | None = None
    jobs: int | None = None
    memo_hits: int = 0
    disk_hits: int = 0
    #: Timing runs (a fused job or a socket counts once).
    simulated: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: Whole-run committed instructions summed over every simulated core.
    instrs_simulated: int = 0
    #: Checkpoint resumes (runs that continued instead of restarting).
    resumes: int = 0
    resumed_instructions: int = 0
    #: Fused execution: multi-spec jobs run as one pipeline pass, and the
    #: whole simulations that fusion avoided (specs minus one per job).
    fused_groups: int = 0
    fused_runs_saved: int = 0
    #: Supervision counters (all zero on a healthy batch).
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    #: Per-key report for every case given up on this batch.
    failure_reports: dict[str, FailureReport] = field(default_factory=dict)

    @classmethod
    def since(
        cls,
        mark: tuple[float, dict[str, float]],
        outcome: supervisor.SupervisionOutcome | None = None,
        **scope,
    ) -> "BatchStats":
        """Stats from the telemetry delta since ``mark`` (see
        :func:`telemetry_mark`) plus a batch's supervision outcome."""
        start, before = mark
        after = TELEMETRY.counters()
        delta = {name: after[name] - before[name] for name in after}
        stats = cls(
            memo_hits=delta["memo_hits"],
            disk_hits=delta["disk_hits"],
            simulated=delta["sim_invocations"],
            wall_seconds=time.perf_counter() - start,
            sim_seconds=delta["sim_seconds"],
            instrs_simulated=delta["instrs_simulated"],
            resumes=delta["resume_events"],
            resumed_instructions=delta["resumed_instructions"],
            fused_groups=delta["fused_groups"],
            fused_runs_saved=delta["fused_runs_saved"],
            **scope,
        )
        if outcome is not None:
            stats.failures = len(outcome.failures)
            stats.retries = outcome.retries
            stats.timeouts = outcome.timeouts
            stats.pool_rebuilds = outcome.pool_rebuilds
            stats.serial_fallback = outcome.serial_fallback
            stats.failure_reports = dict(outcome.failures)
        return stats

    @property
    def instrs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.instrs_simulated / self.wall_seconds

    def summary(self) -> str:
        if self.unique is None:
            scope = f"{self.cases} case lookups"
        else:
            scope = f"{self.cases} cases ({self.unique} unique)"
        jobs = "" if self.jobs is None else f"jobs={self.jobs} "
        line = (
            f"[harness] {scope}: "
            f"{self.simulated} simulated, {self.memo_hits} memo hits, "
            f"{self.disk_hits} disk hits | {jobs}"
            f"wall={self.wall_seconds:.2f}s sim={self.sim_seconds:.2f}s "
            f"({self.instrs_per_second / 1e3:.0f} kinstr/s)"
        )
        extras = []
        if self.fused_groups:
            extras.append(
                f"{self.fused_groups} fused groups "
                f"({self.fused_runs_saved} runs saved)"
            )
        if self.resumes:
            extras.append(
                f"{self.resumes} resumed "
                f"({self.resumed_instructions} instrs preserved)"
            )
        if self.retries:
            extras.append(f"{self.retries} retries")
        if self.timeouts:
            extras.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            extras.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.serial_fallback:
            extras.append("serial fallback")
        if self.failures:
            extras.append(f"{self.failures} FAILED")
        if extras:
            line += " | " + ", ".join(extras)
        return line


#: Stats of the most recent batch (experiments print its summary line).
LAST_BATCH: BatchStats | None = None


def _lookup_members(keys: list[str], results: dict[str, SimResult]) -> bool:
    """Memo/disk lookup of every member key of one case into ``results``.

    All must hit: a socket's cores share one timing run through the
    shared L3/DRAM backend and cannot be resimulated alone, so a partial
    hit is a miss and the whole case reruns.
    """
    hits = []
    for key in keys:
        hit = runner.lookup_cached(key)
        if hit is None:
            return False
        hits.append(hit)
    results.update(zip(keys, hits))
    return True


def _resolve(
    spec_list: Sequence[CaseSpec],
    *,
    jobs: int | str | None,
    use_cache: bool,
    fuse: bool | None,
    keep_going: bool,
    **supervision,
) -> tuple[list[list[str]], dict[str, SimResult]]:
    """The one batch path: dedupe, memo/disk lookup, group the misses
    into jobs, supervise them, record :data:`LAST_BATCH`.

    Returns each spec's member keys (core order) and the member key ->
    result map; a failed case's members are absent.
    """
    workers = resolve_jobs(jobs)
    if fuse is None:
        fuse = fuse_default()
    mark = telemetry_mark()

    member_keys = [
        [spec.member_key(core) for core in range(spec.cores)]
        for spec in spec_list
    ]
    results: dict[str, SimResult] = {}
    seen: set[str] = set()
    pending: list[CaseSpec] = []
    for spec, keys in zip(spec_list, member_keys):
        if keys[0] in seen:
            continue
        seen.add(keys[0])
        if use_cache and _lookup_members(keys, results):
            continue
        pending.append(spec)

    # Only misses become jobs.  With fusion, misses sharing a timing key
    # run as one job with every requested collector attached.
    if fuse and len(pending) > 1:
        by_timing: dict[str, list[CaseSpec]] = {}
        for spec in pending:
            by_timing.setdefault(spec.timing_key(), []).append(spec)
        groups = list(by_timing.values())
    else:
        groups = [[spec] for spec in pending]
    batch = [Job(tuple(group)) for group in groups]
    fused = [len(job.specs) for job in batch if len(job.specs) > 1]
    if fused:
        TELEMETRY.record_fusion(len(fused), sum(fused) - len(fused))

    outcome = supervisor.SupervisionOutcome()
    if batch:
        outcome = supervisor.run_supervised(
            batch, jobs=workers, use_cache=use_cache, **supervision
        )
        results.update(outcome.results)

    global LAST_BATCH
    LAST_BATCH = BatchStats.since(
        mark, outcome, cases=len(spec_list), unique=len(seen), jobs=workers
    )
    if outcome.failures and not keep_going:
        raise BatchFailure(outcome.failures)
    return member_keys, results


def run_cases(
    specs: Iterable[CaseSpec],
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    mp_start_method: str | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
    fuse: bool | None = None,
) -> list[SimResult | None]:
    """Resolve a batch of single-core case specs, in parallel where
    possible.

    Returns one :class:`SimResult` per input spec, in input order.
    Duplicate specs are deduplicated in flight and share one result
    object.  ``mp_start_method`` forces a multiprocessing start method
    ("fork"/"spawn") for the pool — mainly for the determinism tests.

    Per-case failures (crashes, hangs past the deadline, invariant
    violations, corrupt payloads) are retried up to ``max_attempts``
    times; cases that never recover are persisted as failure reports
    (``repro failures list``).  With ``keep_going=False`` (default) any
    unrecovered failure raises :class:`BatchFailure` after the rest of
    the batch completes; with ``keep_going=True`` failed slots come back
    as ``None`` instead.  ``case_timeout`` overrides the per-case
    deadline otherwise scaled from each spec's instruction count.
    ``checkpoint_interval`` turns on crash-safe mid-simulation snapshots
    every that many committed instructions (else
    ``$REPRO_CHECKPOINT_INTERVAL``), letting retried cases resume
    instead of restarting.

    **Fused execution** (``fuse``, default from ``$REPRO_FUSE``, on
    unless ``"0"``): cache-missing specs sharing one *timing key* —
    identical trace, machine config, wrong-path mode, warmup and seeds,
    differing only in accounting configuration — run as one
    :class:`~repro.experiments.cache.Job`: a single pipeline run with
    every requested collector attached.  The batch cost then scales with
    distinct timings rather than cases; each member's result is bitwise
    identical to its unfused run and still lands in the disk cache under
    its own key.  ``fuse=False`` runs one spec per job.
    """
    spec_list: Sequence[CaseSpec] = list(specs)
    for spec in spec_list:
        if spec.cores > 1:
            raise ValueError(
                f"{spec.label()} is a multi-core case; use "
                "run_multicore_cases for cores > 1"
            )
    member_keys, results = _resolve(
        spec_list, jobs=jobs, use_cache=use_cache, fuse=fuse,
        keep_going=keep_going, mp_start_method=mp_start_method,
        case_timeout=case_timeout, max_attempts=max_attempts,
        retry_backoff=retry_backoff, checkpoint_interval=checkpoint_interval,
    )
    return [results.get(keys[0]) for keys in member_keys]


def run_multicore_cases(
    specs: Iterable[CaseSpec],
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    mp_start_method: str | None = None,
    keep_going: bool = False,
    case_timeout: float | None = None,
    max_attempts: int | None = None,
    retry_backoff: float | None = None,
    checkpoint_interval: int | None = None,
) -> list[list[SimResult] | None]:
    """Resolve a batch of (possibly multi-core) socket cases.

    Returns one ``list[SimResult]`` per input spec — entry ``i`` of the
    inner list is core ``i``'s result — in input order, with ``None`` in
    failed slots under ``keep_going=True``.  A ``cores == 1`` spec is the
    historical single-core case (same cache key, same plain trace) and
    comes back as a one-element list.

    A socket is attempted, timed out and retried as a unit (per-core
    timings are coupled through the shared L3/DRAM backend, so a subset
    cannot be recomputed alone), but per-core results land in the cache
    under their member keys.  A cached socket requires every member key
    to hit — partial hits rerun the whole engine.  Sockets sharing one
    timing (differing only in accounting) fuse into one engine run
    unless ``$REPRO_FUSE`` is ``"0"``; the other options are
    :func:`run_cases`'s.
    """
    member_keys, results = _resolve(
        list(specs), jobs=jobs, use_cache=use_cache, fuse=None,
        keep_going=keep_going, mp_start_method=mp_start_method,
        case_timeout=case_timeout, max_attempts=max_attempts,
        retry_backoff=retry_backoff, checkpoint_interval=checkpoint_interval,
    )
    shaped: list[list[SimResult] | None] = []
    for keys in member_keys:
        per_core = [results.get(key) for key in keys]
        shaped.append(
            None if any(r is None for r in per_core) else per_core
        )
    return shaped


def telemetry_mark() -> tuple[float, dict[str, float]]:
    """Snapshot (wall clock, counters) to later summarize an experiment
    spanning several batches."""
    return (time.perf_counter(), TELEMETRY.counters())


def summarize_since(mark: tuple[float, dict[str, float]]) -> str:
    """One-line harness summary of everything since ``telemetry_mark``."""
    stats = BatchStats.since(mark)
    stats.cases = stats.simulated + stats.memo_hits + stats.disk_hits
    return stats.summary()
