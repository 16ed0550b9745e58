"""Content-addressed persistent result cache for the experiment harness.

Every experiment in this reproduction is a fan-out of independent
``run_case`` simulations, and the same (workload, config, idealization)
cases recur across Table I, Fig. 2, Fig. 3 and the FLOPS studies.  This
module gives those cases a durable identity:

* :class:`CaseSpec` — the full description of one simulation.  Its
  :meth:`CaseSpec.key` is a SHA-256 over a canonical JSON dump of every
  input that can change the result (workload name, instruction count,
  seeds, the *resolved* config's fields, idealization, wrong-path mode,
  warmup fraction, and the accounting schema version), so the key is a
  content address: equal inputs map to the same key in every process and
  every session.
* :class:`Job` — one timing run and every result it publishes: the unit
  the harness executes, checkpoints, validates and retries.
* :class:`DiskCache` — a pickle-per-entry store under
  ``results/.cache/`` (override with ``REPRO_CACHE_DIR``), sharded by the
  first two hex digits of the key.  Entries are written atomically and a
  truncated/corrupt/stale-schema entry is treated as a miss and deleted,
  never raised.
* :class:`HarnessTelemetry` — process-wide hit/miss/simulation counters
  (the "zero simulator invocations on a warm cache" guarantee is asserted
  against :attr:`HarnessTelemetry.sim_invocations`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config.cores import CoreConfig
from repro.core import invariants
from repro.config.idealize import Idealization
from repro.config.presets import get_preset
from repro.core.multistage import CollectorSpec
from repro.core.wrongpath import WrongPathMode
from repro.pipeline.result import ACCOUNTING_SCHEMA_VERSION, SimResult

#: Fraction of the trace used to warm caches/TLBs/predictor before the
#: measured region begins (the paper fast-forwards 10B instructions).
DEFAULT_WARMUP_FRACTION = 0.3

#: Environment variable overriding the on-disk cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``results/.cache``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / ".cache"


@dataclass(frozen=True)
class CaseSpec:
    """Everything that identifies one simulation case.

    Exactly one of ``preset`` (a registry name) or ``config`` (an explicit
    :class:`CoreConfig`, used by the multicore harness for per-thread
    variants) must be given.  ``seed`` seeds the trace generator;
    ``sim_seed`` the simulator (defaults to ``seed + 777``, matching the
    historical ``run_case`` behaviour).
    """

    workload: str
    preset: str | None = None
    config: CoreConfig | None = None
    idealization: Idealization | None = None
    instructions: int | None = None
    seed: int = 1
    mode: WrongPathMode = WrongPathMode.EXACT
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    sim_seed: int | None = None
    #: Accounting configuration — deliberately *excluded* from the timing
    #: key: collectors are observational, so cases differing only here
    #: share one pipeline run under fused execution.
    accounting: bool = True
    topdown: bool = False
    accounting_width: int | None = None
    #: Core count.  1 (default) is the historical single-core case — its
    #: fingerprint, key and cache entries are byte-identical to before the
    #: multi-core engine existed.  > 1 runs the workload's threaded
    #: decomposition on the shared-memory engine as ONE case (one socket
    #: run); per-core results are published under :meth:`member_key`.
    cores: int = 1

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.config is None):
            raise ValueError(
                "CaseSpec needs exactly one of preset= or config="
            )
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    @property
    def simulate_seed(self) -> int:
        return self.sim_seed if self.sim_seed is not None else self.seed + 777

    def resolved_config(self) -> CoreConfig:
        """The final machine config: preset/explicit plus idealization."""
        config = self.config
        if config is None:
            assert self.preset is not None
            config = get_preset(self.preset)
        if self.idealization is not None:
            config = self.idealization.apply(config)
        return config

    def collector_spec(self) -> CollectorSpec:
        """The collector this case wants attached to its timing run."""
        return CollectorSpec(
            accounting=self.accounting,
            topdown=self.topdown,
            accounting_width=self.accounting_width,
        )

    def timing_fingerprint(self) -> dict:
        """Canonical identity of the *timing* this case needs: trace,
        machine config, wrong-path mode, warmup and seeds — everything
        except the accounting configuration.  Cases sharing this
        fingerprint are provably served by one pipeline run (collectors
        are observational), which is what fused execution exploits.
        """
        fp = {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "workload": self.workload,
            "instructions": self.instructions,
            "trace_seed": self.seed,
            "sim_seed": self.simulate_seed,
            "mode": self.mode.value,
            "warmup_fraction": self.warmup_fraction,
            "idealization": (
                self.idealization.fingerprint()
                if self.idealization is not None
                else None
            ),
            "config": self.resolved_config().fingerprint(),
        }
        if self.cores > 1:
            # Multicore identity fields appear ONLY for cores > 1, so
            # every pre-existing single-core key stays byte-identical.
            # The schema marker versions the engine's key-relevant
            # semantics (trace decomposition, seed/warmup derivation,
            # arbitration) independently of the accounting schema.
            fp["cores"] = self.cores
            fp["multicore_schema"] = 1
        return fp

    def timing_key(self) -> str:
        """SHA-256 content address of :meth:`timing_fingerprint`."""
        return _digest(self.timing_fingerprint())

    def fingerprint(self) -> dict:
        """Canonical JSON-able identity of this case (hashed into the key).

        Accounting fields are included only when they differ from the
        historical defaults, so every pre-existing cache key (default
        multi-stage accounting) is byte-identical to what it always was —
        fused execution never invalidates a warm cache.
        """
        fp = self.timing_fingerprint()
        if not self.accounting:
            fp["accounting"] = False
        if self.topdown:
            fp["topdown"] = True
            # Versions the top-down accountant's inputs (absent: 1).  2:
            # the default path resolves the nonready producer at select
            # time under top-down, matching the reference; entries
            # cached before that may blame later-dispatched micro-ops.
            fp["topdown_schema"] = 2
        if self.accounting_width is not None:
            fp["accounting_width"] = self.accounting_width
        return fp

    def key(self) -> str:
        """Content address: SHA-256 of the canonical fingerprint."""
        return _digest(self.fingerprint())

    def label(self) -> str:
        """Short human-readable tag for telemetry and logs."""
        machine = self.preset or self.resolved_config().name
        ideal = f"+{self.idealization.name}" if self.idealization else ""
        acct = ""
        if not self.accounting:
            acct = "#noacc"
        elif self.topdown:
            acct = "#td"
        socket = f"x{self.cores}" if self.cores > 1 else ""
        return f"{self.workload}@{machine}{ideal}{acct}{socket}"

    def member_fingerprint(self, core: int) -> dict:
        """Identity of core ``core``'s result (stored with its entry).

        A 1-core case is the historical single-core case: its only member
        is the case itself, sharing its fingerprint, key and label.
        """
        fp = self.fingerprint()
        if self.cores > 1:
            fp["multicore_member"] = core
        return fp

    def member_key(self, core: int) -> str:
        """Cache key for core ``core``'s result of this case."""
        if self.cores == 1:
            return self.key()
        return _digest(self.member_fingerprint(core))

    def member_label(self, core: int) -> str:
        """Log/invariant context for core ``core``'s result."""
        if self.cores == 1:
            return self.label()
        return f"{self.label()}[core{core}]"


def _digest(fingerprint: dict) -> str:
    """SHA-256 hex digest of a fingerprint's canonical JSON dump."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    """One timing run and every result it publishes.

    ``specs`` share one :meth:`CaseSpec.timing_key` and differ only in
    accounting configuration, so each attaches its collector to the same
    pipeline run.  The supervisor attempts, times out and retries a job as
    a unit; its results travel, validate and publish in :attr:`members`
    order, each under its own member key.
    """

    specs: tuple[CaseSpec, ...]
    #: Each spec's case key.  Keys cost a config fingerprint apiece, so a
    #: job derives its identities once, at construction.
    spec_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: (member key, spec, core) for every result, spec-major: a single
    #: case is 1 spec x 1 core, a fused group K specs x 1 core, a socket
    #: 1 spec x N cores, and K specs x N cores fuses collectors across a
    #: socket.
    members: tuple[tuple[str, CaseSpec, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a Job needs at least one spec")
        if len(self.specs) > 1:
            timing_keys = {spec.timing_key() for spec in self.specs}
            if len(timing_keys) != 1:
                raise ValueError(
                    "Job specs must share one timing key, "
                    f"got {len(timing_keys)} distinct timings"
                )
        # Frozen: derived fields are set once, bypassing __setattr__.
        object.__setattr__(
            self, "spec_keys", tuple(spec.key() for spec in self.specs)
        )
        object.__setattr__(
            self,
            "members",
            tuple(
                (spec.member_key(core), spec, core)
                for spec in self.specs
                for core in range(self.cores)
            ),
        )

    @property
    def cores(self) -> int:
        return self.specs[0].cores

    def key(self) -> str:
        """Content address of the job (its checkpoints live under this).

        A one-spec job is keyed by its case key.  Several specs are keyed
        by the SHA-256 of their sorted case keys: any change to the
        membership or to any member's identity moves the key, so a
        checkpoint can never be resumed by a differently-composed job.
        """
        if len(self.spec_keys) == 1:
            return self.spec_keys[0]
        text = "\n".join(sorted(self.spec_keys))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def label(self) -> str:
        first = self.specs[0].label()
        if len(self.specs) == 1:
            return first
        return f"{first} (+{len(self.specs) - 1} fused)"


@dataclass
class HarnessTelemetry:
    """Process-wide harness counters (reset between experiments/tests).

    ``sim_invocations`` counts timing runs performed *on behalf of this
    process* — in-process runs and pool-worker runs alike (the parent
    re-records when it collects a worker's job), so a warm-cache rerun
    asserting "zero simulator invocations" sees through the pool.  A job
    counts once however many members ride on it.
    """

    sim_invocations: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    corrupt_entries: int = 0
    #: Whole-run committed instructions (warmup included), summed over
    #: every core of each timing run.
    instrs_simulated: int = 0
    sim_seconds: float = 0.0
    #: Checkpoint resumes: how many runs continued from a snapshot, and
    #: the total committed instructions those snapshots preserved.
    resume_events: int = 0
    resumed_instructions: int = 0
    #: Fused execution: multi-spec jobs run as one pipeline pass, and how
    #: many whole simulations that fusion avoided (specs minus one per
    #: job).
    fused_groups: int = 0
    fused_runs_saved: int = 0

    def reset(self) -> None:
        for name in self.counters():
            setattr(self, name, 0)

    def record_job(
        self, job: Job, results: list[SimResult], resumed_from: int | None
    ) -> None:
        """One job's timing run finished (``results`` in member order)."""
        per_core = results[: job.cores]
        self.sim_invocations += 1
        self.instrs_simulated += sum(r.committed_instrs for r in per_core)
        self.sim_seconds += per_core[0].wall_seconds
        if resumed_from is not None:
            self.resume_events += 1
            self.resumed_instructions += resumed_from

    def record_fusion(self, groups: int, runs_saved: int) -> None:
        """A batch fused ``groups`` multi-spec jobs, avoiding this many
        whole simulations."""
        self.fused_groups += groups
        self.fused_runs_saved += runs_saved

    def counters(self) -> dict[str, float]:
        return dict(vars(self))


#: The process-wide telemetry instance shared by runner and scheduler.
TELEMETRY = HarnessTelemetry()


class DiskCache:
    """Pickle-per-entry content-addressed store, shared across processes.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` where each payload is
    ``{"schema": int, "spec": fingerprint, "result": SimResult.to_dict()}``.
    Writes go through an atomic rename so concurrent pool workers (or
    parallel pytest sessions) can never expose a torn entry; any
    unreadable or stale-schema entry is deleted and reported as a miss.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> SimResult | None:
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != ACCOUNTING_SCHEMA_VERSION
            ):
                raise ValueError("stale or malformed cache entry")
            result = SimResult.from_dict(payload["result"])
            violations = invariants.check_result(result)
            if violations:
                # An entry that decodes but breaks the accounting
                # identities (poisoned by an older bug or by bit rot) is
                # just as unusable as a truncated one: self-heal by
                # evicting and recomputing.
                raise ValueError(
                    f"cache entry violates invariants: {violations[0]}"
                )
            return result
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated pickle, stale schema, unreadable file, invariant
            # violation: a cache must degrade to a miss, never crash the
            # experiment.
            TELEMETRY.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, spec_fingerprint: dict, result: SimResult) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "spec": spec_fingerprint,
            "result": result.to_dict(),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A read-only cache directory degrades to write-through misses.
            pass
        finally:
            # The temp file must not survive ANY exit path — including
            # interrupts and non-OSError failures mid-pickle.  After a
            # successful rename the unlink is a no-op FileNotFoundError.
            try:
                tmp.unlink()
            except OSError:
                pass

    def purge_tmp(self, *, max_age_seconds: float = 0.0) -> int:
        """Sweep stale ``*.tmp<pid>`` files left behind by killed writers.

        With ``max_age_seconds`` > 0 only files older than that are
        removed (so a concurrent writer's in-flight temp file survives).
        Returns how many were deleted.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        now = time.time()
        for path in self.root.glob("??/*.pkl.tmp*"):
            try:
                if (
                    max_age_seconds > 0
                    and now - path.stat().st_mtime < max_age_seconds
                ):
                    continue
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.pkl"))

    def purge(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.purge_tmp()
        if self.root.is_dir():
            for shard in self.root.glob("??"):
                try:
                    shard.rmdir()  # only empty shards; non-empty raise
                except OSError:
                    pass
        return removed

    def stats(self) -> dict[str, object]:
        """On-disk footprint plus this process's hit/miss counters."""
        entries = self.entries()
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            **TELEMETRY.counters(),
        }


def get_disk_cache() -> DiskCache:
    """The cache at the currently configured root (env read per call, so
    tests can repoint ``REPRO_CACHE_DIR`` at a temp dir)."""
    return DiskCache()
