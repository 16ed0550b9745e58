"""Event-driven issue scheduler: differential identity and unit contracts.

The scheduler rewrite (writeback wakeups feeding a seq-ordered ready
structure, pooled ``InflightUop`` records, memoized decode, signature-
batched accounting) must be observationally invisible: every cell of the
workloads x configs x wrong-path-modes x warmup x fast-forward matrix
must produce a ``SimResult`` bit-for-bit identical to the legacy
full-RS-scan scheduler (``legacy_issue_scan=True``).
"""

from __future__ import annotations

import pytest

from repro.config.presets import broadwell, knights_landing
from repro.core.commit import CommitAccountant
from repro.core.components import Component
from repro.core.observation import CycleObservation
from repro.core.wrongpath import WrongPathMode
from repro.isa import decoder as asm
from repro.isa.uops import MicroOp, UopClass
from repro.pipeline.core import CoreSimulator
from repro.pipeline.inflight import POOL_ALU, POOL_LOAD, UopPool
from repro.workloads.base import DATA_BASE, TraceBuilder
from repro.workloads.registry import make_trace

CONFIGS = {"bdw": broadwell, "knl": knights_landing}

#: Cached traces: building one per matrix cell would dominate runtime.
_TRACES: dict[str, object] = {}


def _trace(workload: str, instructions: int = 2500):
    key = f"{workload}:{instructions}"
    if key not in _TRACES:
        _TRACES[key] = make_trace(workload, instructions, 1)
    return _TRACES[key]


def _result_dict(trace, cfg_fn, *, mode, warmup, fast_forward, legacy):
    sim = CoreSimulator(
        trace,
        cfg_fn(),
        mode=mode,
        warmup_instructions=warmup,
        fast_forward=fast_forward,
        legacy_issue_scan=legacy,
    )
    data = sim.run().to_dict()
    # Host-side telemetry: the replay engine only arms on the batched
    # event path, so its counters legitimately differ from legacy runs.
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        data.pop(key, None)
    return data


# ---------------------------------------------------------------------------
# Differential matrix: event scheduler vs legacy full-RS scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["mcf", "exchange2"])
@pytest.mark.parametrize("cfg", ["bdw", "knl"])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 600])
@pytest.mark.parametrize("fast_forward", [False, True])
def test_bitwise_identical_to_legacy_scan(
    workload, cfg, mode, warmup, fast_forward
):
    trace = _trace(workload)
    kwargs = dict(mode=mode, warmup=warmup, fast_forward=fast_forward)
    event = _result_dict(trace, CONFIGS[cfg], legacy=False, **kwargs)
    legacy = _result_dict(trace, CONFIGS[cfg], legacy=True, **kwargs)
    assert event == legacy


@pytest.mark.parametrize("workload", ["bwaves", "povray", "chase"])
def test_bitwise_identical_additional_workloads(workload):
    """Spot checks widening workload coverage (vector FP, microcode,
    DRAM-latency pointer chase) on the default cell."""
    trace = _trace(workload)
    kwargs = dict(
        mode=WrongPathMode.EXACT, warmup=0, fast_forward=True
    )
    event = _result_dict(trace, broadwell, legacy=False, **kwargs)
    legacy = _result_dict(trace, broadwell, legacy=True, **kwargs)
    assert event == legacy


# ---------------------------------------------------------------------------
# Free-list pooling contracts
# ---------------------------------------------------------------------------

def test_release_clears_edges_then_acquire_resets_classification():
    pool = UopPool()
    load = MicroOp(UopClass.LOAD, srcs=(1,), dst=2, addr=64, size=8)
    rec = pool.acquire(load, None, 0, 0, False, True, False)
    peer = pool.acquire(load, None, 1, 0, False, True, False)
    # Dirty every mutable field a pipeline pass can touch.
    rec.producers.append(peer)
    peer.consumers.append(rec)
    rec.consumers.append(peer)
    rec.waiters = [(1, peer)]
    rec.issued = rec.done = True
    rec.dcache_miss = True
    rec.mispredicted = True
    rec.parked = True

    pool.release(rec)
    assert rec.producers == [] and rec.consumers == []
    assert rec.waiters is None
    assert len(pool) == 1

    alu = MicroOp(UopClass.ALU, srcs=(), dst=3, addr=-1, size=8)
    rec2 = pool.acquire(alu, None, 2, 1, False, False, False)
    assert rec2 is rec  # recycled, not freshly built
    assert rec2.uop is alu and rec2.seq == 2 and rec2.block_id == 1
    # Classification fields all follow the new micro-op's class.
    assert rec2.is_load is False
    assert rec2.is_store is False
    assert rec2.is_branch is False
    assert rec2.multi_cycle is False
    assert rec2.pool == POOL_ALU
    assert rec2.ops == 0
    assert rec2.is_vu_nonvfp is False
    # Execution state is reset; rename assigns deps_left afresh.
    assert rec2.issued is False and rec2.done is False
    assert rec2.squashed is False
    assert rec2.dcache_miss is False
    assert rec2.mispredicted is False
    assert rec2.parked is False
    assert rec2.producers == [] and rec2.consumers == []
    assert rec2.waiters is None


def test_acquire_classifies_load_from_recycled_alu():
    pool = UopPool()
    alu = MicroOp(UopClass.ALU, srcs=(), dst=3, addr=-1, size=8)
    rec = pool.acquire(alu, None, 0, 0, False, True, False)
    pool.release(rec)
    load = MicroOp(UopClass.LOAD, srcs=(1,), dst=2, addr=64, size=8)
    rec2 = pool.acquire(load, None, 1, 0, False, True, False)
    assert rec2 is rec
    assert rec2.is_load is True
    assert rec2.pool == POOL_LOAD
    assert rec2.multi_cycle is True  # loads are always multi-cycle


def test_pool_records_enter_free_list_clean_after_full_run():
    """End-to-end invariant: every record parked in the free list after a
    mispredict-heavy run has severed edges and cleared scheduler state."""
    sim = CoreSimulator(_trace("mcf"), broadwell(), fast_forward=True)
    sim.run()
    free = sim._pool._free
    assert free  # pooling actually engaged
    for rec in free:
        assert rec.producers == []
        assert rec.consumers == []
        assert rec.waiters is None
        assert rec.parked is False


# ---------------------------------------------------------------------------
# Decode memoization
# ---------------------------------------------------------------------------

def test_decode_memo_validated_by_instruction_identity():
    """A different Instruction object at a reused pc must re-decode: the
    memo is keyed by pc but validated by object identity."""
    b = TraceBuilder("memo-identity", seed=1)
    pc0 = b.pc
    first = asm.alu(pc0, dst=2, srcs=(2,))
    b.at(pc0)
    b.emit(first)
    for _ in range(4):
        b.emit(asm.alu(b.pc, dst=3, srcs=(3,)))
    # Same pc, structurally different instruction (its decoder intern
    # key differs, so the builder returns a distinct object).
    second = asm.load(pc0, dst=4, addr=DATA_BASE)
    assert second is not first
    b.at(pc0)
    b.emit(second)
    program = b.program()

    sim = CoreSimulator(program, broadwell())
    result = sim.run()
    assert result.committed_uops == program.uop_count
    cached_instr, rows = sim.frontend._decode_cache[pc0]
    assert cached_instr is second  # memo re-validated, not stale
    assert rows[0][0] is second.uops[0]
    assert rows[0][1] is True  # is_load column follows the new decode


def test_wrong_path_synthesis_leaves_decode_memo_consistent():
    """Wrong-path uop synthesis must never pollute the decode memo: after
    a mispredict-heavy run every entry still maps its pc to the live
    Instruction and to exactly the rows a fresh decode produces."""
    trace = _trace("mcf")
    sim = CoreSimulator(trace, broadwell(), fast_forward=True)
    sim.run()
    fe = sim.frontend
    assert fe.delivered_wrong > 0  # wrong-path delivery actually ran
    by_pc = {instr.pc: instr for instr in trace.instructions}
    for pc, (instr, rows) in fe._decode_cache.items():
        assert instr is by_pc[pc]
        assert rows == fe._decode(instr)


# ---------------------------------------------------------------------------
# Batched accounting units
# ---------------------------------------------------------------------------

def test_legacy_env_var_selects_the_scan_scheduler(monkeypatch):
    trace = _trace("exchange2")
    monkeypatch.setenv("REPRO_LEGACY_ISSUE_SCAN", "1")
    assert CoreSimulator(trace, broadwell())._event is False
    monkeypatch.setenv("REPRO_LEGACY_ISSUE_SCAN", "0")
    assert CoreSimulator(trace, broadwell())._event is True
    # The explicit kwarg wins over the environment.
    monkeypatch.setenv("REPRO_LEGACY_ISSUE_SCAN", "1")
    assert CoreSimulator(
        trace, broadwell(), legacy_issue_scan=False
    )._event is True


def test_signature_batching_gated_to_exact_event_mode():
    trace = _trace("exchange2")
    assert CoreSimulator(trace, broadwell())._batch is True
    assert CoreSimulator(
        trace, broadwell(), mode=WrongPathMode.SIMPLE
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), mode=WrongPathMode.SPECULATIVE
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), legacy_issue_scan=True
    )._batch is False
    assert CoreSimulator(
        trace, broadwell(), accounting=False
    )._batch is False


def test_commit_observe_repeat_full_width_matches_loop():
    """n == W cycles batch as whole BASE increments (the bulk path the
    signature batcher leans on)."""
    width = 4
    obs = CycleObservation()
    obs.n_commit = width
    bulk, loop = CommitAccountant(width), CommitAccountant(width)
    bulk.observe_repeat(obs, 7)
    for _ in range(7):
        loop.observe(obs)
    assert bulk.stack.to_dict() == loop.stack.to_dict()
    assert bulk.stack.get(Component.BASE) == 7.0


def test_commit_observe_repeat_stall_matches_loop():
    width = 4
    obs = CycleObservation()
    obs.n_commit = 1  # partial commit: falls back to the per-cycle loop
    obs.rob_empty = False
    bulk, loop = CommitAccountant(width), CommitAccountant(width)
    bulk.observe_repeat(obs, 9)
    for _ in range(9):
        loop.observe(obs)
    assert bulk.stack.to_dict() == loop.stack.to_dict()
