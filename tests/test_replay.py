"""Periodic steady-state replay: bitwise equivalence and unit behaviour.

The replay engine's contract mirrors the quiescent-cycle fast-forward
engine's: skipping whole loop iterations changes *nothing* observable.
Every ``SimResult`` field (cycles, stacks, cache stats, predictor stats)
must be bit-for-bit identical to the cycle-by-cycle run, in every
wrong-path mode, with and without warmup.  The differential matrix here
enforces that; the unit tests pin down the trace period analysis and the
state fingerprints the fixed-point check is built from — each
``fingerprint()`` must change whenever the underlying behavioural state
changes, or the engine could jump from a state it never actually
recorded.
"""

from __future__ import annotations

import pytest

from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
)
from repro.config.presets import broadwell, knights_landing
from repro.core.wrongpath import WrongPathMode
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.mshr import MshrFile
from repro.memory.prefetcher import StreamPrefetcher
from repro.memory.tlb import Tlb
from repro.pipeline.core import (
    ENV_REPLAY,
    CoreSimulator,
    replay_default,
    simulate,
)
from repro.pipeline.replay import find_period
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.result import SimResult
from repro.workloads.registry import make_trace

N = 2_000


def _comparable(result) -> dict:
    """Everything that must be identical (host-side telemetry excluded)."""
    payload = result.to_dict()
    for key in ("wall_seconds", "ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    return payload


def _run_pair(workload, config, *, mode=WrongPathMode.EXACT, warmup=0, n=N):
    trace = make_trace(workload, n, 1)
    on = CoreSimulator(trace, config, mode=mode,
                       warmup_instructions=warmup, replay=True)
    off = CoreSimulator(trace, config, mode=mode,
                        warmup_instructions=warmup, replay=False)
    return on, on.run(), off, off.run()


# ---------------------------------------------------------------------------
# differential matrix: replay on == replay off, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["exchange2", "spin", "mcf", "bwaves"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
@pytest.mark.parametrize("mode", list(WrongPathMode))
@pytest.mark.parametrize("warmup", [0, 200])
def test_replay_bitwise_identical(workload, preset, mode, warmup):
    on, res_on, off, res_off = _run_pair(
        workload, preset(), mode=mode, warmup=warmup
    )
    assert _comparable(res_on) == _comparable(res_off)
    assert off.replay_windows == 0 and off.replay_cycles_skipped == 0


@pytest.mark.parametrize("workload", ["exchange2", "spin"])
@pytest.mark.parametrize("preset", [broadwell, knights_landing])
def test_replay_engages_on_periodic_traces(workload, preset):
    """The two designated loop traces must actually take the macro jump
    (EXACT mode; other modes legitimately disengage the engine)."""
    on, res_on, _, _ = _run_pair(workload, preset(), n=4_000)
    assert on.replay_windows > 0, "replay never engaged"
    assert on.replay_cycles_skipped > 0
    assert res_on.replay_windows == on.replay_windows
    assert res_on.replay_cycles_skipped == on.replay_cycles_skipped


def test_replay_identical_with_warmup_boundary_inside_loop():
    """Warmup that ends mid-loop must not perturb the recorded window."""
    for warmup in (50, 96, 150):
        _, res_on, _, res_off = _run_pair(
            "exchange2", broadwell(), warmup=warmup, n=4_000
        )
        assert _comparable(res_on) == _comparable(res_off)


def test_replay_composes_with_fast_forward():
    """Both engines on together must still be bitwise identical."""
    trace = make_trace("spin", 4_000, 1)
    both = simulate(trace, broadwell(), fast_forward=True, replay=True)
    neither = simulate(trace, broadwell(), fast_forward=False, replay=False)
    assert _comparable(both) == _comparable(neither)


# ---------------------------------------------------------------------------
# escape hatches
# ---------------------------------------------------------------------------


def test_replay_param_disables_engine():
    trace = make_trace("spin", 2_000, 1)
    sim = CoreSimulator(trace, broadwell(), replay=False)
    sim.run()
    assert sim.replay_windows == 0 and sim.replay_cycles_skipped == 0


def test_replay_env_default(monkeypatch):
    monkeypatch.delenv(ENV_REPLAY, raising=False)
    assert replay_default() is True
    monkeypatch.setenv(ENV_REPLAY, "0")
    assert replay_default() is False
    trace = make_trace("spin", 2_000, 1)
    sim = CoreSimulator(trace, broadwell())  # replay=None -> env
    sim.run()
    assert sim.replay_windows == 0


def test_simulate_wrapper_passes_replay_through():
    trace = make_trace("spin", 2_000, 1)
    res_on = simulate(trace, broadwell(), replay=True)
    res_off = simulate(trace, broadwell(), replay=False)
    assert _comparable(res_on) == _comparable(res_off)
    assert res_on.replay_windows > 0
    assert res_off.replay_windows == 0


# ---------------------------------------------------------------------------
# trace period analysis
# ---------------------------------------------------------------------------


def test_find_period_on_static_loop():
    trace = make_trace("spin", 2_000, 1)
    found = find_period(trace)
    assert found is not None
    start, period = found
    assert period == 11  # 8 FMAs + load + alu + branch
    assert start == 0  # static body: periodic from the first instruction
    instrs = trace.instructions
    for i in range(start, len(instrs) - period):
        assert instrs[i] == instrs[i + period]


@pytest.mark.parametrize("workload, instructions, expected", [
    # exchange2's load rotates through 8 slots: the instruction-level
    # period is the 8-iteration super-period, not the loop body length.
    ("exchange2", 2_000, (0, 96)),
    # KNL-JIT sgemm: load-op FMAs whose operand addresses rotate.
    ("gemm-train-1760-knl", 20_000, (0, 896)),
])
def test_find_period_on_rotating_loop(workload, instructions, expected):
    trace = make_trace(workload, instructions, 1)
    assert find_period(trace) == expected
    start, period = expected
    instrs = trace.instructions
    for i in range(start, len(instrs) - period):
        # Interned by value: a period match is one shared object.
        assert instrs[i] is instrs[i + period]


def test_find_period_rejects_aperiodic_traces():
    assert find_period(make_trace("chase", 2_000, 1)) is None
    assert find_period(make_trace("mcf", 2_000, 1)) is None


def test_find_period_rejects_short_traces():
    from repro.workloads.micro import spin_like

    assert find_period(spin_like(30)) is None  # < _MIN_TRACE instructions


# ---------------------------------------------------------------------------
# fingerprint sensitivity: every structure's fingerprint must change
# when its behavioural state changes
# ---------------------------------------------------------------------------


def test_cache_fingerprint_tracks_contents():
    config = broadwell().memory
    cache = Cache(config.l1d, "l1d")
    fp0 = cache.fingerprint()
    cache.insert(0x40)
    fp1 = cache.fingerprint()
    assert fp1 != fp0
    # LRU order is behavioural state: a hit reorders and must show.
    cache.insert(0x80)
    fp2 = cache.fingerprint()
    cache.lookup(0x40)  # move 0x40 back to MRU
    assert cache.fingerprint() != fp2
    # Dirty bits are behavioural state (they decide writebacks).
    cache.mark_dirty(0x40)
    assert cache.fingerprint() != fp2


def test_tlb_fingerprint_tracks_entries():
    tlb = Tlb(broadwell().memory.dtlb)
    fp0 = tlb.fingerprint()
    tlb.access(0x1000_0000)
    fp1 = tlb.fingerprint()
    assert fp1 != fp0
    tlb.access(0x2000_0000)
    assert tlb.fingerprint() != fp1


def test_mshr_fingerprint_is_relative_and_ignores_expired():
    mshr = MshrFile(4)
    assert mshr.fingerprint(100.0) == ()
    release = mshr.acquire(100.0)
    assert release > 100.0 or release == 100.0
    # Occupy a slot explicitly.
    mshr._busy.append(150.0)
    fp = mshr.fingerprint(100.0)
    assert 50.0 in fp
    # Shift-invariance: the same state 1000 cycles later fingerprints
    # identically relative to the later now.
    mshr.shift_time(100.0, 1000.0)
    assert mshr.fingerprint(1100.0) == fp
    # Expired slots are behaviourally free and must not show.
    assert mshr.fingerprint(2000.0) == ()


def test_prefetcher_fingerprint_tracks_training():
    config = broadwell().memory
    pf = StreamPrefetcher(config.prefetcher, 64)
    fp0 = pf.fingerprint()
    pf.on_demand_access(100)
    fp1 = pf.fingerprint()
    assert fp1 != fp0
    pf.on_demand_access(101)  # trains direction/confidence
    assert pf.fingerprint() != fp1
    # Same line again: delta == 0 never trains (exchange2 relies on it).
    fp2 = pf.fingerprint()
    pf.on_demand_access(101)
    assert pf.fingerprint() == fp2


def test_dram_fingerprint_shift_invariance():
    dram = DramModel(broadwell().memory.dram)
    assert dram.fingerprint(0.0) == 0.0
    dram.access(100.0)
    fp = dram.fingerprint(100.0)
    dram.shift_time(100.0, 500.0)
    assert dram.fingerprint(600.0) == fp


@pytest.mark.parametrize("factory", [
    lambda: BimodalPredictor(bits=6),
    lambda: GsharePredictor(bits=6),
    lambda: TournamentPredictor(bits=6),
])
def test_direction_predictor_fingerprint_tracks_updates(factory):
    pred = factory()
    fp0 = pred.fingerprint()
    pred.update(0x400, True, 0x800)
    fp1 = pred.fingerprint()
    assert fp1 != fp0
    pred.update(0x400, False, 0x800)  # direction counter steps back
    assert pred.fingerprint() != fp1


def test_btb_fingerprint_tracks_targets():
    pred = AlwaysTakenPredictor(btb_entries=64)
    fp0 = pred.fingerprint()
    pred.btb.update(0x400, 0x800)
    fp1 = pred.fingerprint()
    assert fp1 != fp0
    pred.btb.update(0x400, 0xC00)  # retarget same entry
    assert pred.fingerprint() != fp1


def test_fu_pool_fingerprint_relative_and_ignores_expired():
    pool = FunctionalUnitPool(broadwell())
    fp0 = pool.fingerprint(100)
    assert fp0 == ()
    if pool._mul_busy_until:
        pool._mul_busy_until[0] = 105.0
        fp1 = pool.fingerprint(100)
        assert fp1 == (5.0,)
        pool.shift_time(100, 1000)
        assert pool.fingerprint(1100) == fp1
        assert pool.fingerprint(2000) == ()


def test_frontend_fingerprint_tracks_stall_and_position():
    sim = CoreSimulator(make_trace("spin", 200, 1), broadwell())
    fe = sim.frontend
    fp0 = fe.fingerprint(0)
    # A stall deadline is state, relative to the query cycle.
    fe._stall_until = 25
    assert fe.fingerprint(0) != fp0
    assert fe.fingerprint(30) == fp0  # expired: behaviourally identical
    fe._stall_until = 0


def test_frontend_shift_moves_position_and_deadline():
    sim = CoreSimulator(make_trace("spin", 200, 1), broadwell())
    fe = sim.frontend
    idx, seq, block = fe._idx, fe.seq, fe.block
    fe._stall_until = 50
    fe.shift(10, 1000, 44, 88, 4)
    assert fe._idx == idx + 44
    assert fe.seq == seq + 88
    assert fe.block == block + 4
    assert fe._stall_until == 1050


# ---------------------------------------------------------------------------
# result round trip
# ---------------------------------------------------------------------------


def test_simresult_roundtrip_keeps_telemetry():
    trace = make_trace("spin", 4_000, 1)
    result = simulate(trace, broadwell(), replay=True)
    assert result.replay_windows > 0
    clone = SimResult.from_dict(result.to_dict())
    assert clone.to_dict() == result.to_dict()
    assert clone.replay_windows == result.replay_windows
    assert clone.replay_cycles_skipped == result.replay_cycles_skipped
    assert clone.ff_windows == result.ff_windows
    assert clone.ff_cycles_skipped == result.ff_cycles_skipped


def test_simresult_roundtrip_defaults_missing_telemetry_to_zero():
    trace = make_trace("spin", 1_000, 1)
    payload = simulate(trace, broadwell()).to_dict()
    for key in ("ff_windows", "ff_cycles_skipped",
                "replay_windows", "replay_cycles_skipped"):
        payload.pop(key)
    clone = SimResult.from_dict(payload)
    assert clone.replay_windows == 0
    assert clone.ff_cycles_skipped == 0
