"""The reference mode: one oracle for every fast-path optimization.

``CoreSimulator`` runs in one of two modes.  The default is the fast
path: the event-driven issue scheduler, the flat-array memory and both
skip engines (quiescent-cycle fast-forward, periodic replay).
``reference=True`` / ``REPRO_REFERENCE=1`` is the oracle: the full
reservation-station scan, the dict-backed memory walk, and every cycle
stepped.  Every simulated number must be bit-for-bit identical between
the two.

The differential matrix below is the union of the cells the per-engine
differentials used to cover (fast-forward on/off, replay on/off, event
select vs full scan, flat vs dict memory); each now compares the whole
fast path against the whole reference.  The remaining tests pin the
mode selection and check, by counting external ``step_cycle()`` calls,
that the skip counters account for every cycle the engines skip and
that the reference mode really steps every cycle.
"""

from __future__ import annotations

import functools

import pytest

from repro.config.presets import broadwell, get_preset, knights_landing
from repro.core.wrongpath import WrongPathMode
from repro.pipeline.core import (
    _RETIRED_REFERENCE_ENV,
    ENV_REFERENCE,
    CoreSimulator,
    reference_default,
)
from repro.workloads.registry import make_trace

N = 2_000

PRESETS = {"bdw": broadwell, "knl": knights_landing}
#: The preset functions' names, as older parametrizations spell them.
PRESET_BY_NAME = {"broadwell": "bdw", "knights_landing": "knl"}

#: Host-side telemetry: how a result was computed, not what was
#: simulated.  The reference arms no skip engine, so its counters are 0.
TELEMETRY_FIELDS = (
    "wall_seconds", "ff_windows", "ff_cycles_skipped",
    "replay_windows", "replay_cycles_skipped",
)

EXACT = WrongPathMode.EXACT


def comparable(result) -> dict:
    """Everything that must be identical between the two modes."""
    payload = result.to_dict()
    for key in TELEMETRY_FIELDS:
        payload.pop(key)
    return payload


@functools.lru_cache(maxsize=None)
def reference_pair(workload, preset, mode=EXACT, warmup=0, topdown=False,
                   n=N):
    """``(default, reference)`` results for one cell, simulated once per
    session however many tests look at the cell (callers share the
    returned results and must not mutate them)."""
    trace = make_trace(workload, n, 1)
    return tuple(
        CoreSimulator(
            trace, get_preset(preset), mode=mode, warmup_instructions=warmup,
            topdown=topdown, reference=reference,
        ).run()
        for reference in (False, True)
    )


def _matrix() -> list:
    """The union of the old per-engine matrices, one entry per cell."""
    modes = list(WrongPathMode)
    cells = []
    # fast-forward on/off, replay on/off and flat vs dict memory: the five
    # engine workloads at warmup 0 (memory), 200 (fast-forward: mcf and
    # bwaves; replay: all four loops and SPEC models) and 100/350
    # (memory, EXACT), plus fast-forward's top-down cell.
    for workload in ("chase", "mcf", "bwaves", "exchange2", "spin"):
        for preset in PRESETS:
            for mode in modes:
                cells.append((workload, preset, mode, 0, False, N))
                if workload != "chase":
                    cells.append((workload, preset, mode, 200, False, N))
            if workload in ("mcf", "bwaves"):
                for warmup in (100, 350):
                    cells.append((workload, preset, EXACT, warmup, False, N))
    cells.append(("mcf", "bdw", EXACT, 0, True, N))
    # event select vs full scan: 2,500-instruction traces, warmup 0/600,
    # plus three spot checks on the default cell.
    for workload in ("mcf", "exchange2"):
        for preset in PRESETS:
            for mode in modes:
                for warmup in (0, 600):
                    cells.append(
                        (workload, preset, mode, warmup, False, 2_500)
                    )
    for workload in ("bwaves", "povray", "chase"):
        cells.append((workload, "bdw", EXACT, 0, False, 2_500))
    # replay: warmup ending inside exchange2's loop, and both engines
    # composed on spin, at 4,000 instructions.
    for warmup in (50, 96, 150):
        cells.append(("exchange2", "bdw", EXACT, warmup, False, 4_000))
    cells.append(("spin", "bdw", EXACT, 0, False, 4_000))
    # top-down under structural stalls: the cells where a producer
    # resolved after dispatch once blamed micro-ops the select never saw.
    for workload, preset, warmup in (
        ("leela", "knl", 0), ("leela", "knl", 300),
        ("lbm", "bdw", 0), ("lbm", "skx", 0),
    ):
        cells.append((workload, preset, EXACT, warmup, True, N))
    return cells


def _cell_id(cell) -> str:
    workload, preset, mode, warmup, topdown, n = cell
    parts = [workload, preset, mode.value, f"w{warmup}", f"n{n}"]
    if topdown:
        parts.append("topdown")
    return "-".join(parts)


MATRIX = _matrix()


@pytest.mark.parametrize("cell", MATRIX, ids=[_cell_id(c) for c in MATRIX])
def test_default_matches_reference(cell):
    default, reference = reference_pair(*cell)
    assert comparable(default) == comparable(reference)
    assert reference.ff_windows == reference.ff_cycles_skipped == 0
    assert reference.replay_windows == reference.replay_cycles_skipped == 0
    if cell[4]:
        assert default.report is not None
        assert default.report.topdown is not None


# ---------------------------------------------------------------------------
# honest counters: count the steps through the public stepping hook
# ---------------------------------------------------------------------------

COUNTER_CELLS = [
    (workload, preset)
    for workload in ("chase", "mcf", "bwaves", "exchange2", "spin")
    for preset in PRESETS
]


def _stepped(workload, preset, reference):
    sim = CoreSimulator(
        make_trace(workload, N, 1), PRESETS[preset](), reference=reference
    )
    steps = 0
    while sim.unfinished():
        sim.step_cycle()
        steps += 1
    return sim, steps


@pytest.mark.parametrize("workload,preset", COUNTER_CELLS)
def test_default_counters_account_for_every_skipped_cycle(workload, preset):
    """A step advances one cycle, or a whole skip window: the counters
    must explain every cycle no step simulated."""
    sim, steps = _stepped(workload, preset, reference=False)
    assert (
        steps
        - sim.ff_windows - sim.replay_windows
        + sim.ff_cycles_skipped + sim.replay_cycles_skipped
    ) == sim.cycle


@pytest.mark.parametrize("workload,preset", COUNTER_CELLS)
def test_reference_steps_every_cycle(workload, preset):
    sim, steps = _stepped(workload, preset, reference=True)
    assert steps == sim.cycle
    assert sim.ff_windows == sim.ff_cycles_skipped == 0
    assert sim.replay_windows == sim.replay_cycles_skipped == 0


# ---------------------------------------------------------------------------
# mode selection
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_env(monkeypatch):
    """No reference-selecting variable set, whatever the outer env holds."""
    for name in (ENV_REFERENCE, *_RETIRED_REFERENCE_ENV):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_reference_default_env(clean_env):
    assert reference_default() is False
    clean_env.setenv(ENV_REFERENCE, "1")
    assert reference_default() is True
    clean_env.setenv(ENV_REFERENCE, "0")
    assert reference_default() is False
    clean_env.delenv(ENV_REFERENCE)
    # Each retired per-engine spelling, at the value that used to turn
    # its engine off, selects the whole reference mode on its own...
    for name, value in _RETIRED_REFERENCE_ENV.items():
        clean_env.setenv(name, value)
        assert reference_default() is True, name
        clean_env.delenv(name)
    # ...as does perfbench/make_golden.py's full reference environment.
    for name, value in {
        "REPRO_LEGACY_MEMORY": "1",
        "REPRO_FAST_FORWARD": "0",
        "REPRO_REPLAY": "0",
        "REPRO_LEGACY_ISSUE_SCAN": "1",
    }.items():
        clean_env.setenv(name, value)
    assert reference_default() is True
    # At their default values they select nothing.
    for name in _RETIRED_REFERENCE_ENV:
        clean_env.delenv(name)
    for name, value in {
        "REPRO_LEGACY_MEMORY": "0",
        "REPRO_FAST_FORWARD": "1",
        "REPRO_REPLAY": "1",
        "REPRO_LEGACY_ISSUE_SCAN": "0",
    }.items():
        clean_env.setenv(name, value)
        assert reference_default() is False, name
        clean_env.delenv(name)


def test_mode_selects_every_component(clean_env):
    trace = make_trace("spin", N, 1)
    fast = CoreSimulator(trace, broadwell())
    assert fast.reference is False
    assert fast._event and fast.hierarchy.fast_path
    assert fast._replay is not None
    clean_env.setenv(ENV_REFERENCE, "1")
    ref = CoreSimulator(trace, broadwell())
    assert ref.reference is True
    assert not ref._event and not ref.hierarchy.fast_path
    assert ref._replay is None
    # The explicit kwarg wins over the environment.
    assert CoreSimulator(trace, broadwell(), reference=False)._event
