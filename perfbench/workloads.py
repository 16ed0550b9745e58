"""The benchmark's workloads, correctness digests and paper shape claims.

Each workload is a fixed list of simulation cases, built from the seed,
and run through the package's public experiment API.  ``README.md`` in
this directory records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.config.presets import get_preset
from repro.core import invariants
from repro.core.components import FlopsComponent
from repro.experiments import (
    CaseSpec,
    IncompleteBatch,
    figure4_differences,
    flops_study,
    parallel,
    runner,
)
from repro.experiments.flops_study import FIG4_GROUPS, figure5_socket_case
from repro.workloads.registry import SPEC_LIKE_NAMES

#: ``SimResult.to_dict()`` keys left out of the correctness digest: host
#: time, and the skip-engine counters, which describe how a result was
#: computed rather than what was simulated.
DIGEST_EXCLUDED = (
    "wall_seconds",
    "ff_windows",
    "ff_cycles_skipped",
    "replay_windows",
    "replay_cycles_skipped",
)

#: Instruction count of every ``--scale tiny`` case (smoke tests).
TINY_INSTRUCTIONS = 2_000

#: Instruction count of the ``loops`` traces: long enough that periodic
#: replay skips most of their cycles.
LOOP_INSTRUCTIONS = 200_000

#: Cores of the Fig. 5 socket case.
SOCKET_CORES = 4


def digest(result) -> str:
    """Hash of every simulated statistic of ``result``."""
    data = result.to_dict()
    for key in DIGEST_EXCLUDED:
        data.pop(key)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    #: (case label, result or None when the case failed), in case order.
    cases: list = field(default_factory=list)
    #: (claim name, holds) for each paper shape claim checked.
    claims: list = field(default_factory=list)

    def committed_instrs(self) -> int:
        """Whole-run committed instructions, warmup included."""
        return sum(r.committed_instrs for _, r in self.cases if r is not None)

    def digests(self) -> dict:
        """Case label -> digest, or an error string for a failed case."""
        out = {}
        for label, result in self.cases:
            if result is None:
                out[label] = "error: no result"
                continue
            violations = invariants.check_result(result)
            if violations:
                out[label] = f"error: invariant: {violations[0]}"
            else:
                out[label] = digest(result)
        return out


def _single_core_specs(cases, seed, instructions) -> list:
    return [
        CaseSpec(
            workload=workload, preset=preset, instructions=instructions,
            seed=seed,
        )
        for workload, preset in cases
    ]


class _SingleCore:
    """A workload that is one ``run_cases`` batch of single-core cases."""

    specs: list

    def run(self, jobs: int) -> list:
        return parallel.run_cases(self.specs, jobs=jobs, keep_going=True)

    def outcome(self, results: list) -> Outcome:
        return Outcome(
            cases=[(spec.label(), r) for spec, r in zip(self.specs, results)]
        )


class SpecStacks(_SingleCore):
    """Baseline multi-stage stacks of the SPEC-like suite (Fig. 2 /
    Table I population) on BDW and KNL at default trace lengths."""

    name = "spec-stacks"
    presets = ("bdw", "knl")

    def __init__(self, seed: int, tiny: bool) -> None:
        for preset in self.presets:
            get_preset(preset)
        self.specs = _single_core_specs(
            [(w, p) for p in self.presets for w in SPEC_LIKE_NAMES],
            seed,
            TINY_INSTRUCTIONS if tiny else None,
        )


class Loops(_SingleCore):
    """Steady periodic traces on which the replay engine does the work."""

    name = "loops"
    cases = (
        ("spin", "bdw"),
        ("spin", "knl"),
        ("exchange2", "bdw"),
        ("exchange2", "knl"),
        ("gemm-train-1760-knl", "knl"),
    )

    def __init__(self, seed: int, tiny: bool) -> None:
        for _, preset in self.cases:
            get_preset(preset)
        self.specs = _single_core_specs(
            self.cases, seed, TINY_INSTRUCTIONS if tiny else LOOP_INSTRUCTIONS
        )


class FlopsArtifacts:
    """The Fig. 4 DeepBench matrix plus the Fig. 5 4-core socket case,
    through the public experiment functions."""

    name = "flops-artifacts"
    presets = ("knl", "skx")
    socket_workload = "conv-vgg-2-fwd"
    socket_preset = "skx"

    def __init__(self, seed: int, tiny: bool) -> None:
        for preset in self.presets:
            get_preset(preset)
        self.seed = seed
        self.instructions = TINY_INSTRUCTIONS if tiny else None
        # The Fig. 4 case matrix, from the kernel lists and in the loop
        # order of ``figure4_differences``, so each kernel's result can be
        # looked up for its digest after the pass.
        self.fig4_specs = _single_core_specs(
            [
                (name, preset)
                for preset in self.presets
                for group in FIG4_GROUPS
                for name in flops_study._group_workloads(group, preset)
            ],
            seed,
            self.instructions,
        )

    def run(self, jobs: int) -> tuple:
        diffs = figure4_differences(
            self.presets, instructions=self.instructions, seed=self.seed,
            jobs=jobs, keep_going=True,
        )
        try:
            socket = figure5_socket_case(
                self.socket_workload, self.socket_preset,
                cores=SOCKET_CORES, instructions=self.instructions,
                seed=self.seed, jobs=jobs, keep_going=True,
            )
        except IncompleteBatch:
            socket = None
        return diffs, socket

    def outcome(self, raw: tuple) -> Outcome:
        """Per-case results and shape claims of a pass (looked up from
        the in-process memo the pass filled)."""
        diffs, socket = raw
        cases = [
            (spec.label(), runner.lookup_cached(spec.key()))
            for spec in self.fig4_specs
        ]
        socket_label = (
            f"{self.socket_workload}@{self.socket_preset}x{SOCKET_CORES}"
        )
        for variant in ("baseline", "perfect_dcache"):
            for core in range(SOCKET_CORES):
                result = None
                if socket is not None:
                    result = getattr(socket, variant)[core]
                cases.append(
                    (f"{socket_label}:{variant}[core{core}]", result)
                )
        return Outcome(cases=cases, claims=self._claims(diffs, socket))

    def _claims(self, diffs, socket) -> list:
        claims = []
        for preset in self.presets:
            for group in FIG4_GROUPS:
                cell = diffs.get((group, preset))
                claims.append((
                    f"fig4 base difference negative: {group}@{preset}",
                    cell is not None and cell[FlopsComponent.BASE] < 0,
                ))
        for group in ("sgemm-train", "sgemm-inference"):
            cell = diffs.get((group, "knl"))
            holds = False
            if cell is not None:
                gains = {
                    comp: value for comp, value in cell.items()
                    if comp is not FlopsComponent.BASE and value > 0
                }
                holds = bool(gains) and (
                    max(gains, key=gains.get) is FlopsComponent.MEM
                )
            claims.append((
                f"fig4 {group}@knl compensated mainly by mem", holds
            ))
        unsched = 0.0
        if socket is not None:
            unsched = socket.flops_stack().get(FlopsComponent.UNSCHED, 0.0)
        claims.append(("fig5 socket Unsched nonzero", unsched > 0))
        return claims


WORKLOADS = {
    cls.name: cls for cls in (SpecStacks, FlopsArtifacts, Loops)
}
