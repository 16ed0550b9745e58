"""Trace-building framework shared by all workload generators.

Generators are deterministic functions of their seed: the same
(workload, size, seed) triple always yields byte-identical traces, so
baseline and idealized simulations replay exactly the same program — the
paper's methodology for measuring actual CPI deltas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.decoder import clear_decode_memo
from repro.isa.instructions import Instruction, Program

#: Integer registers reserved for the wrong-path synthesizer; generators
#: must not allocate them (see :mod:`repro.pipeline.frontend`).
RESERVED_INT_REGS = range(24, 32)

#: Usable integer registers for generators.
INT_REGS = tuple(range(0, 24))

#: Usable vector registers (the top 8 are decoder temporaries).
VEC_REGS = tuple(range(32, 56))

#: Default base of the code segment.
CODE_BASE = 0x0040_0000

#: Default base of the data segment.
DATA_BASE = 0x1000_0000


class TraceBuilder:
    """Accumulates instructions with a managed program counter.

    The builder tracks a current pc so generators express *static code
    layout* (loops re-emit the same pcs, exercising I-cache reuse; a large
    routine footprint produces I-cache misses) while emitting a *dynamic*
    trace.
    """

    def __init__(self, name: str, seed: int = 1) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.instructions: list[Instruction] = []
        self.pc = CODE_BASE

    def __len__(self) -> int:
        return len(self.instructions)

    def emit(self, instr: Instruction) -> Instruction:
        """Append ``instr`` and advance pc past it."""
        self.instructions.append(instr)
        self.pc = instr.pc + instr.length
        return instr

    def at(self, pc: int) -> int:
        """Move the builder's pc (start of a basic block) and return it."""
        self.pc = pc
        return pc

    def program(self) -> Program:
        """Package the trace and release the decoder's intern table.

        Instructions emitted since the last release share one object per
        distinct static instruction; releasing the table here keeps a
        process that builds many traces from pinning every instruction
        it ever decoded once the traces themselves are dropped.
        """
        prog = Program(self.name)
        prog.extend(self.instructions)
        clear_decode_memo()
        return prog


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Registry entry describing one synthetic workload."""

    name: str
    #: Paper benchmark (or kernel family) this workload stands in for.
    models: str
    #: Which bottlenecks the workload is designed to exhibit.
    character: str
    #: Trace factory: (instructions, seed) -> Program.
    factory: Callable[[int, int], Program] = field(repr=False)
    #: Default trace length used by the experiment harness.
    default_instructions: int = 30_000

    def make(self, instructions: int | None = None, seed: int = 1) -> Program:
        count = (
            self.default_instructions
            if instructions is None
            else instructions
        )
        if count < 100:
            raise ValueError("traces below 100 instructions are meaningless")
        return self.factory(count, seed)


def permutation_chain(rng: random.Random, entries: int) -> list[int]:
    """A single-cycle permutation for pointer chasing.

    Walking ``next[i]`` from any start visits every entry exactly once
    before repeating — the classic random pointer-chase footprint with no
    short cycles the prefetcher or cache could exploit.
    """
    order = list(range(entries))
    rng.shuffle(order)
    nxt = [0] * entries
    for position in range(entries):
        nxt[order[position]] = order[(position + 1) % entries]
    return nxt
