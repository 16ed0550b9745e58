"""Instruction builders: the decoder's macro-op -> micro-op expansion rules.

Workload generators construct traces through these builders rather than
assembling :class:`MicroOp` tuples by hand.  The builders encode the decode
conventions the paper relies on:

* **Load-op splitting** — an FP instruction with a memory operand decodes
  into a LOAD micro-op feeding the compute micro-op (Sec. V-B: "A VFP
  instruction that has a memory operand is split into two micro-operations:
  one load and one VFP calculation").  This is what makes the KNL-JIT sgemm
  kernels memory-bound in the FLOPS stack.
* **Microcoded instructions** — multi-micro-op instructions that occupy the
  microcode sequencer for several decode cycles, producing the `Microcode`
  stall component seen for povray on KNL (Fig. 3d).
"""

from __future__ import annotations

from typing import Sequence

from repro.isa.instructions import Instruction
from repro.isa.registers import FIRST_VEC_REG, NO_REG, NUM_VEC_REGS
from repro.isa.uops import MicroOp, UopClass

#: Default macro-instruction length in bytes (x86 average is ~4).
DEFAULT_LENGTH = 4

#: Decode intern table: ``(pc, *argument key) -> Instruction``.
#: :class:`Instruction` and :class:`MicroOp` are frozen and built for
#: sharing, so every builder returns the existing object when the same
#: static instruction recurs: a trace holds one object per *distinct*
#: static instruction (a load-op FMA whose operand address rotates
#: through a tile interns one entry per address, not one per dynamic
#: instance).  The table grows with a trace's distinct instructions, so
#: :meth:`~repro.workloads.base.TraceBuilder.program` releases it at the
#: end of every trace build.
_DECODE_MEMO: dict[tuple, Instruction] = {}


def clear_decode_memo() -> None:
    """Release every interned instruction (called once per trace build)."""
    _DECODE_MEMO.clear()


def decode_memo_size() -> int:
    """Number of distinct static instructions currently interned.

    Zero between trace builds: the table lives only while a trace is
    being generated.
    """
    return len(_DECODE_MEMO)


#: Vector registers reserved as load-op / microcode temporaries.  Rotating
#: through a pool avoids serializing unrelated load-op instructions on a
#: single temp register.
_TEMP_POOL_SIZE = 8
_TEMP_BASE = FIRST_VEC_REG + NUM_VEC_REGS - _TEMP_POOL_SIZE


def _temp_reg(pc: int, slot: int = 0) -> int:
    """Pick a temporary vector register deterministically from the pc."""
    return _TEMP_BASE + ((pc >> 2) + slot) % _TEMP_POOL_SIZE


def nop(pc: int, *, length: int = DEFAULT_LENGTH) -> Instruction:
    """A no-op macro instruction (still occupies pipeline slots)."""
    key = (pc, "nop", length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    instr = Instruction(pc=pc, length=length, uops=(MicroOp(UopClass.NOP),))
    _DECODE_MEMO[key] = instr
    return instr


def alu(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Single-cycle integer ALU instruction."""
    srcs = tuple(srcs)
    key = (pc, "alu", dst, srcs, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(UopClass.ALU, srcs=srcs, dst=dst)
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def mul(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Multi-cycle integer multiply."""
    srcs = tuple(srcs)
    key = (pc, "mul", dst, srcs, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(UopClass.MUL, srcs=srcs, dst=dst)
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def div(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Long-latency integer divide."""
    srcs = tuple(srcs)
    key = (pc, "div", dst, srcs, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(UopClass.DIV, srcs=srcs, dst=dst)
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def load(
    pc: int,
    dst: int,
    addr: int,
    *,
    addr_srcs: Sequence[int] = (),
    size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Scalar load from ``addr`` into ``dst``."""
    addr_srcs = tuple(addr_srcs)
    key = (pc, "load", dst, addr, addr_srcs, size, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(
        UopClass.LOAD, srcs=addr_srcs, dst=dst, addr=addr, size=size
    )
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def store(
    pc: int,
    src: int,
    addr: int,
    *,
    addr_srcs: Sequence[int] = (),
    size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Scalar store of ``src`` to ``addr``."""
    addr_srcs = tuple(addr_srcs)
    key = (pc, "store", src, addr, addr_srcs, size, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(
        UopClass.STORE,
        srcs=(src, *addr_srcs),
        dst=NO_REG,
        addr=addr,
        size=size,
    )
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def branch(
    pc: int,
    *,
    taken: bool,
    target: int,
    srcs: Sequence[int] = (),
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Conditional branch with resolved direction and target."""
    srcs = tuple(srcs)
    key = (pc, "branch", taken, target, srcs, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(UopClass.BRANCH, srcs=srcs)
    instr = Instruction(
        pc=pc,
        length=length,
        uops=(uop,),
        is_branch=True,
        taken=taken,
        target=target,
    )
    _DECODE_MEMO[key] = instr
    return instr


def _vector_compute(
    uclass: UopClass,
    pc: int,
    dst: int,
    srcs: Sequence[int],
    *,
    lanes: int,
    width_lanes: int,
    mem_addr: int | None,
    addr_srcs: Sequence[int],
    mem_size: int,
    length: int,
) -> Instruction:
    """Shared builder for vector FP / vector int compute instructions."""
    srcs = tuple(srcs)
    addr_srcs = tuple(addr_srcs)
    key = (
        pc, "vec", uclass, dst, srcs, lanes, width_lanes,
        mem_addr, addr_srcs, mem_size, length,
    )
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    if mem_addr is None:
        uop = MicroOp(
            uclass,
            srcs=srcs,
            dst=dst,
            lanes=lanes,
            width_lanes=width_lanes,
        )
        instr = Instruction(pc=pc, length=length, uops=(uop,))
        _DECODE_MEMO[key] = instr
        return instr
    # Memory-operand form: decode splits into load + compute micro-ops.
    temp = _temp_reg(pc)
    load_uop = MicroOp(
        UopClass.LOAD,
        srcs=addr_srcs,
        dst=temp,
        addr=mem_addr,
        size=mem_size,
    )
    compute = MicroOp(
        uclass,
        srcs=(*srcs, temp),
        dst=dst,
        lanes=lanes,
        width_lanes=width_lanes,
    )
    instr = Instruction(pc=pc, length=length, uops=(load_uop, compute))
    _DECODE_MEMO[key] = instr
    return instr


def fp_add(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) FP add; one FLOP per active lane."""
    return _vector_compute(
        UopClass.FP_ADD, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def fp_mul(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) FP multiply; one FLOP per active lane."""
    return _vector_compute(
        UopClass.FP_MUL, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def fma(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 64,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """(Vector) fused multiply-add; two FLOPs per active lane.

    With ``mem_addr`` set, this decodes into a load micro-op plus an FMA
    micro-op dependent on it — the KNL-JIT sgemm code style.
    """
    return _vector_compute(
        UopClass.FMA, pc, dst, srcs,
        lanes=lanes, width_lanes=width_lanes, mem_addr=mem_addr,
        addr_srcs=addr_srcs, mem_size=mem_size, length=length,
    )


def vec_int(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    lanes: int = 1,
    width_lanes: int = 1,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Integer SIMD op: occupies a vector unit but performs zero FLOPs."""
    srcs = tuple(srcs)
    key = (pc, "vec_int", dst, srcs, lanes, width_lanes, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uop = MicroOp(
        UopClass.VEC_INT,
        srcs=srcs,
        dst=dst,
        lanes=lanes,
        width_lanes=width_lanes,
    )
    instr = Instruction(pc=pc, length=length, uops=(uop,))
    _DECODE_MEMO[key] = instr
    return instr


def broadcast(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    width_lanes: int = 1,
    mem_addr: int | None = None,
    addr_srcs: Sequence[int] = (),
    mem_size: int = 8,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Broadcast a scalar into all vector lanes (SKX sgemm code style).

    With ``mem_addr`` set, decodes into load + broadcast micro-ops.
    """
    srcs = tuple(srcs)
    addr_srcs = tuple(addr_srcs)
    key = (
        pc, "broadcast", dst, srcs, width_lanes,
        mem_addr, addr_srcs, mem_size, length,
    )
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    if mem_addr is None:
        uop = MicroOp(
            UopClass.BROADCAST,
            srcs=srcs,
            dst=dst,
            lanes=width_lanes,
            width_lanes=width_lanes,
        )
        instr = Instruction(pc=pc, length=length, uops=(uop,))
        _DECODE_MEMO[key] = instr
        return instr
    temp = _temp_reg(pc)
    load_uop = MicroOp(
        UopClass.LOAD,
        srcs=addr_srcs,
        dst=temp,
        addr=mem_addr,
        size=mem_size,
    )
    bcast = MicroOp(
        UopClass.BROADCAST,
        srcs=(temp,),
        dst=dst,
        lanes=width_lanes,
        width_lanes=width_lanes,
    )
    instr = Instruction(pc=pc, length=length, uops=(load_uop, bcast))
    _DECODE_MEMO[key] = instr
    return instr


def microcoded_fp(
    pc: int,
    dst: int,
    srcs: Sequence[int] = (),
    *,
    n_uops: int = 4,
    decode_cycles: int | None = None,
    length: int = DEFAULT_LENGTH + 4,
) -> Instruction:
    """A microcoded multi-micro-op scalar FP instruction (povray-like).

    Decodes into a chain of ``n_uops`` dependent scalar FP micro-ops, and
    charges ``decode_cycles`` (default ``n_uops``) of microcode-sequencer
    decode time in the frontend.
    """
    if n_uops < 2:
        raise ValueError("a microcoded instruction needs at least 2 micro-ops")
    srcs = tuple(srcs)
    key = (pc, "microcoded_fp", dst, srcs, n_uops, decode_cycles, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    uops: list[MicroOp] = []
    prev = NO_REG
    for slot in range(n_uops):
        uclass = UopClass.FP_MUL if slot % 2 == 0 else UopClass.FP_ADD
        uop_srcs = tuple(srcs) if prev == NO_REG else (prev,)
        uop_dst = dst if slot == n_uops - 1 else _temp_reg(pc, slot)
        uops.append(MicroOp(uclass, srcs=uop_srcs, dst=uop_dst))
        prev = uop_dst
    instr = Instruction(
        pc=pc,
        length=length,
        uops=tuple(uops),
        microcoded=True,
        decode_cycles=n_uops if decode_cycles is None else decode_cycles,
    )
    _DECODE_MEMO[key] = instr
    return instr


def sync_yield(
    pc: int,
    cycles: int,
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Synchronization point that deschedules the core for ``cycles``.

    Models threads yielding on a barrier/lock; the descheduled time appears
    as the `Unsched` component in IPC and FLOPS stacks (Fig. 5).
    """
    if cycles <= 0:
        raise ValueError("yield must cover at least one cycle")
    key = (pc, "sync_yield", cycles, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    instr = Instruction(
        pc=pc,
        length=length,
        uops=(MicroOp(UopClass.SYNC),),
        yield_cycles=cycles,
    )
    _DECODE_MEMO[key] = instr
    return instr


def barrier(
    pc: int,
    cycles: int,
    *,
    length: int = DEFAULT_LENGTH,
) -> Instruction:
    """Explicit thread barrier with a local release latency of ``cycles``.

    Under the multi-core engine the core parks here until the last
    sibling arrives; the wait plus the release latency land in the
    `Unsched` component (Fig. 5).  On a standalone single core (or a
    1-core engine) nobody can be waited on, so the instruction degrades
    to exactly ``sync_yield(pc, cycles)``.
    """
    if cycles <= 0:
        raise ValueError("a barrier must cover at least one cycle")
    key = (pc, "barrier", cycles, length)
    instr = _DECODE_MEMO.get(key)
    if instr is not None:
        return instr
    instr = Instruction(
        pc=pc,
        length=length,
        uops=(MicroOp(UopClass.SYNC),),
        yield_cycles=cycles,
        barrier=True,
    )
    _DECODE_MEMO[key] = instr
    return instr
