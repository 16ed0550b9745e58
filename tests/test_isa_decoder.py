"""Unit tests for the instruction builders (decode conventions)."""

import pytest

from repro.isa import decoder as asm
from repro.isa.registers import NO_REG
from repro.isa.uops import UopClass


def test_alu_single_uop():
    instr = asm.alu(0, dst=3, srcs=(1, 2))
    assert instr.uop_count == 1
    assert instr.uops[0].uclass is UopClass.ALU
    assert instr.uops[0].srcs == (1, 2)
    assert instr.uops[0].dst == 3


def test_load_carries_address_sources():
    instr = asm.load(0, dst=2, addr=0x1000, addr_srcs=(5,))
    uop = instr.uops[0]
    assert uop.uclass is UopClass.LOAD
    assert uop.addr == 0x1000
    assert uop.srcs == (5,)


def test_store_reads_data_and_address_registers():
    instr = asm.store(0, src=7, addr=0x40, addr_srcs=(5,))
    uop = instr.uops[0]
    assert uop.uclass is UopClass.STORE
    assert uop.srcs == (7, 5)
    assert uop.dst == NO_REG


def test_fma_register_form_is_single_uop():
    instr = asm.fma(0, dst=40, srcs=(40, 41), lanes=16, width_lanes=16)
    assert instr.uop_count == 1
    assert instr.uops[0].uclass is UopClass.FMA


def test_fma_memory_operand_splits_into_load_plus_fma():
    """Sec. V-B: 'A VFP instruction that has a memory operand is split into
    two micro-operations: one load and one VFP calculation.'"""
    instr = asm.fma(0, dst=40, srcs=(40, 41), lanes=16, width_lanes=16,
                    mem_addr=0x1000, addr_srcs=(1,))
    assert instr.uop_count == 2
    load, fma = instr.uops
    assert load.uclass is UopClass.LOAD
    assert fma.uclass is UopClass.FMA
    # The FMA depends on the load through the decode temp register.
    assert load.dst in fma.srcs


def test_broadcast_memory_form_splits():
    instr = asm.broadcast(0, dst=39, width_lanes=16, mem_addr=0x2000)
    assert instr.uop_count == 2
    load, bcast = instr.uops
    assert load.uclass is UopClass.LOAD
    assert bcast.uclass is UopClass.BROADCAST
    assert load.dst in bcast.srcs


def test_load_op_temp_registers_rotate():
    """Adjacent load-op instructions must not serialize on one temp."""
    temps = set()
    for i in range(8):
        instr = asm.fma(i * 4, dst=40, srcs=(40,), lanes=4, width_lanes=4,
                        mem_addr=0x1000 + i * 64)
        temps.add(instr.uops[0].dst)
    assert len(temps) > 1


def test_microcoded_fp_chain_dependencies():
    instr = asm.microcoded_fp(0, dst=45, srcs=(32, 33), n_uops=4)
    assert instr.microcoded
    assert instr.uop_count == 4
    assert instr.decode_cycles == 4
    # Internal chain: each uop consumes its predecessor's destination.
    for prev, cur in zip(instr.uops, instr.uops[1:]):
        assert prev.dst in cur.srcs
    assert instr.uops[-1].dst == 45


def test_microcoded_fp_minimum_uops():
    with pytest.raises(ValueError):
        asm.microcoded_fp(0, dst=45, n_uops=1)


def test_sync_yield():
    instr = asm.sync_yield(0, 100)
    assert instr.yield_cycles == 100
    assert instr.uops[0].uclass is UopClass.SYNC


def test_sync_yield_requires_positive_cycles():
    with pytest.raises(ValueError):
        asm.sync_yield(0, 0)


def test_branch_has_resolution_info():
    instr = asm.branch(0x100, taken=True, target=0x200, srcs=(4,))
    assert instr.is_branch
    assert instr.taken
    assert instr.target == 0x200


def test_masked_fma_lanes():
    instr = asm.fma(0, dst=40, srcs=(40,), lanes=5, width_lanes=16)
    assert instr.uops[0].lanes == 5
    assert instr.uops[0].flops == 10


# ---------------------------------------------------------------------------
# Value interning
# ---------------------------------------------------------------------------

_BUILDS = {
    "nop": lambda: asm.nop(0x40),
    "alu": lambda: asm.alu(0x40, dst=3, srcs=[1, 2]),
    "mul": lambda: asm.mul(0x40, dst=3, srcs=(1, 2)),
    "div": lambda: asm.div(0x40, dst=3, srcs=(1, 2)),
    "load": lambda: asm.load(0x40, dst=2, addr=0x1000, addr_srcs=(5,)),
    "store": lambda: asm.store(0x40, src=7, addr=0x1000, addr_srcs=(5,)),
    "branch": lambda: asm.branch(0x40, taken=True, target=0x80, srcs=(4,)),
    "fp_add": lambda: asm.fp_add(0x40, dst=40, srcs=(40, 41), lanes=8,
                                 width_lanes=8),
    "fp_mul-mem": lambda: asm.fp_mul(0x40, dst=40, srcs=(40,), lanes=8,
                                     width_lanes=8, mem_addr=0x2000),
    "fma": lambda: asm.fma(0x40, dst=40, srcs=(40, 41), lanes=16,
                           width_lanes=16),
    "fma-mem": lambda: asm.fma(0x40, dst=40, srcs=(40, 41), lanes=16,
                               width_lanes=16, mem_addr=0x1000,
                               addr_srcs=(1,)),
    "vec_int": lambda: asm.vec_int(0x40, dst=42, srcs=(42,), lanes=4,
                                   width_lanes=8),
    "broadcast": lambda: asm.broadcast(0x40, dst=39, srcs=(40,),
                                       width_lanes=16),
    "broadcast-mem": lambda: asm.broadcast(0x40, dst=39, width_lanes=16,
                                           mem_addr=0x2000, addr_srcs=(2,)),
    "microcoded_fp": lambda: asm.microcoded_fp(0x40, dst=45, srcs=(32, 33),
                                               n_uops=5, decode_cycles=7),
    "sync_yield": lambda: asm.sync_yield(0x40, 100),
    "barrier": lambda: asm.barrier(0x40, 150),
}


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_memo_hit_equals_fresh_build(name):
    build = _BUILDS[name]
    asm.clear_decode_memo()
    first = build()
    hit = build()
    assert hit is first
    assert asm.decode_memo_size() == 1
    asm.clear_decode_memo()
    fresh = build()
    assert fresh is not hit
    assert fresh == hit
    asm.clear_decode_memo()


def test_rotating_operand_addresses_intern_per_address():
    """One pc, several operand addresses: each distinct static instruction
    is built once and every recurrence returns that object."""
    asm.clear_decode_memo()
    addrs = [0x1000 + 64 * k for k in range(4)]
    first = [asm.fma(0, dst=40, srcs=(40,), lanes=16, width_lanes=16,
                     mem_addr=a) for a in addrs]
    again = [asm.fma(0, dst=40, srcs=(40,), lanes=16, width_lanes=16,
                     mem_addr=a) for a in reversed(addrs)]
    assert again[::-1] == first
    assert all(x is y for x, y in zip(again[::-1], first))
    assert len({id(i) for i in first}) == len(addrs)
    assert asm.decode_memo_size() == len(addrs)
    asm.clear_decode_memo()


def test_invalid_builds_are_rejected_every_time():
    """Construction-time validation guards every first build; a rejected
    instruction is never interned."""
    asm.clear_decode_memo()
    for _ in range(2):
        with pytest.raises(ValueError):
            asm.fma(0, dst=40, srcs=(40,), lanes=17, width_lanes=16)
    assert asm.decode_memo_size() == 0
