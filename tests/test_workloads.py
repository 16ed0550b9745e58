"""Tests for the synthetic workload generators."""

import hashlib

import pytest

from repro.isa.decoder import decode_memo_size
from repro.isa.uops import UopClass
from repro.workloads.base import (
    RESERVED_INT_REGS,
    WorkloadSpec,
    permutation_chain,
)
from repro.workloads.deepbench import (
    DEEPBENCH_CONFIGS,
    conv_configs,
    conv_trace,
    sgemm_configs,
    sgemm_trace,
)
from repro.workloads.registry import (
    SPEC_LIKE_NAMES,
    WORKLOADS,
    get_workload,
    make_threaded_traces,
    make_trace,
)

import random


def test_permutation_chain_is_single_cycle():
    """Walking next[] visits every node exactly once before repeating."""
    chain = permutation_chain(random.Random(7), 256)
    seen = set()
    cur = 0
    for _ in range(256):
        assert cur not in seen
        seen.add(cur)
        cur = chain[cur]
    assert cur == 0
    assert len(seen) == 256


@pytest.mark.parametrize("name", SPEC_LIKE_NAMES)
def test_generators_are_deterministic(name):
    a = make_trace(name, 2000, seed=5)
    b = make_trace(name, 2000, seed=5)
    assert len(a) == len(b)
    assert all(
        x.pc == y.pc and x.uops == y.uops
        for x, y in zip(a.instructions, b.instructions)
    )


def _trace_digest(programs) -> str:
    """SHA-256 over an explicit field serialization of ``programs``.

    Only values are hashed (never object identity or pickle layout), so
    the digest pins what a trace says, not how its objects are shared.
    """
    h = hashlib.sha256()
    for prog in programs:
        h.update(f"program {len(prog)}\n".encode())
        for i in prog:
            h.update(repr((
                i.pc, i.length, i.is_branch, i.taken, i.target,
                i.microcoded, i.decode_cycles, i.yield_cycles, i.barrier,
            )).encode())
            for u in i.uops:
                h.update(repr((
                    int(u.uclass), u.srcs, u.dst, u.addr, u.size,
                    u.lanes, u.width_lanes,
                )).encode())
    return h.hexdigest()


#: ``_trace_digest`` of every registered workload at 2,000 instructions,
#: seed 1.  The DeepBench shapes of one family share a digest: their
#: first 2,000 instructions do not depend on the matrix size.
TRACE_DIGESTS = {
    "bwaves": "cb8ec7233dcf6e1d6b9b49483014ae5d83b3c67ce3dcd9daec9703e0732546e6",
    "cactus": "88ba6596df47d3032fe424a3d75ac54a770354255d929460a74b906f7c159acc",
    "chase": "c978e2b45c36035ce0eac687693a77f0a8ed1916a05d7a3c72f38611c3d95f78",
    "conv-deepspeech-bwd_d": "fa3ab6a5b2efd91d7ff7e2914fac77c619f8f423b9ea99200dad16ef15e032cc",
    "conv-deepspeech-bwd_f": "d5a9eaa9dc13ce39362ad8cb32e391f6d7c4b5d65d5020784a9913225f2715cd",
    "conv-deepspeech-fwd": "734ca3023b50cedd8b24b91389c11c09e2c79399aa67486689fcd17cd4652421",
    "conv-ocr-bwd_d": "fa3ab6a5b2efd91d7ff7e2914fac77c619f8f423b9ea99200dad16ef15e032cc",
    "conv-ocr-bwd_f": "d5a9eaa9dc13ce39362ad8cb32e391f6d7c4b5d65d5020784a9913225f2715cd",
    "conv-ocr-fwd": "734ca3023b50cedd8b24b91389c11c09e2c79399aa67486689fcd17cd4652421",
    "conv-resnet-1-bwd_d": "c0f5af159b033cd6e720c844d61563857068cfd221dd04b1794447df0b60d163",
    "conv-resnet-1-bwd_f": "ddeb8c51f846bfa20e4ff1ca242ff612ccf9a14900ea325d5c545d02daa235e7",
    "conv-resnet-1-fwd": "e9b7105fba1ab8a803845a61a1c24edcd93743b2099613e52510666dc2485f09",
    "conv-resnet-2-bwd_d": "f3bcc13aa74e05c90b49c1c6efa51dfcb8fd14189fa55973019617a99e8a9442",
    "conv-resnet-2-bwd_f": "ad8b7badd99d706fcea600baf25444508f3dfd7f72d3b6a411cebfe91e75a092",
    "conv-resnet-2-fwd": "65966d601c048ff21261d6b8fb2678320b667ce19114f0e02954a7776578ba03",
    "conv-vgg-1-bwd_d": "fa3ab6a5b2efd91d7ff7e2914fac77c619f8f423b9ea99200dad16ef15e032cc",
    "conv-vgg-1-bwd_f": "d5a9eaa9dc13ce39362ad8cb32e391f6d7c4b5d65d5020784a9913225f2715cd",
    "conv-vgg-1-fwd": "734ca3023b50cedd8b24b91389c11c09e2c79399aa67486689fcd17cd4652421",
    "conv-vgg-2-bwd_d": "fa3ab6a5b2efd91d7ff7e2914fac77c619f8f423b9ea99200dad16ef15e032cc",
    "conv-vgg-2-bwd_f": "d5a9eaa9dc13ce39362ad8cb32e391f6d7c4b5d65d5020784a9913225f2715cd",
    "conv-vgg-2-fwd": "734ca3023b50cedd8b24b91389c11c09e2c79399aa67486689fcd17cd4652421",
    "deepsjeng": "8b90a256daebe8a5f75b92aebf33121ff6ec83cbdd14bee1097a7874cbfa9f1f",
    "exchange2": "ebff75d0467ee2227e48b4059cdcef73850ccf6bfdb2c12f0e5e258f14cdc71c",
    "gemm-infer-1024-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-infer-1024-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-infer-3072-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-infer-3072-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-infer-512-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-infer-512-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-infer-5120-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-infer-5120-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-infer-7680-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-infer-7680-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-1760-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-1760-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-2048-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-2048-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-2560-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-2560-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-35-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-35-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-4096-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-4096-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "gemm-train-5124-knl": "29afe3550e491552a9cf2c8992e5d5c8fe4aad299203d0573f9776fa2adaff86",
    "gemm-train-5124-skx": "a0d1febc501e1c22895dc94901bab1de6ff7d56c5f4e04140a0d4caf195cb522",
    "imagick": "07d50cef4d208755e8aad2e19943734f30c0ef55b87a78b3af7e953cd2c93d97",
    "lbm": "7e7d8e3f688ade42c527ac4590d44fbdb2052a547af28c338de8201f4877faae",
    "leela": "a2409f579b5e75a53417de06932961fc58723b2bf8a5fce90c93fa7064e63eac",
    "mcf": "6b66c6e522937c666bedf24c08e6a1014835a87fd0752f7068a2c1beef027cc7",
    "nab": "24eb55e4d3e94fc5dab4f6a2649f36f7a8170fdd5bbbd3a8ac0116914290ce3a",
    "povray": "f51874c3766ff6d35ceeeb6d46f96d3d0a851575282bb5ea37f11f836b5e8fe3",
    "spin": "54fa04c0515be5656113d7569fdd63bb0b19488c3096f1c04bb6dc01f99b457c",
    "xz": "2fa9284819d5f9bf8bacbdfecfa94a0f692330fa1d763da5c4c49d8e75b48afa",
}


def test_trace_digests_cover_every_workload():
    assert set(TRACE_DIGESTS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_contents_are_pinned(name):
    """Each trace equals its literal digest, not merely a second build of
    the same code; the decoder's intern table is released afterwards."""
    assert _trace_digest([make_trace(name, 2000, 1)]) == TRACE_DIGESTS[name]
    assert decode_memo_size() == 0


@pytest.mark.parametrize("name, threads, digest", [
    # Native barrier-synchronized conv decomposition.
    ("conv-vgg-2-fwd", 4,
     "089af75110ece74dd5fe9ed4b099cc1cc51f2196476141ccd9859898bd963f0e"),
    # Seed-cloning fallback: independent instances seeded seed + t.
    ("mcf", 2,
     "d07974778d2631b47ee88369f09b3107f32acea5c57b4a76aa19adafa186ea82"),
])
def test_threaded_trace_contents_are_pinned(name, threads, digest):
    traces = make_threaded_traces(name, threads, 2000, 1)
    assert len(traces) == threads
    assert _trace_digest(traces) == digest
    assert decode_memo_size() == 0


@pytest.mark.parametrize(
    "name", ["gemm-train-1760-knl", "conv-vgg-2-fwd", "exchange2", "mcf"]
)
def test_equal_instructions_share_one_object(name):
    """The decoder interns by value: within one trace every distinct
    static instruction is a single object, however its dynamic instances
    were emitted (load-op FMAs with rotating operand addresses included)."""
    prog = make_trace(name, 10_000, 1)
    assert len({id(i) for i in prog}) == len(set(prog.instructions))


@pytest.mark.parametrize("name", SPEC_LIKE_NAMES)
def test_generators_respect_length(name):
    prog = make_trace(name, 3000)
    # Generators may overshoot by at most one loop iteration.
    assert 3000 <= len(prog) <= 3000 + 200


@pytest.mark.parametrize("name", SPEC_LIKE_NAMES)
def test_generators_avoid_reserved_registers(name):
    """Integer registers 24-31 belong to the wrong-path synthesizer."""
    prog = make_trace(name, 2000)
    reserved = set(RESERVED_INT_REGS)
    for instr in prog:
        for uop in instr.uops:
            assert uop.dst not in reserved
            assert not (set(uop.srcs) & reserved)


def test_seed_changes_trace():
    a = make_trace("mcf", 2000, seed=1)
    b = make_trace("mcf", 2000, seed=2)
    addrs_a = [u.addr for i in a for u in i.uops if u.addr >= 0]
    addrs_b = [u.addr for i in b for u in i.uops if u.addr >= 0]
    assert addrs_a != addrs_b


def test_mcf_has_dependent_chase_loads():
    prog = make_trace("mcf", 2000)
    loads = [u for i in prog for u in i.uops if u.uclass is UopClass.LOAD]
    assert len(loads) > 100
    # The chase load reads the pointer register.
    assert any(1 in u.srcs for u in loads)


def test_cactus_code_footprint_exceeds_l1i():
    prog = make_trace("cactus", 25_000)  # one full code sweep
    lines = {i.pc >> 6 for i in prog}
    assert len(lines) * 64 > 32 * 1024  # touches > 32 KB worth of I-lines


def test_bwaves_streams_sequentially():
    prog = make_trace("bwaves", 4000)
    addrs = [u.addr for i in prog for u in i.uops
             if u.uclass is UopClass.LOAD]
    deltas = [b - a for a, b in zip(addrs, addrs[1:])]
    # Dominantly forward-streaming.
    assert sum(1 for d in deltas if d > 0) > 0.9 * len(deltas)


def test_povray_contains_microcoded_instructions():
    prog = make_trace("povray", 3000)
    assert any(i.microcoded for i in prog)


def test_imagick_has_multicycle_chains():
    prog = make_trace("imagick", 2000)
    muls = sum(1 for i in prog for u in i.uops
               if u.uclass is UopClass.MUL)
    assert muls > 100


def test_registry_covers_spec_and_deepbench():
    assert len(SPEC_LIKE_NAMES) >= 10
    assert len(WORKLOADS) > len(SPEC_LIKE_NAMES)
    with pytest.raises(KeyError):
        get_workload("not-a-workload")


def test_registry_rejects_tiny_traces():
    with pytest.raises(ValueError):
        make_trace("mcf", 10)


def test_deepbench_config_table():
    assert len(sgemm_configs()) + len(conv_configs()) == len(
        DEEPBENCH_CONFIGS
    )
    for config in DEEPBENCH_CONFIGS:
        assert config.flops == 2 * config.m * config.n * config.k


def test_sgemm_knl_style_uses_memory_operand_fmas():
    """KNL JIT: FMAs split into load + FMA micro-op pairs."""
    config = sgemm_configs()[0]
    prog = sgemm_trace(config, "knl", 2000)
    split = sum(
        1 for i in prog
        if len(i.uops) == 2
        and i.uops[0].uclass is UopClass.LOAD
        and i.uops[1].uclass is UopClass.FMA
    )
    assert split > 100


def test_sgemm_skx_style_uses_broadcasts():
    config = sgemm_configs()[0]
    prog = sgemm_trace(config, "skx", 2000)
    broadcasts = sum(1 for i in prog for u in i.uops
                     if u.uclass is UopClass.BROADCAST)
    assert broadcasts > 10
    # Register-form FMAs read the broadcast register.
    fmas = [u for i in prog for u in i.uops if u.uclass is UopClass.FMA]
    assert all(39 in u.srcs for u in fmas)


def test_sgemm_rejects_unknown_style():
    with pytest.raises(ValueError):
        sgemm_trace(sgemm_configs()[0], "avx2")


def test_sgemm_knl_has_higher_vfp_density_than_skx():
    config = sgemm_configs()[0]
    knl = sgemm_trace(config, "knl", 3000).summary()["vfp_uop_fraction"]
    skx = sgemm_trace(config, "skx", 3000).summary()["vfp_uop_fraction"]
    assert skx < 0.55  # SKX style dilutes VFP with loads/ALU
    assert knl < 0.55  # memory-operand split halves the FMA density


def test_conv_phases_differ():
    config = conv_configs()[0]
    fwd = conv_trace(config, "fwd", 3000).summary()
    bwd_f = conv_trace(config, "bwd_f", 3000).summary()
    assert fwd["vfp_uops"] != bwd_f["vfp_uops"]
    with pytest.raises(ValueError):
        conv_trace(config, "sideways", 1000)


def test_conv_includes_sync_yields():
    config = conv_configs()[0]
    prog = conv_trace(config, "fwd", 9000)
    assert any(i.yield_cycles > 0 for i in prog)


def test_conv_masked_edges():
    config = next(c for c in conv_configs() if c.n % 16)
    prog = conv_trace(config, "fwd", 3000)
    fma_lanes = {u.lanes for i in prog for u in i.uops
                 if u.uclass is UopClass.FMA}
    assert len(fma_lanes) > 1  # full and masked vectors


def test_workload_spec_make_validates():
    spec = WorkloadSpec("x", "y", "z", lambda n, s: None)
    with pytest.raises(ValueError):
        spec.make(50)
