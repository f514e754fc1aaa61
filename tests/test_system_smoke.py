"""End-to-end integration smoke tests across protocol combinations."""

import gc

import pytest

from repro.cpu.isa import ThreadProgram, fence, load, rmw, store
from repro.sim.config import two_cluster_config
from repro.sim.system import build_system
from repro.verify import invariants
from repro.workloads import WORKLOADS

COMBOS = [
    ("MESI", "MESI", "MESI"),
    ("MESI", "CXL", "MESI"),
    ("MESI", "CXL", "MOESI"),
    ("MESI", "CXL", "MESIF"),
    ("MOESI", "CXL", "MOESI"),
    ("MESIF", "CXL", "MESIF"),
    ("RCC", "CXL", "MESI"),
]


def make_system(local_a="MESI", glob="CXL", local_b="MESI", mcm="TSO", cores=2, **kw):
    config = two_cluster_config(local_a, glob, local_b, mcm_a=mcm, mcm_b=mcm,
                                cores_per_cluster=cores, **kw)
    return build_system(config)


def test_store_then_load_same_core():
    system = make_system()
    program = ThreadProgram("t0", [store(0x10, 7), fence(), load(0x10, "r1")])
    result = system.run_threads([program], placement=[0])
    assert result.per_core_regs[0]["r1"] == 7


def test_intra_cluster_producer_consumer():
    system = make_system()
    writer = ThreadProgram("w", [store(0x20, 5), fence(), store(0x21, 1)])
    ops = [load(0x21, "flag"), fence(), load(0x20, "val")]
    reader = ThreadProgram("r", ops)
    result = system.run_threads([writer, reader], placement=[0, 1])
    regs = result.per_core_regs[1]
    if regs["flag"] == 1:
        assert regs["val"] == 5


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "-".join(c))
def test_cross_cluster_write_then_read(combo):
    local_a, glob, local_b = combo
    mcm_a = "RCC" if local_a == "RCC" else "TSO"
    config = two_cluster_config(local_a, glob, local_b, mcm_a=mcm_a, mcm_b="TSO",
                                cores_per_cluster=2)
    system = build_system(config)
    # Core 0 (cluster 0) writes, then spins are avoided by just running
    # sequentially: writer finishes, reader starts later via a flag retry
    # chain approximated with repeated loads.
    writer = ThreadProgram("w", [store(0x40, 99), fence()])
    system.run_threads([writer], placement=[0])
    reader = ThreadProgram("r", [load(0x40, "r1")])
    result = system.run_threads([reader], placement=[2])  # first core of cluster 1
    assert result.per_core_regs[2]["r1"] == 99


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "-".join(c))
def test_rmw_contention_sums_correctly(combo):
    local_a, glob, local_b = combo
    mcm_a = "RCC" if local_a == "RCC" else "WEAK"
    config = two_cluster_config(local_a, glob, local_b, mcm_a=mcm_a, mcm_b="WEAK",
                                cores_per_cluster=2)
    system = build_system(config)
    increments = 20
    programs = [
        ThreadProgram(f"t{i}", [rmw(0x100, 1) for _ in range(increments)])
        for i in range(4)
    ]
    system.run_threads(programs, placement=[0, 1, 2, 3])
    check = ThreadProgram("check", [load(0x100, "total")])
    result = system.run_threads([check], placement=[0])
    assert result.per_core_regs[0]["total"] == 4 * increments


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "-".join(c))
def test_mixed_traffic_no_deadlock_and_values_converge(combo):
    local_a, glob, local_b = combo
    mcm_a = "RCC" if local_a == "RCC" else "TSO"
    config = two_cluster_config(local_a, glob, local_b, mcm_a=mcm_a, mcm_b="TSO",
                                cores_per_cluster=2, seed=3)
    system = build_system(config)
    addrs = list(range(0x200, 0x220))
    programs = []
    for tid in range(4):
        ops = []
        for i, addr in enumerate(addrs):
            if (i + tid) % 3 == 0:
                ops.append(store(addr, tid * 100 + i))
            else:
                ops.append(load(addr, f"r{i}"))
        programs.append(ThreadProgram(f"t{tid}", ops))
    result = system.run_threads(programs, placement=[0, 1, 2, 3])
    assert result.exec_time > 0
    assert system.quiescent()


def test_eviction_pressure_small_caches():
    """Footprint exceeding both L1 and CXL cache exercises Fig. 7 evictions."""
    from repro.sim.config import ClusterConfig, SystemConfig, LINE_BYTES

    tiny = ClusterConfig(cores=1, protocol="MESI", mcm="TSO",
                         l1_bytes=4 * LINE_BYTES, l1_assoc=2,
                         llc_bytes=8 * LINE_BYTES, llc_assoc=2)
    config = SystemConfig(clusters=(tiny, tiny), global_protocol="CXL")
    system = build_system(config)
    ops = []
    for rounds in range(3):
        for addr in range(64):
            ops.append(store(addr, addr + rounds))
    ops.append(fence())
    ops += [load(addr, f"r{addr}") for addr in range(64)]
    program = ThreadProgram("t", ops)
    result = system.run_threads([program], placement=[0])
    for addr in range(64):
        assert result.per_core_regs[0][f"r{addr}"] == addr + 2


def test_same_line_war_between_clusters():
    """Ping-pong writes to one line across clusters stay coherent."""
    system = make_system(cores=1)
    a = ThreadProgram("a", [store(0x1, 1), fence(), rmw(0x1, 10, "seen_a")])
    b = ThreadProgram("b", [store(0x1, 2), fence(), rmw(0x1, 100, "seen_b")])
    system.run_threads([a, b], placement=[0, 1])
    check = ThreadProgram("c", [load(0x1, "final")])
    result = system.run_threads([check], placement=[0])
    # Any interleaving respecting each thread's store-before-RMW order:
    # {st_a,st_b,+10,+100}=112, {st_a,+10,st_b,+100}=102,
    # {st_b,st_a,...}=111, {st_b,+100,st_a,+10}=11.
    assert result.per_core_regs[0]["final"] in (112, 102, 111, 11)


PAIRINGS = [(local, glob) for glob in ("CXL", "MESI")
            for local in ("MESI", "MESIF", "MOESI", "RCC")]


@pytest.mark.parametrize("kernel", ["barnes", "raytrace"])
@pytest.mark.parametrize("pairing", PAIRINGS, ids="-".join)
def test_finished_system_leaves_no_cycles(pairing, kernel):
    """A system that ran to completion holds no reference cycle: with
    the cycle collector off, dropping it frees every object it made."""
    local, glob = pairing
    mcm = "RCC" if local == "RCC" else "WEAK"
    config = two_cluster_config(local, glob, local, mcm_a=mcm, mcm_b=mcm,
                                cores_per_cluster=2, seed=5)
    programs = WORKLOADS[kernel].build(config.total_cores, scale=0.2, seed=5)
    build_system(config)  # first build of a pairing: one-off caches
    gc.collect()
    gc.disable()
    try:
        system = build_system(config)
        result = system.run_threads(programs)
        invariants.check_all(system)
        del system
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.messages > 0
