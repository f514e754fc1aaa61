"""C3: CXL Coherence Controllers for Heterogeneous Architectures.

A complete Python reproduction of the HPCA 2026 paper.  The package
contains:

- :mod:`repro.sim` -- a discrete-event, message-granularity simulator
  substrate (the gem5/Ruby/Garnet substitute): event engine, interconnect
  topologies, cache arrays, L1 controllers, memory controllers and system
  builders.
- :mod:`repro.cpu` -- micro-ops, thread programs and memory-consistency
  model engines (SC, TSO, ARM-style weak ordering, RCC synchronization).
- :mod:`repro.protocols` -- executable directory-based coherence protocol
  engines: the MESI family (MESI, MESIF, MOESI), RCC, the hierarchical
  global MESI baseline and the CXL.mem 3.0 protocol with the
  BIConflict/BIConflictAck race-resolution handshake.
- :mod:`repro.core` -- the paper's contribution: stable-state protocol
  specifications, the compound-FSM generator implementing Rule I (flow
  delegation) and Rule II (atomicity), translation tables, and the C3
  bridge runtime.
- :mod:`repro.verify` -- invariant monitors, an explicit-state
  (Murphi-like) model checker, litmus tests with axiomatic
  allowed-outcome enumeration and the randomized litmus runner.
- :mod:`repro.workloads` -- 33 synthetic kernels mirroring the sharing
  behaviour of Splash-4, PARSEC and Phoenix.
- :mod:`repro.stats` and :mod:`repro.harness` -- measurement collectors
  and the experiment drivers that regenerate every table and figure of
  the paper's evaluation.
"""

from repro.sim.config import ClusterConfig, SystemConfig, two_cluster_config
from repro.sim.system import System, build_system
from repro.cpu.isa import (
    Op,
    ThreadProgram,
    fence,
    load,
    load_acquire,
    rmw,
    store,
    store_release,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "SystemConfig",
    "two_cluster_config",
    "System",
    "build_system",
    "Op",
    "ThreadProgram",
    "fence",
    "load",
    "load_acquire",
    "rmw",
    "store",
    "store_release",
    "__version__",
]
