"""Discrete-event simulation substrate.

This subpackage is the repository's substitute for gem5: an event engine
(:mod:`repro.sim.engine`), interconnect model (:mod:`repro.sim.network`),
cache arrays (:mod:`repro.sim.cache`), private-cache controllers
(:mod:`repro.sim.l1`), memory controller (:mod:`repro.sim.memctrl`) and
the cluster/system builders (:mod:`repro.sim.system`).

All timing is expressed in integer *ticks*; one tick is one picosecond so
that both cycle counts (500 000 ticks at 2 GHz) and nanosecond link
latencies compose without rounding.
"""

from repro.sim.engine import Engine
from repro.sim.config import SystemConfig, ClusterConfig

__all__ = ["Engine", "SystemConfig", "ClusterConfig"]
