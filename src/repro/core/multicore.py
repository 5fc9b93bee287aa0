"""Multiprogrammed simulation (paper Section IX-B future work).

"While such schemes are very useful for multiprogrammed workloads,
single-application, single thread scenarios are less sensitive.  An
investigation of our techniques on parallel workloads would examine
these approaches in greater detail."

This module provides that investigation harness: N independent
programs, each on its own core with **private L1/L2**, contending for a
**shared LLC and MDA memory**.  Cores interleave in simulated time
(the core with the smallest local clock issues next), so bank, bus,
write-queue, and shared-LLC interference are modeled naturally by the
same absolute-time machinery the single-core path uses.

Per-core private levels get distinct statistic namespaces
(``cache.c<k>.L1`` ...); shared components keep their usual names.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterator, List, Sequence

from ..cache.base import CacheLevel
from ..cache.hierarchy import build_cache_level
from ..common.config import SystemConfig
from ..common.errors import ConfigError
from ..common.stats import StatRegistry
from ..common.types import Request
from ..mem.mda_memory import MdaMemory
from ..sw.layout import make_layout
from ..sw.program import Program
from ..sw.tracegen import generate_trace
from .simulator import RunResult


@dataclass
class CoreResult:
    """Per-core outcome of a multiprogrammed run."""

    core: int
    workload: str
    cycles: int
    ops: int
    l1_hit_rate: float


@dataclass
class MultiProgramResult:
    """Outcome of one multiprogrammed simulation."""

    system: SystemConfig
    cores: List[CoreResult]
    stats: StatRegistry

    @property
    def makespan(self) -> int:
        """Cycles until the last core finishes."""
        return max(core.cycles for core in self.cores)

    @property
    def throughput_weighted_cycles(self) -> float:
        """Sum of per-core cycles (lower = better overall)."""
        return float(sum(core.cycles for core in self.cores))

    def memory_bytes(self) -> int:
        grp = self.stats.group("memory")
        return grp.get("bytes_read") + grp.get("bytes_written")


class _Core:
    """One core's private hierarchy plus its trace cursor."""

    def __init__(self, index: int, levels: List[CacheLevel],
                 trace: Iterator[Request], workload: str,
                 mlp_window: int, issue_cost: int) -> None:
        self.index = index
        self.levels = levels
        self.trace = trace
        self.workload = workload
        self.now = 0
        self.ops = 0
        self.window: List[int] = []
        self.window_size = mlp_window
        self.issue_cost = issue_cost
        l1_cfg = levels[0].config
        self.pipelined = l1_cfg.hit_latency + 3 * l1_cfg.tag_latency
        self.done = False

    def step(self) -> None:
        """Issue one trace operation (mirrors TraceDrivenCpu.run)."""
        try:
            req = next(self.trace)
        except StopIteration:
            while self.window:
                self.now = max(self.now, heapq.heappop(self.window))
            self.done = True
            return
        self.now += self.issue_cost
        result = self.levels[0].access(req, self.now)
        self.ops += 1
        if not req.is_write and result.latency > self.pipelined:
            heapq.heappush(self.window, self.now + result.latency)
            while len(self.window) > self.window_size:
                earliest = heapq.heappop(self.window)
                if earliest > self.now:
                    self.now = earliest


def _private_levels(system: SystemConfig, core: int,
                    stats: StatRegistry) -> List[CacheLevel]:
    """Build this core's private (non-LLC) levels with namespaced
    stats."""
    levels = []
    for idx, cfg in enumerate(system.levels[:-1], start=1):
        named = replace(cfg, name=f"c{core}.{cfg.name}")
        levels.append(build_cache_level(named, idx, stats))
    return levels


def run_multiprogrammed(system: SystemConfig,
                        programs: Sequence[Program],
                        replacement: str = "lru") -> MultiProgramResult:
    """Run one program per core over a shared LLC and memory.

    The layouts of all programs are placed in one shared physical
    address space (disjoint regions), so cores never alias each other's
    data but do contend for every shared resource.
    """
    if len(system.levels) < 2:
        raise ConfigError("multiprogrammed mode needs private levels "
                          "above a shared LLC")
    if not programs:
        raise ConfigError("need at least one program")
    stats = StatRegistry()
    memory = MdaMemory(system.memory, stats)
    below = memory
    if system.tier.active:
        from ..tier import DieStackedTier
        below = DieStackedTier(system.tier, stats, memory,
                               len(system.levels) + 1)
    llc_cfg = system.levels[-1]
    llc = build_cache_level(llc_cfg, len(system.levels), stats,
                            replacement)
    llc.connect(below)

    cores: List[_Core] = []
    base_tile = 0
    for index, program in enumerate(programs):
        levels = _private_levels(system, index, stats)
        for upper, lower in zip(levels, levels[1:]):
            upper.connect(lower)
        levels[-1].connect(llc)
        layout = make_layout(program.arrays, system.logical_dims)
        trace = _offset_trace(
            generate_trace(program, system.logical_dims, layout),
            base_tile)
        # Reserve this program's footprint plus slack before the next.
        base_tile += (layout.footprint_bytes() // 512) + 16
        cores.append(_Core(index, levels, trace, program.name,
                           system.cpu.mlp_window,
                           system.cpu.cycles_per_op))

    pending = list(cores)
    while pending:
        # Fair interleave: the core with the smallest local clock runs.
        core = min(pending, key=lambda c: c.now)
        core.step()
        if core.done:
            pending.remove(core)
    horizon = memory.finish(max(core.now for core in cores))

    results = []
    for core in cores:
        grp = stats.group(f"cache.c{core.index}.L1")
        results.append(CoreResult(
            core=core.index, workload=core.workload,
            cycles=core.now, ops=core.ops,
            l1_hit_rate=grp.ratio("hits", "demand_accesses")))
    _ = horizon
    return MultiProgramResult(system=system, cores=results, stats=stats)


def _offset_trace(trace: Iterator[Request],
                  base_tile: int) -> Iterator[Request]:
    """Relocate a trace by a whole number of tiles."""
    offset = base_tile * 512
    for req in trace:
        yield Request(req.addr + offset, req.orientation, req.width,
                      req.is_write, req.ref_id)


def as_run_result(result: MultiProgramResult) -> RunResult:
    """View a multiprogrammed result through the RunResult lens
    (workload name is the joined core list)."""
    name = "+".join(core.workload for core in result.cores)
    return RunResult(system=result.system, workload=name,
                     cycles=result.makespan,
                     ops=sum(core.ops for core in result.cores),
                     stats=result.stats)
