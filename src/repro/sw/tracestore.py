"""Persistent on-disk store of packed traces.

A trace is a pure function of ``(workload, size, logical_dims,
variant)`` — the variant ``""`` being the protocol default, the others
named in :data:`repro.core.simulator.TRACE_VARIANTS` — so once
generated it can be reused by every design point, every process, and
every future invocation.  The store shares the run cache's durability
contract (:class:`repro.common.durable.DurableStore`):

* entries are written atomically under an advisory lock, and a write
  that cannot happen (lock held, disk full, root not creatable) is
  skipped;
* a corrupt, truncated, or version-mismatched entry reads as a miss,
  never as an error — the trace is simply regenerated and rewritten.
  Corrupt entries are additionally *quarantined* (renamed to
  ``<entry>.mdat.corrupt`` and counted in ``corrupt_quarantined``)
  so they fail once, not on every read, and remain inspectable;
* the payload is the packed binary trace format of
  :mod:`repro.sw.tracefile`, so every store entry is also a valid input
  to ``repro trace cat`` / ``repro trace run``.

The store lives under ``OUTDIR/.tracecache`` next to the run cache's
``OUTDIR/.runcache``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from ..common.durable import DurableStore
from ..common.errors import ProgramError
from ..common.types import PackedTrace
from .tracefile import read_packed_trace_mapped, write_packed_trace

#: Default location of the trace store, relative to an experiment
#: output directory.
TRACECACHE_DIRNAME = ".tracecache"

#: Bump when the trace contents would change for the same key (packed
#: word layout, trace generation semantics); old entries become misses.
TRACE_STORE_VERSION = 1


class TraceStore(DurableStore):
    """Versioned directory of packed trace files."""

    def __init__(self, root: str,
                 lock_timeout: float = 10.0) -> None:
        super().__init__(root, ".mdat", lock_timeout)

    def path_for(self, workload: str, size: str, logical_dims: int,
                 variant: str = "") -> str:
        # Default traces keep their variant-free filenames, so entries
        # written before variants existed stay hits.
        suffix = f"-{variant}" if variant else ""
        filename = (f"{workload}-{size}-{logical_dims}d{suffix}"
                    f".v{TRACE_STORE_VERSION}.mdat")
        return os.path.join(self._root, filename)

    def load(self, workload: str, size: str, logical_dims: int,
             variant: str = "") -> Optional[Tuple[str, PackedTrace]]:
        """``(program name, trace)``, or ``None`` on any miss.

        Hits are served zero-copy: the returned trace is a read-only
        ``memoryview`` over an ``mmap`` of the store entry, so repeat
        loads and forked workers share one set of page-cache pages
        (:func:`repro.sw.tracefile.read_packed_trace_mapped`; hosts or
        entries the view cannot represent take the copying reader
        inside it).  The durability contract is unchanged — a corrupt,
        truncated, or version-mismatched entry still reads as a miss
        and is quarantined, never raised.
        """
        path = self.path_for(workload, size, logical_dims, variant)
        try:
            return read_packed_trace_mapped(path)
        except FileNotFoundError:
            return None
        except (OSError, ProgramError, ValueError, EOFError):
            self._quarantine(path)
            return None

    def store(self, workload: str, size: str, logical_dims: int,
              name: str, trace: PackedTrace, variant: str = "") -> None:
        self._write(self.path_for(workload, size, logical_dims, variant),
                    lambda tmp: write_packed_trace(trace, tmp, name=name))
