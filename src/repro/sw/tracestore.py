"""Persistent on-disk store of packed traces.

A trace is a pure function of ``(workload, size, logical_dims,
variant)`` — the variant ``""`` being the protocol default, the others
named in :data:`repro.core.simulator.TRACE_VARIANTS` — so once
generated it can be reused by every design point, every process, and
every future invocation.  The store mirrors the run cache's durability
contract (:class:`repro.experiments.runner.RunCache`):

* entries are written atomically (temp file + ``os.replace``) under an
  advisory lock on ``<root>/.lock``, so a crashed writer can never
  leave a half-written entry visible and two concurrent ``repro``
  invocations sharing an OUTDIR cannot interleave torn writes (this
  replaces the original single-writer assumption; see
  :mod:`repro.common.locking`);
* a corrupt, truncated, or version-mismatched entry reads as a miss,
  never as an error — the trace is simply regenerated and rewritten.
  Corrupt entries are additionally *quarantined* (renamed to
  ``<entry>.mdat.corrupt`` and counted in :attr:`corrupt_quarantined`)
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

from ..common.errors import LockTimeout, ProgramError
from ..common.locking import file_lock, lock_path_for
from ..common.types import PackedTrace
from .tracefile import read_packed_trace_mapped, write_packed_trace

#: Default location of the trace store, relative to an experiment
#: output directory.
TRACECACHE_DIRNAME = ".tracecache"

#: Bump when the trace contents would change for the same key (packed
#: word layout, trace generation semantics); old entries become misses.
TRACE_STORE_VERSION = 1

#: Suffix a quarantined (corrupt) store entry is renamed to.
QUARANTINE_SUFFIX = ".corrupt"


class TraceStore:
    """Versioned directory of packed trace files."""

    def __init__(self, root: str,
                 lock_timeout: float = 10.0) -> None:
        self._root = root
        self._lock_timeout = lock_timeout
        #: Corrupt entries quarantined by :meth:`load` so far.
        self.corrupt_quarantined = 0
        #: Best-effort writes skipped because the lock stayed held.
        self.lock_timeouts = 0

    @property
    def root(self) -> str:
        return self._root

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
        os.makedirs(self._root, exist_ok=True)
        path = self.path_for(workload, size, logical_dims, variant)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with file_lock(lock_path_for(self._root),
                           timeout=self._lock_timeout):
                write_packed_trace(trace, tmp, name=name)
                os.replace(tmp, path)
        except LockTimeout:
            self.lock_timeouts += 1
            self._remove_tmp(tmp)
            return
        except OSError:
            # A read-only or full store is a cache, not a requirement.
            self._remove_tmp(tmp)
            return
        from ..experiments import faults
        faults.maybe_corrupt_file(path, token=os.path.basename(path))

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            return
        self.corrupt_quarantined += 1

    @staticmethod
    def _remove_tmp(tmp: str) -> None:
        try:
            os.remove(tmp)
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every store entry (quarantined ones too); returns
        the number of live entries removed."""
        removed = 0
        if not os.path.isdir(self._root):
            return removed
        for entry in os.listdir(self._root):
            if entry.endswith(".mdat"):
                os.remove(os.path.join(self._root, entry))
                removed += 1
            elif entry.endswith(".mdat" + QUARANTINE_SUFFIX):
                os.remove(os.path.join(self._root, entry))
        return removed

    def __len__(self) -> int:
        if not os.path.isdir(self._root):
            return 0
        return sum(1 for entry in os.listdir(self._root)
                   if entry.endswith(".mdat"))
