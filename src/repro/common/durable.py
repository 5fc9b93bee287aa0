"""The durability contract the on-disk caches share.

:class:`~repro.experiments.runner.RunCache` (pickled results) and
:class:`~repro.sw.tracestore.TraceStore` (packed traces) subclass
:class:`DurableStore`, each naming its entries ``*<suffix>`` and
keeping its own ``path_for``, ``load`` and ``store`` (the codec).
Entries are written atomically (temp file + ``os.replace``) under an
advisory lock on ``<root>/.lock``, so a crashed writer never leaves a
half-written entry visible.  Both stores are caches, not requirements:
a write that cannot happen (the lock stays held, the root cannot be
created, the disk is full or read-only) is skipped without leaving its
temp file, and a corrupt entry reads as a miss and is quarantined
(renamed to ``<entry><suffix>.corrupt``) so it fails once and stays
inspectable.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable

from .errors import LockTimeout
from .locking import file_lock, lock_path_for

#: Suffix a quarantined (corrupt) entry is renamed to.
QUARANTINE_SUFFIX = ".corrupt"


class DurableStore:
    """A directory of atomically written ``*<suffix>`` entries."""

    def __init__(self, root: str, suffix: str,
                 lock_timeout: float = 10.0) -> None:
        self._root = root
        self._suffix = suffix
        self._lock_timeout = lock_timeout
        #: Corrupt entries quarantined by ``load`` so far.
        self.corrupt_quarantined = 0
        #: Best-effort writes skipped because the lock stayed held.
        self.lock_timeouts = 0

    def _write(self, path: str, write: Callable[[str], None]) -> None:
        """Atomically replace ``path`` with what ``write(tmp)`` writes
        to a temp file, or skip the write (see the module docstring);
        a written entry then passes the ``cache_corrupt`` fault site."""
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self._root, exist_ok=True)
            with file_lock(lock_path_for(self._root),
                           timeout=self._lock_timeout):
                write(tmp)
                os.replace(tmp, path)
        except (LockTimeout, OSError) as exc:
            if isinstance(exc, LockTimeout):
                self.lock_timeouts += 1
            with contextlib.suppress(OSError):
                os.remove(tmp)
            return
        from ..experiments import faults
        faults.maybe_corrupt_file(path, token=os.path.basename(path))

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            return
        self.corrupt_quarantined += 1

    def clear(self) -> int:
        """Delete every entry (quarantined ones too); returns the
        number of live entries removed."""
        removed = 0
        if not os.path.isdir(self._root):
            return removed
        for name in os.listdir(self._root):
            if name.endswith(self._suffix):
                os.remove(os.path.join(self._root, name))
                removed += 1
            elif name.endswith(self._suffix + QUARANTINE_SUFFIX):
                os.remove(os.path.join(self._root, name))
        return removed

    def __len__(self) -> int:
        if not os.path.isdir(self._root):
            return 0
        return sum(1 for name in os.listdir(self._root)
                   if name.endswith(self._suffix))
