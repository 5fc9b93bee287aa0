"""Boundary tracing from the benchmark's side of each layer.

Wrappers replace public names where their callers look them up (a
class attribute, or a module global imported by name) and record:

* **spans** for coarse calls: ``[name, start_ns, end_ns, parent,
  attrs]``, kept in memory, ``parent`` being the index of the span open
  when this one began;
* **counts** for per-line calls: number of calls and total ns.

:meth:`Tracer.restore` puts every original back.  Nothing in the
program is edited; tracing exists only in the process that installs it.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

Hook = Callable[[tuple, dict, object, dict], None]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, List[int]] = {}
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           {} if attrs is None else attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out "
                               f"of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span (for the benchmark's own calls)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------

    def wrap_span(self, owner, attr: str, name: str,
                  hook: Optional[Hook] = None,
                  before: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(args, kwargs, attrs)`` may replace the arguments
        (returns the new ``(args, kwargs)``); ``hook(args, kwargs,
        result, attrs)`` runs after a successful call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(args, kwargs, attrs)
            index = tracer.open(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(args, kwargs, result, attrs)
            return result

        self._install(owner, attr, original, traced)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and their total ns."""
        original = getattr(owner, attr)
        cell = self.counts.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - start

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            kids.setdefault(span[3], []).append(index)
        return kids

    def duration_s(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1]) / 1e9

    def self_s(self, index: int, kids: Dict[int, List[int]]) -> float:
        return self.duration_s(index) - sum(
            self.duration_s(child) for child in kids.get(index, ()))

    def total_s(self, name: str) -> float:
        return sum(self.duration_s(i) for i, span in
                   enumerate(self.spans) if span[0] == name)

    def number(self, name: str, **match) -> int:
        return sum(1 for span in self.spans if span[0] == name and all(
            span[4].get(k) == v for k, v in match.items()))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts}, handle, default=str)
