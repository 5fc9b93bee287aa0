"""Differential fuzz of the memory below the LLC against its oracle.

:class:`tests.memory_oracle.OracleMemory` keeps the controller and the
two forwarding wrappers the memory path was built from before they were
folded into one class.  Each example draws a memory geometry and a
stream of line fetches, dirty writebacks and buffer-state probes, feeds
both objects the same calls, and compares every return value, the
queue depth after each call, the horizon ``finish`` returns and
``stats.flat()`` (values and cell order).

Time steps come from a small set rich in ties with the default timings
(a 16-cycle burst, 2 critical beats, 45 + 90 + 1 cycles for a column
read that opens a buffer, 150 + 1 for a column write to an open
buffer) and include a step back: lower levels are not always called
in time order.  Uniformly drawn steps rarely land on the ``<`` /
``<=`` boundary of the idle drain.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as some

from repro.common.config import MemoryConfig
from repro.common.stats import StatRegistry
from repro.common.types import (
    AccessWidth,
    Orientation,
    line_id_parts,
    make_line_id,
)
from repro.mem.mda_memory import MdaMemory
from tests.memory_oracle import OracleMemory

STEPS = (0, 1, 2, 8, 15, 16, 17, 31, 32, 33, 100, 136, 151, 300, -20)
TILES = 40
MAX_OPS = 300


def _power_of_two(most: int):
    return some.sampled_from([1 << k for k in range(most.bit_length())])


@some.composite
def memory_configs(draw) -> MemoryConfig:
    low = draw(some.integers(1, 7))
    return MemoryConfig(
        channels=draw(_power_of_two(4)),
        ranks_per_channel=draw(_power_of_two(2)),
        banks_per_rank=draw(_power_of_two(8)),
        tile_cols_per_bank=draw(_power_of_two(8)),
        sub_buffers=draw(some.integers(1, 3)),
        write_queue_low=low,
        write_queue_high=draw(some.integers(low + 1, 8)),
        speed_factor=draw(some.sampled_from((1.0, 1.6))))


#: One call: (kind, target, dirty mask, time step).  The target is a
#: line id, or the previous call's line ("same") or the line
#: perpendicular to it in its tile ("perp"): the pairs that overlap
#: ordering and the open buffers key on, which independent draws over
#: 40 tiles would rarely produce.
operations = some.tuples(
    some.sampled_from(("fetch", "writeback", "probe")),
    some.one_of(
        some.integers(0, make_line_id(TILES, Orientation.ROW, 0) - 1),
        some.sampled_from(("same", "perp"))),
    some.integers(1, 255),
    some.sampled_from(STEPS))


def _perpendicular(line: int) -> int:
    tile, orientation, index = line_id_parts(line)
    other = (Orientation.COLUMN if orientation is Orientation.ROW
             else Orientation.ROW)
    return make_line_id(tile, other, index)


def _replay(memory, stream):
    """Every observable answer of ``memory`` to ``stream``, in order."""
    answers = []
    now = line = 0
    for kind, target, mask, step in stream:
        if target == "perp":
            line = _perpendicular(line)
        elif target != "same":
            line = target
        now = max(0, now + step)
        if kind == "fetch":
            answers.append(memory.fetch_line(line, now,
                                             AccessWidth.VECTOR))
        elif kind == "writeback":
            answers.append(memory.writeback_line(line, mask, now))
        else:
            answers.append(memory.buffer_state(line))
        answers.append(memory.pending_writes())
    answers.append(memory.finish(now))
    answers.append(memory.pending_writes())
    return answers


@settings(max_examples=400, deadline=None)
@given(config=memory_configs(),
       stream=some.lists(operations, max_size=MAX_OPS))
def test_memory_matches_oracle(config, stream):
    want_stats, got_stats = StatRegistry(), StatRegistry()
    want = _replay(OracleMemory(config, want_stats), stream)
    got = _replay(MdaMemory(config, got_stats), stream)
    assert got == want
    assert list(got_stats.flat().items()) == \
        list(want_stats.flat().items())
