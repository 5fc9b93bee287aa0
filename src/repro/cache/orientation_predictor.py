"""Dynamic orientation prediction (paper Section IV-C extension).

"While, in this work, we consider only static mappings of orientation
to instructions, the same lookup scheme would be compatible with a
dynamically predicted orientation preference with no additional
overheads on the cache hit path."

This predictor makes that concrete.  Per static reference (ref_id,
standing in for the PC) it watches the geometric relationship between
consecutive scalar accesses:

* staying in the same **column line** while leaving the row line votes
  COLUMN (a down-the-column walk);
* staying in the same **row line** while leaving the column line votes
  ROW;
* leaving both (random/diagonal) decays the counter toward neutral.

A saturating counter turns votes into a prediction once past a
confidence threshold.  The cache uses the prediction only to choose
the *probe order and fill orientation of scalar accesses* — vector
accesses encode their lane layout and cannot be reinterpreted.

The headline use case is annotation-free operation: a legacy binary
whose loads all carry the default row preference still recovers
column-line fills (and the MSHR coalescing they enable) at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..common.stats import StatGroup
from ..common.types import Orientation, line_id_of

#: Defaults.  The kernel's flat mirror
#: (:class:`repro.core.kernels._FlatPredictor`) copies an instance's
#: values through the properties below and trains its own table, in a
#: pass over each replay span, exactly as :meth:`observe_and_predict`.
DEFAULT_THRESHOLD = 2
DEFAULT_SATURATION = 4
DEFAULT_TABLE_ENTRIES = 64


@dataclass
class _RefState:
    last_row_line: int = -1
    last_col_line: int = -1
    counter: int = 0  # positive -> COLUMN, negative -> ROW


class OrientationPredictor:
    """Per-reference saturating orientation predictor."""

    def __init__(self, stats: StatGroup,
                 threshold: int = DEFAULT_THRESHOLD,
                 saturation: int = DEFAULT_SATURATION,
                 table_entries: int = DEFAULT_TABLE_ENTRIES) -> None:
        if not 1 <= threshold <= saturation:
            raise ValueError("need 1 <= threshold <= saturation")
        self._stats = stats
        self._threshold = threshold
        self._saturation = saturation
        self._capacity = table_entries
        self._table: Dict[int, _RefState] = {}
        # Pre-bound counter cells: the hot path bumps cells directly,
        # and pre-creation keeps the stat key set identical between the
        # object path and the kernel mirror (which shares these cells).
        self._c_table_evictions = stats.counter("table_evictions")
        self._c_static_fallbacks = stats.counter("static_fallbacks")
        self._c_predictions = stats.counter("predictions")
        self._c_overrides = stats.counter("overrides")

    # -- read by the kernel's flat mirror (kernels._FlatPredictor) -------

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def saturation(self) -> int:
        return self._saturation

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def counter_cells(self):
        """(table_evictions, static_fallbacks, predictions, overrides)
        cells, shared with the flat mirror for bit-identical stats."""
        return (self._c_table_evictions, self._c_static_fallbacks,
                self._c_predictions, self._c_overrides)

    def observe_and_predict(self, ref_id: int, addr: int,
                            static_pref: Orientation) -> Orientation:
        """Train on one scalar access and return the orientation to use.

        Falls back to the static preference until confident.
        """
        state = self._table.get(ref_id)
        if state is None:
            if len(self._table) >= self._capacity:
                del self._table[next(iter(self._table))]
                self._c_table_evictions.value += 1
            state = _RefState()
            self._table[ref_id] = state
        row_line = line_id_of(addr, Orientation.ROW)
        col_line = line_id_of(addr, Orientation.COLUMN)
        same_row = row_line == state.last_row_line
        same_col = col_line == state.last_col_line
        if same_col and not same_row:
            state.counter = min(state.counter + 1, self._saturation)
        elif same_row and not same_col:
            state.counter = max(state.counter - 1, -self._saturation)
        # Accesses that leave both lines (tile-boundary crossings of a
        # regular walk, or genuinely irregular refs) are ignored: a
        # column walk leaves both lines once per eight steps, and
        # decaying on that would make the prediction flip-flop.
        state.last_row_line = row_line
        state.last_col_line = col_line

        if state.counter >= self._threshold:
            prediction = Orientation.COLUMN
        elif state.counter <= -self._threshold:
            prediction = Orientation.ROW
        else:
            self._c_static_fallbacks.value += 1
            return static_pref
        self._c_predictions.value += 1
        if prediction is not static_pref:
            self._c_overrides.value += 1
        return prediction

    def confidence(self, ref_id: int) -> int:
        """Signed counter value for a reference (introspection)."""
        state = self._table.get(ref_id)
        return state.counter if state else 0
