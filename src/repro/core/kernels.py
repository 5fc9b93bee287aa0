"""Flat cache kernels and the fused replay loops.

The object model (:mod:`repro.cache`) keeps per-line state in Python
dicts and per-set :class:`LruSet` objects, and every request crosses
several method boundaries (``access`` -> ``_vector_read`` ->
``_fill_line`` -> ``fetch_line`` -> ...).  Profiling the object replay
loop shows that essentially all time is spent in those cache levels —
the memory controller underneath is noise — so this module rebuilds the
covered designs as **flat stores** driven by two span loops that run
the common miss down the whole chain inline:

* ``sets``: one :class:`collections.OrderedDict` per cache set, keyed
  by the resident oriented line id (a tile id in a 2P2L block store)
  in LRU order, oldest first.  A hit is ``move_to_end``; once a set
  holds ``assoc`` entries the victim is ``popitem(last=False)`` — the
  object path's insertion-ordered :class:`LruSet`, kept in C.  The
  value is the line's per-word dirty mask (a 2P2L block's packed
  presence and dirty words);
* ``slot_of``: resident key -> the ``OrderedDict`` of its set, so a
  probe is one dict lookup and a hit one ``move_to_end``;
* ``tile_count``: (tile, orientation) -> resident-line count, which
  lets the hot paths skip the eight-way perpendicular scans (duplicate
  eviction, Fig. 9 cleaning) whenever a tile holds no crossing lines.

Address decode is table-driven: :func:`intile_tables` maps the six
in-tile word bits (plus the orientation bit) straight to the in-tile
line index and the word's offset within the oriented line, so the
replay loop never recomputes the row/column bit-slicing per request
(the channel/rank/bank side of the decode lives in
:func:`repro.mem.decoder.interleave_tables`).

Every kernel level *shares* its statistics cells and MSHR counters
with the corresponding object level, the 1P1L LLC's stride prefetcher
is mirrored in three ints that share its ``prefetches_generated``
cell, and the chain bottoms out at the hierarchy's real tier or
:class:`MdaMemory` (``hierarchy.port``), so a kernel run produces
**bit-identical counters** to the object path —
``tests/test_kernels.py`` enforces this across the covered design x
workload matrix and on generated traces.

Coverage: LRU replacement; two or three levels (an L1, at most one
mid level, and the last level); a 1P1L L1 over 1P1L levels, of which
only the last may prefetch; or a 1P2L L1 (either index mapping,
static or dynamic orientation) over a 1P2L mid level and a 1P2L or
2P2L (dense or sparse fill) last level (:class:`_Kernel2P2L`, whose
CPU-facing Design 3 path is never exercised there).  The orientation
predictor reads only the trace, never the cache state, so
:class:`_FlatPredictor` trains on each span's predecoded requests
before the span replays and rewrites the scalar requests whose
prediction overrides the static preference; static and dynamic 2-D
L1s then replay on the same loop.  Any other hierarchy replays on the
object path (see :func:`supports`).  Occupancy-sampled runs stay on
the kernel: :meth:`KernelEngine.replay` walks the trace in
sampling-stride spans and answers :meth:`KernelEngine.occupancy_by_level`
from the flat stores between them.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from functools import lru_cache
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from ..common.errors import SimulationError
from ..common.stats import LAT_HIST_KEYS
from ..common.types import AccessWidth, LINES_PER_TILE

try:  # optional accelerator for trace predecode (pure fallback below)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the test env
    _np = None

#: Module-level switch: benches and tests flip this to pin the
#: object path, the reference model (see :func:`kernel_disabled`).
KERNEL_ENABLED = True

_SCALAR = AccessWidth.SCALAR
_VECTOR = AccessWidth.VECTOR

_COLUMN_ON_1L = ("column-preference request reached a 1P1L cache; "
                 "design-0 traces must be generated with logical_dims=1")


def supports(hierarchy) -> bool:
    """True when the fused kernel covers this hierarchy exactly.

    Uncovered hierarchies replay on the object path — same results,
    reference speed.
    """
    if not KERNEL_ENABLED:
        return False
    if hierarchy.replacement != "lru":
        return False
    levels = hierarchy.levels
    if not 2 <= len(levels) <= 3:
        # The span loops inline an L1, at most one mid level and the
        # last level.
        return False
    configs = [level.config for level in levels]
    l1_cfg = configs[0]
    if l1_cfg.physical_dims == 2:
        return False
    if l1_cfg.logical_dims == 1:
        # The 1P1L chain: every level 1-D, only the last prefetching
        # (the baseline trains its prefetcher at the LLC).
        return all(cfg.logical_dims == 1 and not cfg.dynamic_orientation
                   for cfg in configs) \
            and not any(cfg.prefetcher.enabled for cfg in configs[:-1])
    for pos, cfg in enumerate(configs[1:], 1):
        # Orientation prediction only exists on the CPU-facing scalar
        # paths of a 1P2L L1.  A 2P2L block store is covered only as
        # the last level: there its CPU-facing ``access`` path
        # (Design 3) is never exercised, so the flat mirror only needs
        # the inter-level protocol.
        if cfg.dynamic_orientation:
            return False
        if cfg.physical_dims == 2 and pos != len(configs) - 1:
            return False
    return True


class _KernelDisabled:
    """Context manager forcing the object path (the reference model).

    Restores the *prior* state on exit no matter how the block ends
    (exception, assertion failure, ``pytest.fail``), so a failing bench
    or test cannot leak the pin into later tests.  Unlike the previous
    generator-based implementation, an instance that is garbage
    collected without a clean ``__exit__`` (e.g. a bench fixture torn
    down mid-block) still restores via ``__del__``, each instance nests
    correctly, and entering twice is rejected instead of silently
    saving the wrong prior state.
    """

    __slots__ = ("_prior",)

    def __init__(self) -> None:
        self._prior = None

    def __enter__(self) -> "_KernelDisabled":
        global KERNEL_ENABLED
        if self._prior is not None:
            raise RuntimeError("kernel_disabled() context entered "
                               "twice; create a fresh one per block")
        self._prior = KERNEL_ENABLED
        KERNEL_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def __del__(self) -> None:
        self._restore()

    def _restore(self) -> None:
        global KERNEL_ENABLED
        if self._prior is not None:
            KERNEL_ENABLED = self._prior
            self._prior = None


def kernel_disabled() -> _KernelDisabled:
    """Force the object path within a ``with`` block."""
    return _KernelDisabled()


@lru_cache(maxsize=1)
def intile_tables():
    """In-tile decode tables, built once (the geometry is fixed).

    Indexed by ``orientation << 6 | in_tile_word`` where
    ``in_tile_word`` is the word's six low address bits (row ``r`` in
    bits 3-5, column ``c`` in bits 0-2):

    * ``line_index``: the in-tile index of the oriented line holding
      the word (``r`` for row lines, ``c`` for column lines);
    * ``word_offset``: the word's position 0-7 *within* that oriented
      line (``c`` for row lines, ``r`` for column lines) — equally the
      in-tile index of the perpendicular line through the word.
    """
    line_index = array("B", bytes(128))
    word_offset = array("B", bytes(128))
    for orient in (0, 1):
        for word in range(64):
            r, c = word >> 3, word & 7
            key = (orient << 6) | word
            line_index[key] = c if orient else r
            word_offset[key] = r if orient else c
    return line_index, word_offset


@lru_cache(maxsize=1)
def _np_intile_tables():
    """The in-tile decode tables as uint64 numpy arrays."""
    line_index, word_offset = intile_tables()
    return (_np.frombuffer(line_index, dtype=_np.uint8).astype(_np.uint64),
            _np.frombuffer(word_offset, dtype=_np.uint8).astype(_np.uint64))


def _predecode_2l(words):
    """Decode a packed trace for the 2-D fused loop in one pass.

    Returns ``(packed, demand)``: one Python int per request holding
    ``line << 7 | demand_idx << 4 | perp_low`` (``perp_low`` being the
    perpendicular line's low four bits — orientation bit plus in-tile
    offset), and the 8-bin demand histogram.  The replay loop then
    dispatches on two shifts per request instead of re-slicing the
    trace word, and skips demand accounting entirely.

    With numpy available the whole pass runs vectorized; the fallback
    pays the same per-word bit-slicing the loop used to inline.
    """
    if _np is not None:
        li_tab, wo_tab = _np_intile_tables()
        w = _np.frombuffer(words, dtype=_np.uint64)
        orient = (w >> _np.uint64(18)) & _np.uint64(1)
        key = (orient << _np.uint64(6)) | ((w >> _np.uint64(19))
                                           & _np.uint64(63))
        line = (((w >> _np.uint64(25)) << _np.uint64(4))
                | (orient << _np.uint64(3)) | li_tab[key])
        didx = ((orient << _np.uint64(2))
                | ((w >> _np.uint64(16)) & _np.uint64(3)))
        perp_low = (((orient ^ _np.uint64(1)) << _np.uint64(3))
                    | wo_tab[key])
        packed = (line << _np.uint64(7)) | (didx << _np.uint64(4)) \
            | perp_low
        demand = _np.bincount(didx, minlength=8)[:8].tolist()
        return packed.tolist(), demand
    line_index_tab, word_offset_tab = intile_tables()
    packed = []
    append = packed.append
    demand = [0] * 8
    last_meta = -1
    orient_bits = obase = didx_bits = 0
    other_orient_bits = 8
    for w in words:
        m = w & 0x7FFFF
        if m != last_meta:
            last_meta = m
            orient = (m >> 18) & 1
            orient_bits = orient << 3
            other_orient_bits = (orient ^ 1) << 3
            obase = orient << 6
            didx_bits = (((orient << 2) | ((m >> 16) & 3))) << 4
        w6 = (w >> 19) & 63
        line = ((w >> 25) << 4) | orient_bits \
            | line_index_tab[obase | w6]
        demand[didx_bits >> 4] += 1
        append((line << 7) | didx_bits | other_orient_bits
               | word_offset_tab[obase | w6])
    return packed, demand


def _predecode_1l(words):
    """Decode a packed trace for the 1-D fused loop in one pass.

    Returns ``(packed, demand)`` with one int per request holding
    ``line << 5 | mode << 3 | word_offset``, plus the 4-bin demand
    histogram.  Raises on any column-preference request (1P1L traces
    must be generated with ``logical_dims=1``).
    """
    if _np is not None:
        w = _np.frombuffer(words, dtype=_np.uint64)
        if bool(((w >> _np.uint64(18)) & _np.uint64(1)).any()):
            raise SimulationError(_COLUMN_ON_1L)
        line = (((w >> _np.uint64(25)) << _np.uint64(4))
                | ((w >> _np.uint64(22)) & _np.uint64(7)))
        mode = (w >> _np.uint64(16)) & _np.uint64(3)
        packed = ((line << _np.uint64(5)) | (mode << _np.uint64(3))
                  | ((w >> _np.uint64(19)) & _np.uint64(7)))
        demand = _np.bincount(mode, minlength=4)[:4].tolist()
        return packed.tolist(), demand
    packed = []
    append = packed.append
    demand = [0] * 4
    last_meta = -1
    mode_bits = 0
    for w in words:
        m = w & 0x7FFFF
        if m != last_meta:
            last_meta = m
            if m & (1 << 18):
                raise SimulationError(_COLUMN_ON_1L)
            mode_bits = ((m >> 16) & 3) << 3
        demand[mode_bits >> 3] += 1
        line = ((w >> 25) << 4) | ((w >> 22) & 7)
        append((line << 5) | mode_bits | ((w >> 19) & 7))
    return packed, demand


class _FlatPredictor:
    """Flat-array mirror of :class:`OrientationPredictor`.

    The object predictor keeps a dict of per-reference dataclasses and
    relies on dict insertion order for FIFO table eviction.  Entries
    are never re-inserted (state mutates in place), so first-touch
    order *is* the FIFO order, and a circular slot cursor reproduces
    it exactly: the table fills slots ``0..capacity-1`` in first-touch
    order, then each eviction frees the slot under the cursor (always
    the oldest live entry) and installs the newcomer there.

    Counter cells are shared with the object predictor
    (:meth:`OrientationPredictor.counter_cells`), so a kernel replay
    leaves bit-identical predictor statistics.
    """

    __slots__ = (
        "slot_of", "refs", "last_row", "last_col", "counter",
        "capacity", "size", "head", "threshold", "saturation",
        "c_table_evictions", "c_static_fallbacks", "c_predictions",
        "c_overrides",
    )

    def __init__(self, predictor) -> None:
        capacity = predictor.capacity
        self.capacity = capacity
        self.threshold = predictor.threshold
        self.saturation = predictor.saturation
        self.slot_of: Dict[int, int] = {}
        self.refs: List[int] = [0] * capacity
        self.last_row: List[int] = [-1] * capacity
        self.last_col: List[int] = [-1] * capacity
        self.counter: List[int] = [0] * capacity
        self.size = 0
        self.head = 0
        (self.c_table_evictions, self.c_static_fallbacks,
         self.c_predictions, self.c_overrides) = predictor.counter_cells

    def predict_span(self, words, packed, start: int, stop: int) -> None:
        """Train on the scalar requests of ``packed[start:stop]`` in
        program order, rewriting each one the prediction overrides.

        Mirrors ``OrientationPredictor.observe_and_predict`` once per
        scalar request: the reference id is the trace word's low 16
        bits, the row and column lines come from the predecoded
        request, and orientations are line-id bits (row=0 / column=1).
        An override makes the predicted line the request's line and
        the static line its perpendicular, keeping the demand index
        (the object path counts demand before predicting), so the
        replay loop probes and fills the predicted orientation.  The
        predictor never reads cache state, so training a span before
        replaying it is exact; the counter cells move once per span,
        before a sampler reads them.
        """
        slot_of = self.slot_of
        refs = self.refs
        last_row = self.last_row
        last_col = self.last_col
        counters = self.counter
        capacity = self.capacity
        threshold = self.threshold
        saturation = self.saturation
        size = self.size
        head = self.head
        n_evictions = n_fallbacks = n_predictions = n_overrides = 0
        for i in range(start, stop):
            p = packed[i]
            if p & 0x20:  # vector: its lane layout fixes the orientation
                continue
            line = p >> 7
            other = (line & -16) | (p & 15)
            static_bit = (line >> 3) & 1
            if static_bit:
                row_line, col_line = other, line
            else:
                row_line, col_line = line, other
            ref = words[i] & 0xFFFF
            slot = slot_of.get(ref)
            if slot is None:
                if size >= capacity:
                    slot = head
                    del slot_of[refs[slot]]
                    n_evictions += 1
                    head = slot + 1 if slot + 1 < capacity else 0
                else:
                    slot = size
                    size += 1
                slot_of[ref] = slot
                refs[slot] = ref
                ctr = 0  # a fresh entry has no previous lines to match
            else:
                ctr = counters[slot]
                same_row = row_line == last_row[slot]
                same_col = col_line == last_col[slot]
                if same_col and not same_row:
                    if ctr < saturation:
                        ctr += 1
                elif same_row and not same_col:
                    if ctr > -saturation:
                        ctr -= 1
            counters[slot] = ctr
            last_row[slot] = row_line
            last_col[slot] = col_line
            if ctr >= threshold:
                prediction = 1
            elif ctr <= -threshold:
                prediction = 0
            else:
                n_fallbacks += 1
                continue
            n_predictions += 1
            if prediction != static_bit:
                n_overrides += 1
                packed[i] = (other << 7) | (p & 0x70) | (line & 15)
        self.size = size
        self.head = head
        self.c_table_evictions.value += n_evictions
        self.c_static_fallbacks.value += n_fallbacks
        self.c_predictions.value += n_predictions
        self.c_overrides.value += n_overrides


class _FlatStore:
    """One level's flat state: LRU sets and a private MSHR mirror.

    ``sets[s]`` is set ``s``'s ``OrderedDict`` (resident key -> value,
    oldest first) and ``slot_of`` maps every resident key to its set's
    ``OrderedDict`` (layout in the module docstring).  The MSHR mirror
    reproduces :class:`MshrFile` exactly (same retirement set, same
    counter cells): each in-flight fill is one ``(completion, line,
    serving level)`` tuple, held both in ``pending`` (keyed by line)
    and in ``pending_heap``, so retirement pops the heap and a
    full-file stall reads its head.  The span loops run this state
    inline; the methods serve the rarer paths.
    """

    __slots__ = (
        "cfg", "level_index", "num_sets", "assoc", "tag_latency",
        "data_latency", "hit_latency", "sets", "slot_of", "ready_at",
        "lower", "demand_cells", "pending", "pending_heap",
        "mshr_capacity", "c_ordering_blocks",
        "c_full_stalls", "c_allocations", "c_hits", "c_misses",
        "c_fetch_requests", "c_tag_probes", "c_mshr_coalesced",
        "c_fills", "c_early_hit_waits",
    )

    def __init__(self, level) -> None:
        cfg = level.config
        self.cfg = cfg
        self.level_index = level.level_index
        self.num_sets = cfg.num_sets
        self.assoc = cfg.assoc
        self.tag_latency = cfg.tag_latency
        self.data_latency = cfg.data_latency
        self.hit_latency = cfg.hit_latency
        self.sets: List[OrderedDict] = [OrderedDict()
                                        for _ in range(cfg.num_sets)]
        self.slot_of: Dict[int, OrderedDict] = {}
        self.ready_at: Dict[int, int] = {}
        self.lower = None
        self.demand_cells = level._demand_cells
        mshr = level.mshr
        self.pending: Dict[int, Tuple[int, int, int]] = {}
        self.pending_heap: List[Tuple[int, int, int]] = []
        self.mshr_capacity = mshr.capacity
        self.c_ordering_blocks = mshr._c_ordering_blocks
        self.c_full_stalls = mshr._c_full_stalls
        self.c_allocations = mshr._c_allocations
        stats = level.stats
        self.c_hits = stats.counter("hits")
        self.c_misses = stats.counter("misses")
        self.c_fetch_requests = stats.counter("fetch_requests")
        self.c_tag_probes = stats.counter("tag_probes")
        self.c_mshr_coalesced = stats.counter("mshr_coalesced")
        self.c_fills = stats.counter("fills")
        self.c_early_hit_waits = stats.counter("early_hit_waits")

    def _data_ready(self, line: int, now: int) -> int:
        """Earliest cycle a hit on ``line`` returns data
        (``CacheLevel._data_ready``)."""
        ready = self.ready_at.get(line)
        if ready is None:
            return now
        if ready <= now:
            del self.ready_at[line]
            return now
        self.c_early_hit_waits.value += 1
        return ready

    # -- MSHR mirror ---------------------------------------------------------
    #
    # Retirement is eager, as in the object path: a lower level runs at
    # its upper level's issue times, which are not monotonic (a
    # barrier- or stall-raised issue can precede a later call's smaller
    # clock), and the object's retirement is permanent at the
    # high-water mark.  The heap head gates every sweep, so it is O(1)
    # when nothing can have retired.

    def _mshr_retire(self, now: int) -> None:
        """``MshrFile.retire_completed``: pop every fill that completes
        at or before ``now``."""
        heap = self.pending_heap
        pending = self.pending
        while heap and heap[0][0] <= now:
            del pending[heappop(heap)[1]]

    def _mshr_insert(self, line: int, completion: int, level: int) -> None:
        """Reserve + record an entry (``allocate`` then ``record``)."""
        entry = (completion, line, level)
        self.pending[line] = entry
        heappush(self.pending_heap, entry)
        self.c_allocations.value += 1
        self.c_fills.value += 1

    def _mshr_stall(self, issue: int) -> int:
        """Full-file structural stalls: while the file is full, the
        fill waits for the earliest outstanding one to retire."""
        pending = self.pending
        heap = self.pending_heap
        while len(pending) >= self.mshr_capacity:
            stall_until = heap[0][0]
            if stall_until > issue:
                issue = stall_until
            self.c_full_stalls.value += 1
            self._mshr_retire(stall_until)
        return issue

    def _mshr_admit(self, line: int, now: int) -> int:
        """Issue time of a fresh fill of ``line`` at ``now``; a 1-D
        level never orders, so only full-file stalls delay it."""
        return self._mshr_stall(now)

    def _fetch_below(self, line: int, now: int, width):
        """``CacheLevel._fetch_below`` over the MSHR mirror: coalesce
        with an in-flight fill, or admit, fetch below and record."""
        self._mshr_retire(now)
        entry = self.pending.get(line)
        if entry is not None:
            # Retirement at ``now`` left only fills completing later.
            self.c_mshr_coalesced.value += 1
            return entry[0], entry[2]
        issue = self._mshr_admit(line, now)
        completion, level = self.lower.fetch_line(line, issue, width)
        self._mshr_insert(line, completion, level)
        return completion, level


class _OrderedStore(_FlatStore):
    """A logically 2-D level: its MSHR mirror also orders fills.

    ``pending_tiles`` counts in-flight fills per (tile, orientation)
    key, so the 2-D ordering barrier (perpendicular outstanding fills
    of the same tile hold a new one back) is skipped outright when no
    perpendicular fill is outstanding.
    """

    __slots__ = ("pending_tiles",)

    def __init__(self, level) -> None:
        super().__init__(level)
        self.pending_tiles: Dict[int, int] = {}

    def _mshr_retire(self, now: int) -> None:
        heap = self.pending_heap
        pending = self.pending
        tiles = self.pending_tiles
        while heap and heap[0][0] <= now:
            line = heappop(heap)[1]
            del pending[line]
            key = line >> 3
            count = tiles[key] - 1
            if count:
                tiles[key] = count
            else:
                del tiles[key]

    def _mshr_insert(self, line: int, completion: int, level: int) -> None:
        _FlatStore._mshr_insert(self, line, completion, level)
        key = line >> 3
        self.pending_tiles[key] = self.pending_tiles.get(key, 0) + 1

    def _mshr_admit(self, line: int, now: int) -> int:
        """The ordering barrier, then the full-file stalls
        (``MshrFile.fetch_slot(..., ordered=True)`` past its coalesce
        check)."""
        issue = now
        perp_key = (line >> 3) ^ 1
        if self.pending_tiles.get(perp_key):
            c_blocks = self.c_ordering_blocks
            for other, entry in self.pending.items():
                if other >> 3 == perp_key:
                    if entry[0] > issue:
                        issue = entry[0]
                    c_blocks.value += 1
            if issue > now:
                self._mshr_retire(issue)
        return self._mshr_stall(issue)


class _Kernel2L(_OrderedStore):
    """Flat-store mirror of :class:`repro.cache.cache_1p2l.Cache1P2L`."""

    __slots__ = (
        "same_set", "data_write_latency", "tile_count", "c_misoriented",
        "c_writebacks_in", "c_writebacks_out", "c_duplicate_cleans",
        "c_evictions", "c_duplicate_evictions",
    )

    def __init__(self, level) -> None:
        super().__init__(level)
        cfg = self.cfg
        self.same_set = cfg.mapping == "same_set"
        self.data_write_latency = cfg.data_latency \
            + cfg.write_extra_latency
        self.tile_count: Dict[int, int] = {}
        stats = level.stats
        self.c_misoriented = stats.counter("misoriented_hits")
        self.c_writebacks_in = stats.counter("writebacks_in")
        self.c_writebacks_out = stats.counter("writebacks_out")
        self.c_duplicate_cleans = stats.counter("duplicate_cleans")
        self.c_evictions = stats.counter("evictions")
        self.c_duplicate_evictions = \
            stats.counter("duplicate_evictions")

    def set_of(self, line: int) -> OrderedDict:
        """The LRU set ``line`` maps to (either index mapping)."""
        if self.same_set:
            number = line >> 4
        else:
            number = (line >> 4) + (line & 7)
        return self.sets[number % self.num_sets]

    def orientation_occupancy(self):
        """(row, column) resident lines: ``tile_count`` keys carry the
        orientation in their low bit."""
        cols = sum(count for key, count in self.tile_count.items()
                   if key & 1)
        return len(self.slot_of) - cols, cols

    # -- CPU-facing tails (the fused loop handles the plain hits) ------------

    def scalar_read_tail(self, preferred: int, other: int, now: int):
        """``_scalar_read`` after the preferred-orientation probe missed."""
        self.c_tag_probes.value += 2
        lru = self.slot_of.get(other)
        if lru is not None:
            self.c_misoriented.value += 1
            lru.move_to_end(other)
            return (self._data_ready(other, now) + self.hit_latency
                    + self.tag_latency, self.level_index)
        completion, level = self.fill_line(
            preferred, now + 2 * self.tag_latency, _SCALAR)
        return completion + self.data_latency, level

    def scalar_write_tail(self, preferred: int, other: int,
                          pref_bit: int, other_bit: int, now: int):
        """Full ``_scalar_write`` mirror (miss, or duplicate present)."""
        self.c_tag_probes.value += 2
        probe_cost = 2 * self.tag_latency
        slots = self.slot_of
        lru = slots.get(preferred)
        if lru is not None:
            if other in slots:
                self.evict_line(other, now, duplicate=True)
            lru[preferred] |= pref_bit
            lru.move_to_end(preferred)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        lru = slots.get(other)
        if lru is not None:
            self.c_misoriented.value += 1
            lru[other] |= other_bit
            lru.move_to_end(other)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        completion, level = self.fill_line(preferred, now + probe_cost,
                                           _SCALAR)
        slots[preferred][preferred] |= pref_bit
        return completion + self.data_write_latency, level

    def vector_write_tail(self, line: int, now: int):
        """Full ``_vector_write`` mirror (miss, or duplicates present)."""
        self.c_tag_probes.value += 9
        probe_cost = 9 * self.tag_latency
        slots = self.slot_of
        if self.tile_count.get((line >> 3) ^ 1):
            base_perp = (line & -16) | ((line & 8) ^ 8)
            for k in range(8):
                if base_perp | k in slots:
                    self.evict_line(base_perp | k, now, duplicate=True)
        lru = slots.get(line)
        if lru is not None:
            lru[line] = 0xFF
            lru.move_to_end(line)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        completion, level = self.fill_line(line, now + probe_cost,
                                           _VECTOR)
        slots[line][line] = 0xFF
        return completion + self.data_write_latency, level

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line: int, now: int, width):
        self.c_fetch_requests.value += 1
        self.c_tag_probes.value += 1
        lru = self.slot_of.get(line)
        if lru is not None:
            lru.move_to_end(line)
            return (self._data_ready(line, now) + self.hit_latency,
                    self.level_index)
        completion, level = self.fill_line(line, now + self.tag_latency,
                                           width)
        return completion + self.data_latency, level

    def writeback_line(self, line: int, dirty_mask: int, now: int) -> int:
        self.c_writebacks_in.value += 1
        self.c_tag_probes.value += 2
        slots = self.slot_of
        if self.tile_count.get((line >> 3) ^ 1):
            base_perp = (line & -16) | ((line & 8) ^ 8)
            for offset in range(8):
                if dirty_mask & (1 << offset) \
                        and base_perp | offset in slots:
                    self.evict_line(base_perp | offset, now,
                                    duplicate=True)
            self.clean_intersecting(line, now)
        lru = slots.get(line)
        if lru is not None:
            lru[line] |= dirty_mask
            lru.move_to_end(line)
        else:
            self.install(line, now, dirty_mask)
        return now + 2 * self.tag_latency

    # -- internals ----------------------------------------------------------

    def clean_intersecting(self, line: int, now: int) -> None:
        """Fig. 9 "read to duplicate": flush dirty crossings first.

        Callers gate on ``tile_count`` holding perpendicular residents,
        so this always scans.  Cleaning leaves LRU order alone.
        """
        slots_get = self.slot_of.get
        bit = 1 << (line & 7)
        base_perp = (line & -16) | ((line & 8) ^ 8)
        for k in range(8):
            perp = base_perp | k
            lru = slots_get(perp)
            if lru is None:
                continue
            mask = lru[perp]
            if mask & bit:
                self.lower.writeback_line(perp, mask, now)
                lru[perp] = 0
                self.c_duplicate_cleans.value += 1

    def fill_line(self, line: int, now: int, width):
        """Clean crossings, fetch through the MSHR, install
        (``Cache1P2L._fill_line``); the span loop inlines this for
        the vector-read miss."""
        if self.tile_count.get((line >> 3) ^ 1):
            self.clean_intersecting(line, now)
        completion, level = self._fetch_below(line, now, width)
        self.install(line, completion, 0)
        ready = completion + self.data_latency
        if ready > now:
            self.ready_at[line] = ready
        return completion, level

    def install(self, line: int, now: int, dirty_mask: int) -> None:
        lru = self.set_of(line)
        if len(lru) >= self.assoc:
            victim, mask = lru.popitem(last=False)
            del self.slot_of[victim]
            self._evicted(victim, mask, now, duplicate=False)
        lru[line] = dirty_mask
        self.slot_of[line] = lru
        key = line >> 3
        self.tile_count[key] = self.tile_count.get(key, 0) + 1

    def evict_line(self, line: int, now: int, duplicate: bool) -> None:
        mask = self.slot_of.pop(line).pop(line)
        self._evicted(line, mask, now, duplicate)

    def _evicted(self, line: int, mask: int, now: int,
                 duplicate: bool) -> None:
        """Count a line that just left its set; write back its dirty
        words."""
        key = line >> 3
        count = self.tile_count[key] - 1
        if count:
            self.tile_count[key] = count
        else:
            del self.tile_count[key]
        if duplicate:
            self.c_duplicate_evictions.value += 1
        else:
            self.c_evictions.value += 1
        if mask:
            self.c_writebacks_out.value += 1
            self.lower.writeback_line(line, mask, now)


class _Kernel1L(_FlatStore):
    """Flat-store mirror of :class:`repro.cache.cache_1p1l.Cache1P1L`.

    The span loop serves every demand access inline; a prefetching
    LLC keeps its stride prefetcher's one table entry (reference 0:
    the LLC trains on the miss stream) as three ints — last address
    ``pf_last`` (-1 before the first observation), ``pf_stride`` and
    ``pf_confidence`` — which the loop trains and :meth:`prefetch`
    acts on.
    """

    __slots__ = (
        "write_latency", "prefetch_enabled", "prefetch_degree",
        "prefetch_threshold", "prefetch_stats", "pf_last", "pf_stride",
        "pf_confidence", "c_prefetch_fills", "c_writebacks_in",
        "c_writebacks_out", "c_evictions",
    )

    def __init__(self, level) -> None:
        super().__init__(level)
        cfg = self.cfg
        self.write_latency = cfg.hit_latency + cfg.write_extra_latency
        self.prefetch_enabled = cfg.prefetcher.enabled
        self.prefetch_degree = cfg.prefetcher.degree
        self.prefetch_threshold = cfg.prefetcher.train_threshold
        # The object prefetcher's group: ``prefetches_generated``
        # appears in it exactly when the object path first adds to it.
        self.prefetch_stats = level.prefetcher._stats
        self.pf_last = -1
        self.pf_stride = 0
        self.pf_confidence = 0
        stats = level.stats
        self.c_prefetch_fills = stats.counter("prefetch_fills")
        self.c_writebacks_in = stats.counter("writebacks_in")
        self.c_writebacks_out = stats.counter("writebacks_out")
        self.c_evictions = stats.counter("evictions")

    def orientation_occupancy(self):
        """(row, column) resident lines; a 1-D level holds rows only."""
        return len(self.slot_of), 0

    def writeback_line(self, line: int, dirty_mask: int, now: int) -> int:
        self.c_writebacks_in.value += 1
        self.c_tag_probes.value += 1
        lru = self.slot_of.get(line)
        if lru is not None:
            lru[line] |= dirty_mask
            lru.move_to_end(line)
        else:
            self.install(line, now, dirty_mask)
        return now + self.tag_latency

    def install(self, line: int, now: int, dirty_mask: int) -> None:
        # Dense row-line number (tile << 3 | index), as the object path.
        lru = self.sets[(((line >> 4) << 3) | (line & 7)) % self.num_sets]
        if len(lru) >= self.assoc:
            victim, mask = lru.popitem(last=False)
            del self.slot_of[victim]
            self.c_evictions.value += 1
            if mask:
                self.c_writebacks_out.value += 1
                self.lower.writeback_line(victim, mask, now)
        lru[line] = dirty_mask
        self.slot_of[line] = lru

    def prefetch(self, addr: int, stride: int, now: int) -> None:
        """The prefetcher's burst after a confirmed ``stride`` at
        ``addr`` (``StridePrefetcher.observe`` past training, then
        ``_train_stream_prefetcher``'s fills).

        ``addr`` is a line base address, so the stride is a nonzero
        multiple of the line size and the ``degree`` targets are
        distinct lines.  A target already resident or in flight is
        skipped; the rest are fetched and installed clean.
        """
        generated = 0
        slots = self.slot_of
        for k in range(1, self.prefetch_degree + 1):
            target = addr + k * stride
            if target < 0:
                break
            generated += 1
            line = ((target >> 9) << 4) | ((target >> 6) & 7)
            if line in slots:
                continue
            self._mshr_retire(now)
            if line in self.pending:
                continue
            completion, _ = self._fetch_below(line, now, _VECTOR)
            self.install(line, completion, 0)
            done = completion + self.data_latency
            if done > now:
                self.ready_at[line] = done
            self.c_prefetch_fills.value += 1
        self.prefetch_stats.add("prefetches_generated", generated)


class _Kernel2P2L(_OrderedStore):
    """Flat-store mirror of :class:`repro.cache.cache_2p2l.Cache2P2L`.

    One LRU entry per resident 512-byte 2-D block, keyed by tile id.
    Its value packs the block's per-line state in the
    :func:`repro.cache.cache_2p2l.pack_block_word` layout: presence in
    bits 0-15 and dirtiness in bits 16-31, bit ``line & 15`` of each
    (rows in the low byte, columns in the high byte).  Presence gates
    sparse fills and cross-direction hits; the dirty word drives
    per-line writeback accounting on eviction.  Covered only as the
    last level, so only the inter-level protocol (``fetch_line`` /
    ``writeback_line``) is mirrored; the Design 3 ``access`` path
    stays on the object path.
    """

    __slots__ = (
        "sparse", "write_extra", "c_cross_direction_hits",
        "c_partial_block_hits", "c_writebacks_in", "c_writebacks_out",
        "c_dense_fill_lines", "c_evictions",
    )

    def __init__(self, level) -> None:
        super().__init__(level)
        cfg = self.cfg
        self.sparse = cfg.sparse_fill
        self.write_extra = cfg.write_extra_latency
        stats = level.stats
        self.c_cross_direction_hits = \
            stats.counter("cross_direction_hits")
        self.c_partial_block_hits = stats.counter("partial_block_hits")
        self.c_writebacks_in = stats.counter("writebacks_in")
        self.c_writebacks_out = stats.counter("writebacks_out")
        self.c_dense_fill_lines = stats.counter("dense_fill_lines")
        self.c_evictions = stats.counter("evictions")

    def orientation_occupancy(self):
        """(row, column) present lines over the resident blocks."""
        rows = cols = 0
        for tile, lru in self.slot_of.items():
            word = lru[tile]
            rows += (word & 0xFF).bit_count()
            cols += (word & 0xFF00).bit_count()
        return rows, cols

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line: int, now: int, width):
        self.c_fetch_requests.value += 1
        self.c_tag_probes.value += 1
        tile = line >> 4
        lru = self.slot_of.get(tile)
        if lru is not None:
            word = lru[tile]
            bit = 1 << (line & 15)
            if word & bit:
                lru.move_to_end(tile)
                return (self._data_ready(line, now) + self.hit_latency,
                        self.level_index)
            if word & 0xFF == 0xFF or word & 0xFF00 == 0xFF00:
                # Every word is resident via the other direction; the
                # crosspoint array streams it out either way.
                lru[tile] = word | bit
                lru.move_to_end(tile)
                self.c_cross_direction_hits.value += 1
                return now + self.hit_latency, self.level_index
            self.c_partial_block_hits.value += 1
        completion, level = self._fill_block_line(
            line, now + self.tag_latency, width)
        return completion + self.data_latency, level

    def writeback_line(self, line: int, dirty_mask: int, now: int) -> int:
        self.c_writebacks_in.value += 1
        self.c_tag_probes.value += 1
        tile = line >> 4
        lru = self.slot_of.get(tile)
        if lru is None:
            lru = self._allocate(tile, now)
            if not self.sparse:
                self._fill_whole_block(lru, tile, (line >> 3) & 1, now,
                                       line & 7)
        else:
            lru.move_to_end(tile)
        bit = 1 << (line & 15)
        lru[tile] |= bit | bit << 16
        return now + self.tag_latency + self.write_extra

    # -- internals ----------------------------------------------------------

    def _fill_block_line(self, line: int, now: int, width):
        """``_fill_line_into_block``: allocate/touch, fetch, mark."""
        tile = line >> 4
        lru = self.slot_of.get(tile)
        if lru is None:
            lru = self._allocate(tile, now)
        else:
            lru.move_to_end(tile)
        completion, level = self._fetch_below(line, now, width)
        # Filling writes the crosspoint array; asymmetric technologies
        # pay their write latency here.
        completion += self.write_extra
        lru[tile] |= 1 << (line & 15)
        ready = completion + self.data_latency
        if ready > now:
            self.ready_at[line] = ready
        if not self.sparse:
            self._fill_whole_block(lru, tile, (line >> 3) & 1,
                                   completion, line & 7)
        return completion, level

    def _fill_whole_block(self, lru: OrderedDict, tile: int,
                          orient_bit: int, now: int,
                          skip_index: int) -> None:
        """Dense fill: stream the remaining lines behind the first."""
        base_line = (tile << 4) | (orient_bit << 3)
        horizon = now
        c_dense = self.c_dense_fill_lines
        for k in range(LINES_PER_TILE):
            if k == skip_index:
                continue
            horizon, _ = self._fetch_below(base_line | k, horizon,
                                           _VECTOR)
            c_dense.value += 1
        lru[tile] |= 0xFFFF

    def _allocate(self, tile: int, now: int) -> OrderedDict:
        """``_allocate_block``: evict the set's LRU block when full,
        then insert an empty block; returns the set."""
        lru = self.sets[tile % self.num_sets]
        if len(lru) >= self.assoc:
            victim, word = lru.popitem(last=False)
            del self.slot_of[victim]
            self._evict_block(victim, word >> 16, now)
        lru[tile] = 0
        self.slot_of[tile] = lru
        return lru

    def _evict_block(self, tile: int, dirty_word: int, now: int) -> None:
        """Write back every dirty line of the victim block.

        Never-filled lines have no dirty bits, so sparse blocks elide
        their writeback automatically.  Rows drain before columns,
        ascending in-tile index — the object path's exact order.
        """
        self.c_evictions.value += 1
        if dirty_word:
            writeback = self.lower.writeback_line
            c_out = self.c_writebacks_out
            base_line = tile << 4
            for k in range(16):
                if dirty_word & (1 << k):
                    c_out.value += 1
                    writeback(base_line | k, 0xFF, now)


class KernelEngine:
    """A chain of flat-store kernel levels over the hierarchy's memory.

    Built from (and sharing every statistics cell, MSHR counter and
    the tier or memory below the LLC with) an already-constructed
    :class:`CacheHierarchy` whose design :func:`supports` covers.
    """

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy
        self.levels: List[_FlatStore] = []
        for level in hierarchy.levels:
            cfg = level.config
            if cfg.physical_dims == 2:
                self.levels.append(_Kernel2P2L(level))
            elif cfg.logical_dims == 2:
                self.levels.append(_Kernel2L(level))
            else:
                self.levels.append(_Kernel1L(level))
        for upper, lower in zip(self.levels, self.levels[1:]):
            upper.lower = lower
        self.levels[-1].lower = hierarchy.port
        predictor = getattr(hierarchy.l1, "predictor", None)
        self.l1_predictor = _FlatPredictor(predictor) \
            if predictor is not None else None

    def occupancy_by_level(self) -> Dict[str, Tuple[int, int]]:
        """(row, column) line occupancy per level, read from the flat
        stores (``CacheHierarchy.occupancy_by_level``'s mirror)."""
        return {store.cfg.name: store.orientation_occupancy()
                for store in self.levels}


    def replay(self, trace, cpu_config, cpu_group, sampler=None,
               sample_every: int = 0) -> int:
        """Drive a packed trace through the kernel; returns cycles.

        Predecodes the trace once and replays it on one carried
        :class:`_SpanState`: as a single span, or, with a ``sampler``
        and ``sample_every > 0``, as spans ``[k*every, (k+1)*every)``
        with ``sampler(ops, now)`` called after each full span — the
        point where the object path's per-request check fires.  A
        dynamic-orientation L1's predictor trains on each span just
        before the span replays.  The L1 hit, miss, probe,
        tracked-miss and demand counters reach the shared cells after
        every span, so a sampler reads them as the object path leaves
        them; an unsampled replay is one span and folds them once.
        Then drains the outstanding window, runs the hierarchy's
        posted-write horizon, and sets the end-only cells (ops, cycles,
        stall cycles, latency histogram).
        """
        l1 = self.levels[0]
        words = trace.words
        predictor = self.l1_predictor
        if isinstance(l1, _Kernel2L):
            packed, demand = _predecode_2l(words)
            demand_shift = 4
            span = _replay_2l_span
        else:
            packed, demand = _predecode_1l(words)
            demand_shift = 3
            span = _replay_1l_span
        total = len(packed)
        sampling = sampler is not None and sample_every > 0
        step = sample_every if sampling else max(total, 1)
        state = _SpanState()
        for start in range(0, total, step):
            stop = min(start + step, total)
            if predictor is not None:
                predictor.predict_span(words, packed, start, stop)
            span(self, packed, start, stop, cpu_config, state)
            if sampling:
                _flush_span(cpu_group, l1, state, _span_demand(
                    packed, start, stop, demand_shift, len(demand)))
                if stop % step == 0:
                    sampler(stop, state.now)
        if not sampling:
            _flush_span(cpu_group, l1, state, demand)
        now = state.now
        window = state.window
        while window:
            earliest = heappop(window)
            if earliest > now:
                now = earliest
        horizon = self.hierarchy.finish(now)
        if horizon > now:
            now = horizon
        cpu_group.set("ops", total)
        cpu_group.set("cycles", now)
        cpu_group.set("stall_cycles", state.stalled)
        for bucket, count in enumerate(state.hist):
            if count:
                cpu_group.set(LAT_HIST_KEYS[bucket], count)
        return now


def _span_demand(packed, start, stop, shift, bins) -> List[int]:
    """The demand histogram of predecoded requests ``[start, stop)``:
    the demand index sits ``shift`` bits up in each packed int."""
    demand = [0] * bins
    mask = bins - 1
    for request in packed[start:stop]:
        demand[(request >> shift) & mask] += 1
    return demand


def _flush_span(cpu_group, l1, state, demand) -> None:
    """Fold one span's L1 counters, tracked misses and ``demand`` into
    the shared cells, and zero the carried counters."""
    cpu_group.counter("read_misses_tracked").value += state.n_tracked
    l1.c_hits.value += state.n_hits
    l1.c_misses.value += state.n_misses
    l1.c_tag_probes.value += state.n_probes
    state.n_hits = state.n_misses = state.n_probes = state.n_tracked = 0
    cells = l1.demand_cells
    for index, count in enumerate(demand):
        if count:
            for cell in cells[index]:
                cell.value += count


class _SpanState:
    """Carried state of one ranged fused replay.

    One instance spans one logical replay: the clock, the cumulative
    stall cycles, the outstanding-read heap, the latency histogram,
    and the loop-local counters :func:`_flush_span` folds into the
    shared cells.  :meth:`KernelEngine.replay` threads it through
    every span.
    """

    __slots__ = ("now", "stalled", "window", "hist", "n_hits",
                 "n_misses", "n_probes", "n_tracked")

    def __init__(self) -> None:
        self.now = 0
        self.stalled = 0
        self.window: List[int] = []
        self.hist = [0] * len(LAT_HIST_KEYS)
        self.n_hits = 0
        self.n_misses = 0
        self.n_probes = 0
        self.n_tracked = 0


def _replay_2l_span(engine: KernelEngine, packed, start, stop,
                    cpu_config, state) -> None:
    """Replay predecoded requests ``[start, stop)``, carrying ``state``.

    Serves every 2-D L1, static or dynamic: on a dynamic-orientation
    L1, :meth:`_FlatPredictor.predict_span` has already rewritten the
    span's overridden scalar requests to their predicted lines.  One
    function, local-variable bindings only: the four request modes
    dispatch on two packed-word bits and the plain hits complete
    inline.  A vector-read miss — the dominant miss — runs the L1's
    ``fill_line`` and the ``fetch_line``/``fill_line`` bodies of the
    mid level (absent in the resident two-level shape) and of a 1P2L
    LLC inline, MSHR mirrors included; a 2P2L LLC serves it through
    its methods.  Scalar misses, vector writes and duplicate-copy
    cases drop into the L1's tail methods.  The cache state and the
    fill-path counter cells are exact after every call (the inlined
    accumulators fold on exit), but the L1 hit/miss/probe counts and
    tracked misses ride in ``state`` until :func:`_flush_span` folds
    them, with the span's demand counts, before the sampler runs; the
    latency histogram stays in ``state`` until the replay ends, as the
    object path's does.
    """
    levels = engine.levels
    l1 = levels[0]
    mid = levels[1] if len(levels) == 3 else None
    llc = levels[-1]
    now = state.now
    stalled = state.stalled
    window = state.window
    hist = state.hist
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    pipelined = l1.hit_latency + 3 * l1.tag_latency
    hit_latency = l1.hit_latency
    swrite_latency = 2 * l1.tag_latency + l1.data_write_latency
    vwrite_latency = 9 * l1.tag_latency + l1.data_write_latency
    hb_hit = hit_latency.bit_length()
    hb_sw = swrite_latency.bit_length()
    hb_vw = vwrite_latency.bit_length()
    scalar_read_tail = l1.scalar_read_tail
    scalar_write_tail = l1.scalar_write_tail
    vector_write_tail = l1.vector_write_tail
    vector = _VECTOR
    lvl1 = l1.level_index
    # The L1's flat state and MSHR mirror.
    slots = l1.slot_of
    slots_get = slots.get
    sets = l1.sets
    num_sets = l1.num_sets
    assoc = l1.assoc
    same_set = l1.same_set
    tile_count = l1.tile_count
    tile_get = tile_count.get
    ready_at = l1.ready_at
    ready_get = ready_at.get
    c_early = l1.c_early_hit_waits
    data_latency = l1.data_latency
    vprobe_cost = 9 * l1.tag_latency
    clean = l1.clean_intersecting
    pending = l1.pending
    pending_get = pending.get
    ptiles = l1.pending_tiles
    ptiles_get = ptiles.get
    heap = l1.pending_heap
    cap = l1.mshr_capacity
    admit = l1._mshr_admit
    stall = l1._mshr_stall
    writeback = l1.lower.writeback_line
    c_coal = l1.c_mshr_coalesced
    c_wb_out = l1.c_writebacks_out
    n_fills = n_evict = 0
    has_mid = mid is not None
    if has_mid:
        m_slots = mid.slot_of
        m_slots_get = m_slots.get
        m_sets = mid.sets
        m_num_sets = mid.num_sets
        m_assoc = mid.assoc
        m_same_set = mid.same_set
        m_tile_count = mid.tile_count
        m_tile_get = m_tile_count.get
        m_ready = mid.ready_at
        m_ready_get = m_ready.get
        m_hit = mid.hit_latency
        m_tag = mid.tag_latency
        m_data = mid.data_latency
        m_level = mid.level_index
        m_clean = mid.clean_intersecting
        m_pending = mid.pending
        m_pending_get = m_pending.get
        m_ptiles = mid.pending_tiles
        m_ptiles_get = m_ptiles.get
        m_heap = mid.pending_heap
        m_cap = mid.mshr_capacity
        m_admit = mid._mshr_admit
        m_stall = mid._mshr_stall
        m_writeback = llc.writeback_line
        m_c_early = mid.c_early_hit_waits
        m_c_coal = mid.c_mshr_coalesced
        m_c_wb_out = mid.c_writebacks_out
    m_fetches = m_fills = m_evict = 0
    llc_flat = isinstance(llc, _Kernel2L)
    if llc_flat:
        l_slots = llc.slot_of
        l_slots_get = l_slots.get
        l_sets = llc.sets
        l_num_sets = llc.num_sets
        l_assoc = llc.assoc
        l_same_set = llc.same_set
        l_tile_count = llc.tile_count
        l_tile_get = l_tile_count.get
        l_ready = llc.ready_at
        l_ready_get = l_ready.get
        l_hit = llc.hit_latency
        l_tag = llc.tag_latency
        l_data = llc.data_latency
        l_level = llc.level_index
        l_clean = llc.clean_intersecting
        l_pending = llc.pending
        l_pending_get = l_pending.get
        l_ptiles = llc.pending_tiles
        l_ptiles_get = l_ptiles.get
        l_heap = llc.pending_heap
        l_cap = llc.mshr_capacity
        l_admit = llc._mshr_admit
        l_stall = llc._mshr_stall
        port_fetch = llc.lower.fetch_line
        l_writeback = llc.lower.writeback_line
        l_c_early = llc.c_early_hit_waits
        l_c_coal = llc.c_mshr_coalesced
        l_c_wb_out = llc.c_writebacks_out
    else:
        llc_fetch = llc.fetch_line
    l_fetches = l_fills = l_evict = 0
    n_hits = n_misses = n_probes = n_tracked = 0
    if start == 0 and stop >= len(packed):
        span = packed
    else:
        span = packed[start:stop]
    for p in span:
        line = p >> 7
        mode = (p >> 4) & 3  # is_write | width << 1
        now += issue_cost
        if mode == 2:  # vector read
            lru = slots_get(line)
            if lru is not None:
                n_probes += 1
                n_hits += 1
                lru.move_to_end(line)
                ready = ready_get(line)
                if ready is None:
                    hist[hb_hit] += 1
                    continue
                if ready <= now:
                    del ready_at[line]
                    hist[hb_hit] += 1
                    continue
                c_early.value += 1
                latency = ready + hit_latency - now
            else:
                # The vector-read miss: nine probes, then the L1's
                # fill_line with the chain below it inlined.
                n_probes += 9
                fnow = now + vprobe_cost
                tkey = line >> 3
                perp_key = tkey ^ 1
                if tile_get(perp_key):
                    clean(line, fnow)
                while heap and heap[0][0] <= fnow:
                    done = heappop(heap)[1]
                    del pending[done]
                    key = done >> 3
                    count = ptiles[key] - 1
                    if count:
                        ptiles[key] = count
                    else:
                        del ptiles[key]
                entry = pending_get(line)
                if entry is not None:
                    c_coal.value += 1
                    completion = entry[0]
                    level = entry[2]
                else:
                    issue = fnow
                    if ptiles_get(perp_key):
                        issue = admit(line, fnow)
                    elif len(pending) >= cap:
                        issue = stall(fnow)
                    # The mid level's fetch_line: a hit completes
                    # here, a miss runs its fill_line around the LLC
                    # stage below (``llc_at`` < 0: no LLC fetch).
                    llc_at = issue
                    m_fill = False
                    if has_mid:
                        m_fetches += 1
                        m_lru = m_slots_get(line)
                        if m_lru is not None:
                            m_lru.move_to_end(line)
                            level = m_level
                            completion = issue + m_hit
                            ready = m_ready_get(line)
                            if ready is not None:
                                if ready <= issue:
                                    del m_ready[line]
                                else:
                                    m_c_early.value += 1
                                    completion = ready + m_hit
                            llc_at = -1
                        else:
                            m_fill = True
                            m_now = issue + m_tag
                            if m_tile_get(perp_key):
                                m_clean(line, m_now)
                            while m_heap and m_heap[0][0] <= m_now:
                                done = heappop(m_heap)[1]
                                del m_pending[done]
                                key = done >> 3
                                count = m_ptiles[key] - 1
                                if count:
                                    m_ptiles[key] = count
                                else:
                                    del m_ptiles[key]
                            entry = m_pending_get(line)
                            if entry is not None:
                                m_c_coal.value += 1
                                completion = entry[0]
                                level = entry[2]
                                llc_at = -1
                            else:
                                llc_at = m_now
                                if m_ptiles_get(perp_key):
                                    llc_at = m_admit(line, m_now)
                                elif len(m_pending) >= m_cap:
                                    llc_at = m_stall(m_now)
                    if llc_at >= 0:
                        if llc_flat:
                            # The 1P2L LLC's fetch_line and fill_line.
                            l_fetches += 1
                            l_lru = l_slots_get(line)
                            if l_lru is not None:
                                l_lru.move_to_end(line)
                                level = l_level
                                completion = llc_at + l_hit
                                ready = l_ready_get(line)
                                if ready is not None:
                                    if ready <= llc_at:
                                        del l_ready[line]
                                    else:
                                        l_c_early.value += 1
                                        completion = ready + l_hit
                            else:
                                l_now = llc_at + l_tag
                                if l_tile_get(perp_key):
                                    l_clean(line, l_now)
                                while l_heap and l_heap[0][0] <= l_now:
                                    done = heappop(l_heap)[1]
                                    del l_pending[done]
                                    key = done >> 3
                                    count = l_ptiles[key] - 1
                                    if count:
                                        l_ptiles[key] = count
                                    else:
                                        del l_ptiles[key]
                                entry = l_pending_get(line)
                                if entry is not None:
                                    l_c_coal.value += 1
                                    completion = entry[0]
                                    level = entry[2]
                                else:
                                    fetch_at = l_now
                                    if l_ptiles_get(perp_key):
                                        fetch_at = l_admit(line, l_now)
                                    elif len(l_pending) >= l_cap:
                                        fetch_at = l_stall(l_now)
                                    completion, level = port_fetch(
                                        line, fetch_at, vector)
                                    entry = (completion, line, level)
                                    l_pending[line] = entry
                                    heappush(l_heap, entry)
                                    l_ptiles[tkey] = l_ptiles_get(tkey, 0) + 1
                                    l_fills += 1
                                number = line >> 4 if l_same_set \
                                    else (line >> 4) + (line & 7)
                                l_lru = l_sets[number % l_num_sets]
                                if len(l_lru) >= l_assoc:
                                    victim, mask = l_lru.popitem(False)
                                    del l_slots[victim]
                                    key = victim >> 3
                                    count = l_tile_count[key] - 1
                                    if count:
                                        l_tile_count[key] = count
                                    else:
                                        del l_tile_count[key]
                                    l_evict += 1
                                    if mask:
                                        l_c_wb_out.value += 1
                                        l_writeback(victim, mask,
                                                    completion)
                                l_lru[line] = 0
                                l_slots[line] = l_lru
                                l_tile_count[tkey] = l_tile_get(tkey, 0) + 1
                                completion += l_data
                                if completion > l_now:
                                    l_ready[line] = completion
                        else:
                            completion, level = llc_fetch(line, llc_at,
                                                          vector)
                        if m_fill:
                            entry = (completion, line, level)
                            m_pending[line] = entry
                            heappush(m_heap, entry)
                            m_ptiles[tkey] = m_ptiles_get(tkey, 0) + 1
                            m_fills += 1
                    if m_fill:
                        number = line >> 4 if m_same_set \
                            else (line >> 4) + (line & 7)
                        m_lru = m_sets[number % m_num_sets]
                        if len(m_lru) >= m_assoc:
                            victim, mask = m_lru.popitem(False)
                            del m_slots[victim]
                            key = victim >> 3
                            count = m_tile_count[key] - 1
                            if count:
                                m_tile_count[key] = count
                            else:
                                del m_tile_count[key]
                            m_evict += 1
                            if mask:
                                m_c_wb_out.value += 1
                                m_writeback(victim, mask, completion)
                        m_lru[line] = 0
                        m_slots[line] = m_lru
                        m_tile_count[tkey] = m_tile_get(tkey, 0) + 1
                        completion += m_data
                        if completion > m_now:
                            m_ready[line] = completion
                    entry = (completion, line, level)
                    pending[line] = entry
                    heappush(heap, entry)
                    ptiles[tkey] = ptiles_get(tkey, 0) + 1
                    n_fills += 1
                number = line >> 4 if same_set \
                    else (line >> 4) + (line & 7)
                lru = sets[number % num_sets]
                if len(lru) >= assoc:
                    victim, mask = lru.popitem(False)
                    del slots[victim]
                    key = victim >> 3
                    count = tile_count[key] - 1
                    if count:
                        tile_count[key] = count
                    else:
                        del tile_count[key]
                    n_evict += 1
                    if mask:
                        c_wb_out.value += 1
                        writeback(victim, mask, completion)
                lru[line] = 0
                slots[line] = lru
                tile_count[tkey] = tile_get(tkey, 0) + 1
                completion += data_latency
                if completion > fnow:
                    ready_at[line] = completion
                n_misses += 1  # served below the L1
                latency = completion - now
            hist[latency.bit_length()] += 1
            if latency > pipelined:
                heappush(window, now + latency)
                n_tracked += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        stalled += earliest - now
                        now = earliest
        elif mode == 0:  # scalar read
            lru = slots_get(line)
            if lru is not None:
                n_probes += 1
                n_hits += 1
                lru.move_to_end(line)
                ready = ready_get(line)
                if ready is None:
                    hist[hb_hit] += 1
                    continue
                if ready <= now:
                    del ready_at[line]
                    hist[hb_hit] += 1
                    continue
                c_early.value += 1
                latency = ready + hit_latency - now
            else:
                other = (line & -16) | (p & 15)
                completion, level = scalar_read_tail(line, other, now)
                if level == lvl1:
                    n_hits += 1
                else:
                    n_misses += 1
                latency = completion - now
            hist[latency.bit_length()] += 1
            if latency > pipelined:
                heappush(window, now + latency)
                n_tracked += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        stalled += earliest - now
                        now = earliest
        elif mode == 1:  # scalar write (posted; never stalls the core)
            lru = slots_get(line)
            offset = p & 7
            other = (line & -16) | (p & 15)
            if lru is not None and slots_get(other) is None:
                n_probes += 2
                n_hits += 1
                lru[line] |= 1 << offset
                lru.move_to_end(line)
                hist[hb_sw] += 1
                continue
            completion, level = scalar_write_tail(
                line, other, 1 << offset, 1 << (line & 7), now)
            if level == lvl1:
                n_hits += 1
            else:
                n_misses += 1
            hist[(completion - now).bit_length()] += 1
        else:  # vector write (posted)
            lru = slots_get(line)
            if lru is not None and tile_get((line >> 3) ^ 1) is None:
                n_probes += 9
                n_hits += 1
                lru[line] = 0xFF
                lru.move_to_end(line)
                hist[hb_vw] += 1
                continue
            completion, level = vector_write_tail(line, now)
            if level == lvl1:
                n_hits += 1
            else:
                n_misses += 1
            hist[(completion - now).bit_length()] += 1
    # Fold the inlined-fill accumulators into their shared cells
    # (allocations and fills, and a level's fetch requests and the tag
    # probes they cost, move in lockstep on these paths).
    _fold_fills(l1, n_fills, n_evict)
    if has_mid:
        _fold_fetches(mid, m_fetches, m_fills, m_evict)
    if llc_flat:
        _fold_fetches(llc, l_fetches, l_fills, l_evict)
    state.now = now
    state.stalled = stalled
    state.n_hits += n_hits
    state.n_misses += n_misses
    state.n_probes += n_probes
    state.n_tracked += n_tracked


def _fold_fills(store, fills: int, evictions: int) -> None:
    """Add a span's inlined fills and evictions to ``store``'s cells."""
    store.c_fills.value += fills
    store.c_allocations.value += fills
    store.c_evictions.value += evictions


def _fold_fetches(store, fetches: int, fills: int,
                  evictions: int) -> None:
    """:func:`_fold_fills`, plus the fetch requests a lower level
    served inline (one tag probe each)."""
    store.c_fetch_requests.value += fetches
    store.c_tag_probes.value += fetches
    _fold_fills(store, fills, evictions)


def _replay_1l_span(engine: KernelEngine, packed, start, stop,
                    cpu_config, state) -> None:
    """Replay 1-D predecoded requests ``[start, stop)`` with ``state``.

    The 1P1L counterpart of :func:`_replay_2l_span`.  Every request
    probes the L1 once; a miss runs the whole chain inline — the L1's
    MSHR mirror, the mid level's ``fetch_line`` (absent in the
    resident two-level shape), the LLC's ``fetch_line`` with its
    stride prefetcher's flat mirror trained on the stream, and each
    level's install on the way back up.  Only a confirmed prefetch
    burst (:meth:`_Kernel1L.prefetch`) and dirty-victim writebacks
    call methods.
    """
    levels = engine.levels
    l1 = levels[0]
    mid = levels[1] if len(levels) == 3 else None
    llc = levels[-1]
    now = state.now
    stalled = state.stalled
    window = state.window
    hist = state.hist
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    pipelined = l1.hit_latency + 3 * l1.tag_latency
    hit_latency = l1.hit_latency
    write_latency = l1.write_latency
    hb_read = hit_latency.bit_length()
    hb_write = write_latency.bit_length()
    scalar, vector = _SCALAR, _VECTOR
    # The L1's flat state and MSHR mirror.
    slots = l1.slot_of
    slots_get = slots.get
    sets = l1.sets
    num_sets = l1.num_sets
    assoc = l1.assoc
    ready_at = l1.ready_at
    ready_get = ready_at.get
    c_early = l1.c_early_hit_waits
    tag_latency = l1.tag_latency
    data_latency = l1.data_latency
    pending = l1.pending
    pending_get = pending.get
    heap = l1.pending_heap
    cap = l1.mshr_capacity
    stall = l1._mshr_stall
    writeback = l1.lower.writeback_line
    c_coal = l1.c_mshr_coalesced
    c_wb_out = l1.c_writebacks_out
    n_fills = n_evict = 0
    has_mid = mid is not None
    if has_mid:
        m_slots = mid.slot_of
        m_slots_get = m_slots.get
        m_sets = mid.sets
        m_num_sets = mid.num_sets
        m_assoc = mid.assoc
        m_ready = mid.ready_at
        m_ready_get = m_ready.get
        m_hit = mid.hit_latency
        m_tag = mid.tag_latency
        m_data = mid.data_latency
        m_level = mid.level_index
        m_pending = mid.pending
        m_pending_get = m_pending.get
        m_heap = mid.pending_heap
        m_cap = mid.mshr_capacity
        m_stall = mid._mshr_stall
        m_writeback = llc.writeback_line
        m_c_early = mid.c_early_hit_waits
        m_c_coal = mid.c_mshr_coalesced
        m_c_wb_out = mid.c_writebacks_out
    m_fetches = m_fills = m_evict = 0
    # The LLC, its MSHR mirror and the prefetcher's one table entry.
    l_slots = llc.slot_of
    l_slots_get = l_slots.get
    l_sets = llc.sets
    l_num_sets = llc.num_sets
    l_assoc = llc.assoc
    l_ready = llc.ready_at
    l_ready_get = l_ready.get
    l_hit = llc.hit_latency
    l_tag = llc.tag_latency
    l_data = llc.data_latency
    l_level = llc.level_index
    l_pending = llc.pending
    l_pending_get = l_pending.get
    l_heap = llc.pending_heap
    l_cap = llc.mshr_capacity
    l_stall = llc._mshr_stall
    port_fetch = llc.lower.fetch_line
    l_writeback = llc.lower.writeback_line
    l_c_early = llc.c_early_hit_waits
    l_c_coal = llc.c_mshr_coalesced
    l_c_wb_out = llc.c_writebacks_out
    l_fetches = l_fills = l_evict = 0
    prefetching = llc.prefetch_enabled
    prefetch = llc.prefetch
    pf_threshold = llc.prefetch_threshold
    pf_last = llc.pf_last
    pf_stride = llc.pf_stride
    pf_confidence = llc.pf_confidence
    n_misses = n_tracked = 0
    if start == 0 and stop >= len(packed):
        span = packed
    else:
        span = packed[start:stop]
    for p in span:
        line = p >> 5
        mode = (p >> 3) & 3  # is_write | width << 1
        is_write = mode & 1
        now += issue_cost
        lru = slots_get(line)
        if lru is not None:
            if is_write:
                lru[line] |= 0xFF if mode == 3 else 1 << (p & 7)
                latency = write_latency
                bucket = hb_write
            else:
                latency = hit_latency
                bucket = hb_read
            lru.move_to_end(line)
            ready = ready_get(line)
            if ready is None:
                hist[bucket] += 1
                continue
            if ready <= now:
                del ready_at[line]
                hist[bucket] += 1
                continue
            c_early.value += 1
            latency = ready + latency - now
        else:
            # An L1 miss never hits at the L1: the serving level is
            # always below it.
            n_misses += 1
            width = vector if mode & 2 else scalar
            issue = now + tag_latency
            while heap and heap[0][0] <= issue:
                del pending[heappop(heap)[1]]
            entry = pending_get(line)
            if entry is not None:
                c_coal.value += 1
                completion = entry[0]
                level = entry[2]
            else:
                if len(pending) >= cap:
                    issue = stall(issue)
                # The mid level's fetch_line: a hit completes here, a
                # miss runs its fill around the LLC stage below
                # (``llc_at`` < 0: no LLC fetch).
                llc_at = issue
                m_fill = False
                if has_mid:
                    m_fetches += 1
                    m_lru = m_slots_get(line)
                    if m_lru is not None:
                        m_lru.move_to_end(line)
                        level = m_level
                        completion = issue + m_hit
                        ready = m_ready_get(line)
                        if ready is not None:
                            if ready <= issue:
                                del m_ready[line]
                            else:
                                m_c_early.value += 1
                                completion = ready + m_hit
                        llc_at = -1
                    else:
                        m_fill = True
                        llc_at = issue + m_tag
                        while m_heap and m_heap[0][0] <= llc_at:
                            del m_pending[heappop(m_heap)[1]]
                        entry = m_pending_get(line)
                        if entry is not None:
                            m_c_coal.value += 1
                            completion = entry[0]
                            level = entry[2]
                            llc_at = -1
                        elif len(m_pending) >= m_cap:
                            llc_at = m_stall(llc_at)
                if llc_at >= 0:
                    # The LLC's fetch_line, then its prefetcher's
                    # training on the address it was asked for.
                    l_fetches += 1
                    l_lru = l_slots_get(line)
                    if l_lru is not None:
                        l_lru.move_to_end(line)
                        level = l_level
                        completion = llc_at + l_hit
                        ready = l_ready_get(line)
                        if ready is not None:
                            if ready <= llc_at:
                                del l_ready[line]
                            else:
                                l_c_early.value += 1
                                completion = ready + l_hit
                    else:
                        fetch_at = llc_at + l_tag
                        while l_heap and l_heap[0][0] <= fetch_at:
                            del l_pending[heappop(l_heap)[1]]
                        entry = l_pending_get(line)
                        if entry is not None:
                            l_c_coal.value += 1
                            completion = entry[0]
                            level = entry[2]
                        else:
                            if len(l_pending) >= l_cap:
                                fetch_at = l_stall(fetch_at)
                            completion, level = port_fetch(line, fetch_at,
                                                           width)
                            entry = (completion, line, level)
                            l_pending[line] = entry
                            heappush(l_heap, entry)
                            l_fills += 1
                        l_lru = l_sets[(((line >> 4) << 3) | (line & 7))
                                       % l_num_sets]
                        if len(l_lru) >= l_assoc:
                            victim, mask = l_lru.popitem(False)
                            del l_slots[victim]
                            l_evict += 1
                            if mask:
                                l_c_wb_out.value += 1
                                l_writeback(victim, mask, completion)
                        l_lru[line] = 0
                        l_slots[line] = l_lru
                        completion += l_data
                        if completion > llc_at:
                            l_ready[line] = completion
                    if prefetching:
                        # StridePrefetcher.observe(0, addr) on the
                        # mirrored entry.
                        addr = ((line >> 4) << 9) | ((line & 7) << 6)
                        if pf_last < 0:
                            pf_last = addr
                        else:
                            stride = addr - pf_last
                            pf_last = addr
                            if stride == pf_stride and stride:
                                if pf_confidence < pf_threshold:
                                    pf_confidence += 1
                                if pf_confidence >= pf_threshold:
                                    prefetch(addr, stride, llc_at)
                            elif stride:
                                pf_stride = stride
                                pf_confidence = 1
                    if m_fill:
                        entry = (completion, line, level)
                        m_pending[line] = entry
                        heappush(m_heap, entry)
                        m_fills += 1
                if m_fill:
                    m_lru = m_sets[(((line >> 4) << 3) | (line & 7))
                                   % m_num_sets]
                    if len(m_lru) >= m_assoc:
                        victim, mask = m_lru.popitem(False)
                        del m_slots[victim]
                        m_evict += 1
                        if mask:
                            m_c_wb_out.value += 1
                            m_writeback(victim, mask, completion)
                    m_lru[line] = 0
                    m_slots[line] = m_lru
                    completion += m_data
                    if completion > issue:
                        m_ready[line] = completion
                entry = (completion, line, level)
                pending[line] = entry
                heappush(heap, entry)
                n_fills += 1
            lru = sets[(((line >> 4) << 3) | (line & 7)) % num_sets]
            if len(lru) >= assoc:
                victim, mask = lru.popitem(False)
                del slots[victim]
                n_evict += 1
                if mask:
                    c_wb_out.value += 1
                    writeback(victim, mask, completion)
            if is_write:
                lru[line] = 0xFF if mode == 3 else 1 << (p & 7)
            else:
                lru[line] = 0
            slots[line] = lru
            completion += data_latency
            if completion > now:
                ready_at[line] = completion
            latency = completion - now
        hist[latency.bit_length()] += 1
        if latency > pipelined and not is_write:
            heappush(window, now + latency)
            n_tracked += 1
            while len(window) > window_size:
                earliest = heappop(window)
                if earliest > now:
                    stalled += earliest - now
                    now = earliest
    _fold_fills(l1, n_fills, n_evict)
    if has_mid:
        _fold_fetches(mid, m_fetches, m_fills, m_evict)
    _fold_fetches(llc, l_fetches, l_fills, l_evict)
    llc.pf_last = pf_last
    llc.pf_stride = pf_stride
    llc.pf_confidence = pf_confidence
    requests = len(span)
    state.now = now
    state.stalled = stalled
    state.n_hits += requests - n_misses
    state.n_misses += n_misses
    state.n_probes += requests
    state.n_tracked += n_tracked
