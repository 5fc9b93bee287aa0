"""Structure-of-arrays cache kernels and the fused replay loop.

The object model (:mod:`repro.cache`) keeps per-line state in Python
dicts and per-set :class:`LruSet` objects, and every request crosses
several method boundaries (``access`` -> ``_vector_read`` ->
``_fill_line`` -> ``fetch_line`` -> ...).  Profiling the packed replay
loop shows that essentially all time is spent in those cache levels —
the memory controller underneath is noise — so this module rebuilds the
covered designs as **flat structure-of-arrays stores** driven by one
fused loop:

* ``tags``: one ``array('Q')`` slot per cache frame holding the full
  oriented line id (set ``s`` owns slots ``[s*assoc, (s+1)*assoc)``);
* ``meta``: one packed 64-bit metadata word per frame (a flat list —
  hot paths read these words far more than they write them, and list
  reads don't box a fresh int the way ``array('Q')`` reads do)::

      bit   0      valid
      bit   1      orientation (row=0 / column=1, mirrors the tag)
      bits  8-15   per-word dirty mask
      bits 16-63   LRU age stamp

  Age stamps come from a per-level monotonic counter, so the victim of
  a full set is simply the valid slot with the smallest ``meta`` word —
  bit-identical to the insertion-ordered :class:`LruSet` the object
  path uses.  Stamps are compacted in place (order-preserving) when the
  counter reaches :data:`AGE_LIMIT`, long before bit 63.
* ``slot_of``: line id -> slot index, the presence/lookup accelerator
  over the canonical arrays;
* ``tile_count``: (tile, orientation) -> resident-line count, which
  lets the hot paths skip the eight-way perpendicular scans (duplicate
  eviction, Fig. 9 cleaning) whenever a tile holds no crossing lines.

Address decode is table-driven: :func:`intile_tables` maps the six
in-tile word bits (plus the orientation bit) straight to the in-tile
line index and the word's offset within the oriented line, so the
replay loop never recomputes the row/column bit-slicing per request
(the channel/rank/bank side of the decode lives in
:func:`repro.mem.decoder.interleave_tables`).

Every kernel level *shares* its statistics cells, MSHR file, and (for
1P1L) stride prefetcher with the corresponding object level, and the
chain bottoms out at the hierarchy's real :class:`MemoryPort`, so a
kernel run produces **bit-identical counters** to the object path —
``tests/test_kernels.py`` enforces this across the covered design x
workload matrix.

Coverage: LRU replacement throughout; physically 1-D levels
(``Cache1P1L`` or ``Cache1P2L``, either index mapping) anywhere in the
hierarchy; a physically 2-D block store (``Cache2P2L``, dense or
sparse fill) as the last level (:class:`_Kernel2P2L`, which packs each
block's presence and dirty line masks into one 16-bit word per slot);
and dynamic orientation prediction on a 1P2L L1 (the predictor table
mirrored into flat arrays by :class:`_FlatPredictor`, sharing the
object predictor's counter cells).  A physically 2-D L1 or mid-level,
non-LRU policies, and occupancy-sampled runs stay on the reference
``run_packed`` path (see :func:`supports`).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from heapq import heappop, heappush
from typing import Dict, List

from ..common.errors import SimulationError
from ..common.stats import LAT_HIST_KEYS
from ..common.types import AccessWidth, LINES_PER_TILE

try:  # optional accelerator for trace predecode (pure fallback below)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the test env
    _np = None

#: Module-level switch: benches and tests flip this to pin the
#: reference ``run_packed`` path (see :func:`kernel_disabled`).
KERNEL_ENABLED = True

#: LRU age stamps are compacted (order-preserving) once a level's
#: counter reaches this bound — far below the 48 bits the meta word can
#: hold, so saturation never corrupts eviction order.  Tests shrink it
#: to force compaction on tiny traces.
AGE_LIMIT = 1 << 46

# LAT_HIST_KEYS (bucket = latency.bit_length()) is shared by run /
# run_packed / run_kernel so the histograms are bit-comparable across
# paths; the canonical definition lives in repro.common.stats (the
# service layer reuses the same scheme) and is re-exported here for
# existing importers.

_SCALAR = AccessWidth.SCALAR
_VECTOR = AccessWidth.VECTOR

_META_LOW = 0xFFFF  # valid + orientation + dirty bits (ages live above)

_COLUMN_ON_1L = ("column-preference request reached a 1P1L cache; "
                 "design-0 traces must be generated with logical_dims=1")


def supports(hierarchy) -> bool:
    """True when the fused kernel covers this hierarchy exactly.

    Uncovered hierarchies replay through ``run_packed`` — same results,
    reference speed.
    """
    if not KERNEL_ENABLED:
        return False
    if hierarchy.replacement != "lru":
        return False
    levels = hierarchy.levels
    last = len(levels) - 1
    for pos, level in enumerate(levels):
        cfg = level.config
        if cfg.physical_dims == 2:
            # A 2P2L block store is covered only as the last (lowest)
            # level: there its CPU-facing ``access`` path (Design 3)
            # is never exercised, so the flat mirror only needs the
            # inter-level protocol.
            if pos == 0 or pos != last or cfg.logical_dims != 2:
                return False
        elif cfg.dynamic_orientation and \
                (pos != 0 or cfg.logical_dims != 2):
            # Orientation prediction only exists on the CPU-facing
            # scalar paths of a 1P2L L1.
            return False
    l1_cfg = hierarchy.l1.config
    if l1_cfg.logical_dims == 1 and l1_cfg.prefetcher.enabled:
        # The fused 1-D loop elides the per-access prefetcher hook;
        # that is only exact when the L1 prefetcher is off (it always
        # is — the baseline trains its prefetcher at the LLC).
        return False
    return True


class _KernelDisabled:
    """Context manager forcing the reference ``run_packed`` path.

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
    """Force the reference ``run_packed`` path within a ``with`` block."""
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


def _predecode_refs(words):
    """Static reference ids (packed-word bits 0-15), one per request.

    Only the dynamic-orientation loop needs these — the static loops
    never look at the reference id — so they decode in a separate
    (numpy-gated) pass rather than widening the shared predecode.
    """
    if _np is not None:
        return (_np.frombuffer(words, dtype=_np.uint64)
                & _np.uint64(0xFFFF)).tolist()
    return [w & 0xFFFF for w in words]


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

    def observe(self, ref: int, row_line: int, col_line: int,
                static_bit: int) -> int:
        """Train on one scalar access; returns the orientation bit.

        Mirrors ``OrientationPredictor.observe_and_predict`` with line
        ids precomputed by the caller (the predecoded loop already has
        both) and orientations as line-id bits (row=0 / column=1).
        """
        slot = self.slot_of.get(ref)
        counters = self.counter
        if slot is None:
            if self.size >= self.capacity:
                head = self.head
                del self.slot_of[self.refs[head]]
                self.c_table_evictions.value += 1
                slot = head
                head += 1
                self.head = head if head < self.capacity else 0
            else:
                slot = self.size
                self.size = slot + 1
            self.slot_of[ref] = slot
            self.refs[slot] = ref
            self.last_row[slot] = -1
            self.last_col[slot] = -1
            ctr = 0
        else:
            ctr = counters[slot]
        same_row = row_line == self.last_row[slot]
        same_col = col_line == self.last_col[slot]
        if same_col and not same_row:
            if ctr < self.saturation:
                ctr += 1
        elif same_row and not same_col:
            if ctr > -self.saturation:
                ctr -= 1
        counters[slot] = ctr
        self.last_row[slot] = row_line
        self.last_col[slot] = col_line
        if ctr >= self.threshold:
            prediction = 1
        elif ctr <= -self.threshold:
            prediction = 0
        else:
            self.c_static_fallbacks.value += 1
            return static_bit
        self.c_predictions.value += 1
        if prediction != static_bit:
            self.c_overrides.value += 1
        return prediction


class _FlatStore:
    """Shared flat-store state and LRU age bookkeeping."""

    __slots__ = (
        "cfg", "level_index", "num_sets", "assoc", "tag_latency",
        "data_latency", "hit_latency", "tags", "meta", "slot_of",
        "ready_at", "age", "lower", "lower_store", "lower_slots_get",
        "demand_cells", "pending_at", "pending_lvl", "pending_tiles",
        "earliest", "mshr_capacity", "c_ordering_blocks",
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
        nslots = cfg.num_sets * cfg.assoc
        self.tags = array("Q", bytes(8 * nslots))
        # One packed 64-bit metadata word per slot (layout in the
        # module docstring).  A flat list, not an array('Q'): the hot
        # paths read these words far more often than they write them,
        # and a list read is a pointer load while an array read must
        # box a fresh int every time.
        self.meta: List[int] = [0] * nslots
        self.slot_of: Dict[int, int] = {}
        self.ready_at: Dict[int, int] = {}
        # One-element list so the fused loop and the slow-path methods
        # share the same mutable age counter.
        self.age: List[int] = [0]
        self.lower = None
        # Set by KernelEngine when the next level down is a flat store
        # whose fetch_line hit path has no side effects beyond
        # touch/ready bookkeeping (i.e. no per-access prefetcher):
        # the fill paths then serve lower-level hits inline.
        self.lower_store = None
        self.lower_slots_get = None
        self.demand_cells = level._demand_cells
        # Private MSHR state mirroring :class:`MshrFile` exactly (same
        # lazy-retire algorithm, same counter cells), inlined into the
        # fill paths so a miss pays no method-call round trips.  The
        # pending file is split into int-valued dicts (completion and
        # serving level) so the retire/barrier scans iterate plain
        # ints, and ``pending_tiles`` counts in-flight fills per
        # (tile, orientation) key so the 2-D ordering scan is skipped
        # outright when no perpendicular fill is outstanding.
        mshr = level.mshr
        self.pending_at: Dict[int, int] = {}
        self.pending_lvl: Dict[int, int] = {}
        self.pending_tiles: Dict[int, int] = {}
        self.earliest = None
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

    def _stamp(self) -> int:
        """Next (unique, monotonic) LRU age, compacting at the limit."""
        age = self.age
        stamp = age[0]
        if stamp >= AGE_LIMIT:
            self._compact_ages()
            stamp = age[0]
        age[0] = stamp + 1
        return stamp

    def _compact_ages(self) -> None:
        """Re-stamp every valid slot densely, preserving LRU order."""
        meta = self.meta
        order = sorted((meta[slot] >> 16, slot)
                       for slot in range(len(meta)) if meta[slot] & 1)
        for fresh, (_, slot) in enumerate(order):
            meta[slot] = (meta[slot] & _META_LOW) | (fresh << 16)
        self.age[0] = len(order)

    def _touch(self, slot: int) -> None:
        self.meta[slot] = (self.meta[slot] & _META_LOW) \
            | (self._stamp() << 16)

    def _hit_completion(self, line: int, slot: int, now: int) -> int:
        """Touch plus data-readiness of a hit (``_data_ready`` mirror)."""
        self._touch(slot)
        ready = self.ready_at.get(line)
        if ready is not None:
            if ready <= now:
                del self.ready_at[line]
            else:
                self.c_early_hit_waits.value += 1
                return ready
        return now

    def _mshr_retire(self, now: int) -> None:
        """``MshrFile.retire_completed`` over the private pending file."""
        pending_at = self.pending_at
        if not pending_at:
            return
        earliest = self.earliest
        if earliest is not None and now < earliest:
            return
        done = []
        earliest = None
        for line, at in pending_at.items():
            if at <= now:
                done.append(line)
            elif earliest is None or at < earliest:
                earliest = at
        if done:
            pending_lvl = self.pending_lvl
            tiles = self.pending_tiles
            for line in done:
                del pending_at[line]
                del pending_lvl[line]
                key = line >> 3
                count = tiles[key] - 1
                if count:
                    tiles[key] = count
                else:
                    del tiles[key]
        self.earliest = earliest

    def _mshr_insert(self, line: int, completion: int, level: int,
                     issue: int) -> None:
        """Reserve + record an entry (``allocate`` then ``record``)."""
        self.pending_at[line] = completion
        self.pending_lvl[line] = level
        tiles = self.pending_tiles
        key = line >> 3
        count = tiles.get(key)
        tiles[key] = 1 if count is None else count + 1
        earliest = self.earliest
        if earliest is None or issue < earliest:
            earliest = issue
        if completion < earliest:
            earliest = completion
        self.earliest = earliest
        self.c_allocations.value += 1
        self.c_fills.value += 1

    def _outstanding(self, line: int, now: int):
        """``MshrFile.outstanding_fill`` over the private pending file."""
        self._mshr_retire(now)
        return self.pending_at.get(line)


class _Kernel2L(_FlatStore):
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

    def _set_base(self, line: int) -> int:
        if self.same_set:
            number = line >> 4
        else:
            number = (line >> 4) + (line & 7)
        return (number % self.num_sets) * self.assoc

    # -- CPU-facing tails (the fused loop handles the plain hits) ------------

    def scalar_read_tail(self, preferred: int, other: int, now: int):
        """``_scalar_read`` after the preferred-orientation probe missed."""
        self.c_tag_probes.value += 2
        slot = self.slot_of.get(other)
        if slot is not None:
            self.c_misoriented.value += 1
            return (self._hit_completion(other, slot, now)
                    + self.hit_latency + self.tag_latency,
                    self.level_index)
        probe_cost = 2 * self.tag_latency
        completion, level = self.fill_line(preferred, now + probe_cost,
                                           _SCALAR)
        return completion + self.data_latency, level

    def scalar_write_tail(self, preferred: int, other: int,
                          pref_bit: int, other_bit: int, now: int):
        """Full ``_scalar_write`` mirror (miss, or duplicate present)."""
        self.c_tag_probes.value += 2
        probe_cost = 2 * self.tag_latency
        slots = self.slot_of
        slot = slots.get(preferred)
        if slot is not None:
            if other in slots:
                self.evict_line(other, now, duplicate=True)
            self.meta[slot] |= pref_bit << 8
            self._touch(slot)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        slot = slots.get(other)
        if slot is not None:
            self.c_misoriented.value += 1
            self.meta[slot] |= other_bit << 8
            self._touch(slot)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        completion, level = self.fill_line(preferred, now + probe_cost,
                                           _SCALAR)
        self.meta[slots[preferred]] |= pref_bit << 8
        return completion + self.data_write_latency, level

    def vector_read_tail(self, line: int, now: int):
        """``_vector_read`` miss: eight extra intersecting probes."""
        self.c_tag_probes.value += 9
        completion, level = self.fill_line(
            line, now + 9 * self.tag_latency, _VECTOR)
        return completion + self.data_latency, level

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
        slot = slots.get(line)
        if slot is not None:
            self.meta[slot] |= 0xFF << 8
            self._touch(slot)
            return (now + probe_cost + self.data_write_latency,
                    self.level_index)
        completion, level = self.fill_line(line, now + probe_cost,
                                           _VECTOR)
        self.meta[slots[line]] |= 0xFF << 8
        return completion + self.data_write_latency, level

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line: int, now: int, width):
        self.c_fetch_requests.value += 1
        self.c_tag_probes.value += 1
        slot = self.slot_of.get(line)
        if slot is not None:
            # Inlined touch + data-ready: this is the hot lower-level
            # hit serving an upper-level miss.
            meta = self.meta
            stamp = self.age[0]
            if stamp >= AGE_LIMIT:
                self._compact_ages()
                stamp = self.age[0]
            self.age[0] = stamp + 1
            meta[slot] = (meta[slot] & _META_LOW) | (stamp << 16)
            ready = self.ready_at.get(line)
            if ready is not None:
                if ready <= now:
                    del self.ready_at[line]
                else:
                    self.c_early_hit_waits.value += 1
                    return ready + self.hit_latency, self.level_index
            return now + self.hit_latency, self.level_index
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
        slot = slots.get(line)
        if slot is not None:
            self.meta[slot] |= dirty_mask << 8
            self._touch(slot)
        else:
            self.install(line, now, dirty_mask)
        return now + 2 * self.tag_latency

    # -- internals ----------------------------------------------------------

    def clean_intersecting(self, line: int, now: int) -> None:
        """Fig. 9 "read to duplicate": flush dirty crossings first.

        Callers gate on ``tile_count`` holding perpendicular residents,
        so this always scans.
        """
        slots_get = self.slot_of.get
        meta = self.meta
        bit = 1 << (line & 7)
        base_perp = (line & -16) | ((line & 8) ^ 8)
        for k in range(8):
            slot = slots_get(base_perp | k)
            if slot is None:
                continue
            mask = (meta[slot] >> 8) & 0xFF
            if mask & bit:
                self.lower.writeback_line(base_perp | k, mask, now)
                meta[slot] &= ~(0xFF << 8)
                self.c_duplicate_cleans.value += 1

    def fill_line(self, line: int, now: int, width):
        """Clean crossings, fetch through the (inlined) MSHR, install.

        The whole miss transaction — lazy MSHR retire, 2-D ordering
        barrier, structural stalls, the fetch below, victim selection
        and eviction — runs in this one frame; only the recursive hop
        to the lower level and the rare dirty-victim writeback are
        calls.  Bit-identical to ``Cache1P2L._fill_line`` +
        ``MshrFile.fetch_slot`` + ``_install``.
        """
        if self.tile_count.get((line >> 3) ^ 1):
            self.clean_intersecting(line, now)
        # -- MshrFile.fetch_slot(line, now, ordered=True), inlined.
        # Retirement is eager, as in the object path: as a lower
        # level this method runs at the *upper* level's issue times,
        # which are not monotonic (a barrier- or stall-raised issue
        # can precede a later call's smaller clock), and the object's
        # retirement is permanent at the high-water mark — lazily
        # filtering by the current ``now`` would resurrect retired
        # entries into the barrier and capacity scans.  The sweep
        # self-gates on the ``earliest`` bound, so it is O(1) when
        # nothing can have retired.
        self._mshr_retire(now)
        pending_at = self.pending_at
        completion = pending_at.get(line)
        if completion is not None:
            self.c_mshr_coalesced.value += 1
            level = self.pending_lvl[line]
        else:
            issue = now
            if pending_at:
                # 2-D ordering: perpendicular outstanding fills of the
                # same tile hold this one back.  ``pending_tiles``
                # knows whether any might exist without scanning.
                perp_key = (line >> 3) ^ 1
                if self.pending_tiles.get(perp_key):
                    c_blocks = self.c_ordering_blocks
                    for other, at in pending_at.items():
                        if other >> 3 == perp_key:
                            if at > issue:
                                issue = at
                            c_blocks.value += 1
                    if issue > now:
                        self._mshr_retire(issue)
                c_stalls = self.c_full_stalls
                while len(pending_at) >= self.mshr_capacity:
                    stall_until = min(pending_at.values())
                    if stall_until > issue:
                        issue = stall_until
                    c_stalls.value += 1
                    self._mshr_retire(stall_until)
            lget = self.lower_slots_get
            lslot = lget(line) if lget is not None else None
            if lslot is not None:
                # Lower-level hit, inlined (its fetch_line fast path:
                # count, touch, data-ready — nothing else).
                lower = self.lower_store
                lower.c_fetch_requests.value += 1
                lower.c_tag_probes.value += 1
                lmeta = lower.meta
                lstamp = lower.age[0]
                if lstamp >= AGE_LIMIT:
                    lower._compact_ages()
                    lstamp = lower.age[0]
                lower.age[0] = lstamp + 1
                lmeta[lslot] = (lmeta[lslot] & _META_LOW) \
                    | (lstamp << 16)
                level = lower.level_index
                completion = issue + lower.hit_latency
                lready = lower.ready_at.get(line)
                if lready is not None:
                    if lready <= issue:
                        del lower.ready_at[line]
                    else:
                        lower.c_early_hit_waits.value += 1
                        completion = lready + lower.hit_latency
            else:
                completion, level = self.lower.fetch_line(line, issue,
                                                          width)
            # -- MshrFile.record, inlined --
            pending_at[line] = completion
            self.pending_lvl[line] = level
            tiles = self.pending_tiles
            tkey = line >> 3
            count = tiles.get(tkey)
            tiles[tkey] = 1 if count is None else count + 1
            earliest = self.earliest
            if earliest is None or issue < earliest:
                earliest = issue
            if completion < earliest:
                earliest = completion
            self.earliest = earliest
            self.c_allocations.value += 1
            self.c_fills.value += 1
        # -- _install(line, completion, dirty=0), inlined.  One scan
        # finds the victim: invalid slots hold meta == 0 and therefore
        # win the argmin before any valid slot, and among invalid slots
        # (or among valid ones, whose age stamps are unique) the strict
        # ``<`` keeps the first — exactly the object path's choice. --
        if self.same_set:
            number = line >> 4
        else:
            number = (line >> 4) + (line & 7)
        base = (number % self.num_sets) * self.assoc
        meta = self.meta
        free = base
        best = meta[base]
        for slot in range(base + 1, base + self.assoc):
            m = meta[slot]
            if m < best:
                best = m
                free = slot
        if best & 1:
            victim = self.tags[free]
            del self.slot_of[victim]
            vkey = victim >> 3
            tile_count = self.tile_count
            count = tile_count[vkey] - 1
            if count:
                tile_count[vkey] = count
            else:
                del tile_count[vkey]
            self.c_evictions.value += 1
            vmask = (best >> 8) & 0xFF
            if vmask:
                self.c_writebacks_out.value += 1
                self.lower.writeback_line(victim, vmask, completion)
        stamp = self.age[0]
        if stamp >= AGE_LIMIT:
            self._compact_ages()
            stamp = self.age[0]
        self.age[0] = stamp + 1
        self.tags[free] = line
        meta[free] = (stamp << 16) | (((line >> 3) & 1) << 1) | 1
        self.slot_of[line] = free
        key = line >> 3
        tile_count = self.tile_count
        count = tile_count.get(key)
        tile_count[key] = 1 if count is None else count + 1
        ready = completion + self.data_latency
        if ready > now:
            self.ready_at[line] = ready
        return completion, level

    def install(self, line: int, now: int, dirty_mask: int) -> None:
        base = self._set_base(line)
        meta = self.meta
        # Single victim scan: an invalid slot (meta == 0) beats every
        # valid one; among valid slots the smallest meta word is the
        # smallest age stamp, i.e. exactly the LruSet victim.
        free = base
        best = meta[base]
        for slot in range(base + 1, base + self.assoc):
            if meta[slot] < best:
                best = meta[slot]
                free = slot
        if best & 1:
            victim = self.tags[free]
            del self.slot_of[victim]
            self._evict(free, victim, now, duplicate=False)
        self.tags[free] = line
        meta[free] = (self._stamp() << 16) | ((dirty_mask & 0xFF) << 8) \
            | (((line >> 3) & 1) << 1) | 1
        self.slot_of[line] = free
        key = line >> 3
        count = self.tile_count.get(key)
        self.tile_count[key] = 1 if count is None else count + 1

    def evict_line(self, line: int, now: int, duplicate: bool) -> None:
        slot = self.slot_of.pop(line)
        self._evict(slot, line, now, duplicate)

    def _evict(self, slot: int, line: int, now: int,
               duplicate: bool) -> None:
        meta = self.meta
        mask = (meta[slot] >> 8) & 0xFF
        meta[slot] = 0
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
    """Flat-store mirror of :class:`repro.cache.cache_1p1l.Cache1P1L`."""

    __slots__ = (
        "write_latency", "prefetch_enabled", "prefetcher",
        "c_prefetch_fills", "c_writebacks_in", "c_writebacks_out",
        "c_evictions",
    )

    def __init__(self, level) -> None:
        super().__init__(level)
        cfg = self.cfg
        self.write_latency = cfg.hit_latency + cfg.write_extra_latency
        self.prefetch_enabled = cfg.prefetcher.enabled
        self.prefetcher = level.prefetcher
        stats = level.stats
        self.c_prefetch_fills = stats.counter("prefetch_fills")
        self.c_writebacks_in = stats.counter("writebacks_in")
        self.c_writebacks_out = stats.counter("writebacks_out")
        self.c_evictions = stats.counter("evictions")

    def _set_base(self, line: int) -> int:
        # Dense row-line number (tile << 3 | index), as the object path.
        return ((((line >> 4) << 3) | (line & 7)) % self.num_sets) \
            * self.assoc

    # -- CPU-facing ----------------------------------------------------------

    def get_line_miss(self, line: int, now: int, width,
                      dirty_mask: int):
        """``_get_line`` after the (already counted) probe missed.

        As with :meth:`_Kernel2L.fill_line`, the MSHR transaction and
        the install/evict run inlined in this one frame.
        """
        issue = now + self.tag_latency
        # -- MshrFile.fetch_slot(line, issue, ordered=False), inlined,
        # with eager retirement (see _Kernel2L.fill_line) --
        self._mshr_retire(issue)
        pending_at = self.pending_at
        completion = pending_at.get(line)
        if completion is not None:
            self.c_mshr_coalesced.value += 1
            level = self.pending_lvl[line]
        else:
            if len(pending_at) >= self.mshr_capacity:
                c_stalls = self.c_full_stalls
                while len(pending_at) >= self.mshr_capacity:
                    stall_until = min(pending_at.values())
                    if stall_until > issue:
                        issue = stall_until
                    c_stalls.value += 1
                    self._mshr_retire(stall_until)
            lget = self.lower_slots_get
            lslot = lget(line) if lget is not None else None
            if lslot is not None:
                # Lower-level hit, inlined (see _Kernel2L.fill_line).
                lower = self.lower_store
                lower.c_fetch_requests.value += 1
                lower.c_tag_probes.value += 1
                lmeta = lower.meta
                lstamp = lower.age[0]
                if lstamp >= AGE_LIMIT:
                    lower._compact_ages()
                    lstamp = lower.age[0]
                lower.age[0] = lstamp + 1
                lmeta[lslot] = (lmeta[lslot] & _META_LOW) \
                    | (lstamp << 16)
                level = lower.level_index
                completion = issue + lower.hit_latency
                lready = lower.ready_at.get(line)
                if lready is not None:
                    if lready <= issue:
                        del lower.ready_at[line]
                    else:
                        lower.c_early_hit_waits.value += 1
                        completion = lready + lower.hit_latency
            else:
                completion, level = self.lower.fetch_line(line, issue,
                                                          width)
            # -- MshrFile.record, inlined --
            pending_at[line] = completion
            self.pending_lvl[line] = level
            tiles = self.pending_tiles
            tkey = line >> 3
            count = tiles.get(tkey)
            tiles[tkey] = 1 if count is None else count + 1
            earliest = self.earliest
            if earliest is None or issue < earliest:
                earliest = issue
            if completion < earliest:
                earliest = completion
            self.earliest = earliest
            self.c_allocations.value += 1
            self.c_fills.value += 1
        # -- _install(line, completion, dirty_mask), inlined; single
        # victim scan (see _Kernel2L.fill_line) --
        base = ((((line >> 4) << 3) | (line & 7)) % self.num_sets) \
            * self.assoc
        meta = self.meta
        free = base
        best = meta[base]
        for slot in range(base + 1, base + self.assoc):
            m = meta[slot]
            if m < best:
                best = m
                free = slot
        if best & 1:
            victim = self.tags[free]
            del self.slot_of[victim]
            self.c_evictions.value += 1
            vmask = (best >> 8) & 0xFF
            if vmask:
                self.c_writebacks_out.value += 1
                self.lower.writeback_line(victim, vmask, completion)
        stamp = self.age[0]
        if stamp >= AGE_LIMIT:
            self._compact_ages()
            stamp = self.age[0]
        self.age[0] = stamp + 1
        self.tags[free] = line
        meta[free] = (stamp << 16) | ((dirty_mask & 0xFF) << 8) | 1
        self.slot_of[line] = free
        done = completion + self.data_latency
        if done > now:
            self.ready_at[line] = done
        return done, level

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line: int, now: int, width):
        self.c_fetch_requests.value += 1
        self.c_tag_probes.value += 1
        slot = self.slot_of.get(line)
        if slot is not None:
            # Inlined touch + data-ready hit path.
            meta = self.meta
            stamp = self.age[0]
            if stamp >= AGE_LIMIT:
                self._compact_ages()
                stamp = self.age[0]
            self.age[0] = stamp + 1
            meta[slot] = (meta[slot] & _META_LOW) | (stamp << 16)
            completion = now + self.hit_latency
            ready = self.ready_at.get(line)
            if ready is not None:
                if ready <= now:
                    del self.ready_at[line]
                else:
                    self.c_early_hit_waits.value += 1
                    completion = ready + self.hit_latency
            result = completion, self.level_index
        else:
            result = self.get_line_miss(line, now, width, 0)
        if self.prefetch_enabled:
            self._train(line, now)
        return result

    def writeback_line(self, line: int, dirty_mask: int, now: int) -> int:
        self.c_writebacks_in.value += 1
        self.c_tag_probes.value += 1
        slot = self.slot_of.get(line)
        if slot is not None:
            self.meta[slot] |= dirty_mask << 8
            self._touch(slot)
        else:
            self.install(line, now, dirty_mask)
        return now + self.tag_latency

    # -- internals ----------------------------------------------------------

    def _train(self, line: int, now: int) -> None:
        """LLC-placed stride prefetcher, trained on the miss stream."""
        addr = ((line >> 4) << 9) | ((line & 7) << 6)
        for pline in self.prefetcher.observe(0, addr):
            if pline in self.slot_of:
                continue
            if self._outstanding(pline, now) is not None:
                continue
            completion, _ = self.fetch_below(pline, now, _VECTOR)
            self.install(pline, completion, 0)
            done = completion + self.data_latency
            if done > now:
                self.ready_at[pline] = done
            self.c_prefetch_fills.value += 1

    def fetch_below(self, line: int, now: int, width):
        """``_fetch_below`` over the private MSHR (prefetch fills only;
        demand misses run the inlined copy in :meth:`get_line_miss`)."""
        self._mshr_retire(now)
        pending_at = self.pending_at
        in_flight = pending_at.get(line)
        if in_flight is not None:
            self.c_mshr_coalesced.value += 1
            return ((in_flight if in_flight > now else now),
                    self.pending_lvl[line])
        issue = now
        while len(pending_at) >= self.mshr_capacity:
            stall_until = min(pending_at.values())
            if stall_until > issue:
                issue = stall_until
            self.c_full_stalls.value += 1
            self._mshr_retire(stall_until)
        completion, level = self.lower.fetch_line(line, issue, width)
        self._mshr_insert(line, completion, level, issue)
        return completion, level

    def install(self, line: int, now: int, dirty_mask: int) -> None:
        base = self._set_base(line)
        meta = self.meta
        # Single victim scan (see _Kernel2L.install).
        free = base
        best = meta[base]
        for slot in range(base + 1, base + self.assoc):
            if meta[slot] < best:
                best = meta[slot]
                free = slot
        if best & 1:
            victim = self.tags[free]
            del self.slot_of[victim]
            mask = (best >> 8) & 0xFF
            self.c_evictions.value += 1
            if mask:
                self.c_writebacks_out.value += 1
                self.lower.writeback_line(victim, mask, now)
        self.tags[free] = line
        meta[free] = (self._stamp() << 16) | ((dirty_mask & 0xFF) << 8) | 1
        self.slot_of[line] = free


class _Kernel2P2L(_FlatStore):
    """Flat-store mirror of :class:`repro.cache.cache_2p2l.Cache2P2L`.

    One slot per 512-byte 2-D block: ``tags`` holds the tile id,
    ``meta`` only the valid bit and LRU stamp, and two parallel lists
    pack each block's per-line state into 16-bit words in the
    :func:`repro.cache.cache_2p2l.pack_block_word` layout — bit
    ``line & 15`` (rows in bits 0-7, columns in 8-15) in ``present``
    gates sparse fills and cross-direction hits, the same bit in
    ``dirty`` drives per-line writeback accounting on eviction.
    Covered only as the last level, so only the inter-level protocol
    (``fetch_line`` / ``writeback_line``) is mirrored; the Design 3
    ``access`` path stays on the reference engines.
    """

    __slots__ = (
        "sparse", "write_extra", "present", "dirty",
        "c_cross_direction_hits", "c_partial_block_hits",
        "c_writebacks_in", "c_writebacks_out", "c_dense_fill_lines",
        "c_evictions",
    )

    def __init__(self, level) -> None:
        super().__init__(level)
        cfg = self.cfg
        self.sparse = cfg.sparse_fill
        self.write_extra = cfg.write_extra_latency
        nslots = cfg.num_sets * cfg.assoc
        self.present: List[int] = [0] * nslots
        self.dirty: List[int] = [0] * nslots
        stats = level.stats
        self.c_cross_direction_hits = \
            stats.counter("cross_direction_hits")
        self.c_partial_block_hits = stats.counter("partial_block_hits")
        self.c_writebacks_in = stats.counter("writebacks_in")
        self.c_writebacks_out = stats.counter("writebacks_out")
        self.c_dense_fill_lines = stats.counter("dense_fill_lines")
        self.c_evictions = stats.counter("evictions")

    # -- inter-level protocol ------------------------------------------------

    def fetch_line(self, line: int, now: int, width):
        self.c_fetch_requests.value += 1
        self.c_tag_probes.value += 1
        slot = self.slot_of.get(line >> 4)
        if slot is not None:
            presence = self.present[slot]
            bit = 1 << (line & 15)
            if presence & bit:
                return (self._hit_completion(line, slot, now)
                        + self.hit_latency, self.level_index)
            if (presence & 0xFF) == 0xFF or (presence >> 8) == 0xFF:
                # Every word is resident via the other direction; the
                # crosspoint array streams it out either way.
                self.present[slot] = presence | bit
                self._touch(slot)
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
        slot = self.slot_of.get(tile)
        if slot is None:
            slot = self._allocate_slot(tile, now)
            if not self.sparse:
                self._fill_whole_block(slot, tile, (line >> 3) & 1,
                                       now, line & 7)
        else:
            self._touch(slot)
        bit = 1 << (line & 15)
        self.present[slot] |= bit
        self.dirty[slot] |= bit
        return now + self.tag_latency + self.write_extra

    # -- internals ----------------------------------------------------------

    def _fetch_below(self, line: int, now: int, width):
        """``MshrFile.fetch_slot(..., ordered=True)`` + fetch + record.

        Unlike :meth:`_Kernel2L.fill_line`, this sweeps retired
        entries *eagerly* at every call: dense fills chain fetches at
        horizon times far ahead of the CPU clock, so call times are
        not monotonic, and the object path's eager retirement is
        permanent at the high-water mark — a lazy same-``now`` filter
        would resurrect long-retired entries for the capacity check
        and stall spuriously.  The sweep self-gates on the ``earliest``
        bound, so it stays O(1) when nothing can have retired.
        """
        self._mshr_retire(now)
        pending_at = self.pending_at
        completion = pending_at.get(line)
        if completion is not None:
            self.c_mshr_coalesced.value += 1
            return ((completion if completion > now else now),
                    self.pending_lvl[line])
        issue = now
        if pending_at:
            # 2-D ordering: perpendicular outstanding fills of the
            # same tile hold this one back.
            perp_key = (line >> 3) ^ 1
            if self.pending_tiles.get(perp_key):
                c_blocks = self.c_ordering_blocks
                for other, at in pending_at.items():
                    if other >> 3 == perp_key:
                        if at > issue:
                            issue = at
                        c_blocks.value += 1
                if issue > now:
                    self._mshr_retire(issue)
            c_stalls = self.c_full_stalls
            while len(pending_at) >= self.mshr_capacity:
                stall_until = min(pending_at.values())
                if stall_until > issue:
                    issue = stall_until
                c_stalls.value += 1
                self._mshr_retire(stall_until)
        completion, level = self.lower.fetch_line(line, issue, width)
        self._mshr_insert(line, completion, level, issue)
        return completion, level

    def _fill_block_line(self, line: int, now: int, width):
        """``_fill_line_into_block``: allocate/touch, fetch, mark."""
        tile = line >> 4
        slot = self.slot_of.get(tile)
        if slot is None:
            slot = self._allocate_slot(tile, now)
        else:
            self._touch(slot)
        completion, level = self._fetch_below(line, now, width)
        # Filling writes the crosspoint array; asymmetric technologies
        # pay their write latency here.
        completion += self.write_extra
        self.present[slot] |= 1 << (line & 15)
        ready = completion + self.data_latency
        if ready > now:
            self.ready_at[line] = ready
        if not self.sparse:
            self._fill_whole_block(slot, tile, (line >> 3) & 1,
                                   completion, line & 7)
        return completion, level

    def _fill_whole_block(self, slot: int, tile: int, orient_bit: int,
                          now: int, skip_index: int) -> None:
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
        self.present[slot] = 0xFFFF

    def _allocate_slot(self, tile: int, now: int) -> int:
        """Victim scan + insert (``_allocate_block`` mirror)."""
        base = (tile % self.num_sets) * self.assoc
        meta = self.meta
        free = base
        best = meta[base]
        for slot in range(base + 1, base + self.assoc):
            m = meta[slot]
            if m < best:
                best = m
                free = slot
        if best & 1:
            victim = self.tags[free]
            del self.slot_of[victim]
            self._evict_slot(free, victim, now)
        self.tags[free] = tile
        meta[free] = (self._stamp() << 16) | 1
        self.present[free] = 0
        self.dirty[free] = 0
        self.slot_of[tile] = free
        return free

    def _evict_slot(self, slot: int, tile: int, now: int) -> None:
        """Write back every dirty line of the victim block.

        Never-filled lines have no dirty bits, so sparse blocks elide
        their writeback automatically.  Rows drain before columns,
        ascending in-tile index — the object path's exact order.
        """
        self.c_evictions.value += 1
        dirty_word = self.dirty[slot]
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

    Built from (and sharing every statistics cell, MSHR file, and the
    memory port with) an already-constructed :class:`CacheHierarchy`
    whose design :func:`supports` covers.
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
            # A lower level's hit path may be served inline by the
            # upper level's fill paths only when it has no side
            # effects beyond touch/ready bookkeeping: _Kernel2P2L is
            # excluded (cross-direction and partial-block branches),
            # as is a prefetching _Kernel1L.
            if isinstance(lower, _Kernel2L) or (
                    isinstance(lower, _Kernel1L)
                    and not lower.prefetch_enabled):
                upper.lower_store = lower
                upper.lower_slots_get = lower.slot_of.get
        self.levels[-1].lower = hierarchy.port
        predictor = getattr(hierarchy.l1, "predictor", None)
        self.l1_predictor = _FlatPredictor(predictor) \
            if predictor is not None else None

    def replay(self, trace, cpu_config, cpu_group) -> int:
        """Drive a packed trace through the kernel; returns cycles."""
        if isinstance(self.levels[0], _Kernel2L):
            if self.l1_predictor is not None:
                return _replay_2l_dyn(self, trace, cpu_config,
                                      cpu_group)
            return _replay_2l(self, trace, cpu_config, cpu_group)
        return _replay_1l(self, trace, cpu_config, cpu_group)


def _flush_shared(cpu_group, l1, ops, now, stalled, tracked,
                  hits, misses, probes, demand, hist) -> None:
    """Fold the loop-local accumulators into the shared stat cells."""
    cpu_group.set("ops", ops)
    cpu_group.set("cycles", now)
    cpu_group.set("stall_cycles", stalled)
    cpu_group.counter("read_misses_tracked").value += tracked
    l1.c_hits.value += hits
    l1.c_misses.value += misses
    l1.c_tag_probes.value += probes
    cells = l1.demand_cells
    for index, count in enumerate(demand):
        if count:
            for cell in cells[index]:
                cell.value += count
    for bucket, count in enumerate(hist):
        if count:
            cpu_group.set(LAT_HIST_KEYS[bucket], count)


class _Span2L:
    """Carried state of a ranged fused 2-D replay.

    One instance spans one logical replay: the clock, the cumulative
    stall cycles, the outstanding-read heap, the latency histogram,
    and the loop-local counters :func:`_flush_shared` folds at the
    end.  :func:`_replay_2l` and :func:`_replay_1l` thread one
    instance through a single full-trace span.
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


def _replay_2l(engine: KernelEngine, trace, cpu_config,
               cpu_group) -> int:
    """Fused replay over a logically 2-D (1P2L) L1.

    Predecodes, replays the whole trace as one span, then drains the
    outstanding window, runs the hierarchy's posted-write horizon, and
    folds the carried counters into the shared cells.
    """
    l1 = engine.levels[0]
    packed, demand = _predecode_2l(trace.words)
    state = _Span2L()
    _replay_2l_span(engine, packed, 0, len(packed), cpu_config, state)
    now = state.now
    window = state.window
    while window:
        earliest = heappop(window)
        if earliest > now:
            now = earliest
    horizon = engine.hierarchy.finish(now)
    if horizon > now:
        now = horizon
    _flush_shared(cpu_group, l1, len(trace), now, state.stalled,
                  state.n_tracked, state.n_hits, state.n_misses,
                  state.n_probes, demand, state.hist)
    return now


def _replay_2l_span(engine: KernelEngine, packed, start, stop,
                    cpu_config, state) -> None:
    """Replay predecoded requests ``[start, stop)``, carrying ``state``.

    One function, local-variable bindings only: the four request modes
    dispatch on two packed-word bits, the plain-hit cases complete
    inline against the flat stores, and only misses and duplicate-copy
    cases drop into the (still flat) slow-path methods.  The shared
    counter cells are exact after every call (the span-local
    accumulators fold on exit), so spans interleave freely with other
    exact replay steps against the same engine.
    """
    l1 = engine.levels[0]
    now = state.now
    stalled = state.stalled
    window = state.window
    hist = state.hist
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    cfg = l1.cfg
    pipelined = cfg.hit_latency + 3 * cfg.tag_latency
    hit_latency = l1.hit_latency
    swrite_latency = 2 * l1.tag_latency + l1.data_write_latency
    vwrite_latency = 9 * l1.tag_latency + l1.data_write_latency
    hb_hit = hit_latency.bit_length()
    hb_sw = swrite_latency.bit_length()
    hb_vw = vwrite_latency.bit_length()
    slots_get = l1.slot_of.get
    meta_arr = l1.meta
    ready_at = l1.ready_at
    ready_get = ready_at.get
    tile_get = l1.tile_count.get
    age_cell = l1.age
    age_limit = AGE_LIMIT
    compact = l1._compact_ages
    c_early = l1.c_early_hit_waits
    scalar_read_tail = l1.scalar_read_tail
    scalar_write_tail = l1.scalar_write_tail
    vector_write_tail = l1.vector_write_tail
    data_latency = l1.data_latency
    vprobe_cost = 9 * l1.tag_latency
    vector = _VECTOR
    # Bindings for the fully inlined vector-read miss fill (the
    # dominant miss type): L1 fill state, its MSHR file, and the
    # lower level's hit fast path.
    lower_fetch = l1.lower.fetch_line
    lower_writeback = l1.lower.writeback_line
    clean = l1.clean_intersecting
    pending_at = l1.pending_at
    pending_get = pending_at.get
    pending_lvl = l1.pending_lvl
    pending_tiles = l1.pending_tiles
    ptiles_get = pending_tiles.get
    mshr_cap = l1.mshr_capacity
    l1_retire = l1._mshr_retire
    c_blocks = l1.c_ordering_blocks
    c_stalls = l1.c_full_stalls
    c_wb_out = l1.c_writebacks_out
    tile_count = l1.tile_count
    tags_arr = l1.tags
    slots = l1.slot_of
    same_set = l1.same_set
    num_sets = l1.num_sets
    assoc = l1.assoc
    l2 = l1.lower_store
    l2slots_get = l1.lower_slots_get
    if l2 is not None:
        l2_meta = l2.meta
        l2_age = l2.age
        l2_compact = l2._compact_ages
        l2_ready = l2.ready_at
        l2_ready_get = l2_ready.get
        l2_hit_latency = l2.hit_latency
        l2_level = l2.level_index
        l2_c_early = l2.c_early_hit_waits
    n_coal = n_new_fills = n_evict = n_l2_serves = 0
    lvl1 = l1.level_index
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
            slot = slots_get(line)
            if slot is not None:
                n_probes += 1
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (stamp << 16)
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
                # vector_read_tail + fill_line, fully inlined for the
                # dominant miss type: nine probes, clean gate, MSHR
                # transaction, lower fetch (hit served in place),
                # install/evict — all on the local bindings above.
                n_probes += 9
                fnow = now + vprobe_cost
                if tile_get((line >> 3) ^ 1):
                    clean(line, fnow)
                l1_retire(fnow)
                completion = pending_get(line)
                if completion is not None:
                    n_coal += 1
                    level = pending_lvl[line]
                else:
                    issue = fnow
                    if pending_at:
                        perp_key = (line >> 3) ^ 1
                        if ptiles_get(perp_key):
                            for other, at in pending_at.items():
                                if other >> 3 == perp_key:
                                    if at > issue:
                                        issue = at
                                    c_blocks.value += 1
                            if issue > fnow:
                                l1_retire(issue)
                        while len(pending_at) >= mshr_cap:
                            stall_until = min(pending_at.values())
                            if stall_until > issue:
                                issue = stall_until
                            c_stalls.value += 1
                            l1_retire(stall_until)
                    lslot = l2slots_get(line) \
                        if l2slots_get is not None else None
                    if lslot is not None:
                        n_l2_serves += 1
                        lstamp = l2_age[0]
                        if lstamp >= age_limit:
                            l2_compact()
                            lstamp = l2_age[0]
                        l2_age[0] = lstamp + 1
                        l2_meta[lslot] = (l2_meta[lslot] & 0xFFFF) \
                            | (lstamp << 16)
                        level = l2_level
                        completion = issue + l2_hit_latency
                        lready = l2_ready_get(line)
                        if lready is not None:
                            if lready <= issue:
                                del l2_ready[line]
                            else:
                                l2_c_early.value += 1
                                completion = lready + l2_hit_latency
                    else:
                        completion, level = lower_fetch(line, issue,
                                                        vector)
                    pending_at[line] = completion
                    pending_lvl[line] = level
                    tkey = line >> 3
                    cnt = ptiles_get(tkey)
                    pending_tiles[tkey] = 1 if cnt is None else cnt + 1
                    earliest = l1.earliest
                    if earliest is None or issue < earliest:
                        earliest = issue
                    if completion < earliest:
                        earliest = completion
                    l1.earliest = earliest
                    n_new_fills += 1
                if same_set:
                    number = line >> 4
                else:
                    number = (line >> 4) + (line & 7)
                base = (number % num_sets) * assoc
                free = base
                best = meta_arr[base]
                for s in range(base + 1, base + assoc):
                    mm = meta_arr[s]
                    if mm < best:
                        best = mm
                        free = s
                if best & 1:
                    victim = tags_arr[free]
                    del slots[victim]
                    vkey = victim >> 3
                    cnt = tile_count[vkey] - 1
                    if cnt:
                        tile_count[vkey] = cnt
                    else:
                        del tile_count[vkey]
                    n_evict += 1
                    vmask = (best >> 8) & 0xFF
                    if vmask:
                        c_wb_out.value += 1
                        lower_writeback(victim, vmask, completion)
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                tags_arr[free] = line
                meta_arr[free] = (stamp << 16) | ((line >> 2) & 2) | 1
                slots[line] = free
                tkey = line >> 3
                cnt = tile_get(tkey)
                tile_count[tkey] = 1 if cnt is None else cnt + 1
                ready = completion + data_latency
                if ready > fnow:
                    ready_at[line] = ready
                completion += data_latency
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
        elif mode == 0:  # scalar read
            slot = slots_get(line)
            if slot is not None:
                n_probes += 1
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (stamp << 16)
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
            slot = slots_get(line)
            offset = p & 7
            other = (line & -16) | (p & 15)
            if slot is not None and slots_get(other) is None:
                n_probes += 2
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (256 << offset) | (stamp << 16)
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
            slot = slots_get(line)
            if slot is not None and tile_get((line >> 3) ^ 1) is None:
                n_probes += 9
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) | 0xFF00 \
                    | (stamp << 16)
                hist[hb_vw] += 1
                continue
            completion, level = vector_write_tail(line, now)
            if level == lvl1:
                n_hits += 1
            else:
                n_misses += 1
            hist[(completion - now).bit_length()] += 1
    # Fold the inlined-fill accumulators into their shared cells
    # (allocations/fills and the lower level's fetch/probe counts move
    # in lockstep on these paths, so one accumulator serves each pair).
    if n_coal:
        l1.c_mshr_coalesced.value += n_coal
    if n_new_fills:
        l1.c_fills.value += n_new_fills
        l1.c_allocations.value += n_new_fills
    if n_evict:
        l1.c_evictions.value += n_evict
    if n_l2_serves:
        l2.c_fetch_requests.value += n_l2_serves
        l2.c_tag_probes.value += n_l2_serves
    state.now = now
    state.stalled = stalled
    state.n_hits += n_hits
    state.n_misses += n_misses
    state.n_probes += n_probes
    state.n_tracked += n_tracked


def _replay_2l_dyn(engine: KernelEngine, trace, cpu_config,
                   cpu_group) -> int:
    """Fused replay over a dynamic-orientation (1P2L) L1.

    The object path consults the predictor on *every* scalar access —
    hit or miss, before any probe — so the loop trains the flat
    predictor mirror first, swaps the preferred/perpendicular lines
    (and their in-line word offsets) when the prediction overrides the
    static preference, then runs the static loop's fast paths against
    the predicted orientation.  Vector requests never consult the
    predictor and misses drop into the exact (still flat) tail
    methods.  Demand accounting keeps each request's *static*
    attributes: the object path counts demand before predicting.
    """
    l1 = engine.levels[0]
    observe = engine.l1_predictor.observe
    packed, demand = _predecode_2l(trace.words)
    refs = _predecode_refs(trace.words)
    now = 0
    stalled = 0
    window: List[int] = []
    hist = [0] * len(LAT_HIST_KEYS)
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    cfg = l1.cfg
    pipelined = cfg.hit_latency + 3 * cfg.tag_latency
    hit_latency = l1.hit_latency
    swrite_latency = 2 * l1.tag_latency + l1.data_write_latency
    vwrite_latency = 9 * l1.tag_latency + l1.data_write_latency
    hb_hit = hit_latency.bit_length()
    hb_sw = swrite_latency.bit_length()
    hb_vw = vwrite_latency.bit_length()
    slots_get = l1.slot_of.get
    meta_arr = l1.meta
    ready_at = l1.ready_at
    ready_get = ready_at.get
    tile_get = l1.tile_count.get
    age_cell = l1.age
    age_limit = AGE_LIMIT
    compact = l1._compact_ages
    c_early = l1.c_early_hit_waits
    scalar_read_tail = l1.scalar_read_tail
    scalar_write_tail = l1.scalar_write_tail
    vector_read_tail = l1.vector_read_tail
    vector_write_tail = l1.vector_write_tail
    lvl1 = l1.level_index
    n_hits = n_misses = n_probes = n_tracked = 0
    for p, ref in zip(packed, refs):
        line = p >> 7
        mode = (p >> 4) & 3  # is_write | width << 1
        now += issue_cost
        if mode == 2:  # vector read (static orientation throughout)
            slot = slots_get(line)
            if slot is not None:
                n_probes += 1
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (stamp << 16)
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
                completion, level = vector_read_tail(line, now)
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
        elif mode == 3:  # vector write (posted)
            slot = slots_get(line)
            if slot is not None and tile_get((line >> 3) ^ 1) is None:
                n_probes += 9
                n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) | 0xFF00 \
                    | (stamp << 16)
                hist[hb_vw] += 1
                continue
            completion, level = vector_write_tail(line, now)
            if level == lvl1:
                n_hits += 1
            else:
                n_misses += 1
            hist[(completion - now).bit_length()] += 1
        else:
            # Scalar access: train + predict, possibly swapping the
            # probe order.  ``line`` carries the static preference in
            # its orientation bit; ``other`` is the intersecting line.
            static_bit = (line >> 3) & 1
            other = (line & -16) | (p & 15)
            if static_bit:
                predicted = observe(ref, other, line, 1)
            else:
                predicted = observe(ref, line, other, 0)
            if predicted == static_bit:
                pref = line
                oth = other
                pref_offset = p & 7
                oth_offset = line & 7
            else:
                pref = other
                oth = line
                pref_offset = line & 7
                oth_offset = p & 7
            if mode == 0:  # scalar read
                slot = slots_get(pref)
                if slot is not None:
                    n_probes += 1
                    n_hits += 1
                    stamp = age_cell[0]
                    if stamp >= age_limit:
                        compact()
                        stamp = age_cell[0]
                    age_cell[0] = stamp + 1
                    meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                        | (stamp << 16)
                    ready = ready_get(pref)
                    if ready is None:
                        hist[hb_hit] += 1
                        continue
                    if ready <= now:
                        del ready_at[pref]
                        hist[hb_hit] += 1
                        continue
                    c_early.value += 1
                    latency = ready + hit_latency - now
                else:
                    completion, level = scalar_read_tail(pref, oth,
                                                         now)
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
            else:  # scalar write (posted)
                slot = slots_get(pref)
                if slot is not None and slots_get(oth) is None:
                    n_probes += 2
                    n_hits += 1
                    stamp = age_cell[0]
                    if stamp >= age_limit:
                        compact()
                        stamp = age_cell[0]
                    age_cell[0] = stamp + 1
                    meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                        | (256 << pref_offset) | (stamp << 16)
                    hist[hb_sw] += 1
                    continue
                completion, level = scalar_write_tail(
                    pref, oth, 1 << pref_offset, 1 << oth_offset, now)
                if level == lvl1:
                    n_hits += 1
                else:
                    n_misses += 1
                hist[(completion - now).bit_length()] += 1
    while window:
        earliest = heappop(window)
        if earliest > now:
            now = earliest
    horizon = engine.hierarchy.finish(now)
    if horizon > now:
        now = horizon
    _flush_shared(cpu_group, l1, len(trace), now, stalled, n_tracked,
                  n_hits, n_misses, n_probes, demand, hist)
    return now


def _replay_1l(engine: KernelEngine, trace, cpu_config,
               cpu_group) -> int:
    """Fused replay over a conventional (1P1L) L1.

    Predecodes, replays the whole trace as one span, then drains the
    outstanding window, runs the hierarchy's posted-write horizon, and
    folds the carried counters into the shared cells.
    """
    l1 = engine.levels[0]
    packed, demand = _predecode_1l(trace.words)
    state = _Span2L()
    _replay_1l_span(engine, packed, 0, len(packed), cpu_config, state)
    now = state.now
    window = state.window
    while window:
        earliest = heappop(window)
        if earliest > now:
            now = earliest
    horizon = engine.hierarchy.finish(now)
    if horizon > now:
        now = horizon
    _flush_shared(cpu_group, l1, len(trace), now, state.stalled,
                  state.n_tracked, state.n_hits, state.n_misses,
                  state.n_probes, demand, state.hist)
    return now


def _replay_1l_span(engine: KernelEngine, packed, start, stop,
                    cpu_config, state) -> None:
    """Replay 1-D predecoded requests ``[start, stop)`` with ``state``.

    The 1P1L counterpart of :func:`_replay_2l_span`.
    """
    l1 = engine.levels[0]
    now = state.now
    stalled = state.stalled
    window = state.window
    hist = state.hist
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    cfg = l1.cfg
    pipelined = cfg.hit_latency + 3 * cfg.tag_latency
    hit_latency = l1.hit_latency
    write_latency = l1.write_latency
    hb_read = hit_latency.bit_length()
    hb_write = write_latency.bit_length()
    slots_get = l1.slot_of.get
    meta_arr = l1.meta
    ready_at = l1.ready_at
    ready_get = ready_at.get
    age_cell = l1.age
    age_limit = AGE_LIMIT
    compact = l1._compact_ages
    c_early = l1.c_early_hit_waits
    get_line_miss = l1.get_line_miss
    lvl1 = l1.level_index
    scalar, vector = _SCALAR, _VECTOR
    n_hits = n_misses = n_probes = n_tracked = 0
    if start == 0 and stop >= len(packed):
        span = packed
    else:
        span = packed[start:stop]
    for p in span:
        line = p >> 5
        mode = (p >> 3) & 3  # is_write | width << 1
        is_write = mode & 1
        now += issue_cost
        n_probes += 1
        slot = slots_get(line)
        if slot is not None:
            n_hits += 1
            if is_write:
                meta_arr[slot] |= 0xFF00 if mode == 3 \
                    else 256 << (p & 7)
                latency = write_latency
                bucket = hb_write
            else:
                latency = hit_latency
                bucket = hb_read
            stamp = age_cell[0]
            if stamp >= age_limit:
                compact()
                stamp = age_cell[0]
            age_cell[0] = stamp + 1
            meta_arr[slot] = (meta_arr[slot] & 0xFFFF) | (stamp << 16)
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
            if is_write:
                dirty = 0xFF if mode == 3 else 1 << (p & 7)
            else:
                dirty = 0
            completion, level = get_line_miss(
                line, now, vector if mode & 2 else scalar, dirty)
            if level == lvl1:
                n_hits += 1
            else:
                n_misses += 1
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
    state.now = now
    state.stalled = stalled
    state.n_hits += n_hits
    state.n_misses += n_misses
    state.n_probes += n_probes
    state.n_tracked += n_tracked
