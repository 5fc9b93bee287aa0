"""Core value types shared across the MDACache simulator.

The MDA address space is organized around three geometric units:

* a **word** (8 bytes) — the unit of scalar access and of bit-slicing in
  the crosspoint mats (paper Section III);
* a **line** (8 words, 64 bytes) — the unit of transfer between cache
  levels and between the LLC and memory, in either orientation;
* a **tile** (8 lines x 8 lines, 512 bytes) — an aligned 8x8-word square.
  Tiles are the unit of channel/rank/bank interleaving (paper Fig. 8) and
  the unit of allocation in a physically 2-D (2P2L) cache (paper Fig. 7).

Within a tile, the word at tile-local row ``r`` and column ``c`` lives at
byte offset ``(r * 8 + c) * 8``.  A *row line* is therefore 64 contiguous
bytes; a *column line* is 8 words with a 64-byte stride inside the same
512-byte tile.  Both orientations of line stay inside one tile, hence one
bank, which is what lets the MDA memory stream either in a single buffer
operation.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Tuple, Union

# -- Fixed geometry ---------------------------------------------------------
#
# The paper evaluates a single geometry (64-bit words, 64-byte lines,
# 8-line tiles).  We keep these as module constants rather than threading a
# geometry object through every hot path; the derived helpers below are the
# only place the arithmetic lives.

WORD_BYTES = 8
WORDS_PER_LINE = 8
LINE_BYTES = WORD_BYTES * WORDS_PER_LINE          # 64
LINES_PER_TILE = 8
TILE_BYTES = LINE_BYTES * LINES_PER_TILE          # 512
WORDS_PER_TILE = WORDS_PER_LINE * LINES_PER_TILE  # 64

_WORD_SHIFT = 3      # log2(WORD_BYTES)
_LINE_SHIFT = 6      # log2(LINE_BYTES)
_TILE_SHIFT = 9      # log2(TILE_BYTES)


class Orientation(enum.IntEnum):
    """Access/line orientation.

    ``ROW`` means unit stride among consecutive words; ``COLUMN`` means a
    fixed 64-byte stride inside a tile (paper Section III: "in row mode the
    memory provides a set of data words with unit stride, and in column
    mode the memory provides the same quantity of data words with a fixed
    non-unit stride").
    """

    ROW = 0
    COLUMN = 1

    @property
    def other(self) -> "Orientation":
        """The perpendicular orientation."""
        return Orientation.COLUMN if self is Orientation.ROW else Orientation.ROW


class AccessWidth(enum.IntEnum):
    """Scalar (one word) versus vector (a full 8-word line) access."""

    SCALAR = 0
    VECTOR = 1


@dataclass(frozen=True, slots=True)
class Request:
    """A single memory request as seen by the cache hierarchy.

    Attributes:
        addr: byte address of the first word touched.
        orientation: row or column preference carried by the instruction
            (paper Section IV-B: every memory operation has a row and a
            column preference variant).
        width: scalar or vector access.
        is_write: True for stores.
        ref_id: stable identifier of the static reference (stands in for
            the program counter; used by the stride prefetcher).
    """

    addr: int
    orientation: Orientation
    width: AccessWidth
    is_write: bool
    ref_id: int = 0

    @property
    def line_id(self) -> int:
        """Oriented line this request falls in."""
        return line_id_of(self.addr, self.orientation)

    @property
    def word_id(self) -> int:
        """Global word index of the first word touched."""
        return self.addr >> _WORD_SHIFT

    def words(self) -> Tuple[int, ...]:
        """Global word indices touched by this request."""
        if self.width is AccessWidth.SCALAR:
            return (self.word_id,)
        return line_words(self.line_id)


# -- Address arithmetic -----------------------------------------------------

def tile_base(addr: int) -> int:
    """Byte address of the 512-byte tile containing ``addr``."""
    return addr & ~(TILE_BYTES - 1)


def tile_id(addr: int) -> int:
    """Dense index of the tile containing ``addr``."""
    return addr >> _TILE_SHIFT


def tile_coords(addr: int) -> Tuple[int, int]:
    """Tile-local ``(r, c)`` word coordinates of ``addr``."""
    word = (addr & (TILE_BYTES - 1)) >> _WORD_SHIFT
    return word >> 3, word & 7


def word_addr(tile: int, r: int, c: int) -> int:
    """Byte address of word ``(r, c)`` in tile index ``tile``."""
    return (tile << _TILE_SHIFT) | ((r * WORDS_PER_LINE + c) << _WORD_SHIFT)


# Oriented line ids.  A line id is a single int that encodes
# (tile, orientation, index-within-tile); caches key their tag stores on it.
# Layout (LSB first): 3 bits index, 1 bit orientation, then the tile id.

_LINE_ORIENT_BIT = 1 << 3
_LINE_TILE_SHIFT = 4

# Hot paths decode millions of line ids; indexing this tuple avoids the
# cost of Orientation.__call__.
_ORIENT_MEMBERS = (Orientation.ROW, Orientation.COLUMN)


def line_id_of(addr: int, orientation: Orientation) -> int:
    """Oriented line id containing byte address ``addr``."""
    word = (addr & (TILE_BYTES - 1)) >> _WORD_SHIFT
    index = word >> 3 if orientation is Orientation.ROW else word & 7
    return ((addr >> _TILE_SHIFT) << _LINE_TILE_SHIFT) \
        | (int(orientation) << 3) | index


def make_line_id(tile: int, orientation: Orientation, index: int) -> int:
    """Build a line id from its components."""
    return (tile << _LINE_TILE_SHIFT) | (int(orientation) << 3) | index


def line_id_parts(line_id: int) -> Tuple[int, Orientation, int]:
    """Decompose a line id into ``(tile, orientation, index)``."""
    return (line_id >> _LINE_TILE_SHIFT,
            _ORIENT_MEMBERS[(line_id >> 3) & 1],
            line_id & 7)


def line_orientation(line_id: int) -> Orientation:
    """Orientation encoded in a line id."""
    return _ORIENT_MEMBERS[(line_id >> 3) & 1]


def line_base_addr(line_id: int) -> int:
    """Byte address of the first word of an oriented line."""
    tile, orientation, index = line_id_parts(line_id)
    if orientation is Orientation.ROW:
        return word_addr(tile, index, 0)
    return word_addr(tile, 0, index)


@lru_cache(maxsize=65536)
def line_words(line_id: int) -> Tuple[int, ...]:
    """Global word indices covered by an oriented line."""
    tile, orientation, index = line_id_parts(line_id)
    base_word = tile * WORDS_PER_TILE
    if orientation is Orientation.ROW:
        start = base_word + index * WORDS_PER_LINE
        return tuple(range(start, start + WORDS_PER_LINE))
    return tuple(base_word + index + k * WORDS_PER_LINE
                 for k in range(LINES_PER_TILE))


def line_word_offset(line_id: int, word_id: int) -> int:
    """Position (0-7) of global word ``word_id`` within the oriented line.

    Raises:
        ValueError: if the word does not belong to the line.
    """
    tile, orientation, index = line_id_parts(line_id)
    if word_id // WORDS_PER_TILE != tile:
        raise ValueError(f"word {word_id} not in tile of line {line_id}")
    local = word_id % WORDS_PER_TILE
    r, c = local >> 3, local & 7
    if orientation is Orientation.ROW:
        if r != index:
            raise ValueError(f"word {word_id} not in row line {line_id}")
        return c
    if c != index:
        raise ValueError(f"word {word_id} not in column line {line_id}")
    return r


def intersecting_line(line_id: int, word_id: int) -> int:
    """Line id of the perpendicular line through ``word_id``'s tile cell.

    Every word belongs to exactly one row line and one column line of its
    tile; given one of them, this returns the other.  This is the
    "intersecting cache line" relation behind the 1P2L duplication policy
    (paper Fig. 9).
    """
    tile, orientation, _ = line_id_parts(line_id)
    local = word_id % WORDS_PER_TILE
    r, c = local >> 3, local & 7
    if orientation is Orientation.ROW:
        return make_line_id(tile, Orientation.COLUMN, c)
    return make_line_id(tile, Orientation.ROW, r)


@lru_cache(maxsize=65536)
def perpendicular_lines(line_id: int) -> Tuple[int, ...]:
    """The eight perpendicular lines crossing an oriented line."""
    tile, orientation, _ = line_id_parts(line_id)
    return tuple(make_line_id(tile, orientation.other, k)
                 for k in range(LINES_PER_TILE))


def lines_overlap(a: int, b: int) -> bool:
    """True if oriented lines ``a`` and ``b`` share at least one word.

    Same-orientation lines overlap only when identical; perpendicular
    lines overlap exactly when they live in the same tile.
    """
    if a == b:
        return True
    tile_a, orient_a, _ = line_id_parts(a)
    tile_b, orient_b, _ = line_id_parts(b)
    return tile_a == tile_b and orient_a is not orient_b


def iter_line_addrs(line_id: int) -> Iterator[int]:
    """Byte addresses of each word of an oriented line, in order."""
    for word in line_words(line_id):
        yield word << _WORD_SHIFT


# -- Packed trace encoding ---------------------------------------------------
#
# A trace is millions of requests, each of which fits comfortably in one
# 64-bit word; storing them as ``array('Q')`` instead of a tuple of
# frozen dataclasses cuts the memory footprint ~30x and lets the replay
# loop (:meth:`repro.core.cpu.TraceDrivenCpu.run_packed`) decode fields
# with two shifts and a mask instead of attribute lookups.
#
# Word layout (LSB first):
#
#   bits  0-15  ref_id        (static reference id, < 65536)
#   bit     16  is_write
#   bit     17  width         (0 scalar, 1 vector)
#   bit     18  orientation   (0 row, 1 column)
#   bits 19-63  word address  (addr >> 3; addresses are word-aligned)
#
# Keeping the address in the high bits makes the common decode —
# ``word_id = w >> 19`` — a single shift.

PACKED_REF_BITS = 16
PACKED_REF_LIMIT = 1 << PACKED_REF_BITS
_PACKED_ADDR_SHIFT = 3 + PACKED_REF_BITS  # 19
#: Largest encodable byte address (45 address bits above the word shift).
PACKED_ADDR_LIMIT = 1 << (64 - _PACKED_ADDR_SHIFT + _WORD_SHIFT)

_WIDTH_MEMBERS = (AccessWidth.SCALAR, AccessWidth.VECTOR)


def pack_request(req: Request) -> int:
    """Encode a request into its 64-bit packed-trace word.

    Raises:
        ValueError: address not word-aligned / out of range, or ref_id
            outside the 16-bit field.
    """
    addr = req.addr
    if addr & 7 or not 0 <= addr < PACKED_ADDR_LIMIT:
        raise ValueError(
            f"address {addr:#x} not packable (word-aligned, "
            f"< {PACKED_ADDR_LIMIT:#x})")
    ref_id = req.ref_id
    if not 0 <= ref_id < PACKED_REF_LIMIT:
        raise ValueError(
            f"ref_id {ref_id} does not fit in {PACKED_REF_BITS} bits")
    return ((addr >> _WORD_SHIFT) << _PACKED_ADDR_SHIFT) \
        | (req.orientation << 18) | (req.width << 17) \
        | (bool(req.is_write) << 16) | ref_id


def unpack_request(word: int) -> Request:
    """Decode one packed-trace word back into a :class:`Request`."""
    return Request(
        addr=(word >> _PACKED_ADDR_SHIFT) << _WORD_SHIFT,
        orientation=_ORIENT_MEMBERS[(word >> 18) & 1],
        width=_WIDTH_MEMBERS[(word >> 17) & 1],
        is_write=bool(word & (1 << 16)),
        ref_id=word & (PACKED_REF_LIMIT - 1))


class PackedTrace:
    """A request trace stored one 64-bit word per request.

    The payload lives in a single flat buffer of 64-bit words
    (``words``): either an owning ``array('Q')`` or a read-only
    ``memoryview`` cast to format ``'Q'`` over someone else's storage —
    in particular an ``mmap`` of a trace-store entry, which makes a
    loaded trace a zero-copy window onto the page cache that forked
    workers share without duplication.  Every consumer reaches the
    payload through the buffer protocol (``numpy.frombuffer``) or
    plain indexing/iteration, which both forms support identically.
    Iterating decodes to :class:`Request` objects for compatibility
    with the object path; the fast path hands ``words`` straight to
    the replay loop.  Pickling always materializes (a view is not
    picklable), so a mapped trace round-trips as an owning one.
    """

    __slots__ = ("words",)

    def __init__(self,
                 words: Union[array, memoryview, None] = None) -> None:
        if words is None:
            words = array("Q")
        elif isinstance(words, memoryview):
            if words.format != "Q":
                raise ValueError(
                    "PackedTrace needs a memoryview cast to 'Q', "
                    f"got format {words.format!r}")
        elif words.typecode != "Q":
            raise ValueError(
                f"PackedTrace needs array('Q'), got {words.typecode!r}")
        self.words = words

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "PackedTrace":
        return cls(array("Q", map(pack_request, requests)))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PackedTrace":
        """Rebuild from :meth:`to_bytes` output (little-endian words)."""
        words = array("Q")
        words.frombytes(payload)
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts
            words.byteswap()
        return cls(words)

    def to_bytes(self) -> bytes:
        """The payload as little-endian bytes (platform-independent)."""
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts
            swapped = array("Q", self.words)
            swapped.byteswap()
            return swapped.tobytes()
        return self.words.tobytes()

    def __reduce__(self):
        # A memoryview payload (mmap-backed zero-copy load) is not
        # picklable; both forms round-trip through the portable bytes
        # encoding and unpickle as an owning trace.
        return (PackedTrace.from_bytes, (self.to_bytes(),))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Request]:
        return map(unpack_request, self.words)

    def __getitem__(self, index: int) -> Request:
        return unpack_request(self.words[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self.words == other.words

    def __repr__(self) -> str:
        return f"PackedTrace({len(self.words)} requests)"


_BIG_ENDIAN = array("Q", [1]).tobytes()[0] == 0


# -- Trace sharding ----------------------------------------------------------
#
# A long packed trace can replay as N *epochs*: contiguous segments,
# each starting from a cold hierarchy (the context-switch model), whose
# per-epoch stats merge by plain summation.  The segment boundaries are
# part of the experiment's identity — ``shards=1`` is the classic
# uninterrupted replay — so they must be a pure function of
# ``(total, shards)``.  Interior boundaries snap down to a fixed
# quantum, which is part of that identity: changing it would move the
# epoch edges of every sharded result.

#: Shard-boundary quantum, in requests.
WINDOW_ALIGN = 4096


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Deterministic split of ``total`` requests into replay epochs.

    ``bounds`` has one more entry than there are shards; shard ``i``
    replays requests ``[bounds[i], bounds[i+1])``.  Invariants (checked
    on construction): bounds start at 0, end at ``total``, are strictly
    increasing (no empty shard, except the single empty shard of an
    empty trace), and every interior bound is a ``WINDOW_ALIGN``
    multiple.
    """

    total: int
    bounds: Tuple[int, ...]

    def __post_init__(self) -> None:
        bounds = self.bounds
        if self.total < 0:
            raise ValueError(f"negative trace length {self.total}")
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != self.total:
            raise ValueError(
                f"bounds {bounds} must run from 0 to {self.total}")
        for prev, nxt in zip(bounds, bounds[1:]):
            if prev >= nxt and self.total:
                raise ValueError(f"bounds {bounds} not increasing")
        for bound in bounds[1:-1]:
            if bound % WINDOW_ALIGN:
                raise ValueError(
                    f"interior bound {bound} not aligned to "
                    f"{WINDOW_ALIGN}")

    @classmethod
    def plan(cls, total: int, shards: int) -> "ShardPlan":
        """Split ``total`` requests into at most ``shards`` epochs.

        Ideal equal splits are snapped down to the alignment quantum;
        short traces yield fewer epochs than requested (never an empty
        one).  ``plan(n, 1)`` is always the single full-trace epoch.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        bounds = [0]
        for i in range(1, shards):
            cut = (i * total // shards) // WINDOW_ALIGN * WINDOW_ALIGN
            if cut > bounds[-1] and cut < total:
                bounds.append(cut)
        bounds.append(total)
        return cls(total, tuple(bounds))

    @property
    def shards(self) -> int:
        return len(self.bounds) - 1

    def slices(self) -> Iterator[Tuple[int, int]]:
        """The ``(start, stop)`` request range of each epoch, in order."""
        return iter(zip(self.bounds, self.bounds[1:]))

    def to_bytes(self) -> bytes:
        """Serialize (little-endian u64 words: total, then bounds)."""
        words = array("Q", [self.total, *self.bounds])
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts
            words.byteswap()
        return words.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ShardPlan":
        """Inverse of :meth:`to_bytes` (same invariant checks)."""
        words = array("Q")
        words.frombytes(payload)
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts
            words.byteswap()
        if len(words) < 3:
            raise ValueError("shard plan payload too short")
        return cls(words[0], tuple(words[1:]))


@dataclass(slots=True)
class AccessResult:
    """Outcome of one request against the cache hierarchy.

    Attributes:
        latency: cycles from issue until the critical word is available.
        hit_level: 1-based cache level that served the request, or 0 when
            it was served by main memory.
    """

    latency: int
    hit_level: int = 0
    coalesced: bool = field(default=False)
