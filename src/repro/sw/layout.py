"""Memory layouts: linear row-major and MDA-compliant tiled.

Paper Section V, second bullet: the compiler must "match the dimension
sizes of the array data structures to the dimensions of the MDA memory"
via intra-array padding, so that elements in the same logical column
"map to the same column in the MDA memory structure".

In this model the physical address space is itself organized in aligned
512-byte tiles (see :mod:`repro.common.types`), so MDA compliance means
a **tiled layout**: pad both dimensions to multiples of 8 and place each
8x8 element tile of the array in one physical tile.  The conventional
**linear layout** is plain row-major (padded only to line alignment) —
the "1-D optimized" layout every logically 1-D experiment uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List

from ..common.errors import AddressError, ProgramError
from ..common.types import (
    LINE_BYTES,
    TILE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    WORDS_PER_TILE,
)
from .program import ArrayDecl


def _round_up(value: int, multiple: int) -> int:
    return (value + multiple - 1) // multiple * multiple


@dataclass(frozen=True)
class ArrayAddressing:
    """How a layout places one array, as per-array word parameters.

    Both layouts place element ``(i, j)`` at word address
    ``base + (i >> 3) * row_block + (i & 7) * row_step
    + (j >> 3) * col_block + (j & 7) * col_step`` (the byte address is
    that times 8), so moving ``i`` and ``j`` by ``(8 * di, 8 * dj)``
    moves the word by ``di * row_block + dj * col_block`` wherever the
    element sits.  The trace emitter relies on that to turn every
    8-lane group of a loop into an arithmetic progression.
    """

    rows: int
    cols: int
    base: int
    row_block: int
    row_step: int
    col_block: int
    col_step: int

    def word(self, i: int, j: int) -> int:
        """Word address of in-bounds element ``(i, j)`` (unchecked)."""
        return (self.base + (i >> 3) * self.row_block
                + (i & 7) * self.row_step + (j >> 3) * self.col_block
                + (j & 7) * self.col_step)


class Layout(abc.ABC):
    """Maps (array, i, j) to physical byte addresses."""

    def __init__(self, arrays: List[ArrayDecl]) -> None:
        self._arrays: Dict[str, ArrayDecl] = {}
        for decl in arrays:
            if decl.name in self._arrays:
                raise ProgramError(f"duplicate array {decl.name!r}")
            self._arrays[decl.name] = decl
        self._addressing: Dict[str, ArrayAddressing] = {}

    def addressing(self, array: str) -> ArrayAddressing:
        """The address parameters of ``array``.

        Raises:
            AddressError: the layout does not map ``array``.
        """
        try:
            return self._addressing[array]
        except KeyError:
            raise AddressError(f"unknown array {array!r}") from None

    def address_of(self, array: str, i: int, j: int) -> int:
        """Physical byte address of element ``array[i][j]``.

        Raises:
            AddressError: unknown array, or ``(i, j)`` out of bounds.
        """
        place = self.addressing(array)
        if not (0 <= i < place.rows and 0 <= j < place.cols):
            raise AddressError(
                f"{array}[{i}][{j}] out of bounds "
                f"({place.rows}x{place.cols})")
        return place.word(i, j) * WORD_BYTES

    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Total mapped bytes, padding included."""

    def data_bytes(self) -> int:
        """Bytes of live data (padding excluded)."""
        return sum(a.elements * WORD_BYTES for a in self._arrays.values())

    def padding_bytes(self) -> int:
        return self.footprint_bytes() - self.data_bytes()


class LinearLayout(Layout):
    """Row-major, line-aligned arrays — the 1-D optimized layout."""

    def __init__(self, arrays: List[ArrayDecl]) -> None:
        super().__init__(arrays)
        cursor = 0
        for decl in arrays:
            # Pad the pitch to a whole line so rows are vector-aligned.
            # Deliberately *no* conflict-avoiding padding beyond that:
            # the paper's 1-D layout is plain "row-major (as in
            # C-language)", whose power-of-two pitches give column
            # walks the classic set-conflict pathology — part of what
            # MDA caching rescues (see EXPERIMENTS.md fidelity notes).
            pitch = _round_up(decl.cols, WORDS_PER_LINE)
            self._addressing[decl.name] = ArrayAddressing(
                decl.rows, decl.cols, cursor // WORD_BYTES,
                row_block=8 * pitch, row_step=pitch,
                col_block=8, col_step=1)
            cursor += _round_up(decl.rows * pitch * WORD_BYTES, LINE_BYTES)
        self._footprint = cursor

    def pitch_words(self, array: str) -> int:
        return self.addressing(array).row_step

    def footprint_bytes(self) -> int:
        return self._footprint


class TiledLayout(Layout):
    """MDA-compliant tiled layout (intra-array padding to 8x8 tiles).

    Element ``(i, j)`` lands in the physical tile at grid position
    ``(i // 8, j // 8)`` of its array, at in-tile coordinates
    ``(i % 8, j % 8)`` — so each logical 8-row column segment is one
    column line and each logical 8-element row segment is one row line.
    """

    def __init__(self, arrays: List[ArrayDecl]) -> None:
        super().__init__(arrays)
        cursor = 0  # in tiles
        for decl in arrays:
            tile_rows = _round_up(decl.rows, 8) // 8
            tile_cols = _round_up(decl.cols, 8) // 8
            self._addressing[decl.name] = ArrayAddressing(
                decl.rows, decl.cols, cursor * WORDS_PER_TILE,
                row_block=tile_cols * WORDS_PER_TILE,
                row_step=WORDS_PER_LINE,
                col_block=WORDS_PER_TILE, col_step=1)
            cursor += tile_rows * tile_cols
        self._footprint = cursor * TILE_BYTES

    def tile_of(self, array: str, i: int, j: int) -> int:
        """Tile index holding element (i, j) (for tests)."""
        return self.address_of(array, i, j) // TILE_BYTES

    def footprint_bytes(self) -> int:
        return self._footprint


def make_layout(arrays: List[ArrayDecl], logical_dims: int) -> Layout:
    """The paper's rule: layout always matches the hierarchy's logical
    dimensionality ("we will always use the memory layout optimized for
    the appropriate logical dimensionality of the cache hierarchy")."""
    if logical_dims == 2:
        return TiledLayout(arrays)
    return LinearLayout(arrays)
