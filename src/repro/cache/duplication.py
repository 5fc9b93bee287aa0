"""Duplicate-copy bookkeeping for logically 2-D caches (paper Fig. 9).

In a 1P2L cache a word can be resident in two intersecting lines (one
row, one column).  The paper's writeback-based policy allows duplication
only while every copy of a word is clean:

* *write to a duplicated word* evicts the other copy first, so
  modification happens to a sole copy ("Clean -> Invalid on Write to
  duplicate");
* *filling a line whose words are dirty in an intersecting line* forces
  that line's modifications back down first ("Modified -> Clean on Read
  to duplicate"), so the fill data is never stale.

The helpers here express the geometric queries and the invariant; the
cache class drives the transitions.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..common.types import (
    intersecting_line,
    line_id_parts,
    line_word_offset,
    line_words,
    perpendicular_lines,
)


def copies_of_word(frames: Dict[int, int], line_id: int,
                   word_id: int) -> List[int]:
    """Present lines holding ``word_id``, given one candidate line.

    A word belongs to exactly one row line and one column line; both are
    derivable from any line through the word.
    """
    other = intersecting_line(line_id, word_id)
    return [line for line in (line_id, other) if line in frames]


def dirty_at_intersection(frames: Dict[int, int], line_id: int,
                          perpendicular: int) -> bool:
    """True if ``perpendicular`` is present and dirty where it crosses
    ``line_id``.

    Along any oriented line, position ``k`` holds the word whose
    perpendicular in-tile index is ``k``, so the crossing word's offset
    within ``perpendicular`` is simply ``line_id``'s in-tile index.
    """
    mask = frames.get(perpendicular)
    if not mask:
        return False
    return bool(mask & (1 << (line_id & 7)))


def dirty_intersecting_lines(frames: Dict[int, int],
                             line_id: int) -> Iterator[int]:
    """Present perpendicular lines dirty at their crossing with
    ``line_id`` — the lines that must be cleaned before filling it."""
    bit = 1 << (line_id & 7)
    frames_get = frames.get
    for perp in perpendicular_lines(line_id):
        mask = frames_get(perp)
        if mask and mask & bit:
            yield perp


def present_intersecting_lines(frames: Dict[int, int],
                               line_id: int) -> List[int]:
    """All present perpendicular lines crossing ``line_id``."""
    return [perp for perp in perpendicular_lines(line_id)
            if perp in frames]


def check_duplication_invariant(frames: Dict[int, int]) -> List[str]:
    """Validate the Fig. 9 invariant over a frame map.

    Returns a list of violation descriptions (empty when consistent):
    a word that is dirty in some line must not be present in any other
    line (i.e. the intersecting line must be absent).
    """
    violations: List[str] = []
    for line, mask in frames.items():
        if not mask:
            continue
        words = line_words(line)
        for offset, word in enumerate(words):
            if not mask & (1 << offset):
                continue
            other = intersecting_line(line, word)
            if other in frames:
                violations.append(
                    f"word {word} dirty in line {line:#x} while "
                    f"intersecting line {other:#x} is present")
    return violations


def duplicate_pairs(frames: Dict[int, int]) -> List[Tuple[int, int, int]]:
    """All (row_line, col_line, word) duplications currently present."""
    pairs: List[Tuple[int, int, int]] = []
    for line in frames:
        _, orientation, _ = line_id_parts(line)
        if orientation != 0:  # count each pair once, from the row side
            continue
        for word in line_words(line):
            other = intersecting_line(line, word)
            if other in frames:
                pairs.append((line, other, word))
    return pairs
