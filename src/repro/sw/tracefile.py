"""Trace file I/O: the text v1 format and the packed binary format.

The text format is a simple line-oriented encoding so traces can be
generated once, inspected with standard tools, filtered, or produced by
external tracers and replayed through the simulator:

.. code-block:: text

    # mdacache-trace v1
    R r s 0x1a40 3     <- read, row pref, scalar, address, ref id
    W c v 0x2000 7     <- write, column pref, vector

Fields: operation (``R``/``W``), orientation (``r``/``c``), width
(``s``/``v``), hex byte address, decimal reference id.  Lines starting
with ``#`` are comments.  The format is deliberately trivial — the
point is interoperability, not density.

The packed binary format is the density counterpart — the on-disk form
of :class:`~repro.common.types.PackedTrace` used by the persistent
trace store and the ``repro trace pack`` / ``repro trace cat``
commands:

.. code-block:: text

    magic   8 bytes   b"MDATRACE"
    version u32 LE    packed format version (currently 1)
    namelen u32 LE    length of the trace-name field
    name    namelen   UTF-8 trace name
    count   u64 LE    number of requests
    payload count*8   one little-endian u64 per request
                      (bit layout: see common.types)
"""

from __future__ import annotations

import mmap
import struct
import sys
from typing import IO, Iterable, Iterator, Tuple, Union

from ..common.errors import ProgramError
from ..common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
)

HEADER = "# mdacache-trace v1"

PACKED_MAGIC = b"MDATRACE"
PACKED_VERSION = 1
_PACKED_HEAD = struct.Struct("<II")   # version, name length
_PACKED_COUNT = struct.Struct("<Q")

_OP = {False: "R", True: "W"}
_ORIENT = {Orientation.ROW: "r", Orientation.COLUMN: "c"}
_WIDTH = {AccessWidth.SCALAR: "s", AccessWidth.VECTOR: "v"}

_OP_BACK = {"R": False, "W": True}
_ORIENT_BACK = {"r": Orientation.ROW, "c": Orientation.COLUMN}
_WIDTH_BACK = {"s": AccessWidth.SCALAR, "v": AccessWidth.VECTOR}


def format_request(req: Request) -> str:
    """One trace line for a request."""
    return (f"{_OP[req.is_write]} {_ORIENT[req.orientation]} "
            f"{_WIDTH[req.width]} {req.addr:#x} {req.ref_id}")


def parse_request(line: str) -> Request:
    """Parse one trace line.

    Raises:
        ProgramError: on any malformed field.
    """
    parts = line.split()
    if len(parts) != 5:
        raise ProgramError(f"bad trace line (need 5 fields): {line!r}")
    op, orient, width, addr_text, ref_text = parts
    try:
        is_write = _OP_BACK[op]
        orientation = _ORIENT_BACK[orient]
        access_width = _WIDTH_BACK[width]
    except KeyError as exc:
        raise ProgramError(f"bad trace field {exc} in {line!r}") from None
    try:
        addr = int(addr_text, 16)
        ref_id = int(ref_text)
    except ValueError:
        raise ProgramError(f"bad number in trace line {line!r}") \
            from None
    if addr < 0 or addr % 8 != 0:
        raise ProgramError(f"address must be word-aligned: {line!r}")
    if ref_id < 0:
        raise ProgramError(f"negative ref id: {line!r}")
    return Request(addr, orientation, access_width, is_write, ref_id)


def write_trace(trace: Iterable[Request],
                destination: Union[str, IO[str]]) -> int:
    """Write a trace; returns the number of requests written."""
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            return write_trace(trace, handle)
    destination.write(HEADER + "\n")
    count = 0
    for req in trace:
        destination.write(format_request(req) + "\n")
        count += 1
    return count


def read_trace(source: Union[str, IO[str]]) -> Iterator[Request]:
    """Lazily read a trace file or handle."""
    if isinstance(source, str):
        with open(source) as handle:
            yield from read_trace(handle)
        return
    first = source.readline().strip()
    if first != HEADER:
        raise ProgramError(
            f"not an mdacache trace (header {first!r}, "
            f"expected {HEADER!r})")
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_request(line)


# -- Packed binary format -----------------------------------------------------

def write_packed_trace(trace: PackedTrace,
                       destination: Union[str, IO[bytes]],
                       name: str = "trace") -> int:
    """Write a packed trace file; returns the number of requests.

    Raises:
        ValueError: ``name`` contains a NUL character.  The name field
            is NUL-padded, so such a name would not read back intact;
            nothing is written (or created) then.
    """
    if "\x00" in name:
        raise ValueError(f"packed trace name {name!r} contains NUL, "
                         f"which the NUL-padded name field cannot "
                         f"round-trip")
    if isinstance(destination, str):
        with open(destination, "wb") as handle:
            return write_packed_trace(trace, handle, name)
    encoded = name.encode("utf-8")
    # NUL-pad the name so the payload lands 64-bit aligned: the fixed
    # header is 16 + 8 bytes, so a multiple-of-8 name field keeps
    # zero-copy mapped reads on the aligned fast path.  Readers strip
    # the padding; unpadded (pre-existing) files stay readable.
    encoded += b"\x00" * (-len(encoded) % 8)
    destination.write(PACKED_MAGIC)
    destination.write(_PACKED_HEAD.pack(PACKED_VERSION, len(encoded)))
    destination.write(encoded)
    destination.write(_PACKED_COUNT.pack(len(trace)))
    destination.write(trace.to_bytes())
    return len(trace)


def read_packed_trace(
        source: Union[str, IO[bytes]]) -> Tuple[str, PackedTrace]:
    """Read a packed trace file; returns ``(name, trace)``.

    Raises:
        ProgramError: bad magic, unsupported version, or a truncated
            header/payload.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return read_packed_trace(handle)
    magic = source.read(len(PACKED_MAGIC))
    if magic != PACKED_MAGIC:
        raise ProgramError(
            f"not a packed mdacache trace (magic {magic!r})")
    head = source.read(_PACKED_HEAD.size)
    if len(head) != _PACKED_HEAD.size:
        raise ProgramError("truncated packed trace header")
    version, name_len = _PACKED_HEAD.unpack(head)
    if version != PACKED_VERSION:
        raise ProgramError(
            f"unsupported packed trace version {version} "
            f"(expected {PACKED_VERSION})")
    name_bytes = source.read(name_len)
    count_bytes = source.read(_PACKED_COUNT.size)
    if len(name_bytes) != name_len \
            or len(count_bytes) != _PACKED_COUNT.size:
        raise ProgramError("truncated packed trace header")
    (count,) = _PACKED_COUNT.unpack(count_bytes)
    payload = source.read(8 * count)
    if len(payload) != 8 * count:
        raise ProgramError(
            f"truncated packed trace payload (expected {count} "
            f"requests, got {len(payload) // 8})")
    try:
        trace_name = name_bytes.rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError:
        raise ProgramError("corrupt packed trace name") from None
    return trace_name, PackedTrace.from_bytes(payload)


#: Header bytes before the name field: magic, version u32, namelen u32.
_PACKED_PREFIX = len(PACKED_MAGIC) + _PACKED_HEAD.size

_BIG_ENDIAN = sys.byteorder == "big"


def read_packed_trace_mapped(path: str) -> Tuple[str, PackedTrace]:
    """Read a packed trace file as a zero-copy ``mmap`` view.

    Same header validation and error contract as
    :func:`read_packed_trace` — bad magic, unsupported version, or a
    truncated header/payload raise :class:`ProgramError`, and I/O
    failures surface as ``OSError`` — but the returned
    :class:`PackedTrace` wraps a read-only ``memoryview('Q')`` over
    the file mapping instead of copying the payload into an
    ``array``.  The mapping stays alive as long as the view does, and
    forked workers share the pages copy-on-write.  Hosts or entries
    the view cannot represent exactly — big-endian byte order, or a
    payload offset that is not 64-bit aligned — silently take the
    copying reader instead; corruption never does.
    """
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts
        return read_packed_trace(path)
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0,
                               access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Empty or unmappable file: the copying reader produces
            # the exact same result or the exact same error.
            return read_packed_trace(path)
    view = memoryview(mapped)
    try:
        head = bytes(view[:_PACKED_PREFIX])
        if head[:len(PACKED_MAGIC)] != PACKED_MAGIC:
            raise ProgramError(
                f"not a packed mdacache trace "
                f"(magic {head[:len(PACKED_MAGIC)]!r})")
        if len(head) != _PACKED_PREFIX:
            raise ProgramError("truncated packed trace header")
        version, name_len = _PACKED_HEAD.unpack(
            head[len(PACKED_MAGIC):])
        if version != PACKED_VERSION:
            raise ProgramError(
                f"unsupported packed trace version {version} "
                f"(expected {PACKED_VERSION})")
        offset = _PACKED_PREFIX + name_len + _PACKED_COUNT.size
        if len(view) < offset:
            raise ProgramError("truncated packed trace header")
        name_bytes = bytes(view[_PACKED_PREFIX:
                                _PACKED_PREFIX + name_len])
        (count,) = _PACKED_COUNT.unpack(
            view[offset - _PACKED_COUNT.size:offset])
        if len(view) - offset < 8 * count:
            raise ProgramError(
                f"truncated packed trace payload (expected {count} "
                f"requests, got {(len(view) - offset) // 8})")
        try:
            trace_name = name_bytes.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError:
            raise ProgramError("corrupt packed trace name") from None
        if offset % 8:
            # Unaligned payload (odd name length): numpy gathers over
            # the view would go through the slow unaligned path —
            # copying once is the better trade.
            view.release()
            mapped.close()
            return read_packed_trace(path)
        words = view[offset:offset + 8 * count].cast("Q")
    except Exception:
        view.release()
        mapped.close()
        raise
    return trace_name, PackedTrace(words)
