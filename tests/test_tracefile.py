"""Unit tests for trace file I/O."""

import array
import io
import pickle
import struct

import pytest

from repro.common.errors import ProgramError
from repro.common.types import AccessWidth, Orientation, PackedTrace, \
    Request
from repro.core.simulator import run_simulation, run_trace
from repro.core.system import make_system
from repro.sw.tracefile import (
    HEADER,
    PACKED_MAGIC,
    PACKED_VERSION,
    format_request,
    parse_request,
    read_packed_trace,
    read_packed_trace_mapped,
    read_trace,
    write_packed_trace,
    write_trace,
)
from repro.sw.tracegen import generate_trace
from repro.workloads.registry import build_workload


def sample_requests():
    return [
        Request(0x1a40, Orientation.ROW, AccessWidth.SCALAR, False, 3),
        Request(0x2000, Orientation.COLUMN, AccessWidth.VECTOR, True, 7),
    ]


class TestFormat:
    def test_roundtrip_single(self):
        for req in sample_requests():
            assert parse_request(format_request(req)) == req

    def test_line_layout(self):
        line = format_request(sample_requests()[1])
        assert line == "W c v 0x2000 7"

    def test_parse_rejects_wrong_field_count(self):
        with pytest.raises(ProgramError):
            parse_request("R r s 0x0")

    def test_parse_rejects_bad_op(self):
        with pytest.raises(ProgramError):
            parse_request("X r s 0x0 0")

    def test_parse_rejects_unaligned_address(self):
        with pytest.raises(ProgramError):
            parse_request("R r s 0x3 0")

    def test_parse_rejects_bad_numbers(self):
        with pytest.raises(ProgramError):
            parse_request("R r s 0xzz 0")
        with pytest.raises(ProgramError):
            parse_request("R r s 0x0 -1")


class TestStreamIO:
    def test_write_read_roundtrip_in_memory(self):
        buf = io.StringIO()
        count = write_trace(sample_requests(), buf)
        assert count == 2
        buf.seek(0)
        assert list(read_trace(buf)) == sample_requests()

    def test_header_checked(self):
        buf = io.StringIO("not a trace\nR r s 0x0 0\n")
        with pytest.raises(ProgramError):
            list(read_trace(buf))

    def test_comments_and_blanks_skipped(self):
        buf = io.StringIO(f"{HEADER}\n\n# comment\nR r s 0x0 0\n")
        assert len(list(read_trace(buf))) == 1

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.trc")
        write_trace(sample_requests(), path)
        assert list(read_trace(path)) == sample_requests()


class TestReplayFidelity:
    def test_replayed_trace_matches_direct_run(self, tmp_path):
        """A saved+reloaded trace reproduces the exact simulation."""
        program = build_workload("htap1", "small")
        direct = run_simulation(make_system("1P2L"), program=program)
        path = str(tmp_path / "htap1.trc")
        write_trace(generate_trace(program, 2), path)
        replayed = run_trace(make_system("1P2L"), read_trace(path))
        assert replayed.cycles == direct.cycles
        assert replayed.ops == direct.ops
        assert replayed.memory_bytes() == direct.memory_bytes()

    def test_run_trace_names_result(self):
        result = run_trace(make_system("1P2L"),
                           iter(sample_requests()), name="custom")
        assert result.workload == "custom"
        assert result.ops == 2


class TestMappedReads:
    """Zero-copy ``mmap`` reads of packed trace files."""

    @staticmethod
    def _write(path, name="htap1"):
        trace = PackedTrace.from_requests(sample_requests())
        write_packed_trace(trace, str(path), name=name)
        return trace

    @staticmethod
    def _legacy_bytes(name, trace):
        """A pre-padding packed file: the name field is written
        verbatim, so odd lengths leave the payload unaligned."""
        encoded = name.encode("utf-8")
        return (PACKED_MAGIC
                + struct.pack("<II", PACKED_VERSION, len(encoded))
                + encoded
                + struct.pack("<Q", len(trace))
                + trace.to_bytes())

    def test_mapped_read_is_zero_copy(self, tmp_path):
        path = tmp_path / "t.mdat"
        trace = self._write(path)
        name, mapped = read_packed_trace_mapped(str(path))
        assert name == "htap1"
        assert isinstance(mapped.words, memoryview)
        assert mapped.words.readonly
        assert mapped == trace
        assert list(mapped) == sample_requests()

    def test_name_padding_round_trips_both_readers(self, tmp_path):
        # An aligned (multiple-of-8) name takes no padding; an odd one
        # does.  Both readers must strip it.
        for name in ("t", "eight888", "padded-name"):
            path = tmp_path / f"{len(name)}.mdat"
            trace = self._write(path, name=name)
            assert read_packed_trace(str(path)) == (name, trace)
            got_name, got = read_packed_trace_mapped(str(path))
            assert (got_name, got) == (name, trace)
            assert isinstance(got.words, memoryview)

    def test_legacy_unpadded_file_falls_back_to_copy(self, tmp_path):
        # Pre-padding files with odd name lengths leave the payload
        # unaligned: the mapped reader silently hands off to the
        # copying reader rather than serving unaligned gathers.
        trace = PackedTrace.from_requests(sample_requests())
        path = tmp_path / "legacy.mdat"
        path.write_bytes(self._legacy_bytes("htap1", trace))
        name, got = read_packed_trace_mapped(str(path))
        assert (name, got) == ("htap1", trace)
        assert isinstance(got.words, array.array)

    def test_legacy_aligned_file_maps(self, tmp_path):
        trace = PackedTrace.from_requests(sample_requests())
        path = tmp_path / "legacy8.mdat"
        path.write_bytes(self._legacy_bytes("eight888", trace))
        name, got = read_packed_trace_mapped(str(path))
        assert (name, got) == ("eight888", trace)
        assert isinstance(got.words, memoryview)

    def test_mapped_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mdat"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 24)
        with pytest.raises(ProgramError, match="magic"):
            read_packed_trace_mapped(str(path))

    def test_mapped_rejects_truncation(self, tmp_path):
        path = tmp_path / "t.mdat"
        self._write(path)
        blob = path.read_bytes()
        for cut in (4, len(blob) - 8, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(ProgramError):
                read_packed_trace_mapped(str(path))

    def test_mapped_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "t.mdat"
        self._write(path)
        blob = bytearray(path.read_bytes())
        blob[8] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ProgramError, match="version"):
            read_packed_trace_mapped(str(path))

    def test_empty_file_reads_like_copy_reader(self, tmp_path):
        path = tmp_path / "empty.mdat"
        path.write_bytes(b"")
        with pytest.raises(ProgramError):
            read_packed_trace_mapped(str(path))

    def test_mapped_trace_pickles_as_owning_copy(self, tmp_path):
        # A memoryview is not picklable, so a mapped trace's pickle
        # round trip must rebuild an owning trace.
        path = tmp_path / "t.mdat"
        trace = self._write(path)
        _, mapped = read_packed_trace_mapped(str(path))
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone == trace
        assert isinstance(clone.words, array.array)

    def test_mapped_slices_stay_views(self, tmp_path):
        # A trace built from a slice of a mapped trace's words keeps
        # the memoryview; it must still replay and re-pickle.
        path = tmp_path / "t.mdat"
        trace = self._write(path)
        _, mapped = read_packed_trace_mapped(str(path))
        tail = PackedTrace(mapped.words[1:])
        assert isinstance(tail.words, memoryview)
        assert list(tail) == list(trace)[1:]
        assert pickle.loads(pickle.dumps(tail)) == tail

    def test_mapped_replay_matches_copy_replay(self, tmp_path):
        from repro.sw.tracegen import generate_packed_trace
        program = build_workload("sobel", "small")
        trace = generate_packed_trace(program, 2)
        path = tmp_path / "sobel.mdat"
        write_packed_trace(trace, str(path), name="sobel")
        _, mapped = read_packed_trace_mapped(str(path))
        assert isinstance(mapped.words, memoryview)
        via_mapped = run_trace(make_system("1P2L", 1.0), mapped,
                               name="t")
        via_copy = run_trace(make_system("1P2L", 1.0), trace, name="t")
        assert via_mapped.cycles == via_copy.cycles
        assert via_mapped.stats.flat() == via_copy.stats.flat()
