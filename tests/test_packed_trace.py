"""The packed columnar trace engine.

Covers the ISSUE acceptance criteria: the 64-bit packed encoding
round-trips every representable request (property-based), the packed
file format and persistent trace store are durable (corrupt reads are
misses, writes are atomic), ``run_packed`` replay is bit-identical to
the object path across every design x workload pair, and a cold
parallel sweep generates each distinct trace at most once per process
tree.
"""

from __future__ import annotations

import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ProgramError
from repro.common.types import (
    AccessWidth,
    Orientation,
    PACKED_ADDR_LIMIT,
    PACKED_REF_LIMIT,
    PackedTrace,
    Request,
    pack_request,
    unpack_request,
)
from repro.core.simulator import (
    clear_trace_cache,
    configure_trace_store,
    run_simulation,
    run_trace,
    trace_cache_info,
)
from repro.core.system import DESIGN_NAMES, make_system
from repro.sw.tracefile import (
    read_packed_trace,
    read_trace,
    write_packed_trace,
    write_trace,
)
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.sw.tracestore import TRACE_STORE_VERSION, TraceStore
from repro.workloads.registry import build_workload

requests = st.builds(
    Request,
    addr=st.integers(min_value=0,
                     max_value=(PACKED_ADDR_LIMIT // 8) - 1).map(
        lambda w: w * 8),
    orientation=st.sampled_from(list(Orientation)),
    width=st.sampled_from(list(AccessWidth)),
    is_write=st.booleans(),
    ref_id=st.integers(min_value=0, max_value=PACKED_REF_LIMIT - 1),
)


@pytest.fixture(autouse=True)
def _detach_trace_store():
    """Tests configure the process-global store; always detach after."""
    yield
    configure_trace_store(None)
    clear_trace_cache()


class TestPackedEncoding:
    @settings(max_examples=200, deadline=None)
    @given(requests)
    def test_pack_unpack_round_trip(self, req):
        word = pack_request(req)
        assert 0 <= word < (1 << 64)
        assert unpack_request(word) == req

    @settings(max_examples=100, deadline=None)
    @given(st.lists(requests, max_size=64))
    def test_trace_bytes_round_trip(self, reqs):
        trace = PackedTrace.from_requests(reqs)
        assert len(trace) == len(reqs)
        assert list(trace) == reqs
        assert PackedTrace.from_bytes(trace.to_bytes()) == trace

    @settings(max_examples=50, deadline=None)
    @given(st.lists(requests, max_size=32), st.text(max_size=16))
    @example(reqs=[], name="\x00")
    def test_packed_file_round_trip(self, reqs, name):
        trace = PackedTrace.from_requests(reqs)
        buffer = io.BytesIO()
        if "\x00" in name:
            # The name field is NUL-padded, so a NUL in the name could
            # not read back intact: the writer refuses it up front.
            with pytest.raises(ValueError, match="NUL"):
                write_packed_trace(trace, buffer, name=name)
            assert buffer.getvalue() == b""
            return
        count = write_packed_trace(trace, buffer, name=name)
        assert count == len(reqs)
        buffer.seek(0)
        got_name, got = read_packed_trace(buffer)
        assert got_name == name
        assert got == trace

    def test_unaligned_address_rejected(self):
        req = Request(12, Orientation.ROW, AccessWidth.SCALAR,
                      False, 0)
        with pytest.raises(ValueError):
            pack_request(req)

    def test_out_of_range_address_rejected(self):
        req = Request(PACKED_ADDR_LIMIT, Orientation.ROW,
                      AccessWidth.SCALAR, False, 0)
        with pytest.raises(ValueError):
            pack_request(req)

    def test_oversized_ref_id_rejected(self):
        req = Request(0, Orientation.ROW, AccessWidth.SCALAR,
                      False, PACKED_REF_LIMIT)
        with pytest.raises(ValueError):
            pack_request(req)

    def test_indexing_decodes_single_requests(self):
        reqs = [Request(8 * i, Orientation.COLUMN, AccessWidth.VECTOR,
                        bool(i & 1), i) for i in range(5)]
        trace = PackedTrace.from_requests(reqs)
        assert trace[3] == reqs[3]
        assert trace[-1] == reqs[-1]

    def test_matches_object_trace_generation(self):
        program = build_workload("sobel", "small")
        objects = list(generate_trace(program, 2))
        packed = generate_packed_trace(program, 2)
        assert list(packed) == objects


class TestPackedFileFormat:
    def _packed_bytes(self, reqs, name="t"):
        buffer = io.BytesIO()
        write_packed_trace(PackedTrace.from_requests(reqs), buffer,
                           name=name)
        return buffer.getvalue()

    def test_bad_magic_rejected(self):
        with pytest.raises(ProgramError):
            read_packed_trace(io.BytesIO(b"NOTATRACE" + b"\0" * 32))

    def test_truncated_header_rejected(self):
        blob = self._packed_bytes([])
        with pytest.raises(ProgramError):
            read_packed_trace(io.BytesIO(blob[:10]))

    def test_truncated_payload_rejected(self):
        reqs = [Request(8 * i, Orientation.ROW, AccessWidth.SCALAR,
                        False, i) for i in range(4)]
        blob = self._packed_bytes(reqs)
        with pytest.raises(ProgramError):
            read_packed_trace(io.BytesIO(blob[:-8]))

    def test_version_mismatch_rejected(self):
        blob = bytearray(self._packed_bytes([]))
        # The version field sits right after the 8-byte magic.
        blob[8] ^= 0xFF
        with pytest.raises(ProgramError):
            read_packed_trace(io.BytesIO(bytes(blob)))

    def test_text_and_packed_formats_interconvert(self, tmp_path):
        program = build_workload("sobel", "small")
        packed = generate_packed_trace(program, 2)
        text_path = str(tmp_path / "t.trc")
        write_trace(iter(packed), text_path)
        assert PackedTrace.from_requests(read_trace(text_path)) == packed


class TestTraceStore:
    def test_store_round_trip(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = generate_packed_trace(build_workload("sobel", "small"), 2)
        assert store.load("sobel", "small", 2) is None
        store.store("sobel", "small", 2, "sobel", trace)
        assert len(store) == 1
        assert store.load("sobel", "small", 2) == ("sobel", trace)

    def test_load_is_zero_copy(self, tmp_path):
        # Store hits come back as a read-only memoryview over an mmap
        # of the entry, not a copied array (PR-9).
        store = TraceStore(str(tmp_path))
        trace = generate_packed_trace(build_workload("sobel", "small"), 2)
        store.store("sobel", "small", 2, "sobel", trace)
        _, loaded = store.load("sobel", "small", 2)
        assert isinstance(loaded.words, memoryview)
        assert loaded.words.readonly
        assert loaded == trace

    def test_versioned_filenames(self, tmp_path):
        store = TraceStore(str(tmp_path))
        path = store.path_for("sgemm", "large", 2)
        assert f".v{TRACE_STORE_VERSION}.mdat" in os.path.basename(path)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = generate_packed_trace(build_workload("sobel", "small"), 2)
        store.store("sobel", "small", 2, "sobel", trace)
        path = store.path_for("sobel", "small", 2)
        with open(path, "r+b") as handle:
            handle.truncate(12)
        assert store.load("sobel", "small", 2) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = generate_packed_trace(build_workload("sobel", "small"), 2)
        store.store("sobel", "small", 2, "sobel", trace)
        assert all(name.endswith(".mdat")
                   for name in os.listdir(str(tmp_path))
                   if name != ".lock")

    def test_clear_removes_entries(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = generate_packed_trace(build_workload("sobel", "small"), 2)
        store.store("sobel", "small", 2, "sobel", trace)
        store.store("sobel", "small", 1, "sobel", trace)
        assert store.clear() == 2
        assert len(store) == 0

    def test_simulator_reads_through_store(self, tmp_path):
        clear_trace_cache()
        configure_trace_store(str(tmp_path))
        first = run_simulation(make_system("1P2L", 1.0),
                               workload="sobel", size="small")
        info = trace_cache_info()
        assert info["generated"] == 1
        assert info["store_misses"] == 1
        # A fresh process (simulated by clearing the memo) now hits the
        # persistent store instead of regenerating.
        clear_trace_cache()
        second = run_simulation(make_system("1P2L", 1.0),
                                workload="sobel", size="small")
        info = trace_cache_info()
        assert info["store_hits"] == 1
        assert info["generated"] == 0
        assert first.cycles == second.cycles
        assert first.stats.flat() == second.stats.flat()


class TestPackedReplayParity:
    @pytest.mark.parametrize("design", DESIGN_NAMES)
    @pytest.mark.parametrize("workload", ["sobel", "htap1"])
    def test_bit_identical_to_object_path(self, design, workload):
        system = make_system(design, 1.0)
        program = build_workload(workload, "small")
        dims = system.logical_dims
        objects = list(generate_trace(program, dims))
        packed = generate_packed_trace(program, dims)

        via_objects = run_trace(system, objects, name="t")
        via_packed = run_trace(make_system(design, 1.0), packed,
                               name="t")
        assert via_packed.cycles == via_objects.cycles
        assert via_packed.ops == via_objects.ops
        assert via_packed.stats.flat() == via_objects.stats.flat()

    def test_run_dispatches_packed_traces(self):
        # cpu.run() hands a PackedTrace to the specialized loop; both
        # entry points must agree.
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        via_run = run_trace(system, packed, name="t")
        direct = run_trace(make_system("1P2L", 1.0), iter(packed),
                           name="t")
        assert via_run.cycles == direct.cycles
        assert via_run.stats.flat() == direct.stats.flat()
