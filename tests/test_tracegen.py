"""Unit tests for trace generation."""

from repro.common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
    line_id_of,
)
from repro.sw.program import Affine, ArrayDecl, ArrayRef, Loop, LoopNest, Program
from repro.sw.layout import TiledLayout
from repro.sw.tracegen import (
    generate_packed_trace,
    generate_trace,
    trace_length,
    trace_mix,
)
from repro.workloads.blas import build_sgemm, build_strmm
from repro.workloads.sobel import build_sobel


def single_nest_program(refs, loops, arrays):
    nest = LoopNest("n", loops, refs)
    return Program("p", arrays, [nest])


class TestVectorEmission:
    def test_aligned_row_walk_emits_one_vector_per_group(self):
        a = ArrayDecl("A", 8, 16)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.of("j"))],
            [Loop.over("j", 16)], [a])
        trace = list(generate_trace(prog, 2))
        assert len(trace) == 2  # 16 lanes / 8 = 2 groups, aligned
        assert all(r.width is AccessWidth.VECTOR for r in trace)
        assert all(r.orientation is Orientation.ROW for r in trace)

    def test_misaligned_group_emits_two_requests(self):
        """Groups starting at offset 1 straddle two lines (Sobel taps)."""
        a = ArrayDecl("A", 8, 24)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.of("j", const=1))],
            [Loop.over("j", 8)], [a])
        trace = list(generate_trace(prog, 2))
        assert len(trace) == 2
        lines = {r.line_id for r in trace}
        assert len(lines) == 2

    def test_column_vector_addresses_are_column_aligned(self):
        a = ArrayDecl("A", 16, 16)
        prog = single_nest_program(
            [ArrayRef(a, Affine.of("i"), Affine.constant(3))],
            [Loop.over("i", 16)], [a])
        trace = list(generate_trace(prog, 2))
        assert len(trace) == 2
        assert all(r.orientation is Orientation.COLUMN for r in trace)
        layout = TiledLayout([a])
        assert trace[0].line_id == line_id_of(
            layout.address_of("A", 0, 3), Orientation.COLUMN)

    def test_loop_tail_falls_back_to_scalars(self):
        a = ArrayDecl("A", 8, 16)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.of("j"))],
            [Loop.over("j", 12)], [a])
        trace = list(generate_trace(prog, 2))
        vectors = [r for r in trace if r.width is AccessWidth.VECTOR]
        scalars = [r for r in trace if r.width is AccessWidth.SCALAR]
        assert len(vectors) == 1
        assert len(scalars) == 4


class TestScalarEmission:
    def test_hoisted_ref_once_per_group(self):
        a = ArrayDecl("A", 8, 16)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.constant(0)),
             ArrayRef(a, Affine.constant(1), Affine.of("j"))],
            [Loop.over("j", 16)], [a])
        trace = list(generate_trace(prog, 2))
        scalars = [r for r in trace if r.width is AccessWidth.SCALAR]
        assert len(scalars) == 2  # one per vector group

    def test_serial_ref_once_per_lane(self):
        a = ArrayDecl("A", 16, 32)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.of("j", coeff=2)),
             ArrayRef(a, Affine.constant(1), Affine.of("j"))],
            [Loop.over("j", 16)], [a])
        trace = list(generate_trace(prog, 2))
        scalars = [r for r in trace if r.width is AccessWidth.SCALAR]
        assert len(scalars) == 16

    def test_depth_refs_emitted_before_and_after(self):
        a = ArrayDecl("A", 8, 8)
        read = ArrayRef(a, Affine.of("i"), Affine.constant(0), depth=1,
                        when="before")
        write = ArrayRef(a, Affine.of("i"), Affine.constant(0),
                         is_write=True, depth=1, when="after")
        body = ArrayRef(a, Affine.of("i"), Affine.of("j"))
        prog = single_nest_program([read, write, body],
                                   [Loop.over("i", 2),
                                    Loop.over("j", 8)], [a])
        trace = list(generate_trace(prog, 2))
        # Per i: read, vector group, write -> first is a read scalar,
        # last is a write scalar.
        assert not trace[0].is_write
        assert trace[0].width is AccessWidth.SCALAR
        assert trace[2].is_write


class TestKernelTraces:
    def test_sgemm_trace_request_count(self):
        n = 16
        trace = list(generate_trace(build_sgemm(n), 2))
        # Per (i, j): n/8 MatR vectors + n/8 MatC vectors + 1 store.
        expected = n * n * (2 * n // 8 + 1)
        assert len(trace) == expected

    def test_sgemm_1d_trace_is_larger(self):
        n = 16
        len_2d = trace_length(build_sgemm(n), 2)
        len_1d = trace_length(build_sgemm(n), 1)
        assert len_1d > len_2d  # serialized column walks

    def test_strmm_triangular_volume(self):
        """The triangular reduction touches less data than the full
        product (request *count* can be higher: loop tails emit
        scalars)."""
        n = 16
        strmm_bytes = trace_mix(generate_packed_trace(build_strmm(n), 2)).total
        sgemm_bytes = trace_mix(generate_packed_trace(build_sgemm(n), 2)).total
        assert strmm_bytes < sgemm_bytes

    def test_sobel_trace_is_column_only(self):
        mix = trace_mix(generate_packed_trace(build_sobel(16), 2))
        assert mix.row_scalar == 0
        assert mix.row_vector == 0
        assert mix.column_fraction == 1.0

    def test_writes_present_in_traces(self):
        trace = list(generate_trace(build_sgemm(16), 2))
        assert any(r.is_write for r in trace)


class TestTraceMix:
    def test_volume_weighting(self):
        a = ArrayDecl("A", 8, 16)
        prog = single_nest_program(
            [ArrayRef(a, Affine.constant(0), Affine.of("j"))],
            [Loop.over("j", 8)], [a])
        mix = trace_mix(generate_packed_trace(prog, 2))
        assert mix.row_vector == 64  # one vector = 64 bytes
        assert mix.total == 64

    def test_fractions_sum_to_one(self):
        mix = trace_mix(generate_packed_trace(build_sgemm(16), 2))
        assert abs(sum(mix.fractions().values()) - 1.0) < 1e-9

    def test_counts_each_class_ignoring_write_ref_and_address(self):
        """Only a word's width and orientation bits decide its class."""
        requests = [
            Request(addr, orientation, width, is_write, ref_id)
            for orientation, width, copies in (
                (Orientation.ROW, AccessWidth.SCALAR, 1),
                (Orientation.ROW, AccessWidth.VECTOR, 2),
                (Orientation.COLUMN, AccessWidth.SCALAR, 3),
                (Orientation.COLUMN, AccessWidth.VECTOR, 4))
            for addr, is_write, ref_id in
            [(8 * k << 20, k % 2 == 1, 0xFFFF - k)
             for k in range(copies)]]
        mix = trace_mix(PackedTrace.from_requests(requests))
        assert (mix.row_scalar, mix.row_vector, mix.col_scalar,
                mix.col_vector) == (8, 128, 24, 256)
