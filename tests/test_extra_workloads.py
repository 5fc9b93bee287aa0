"""Unit tests for the non-paper extra kernels."""

import pytest

from repro.common.types import Orientation
from repro.core.simulator import run_simulation
from repro.core.system import make_system
from repro.sw.directions import analyze_ref
from repro.sw.tracegen import generate_packed_trace, trace_mix
from repro.workloads.extra import (
    build_backsub,
    build_conv1d_col,
    build_covariance,
    build_jacobi2d,
    build_transpose,
)
from repro.workloads.registry import (
    build_workload,
    extended_workload_names,
    workload_names,
)

EXTRAS = ("transpose", "jacobi2d", "conv1d_col", "covariance",
          "backsub")


class TestRegistry:
    def test_paper_list_unchanged(self):
        assert len(workload_names()) == 7
        for name in EXTRAS:
            assert name not in workload_names()

    def test_extended_list_includes_extras(self):
        names = extended_workload_names()
        for name in EXTRAS:
            assert name in names

    @pytest.mark.parametrize("name", EXTRAS)
    def test_buildable_via_registry(self, name):
        program = build_workload(name, "small")
        assert program.name == name


class TestKernelProperties:
    def test_transpose_mixes_orientations(self):
        mix = trace_mix(generate_packed_trace(build_transpose(16), 2))
        assert 0.4 < mix.column_fraction < 0.6

    def test_transpose_write_is_columnar(self):
        program = build_transpose(16)
        nest = program.nests[0]
        write = [r for r in nest.refs if r.is_write][0]
        info = analyze_ref(nest, write)
        assert info.orientation is Orientation.COLUMN

    def test_jacobi_is_row_oriented(self):
        mix = trace_mix(generate_packed_trace(build_jacobi2d(16), 2))
        assert mix.column_fraction == 0.0

    def test_jacobi_ping_pongs_grids(self):
        program = build_jacobi2d(16, sweeps=2)
        first_dst = [r for r in program.nests[0].refs if r.is_write][0]
        second_dst = [r for r in program.nests[1].refs if r.is_write][0]
        assert first_dst.array.name != second_dst.array.name

    def test_conv1d_col_is_pure_column(self):
        mix = trace_mix(generate_packed_trace(build_conv1d_col(16), 2))
        assert mix.column_fraction == 1.0

    def test_covariance_has_three_phases(self):
        program = build_covariance(16)
        assert [nest.name for nest in program.nests] == \
            ["col_means", "center", "outer_product"]

    def test_backsub_triangular_column(self):
        program = build_backsub(16)
        loop = program.nests[0].loops[-1]
        assert loop.upper.coeff("i") == 1  # j < i
        mix = trace_mix(generate_packed_trace(program, 2))
        assert mix.column_fraction > 0.5


class TestEndToEnd:
    @pytest.mark.parametrize("name", EXTRAS)
    def test_runs_on_mda_hierarchy(self, name):
        result = run_simulation(make_system("1P2L"),
                                program=build_workload(name, "small"))
        assert result.cycles > 0

    def test_transpose_benefits_from_mda(self):
        program = build_workload("transpose", "small")
        base = run_simulation(make_system("1P1L"), program=program)
        mda = run_simulation(make_system("1P2L"), program=program)
        assert mda.cycles < base.cycles
