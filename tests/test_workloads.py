"""Unit tests for the benchmark suite."""

import pytest

from repro.common.errors import ConfigError
from repro.sw.tracegen import generate_packed_trace, trace_mix
from repro.sw.vectorizer import compile_program
from repro.workloads.registry import (
    HTAP_SIZES,
    MATRIX_SIZES,
    build_workload,
    get_workload,
    workload_names,
)


class TestRegistry:
    def test_paper_benchmark_list(self):
        assert workload_names() == ["sgemm", "ssyr2k", "ssyrk", "strmm",
                                    "sobel", "htap1", "htap2"]

    def test_unknown_workload_raises(self):
        with pytest.raises(ConfigError):
            build_workload("dgemm")

    def test_unknown_size_raises(self):
        with pytest.raises(ConfigError):
            build_workload("sgemm", "huge")

    def test_scaled_sizes(self):
        assert MATRIX_SIZES == {"small": 32, "large": 64}
        assert HTAP_SIZES["large"] == (256, 64)

    def test_descriptions_present(self):
        for name in workload_names():
            assert get_workload(name).description


class TestAllWorkloadsBuild:
    @pytest.mark.parametrize("name", ["sgemm", "ssyr2k", "ssyrk",
                                      "strmm", "sobel", "htap1",
                                      "htap2"])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_builds_and_compiles(self, name, size):
        program = build_workload(name, size)
        assert program.name == name
        for dims in (1, 2):
            compiled = compile_program(program, dims)
            assert compiled.nests

    @pytest.mark.parametrize("name", ["sgemm", "ssyr2k", "ssyrk",
                                      "strmm", "sobel", "htap1",
                                      "htap2"])
    def test_every_benchmark_exercises_columns(self, name):
        """The paper's Fig. 10 claim: every benchmark has column
        preference under the 2-D compilation."""
        program = build_workload(name, "small")
        mix = trace_mix(generate_packed_trace(program, 2))
        assert mix.column_fraction > 0.0

    @pytest.mark.parametrize("name", ["sgemm", "ssyr2k", "strmm",
                                      "htap1", "htap2"])
    def test_mixed_affinity_benchmarks_have_rows_too(self, name):
        program = build_workload(name, "small")
        mix = trace_mix(generate_packed_trace(program, 2))
        assert mix.row_scalar + mix.row_vector > 0

    def test_1d_compilation_never_emits_columns(self):
        for name in workload_names():
            program = build_workload(name, "small")
            mix = trace_mix(generate_packed_trace(program, 1))
            assert mix.column_fraction == 0.0, name


class TestKernelShapes:
    def test_sgemm_arrays(self):
        program = build_workload("sgemm", "small")
        assert {a.name for a in program.arrays} == \
            {"MatR", "MatC", "MatOut"}
        assert program.array("MatR").rows == 32

    def test_ssyrk_has_two_nests(self):
        program = build_workload("ssyrk", "small")
        assert [n.name for n in program.nests] == ["syrk", "rescale"]

    def test_strmm_is_triangular(self):
        program = build_workload("strmm", "small")
        k_loop = program.nests[0].loops[-1]
        assert k_loop.lower.coeff("i") == 1

    def test_htap_table_shape(self):
        program = build_workload("htap1", "large")
        table = program.array("T")
        assert (table.rows, table.cols) == (256, 64)

    def test_htap2_mix_is_transaction_dominant(self):
        mix = trace_mix(generate_packed_trace(build_workload("htap2", "large"),
                                       2))
        assert 0.05 < mix.column_fraction < 0.5

    def test_sobel_interior_only(self):
        program = build_workload("sobel", "small")
        loops = program.nests[0].loops
        assert loops[0].lower.const == 1
        assert loops[0].upper.const == 31
