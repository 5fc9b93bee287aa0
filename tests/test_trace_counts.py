"""Trace-shape regression tests: op counts per kernel and target.

These pin down the compiler model's output shape — the quantity that
Fig. 10 and the op-count side of every cycles figure depend on.  If a
kernel or the vectorizer changes, these counts change deliberately.
"""

import pytest

from repro.sw.tracegen import generate_packed_trace, generate_trace, trace_mix
from repro.workloads.registry import build_workload


def count(name, dims, size="small"):
    return sum(1 for _ in generate_trace(build_workload(name, size),
                                         dims))


class TestOpCountFormulas:
    def test_sgemm_2d(self):
        # Per (i, j): n/8 MatR vectors + n/8 MatC vectors + 1 store.
        n = 32
        assert count("sgemm", 2) == n * n * (2 * n // 8 + 1)

    def test_sgemm_1d(self):
        # MatC serializes: n scalars instead of n/8 vectors.
        n = 32
        assert count("sgemm", 1) == n * n * (n // 8 + n + 1)

    def test_sobel_2d(self):
        # Interior (n-2)^2, vector groups of 8 with tails as scalars;
        # 9 refs per point; misaligned taps split into two requests.
        total = count("sobel", 2)
        n = 32
        interior = (n - 2) * (n - 2)
        # Lower bound: one request per ref per 8 lanes; upper bound:
        # every vector ref split + all tails scalar.
        assert interior * 9 // 8 <= total <= interior * 9

    def test_htap1_2d(self):
        rows, cols = 256, 32
        scan = 4 * 2 * rows // 8        # 4 queries x 2 refs, vectorized
        fetch = (rows // 4) * (cols // 8)
        assert count("htap1", 2) == scan + fetch

    def test_vector_ratio_1d_vs_2d(self):
        """The 1-D target always needs at least as many requests."""
        for name in ("sgemm", "ssyr2k", "ssyrk", "strmm", "sobel",
                     "htap1", "htap2"):
            assert count(name, 1) >= count(name, 2), name


class TestVolumeConsistency:
    @pytest.mark.parametrize("name", ["sgemm", "strmm", "sobel",
                                      "htap1", "htap2"])
    def test_1d_and_2d_traces_touch_same_data_volume(self, name):
        """Vectorization changes request counts, not bytes touched
        (modulo vector-alignment splits that re-touch lines)."""
        mix_1d = trace_mix(generate_packed_trace(build_workload(name, "small"),
                                          1))
        mix_2d = trace_mix(generate_packed_trace(build_workload(name, "small"),
                                          2))
        # 2-D volume >= 1-D volume (vector requests cover full lines,
        # scalars only the word), but within the 8x word/line factor.
        assert mix_1d.total <= mix_2d.total <= 8 * mix_1d.total

    def test_deterministic_traces(self):
        a = list(generate_trace(build_workload("strmm", "small"), 2))
        b = list(generate_trace(build_workload("strmm", "small"), 2))
        assert a == b
