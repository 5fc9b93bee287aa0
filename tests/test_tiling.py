"""Unit tests for iteration-space tiling (paper Section X extension)."""

import pytest

from repro.common.errors import ProgramError
from repro.sw.program import Affine, ArrayDecl, ArrayRef, Loop, LoopNest, Program
from repro.sw.tiling import TILE_SUFFIX, tile_nest, tile_program
from repro.sw.tracegen import generate_packed_trace, generate_trace, trace_mix
from repro.workloads.blas import build_sgemm, build_ssyrk, build_strmm


def rect_nest(n=16):
    a = ArrayDecl("A", n, n)
    return LoopNest("n", [Loop.over("i", n), Loop.over("j", n)],
                    [ArrayRef(a, Affine.of("i"), Affine.of("j"))]), a


class TestTileNest:
    def test_loop_structure(self):
        nest, _ = rect_nest(16)
        tiled = tile_nest(nest, {"i": 8, "j": 8})
        assert [lp.var for lp in tiled.loops] == \
            [f"i{TILE_SUFFIX}", f"j{TILE_SUFFIX}", "i", "j"]
        assert tiled.loops[0].upper.const == 2  # 16 / 8 tiles

    def test_point_loop_bounds_follow_tile_var(self):
        nest, _ = rect_nest(16)
        tiled = tile_nest(nest, {"i": 8})
        point = next(lp for lp in tiled.loops if lp.var == "i")
        assert point.lower.coeff(f"i{TILE_SUFFIX}") == 8
        assert point.upper.const - point.lower.const == 8

    def test_iteration_space_preserved(self):
        """Tiling permutes the iteration order but visits the same
        (i, j) set, so the trace touches the same words."""
        nest, a = rect_nest(16)
        program = Program("p", [a], [nest])
        tiled = tile_program(program, {"i": 8, "j": 8})
        words = set()
        for req in generate_trace(program, 2):
            words.update(req.words())
        tiled_words = set()
        for req in generate_trace(tiled, 2):
            tiled_words.update(req.words())
        assert words == tiled_words

    def test_untiled_var_kept(self):
        nest, _ = rect_nest(16)
        tiled = tile_nest(nest, {"i": 8})
        assert [lp.var for lp in tiled.loops] == \
            [f"i{TILE_SUFFIX}", "i", "j"]

    def test_rejects_unknown_loop(self):
        nest, _ = rect_nest()
        with pytest.raises(ProgramError):
            tile_nest(nest, {"z": 8})

    def test_rejects_indivisible_tile(self):
        nest, _ = rect_nest(16)
        with pytest.raises(ProgramError):
            tile_nest(nest, {"i": 5})

    def test_rejects_triangular_loop(self):
        program = build_strmm(16)
        with pytest.raises(ProgramError):
            tile_nest(program.nests[0], {"k": 8})

    def test_shallow_ref_depth_shifted(self):
        program = build_sgemm(16)
        tiled = tile_nest(program.nests[0], {"i": 8, "j": 8, "k": 8})
        store = [r for r in tiled.refs if r.is_write][0]
        # Originally depth 2 of 3; now under 3 tile loops as well.
        assert store.depth == 5


class TestTileProgram:
    def test_all_rectangular_nests_tiled(self):
        program = build_sgemm(16)
        tiled = tile_program(program, {"i": 8, "j": 8, "k": 8})
        assert tiled.nests[0].name.endswith("_tiled")
        assert tiled.name.endswith("_tiled")

    def test_triangular_nest_skipped_gracefully(self):
        program = build_strmm(16)
        tiled = tile_program(program, {"i": 8, "j": 8, "k": 8})
        # strmm's k loop is triangular: the nest survives untiled.
        assert tiled.nests[0].name == "trmm"

    def test_strict_mode_raises(self):
        program = build_strmm(16)
        with pytest.raises(ProgramError):
            tile_program(program, {"k": 8}, only_rectangular=False)

    def test_mixed_program_tiles_where_possible(self):
        program = build_ssyrk(16)
        tiled = tile_program(program, {"i": 8, "j": 8, "k": 8})
        names = [nest.name for nest in tiled.nests]
        assert names == ["syrk_tiled", "rescale_tiled"]

    def test_tiled_trace_volume_not_smaller(self):
        """Tiling re-reads the accumulator per k-tile, so total volume
        grows (the win is reuse, not fewer accesses)."""
        program = build_sgemm(16)
        tiled = tile_program(program, {"i": 8, "j": 8, "k": 8})
        plain_bytes = trace_mix(generate_packed_trace(program, 2)).total
        tiled_bytes = trace_mix(generate_packed_trace(tiled, 2)).total
        assert tiled_bytes >= plain_bytes
