"""Software support: program IR, direction analysis, layout, vectorizer."""

from .directions import DirectionInfo, analyze_ref, analyze_ref_1d
from .layout import (
    ArrayAddressing,
    Layout,
    LinearLayout,
    TiledLayout,
    make_layout,
)
from .profiling import ProfileVerdict, profile_directions, profile_ref
from .program import Affine, ArrayDecl, ArrayRef, Loop, LoopNest, Program
from .tiling import tile_nest, tile_program
from .tracefile import format_request, parse_request, read_trace, write_trace
from .tracegen import (
    TraceMix,
    generate_packed_trace,
    generate_trace,
    trace_length,
    trace_mix,
)
from .vectorizer import (
    CompiledNest,
    CompiledProgram,
    CompiledRef,
    VECTOR_LANES,
    VecClass,
    classify_ref,
    compile_program,
)

__all__ = [
    "Affine",
    "ArrayAddressing",
    "ArrayDecl",
    "ArrayRef",
    "CompiledNest",
    "CompiledProgram",
    "CompiledRef",
    "DirectionInfo",
    "Layout",
    "LinearLayout",
    "Loop",
    "LoopNest",
    "ProfileVerdict",
    "Program",
    "TiledLayout",
    "TraceMix",
    "VECTOR_LANES",
    "VecClass",
    "analyze_ref",
    "analyze_ref_1d",
    "classify_ref",
    "compile_program",
    "profile_directions",
    "profile_ref",
    "tile_nest",
    "tile_program",
    "format_request",
    "parse_request",
    "read_trace",
    "write_trace",
    "generate_packed_trace",
    "generate_trace",
    "make_layout",
    "trace_length",
    "trace_mix",
]
