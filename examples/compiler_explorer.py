#!/usr/bin/env python
"""Compiler explorer: direction analysis + vectorization on a custom kernel.

Builds the paper's Section V example nest by hand —

    for i in range(N):
        for j in range(N):          # innermost
            ... X[i][j] ...         # row-wise
            ... Y[j][i] ...         # column-wise
            ... Z[i+j][i+2] ...     # column-wise
            ... W[i][3] ...         # loop-invariant
            ... V[i][2*j] ...       # strided, not vectorizable

— and shows, per static reference, what the compiler support extracts:
the annotated orientation, whether the access is discerned, and the
vectorization class under 2-D (MDA) and 1-D (conventional) compilation.
Finally it prints the Fig. 10-style access-type mix of the resulting
trace for both compilation targets.
"""

from repro.sw.program import Affine, ArrayDecl, ArrayRef, Loop, LoopNest, Program
from repro.sw.tracegen import generate_packed_trace, trace_mix
from repro.sw.vectorizer import compile_program

N = 24


def build_example() -> Program:
    arrays = {name: ArrayDecl(name, 2 * N + 2, 2 * N + 2)
              for name in "XYZWV"}
    refs = [
        ArrayRef(arrays["X"], Affine.of("i"), Affine.of("j")),
        ArrayRef(arrays["Y"], Affine.of("j"), Affine.of("i")),
        ArrayRef(arrays["Z"], Affine.of("i") + Affine.of("j"),
                 Affine.of("i") + 2),
        ArrayRef(arrays["W"], Affine.of("i"), Affine.constant(3)),
        ArrayRef(arrays["V"], Affine.of("i"), Affine.of("j", coeff=2)),
    ]
    nest = LoopNest("example", [Loop.over("i", N), Loop.over("j", N)],
                    refs)
    return Program("section5", list(arrays.values()), [nest])


def describe(program: Program, dims: int) -> None:
    target = "MDA (logically 2-D)" if dims == 2 else "conventional (1-D)"
    print(f"--- compiled for the {target} hierarchy ---")
    compiled = compile_program(program, dims)
    header = (f"{'reference':<16} {'orientation':<12} "
              f"{'discerned':<10} {'class':<16}")
    print(header)
    print("-" * len(header))
    for cref in compiled.nests[0].refs:
        ref = cref.ref
        name = f"{ref.array.name}[{ref.row}][{ref.col}]"
        info = cref.direction
        print(f"{name:<16} {info.orientation.name:<12} "
              f"{str(info.discerned):<10} {cref.vec_class.value:<16}")
    mix = trace_mix(generate_packed_trace(program, dims))
    fractions = mix.fractions()
    print(f"trace mix by volume: "
          f"row scalar {fractions['row_scalar']:.2f}, "
          f"row vector {fractions['row_vector']:.2f}, "
          f"col scalar {fractions['col_scalar']:.2f}, "
          f"col vector {fractions['col_vector']:.2f}\n")


def main() -> None:
    program = build_example()
    describe(program, dims=2)
    describe(program, dims=1)
    print("Note how Y and Z vectorize along the column direction only "
          "under the MDA target,\nwhile the 1-D target serializes them "
          "into strided scalar walks (paper Section V).")


if __name__ == "__main__":
    main()
