// Generic spec kernel: execute a compiled atomic-stage program
// (spec/stages.hpp) over halo-padded multi-plane tile buffers, plus the
// spec-driven serial reference (solve_serial_spec) — the bit-exact oracle
// for every spec-driven distributed run.
//
// Buffer layout: ncomp planes of geom.size() doubles each, plane-major —
// component c's cell (i, j) lives at c * geom.size() + geom.idx(i, j)
// (the same layout as the variable-coefficient kCoeffPlanes buffers).
//
// Bit-exactness contract: the serial oracle and the distributed driver call
// the SAME apply_program_stage with the same per-point tap order, and Jacobi
// stages have no cross-point ordering, so any tiling/traversal yields
// identical bits. The recognized star5 program additionally dispatches the
// classic jacobi5 kernels (bit-identical by kernel_opt.hpp's rule).
#pragma once

#include <vector>

#include "spec/stages.hpp"
#include "stencil/grid.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/problem.hpp"

namespace repro::stencil {

/// Compile problem.spec for problem.nz, validating the spec-path invariants
/// (spec set; initial3/boundary3 present; no shape/coefficient; nz matches
/// the rank). Throws std::invalid_argument on violations.
spec::CompiledProgram compile_problem_spec(const Problem& problem);

/// Sample the global Dirichlet/initial field for field plane `plane` (in
/// [0, nfield)) at global (gi, gj): initial3 inside the interior box (all
/// three axes), boundary3 outside — the "G" sampler of the exterior rules.
double spec_sample(const spec::CompiledProgram& prog, const Problem& problem,
                   int plane, long gi, long gj);

/// Initial value of component `comp` at global (gi, gj): field planes sample
/// G directly; intermediate components are 0 on the interior (dead — stage 1
/// rewrites them before any read) and hold their static exterior-rule
/// partial of the boundary data outside. Used identically by the serial
/// oracle and the distributed INIT tasks, which is what makes their
/// never-recomputed ring cells agree bit-for-bit.
double spec_init_value(const spec::CompiledProgram& prog,
                       const Problem& problem, int comp, long gi, long gj);

/// Apply stage `stage_idx` of the program over [r0,r1) x [c0,c1) in core
/// coordinates (bounds may reach into ghost regions; each stage reads at
/// most 1 cell deep). `in` and `out` are ncomp-plane buffers. The stage
/// writes only the rectangle of its output components: components it does
/// not output, and output-component cells outside the rectangle, must
/// already hold their carried-over values in `out` (the distributed driver
/// copies exactly those cells from `in`). Blocked/Vector variants change the
/// traversal only (bit-identical); the recognized star5 program dispatches
/// jacobi5_opt.
void apply_program_stage(const double* in, double* out, const TileGeom& geom,
                         const spec::CompiledProgram& prog, int stage_idx,
                         int r0, int r1, int c0, int c1,
                         KernelVariant kernel = KernelVariant::Scalar,
                         const KernelTuning& tuning = {});

/// The spec-driven serial reference: runs the SAME staged program as the
/// distributed driver on one ring-padded buffer and returns the nz interior
/// z planes (rank <= 2: exactly one). Ring cells hold boundary3, like the
/// distributed gather.
std::vector<Grid2D> solve_serial_spec(const Problem& problem);

}  // namespace repro::stencil
