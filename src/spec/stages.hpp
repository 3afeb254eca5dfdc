// Compiled stencil program: a StencilSpec lowered to one direct radius-r
// stage over plane-major tile buffers.
//
// Every interior z plane gets one output whose taps are the spec's points in
// listed order: the plane delta is the point's z offset, the row/col shift
// its decomposed-axis offset (up to radius_xy deep). The driver runs the
// program on the radius-r CA machinery the paper's PA1 scheme defines —
// ghost bands r*s deep, shrinking by r per inner step — and the serial
// oracle runs the same program on an r-deep ring.
//
// Rank 3 runs as 2.5D: z is folded into planes (one field plane per z
// index, Dirichlet z-boundary planes included) and only the two decomposed
// axes are distributed over tiles.
//
// A radius-r spec is not split into r chained radius-1 stages (Qiqi Wang's
// atomic-stage construction, PAPERS.md): that moves the same halo traffic
// but computes r times the points, and measured 2.5-5x slower for radius
// 2-3 crosses (DESIGN.md §15).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "spec/stencil_spec.hpp"

namespace repro::spec {

/// One read of the program: field plane + decomposed-axis shift. Taps are
/// accumulated in listed order (semantic: pins FP rounding).
struct StageTap {
  int in_comp = 0;
  int di = 0;  ///< row shift, |di| <= radius
  int dj = 0;  ///< col shift, |dj| <= radius
  double w = 0.0;
};

/// One plane the program writes (one per interior z plane).
struct StageOutput {
  int comp = 0;
  std::vector<StageTap> taps;
};

/// A compiled stencil: nfield planes per cell, one direct stage per
/// iteration. Plane c holds z index (c - zlo); planes outside
/// [zlo, zlo + nz) are frozen Dirichlet z-boundary planes.
struct CompiledProgram {
  int rank = 2;
  int nz = 1;       ///< interior z planes
  int zlo = 0;      ///< z ghost planes below (rank 3 only)
  int zhi = 0;      ///< z ghost planes above
  int nfield = 1;   ///< nz + zlo + zhi — the planes halo exchange carries
  int ncomp = 1;    ///< planes per state buffer; always == nfield
  /// Ghost depth per step on the decomposed axes: max(1, radius_xy()).
  int radius = 1;
  bool diagonal_taps = false;  ///< any tap with di != 0 && dj != 0
  std::vector<StageOutput> outputs;
  /// Set when the program is the classic 2D 5-point stencil in jacobi5 tap
  /// order (c, n, s, w, e) — the driver dispatches the optimized
  /// cache-blocked jacobi5 kernels for it.
  std::optional<std::array<double, 5>> star5;

  /// Flops per updated cell (all nz planes): one multiply per tap plus
  /// (taps - 1) adds, per output.
  double flops_per_point() const;
};

/// Compile `spec` for `nz` interior z planes (must be 1 for rank <= 2).
/// Validates the spec; throws std::invalid_argument on malformed input.
CompiledProgram compile_spec(const StencilSpec& spec, int nz = 1);

}  // namespace repro::spec
