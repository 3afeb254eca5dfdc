// Atomic-stage decomposition: compile a StencilSpec into a cyclic program of
// radius-1 multi-component stages (Qiqi Wang's "swept"/atomic-stage
// construction, generalized to arbitrary point sets).
//
// Construction. Let r = radius_xy (Chebyshev reach over the decomposed
// axes) and clamp(o, k) limit each decomposed coordinate of offset o to
// [-k, k]. For t = 1..r-1 the level set V_t = { clamp(o_xy, r - t) } names
// the intermediate components; component (t, v) holds the weighted partial
//
//     c^t_v(x) = sum_{o : clamp(o_xy, r-t) = v} w_o * u(x + (o_xy - v), ...)
//
// Because clamp(clamp(o, k+1), k) = clamp(o, k), each v' in V_{t-1} has
// exactly one successor v = clamp(v', r - t), giving the recurrence
//
//     c^t_v(x) = sum_{v' -> v} c^{t-1}_{v'}(x + (v' - v))
//
// where every shift o_xy - clamp(o_xy, r-1) (stage 1) and v' - v (later
// stages) lies in {-1, 0, 1}^2 — each stage reads at most one cell deep.
// Stage r reassembles the field: u'(x) = sum_{v' in V_{r-1}} c^{r-1}_{v'}
// (x + v'), which telescopes back to sum_o w_o u(x + o) exactly (same terms,
// regrouped — bit-exactness against a DIRECT wide-stencil evaluation is only
// up to FP reassociation, which is why the serial oracle runs this same
// staged program).
//
// Rank 3 runs as 2.5D: z is folded into components (one field plane per z
// index, Dirichlet z-boundary planes included), z offsets are consumed at
// stage 1 as component index deltas, and only the two decomposed axes are
// staged — a 7-point heat3d spec compiles to a SINGLE stage.
//
// Exterior (Dirichlet) cells: intermediate components are never recomputed
// outside the interior, so their boundary-ring values are STATIC partials of
// the boundary data. Every component carries an explicit pad rule
// (ExteriorTerm list) evaluated once at init; a ring cell of component c
// holds sum_k w_k * G(i + di_k, j + dj_k, z_k) with G the global Dirichlet /
// initial sampler. (Stage-consistency is why components are allocated per
// (stage level, remainder) pair and never shared across levels.)
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "spec/stencil_spec.hpp"

namespace repro::spec {

/// One read of the stage kernel: component plane + decomposed-axis shift.
/// Taps are accumulated in listed order (semantic: pins FP rounding).
struct StageTap {
  int in_comp = 0;
  int di = 0;  ///< row shift, in {-1, 0, 1}
  int dj = 0;  ///< col shift, in {-1, 0, 1}
  double w = 0.0;
};

/// One component plane a stage writes. Components without an output in a
/// given stage carry their previous value through (the driver copies those
/// planes whole into the output buffer before applying the stage).
struct StageOutput {
  int comp = 0;
  std::vector<StageTap> taps;
};

struct Stage {
  std::vector<StageOutput> outputs;
};

/// One term of a component's static exterior fill rule: weight * sample at
/// (i + di, j + dj) in absolute z plane `z` (see CompiledProgram::zlo).
struct ExteriorTerm {
  double w = 0.0;
  int di = 0;
  int dj = 0;
  int z = 0;  ///< absolute z plane index in [-zlo, nz + zhi) shifted by +zlo
};

/// A compiled staged stencil: ncomp planes per cell, nstages radius-1 stages
/// applied cyclically. Field planes are components [0, nfield): plane c holds
/// z index (c - zlo), with planes outside [zlo, zlo + nz) being frozen
/// Dirichlet z-boundary planes. Intermediate components follow.
struct CompiledProgram {
  int rank = 2;
  int nz = 1;       ///< interior z planes
  int zlo = 0;      ///< z ghost planes below (rank 3 only)
  int zhi = 0;      ///< z ghost planes above
  int nfield = 1;   ///< nz + zlo + zhi — the planes halo exchange must carry
  int ncomp = 1;    ///< total planes per cell
  int nstages = 1;
  bool diagonal_taps = false;  ///< any tap with di != 0 && dj != 0
  std::vector<Stage> stages;
  /// Per-component exterior fill rule (see file comment). Field plane c gets
  /// the identity rule {1.0, 0, 0, c}.
  std::vector<std::vector<ExteriorTerm>> pad;
  /// Set when the program is the classic single-stage 2D 5-point stencil in
  /// jacobi5 tap order (c, n, s, w, e) — the driver dispatches the optimized
  /// cache-blocked jacobi5 kernels for it.
  std::optional<std::array<double, 5>> star5;

  /// Flops per computed cell per STAGE, averaged over the cycle (so
  /// flops_per_point * stage_cell_updates approximates total flops the same
  /// way the 5-point path's 9 * points does).
  double flops_per_point() const;
  /// Total taps across the whole cycle (one full iteration, all z planes).
  long long taps_total() const;
};

/// Compile `spec` for `nz` interior z planes (must be 1 for rank <= 2).
/// Validates the spec; throws std::invalid_argument on malformed input.
CompiledProgram compile_spec(const StencilSpec& spec, int nz = 1);

}  // namespace repro::spec
