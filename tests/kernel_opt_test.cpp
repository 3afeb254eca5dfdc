// Optimized-kernel equivalence: every variant in kernel_opt.hpp must match
// the scalar jacobi5 reference BIT FOR BIT (EXPECT_EQ on doubles, tolerance
// 0.0). The variants only reorder independent per-point updates or change
// the instruction selection (AVX2 without FMA), never the per-point rounding
// sequence, so exact equality is the contract — asymmetric test_weights and
// odd tile shapes make any directional or tail-handling bug change the bits.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stencil/dist_stencil.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/serial.hpp"

namespace repro::stencil {
namespace {

/// Deterministic, irregular fill so every cell is distinct and no value is
/// exactly representable in fewer bits than a full double.
std::vector<double> irregular_fill(const TileGeom& g, int salt) {
  std::vector<double> buf(g.size());
  for (int i = -g.gn; i < g.h + g.gs; ++i) {
    for (int j = -g.gw; j < g.w + g.ge; ++j) {
      buf[g.idx(i, j)] =
          std::sin(0.137 * i + 0.291 * j + 0.611 * salt) + 1e-3 * i - 7e-4 * j;
    }
  }
  return buf;
}

struct Rect {
  int r0, r1, c0, c1;
};

/// Geometries chosen so h, w, and every ghost depth differ (asymmetric),
/// with odd extents and widths straddling the AVX2 vector width.
const TileGeom kGeoms[] = {
    {7, 5, 1, 1, 1, 1},      // odd, smaller than one vector
    {13, 17, 2, 1, 3, 2},    // odd, asymmetric ghosts
    {9, 23, 4, 4, 4, 4},     // deep CA-style ghost band
    {6, 32, 1, 2, 2, 1},     // width a multiple of the vector width
};

Rect core_rect(const TileGeom& g) { return {0, g.h, 0, g.w}; }

/// A rectangle reaching into the ghost region on every side that has depth
/// for it (the CA redundant-compute shape), leaving one layer to read from.
Rect ghost_rect(const TileGeom& g) {
  return {-(g.gn - 1), g.h + (g.gs - 1), -(g.gw - 1), g.w + (g.ge - 1)};
}

class KernelOptEquivalence : public ::testing::TestWithParam<KernelVariant> {};

TEST_P(KernelOptEquivalence, MatchesScalarBitForBit) {
  const KernelVariant variant = GetParam();
  const Stencil5 w = Stencil5::test_weights();
  int salt = 0;
  for (const TileGeom& g : kGeoms) {
    for (const Rect r : {core_rect(g), ghost_rect(g)}) {
      if (r.r1 <= r.r0 || r.c1 <= r.c0) continue;
      if (r.r0 - 1 < -g.gn || r.r1 + 1 > g.h + g.gs || r.c0 - 1 < -g.gw ||
          r.c1 + 1 > g.w + g.ge) {
        continue;  // ghost_rect needs depth >= 2 to leave a read layer
      }
      const std::vector<double> in = irregular_fill(g, ++salt);
      std::vector<double> expected(g.size(), -1.0);
      std::vector<double> actual(g.size(), -1.0);
      jacobi5(in.data(), expected.data(), g, w, r.r0, r.r1, r.c0, r.c1);

      // Both AVX2 forced off and (if the CPU has it) forced on, plus tiny
      // blocks so the blocked traversal crosses many block boundaries.
      for (const int force : {0, 1}) {
        for (const auto& [br, bc] : {std::pair{64, 1024}, std::pair{2, 3}}) {
          KernelTuning tuning;
          tuning.force_avx2 = force;
          tuning.block_rows = br;
          tuning.block_cols = bc;
          std::fill(actual.begin(), actual.end(), -1.0);
          jacobi5_opt(in.data(), actual.data(), g, w, r.r0, r.r1, r.c0, r.c1,
                      variant, tuning);
          for (std::size_t idx = 0; idx < expected.size(); ++idx) {
            ASSERT_EQ(expected[idx], actual[idx])
                << "variant=" << kernel_variant_name(variant)
                << " force_avx2=" << force << " block=" << br << "x" << bc
                << " idx=" << idx;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelOptEquivalence,
                         ::testing::ValuesIn(kAllKernelVariants),
                         [](const auto& info) {
                           return std::string(kernel_variant_name(info.param));
                         });

/// Reference for jacobi5_temporal: m plain jacobi5 sweeps over the same
/// shrinking regions through full-buffer ping-pong copies.
std::vector<double> temporal_reference(const std::vector<double>& in,
                                       const TileGeom& g, const Stencil5& w,
                                       Rect r, int m,
                                       const std::array<bool, 4>& shrink) {
  std::vector<double> cur = in;
  std::vector<double> next = in;
  for (int t = 0; t < m; ++t) {
    const int r0 = r.r0 + (shrink[0] ? t : 0);
    const int r1 = r.r1 - (shrink[1] ? t : 0);
    const int c0 = r.c0 + (shrink[2] ? t : 0);
    const int c1 = r.c1 - (shrink[3] ? t : 0);
    next = cur;
    jacobi5(cur.data(), next.data(), g, w, r0, r1, c0, c1);
    std::swap(cur, next);
  }
  return cur;
}

class TemporalDepth : public ::testing::TestWithParam<int> {};

TEST_P(TemporalDepth, MatchesIteratedScalarOnShrinkingRegions) {
  const int m = GetParam();
  const Stencil5 w = Stencil5::test_weights();
  const std::array<std::array<bool, 4>, 3> shrink_sets = {{
      {true, true, true, true},     // interior CA tile: all sides shrink
      {true, false, false, true},   // mixed: two deep sides, two on the ring
      {false, false, false, false}  // whole-domain Dirichlet case
  }};
  // Ghosts deep enough for m shrink layers plus one read layer.
  const TileGeom g{9, 11, m + 1, m + 1, m + 1, m + 1};
  const std::vector<double> in = irregular_fill(g, 42 + m);

  for (const auto& shrink : shrink_sets) {
    const Rect r{shrink[0] ? -m : 0, g.h + (shrink[1] ? m : 0),
                 shrink[2] ? -m : 0, g.w + (shrink[3] ? m : 0)};
    const std::vector<double> expected =
        temporal_reference(in, g, w, r, m, shrink);
    std::vector<double> out = in;  // unwritten cells must persist
    jacobi5_temporal(in.data(), out.data(), g, w, r.r0, r.r1, r.c0, r.c1, m,
                     shrink);
    // Compare over the final region only: jacobi5_temporal contracts to
    // write just the last step's rectangle.
    const int fr0 = r.r0 + (shrink[0] ? m - 1 : 0);
    const int fr1 = r.r1 - (shrink[1] ? m - 1 : 0);
    const int fc0 = r.c0 + (shrink[2] ? m - 1 : 0);
    const int fc1 = r.c1 - (shrink[3] ? m - 1 : 0);
    for (int i = fr0; i < fr1; ++i) {
      for (int j = fc0; j < fc1; ++j) {
        ASSERT_EQ(expected[g.idx(i, j)], out[g.idx(i, j)])
            << "m=" << m << " shrink={" << shrink[0] << shrink[1] << shrink[2]
            << shrink[3] << "} cell (" << i << "," << j << ")";
      }
    }
    // Cells outside the written region keep their prior contents.
    for (int j = -g.gw; j < g.w + g.ge; ++j) {
      ASSERT_EQ(in[g.idx(-g.gn, j)], out[g.idx(-g.gn, j)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, TemporalDepth, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param);
                         });

TEST(KernelOptApi, VariantNamesRoundTrip) {
  for (KernelVariant v : kAllKernelVariants) {
    EXPECT_EQ(parse_kernel_variant(kernel_variant_name(v)), v);
  }
  EXPECT_THROW(parse_kernel_variant("turbo"), std::invalid_argument);
  EXPECT_THROW(parse_kernel_variant(""), std::invalid_argument);
}

TEST(KernelOptApi, Avx2ForcingIsRespected) {
  KernelTuning off;
  off.force_avx2 = 0;
  EXPECT_FALSE(avx2_selected(off));
  KernelTuning on;
  on.force_avx2 = 1;
  // Forcing on still requires hardware support; never claims phantom AVX2.
  EXPECT_EQ(avx2_selected(on), avx2_available());
}

TEST(KernelOptApi, TemporalRejectsImpossibleRegions) {
  const TileGeom g{4, 4, 2, 2, 2, 2};
  const std::vector<double> in(g.size(), 1.0);
  std::vector<double> out(g.size(), 0.0);
  const std::array<bool, 4> all{true, true, true, true};
  EXPECT_THROW(jacobi5_temporal(in.data(), out.data(), g,
                                Stencil5::test_weights(), 0, 4, 0, 4, 0, all),
               std::invalid_argument);
  // Shrinking 4 -> 0 cells before the last step.
  EXPECT_THROW(jacobi5_temporal(in.data(), out.data(), g,
                                Stencil5::test_weights(), 0, 4, 0, 4, 3, all),
               std::invalid_argument);
}

/// Dist-level invariance: the CA result is identical regardless of which
/// kernel variant computes it.
class DistVariantInvariance : public ::testing::TestWithParam<KernelVariant> {
};

TEST_P(DistVariantInvariance, MatchesSerialBitForBit) {
  const KernelVariant variant = GetParam();
  const Problem problem = random_problem(19, 23, 8);
  const Grid2D expected = solve_serial(problem);

  DistConfig config;
  config.decomp = {5, 4, 2, 2};
  config.steps = 3;  // bounded by the smallest remainder tile (23 % 4 = 3)
  config.workers_per_rank = 2;
  config.kernel = variant;
  config.tuning.block_rows = 3;  // tiny blocks: cross many block edges
  config.tuning.block_cols = 5;

  const DistResult result = run_distributed(problem, config);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0)
      << kernel_variant_name(variant);
  EXPECT_GE(result.computed_points, result.nominal_points);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, DistVariantInvariance,
                         ::testing::ValuesIn(kAllKernelVariants),
                         [](const auto& info) {
                           return std::string(kernel_variant_name(info.param));
                         });

}  // namespace
}  // namespace repro::stencil
