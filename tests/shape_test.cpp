// Radius-r cross and box stencils through the spec front end — unit tests
// on the direct program kernel plus the distributed equivalence suite for
// the radius-r CA geometry (r*s-deep ghosts, r-per-step shrink, diagonal
// flows).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "spec/stages.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/halo.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"

namespace repro::stencil {
namespace {

/// Radius-r cross (4r+1 points) or box ((2r+1)^2 points) spec: center, then
/// for k = 1..r the axis taps (-k,0), (k,0), (0,-k), (0,k), then for boxes
/// the off-axis cells in row-major order. Weights are deterministic,
/// unequal, and normalized to sum 0.9 (contractive).
spec::StencilSpec cross_or_box(int radius, bool box) {
  spec::StencilSpec sp;
  sp.name = (box ? "box" : "cross") + std::to_string(radius);
  sp.points.push_back({{0, 0, 0}, 0.0});
  for (int k = 1; k <= radius; ++k) {
    sp.points.push_back({{-k, 0, 0}, 0.0});
    sp.points.push_back({{k, 0, 0}, 0.0});
    sp.points.push_back({{0, -k, 0}, 0.0});
    sp.points.push_back({{0, k, 0}, 0.0});
  }
  if (box) {
    for (int di = -radius; di <= radius; ++di) {
      for (int dj = -radius; dj <= radius; ++dj) {
        if (di != 0 && dj != 0) sp.points.push_back({{di, dj, 0}, 0.0});
      }
    }
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < sp.points.size(); ++k) {
    sp.points[k].coeff = 1.0 + static_cast<double>(k % 7) / 3.0;
    sum += sp.points[k].coeff;
  }
  for (spec::StencilPoint& p : sp.points) p.coeff *= 0.9 / sum;
  return sp;
}

TEST(ProgramKernel, GenericStar5MatchesJacobi5BitForBit) {
  // The generic direct-program loop (star5 recognition cleared) must round
  // exactly like jacobi5: one multiply-add sequence per point in tap order.
  const int tile = 9;
  const TileGeom g{tile, tile, 1, 1, 1, 1};
  const Stencil5 w = Stencil5::test_weights();
  spec::CompiledProgram prog = spec::compile_spec(
      spec::StencilSpec::star5({w.center, w.north, w.south, w.west, w.east}));
  ASSERT_TRUE(prog.star5.has_value());
  prog.star5.reset();

  std::vector<double> in(g.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(0.1 * static_cast<double>(i));
  }
  std::vector<double> a(g.size(), -1.0), b(g.size(), -1.0);
  jacobi5(in.data(), a.data(), g, w, 0, tile, 0, tile);
  apply_program_stage(in.data(), b.data(), g, prog, 0, 0, tile, 0, tile);
  for (int i = 0; i < tile; ++i) {
    for (int j = 0; j < tile; ++j) {
      EXPECT_EQ(a[g.idx(i, j)], b[g.idx(i, j)]) << i << "," << j;
    }
  }
}

TEST(ProgramKernel, BoxReadsDiagonalsAndCrossReadsRadiusDeep) {
  // A one-tap program reads exactly its offset: the NW diagonal of a box,
  // and three cells north for a radius-3 cross.
  spec::StencilSpec diag;
  diag.points = {{{-1, -1, 0}, 2.0}};
  const spec::CompiledProgram dp = spec::compile_spec(diag);
  EXPECT_TRUE(dp.diagonal_taps);
  EXPECT_EQ(dp.radius, 1);
  const TileGeom g1{1, 1, 1, 1, 1, 1};
  std::vector<double> in(g1.size(), 0.0);
  in[g1.idx(-1, -1)] = 3.0;
  std::vector<double> out(g1.size(), -1.0);
  apply_program_stage(in.data(), out.data(), g1, dp, 0, 0, 1, 0, 1);
  EXPECT_DOUBLE_EQ(out[g1.idx(0, 0)], 6.0);

  spec::StencilSpec north3;
  north3.points = {{{-3, 0, 0}, 0.5}};
  const spec::CompiledProgram np = spec::compile_spec(north3);
  EXPECT_FALSE(np.diagonal_taps);
  EXPECT_EQ(np.radius, 3);
  const TileGeom g3{2, 2, 3, 3, 3, 3};
  std::vector<double> in3(g3.size(), 0.0);
  in3[g3.idx(-3, 1)] = 4.0;
  std::vector<double> out3(g3.size(), -1.0);
  apply_program_stage(in3.data(), out3.data(), g3, np, 0, 0, 2, 0, 2);
  EXPECT_DOUBLE_EQ(out3[g3.idx(0, 1)], 2.0);
  EXPECT_DOUBLE_EQ(out3[g3.idx(0, 0)], 0.0);
  EXPECT_THROW(
      apply_program_stage(in3.data(), out3.data(), g3, np, 1, 0, 2, 0, 2),
      std::invalid_argument);
}

TEST(Halo, LocalLineDepthTwoCopiesBothColumns) {
  const int h = 4, w = 5, r = 2;
  const TileGeom g{h, w, r, r, r, r};
  std::vector<double> nbr(g.size());
  for (int i = -r; i < h + r; ++i) {
    for (int j = -r; j < w + r; ++j) nbr[g.idx(i, j)] = i * 100.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_line(mine.data(), g, Side::West, nbr.data(), g, r);
  for (int i = -r; i < h + r; ++i) {
    for (int d = 1; d <= r; ++d) {
      // Our col -d = neighbor col w-d.
      EXPECT_DOUBLE_EQ(mine[g.idx(i, -d)], i * 100.0 + (w - d));
    }
  }
  EXPECT_DOUBLE_EQ(mine[g.idx(0, 0)], -7.0);
  // Depth mismatch rejected.
  EXPECT_THROW(copy_local_line(mine.data(), g, Side::West, nbr.data(), g, 1),
               std::invalid_argument);
}

TEST(Halo, LocalCornerCopiesDiagonalCore) {
  const int h = 5, w = 5, r = 2;
  const TileGeom g{h, w, r, r, r, r};
  std::vector<double> diag(g.size());
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < w; ++j) diag[g.idx(i, j)] = i * 10.0 + j;
  }
  std::vector<double> mine(g.size(), -7.0);
  copy_local_corner(mine.data(), g, Corner::NW, diag.data(), g);
  for (int a = 1; a <= r; ++a) {
    for (int b = 1; b <= r; ++b) {
      // Our (-a,-b) = diag core (h-a, w-b).
      EXPECT_DOUBLE_EQ(mine[g.idx(-a, -b)], (h - a) * 10.0 + (w - b));
    }
  }
  EXPECT_DOUBLE_EQ(mine[g.idx(0, 0)], -7.0);
}

TEST(TileMapTopology, CornerNeighborsAreFirstClass) {
  // Regression for latent 4-neighbor assumptions: with one tile per node on
  // a 3x3 grid, EVERY neighbor of the center tile — corners included — is
  // remote, and the map must report the full 8-neighborhood. Spec-driven box
  // stencils route corner exchanges through exactly these queries.
  const TileMap map(12, 12, 4, 4, 3, 3);
  EXPECT_EQ(map.neighbor_count(1, 1), 8);
  EXPECT_EQ(map.neighbor_count(1, 1, /*remote_only=*/true), 8);
  // Corner tile: 3 neighbors (E, S, SE), all remote.
  EXPECT_EQ(map.neighbor_count(0, 0), 3);
  EXPECT_EQ(map.neighbor_count(0, 0, /*remote_only=*/true), 3);
  // Edge tile: 5 neighbors.
  EXPECT_EQ(map.neighbor_count(0, 1), 5);
  // Diagonal remoteness is distinct from face remoteness: on a 1x3 node
  // grid (columns split, rows shared) the center tile's N/S neighbors are
  // local but its diagonal neighbors are remote.
  const TileMap strips(12, 12, 4, 4, 1, 3);
  EXPECT_TRUE(strips.neighbor_remote(1, 1, 0, 1));
  EXPECT_FALSE(strips.neighbor_remote(1, 1, 1, 0));
  EXPECT_TRUE(strips.neighbor_remote(1, 1, 1, 1));
  EXPECT_TRUE(strips.neighbor_remote(1, 1, -1, -1));
  EXPECT_EQ(strips.neighbor_count(1, 1, /*remote_only=*/true), 6);
}

struct ShapeCase {
  int radius;
  bool box;
  int n, iters, tile, nodes, steps;

  friend std::ostream& operator<<(std::ostream& os, const ShapeCase& c) {
    return os << (c.box ? "box" : "cross") << c.radius << "_n" << c.n << "_it"
              << c.iters << "_t" << c.tile << "_p" << c.nodes << "_s"
              << c.steps;
  }
};

class ShapeDist : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ShapeDist, MatchesSerialBitForBit) {
  const ShapeCase c = GetParam();
  const spec::StencilSpec sp = cross_or_box(c.radius, c.box);
  const Problem problem = spec_problem(sp, c.n, c.n, c.iters);

  DistConfig config;
  config.decomp = {c.tile, c.tile, c.nodes, c.nodes};
  config.steps = c.steps;
  config.workers_per_rank = 2;

  const DistResult result = run_distributed(problem, config);
  const Grid2D expected = solve_serial(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected, result.grid), 0.0);
  EXPECT_DOUBLE_EQ(result.flops_per_point,
                   2.0 * static_cast<double>(sp.points.size()) - 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cross, ShapeDist,
    ::testing::Values(
        // radius-2 cross, base: 2-deep halos every iteration.
        ShapeCase{2, false, 24, 5, 6, 2, 1},
        // radius-2 cross with CA: 2s-deep ghosts, shrink 2/step.
        ShapeCase{2, false, 24, 7, 8, 2, 3},
        ShapeCase{2, false, 24, 6, 8, 3, 2},
        // radius-3 cross, base and CA, all sides remote.
        ShapeCase{3, false, 27, 5, 9, 3, 1},
        ShapeCase{3, false, 27, 5, 9, 3, 2},
        // radius*steps == tile (boundary of validity).
        ShapeCase{2, false, 24, 9, 8, 2, 4}));

INSTANTIATE_TEST_SUITE_P(
    Box, ShapeDist,
    ::testing::Values(
        // 9-point stencil, single node (local diagonal flows only).
        ShapeCase{1, true, 16, 5, 4, 1, 1},
        // 9-point, distributed base: remote corners every iteration.
        ShapeCase{1, true, 16, 6, 4, 2, 1},
        // 9-point with CA.
        ShapeCase{1, true, 20, 8, 5, 2, 3},
        // one tile per node: every corner remote, every step.
        ShapeCase{1, true, 18, 7, 6, 3, 2},
        // radius-2 box (25-point) with CA.
        ShapeCase{2, true, 24, 6, 8, 2, 2},
        // radius-2 box, base.
        ShapeCase{2, true, 24, 5, 8, 3, 1}));

TEST(ShapeDist, BoxBaseUsesCornerMessages) {
  // 2x2 nodes, one tile each: a box stencil must move corner blocks across
  // the diagonal even at s=1, unlike the cross.
  const Problem cross_p = spec_problem(cross_or_box(1, false), 12, 12, 4);
  const Problem box_p = spec_problem(cross_or_box(1, true), 12, 12, 4);

  DistConfig config;
  config.decomp = {6, 6, 2, 2};
  config.steps = 1;
  const auto cross_r = run_distributed(cross_p, config);
  const auto box_r = run_distributed(box_p, config);
  // Cross: 2 remote sides per tile -> 8 bands/round. Box adds 1 remote
  // diagonal per tile -> +4 corners/round.
  EXPECT_EQ(cross_r.stats.messages, 8u * 4);
  EXPECT_EQ(box_r.stats.messages, 12u * 4);
}

TEST(ShapeDist, ValidatesRadiusTimesSteps) {
  const Problem problem = spec_problem(cross_or_box(2, false), 16, 16, 4);
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  config.steps = 3;  // 2*3 > 4
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
  config.steps = 2;  // 2*2 <= 4
  EXPECT_NO_THROW(run_distributed(problem, config));
}

TEST(ShapeDist, SpecAndCoefficientAreExclusive) {
  Problem problem = spec_problem(cross_or_box(1, true), 16, 16, 2);
  problem.coefficient = random_variable_problem(16, 16, 2).coefficient;
  DistConfig config;
  config.decomp = {4, 4, 2, 2};
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
}

}  // namespace
}  // namespace repro::stencil
