// End-to-end distributed equivalence for spec-driven problems: every named
// spec (and a handful of random ones) run through run_distributed must match
// solve_serial_spec bit-for-bit on every z plane, under both schedulers and
// the optimized kernels, in base (steps=1) and CA (steps>1) mode. The star5
// spec must additionally reproduce the LEGACY hard-wired solver exactly —
// same field bytes, same message and byte counts.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "equivalence_helpers.hpp"
#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "stencil/spec_kernel.hpp"

namespace repro::stencil {
namespace {

// 24x22 grid over 8x11 tiles on a 2x2 node grid: 3x2 tiles mixing remote
// and local sides in both dimensions, plus ragged edge tiles.
DistConfig small_config(int steps, rt::SchedPolicy sched,
                        KernelVariant kernel = KernelVariant::Scalar) {
  DistConfig config;
  config.decomp = {8, 11, 2, 2};
  config.steps = steps;
  config.workers_per_rank = 2;
  config.scheduler = sched;
  config.kernel = kernel;
  return config;
}

// Thin wrapper over the shared oracle helper: runs the distributed solve and
// tags any mismatch with the spec literal plus the full configuration line.
::testing::AssertionResult planes_match(const Problem& problem,
                                        const DistConfig& config) {
  const DistResult d = run_distributed(problem, config);
  const auto match = test_support::planes_match(solve_serial_spec(problem), d);
  if (!match) {
    return ::testing::AssertionFailure()
           << match.message() << " spec " << problem.spec->to_literal() << " "
           << test_support::describe(config);
  }
  return match;
}

TEST(SpecDist, NamedSpecsBitExactAllSchedulers) {
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    for (int steps : {1, 2}) {
      for (rt::SchedPolicy sched :
           {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
        EXPECT_TRUE(planes_match(problem, small_config(steps, sched)))
            << name << " steps=" << steps
            << " sched=" << rt::sched_policy_name(sched);
      }
    }
  }
}

TEST(SpecDist, PersistentChannelBitExactForNamedSpecs) {
  // The persistent route path on the spec front end: every named spec's
  // halos ride registered route buffers split into nfield fragments (the
  // multi-plane programs exercise true multi-fragment assembly), and each z
  // plane must still match the serial oracle bit-for-bit.
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    for (int steps : {1, 2}) {
      DistConfig config = small_config(steps, rt::SchedPolicy::WorkStealing);
      config.persistent = true;
      EXPECT_TRUE(planes_match(problem, config))
          << name << " steps=" << steps << " persistent";
    }
  }
}

TEST(SpecDist, FusedWavefrontBitExactForNamedSpecs) {
  // Fused wavefronts on the spec front end: every named spec whose ghost
  // depth (radius * fuse) fits the smallest tile extent (8 here) runs through
  // the fuse-ready builder + rt::fuse_supersteps and must stay bit-exact on
  // every z plane — under both schedulers, and composed with the persistent
  // wire (routes survive the rewrite because window-boundary publishes keep
  // their slot identities).
  for (const std::string& name : spec::spec_names()) {
    const spec::StencilSpec sp = spec::spec_by_name(name);
    const int nz = sp.rank == 3 ? 3 : 1;
    const Problem problem = spec_problem(sp, 24, 22, 6, nz, 11);
    const int radius = spec::compile_spec(sp, nz).radius;
    for (int fuse : {2, 3}) {
      if (radius * fuse > 8) continue;
      for (rt::SchedPolicy sched :
           {rt::SchedPolicy::PriorityFifo, rt::SchedPolicy::WorkStealing}) {
        DistConfig config = small_config(1, sched);
        config.fuse_depth = fuse;
        EXPECT_TRUE(planes_match(problem, config))
            << name << " fuse=" << fuse;
      }
      DistConfig config = small_config(1, rt::SchedPolicy::WorkStealing);
      config.fuse_depth = fuse;
      config.persistent = true;
      EXPECT_TRUE(planes_match(problem, config))
          << name << " fuse=" << fuse << " persistent";
    }
  }
}

TEST(SpecDist, OptimizedKernelsStayBitExact) {
  // Spec programs route non-Scalar variants through the row-band blocked
  // sweep (and star5 through jacobi5_opt); results must not move.
  const Problem box = spec_problem(spec::StencilSpec::box27(), 24, 22, 6, 2);
  EXPECT_TRUE(planes_match(
      box, small_config(2, rt::SchedPolicy::WorkStealing,
                        KernelVariant::Blocked)));
  const Problem star = spec_problem(spec::StencilSpec::star5(), 24, 22, 6, 1);
  EXPECT_TRUE(planes_match(
      star, small_config(2, rt::SchedPolicy::PriorityFifo,
                         KernelVariant::Vector)));
}

TEST(SpecDist, RandomSpecsBitExact) {
  for (unsigned long seed = 1; seed <= 6; ++seed) {
    const spec::StencilSpec sp = spec::random_spec(seed);
    const Problem problem =
        spec_problem(sp, 24, 22, 6, sp.rank == 3 ? 2 : 1, 11);
    EXPECT_TRUE(planes_match(
        problem, small_config(2, rt::SchedPolicy::WorkStealing)))
        << sp.to_literal();
  }
}

TEST(SpecDist, Star5SpecMatchesLegacyDistExactly) {
  // The spec path with the star5 spec must be indistinguishable from the
  // hard-wired 5-point solver: identical field AND identical traffic.
  const Problem ps = spec_problem(spec::StencilSpec::star5(), 24, 22, 6, 1,
                                  11);
  Problem pl = ps;
  pl.spec.reset();
  pl.weights = Stencil5::test_weights();
  for (int steps : {1, 2}) {
    const DistConfig config =
        small_config(steps, rt::SchedPolicy::PriorityFifo);
    const DistResult a = run_distributed(ps, config);
    const DistResult b = run_distributed(pl, config);
    EXPECT_EQ(Grid2D::max_abs_diff(a.grid, b.grid), 0.0) << "steps=" << steps;
    EXPECT_EQ(a.stats.messages, b.stats.messages) << "steps=" << steps;
    EXPECT_EQ(a.stats.bytes, b.stats.bytes) << "steps=" << steps;
    EXPECT_EQ(a.computed_points, b.computed_points) << "steps=" << steps;
  }
}

TEST(SpecDist, CornerMessagesFollowDiagonalTaps) {
  // box9 (diagonal taps) exchanges corners every superstep even at steps=1;
  // star9 (cross) needs no corners at steps=1 despite its radius 2.
  const DistConfig base = small_config(1, rt::SchedPolicy::PriorityFifo);
  const Problem star9 =
      spec_problem(spec::StencilSpec::star9(), 24, 22, 4, 1, 11);
  const Problem box9 =
      spec_problem(spec::StencilSpec::box9(), 24, 22, 4, 1, 11);
  const DistResult rs = run_distributed(star9, base);
  const DistResult rb = run_distributed(box9, base);
  // star9 sends 2-deep face bands only; box9 sends faces + corners.
  // Exactness is covered above; here we pin traffic.
  EXPECT_GT(rb.stats.messages, 0u);
  EXPECT_GT(rs.stats.messages, 0u);
  // Corner payloads exist only for box9: with equal supersteps a cross spec
  // sends 4 faces/tile-exchange, the box adds its diagonals.
  const Problem star5 =
      spec_problem(spec::StencilSpec::star5(), 24, 22, 4, 1, 11);
  const DistResult r5 = run_distributed(star5, base);
  EXPECT_GT(rb.stats.messages, r5.stats.messages);
  EXPECT_EQ(rs.stats.messages, r5.stats.messages);
}

TEST(SpecDist, RadiusThreeCrossRunsOneTaskPerTileIteration) {
  // A radius-3 cross is one direct program: one STEP task per tile per
  // iteration, and each state buffer holds exactly the program's nfield
  // planes over a 3-deep ghost ring (one node: every side ghost is radius
  // deep).
  spec::StencilSpec cross3;
  cross3.points = {{{0, 0, 0}, 0.3}};
  for (int d = 1; d <= 3; ++d) {
    for (const auto& off : {std::array<int, 3>{-d, 0, 0}, {d, 0, 0},
                            {0, -d, 0}, {0, d, 0}}) {
      cross3.points.push_back({off, 0.05});
    }
  }
  const int iters = 5;
  const Problem problem = spec_problem(cross3, 16, 16, iters, 1, 11);
  DistConfig config;
  config.decomp = {8, 8, 1, 1};
  config.workers_per_rank = 2;

  rt::TaskGraph graph;
  const SolveSubgraph subgraph = add_solve_subgraph(graph, problem, config);
  rt::Runtime runtime(rt::Config{subgraph.nodes(), 2});
  const rt::RunStats stats = runtime.run(graph);
  EXPECT_EQ(stats.tasks_executed, 4u * (iters + 1));

  const int nfield = spec::compile_spec(cross3).nfield;
  const TileGeom g{8, 8, 3, 3, 3, 3};
  for (int ti = 0; ti < 2; ++ti) {
    for (int tj = 0; tj < 2; ++tj) {
      const rt::Buffer state = runtime.result({1, iters, ti, tj}, 0);
      EXPECT_EQ(state->size(), static_cast<std::size_t>(nfield) * g.size());
    }
  }
  const std::vector<Grid2D> expected = solve_serial_spec(problem);
  EXPECT_EQ(Grid2D::max_abs_diff(expected[0], subgraph.gather(runtime)), 0.0);
}

TEST(SpecDist, GatherPlanesShapesAndRedundancy) {
  const Problem problem =
      spec_problem(spec::StencilSpec::heat3d(), 24, 22, 4, 3, 11);
  const DistConfig config = small_config(2, rt::SchedPolicy::PriorityFifo);
  const DistResult r = run_distributed(problem, config);
  ASSERT_EQ(r.planes.size(), 3u);
  for (const Grid2D& plane : r.planes) {
    EXPECT_EQ(plane.rows(), 24);
    EXPECT_EQ(plane.cols(), 22);
  }
  // CA at steps=2 recomputes ghost bands: redundant work must be counted.
  EXPECT_GT(r.redundancy(), 0.0);
  EXPECT_GT(r.flops_per_point, 0.0);
}

TEST(SpecDist, OversizedStepsThrow) {
  const Problem problem =
      spec_problem(spec::StencilSpec::star9(), 24, 22, 4, 1, 11);
  // star9's ghost depth is radius * steps = 2 * 8 = 16, deeper than the
  // smallest tile extent (8): must throw.
  DistConfig config = small_config(8, rt::SchedPolicy::PriorityFifo);
  EXPECT_THROW(run_distributed(problem, config), std::invalid_argument);
}

}  // namespace
}  // namespace repro::stencil
