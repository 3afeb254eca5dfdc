// Flat task-graph storage: CSR consumer edges in their documented order,
// resolved producer indices, and allocation counts of seal() and of the
// stencil builder. Every check is an exact count, never a time.
//
// This binary replaces the global operator new to count heap blocks; the
// replacement forwards to malloc/free, so sanitizer builds still see every
// allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "runtime/graph.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/runtime.hpp"
#include "stencil/dist_stencil.hpp"
#include "support/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler never pairs an inlined free() with the
// operator new call it sees at the allocation site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace repro::rt {
namespace {

/// Heap blocks allocated while `call` runs.
template <class F>
std::size_t allocations_during(F&& call) {
  const std::size_t before = g_allocations.load();
  call();
  return g_allocations.load() - before;
}

/// The consumer lists as seal() has always defined them: walk consumers in
/// index order and their inputs in position order, appending each edge to
/// its producer's list.
std::vector<std::vector<TaskGraph::ConsumerEdge>> reference_edges(
    const TaskGraph& graph) {
  std::vector<std::vector<TaskGraph::ConsumerEdge>> edges(graph.size());
  for (std::size_t ci = 0; ci < graph.size(); ++ci) {
    const auto& inputs = graph.spec(ci).inputs;
    for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
      const FlowRef& flow = inputs[pos];
      edges[graph.index_of(flow.producer)].push_back(TaskGraph::ConsumerEdge{
          flow.slot, static_cast<std::uint32_t>(ci),
          static_cast<std::uint16_t>(pos), flow.route, flow.route_doubles,
          flow.route_fragments});
    }
  }
  return edges;
}

/// consumers(), producer_of() and input_begin() of a sealed graph against
/// the reference, edge by edge and field by field.
void expect_storage_matches_reference(const TaskGraph& graph) {
  const auto want = reference_edges(graph);
  std::size_t flat = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto got = graph.consumers(i);
    ASSERT_EQ(got.size(), want[i].size()) << "task " << i;
    for (std::size_t e = 0; e < got.size(); ++e) {
      EXPECT_EQ(got[e].consumer, want[i][e].consumer) << i << "/" << e;
      EXPECT_EQ(got[e].input_pos, want[i][e].input_pos) << i << "/" << e;
      EXPECT_EQ(got[e].slot, want[i][e].slot) << i << "/" << e;
      EXPECT_EQ(got[e].route, want[i][e].route) << i << "/" << e;
      EXPECT_EQ(got[e].route_doubles, want[i][e].route_doubles);
      EXPECT_EQ(got[e].route_fragments, want[i][e].route_fragments);
    }
    const auto& inputs = graph.spec(i).inputs;
    ASSERT_EQ(graph.input_begin(i), flat) << "task " << i;
    for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
      EXPECT_EQ(graph.producer_of(i, pos),
                graph.index_of(inputs[pos].producer));
    }
    flat += inputs.size();
  }
  EXPECT_EQ(graph.input_begin(graph.size()), flat);
}

/// A random DAG of `n` tasks added in shuffled order: task t (topological
/// rank t) reads up to `max_inputs` flows from lower ranks, with repeats,
/// random slots and random route annotations.
TaskGraph random_dag(repro::Rng& rng, int n, int max_inputs, int nranks) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  TaskGraph graph;
  for (const int t : order) {
    TaskSpec spec;
    spec.key = TaskKey{7, t, t % 3, -t};
    spec.rank = rng.uniform_int(0, nranks - 1);
    const int inputs = t == 0 ? 0 : rng.uniform_int(0, max_inputs);
    for (int i = 0; i < inputs; ++i) {
      const int p = rng.uniform_int(0, t - 1);
      FlowRef flow{TaskKey{7, p, p % 3, -p},
                   static_cast<std::uint16_t>(rng.uniform_int(0, 3))};
      if (rng.uniform_int(0, 3) == 0) {
        flow.route = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
        flow.route_doubles = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
        flow.route_fragments =
            static_cast<std::uint16_t>(rng.uniform_int(1, 4));
      }
      spec.inputs.push_back(flow);
    }
    spec.body = [](TaskContext&) {};
    graph.add_task(std::move(spec));
  }
  return graph;
}

/// The base_halo workload's shape (star5, tile 32, 2 x 2 ranks, one step
/// per exchange) at a reduced grid.
stencil::DistConfig base_halo_config() {
  stencil::DistConfig config;
  config.decomp = {32, 32, 2, 2};
  config.kernel = stencil::KernelVariant::Vector;
  return config;
}

TEST(GraphStorage, ConsumerEdgesFollowReferenceOnRandomDags) {
  repro::Rng rng(16);
  for (int round = 0; round < 200; ++round) {
    const int n = rng.uniform_int(1, 120);
    TaskGraph graph = random_dag(rng, n, rng.uniform_int(0, 6), 3);
    graph.seal(3);
    expect_storage_matches_reference(graph);
    if (testing::Test::HasFailure()) {
      FAIL() << "round " << round << " (" << n << " tasks)";
    }
  }
}

TEST(GraphStorage, ConsumerEdgesFollowReferenceOnStencilGraphs) {
  const stencil::Problem problem = stencil::random_problem(192, 192, 6, 3);
  {
    TaskGraph graph;
    const auto sub = stencil::add_solve_subgraph(graph, problem,
                                                 base_halo_config());
    graph.seal(sub.nodes());
    expect_storage_matches_reference(graph);
  }
  {
    // CA with a fused window and persistent routes: corner flows, deep
    // bands and route annotations all pass through the CSR fill.
    stencil::DistConfig config = base_halo_config();
    config.steps = 2;
    config.fuse_depth = 3;
    config.persistent = true;
    TaskGraph graph;
    const auto sub = stencil::add_solve_subgraph(graph, problem, config);
    fuse_supersteps(graph, sub.fuse_window());
    graph.seal(sub.nodes());
    expect_storage_matches_reference(graph);
  }
}

TEST(GraphStorage, KeyIndexFindsEveryTaskAndNoOther) {
  repro::Rng rng(5);
  TaskGraph graph = random_dag(rng, 5000, 2, 1);
  for (int t = 0; t < 5000; ++t) {
    const TaskKey key{7, t, t % 3, -t};
    ASSERT_TRUE(graph.contains(key));
    EXPECT_EQ(graph.spec(graph.index_of(key)).key, key);
  }
  EXPECT_FALSE(graph.contains(TaskKey{7, 5000, 5000 % 3, -5000}));
  EXPECT_FALSE(graph.contains(TaskKey{8, 0, 0, 0}));
  EXPECT_THROW(graph.index_of(TaskKey{8, 0, 0, 0}), std::out_of_range);
  EXPECT_FALSE(TaskGraph{}.contains(TaskKey{}));
}

TEST(GraphStorage, SealAllocationsDoNotGrowWithTaskCount) {
  repro::Rng rng(7);
  TaskGraph small = random_dag(rng, 1000, 4, 4);
  TaskGraph large = random_dag(rng, 20000, 4, 4);
  const std::size_t small_blocks = allocations_during([&] { small.seal(4); });
  const std::size_t large_blocks = allocations_during([&] { large.seal(4); });
  EXPECT_EQ(small_blocks, large_blocks);
  EXPECT_LE(large_blocks, 64u);
}

TEST(GraphStorage, StencilBuildAllocatesAtMostOneBlockPerTaskAndAQuarter) {
  const stencil::Problem problem = stencil::random_problem(256, 256, 20, 1);
  TaskGraph graph;
  const std::size_t blocks = allocations_during([&] {
    const auto sub =
        stencil::add_solve_subgraph(graph, problem, base_halo_config());
  });
  ASSERT_EQ(graph.size(), 64u * 21u);
  EXPECT_LE(static_cast<double>(blocks),
            1.25 * static_cast<double>(graph.size()))
      << blocks << " blocks for " << graph.size() << " tasks";
}

TEST(GraphStorage, GraphKeepsBuilderContextAliveWithoutItsHandle) {
  // Two identical solves; one graph outlives its SolveSubgraph handle
  // (and is fused, so the owner list must survive the rewrite too). Both
  // must produce the same final tile states bit for bit.
  const stencil::Problem problem = stencil::random_problem(96, 96, 6, 11);
  stencil::DistConfig config = base_halo_config();
  config.decomp = {24, 24, 2, 2};
  config.steps = 2;
  config.fuse_depth = 3;
  TaskGraph orphan;
  {
    const auto sub = stencil::add_solve_subgraph(orphan, problem, config);
    fuse_supersteps(orphan, sub.fuse_window());
  }
  TaskGraph kept;
  const auto sub = stencil::add_solve_subgraph(kept, problem, config);
  fuse_supersteps(kept, sub.fuse_window());

  Config rc;
  rc.nranks = sub.nodes();
  Runtime a(rc);
  Runtime b(rc);
  a.run(orphan);
  b.run(kept);
  for (int ti = 0; ti < 4; ++ti) {
    for (int tj = 0; tj < 4; ++tj) {
      const TaskKey last{1, problem.iterations, ti, tj};
      EXPECT_EQ(*a.result(last, 0), *b.result(last, 0)) << ti << "," << tj;
    }
  }
}

}  // namespace
}  // namespace repro::rt
