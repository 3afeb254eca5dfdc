// Property-based legality tests for rt::fuse_supersteps, the task-graph
// rewrite behind cross-node temporal blocking (DESIGN.md §17).
//
// The pass claims to be a semantics-preserving granularity change: fusing k
// consecutive chain members into one wavefront task must preserve the
// dependence relation (no edge inversion, no lost transitive dependence),
// round-trip task counts exactly (ceil(members / k) per chain), be an exact
// no-op at k = 1, and — the strongest property — leave every computed value
// bit-identical when the graph actually runs. We check all of that on 200
// seeded random pipeline DAGs (ragged chains, arbitrary chain_step strides,
// cross-chain window edges, source/sink singletons, multi-rank placement)
// and on the real stencil graphs of every named spec. Illegal requests
// (mid-window exchanges, backward intra-window edges, mixed ranks, malformed
// metadata) must throw GraphTransformError and leave the graph untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "equivalence_helpers.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/runtime.hpp"
#include "spec/stages.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "support/rng.hpp"

namespace repro {
namespace {

using rt::TaskGraph;
using rt::TaskKey;
using rt::TaskSpec;

// ------------------------------------------------- random pipeline DAGs --

/// Everything the properties need to know about one generated DAG. The
/// generator is deterministic in the seed, so the same RandomDag can be
/// materialized twice — once to fuse, once as the untouched oracle.
struct DagShape {
  int nranks = 1;
  int k = 1;  ///< fuse depth the shape was generated to be legal for
  /// Chain members in chain_step order (outer index: chain).
  std::vector<std::vector<TaskKey>> chains;
  std::vector<TaskKey> singletons;
  /// Every dependence edge as (producer key, consumer key).
  std::vector<std::pair<TaskKey, TaskKey>> edges;
  /// Keys whose slot-0 output both graph shapes must agree on.
  std::vector<TaskKey> observed;
};

/// Per-task build info accumulated by the generator before specs exist.
struct TaskDraft {
  TaskKey key;
  std::uint64_t chain = 0;
  std::int32_t chain_step = 0;
  int rank = 0;
  std::vector<rt::FlowRef> inputs;
  bool publish_cross = false;  ///< also publish slot 1 for cross consumers
};

constexpr std::uint16_t kSlotOut = 0;    ///< every task's observable output
constexpr std::uint16_t kSlotCross = 1;  ///< cross-chain window payload

double key_salt(const TaskKey& key) {
  return static_cast<double>((key.type * 131u + static_cast<unsigned>(key.a)) %
                             1009) +
         0.5;
}

/// Deterministic, input-order-sensitive body: any rewiring mistake (wrong
/// producer, wrong slot, reordered or duplicated input) changes the value.
TaskSpec make_task(const TaskDraft& draft) {
  TaskSpec spec;
  spec.key = draft.key;
  spec.rank = draft.rank;
  spec.chain = draft.chain;
  spec.chain_step = draft.chain_step;
  spec.inputs = draft.inputs;
  const double salt = key_salt(draft.key);
  const bool cross = draft.publish_cross;
  spec.body = [salt, cross](rt::TaskContext& ctx) {
    double acc = salt;
    for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
      const auto in = ctx.input(i);
      for (const double v : in) acc = acc * 1.0000001 + v;
      acc += static_cast<double>(i + 1) * 0.25;
    }
    if (cross) ctx.publish(kSlotCross, std::vector<double>{acc * 0.75, salt});
    ctx.publish(kSlotOut,
                std::vector<double>{acc, static_cast<double>(ctx.num_inputs())});
  };
  return spec;
}

/// Generate a fuse-ready pipeline DAG: chains exchange only across window
/// boundaries (producer = last member of window w, consumer = first member
/// of window w+1), source singletons feed arbitrary members, sink singletons
/// observe arbitrary members — exactly the legality envelope of the pass.
DagShape random_fuse_ready_shape(std::uint64_t seed) {
  Rng rng(0x600D0DA6 + seed);
  DagShape shape;
  shape.k = 1 + static_cast<int>(rng.next_below(5));
  shape.nranks = 1 + static_cast<int>(rng.next_below(3));
  const int nchains = 1 + static_cast<int>(rng.next_below(4));
  const int k = shape.k;

  std::vector<std::vector<TaskDraft>> drafts(
      static_cast<std::size_t>(nchains));
  for (int c = 0; c < nchains; ++c) {
    const int len = 1 + static_cast<int>(rng.next_below(12));
    const int stride = 1 + static_cast<int>(rng.next_below(3));
    const int rank = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(shape.nranks)));
    auto& chain = drafts[static_cast<std::size_t>(c)];
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j * stride + 1;
      draft.rank = rank;
      if (j > 0) draft.inputs.push_back({chain[j - 1].key, kSlotOut});
      chain.push_back(draft);
    }
  }

  // Cross-chain window edges: last of window w -> first of window w + 1.
  for (int a = 0; a < nchains; ++a) {
    for (int b = 0; b < nchains; ++b) {
      if (a == b) continue;
      auto& prod = drafts[static_cast<std::size_t>(a)];
      auto& cons = drafts[static_cast<std::size_t>(b)];
      for (int w = 0;; ++w) {
        const int pj = w * k + (k - 1);
        const int cj = (w + 1) * k;
        if (pj >= static_cast<int>(prod.size()) ||
            cj >= static_cast<int>(cons.size())) {
          break;
        }
        if (rng.next_below(2) != 0) continue;
        prod[pj].publish_cross = true;
        cons[cj].inputs.push_back({prod[pj].key, kSlotCross});
      }
    }
  }

  // Source singletons (no chain): feed arbitrary members — a window may end
  // up consuming the same singleton slot through several of its members,
  // which is what exercises the pass's external-input dedup.
  const int nsources = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsources; ++i) {
    TaskDraft src;
    src.key = TaskKey{1000, i, 0, 0};
    src.rank = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(shape.nranks)));
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fanout; ++f) {
      auto& chain = drafts[rng.next_below(
          static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : member.inputs) {
        duplicate |= flow.producer == src.key && flow.slot == kSlotOut;
      }
      if (!duplicate) member.inputs.push_back({src.key, kSlotOut});
    }
    shape.singletons.push_back(src.key);
    drafts.push_back({src});
  }

  // Sink singletons: observe arbitrary members' slot-0 output — mid-window
  // members exercise the fresh-slot remap of non-last exported outputs.
  const int nsinks = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsinks; ++i) {
    TaskDraft sink;
    sink.key = TaskKey{2000, i, 0, 0};
    sink.rank = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(shape.nranks)));
    const int fanin = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanin; ++f) {
      auto& chain = drafts[rng.next_below(
          static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : sink.inputs) {
        duplicate |= flow.producer == member.key && flow.slot == kSlotOut;
      }
      if (!duplicate) sink.inputs.push_back({member.key, kSlotOut});
    }
    shape.singletons.push_back(sink.key);
    shape.observed.push_back(sink.key);
    drafts.push_back({sink});
  }

  // Observables must be TERMINAL outputs — the runtime retains only
  // unconsumed slots, so a chain tail a sink happens to read is observed
  // through the sink instead.
  std::set<std::uint64_t> sunk;
  for (std::size_t g = static_cast<std::size_t>(nchains); g < drafts.size();
       ++g) {
    for (const auto& draft : drafts[g]) {
      for (const auto& flow : draft.inputs) sunk.insert(flow.producer.pack());
    }
  }
  for (int c = 0; c < nchains; ++c) {
    const auto& chain = drafts[static_cast<std::size_t>(c)];
    std::vector<TaskKey> keys;
    for (const auto& draft : chain) keys.push_back(draft.key);
    if (sunk.count(keys.back().pack()) == 0) {
      shape.observed.push_back(keys.back());
    }
    shape.chains.push_back(std::move(keys));
  }
  for (const auto& group : drafts) {
    for (const auto& draft : group) {
      for (const auto& flow : draft.inputs) {
        shape.edges.emplace_back(flow.producer, draft.key);
      }
    }
  }

  // The generator's draft layout doubles as the build recipe: regenerate on
  // demand via materialize() below, which replays this function. Stash the
  // drafts in a static-free way by rebuilding from the seed instead.
  return shape;
}

/// Materialize the shape's graph (deterministic: replays the generator).
void materialize(std::uint64_t seed, TaskGraph& graph) {
  // Re-run the generator to recover the drafts, then emit specs. Replaying
  // keeps DagShape copyable/od-free and guarantees both materializations
  // are identical.
  Rng rng(0x600D0DA6 + seed);
  const int k = 1 + static_cast<int>(rng.next_below(5));
  const int nranks = 1 + static_cast<int>(rng.next_below(3));
  const int nchains = 1 + static_cast<int>(rng.next_below(4));

  std::vector<std::vector<TaskDraft>> drafts(
      static_cast<std::size_t>(nchains));
  for (int c = 0; c < nchains; ++c) {
    const int len = 1 + static_cast<int>(rng.next_below(12));
    const int stride = 1 + static_cast<int>(rng.next_below(3));
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    auto& chain = drafts[static_cast<std::size_t>(c)];
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j * stride + 1;
      draft.rank = rank;
      if (j > 0) draft.inputs.push_back({chain[j - 1].key, kSlotOut});
      chain.push_back(draft);
    }
  }
  for (int a = 0; a < nchains; ++a) {
    for (int b = 0; b < nchains; ++b) {
      if (a == b) continue;
      auto& prod = drafts[static_cast<std::size_t>(a)];
      auto& cons = drafts[static_cast<std::size_t>(b)];
      for (int w = 0;; ++w) {
        const int pj = w * k + (k - 1);
        const int cj = (w + 1) * k;
        if (pj >= static_cast<int>(prod.size()) ||
            cj >= static_cast<int>(cons.size())) {
          break;
        }
        if (rng.next_below(2) != 0) continue;
        prod[pj].publish_cross = true;
        cons[cj].inputs.push_back({prod[pj].key, kSlotCross});
      }
    }
  }
  const int nsources = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsources; ++i) {
    TaskDraft src;
    src.key = TaskKey{1000, i, 0, 0};
    src.rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fanout; ++f) {
      auto& chain =
          drafts[rng.next_below(static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : member.inputs) {
        duplicate |= flow.producer == src.key && flow.slot == kSlotOut;
      }
      if (!duplicate) member.inputs.push_back({src.key, kSlotOut});
    }
    drafts.push_back({src});
  }
  const int nsinks = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nsinks; ++i) {
    TaskDraft sink;
    sink.rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    sink.key = TaskKey{2000, i, 0, 0};
    const int fanin = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanin; ++f) {
      auto& chain =
          drafts[rng.next_below(static_cast<std::uint64_t>(nchains))];
      auto& member = chain[rng.next_below(chain.size())];
      bool duplicate = false;
      for (const auto& flow : sink.inputs) {
        duplicate |= flow.producer == member.key && flow.slot == kSlotOut;
      }
      if (!duplicate) sink.inputs.push_back({member.key, kSlotOut});
    }
    drafts.push_back({sink});
  }
  for (const auto& group : drafts) {
    for (const auto& draft : group) graph.add_task(make_task(draft));
  }
}

/// Key of the fused task a chain member lands in: last member of its window.
TaskKey fused_home(const std::vector<TaskKey>& chain, std::size_t index,
                   int k) {
  const std::size_t window_end =
      std::min(chain.size() - 1,
               (index / static_cast<std::size_t>(k)) *
                       static_cast<std::size_t>(k) +
                   static_cast<std::size_t>(k) - 1);
  return chain[window_end];
}

std::vector<double> read_result(const rt::Runtime& runtime,
                                const TaskKey& key) {
  const rt::Buffer buffer = runtime.result(key, kSlotOut);
  return *buffer;
}

// --------------------------------------------------------- the properties --

constexpr std::uint64_t kRounds = 200;

TEST(GraphTransform, RandomDagsPreserveStructureAndCounts) {
  for (std::uint64_t seed = 1; seed <= kRounds; ++seed) {
    const DagShape shape = random_fuse_ready_shape(seed);
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed) +
                 " k=" + std::to_string(shape.k));
    TaskGraph graph;
    materialize(seed, graph);
    const std::size_t before = graph.size();

    const rt::FuseReport report = rt::fuse_supersteps(graph, shape.k);

    // Exact count round-trip: ceil(members / k) tasks per chain, singletons
    // untouched.
    std::size_t expected = shape.singletons.size();
    std::size_t expected_fused_tasks = 0;
    std::size_t expected_fused_members = 0;
    for (const auto& chain : shape.chains) {
      const std::size_t windows =
          (chain.size() + static_cast<std::size_t>(shape.k) - 1) /
          static_cast<std::size_t>(shape.k);
      expected += windows;
      for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t members =
            std::min(chain.size() - w * static_cast<std::size_t>(shape.k),
                     static_cast<std::size_t>(shape.k));
        if (members >= 2) {
          ++expected_fused_tasks;
          expected_fused_members += members;
        }
      }
    }
    EXPECT_EQ(report.tasks_before, before);
    EXPECT_EQ(report.tasks_after, expected);
    EXPECT_EQ(graph.size(), expected);
    EXPECT_EQ(report.chains, shape.chains.size());
    EXPECT_EQ(report.depth, shape.k);
    EXPECT_EQ(report.fused_tasks, expected_fused_tasks);
    EXPECT_EQ(report.fused_members, expected_fused_members);

    // No lost dependence: every original cross-window edge must survive as a
    // direct flow between the corresponding fused tasks.
    std::unordered_map<TaskKey, TaskKey, rt::TaskKeyHash> home;
    for (const auto& chain : shape.chains) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        home.emplace(chain[j], fused_home(chain, j, shape.k));
      }
    }
    for (const TaskKey& single : shape.singletons) home.emplace(single, single);
    for (const auto& [producer, consumer] : shape.edges) {
      const TaskKey fused_p = home.at(producer);
      const TaskKey fused_c = home.at(consumer);
      if (fused_p == fused_c) continue;  // became in-task staging
      ASSERT_TRUE(graph.contains(fused_c));
      const TaskSpec& spec = graph.spec(graph.index_of(fused_c));
      bool found = false;
      for (const auto& flow : spec.inputs) found |= flow.producer == fused_p;
      EXPECT_TRUE(found) << "edge " << producer.to_string() << " -> "
                         << consumer.to_string()
                         << " lost by fusing: no flow "
                         << fused_p.to_string() << " -> "
                         << fused_c.to_string();
    }

    // No edge inversion: the fused graph still seals (acyclic, ranks valid).
    EXPECT_NO_THROW(graph.seal(shape.nranks));
  }
}

TEST(GraphTransform, RandomDagsComputeBitIdenticalResults) {
  // The semantic property: run the original and the fused graph and compare
  // every observable output bit for bit, across multi-rank placements and
  // both schedulers. A sample of the seed pool keeps the suite fast; the
  // structural sweep above covers all 200.
  for (std::uint64_t seed = 1; seed <= kRounds; seed += 7) {
    const DagShape shape = random_fuse_ready_shape(seed);
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed) +
                 " k=" + std::to_string(shape.k));

    TaskGraph original;
    materialize(seed, original);
    rt::Config config{shape.nranks, 2, true, false};
    config.scheduler = seed % 2 == 0 ? rt::SchedPolicy::WorkStealing
                                     : rt::SchedPolicy::PriorityFifo;
    rt::Runtime baseline(config);
    baseline.run(original);
    std::vector<std::vector<double>> expected;
    for (const TaskKey& key : shape.observed) {
      expected.push_back(read_result(baseline, key));
    }

    TaskGraph fused_graph;
    materialize(seed, fused_graph);
    rt::fuse_supersteps(fused_graph, shape.k);
    rt::Runtime fused(config);
    fused.run(fused_graph);
    for (std::size_t i = 0; i < shape.observed.size(); ++i) {
      EXPECT_EQ(expected[i], read_result(fused, shape.observed[i]))
          << "observable " << shape.observed[i].to_string()
          << " diverged after fusing";
    }
  }
}

TEST(GraphTransform, DepthOneIsIdentity) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("FAILING SEED=" + std::to_string(seed));
    TaskGraph graph;
    materialize(seed, graph);
    TaskGraph reference;
    materialize(seed, reference);

    const rt::FuseReport report = rt::fuse_supersteps(graph, 1);
    EXPECT_EQ(report.fused_tasks, 0u);
    EXPECT_EQ(report.tasks_before, report.tasks_after);
    ASSERT_EQ(graph.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const TaskSpec& want = reference.spec(i);
      ASSERT_TRUE(graph.contains(want.key));
      const TaskSpec& got = graph.spec(graph.index_of(want.key));
      EXPECT_EQ(got.inputs.size(), want.inputs.size());
      EXPECT_EQ(got.rank, want.rank);
      EXPECT_EQ(got.chain, want.chain);
      EXPECT_EQ(got.chain_step, want.chain_step);
    }
  }
}

// ------------------------------------------------------- illegal requests --

/// Two chains exchanging EVERY step — the classic (non-fuse-ready) stencil
/// shape. Fusing k > 1 must detect the window-level cycle.
void build_mutual_exchange(TaskGraph& graph, int len) {
  for (int c = 0; c < 2; ++c) {
    for (int j = 0; j < len; ++j) {
      TaskDraft draft;
      draft.key = TaskKey{static_cast<std::uint32_t>(10 + c), j, 0, 0};
      draft.chain = static_cast<std::uint64_t>(c) + 1;
      draft.chain_step = j + 1;
      if (j > 0) {
        draft.inputs.push_back(
            {TaskKey{static_cast<std::uint32_t>(10 + c), j - 1, 0, 0},
             kSlotOut});
        draft.inputs.push_back(
            {TaskKey{static_cast<std::uint32_t>(10 + (1 - c)), j - 1, 0, 0},
             kSlotCross});
      }
      draft.publish_cross = j + 1 < len;
      graph.add_task(make_task(draft));
    }
  }
}

TEST(GraphTransform, MidWindowExchangeThrowsAndLeavesGraphUntouched) {
  TaskGraph graph;
  build_mutual_exchange(graph, 6);
  const std::size_t before = graph.size();
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
  EXPECT_THROW(rt::fuse_supersteps(graph, 3), rt::GraphTransformError);
  EXPECT_EQ(graph.size(), before);

  // The untouched graph still runs and matches a never-touched copy.
  rt::Runtime a(rt::Config{1, 2, true, false});
  a.run(graph);
  TaskGraph reference;
  build_mutual_exchange(reference, 6);
  rt::Runtime b(rt::Config{1, 2, true, false});
  b.run(reference);
  EXPECT_EQ(read_result(a, TaskKey{10, 5, 0, 0}),
            read_result(b, TaskKey{10, 5, 0, 0}));
}

TEST(GraphTransform, BackwardIntraWindowEdgeThrows) {
  // step 1 reads step 3's output: acyclic as a graph, but fusing all three
  // into one task would run the consumer before its producer.
  TaskGraph graph;
  for (int j = 0; j < 3; ++j) {
    TaskDraft draft;
    draft.key = TaskKey{10, j, 0, 0};
    draft.chain = 1;
    draft.chain_step = j + 1;
    graph.add_task(make_task(draft));
  }
  TaskDraft consumer;
  consumer.key = TaskKey{11, 0, 0, 0};
  consumer.chain = 1;
  consumer.chain_step = 0;  // earliest member, depends on the latest
  consumer.inputs.push_back({TaskKey{10, 2, 0, 0}, kSlotOut});
  graph.add_task(make_task(consumer));
  EXPECT_THROW(rt::fuse_supersteps(graph, 4), rt::GraphTransformError);
  EXPECT_EQ(graph.size(), 4u);
}

TEST(GraphTransform, MixedRanksInsideWindowThrow) {
  TaskGraph graph;
  for (int j = 0; j < 2; ++j) {
    TaskDraft draft;
    draft.key = TaskKey{10, j, 0, 0};
    draft.chain = 1;
    draft.chain_step = j + 1;
    draft.rank = j;  // window members on different ranks
    graph.add_task(make_task(draft));
  }
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
  EXPECT_EQ(graph.size(), 2u);
}

TEST(GraphTransform, DuplicateChainStepThrows) {
  TaskGraph graph;
  for (int j = 0; j < 2; ++j) {
    TaskDraft draft;
    draft.key = TaskKey{10, j, 0, 0};
    draft.chain = 1;
    draft.chain_step = 7;  // both claim the same position
    graph.add_task(make_task(draft));
  }
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
}

TEST(GraphTransform, SealedGraphAndBadDepthAreRejected) {
  TaskGraph graph;
  TaskDraft draft;
  draft.key = TaskKey{10, 0, 0, 0};
  draft.chain = 1;
  draft.chain_step = 1;
  graph.add_task(make_task(draft));
  EXPECT_THROW(rt::fuse_supersteps(graph, 0), std::invalid_argument);
  EXPECT_THROW(rt::fuse_supersteps(graph, -3), std::invalid_argument);
  graph.seal(1);
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
}

// ------------------------------------------------------ real stencil DAGs --

TEST(GraphTransformStencil, FuseReadyGraphsRoundTripForEveryNamedSpec) {
  // Build the fuse-ready graph of every named spec (plus the classic
  // 5-point), apply the rewrite at the builder's advertised window, and
  // check the exact count identity tiles * (1 + ceil(iters / W)), where the
  // window W = steps * fuse iterations for every spec.
  std::vector<std::string> cases = spec::spec_names();
  cases.emplace_back("classic");
  for (const std::string& name : cases) {
    SCOPED_TRACE("spec=" + name);
    const int iters = 4;
    stencil::Problem problem =
        name == "classic"
            ? stencil::random_problem(24, 24, iters, 7)
            : stencil::spec_problem(spec::spec_by_name(name), 24, 24, iters,
                                    spec::spec_by_name(name).rank == 3 ? 2 : 1,
                                    7);
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.steps = 1;
    config.fuse_depth = 2;
    const int radius =
        name == "classic" ? 1
                          : spec::compile_spec(spec::spec_by_name(name)).radius;
    const int window = config.steps * config.fuse_depth;
    if (radius * window > 12) continue;  // rejected by validation, skip

    TaskGraph graph;
    const stencil::SolveSubgraph subgraph =
        stencil::add_solve_subgraph(graph, problem, config);
    ASSERT_EQ(subgraph.fuse_window(), window);
    const std::size_t tiles = 4;
    EXPECT_EQ(graph.size(), tiles * (1 + static_cast<std::size_t>(iters)));

    const rt::FuseReport report = rt::fuse_supersteps(graph, window);
    EXPECT_EQ(report.chains, tiles);
    EXPECT_EQ(graph.size(),
              tiles * (1 + static_cast<std::size_t>(
                               (iters + window - 1) / window)));
    EXPECT_NO_THROW(graph.seal(subgraph.nodes()));
  }
}

TEST(GraphTransformStencil, ClassicGraphsAreNotFuseReady) {
  // The classic per-step graph exchanges every superstep; mechanically
  // fusing it MUST be detected as a window-level cycle, not silently
  // miscompiled — this is the reason the builder emits a dedicated
  // fuse-ready shape when fuse_depth > 1.
  const stencil::Problem problem = stencil::random_problem(16, 16, 4, 3);
  stencil::DistConfig config;
  config.decomp = {8, 8, 1, 1};  // 2x2 tiles, all local: exchanges every step
  config.steps = 1;
  rt::TaskGraph graph;
  const stencil::SolveSubgraph subgraph =
      stencil::add_solve_subgraph(graph, problem, config);
  ASSERT_EQ(subgraph.fuse_window(), 1);
  EXPECT_THROW(rt::fuse_supersteps(graph, 2), rt::GraphTransformError);
}

TEST(GraphTransformStencil, FusedRunsMatchSerialBitForBit) {
  // End-to-end sanity here (the fuzz suites carry the heavy sweeps): fused
  // wavefronts across step sizes, schedulers and persistent channels equal
  // the serial reference exactly, and remote traffic matches the equivalent
  // single-superstep window (steps * fuse is all that matters on the wire).
  const stencil::Problem problem = stencil::random_problem(24, 28, 12, 11);
  const stencil::Grid2D expected = stencil::solve_serial(problem);

  stencil::DistConfig window_cfg;
  window_cfg.decomp = {6, 7, 2, 2};
  window_cfg.steps = 4;
  const auto window_run = stencil::run_distributed(problem, window_cfg);

  for (const int steps : {1, 2, 4}) {
    for (const bool persistent : {false, true}) {
      stencil::DistConfig config;
      config.decomp = {6, 7, 2, 2};
      config.steps = steps;
      config.fuse_depth = 4 / steps;
      config.workers_per_rank = 2;
      config.persistent = persistent;
      config.scheduler = persistent ? rt::SchedPolicy::WorkStealing
                                    : rt::SchedPolicy::PriorityFifo;
      SCOPED_TRACE(test_support::describe(config));
      const auto result = stencil::run_distributed(problem, config);
      EXPECT_TRUE(test_support::grids_match(expected, result.grid));
      if (!persistent) {
        // One exchange per window: same message count and bytes as the
        // plain CA run whose superstep equals the whole window.
        EXPECT_EQ(result.stats.messages, window_run.stats.messages);
        EXPECT_EQ(result.stats.bytes, window_run.stats.bytes);
      }
    }
  }
}

TEST(GraphTransformStencil, FusedRunValidationAndMetadata) {
  const stencil::Problem problem = stencil::random_problem(24, 24, 6, 5);
  {
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.fuse_depth = 0;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument);
  }
  {
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.fuse_depth = 2;
    config.kernel_ratio = 0.5;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument);
  }
  {
    // Window exceeding the smallest tile extent is rejected up front.
    stencil::DistConfig config;
    config.decomp = {6, 6, 2, 2};
    config.steps = 4;
    config.fuse_depth = 2;
    EXPECT_THROW(stencil::run_distributed(problem, config),
                 std::invalid_argument);
  }
  {
    // Fused tasks carry the fused<m>| klass tag.
    stencil::DistConfig config;
    config.decomp = {12, 12, 2, 2};
    config.steps = 3;
    config.fuse_depth = 2;
    config.trace = true;
    const auto result = stencil::run_distributed(problem, config);
    EXPECT_TRUE(test_support::grids_match(stencil::solve_serial(problem),
                                          result.grid));
    // Trace events only exist when observability is compiled in.
    if constexpr (obs::kEnabled) {
      bool saw_fused_klass = false;
      for (const auto& event : result.trace_events) {
        saw_fused_klass |= event.klass.rfind("fused", 0) == 0;
      }
      EXPECT_TRUE(saw_fused_klass);
    }
  }
}

}  // namespace
}  // namespace repro
