// Task graph specification: the application-facing half of the runtime.
//
// The application unfolds its algorithm into tasks before execution (the
// moral equivalent of PaRSEC's JDF unfolding): each task has a key, an owning
// rank (virtual process), a priority, a body, and a list of input flows. An
// input flow names the producing task and one of its output slots; the
// runtime derives every dependency and every communication from these flows,
// exactly as PaRSEC infers communication from task descriptions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/task_key.hpp"

namespace repro::rt {

class TaskContext;

/// Reference to one output slot of a producing task.
///
/// A nonzero `route` marks the flow as a persistent halo route (see
/// net::PersistentChannel): the edge carries a fixed-size payload every
/// superstep, so the endpoints can pre-register buffers at run start. The
/// builder that unfolds the graph assigns route ids (unique per graph) and
/// the exact instance size; the runtime collects them into the negotiation
/// table. Routes are ignored — byte-identical default path — unless the
/// run's channel stack contains a PersistentChannel.
struct FlowRef {
  TaskKey producer;
  std::uint16_t slot = 0;
  std::uint64_t route = 0;          ///< nonzero: persistent route id
  std::uint32_t route_doubles = 0;  ///< payload doubles of one instance
  std::uint16_t route_fragments = 1;  ///< partitions per instance
};

using TaskBody = std::function<void(TaskContext&)>;

struct TaskSpec {
  TaskKey key;
  int rank = 0;      ///< owning virtual process; the body runs there
  int priority = 0;  ///< higher value runs earlier among ready tasks
  /// Accounting lane (serve: the tenant's lane id). Tasks with lane >= 0 are
  /// counted in rt_lane_tasks_executed_total{lane=...}; -1 = unlabeled.
  /// Purely observational — scheduling order comes from `priority` alone.
  int lane = -1;
  /// Dependence-cone metadata for graph transformations (see
  /// graph_transform.hpp). Tasks sharing a nonzero `chain` id assert that
  /// they form a totally ordered pipeline — each member depends (directly or
  /// transitively) only on members with smaller `chain_step` — so a rewrite
  /// pass may fuse consecutive members. 0 = not part of any chain; the
  /// builder that unfolds the graph owns the id space. Purely declarative:
  /// the runtime itself never reads these fields.
  std::uint64_t chain = 0;
  std::int32_t chain_step = 0;  ///< position along the chain (any stride)
  std::string klass; ///< trace label, e.g. "jacobi-boundary"
  std::vector<FlowRef> inputs;
  TaskBody body;
};

/// Immutable-after-seal collection of TaskSpecs plus derived consumer lists.
///
/// Storage is flat: the key index is one open-addressing table, and seal()
/// lays every consumer edge out in one array (CSR: task i's edges are
/// edges_[edge_begin_[i], edge_begin_[i + 1])) next to one array of resolved
/// producer indices, one entry per input flow in task order. A sealed graph
/// is therefore a handful of allocations however many tasks it holds.
class TaskGraph {
 public:
  /// Pre-size for `tasks` tasks in total (optional; add_task grows anyway).
  void reserve(std::size_t tasks);

  /// Add a task. Input flows may reference tasks added later; everything is
  /// resolved at seal(). Duplicate keys are rejected immediately.
  void add_task(TaskSpec spec);

  /// Keep `owner` alive as long as the graph. Builders whose bodies capture
  /// a raw pointer into shared per-solve context register that context here,
  /// so the graph never depends on the builder's handle outliving it.
  void keep_alive(std::shared_ptr<const void> owner);
  const std::vector<std::shared_ptr<const void>>& owners() const {
    return owners_;
  }

  /// Resolve flows, compute consumer lists, and freeze the graph for
  /// `nranks` ranks. Throws std::runtime_error on dangling flow references,
  /// self-consumption, a rank outside [0, nranks), or a dependency cycle.
  void seal(int nranks);

  bool sealed() const { return sealed_; }
  /// The rank count seal() validated against (0 while unsealed).
  int sealed_nranks() const { return sealed_nranks_; }
  std::size_t size() const { return specs_.size(); }

  const TaskSpec& spec(std::size_t index) const { return specs_[index]; }
  /// Mutable access for graph rewrites (graph_transform.hpp) that move a
  /// spec's body, inputs or klass out before replacing the graph. Only legal
  /// while unsealed; the key must not change (it indexes the graph).
  TaskSpec& mutable_spec(std::size_t index);

  /// Index lookup by key; throws if absent.
  std::size_t index_of(const TaskKey& key) const;
  /// Whether a task with this key has been added.
  bool contains(const TaskKey& key) const;

  /// A consumer edge attached to a producer's output slot.
  struct ConsumerEdge {
    std::uint16_t slot = 0;        ///< producer output slot
    std::uint32_t consumer = 0;    ///< consumer task index
    std::uint16_t input_pos = 0;   ///< position in the consumer's inputs
    std::uint64_t route = 0;       ///< persistent route id (0 = none),
                                   ///< copied from the consumer's FlowRef
    std::uint32_t route_doubles = 0;    ///< instance size in doubles
    std::uint16_t route_fragments = 1;  ///< partitions per instance
  };

  /// Consumers of task `index` (after seal), ordered by consumer index, then
  /// by input position. Delivery order follows this order.
  std::span<const ConsumerEdge> consumers(std::size_t index) const {
    return {edges_.data() + edge_begin_[index],
            edge_begin_[index + 1] - edge_begin_[index]};
  }

  /// Number of consumer edges attached to (task, slot).
  std::size_t slot_fanout(std::size_t index, std::uint16_t slot) const;

  /// Flat position of task `index`'s first input flow (after seal): task i's
  /// inputs occupy [input_begin(i), input_begin(i + 1)), and
  /// input_begin(size()) is the graph's total input count.
  std::size_t input_begin(std::size_t index) const {
    return input_begin_[index];
  }
  /// Resolved producer index of input `pos` of task `index` (after seal).
  std::uint32_t producer_of(std::size_t index, std::size_t pos) const {
    return producers_[input_begin_[index] + pos];
  }

 private:
  /// One slot of the open-addressing key index (linear probing, power-of-
  /// two capacity, load factor at most 1/2). index == kEmptySlot is free.
  struct KeySlot {
    TaskKey key;
    std::uint32_t index;
  };
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  /// Slot holding `key`, or the free slot where it would be inserted.
  std::size_t find_slot(const TaskKey& key) const;
  /// Rehash into a table of at least `capacity` slots.
  void rehash(std::size_t capacity);

  std::vector<TaskSpec> specs_;
  std::vector<KeySlot> by_key_;
  std::vector<std::shared_ptr<const void>> owners_;
  // Filled by seal().
  std::vector<std::size_t> edge_begin_;   ///< size() + 1 offsets into edges_
  std::vector<ConsumerEdge> edges_;
  std::vector<std::size_t> input_begin_;  ///< size() + 1 offsets
  std::vector<std::uint32_t> producers_;  ///< one per input flow
  int sealed_nranks_ = 0;
  bool sealed_ = false;
};

}  // namespace repro::rt
