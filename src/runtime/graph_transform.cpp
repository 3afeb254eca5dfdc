#include "runtime/graph_transform.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"

namespace repro::rt {

namespace {

/// How one member input resolves inside the fused body.
struct InputSrc {
  bool internal = false;
  std::uint16_t outer_pos = 0;          ///< external: fused-task input index
  std::uint32_t producer_ordinal = 0;   ///< internal: producing member
  std::uint16_t slot = 0;               ///< internal: producer's own slot
};

/// Where one member publish goes.
struct Disposition {
  bool exported = false;         ///< consumed outside the window
  bool internal = false;         ///< consumed by a later member
  std::uint16_t outer_slot = 0;  ///< fused-task slot when exported
};

struct MemberPlan {
  TaskSpec spec;  ///< member-visible spec (original key/klass/inputs/body)
  std::vector<InputSrc> inputs;
  bool last = false;
};

struct FusedPlan {
  std::vector<MemberPlan> members;
  /// (member ordinal, slot) -> disposition. Absent = unconsumed: dropped for
  /// non-last members, re-published as-is for the last (result() retention).
  std::map<std::pair<std::uint32_t, std::uint16_t>, Disposition> dispositions;
  /// consumer ordinal -> staged (producer ordinal, slot) entries whose last
  /// in-window reader it is; freed right after that member runs so staging
  /// memory stays bounded at the live wavefront, not the whole window.
  std::map<std::uint32_t,
           std::vector<std::pair<std::uint32_t, std::uint16_t>>>
      release_after;
};

using Staging = std::map<std::pair<std::uint32_t, std::uint16_t>, Buffer>;

/// Shim context for one member of a fused task: inputs resolve either to the
/// outer (fused) task's delivered flows or to the in-task staging table;
/// publishes are routed per the precomputed disposition.
class FusedMemberContext final : public TaskContext {
 public:
  FusedMemberContext(TaskContext& outer, const FusedPlan& plan,
                     std::uint32_t ordinal, Staging& staging)
      : outer_(outer), plan_(plan), ordinal_(ordinal), staging_(staging) {}

  const TaskSpec& spec() const override {
    return plan_.members[ordinal_].spec;
  }
  int rank() const override { return outer_.rank(); }
  int worker() const override { return outer_.worker(); }

  Buffer input_buffer(std::size_t i) const override {
    const auto& inputs = plan_.members[ordinal_].inputs;
    if (i >= inputs.size()) {
      throw std::out_of_range("fused member: input index " +
                              std::to_string(i) + " out of range for " +
                              key().to_string());
    }
    const InputSrc& src = inputs[i];
    if (!src.internal) return outer_.input_buffer(src.outer_pos);
    const auto it = staging_.find({src.producer_ordinal, src.slot});
    if (it == staging_.end() || !it->second) {
      throw std::logic_error("fused member: staged input " +
                             std::to_string(i) + " of " + key().to_string() +
                             " not published by member " +
                             std::to_string(src.producer_ordinal));
    }
    return it->second;
  }

  std::size_t num_inputs() const override {
    return plan_.members[ordinal_].inputs.size();
  }

  using TaskContext::publish;
  void publish(std::uint16_t slot, Buffer buffer) override {
    if (!buffer) throw std::invalid_argument("publish: null buffer");
    const auto it = plan_.dispositions.find({ordinal_, slot});
    if (it == plan_.dispositions.end()) {
      // Unconsumed output: the last member's results must stay readable via
      // Runtime::result(), intermediates evaporate with the window.
      if (plan_.members[ordinal_].last) outer_.publish(slot, std::move(buffer));
      return;
    }
    const Disposition& d = it->second;
    if (d.internal) staging_[{ordinal_, slot}] = buffer;
    if (d.exported) outer_.publish(d.outer_slot, std::move(buffer));
  }

  std::shared_ptr<std::vector<double>> acquire_route_buffer(
      std::uint16_t slot) override {
    const auto it = plan_.dispositions.find({ordinal_, slot});
    // A slot with in-window readers must go through staging, so the
    // early-bird path is only offered for purely-exported slots; callers
    // fall back to classic publish() on nullptr by contract.
    if (it == plan_.dispositions.end() || !it->second.exported ||
        it->second.internal) {
      return nullptr;
    }
    return outer_.acquire_route_buffer(it->second.outer_slot);
  }

  void publish_fragments(
      std::uint16_t slot, std::shared_ptr<std::vector<double>> data) override {
    if (!data) throw std::invalid_argument("publish_fragments: null buffer");
    const auto it = plan_.dispositions.find({ordinal_, slot});
    if (it != plan_.dispositions.end() && it->second.exported &&
        !it->second.internal) {
      outer_.publish_fragments(it->second.outer_slot, std::move(data));
      return;
    }
    publish(slot, Buffer(std::move(data)));
  }

 private:
  TaskContext& outer_;
  const FusedPlan& plan_;
  std::uint32_t ordinal_;
  Staging& staging_;
};

void run_fused(const FusedPlan& plan, TaskContext& outer) {
  Staging staging;  // per-invocation, so a graph can be run more than once
  for (std::uint32_t o = 0; o < plan.members.size(); ++o) {
    FusedMemberContext context(outer, plan, o, staging);
    plan.members[o].spec.body(context);
    const auto it = plan.release_after.find(o);
    if (it != plan.release_after.end()) {
      for (const auto& entry : it->second) staging.erase(entry);
    }
  }
}

}  // namespace

FuseReport fuse_supersteps(TaskGraph& graph, int k) {
  if (k < 1) {
    throw std::invalid_argument("fuse_supersteps: k must be >= 1, got " +
                                std::to_string(k));
  }
  FuseReport report;
  report.depth = k;
  report.tasks_before = graph.size();
  report.tasks_after = graph.size();
  if (graph.sealed()) {
    throw GraphTransformError(
        "fuse_supersteps: graph is sealed; fuse before handing it to run()");
  }

  // Every chain member as (chain, step, index), sorted: each chain becomes
  // one contiguous run in chain_step order (ties in task order).
  const std::size_t n = graph.size();
  struct Member {
    std::uint64_t chain;
    std::int32_t step;
    std::size_t index;
    auto operator<=>(const Member&) const = default;
  };
  std::vector<Member> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskSpec& spec = graph.spec(i);
    if (spec.chain != 0) sorted.push_back({spec.chain, spec.chain_step, i});
  }
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t m = 0; m < sorted.size(); ++m) {
    if (m == 0 || sorted[m].chain != sorted[m - 1].chain) ++report.chains;
  }
  if (k == 1 || sorted.empty()) return report;  // exact no-op

  // --- window assignment -------------------------------------------------
  // group_of[i]: representative task index (the window's last member);
  // everything outside a multi-member window represents itself.
  std::vector<std::size_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) group_of[i] = i;
  std::vector<std::uint32_t> ordinal_of(n, 0);
  std::unordered_map<std::size_t, std::vector<std::size_t>> windows;

  for (std::size_t begin = 0; begin < sorted.size();) {
    const std::uint64_t chain_id = sorted[begin].chain;
    std::vector<std::size_t> members;
    for (; begin < sorted.size() && sorted[begin].chain == chain_id; ++begin) {
      members.push_back(sorted[begin].index);
    }
    for (std::size_t m = 1; m < members.size(); ++m) {
      if (graph.spec(members[m]).chain_step ==
          graph.spec(members[m - 1]).chain_step) {
        throw GraphTransformError(
            "fuse_supersteps: chain " + std::to_string(chain_id) +
            " has duplicate chain_step " +
            std::to_string(graph.spec(members[m]).chain_step) + " (" +
            graph.spec(members[m]).key.to_string() + " vs " +
            graph.spec(members[m - 1]).key.to_string() + ")");
      }
    }
    const std::size_t width = static_cast<std::size_t>(k);
    for (std::size_t first = 0; first < members.size(); first += width) {
      const std::size_t end = std::min(first + width, members.size());
      const std::size_t last = members[end - 1];
      for (std::size_t m = first; m < end; ++m) {
        const TaskSpec& ms = graph.spec(members[m]);
        const TaskSpec& ls = graph.spec(last);
        if (ms.rank != ls.rank || ms.lane != ls.lane) {
          throw GraphTransformError(
              "fuse_supersteps: window members " + ms.key.to_string() +
              " and " + ls.key.to_string() +
              " disagree on rank/lane; a fused task runs on one rank");
        }
        group_of[members[m]] = last;
        ordinal_of[members[m]] = static_cast<std::uint32_t>(m - first);
      }
      if (end - first >= 2) {
        windows.emplace(last,
                        std::vector<std::size_t>(members.begin() + first,
                                                 members.begin() + end));
      }
    }
  }
  if (windows.empty()) return report;  // every window degenerated to one task

  // --- edge scan: legality + export/staging bookkeeping -------------------
  // The graph is unsealed (consumers() unavailable), so derive every edge
  // from the consumer side's input flows.
  std::set<std::pair<std::size_t, std::uint16_t>> exports;  // (member, slot)
  std::set<std::pair<std::size_t, std::uint16_t>> internals;
  std::map<std::pair<std::size_t, std::uint16_t>, std::uint32_t> last_reader;
  std::unordered_map<std::size_t, std::vector<std::size_t>> condensed_adj;
  std::unordered_map<std::size_t, std::size_t> condensed_indegree;
  for (std::size_t i = 0; i < n; ++i) {
    if (group_of[i] == i) condensed_indegree.emplace(i, 0);
  }

  for (std::size_t ci = 0; ci < n; ++ci) {
    for (const FlowRef& flow : graph.spec(ci).inputs) {
      if (!graph.contains(flow.producer)) continue;  // dangling: seal()'s job
      const std::size_t pi = graph.index_of(flow.producer);
      const std::size_t gp = group_of[pi];
      const std::size_t gc = group_of[ci];
      if (gp == gc && windows.count(gp) != 0) {
        // Intra-window edge: must point forward along the chain, otherwise
        // fusing would invert it (the staged read would precede its write).
        if (ordinal_of[pi] >= ordinal_of[ci]) {
          throw GraphTransformError(
              "fuse_supersteps: fusing k=" + std::to_string(k) +
              " would invert edge " + flow.producer.to_string() + " -> " +
              graph.spec(ci).key.to_string() + " inside one window");
        }
        internals.insert({pi, flow.slot});
        auto& reader = last_reader[{pi, flow.slot}];
        reader = std::max(reader, ordinal_of[ci]);
        continue;
      }
      if (gp != gc) {
        condensed_adj[gp].push_back(gc);
        ++condensed_indegree[gc];
        if (windows.count(gp) != 0) exports.insert({pi, flow.slot});
      }
      // gp == gc without a window is a self-edge on a singleton; seal()
      // rejects those, so pass them through untouched.
    }
  }

  // Kahn over the condensed (window-level) graph: fusing a graph whose
  // chains exchange inside the window creates a group cycle — reject it
  // rather than hand the runtime a deadlock.
  {
    std::vector<std::size_t> ready;
    for (const auto& [node, degree] : condensed_indegree) {
      if (degree == 0) ready.push_back(node);
    }
    std::size_t processed = 0;
    auto indegree = condensed_indegree;
    while (!ready.empty()) {
      const std::size_t node = ready.back();
      ready.pop_back();
      ++processed;
      const auto it = condensed_adj.find(node);
      if (it == condensed_adj.end()) continue;
      for (const std::size_t next : it->second) {
        if (--indegree[next] == 0) ready.push_back(next);
      }
    }
    if (processed != condensed_indegree.size()) {
      throw GraphTransformError(
          "fuse_supersteps: fusing k=" + std::to_string(k) +
          " creates a dependence cycle between fused windows; the graph is "
          "not fuse-ready at this depth (cross-chain edges must only cross "
          "window boundaries)");
    }
  }

  // --- slot remapping -----------------------------------------------------
  // The last member's exported slots keep their numbers (downstream lookups
  // and persistent routes target them); earlier members' exported slots move
  // to fresh ids above everything any flow in the input graph references.
  std::uint32_t fresh_base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const FlowRef& flow : graph.spec(i).inputs) {
      fresh_base = std::max(fresh_base, static_cast<std::uint32_t>(flow.slot) + 1);
    }
  }
  std::map<std::pair<std::size_t, std::uint16_t>, std::uint16_t> outer_slot;
  for (const auto& [last, members] : windows) {
    std::uint32_t next_fresh = fresh_base;
    for (const std::size_t m : members) {
      for (auto it = exports.lower_bound({m, 0});
           it != exports.end() && it->first == m; ++it) {
        const std::uint16_t slot = it->second;
        if (m == last) {
          outer_slot[{m, slot}] = slot;
        } else {
          if (next_fresh > std::numeric_limits<std::uint16_t>::max()) {
            throw GraphTransformError(
                "fuse_supersteps: slot id space exhausted remapping window " +
                graph.spec(last).key.to_string());
          }
          outer_slot[{m, slot}] = static_cast<std::uint16_t>(next_fresh++);
        }
      }
    }
  }

  const auto remap_flow = [&](FlowRef flow) {
    if (!graph.contains(flow.producer)) return flow;
    const std::size_t pi = graph.index_of(flow.producer);
    const std::size_t gp = group_of[pi];
    if (windows.count(gp) == 0) return flow;
    flow.producer = graph.spec(gp).key;
    flow.slot = outer_slot.at({pi, flow.slot});
    return flow;
  };

  // --- rebuild ------------------------------------------------------------
  TaskGraph fused;
  for (std::size_t i = 0; i < n; ++i) {
    if (group_of[i] != i) continue;  // absorbed into its window's last member
    const auto wit = windows.find(i);
    if (wit == windows.end()) {
      // Specs move into the new graph; a moved-from spec keeps its key, and
      // keys are all the remaining remap lookups read.
      TaskSpec spec = std::move(graph.mutable_spec(i));
      for (FlowRef& flow : spec.inputs) flow = remap_flow(flow);
      fused.add_task(std::move(spec));
      continue;
    }

    const std::vector<std::size_t>& members = wit->second;
    const TaskSpec& last_spec = graph.spec(i);
    auto plan = std::make_shared<FusedPlan>();
    TaskSpec spec;
    spec.key = last_spec.key;
    spec.rank = last_spec.rank;
    spec.lane = last_spec.lane;
    spec.chain = last_spec.chain;
    spec.chain_step = last_spec.chain_step;
    spec.klass = "fused" + std::to_string(members.size()) + "|" +
                 last_spec.klass;

    // Dedup external inputs on the remapped (producer, slot): members that
    // shared an upstream payload now receive it once — this is where the
    // message count drops from once-per-step to once-per-window.
    std::unordered_map<TaskKey, std::map<std::uint16_t, std::uint16_t>,
                       TaskKeyHash>
        dedup;
    for (std::uint32_t o = 0; o < members.size(); ++o) {
      const std::size_t m = members[o];
      MemberPlan member;
      member.spec = std::move(graph.mutable_spec(m));
      member.last = (m == i);
      spec.priority = std::max(spec.priority, member.spec.priority);
      member.inputs.reserve(member.spec.inputs.size());
      for (const FlowRef& flow : member.spec.inputs) {
        InputSrc src;
        if (graph.contains(flow.producer) &&
            group_of[graph.index_of(flow.producer)] == i) {
          src.internal = true;
          src.producer_ordinal = ordinal_of[graph.index_of(flow.producer)];
          src.slot = flow.slot;
        } else {
          const FlowRef remapped = remap_flow(flow);
          auto& by_slot = dedup[remapped.producer];
          const auto it = by_slot.find(remapped.slot);
          if (it != by_slot.end()) {
            src.outer_pos = it->second;
          } else {
            src.outer_pos = static_cast<std::uint16_t>(spec.inputs.size());
            by_slot.emplace(remapped.slot, src.outer_pos);
            spec.inputs.push_back(remapped);
          }
        }
        member.inputs.push_back(src);
      }
      plan->members.push_back(std::move(member));

      for (auto it = exports.lower_bound({m, 0});
           it != exports.end() && it->first == m; ++it) {
        Disposition& d = plan->dispositions[{o, it->second}];
        d.exported = true;
        d.outer_slot = outer_slot.at({m, it->second});
      }
      for (auto it = internals.lower_bound({m, 0});
           it != internals.end() && it->first == m; ++it) {
        const std::uint16_t slot = it->second;
        plan->dispositions[{o, slot}].internal = true;
        plan->release_after[last_reader.at({m, slot})].push_back({o, slot});
      }
    }

    spec.body = [plan](TaskContext& outer) { run_fused(*plan, outer); };
    fused.add_task(std::move(spec));
    ++report.fused_tasks;
    report.fused_members += members.size();
  }

  // Member bodies moved into the fused plans may point into context the
  // input graph keeps alive; the rewritten graph inherits those owners.
  for (const auto& owner : graph.owners()) fused.keep_alive(owner);
  graph = std::move(fused);
  report.tasks_after = graph.size();
  return report;
}

}  // namespace repro::rt
