#include "runtime/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace repro::rt {

std::size_t TaskGraph::find_slot(const TaskKey& key) const {
  const std::size_t mask = by_key_.size() - 1;
  std::size_t slot = TaskKeyHash{}(key) & mask;
  while (by_key_[slot].index != kEmptySlot && !(by_key_[slot].key == key)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void TaskGraph::rehash(std::size_t capacity) {
  std::size_t size = 16;
  while (size < capacity) size *= 2;
  std::vector<KeySlot> old = std::move(by_key_);
  by_key_.assign(size, KeySlot{TaskKey{}, kEmptySlot});
  for (const KeySlot& entry : old) {
    if (entry.index != kEmptySlot) by_key_[find_slot(entry.key)] = entry;
  }
}

void TaskGraph::reserve(std::size_t tasks) {
  // Geometric growth, so builders that each reserve their own share of one
  // shared graph stay amortized O(1) per task.
  if (tasks > specs_.capacity()) {
    specs_.reserve(std::max(tasks, 2 * specs_.capacity()));
  }
  if (2 * tasks > by_key_.size()) rehash(2 * tasks);
}

void TaskGraph::add_task(TaskSpec spec) {
  if (sealed_) throw std::logic_error("TaskGraph: add_task after seal");
  if (!spec.body) throw std::invalid_argument("TaskGraph: task without body");
  if (spec.inputs.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max())) {
    throw std::invalid_argument("TaskGraph: too many inputs");
  }
  if (specs_.size() >= kEmptySlot) {
    throw std::length_error("TaskGraph: too many tasks");
  }
  if (2 * (specs_.size() + 1) > by_key_.size()) {
    rehash(2 * (specs_.size() + 1));
  }
  const std::size_t slot = find_slot(spec.key);
  if (by_key_[slot].index != kEmptySlot) {
    throw std::invalid_argument("TaskGraph: duplicate task " +
                                spec.key.to_string());
  }
  by_key_[slot] = KeySlot{spec.key, static_cast<std::uint32_t>(specs_.size())};
  specs_.push_back(std::move(spec));
}

void TaskGraph::keep_alive(std::shared_ptr<const void> owner) {
  owners_.push_back(std::move(owner));
}

void TaskGraph::seal(int nranks) {
  if (sealed_) throw std::logic_error("TaskGraph: seal twice");
  const std::size_t n = specs_.size();

  // Pass 1: validate ranks, resolve every flow's producer once, and count
  // each producer's consumer edges.
  input_begin_.assign(n + 1, 0);
  for (std::size_t ci = 0; ci < n; ++ci) {
    input_begin_[ci + 1] = input_begin_[ci] + specs_[ci].inputs.size();
  }
  producers_.assign(input_begin_[n], 0);
  edge_begin_.assign(n + 1, 0);
  for (std::size_t ci = 0; ci < n; ++ci) {
    const TaskSpec& consumer = specs_[ci];
    if (consumer.rank < 0 || consumer.rank >= nranks) {
      throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                               " has rank " + std::to_string(consumer.rank) +
                               " outside [0," + std::to_string(nranks) + ")");
    }
    for (std::size_t pos = 0; pos < consumer.inputs.size(); ++pos) {
      const TaskKey& producer = consumer.inputs[pos].producer;
      const std::uint32_t pi = by_key_[find_slot(producer)].index;
      if (pi == kEmptySlot) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes missing producer " +
                                 producer.to_string());
      }
      if (pi == ci) {
        throw std::runtime_error("TaskGraph: task " + consumer.key.to_string() +
                                 " consumes itself");
      }
      producers_[input_begin_[ci] + pos] = pi;
      ++edge_begin_[pi + 1];
    }
  }

  // Pass 2: prefix-sum the counts into offsets, then fill in consumer
  // order, so each producer's edges run by consumer index, then position.
  for (std::size_t i = 0; i < n; ++i) edge_begin_[i + 1] += edge_begin_[i];
  edges_.resize(edge_begin_[n]);
  std::vector<std::size_t> cursor(edge_begin_.begin(), edge_begin_.end() - 1);
  for (std::size_t ci = 0; ci < n; ++ci) {
    const auto& inputs = specs_[ci].inputs;
    for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
      const FlowRef& flow = inputs[pos];
      edges_[cursor[producers_[input_begin_[ci] + pos]]++] = ConsumerEdge{
          flow.slot, static_cast<std::uint32_t>(ci),
          static_cast<std::uint16_t>(pos), flow.route, flow.route_doubles,
          flow.route_fragments};
    }
  }

  // Kahn's algorithm: reject cyclic graphs at seal time so that execution can
  // never deadlock on a dependency cycle.
  std::vector<std::size_t>& indegree = cursor;  // reused: no new block
  std::vector<std::uint32_t> frontier;
  frontier.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = specs_[i].inputs.size();
    if (indegree[i] == 0) frontier.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t processed = 0;
  while (!frontier.empty()) {
    const std::uint32_t producer = frontier.back();
    frontier.pop_back();
    ++processed;
    for (const auto& edge : consumers(producer)) {
      if (--indegree[edge.consumer] == 0) frontier.push_back(edge.consumer);
    }
  }
  if (processed != n) {
    throw std::runtime_error("TaskGraph: dependency cycle detected (" +
                             std::to_string(n - processed) +
                             " tasks unreachable)");
  }

  sealed_nranks_ = nranks;
  sealed_ = true;
}

TaskSpec& TaskGraph::mutable_spec(std::size_t index) {
  if (sealed_) throw std::logic_error("TaskGraph: mutable_spec after seal");
  return specs_[index];
}

std::size_t TaskGraph::index_of(const TaskKey& key) const {
  const std::uint32_t index =
      by_key_.empty() ? kEmptySlot : by_key_[find_slot(key)].index;
  if (index == kEmptySlot) {
    throw std::out_of_range("TaskGraph: unknown task " + key.to_string());
  }
  return index;
}

bool TaskGraph::contains(const TaskKey& key) const {
  return !by_key_.empty() && by_key_[find_slot(key)].index != kEmptySlot;
}

std::size_t TaskGraph::slot_fanout(std::size_t index, std::uint16_t slot) const {
  std::size_t n = 0;
  for (const auto& edge : consumers(index)) {
    if (edge.slot == slot) ++n;
  }
  return n;
}

}  // namespace repro::rt
