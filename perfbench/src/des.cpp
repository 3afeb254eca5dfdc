// The fig. 7 DES projection pair every workload samples.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "stencil/halo.hpp"
#include "stencil/tile_map.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

struct Counts {
  std::uint64_t tasks = 0;
  std::uint64_t messages = 0;
};

/// Tasks and halo messages the decomposition implies for a star5
/// projection (default channel, no aggregation): one task per tile per
/// iteration (per fused window) plus INIT; per exchange round one message
/// per node-crossing side, plus one per node-crossing diagonal whenever
/// ghost bands are deeper than one (CA corners).
Counts expected_counts(const sim::StencilSimParams& p) {
  const stencil::TileMap map(p.N, p.N, p.tile, p.tile, p.node_rows,
                             p.node_cols);
  const int window = p.steps * p.fuse;
  std::uint64_t sides = 0, diagonals = 0;
  for (int ti = 0; ti < map.tiles_r(); ++ti) {
    for (int tj = 0; tj < map.tiles_c(); ++tj) {
      for (stencil::Side s : stencil::kAllSides) {
        const int ni = ti + stencil::d_ti(s), nj = tj + stencil::d_tj(s);
        if (map.valid(ni, nj) && map.rank_of(ni, nj) != map.rank_of(ti, tj)) {
          ++sides;
        }
      }
      for (stencil::Corner c : stencil::kAllCorners) {
        const int ni = ti + stencil::d_ti(c), nj = tj + stencil::d_tj(c);
        if (map.valid(ni, nj) && map.rank_of(ni, nj) != map.rank_of(ti, tj)) {
          ++diagonals;
        }
      }
    }
  }
  const std::uint64_t tiles =
      static_cast<std::uint64_t>(map.tiles_r()) * map.tiles_c();
  const int blocks = p.fuse > 1 ? (p.iterations + window - 1) / window
                                : p.iterations;
  const int cadence = p.fuse > 1 ? window : p.steps;
  const std::uint64_t rounds = (p.iterations + cadence - 1) / cadence;
  Counts c;
  c.tasks = tiles * static_cast<std::uint64_t>(blocks + 1);
  c.messages = rounds * (sides + (window > 1 ? diagonals : 0));
  return c;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Run the base and CA projections once, checking the simulated task and
/// message counts against the counts the decomposition implies. A mismatch
/// is counted as a failure of operation `op`.
DesPair des_pair(Ctx& ctx, const sim::StencilSimParams& base,
                 const sim::StencilSimParams& ca, long op) {
  DesPair r;
  ++ctx.out.attempted;
  const char* phase = "des-base";
  try {
    ctx.watchdog.arm(op, phase);
    const double t0 = now_s();
    const sim::StencilSimOutput b = sim::simulate_stencil(base);
    const double t1 = now_s();
    ctx.watchdog.phase(phase = "des-ca");
    const sim::StencilSimOutput c = sim::simulate_stencil(ca);
    const double t2 = now_s();
    ctx.watchdog.disarm();
    r.base_s = t1 - t0;
    r.ca_s = t2 - t1;
    r.tasks = b.sim.tasks_executed + c.sim.tasks_executed;
    r.messages = b.sim.messages + c.sim.messages;
    r.base_makespan = b.sim.makespan_s;
    r.ca_makespan = c.sim.makespan_s;
    if (ctx.tracer.on) {
      const int root = ctx.tracer.add("des.pair", t0, t2);
      ctx.tracer.add("sim.simulate_stencil.base", t0, t1, root);
      ctx.tracer.add("sim.simulate_stencil.ca", t1, t2, root);
    }
    const Counts eb = expected_counts(base), ec = expected_counts(ca);
    if (b.sim.tasks_executed != eb.tasks || b.sim.messages != eb.messages ||
        c.sim.tasks_executed != ec.tasks || c.sim.messages != ec.messages) {
      ctx.fail(op, "simulated counts (base " +
                       std::to_string(b.sim.tasks_executed) + " tasks, " +
                       std::to_string(b.sim.messages) + " msgs; CA " +
                       std::to_string(c.sim.tasks_executed) + " tasks, " +
                       std::to_string(c.sim.messages) +
                       " msgs) differ from the decomposition's (base " +
                       std::to_string(eb.tasks) + ", " +
                       std::to_string(eb.messages) + "; CA " +
                       std::to_string(ec.tasks) + ", " +
                       std::to_string(ec.messages) + ")");
    }
  } catch (const std::exception& e) {
    ctx.watchdog.disarm();
    ctx.fail(op, std::string("phase ") + phase + " threw: " + e.what());
  }
  return r;
}

}  // namespace

DesSampler::DesSampler(Ctx& ctx, const sim::StencilSimParams& base,
                       const sim::StencilSimParams& ca, std::string source,
                       long first_op)
    : ctx_(ctx), base_(base), ca_(ca), source_(std::move(source)),
      op_(first_op) {}

void DesSampler::sample() {
  const DesPair r = des_pair(ctx_, base_, ca_, op_);
  if (!have_first_) {
    first_ = r;
    have_first_ = true;
  } else if (!same_bits(r.base_makespan, first_.base_makespan) ||
             !same_bits(r.ca_makespan, first_.ca_makespan) ||
             r.messages != first_.messages) {
    ctx_.fail(op_, "repeated projection returned another makespan");
  }
  ++op_;
  pairs_.push_back(r);
  spent_ += r.base_s + r.ca_s;
}

void DesSampler::keep_up(double elapsed_s, double share) {
  if (spent_ < share * elapsed_s) sample();
}

void DesSampler::warm_up() {
  sample();
  pairs_.clear();
  spent_ = 0.0;
}

void DesSampler::report(int min_samples) {
  while (pairs_.size() < std::size_t(min_samples)) sample();
  std::vector<double> walls, base_s, ca_s;
  for (const DesPair& r : pairs_) {
    walls.push_back(r.base_s + r.ca_s);
    base_s.push_back(r.base_s);
    ca_s.push_back(r.ca_s);
  }
  const double wall = median(walls);
  if (!ctx_.opt.trace) {
    ctx_.e2e("des_s", wall, "s");
    return;
  }
  ctx_.layer("sim.base_s", median(base_s), "s", source_);
  ctx_.layer("sim.ca_s", median(ca_s), "s", source_);
  ctx_.layer("sim.tasks", double(first_.tasks), "count", source_);
  ctx_.layer("sim.messages", double(first_.messages), "count", source_);
  ctx_.layer("sim.tasks_per_s", double(first_.tasks) / wall, "1/s", source_);
}

DesSampler des_probe(Ctx& ctx) {
  sim::StencilSimParams base;
  base.machine = sim::nacl();
  base.N = ctx.opt.tiny ? 2304 : 23040;
  base.tile = 288;
  base.node_rows = 8;
  base.node_cols = 8;
  base.iterations = 10;
  sim::StencilSimParams ca = base;
  ca.steps = 15;
  DesSampler pairs(ctx, base, ca, "fig. 7 DES pair at 10 iterations",
                   2000000);
  if (!ctx.opt.trace) pairs.warm_up();
  return pairs;
}

}  // namespace perfbench
