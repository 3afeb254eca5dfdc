// Solve workloads (base_halo, ca_fused) and their solve-layer metrics.
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "net/persistent_channel.hpp"
#include "runtime/graph_transform.hpp"
#include "runtime/runtime.hpp"
#include "stencil/dist_stencil.hpp"
#include "stencil/serial.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

// Useful work of one point update of the 5-point stencil (5 mul + 4 add).
constexpr double kFlopsPerPoint = 9.0;

// Share of a traced solve's wall its layer spans may leave unattributed.
constexpr double kClosureTolerance = 0.02;

/// Runs `call` and returns its wall time, seconds; with a tracer, records
/// the call as a span under `parent`.
template <class F>
double timed(Tracer* tr, const char* name, int parent, F&& call) {
  const double t0 = now_s();
  call();
  const double t1 = now_s();
  if (tr) tr->add(name, t0, t1, parent);
  return t1 - t0;
}

/// One distributed stencil problem on a resident runtime.
struct SolveConfig {
  std::string name;
  int n = 0;
  int tile = 0;
  int iters = 0;
  int steps = 1;
  int fuse = 1;
  int node_rows = 2;
  int node_cols = 2;
  int workers = 1;  ///< per rank
  bool persistent = false;
};

SolveConfig workload_config(const Options& opt) {
  if (opt.workload == "base_halo") {
    // Many tiny tasks: ~2.5k remote one-deep band messages per solve.
    return opt.tiny ? SolveConfig{"base_halo", 128, 16, 4}
                    : SolveConfig{"base_halo", 1024, 32, 20};
  }
  // Kernel/memory-bound: ~190 large messages, 24-deep bands.
  SolveConfig c = opt.tiny ? SolveConfig{"ca_fused", 192, 48, 24, 8, 3}
                           : SolveConfig{"ca_fused", 2048, 256, 48, 8, 3};
  c.persistent = true;
  return c;
}

struct Sample {
  double build = 0, fuse = 0, seal = 0, run = 0, gather = 0, release = 0;
  double total = 0;
  std::size_t tasks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  long long computed = 0;
  long long nominal = 0;
  bool ok = false;
};

/// A problem, its serial oracle, and the resident runtime that solves it.
class SolveBench {
 public:
  SolveBench(const SolveConfig& c, unsigned long seed)
      : cfg_(c),
        problem_(stencil::random_problem(c.n, c.n, c.iters, seed)),
        oracle_(stencil::solve_serial(problem_)),
        runtime_(runtime_config(c)) {
    dc_.decomp = {c.tile, c.tile, c.node_rows, c.node_cols};
    dc_.steps = c.steps;
    dc_.fuse_depth = c.fuse;
    dc_.kernel = stencil::KernelVariant::Vector;
    dc_.persistent = c.persistent;
  }

  const SolveConfig& config() const { return cfg_; }

  /// One solve; checks the gathered field against the oracle outside the
  /// timed region. Failures are counted on `ctx`. A traced solve records a
  /// "solve" span and, under it, one span tight around each library call,
  /// so the benchmark's own code between the calls is the solve span's
  /// self time.
  Sample solve(Ctx& ctx, long op, bool traced) {
    Sample s;
    ++ctx.out.attempted;
    const char* phase = "build";
    Tracer* tr = traced ? &ctx.tracer : nullptr;
    int root = -1;
    std::optional<stencil::Grid2D> grid;
    try {
      ctx.watchdog.arm(op, phase);
      const double t0 = now_s();
      if (tr) root = tr->open("solve", t0);
      std::unique_ptr<rt::TaskGraph> graph;
      std::optional<stencil::SolveSubgraph> sub;
      s.build = timed(tr, "stencil.build", root, [&] {
        graph = std::make_unique<rt::TaskGraph>();
        sub.emplace(stencil::add_solve_subgraph(*graph, problem_, dc_));
      });
      ctx.watchdog.phase(phase = "fuse");
      s.fuse = timed(tr, "runtime.fuse", root, [&] {
        rt::fuse_supersteps(*graph, sub->fuse_window());
      });
      ctx.watchdog.phase(phase = "seal");
      s.seal = timed(tr, "runtime.seal", root,
                     [&] { graph->seal(sub->nodes()); });
      ctx.watchdog.phase(phase = "run");
      if (op == 0 && ctx.opt.inject == "hang") {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(ctx.opt.watchdog_s + 5.0));
      }
      if (tr && ctx.opt.inject == "glue") {
        // Time outside every layer span, for the closure check's test.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      rt::RunStats stats;
      s.run = timed(tr, "runtime.run", root,
                    [&] { stats = runtime_.run(*graph); });
      ctx.watchdog.phase(phase = "gather");
      s.gather = timed(tr, "stencil.gather", root,
                       [&] { grid.emplace(sub->gather(runtime_)); });
      ctx.watchdog.phase(phase = "release");
      s.computed = sub->computed_points();
      s.nominal = sub->nominal_points();
      s.release = timed(tr, "runtime.release", root, [&] {
        runtime_.release_run();
        sub.reset();
        graph.reset();
      });
      const double t1 = now_s();
      if (tr) tr->close(root, t1);
      ctx.watchdog.disarm();
      s.total = t1 - t0;
      s.tasks = stats.tasks_executed;
      s.messages = stats.messages;
      s.bytes = stats.bytes;
    } catch (const std::exception& e) {
      if (tr) tr->close(root, now_s());
      ctx.watchdog.disarm();
      ctx.fail(op, std::string("phase ") + phase + " threw: " + e.what());
      try {
        runtime_.release_run();
      } catch (...) {
      }
      return s;
    }
    if (op == 0 && ctx.opt.inject == "corrupt") {
      grid->at(grid->rows() / 2, grid->cols() / 2) += 1e-12;
    }
    if (!bit_identical(*grid, oracle_)) {
      ctx.fail(op, "gathered field differs from solve_serial");
      return s;
    }
    s.ok = true;
    return s;
  }

 private:
  static rt::Config runtime_config(const SolveConfig& c) {
    rt::Config rc;
    rc.nranks = c.node_rows * c.node_cols;
    rc.workers_per_rank = c.workers;
    rc.scheduler = rt::SchedPolicy::PriorityFifo;
    rc.metrics = std::make_shared<obs::MetricsRegistry>();
    if (c.persistent) {
      rc.channel_factory = net::persistent_channel_factory({}, rc.metrics);
    }
    return rc;
  }

  SolveConfig cfg_;
  stencil::Problem problem_;
  stencil::Grid2D oracle_;
  stencil::DistConfig dc_;
  rt::Runtime runtime_;
};

template <class F>
std::vector<double> pick(const std::vector<Sample>& v, F f) {
  std::vector<double> out;
  for (const Sample& s : v) {
    if (s.ok) out.push_back(f(s));
  }
  return out;
}

/// Exact counts must repeat on every solve of one configuration.
void check_counts(Ctx& ctx, const Sample& first, const Sample& s, long op) {
  if (!s.ok || !first.ok) return;
  if (s.tasks != first.tasks || s.messages != first.messages ||
      s.bytes != first.bytes || s.computed != first.computed) {
    ctx.fail(op, "exact counts (tasks/messages/bytes/points) changed between "
                 "solves of one configuration");
  }
}

/// Traced solves interleaved with untraced ones for `seconds`; reports the
/// solve-layer metrics.
void traced_solve_layers(Ctx& ctx, SolveBench& bench, double seconds) {
  const std::string& source = bench.config().name;
  std::vector<Sample> traced, plain;
  long op = 0;
  const double t_end = now_s() + seconds;
  const std::size_t spans_before = ctx.tracer.spans().size();
  // Warm-up (page faults, lazy allocation) outside the figures.
  bench.solve(ctx, op++, false);
  while ((now_s() < t_end || traced.size() < 3) && traced.size() < 1000) {
    traced.push_back(bench.solve(ctx, op++, true));
    plain.push_back(bench.solve(ctx, op++, false));
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    check_counts(ctx, traced.front(), traced[i], 1 + 2 * long(i));
    check_counts(ctx, traced.front(), plain[i], 2 + 2 * long(i));
  }
  const Sample& first = traced.front();
  const auto med_ms = [](const std::vector<Sample>& v, double Sample::*f) {
    return 1e3 * median(pick(v, [f](const Sample& s) { return s.*f; }));
  };
  const double build_ms = med_ms(traced, &Sample::build);
  ctx.layer("stencil.build_ms", build_ms, "ms", source);
  ctx.layer("stencil.build_us_per_task",
            first.tasks > 0 ? build_ms * 1e3 / double(first.tasks) : 0.0, "us",
            source);
  ctx.layer("runtime.fuse_ms", med_ms(traced, &Sample::fuse), "ms", source);
  ctx.layer("runtime.seal_ms", med_ms(traced, &Sample::seal), "ms", source);
  ctx.layer("runtime.run_ms", med_ms(traced, &Sample::run), "ms", source);
  ctx.layer("stencil.gather_ms", med_ms(traced, &Sample::gather), "ms", source);
  ctx.layer("runtime.release_ms", med_ms(traced, &Sample::release), "ms",
            source);
  const double wall_ms = med_ms(traced, &Sample::total);
  const double plain_ms = med_ms(plain, &Sample::total);
  ctx.layer("solve.wall_ms", wall_ms, "ms", source);
  ctx.layer("runtime.tasks_per_solve", double(first.tasks), "count", source);
  ctx.layer("runtime.messages_per_solve", double(first.messages), "count",
            source);
  ctx.layer("runtime.bytes_per_solve", double(first.bytes), "bytes", source);
  ctx.layer("stencil.computed_points_per_solve", double(first.computed),
            "count", source);
  ctx.layer("obs.trace_overhead_frac",
            plain_ms > 0 ? wall_ms / plain_ms - 1.0 : 0.0, "frac", source);

  // Closure: the layer spans must cover the solve wall. Whatever a solve
  // span's children leave uncovered is the benchmark's own code.
  double solve_wall = 0.0;
  for (std::size_t i = spans_before; i < ctx.tracer.spans().size(); ++i) {
    const Tracer::Span& sp = ctx.tracer.spans()[i];
    if (sp.name == "solve") solve_wall += sp.t1 - sp.t0;
  }
  const double unattributed =
      solve_wall > 0 ? ctx.tracer.self_times(spans_before)["solve"] / solve_wall
                     : 1.0;
  ctx.out.closure_unattributed = unattributed;
  if (unattributed > kClosureTolerance) {
    ctx.fail(op, "layer self times cover only " +
                     std::to_string(100.0 * (1.0 - unattributed)) +
                     "% of the solve wall (tolerance " +
                     std::to_string(100.0 * kClosureTolerance) + "%)");
  }
  const SolveConfig& c = bench.config();
  ctx.out.ledger_points = double(first.computed);
  ctx.out.ledger_worker_s =
      double(c.workers * c.node_rows * c.node_cols) * wall_ms / 1e3;
}

}  // namespace

void run_solve_workload(Ctx& ctx) {
  const SolveConfig cfg = workload_config(ctx.opt);
  SolveBench bench(cfg, ctx.opt.seed);

  if (ctx.opt.trace) {
    traced_solve_layers(ctx, bench, ctx.opt.seconds * 0.5);
    des_probe(ctx).report(1);
    return;
  }

  // Warm-up solves are checked but not timed.
  long op = 0;
  Sample first = bench.solve(ctx, op++, false);
  bench.solve(ctx, op++, false);
  DesSampler des = des_probe(ctx);
  std::vector<Sample> samples;
  const double t_start = now_s();
  const double t_end = t_start + ctx.opt.seconds;
  while ((now_s() < t_end || samples.size() < 5) && samples.size() < 100000) {
    samples.push_back(bench.solve(ctx, op, false));
    check_counts(ctx, first, samples.back(), op);
    ++op;
    des.keep_up(now_s() - t_start, 0.05);
  }

  const auto totals = pick(samples, [](const Sample& s) { return s.total; });
  const auto setups = pick(
      samples, [](const Sample& s) { return s.build + s.fuse + s.seal; });
  const double med = median(totals);
  ctx.e2e("useful_gflops",
          med > 0 ? kFlopsPerPoint * double(first.nominal) / med / 1e9 : 0.0,
          "GFLOP/s");
  ctx.e2e("solve_ms_p90", hd_quantile(totals, 0.9) * 1e3, "ms");
  ctx.e2e("setup_s", median(setups), "s");
  des.report(5);
}

}  // namespace perfbench
