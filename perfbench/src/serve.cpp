// The serve layers: one pass of mixed traffic on a SolverFarm, fed by one
// open-loop generator, then drained in a burst.
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "serve/solver_farm.hpp"
#include "spec/stencil_spec.hpp"
#include "stencil/serial.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

enum Kind { kSmall = 0, kSpec = 1, kWhale = 2 };
const char* const kTenant[] = {"small", "spec", "whale"};

/// Problems per tenant; every job solves one of kPool problems of its
/// tenant, so the oracles are computed once, before anything is timed.
constexpr int kPool = 16;

/// Offered rate of the open loop, jobs per second: about a quarter of the
/// farm's drain capacity (~430 jobs/s) in the slow phases of the 4-core
/// machine the benchmark was sized on.
constexpr double kOfferedRate = 100.0;

/// A late generator makes an open loop closed: a pass whose submit lateness
/// p99 exceeds this makes the run invalid.
constexpr double kLateBoundMs = 10.0;

struct Traffic {
  double open_s = 0.0;  ///< open-loop segment
  int drain_jobs = 0;   ///< burst after it
  int whale_iters = 0;
};

Traffic traffic_for(const Options& opt) {
  return opt.tiny ? Traffic{0.15, 16, 16} : Traffic{1.5, 60, 48};
}

struct Pending {
  std::future<serve::SolveResponse> response;
  Kind kind = kSmall;
  int problem = 0;
  long op = 0;
};

struct Finished {
  Kind kind;
  double wait_s;
  double run_s;
  int preemptions;
};

class Session {
 public:
  Session(Ctx& ctx, const Traffic& traffic)
      : ctx_(ctx), traffic_(traffic),
        rng_(ctx.opt.seed * 0x9E3779B97F4A7C15ull + 17) {
    const unsigned long seed = ctx.opt.seed;
    for (int i = 0; i < kPool; ++i) {
      problems_[kSmall].push_back(
          stencil::random_problem(64, 64, 16, seed * 7919 + i));
      problems_[kSpec].push_back(stencil::spec_problem(
          spec::StencilSpec::box9(), 128, 128, 8, 1, seed * 7919 + 100 + i));
    }
    problems_[kWhale].push_back(stencil::random_problem(
        1024, 1024, traffic.whale_iters, seed * 7919 + 200));
    for (int k = 0; k < 3; ++k) {
      for (const auto& p : problems_[k]) {
        oracles_[k].push_back(stencil::solve_serial(p));
      }
    }
  }

  static serve::FarmConfig farm_config() {
    serve::FarmConfig c;
    c.node_rows = 2;
    c.node_cols = 1;
    c.workers_per_rank = 2;
    c.admission.max_queued = 1 << 14;
    c.admission.max_queued_per_tenant = 1 << 14;
    c.admission.max_cost_per_tenant = 1LL << 40;
    c.checkpoint_supersteps = 2;
    return c;
  }

  /// The open-loop segment and the drain on one resident farm.
  void run() {
    // A punctual generator: ask the scheduler for a short slice so a wake-up
    // preempts the farm's compute-bound workers promptly.
    ctx_.out.generator_short_slice = request_short_slice();
    farm_ = std::make_unique<serve::SolverFarm>(farm_config());
    open_loop();
    drain();
    const std::shared_ptr<obs::MetricsRegistry>& m = farm_->metrics();
    waves = double(
        m->counter("serve_waves_total", {{"kind", "batch"}})->value() +
        m->counter("serve_waves_total", {{"kind", "window"}})->value());
    farm_->shutdown(true);
    farm_.reset();
  }

  std::vector<Finished> finished;
  std::vector<double> submit_s, late_s;
  double waves = 0.0;

 private:
  serve::SolveRequest request(Kind kind, int problem) const {
    serve::SolveRequest r;
    r.tenant = kTenant[kind];
    r.problem = problems_[kind][std::size_t(problem)];
    r.kernel = stencil::KernelVariant::Vector;
    if (kind == kSmall) {
      r.mb = r.nb = 32;
    } else if (kind == kSpec) {
      r.mb = r.nb = 64;
      r.steps = 2;
      r.deadline_s = 0.25;
    } else {
      r.mb = r.nb = 256;
      r.steps = 4;
    }
    return r;
  }

  void submit(serve::SolveRequest r, Kind kind, int problem, double due,
              bool open_loop) {
    const long op = next_op_++;
    ++ctx_.out.attempted;
    const double t0 = now_s();
    serve::SolverFarm::Submission sub = farm_->submit(std::move(r));
    const double t1 = now_s();
    ctx_.tracer.add("serve.submit", t0, t1);
    submit_s.push_back(t1 - t0);
    if (open_loop) late_s.push_back(t0 - due);
    if (!sub.accepted()) {
      ctx_.fail(op, std::string("rejected: ") +
                        serve::reject_reason_name(sub.rejected));
      return;
    }
    pending_.push_back(Pending{std::move(sub.response), kind, problem, op});
  }

  /// True when `resp` completed and matches its oracle bit for bit.
  bool check(long op, Kind kind, int problem,
             const serve::SolveResponse& resp) {
    if (resp.status != serve::JobStatus::Completed) {
      ctx_.fail(op, std::string("job ") + serve::job_status_name(resp.status) +
                        ": " + resp.error);
      return false;
    }
    if (!bit_identical(resp.grid, oracles_[kind][std::size_t(problem)])) {
      ctx_.fail(op, std::string(kTenant[kind]) +
                        " job differs from the serial oracle");
      return false;
    }
    return true;
  }

  /// Collect every finished job; checks results against the oracles.
  void poll() {
    for (std::size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      if (p.response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      serve::SolveResponse resp = p.response.get();
      if (p.kind == kWhale) {
        // Its 1024^2 check would delay the generator; done after the segment.
        whale_.emplace(std::move(resp));
      } else if (check(p.op, p.kind, p.problem, resp)) {
        finished.push_back(
            Finished{p.kind, resp.wait_s, resp.run_s, resp.preemptions});
      }
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
    }
    if (pending_.empty()) {
      ctx_.watchdog.disarm();
      oldest_ = -1;
      return;
    }
    long oldest = pending_.front().op;
    for (const Pending& p : pending_) oldest = std::min(oldest, p.op);
    if (oldest != oldest_) {
      ctx_.watchdog.arm(oldest, "serve");
      oldest_ = oldest;
    }
  }

  void wait_all() {
    while (!pending_.empty()) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void open_loop() {
    // Seeded schedule: Poisson arrivals at the offered rate, 3 in 4 jobs from
    // the small tenant, the rest deadline jobs from the spec tenant.
    std::exponential_distribution<double> gap(kOfferedRate);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> pick(0, kPool - 1);
    struct Arrival {
      double at;
      Kind kind;
      int problem;
    };
    std::vector<Arrival> schedule;
    for (double t = gap(rng_); t < traffic_.open_s; t += gap(rng_)) {
      const Kind k = coin(rng_) < 0.75 ? kSmall : kSpec;
      schedule.push_back({t, k, pick(rng_)});
    }
    const double t0 = now_s();
    const double start = t0 + 0.01;
    submit(request(kWhale, 0), kWhale, 0, start, false);
    const long whale_op = next_op_ - 1;
    for (const Arrival& a : schedule) {
      const double due = start + a.at;
      serve::SolveRequest r = request(a.kind, a.problem);
      for (double now = now_s(); now < due; now = now_s()) {
        poll();
        const double left = due - now_s();
        if (left > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(left, 2e-4)));
        }
      }
      submit(std::move(r), a.kind, a.problem, due, true);
    }
    wait_all();
    ctx_.tracer.add("serve.open_loop", t0, now_s());
    if (!whale_) {
      ctx_.fail(whale_op, "the whale job never completed");
    } else if (check(whale_op, kWhale, 0, *whale_)) {
      finished.push_back(Finished{kWhale, whale_->wait_s, whale_->run_s,
                                  whale_->preemptions});
    }
  }

  void drain() {
    std::uniform_int_distribution<int> pick(0, kPool - 1);
    const double t0 = now_s();
    for (int i = 0; i < traffic_.drain_jobs; ++i) {
      const Kind k = i % 4 == 3 ? kSpec : kSmall;
      const int problem = pick(rng_);
      submit(request(k, problem), k, problem, t0, false);
    }
    wait_all();
    ctx_.tracer.add("serve.drain", t0, now_s());
  }

  Ctx& ctx_;
  Traffic traffic_;
  std::mt19937_64 rng_;
  std::vector<stencil::Problem> problems_[3];
  std::vector<stencil::Grid2D> oracles_[3];
  std::unique_ptr<serve::SolverFarm> farm_;
  std::vector<Pending> pending_;
  std::optional<serve::SolveResponse> whale_;
  /// Operation indices of served jobs, apart from the solves' and probes'.
  long next_op_ = 5000000;
  long oldest_ = -1;
};

}  // namespace

void serve_layers(Ctx& ctx) {
  const Traffic traffic = traffic_for(ctx.opt);
  Session s(ctx, traffic);
  s.run();
  std::vector<double> wait, run;
  double preemptions = 0.0;
  for (const Finished& f : s.finished) {
    if (f.kind == kWhale) {
      preemptions += f.preemptions;
      continue;
    }
    wait.push_back(f.wait_s);
    run.push_back(f.run_s);
  }
  char source[96];
  std::snprintf(source, sizeof source,
                "serve pass: %.2f s open loop at %.0f jobs/s, %d-job drain",
                traffic.open_s, kOfferedRate, traffic.drain_jobs);
  const double late_ms = quantile(s.late_s, 0.99) * 1e3;
  ctx.layer("serve.submit_us", median(s.submit_s) * 1e6, "us", source);
  ctx.layer("serve.wait_ms_p50", median(wait) * 1e3, "ms", source);
  ctx.layer("serve.run_ms_p50", median(run) * 1e3, "ms", source);
  ctx.layer("serve.preemptions", preemptions, "count", source);
  ctx.layer("serve.waves", s.waves, "count", source);
  ctx.layer("gen.late_ms_p99", late_ms, "ms", source);
  if (late_ms > kLateBoundMs) {
    ctx.out.valid = false;
    std::cerr << "perfbench: INVALID: open-loop generator ran late: p99 "
              << late_ms << " ms > " << kLateBoundMs << " ms\n";
  }
}

}  // namespace perfbench
