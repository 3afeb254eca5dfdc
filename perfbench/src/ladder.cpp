// Per-layer probes of the traced run: each one times calls into a single
// module's public functions on a fixed, workload-shaped input.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "net/persistent_channel.hpp"
#include "net/transport.hpp"
#include "runtime/runtime.hpp"
#include "spec/stages.hpp"
#include "stencil/halo.hpp"
#include "stencil/kernel.hpp"
#include "stencil/kernel_opt.hpp"
#include "stencil/spec_kernel.hpp"
#include "stream/stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

/// Median seconds per call of `body`, timed in batches of `batch` calls for
/// about `budget_s` (at least three batches). Each batch is one span.
double time_per_call(Ctx& ctx, const std::string& span, double budget_s,
                     int batch, const std::function<void()>& body) {
  std::vector<double> per_call;
  ctx.watchdog.arm(ctx.probe_op++, "ladder");
  body();  // warm-up
  const double t_end = now_s() + budget_s;
  while (now_s() < t_end || per_call.size() < 3) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) body();
    const double t1 = now_s();
    ctx.tracer.add(span, t0, t1);
    per_call.push_back((t1 - t0) / batch);
  }
  ctx.watchdog.disarm();
  return median(per_call);
}

std::vector<double> field(std::size_t n, unsigned seed) {
  std::vector<double> v(n);
  unsigned x = seed * 2654435761u + 1u;
  for (double& d : v) {
    x = x * 1664525u + 1013904223u;
    d = static_cast<double>(x >> 8) / 16777216.0;
  }
  return v;
}

// ----------------------------------------------------------------- kernels

void kernel_probes(Ctx& ctx, double budget) {
  // The ca_fused tile: 256 x 256 core, 24-deep ghost bands (s=8 x f=3).
  const int t = ctx.opt.tiny ? 48 : 256;
  const int g = 24;
  const stencil::TileGeom geom{t, t, g, g, g, g};
  const std::string src = "ca_fused tile " + std::to_string(t) + "^2, ghost 24";
  std::vector<double> in = field(geom.size(), 1), out(geom.size(), 0.0);
  const stencil::Stencil5 w = stencil::Stencil5::test_weights();
  const double pts = double(t) * t;
  const auto mpts = [&](stencil::KernelVariant v) {
    const double s = time_per_call(
        ctx, std::string("stencil.jacobi5.") + stencil::kernel_variant_name(v),
        budget, 8, [&] {
          if (v == stencil::KernelVariant::Scalar) {
            stencil::jacobi5(in.data(), out.data(), geom, w, 0, t, 0, t);
          } else {
            stencil::jacobi5_opt(in.data(), out.data(), geom, w, 0, t, 0, t, v);
          }
        });
    return pts / s / 1e6;
  };
  ctx.layer("kernel.scalar.mpts_s", mpts(stencil::KernelVariant::Scalar),
            "Mpts/s", src);
  ctx.layer("kernel.vector.mpts_s", mpts(stencil::KernelVariant::Vector),
            "Mpts/s", src);
  ctx.layer("kernel.blocked.mpts_s", mpts(stencil::KernelVariant::Blocked),
            "Mpts/s", src);

  // jacobi5_temporal, m = 24: the first step covers the core plus 23 ghost
  // layers and every step shrinks by one layer per side, ending on the core.
  const int m = 24;
  double tpts = 0.0;
  for (int k = 0; k < m; ++k) {
    const double e = t + 2.0 * (m - 1 - k);
    tpts += e * e;
  }
  const double ts = time_per_call(ctx, "stencil.jacobi5_temporal", budget, 2, [&] {
    stencil::jacobi5_temporal(in.data(), out.data(), geom, w, -(m - 1),
                              t + m - 1, -(m - 1), t + m - 1, m,
                              {true, true, true, true});
  });
  ctx.layer("kernel.temporal.mpts_s", tpts / ts / 1e6, "Mpts/s",
            src + ", m=24, computed updates");
}

void dram_and_stream_probes(Ctx& ctx) {
  // Vector kernel on a grid of at least 4x the last-level cache per array.
  const double llc = llc_bytes() > 0 ? llc_bytes() : 32.0 * (1 << 20);
  const int n = ctx.opt.tiny
                    ? 512
                    : static_cast<int>(std::ceil(std::sqrt(4.0 * llc / 8.0)));
  const stencil::TileGeom geom{n, n, 1, 1, 1, 1};
  const stencil::Stencil5 w = stencil::Stencil5::test_weights();
  double grid_bytes = double(geom.size()) * 8.0;
  double rate = 0.0;
  {
    std::vector<double> a(geom.size(), 0.5), b(geom.size(), 0.25);
    std::vector<double> per_sweep;
    for (int i = 0; i < 4; ++i) {
      const double t0 = now_s();
      stencil::jacobi5_opt(a.data(), b.data(), geom, w, 0, n, 0, n,
                           stencil::KernelVariant::Vector);
      const double t1 = now_s();
      ctx.tracer.add("stencil.jacobi5.vector_dram", t0, t1);
      if (i > 0) per_sweep.push_back(t1 - t0);  // first sweep faults pages
      std::swap(a, b);
    }
    rate = double(n) * n / median(per_sweep) / 1e6;
  }
  const std::string src = "grid " + std::to_string(n) + "^2 (" +
                          std::to_string(grid_bytes / 1048576.0) +
                          " MiB per array), LLC " +
                          std::to_string(llc / 1048576.0) + " MiB";
  ctx.layer("kernel.vector_dram.mpts_s", rate, "Mpts/s", src);

  double array_bytes = 0.0;
  const double t0 = now_s();
  const double copy = stream_copy_gb_s(ctx.opt, &array_bytes);
  ctx.tracer.add("stream.run_stream", t0, now_s());
  ctx.out.stream_array_bytes = array_bytes;
  ctx.layer("stream.copy_gb_s", copy, "GB/s",
            "1 thread, " + std::to_string(array_bytes / 1048576.0) +
                " MiB per array");
  // Computed bytes: 16 B per point (one read, one write of a double).
  ctx.layer("kernel.roofline_frac", rate * 1e6 * 16.0 / (copy * 1e9), "frac",
            "computed 16 B/pt over measured STREAM COPY");
}

// ------------------------------------------------------------- spec, halo

void spec_probes(Ctx& ctx, double budget) {
  const spec::StencilSpec box9 = spec::StencilSpec::box9();
  const double cs = time_per_call(ctx, "spec.compile_spec", budget, 50,
                                  [&] { spec::compile_spec(box9); });
  ctx.layer("spec.compile_us", cs * 1e6, "us", "box9");

  // The serve pass's spec tenant tile: 64 x 64 core, CA s=2 ghost bands.
  const spec::CompiledProgram prog = spec::compile_spec(box9);
  const int t = 64;
  const stencil::TileGeom geom{t, t, 2, 2, 2, 2};
  std::vector<double> in = field(geom.size() * prog.ncomp, 3);
  std::vector<double> out = in;
  const double s = time_per_call(ctx, "stencil.apply_program_stage", budget, 16,
                                 [&] {
                                   stencil::apply_program_stage(
                                       in.data(), out.data(), geom, prog, 0, 0,
                                       t, 0, t, stencil::KernelVariant::Vector);
                                 });
  ctx.layer("kernel.box9_stage.mpts_s", double(t) * t / s / 1e6, "Mpts/s",
            "box9 stage, 64^2 tile");
}

void halo_probes(Ctx& ctx, double budget) {
  struct Band {
    const char* name;
    int tile;
    int depth;
  };
  const Band bands[] = {{"ca_fused", ctx.opt.tiny ? 48 : 256, 24},
                        {"base_halo", 32, 1}};
  for (const Band& b : bands) {
    const stencil::TileGeom geom{b.tile, b.tile, b.depth, b.depth, b.depth,
                                 b.depth};
    std::vector<double> ext = field(geom.size(), 5);
    const double bytes = double(b.tile) * b.depth * 8.0;
    std::vector<double> band;
    const double ps = time_per_call(
        ctx, std::string("stencil.pack_band.") + b.name, budget, 64, [&] {
          band = stencil::pack_band(ext.data(), geom, stencil::Side::South,
                                    b.depth);
        });
    const double us = time_per_call(
        ctx, std::string("stencil.unpack_band.") + b.name, budget, 64, [&] {
          stencil::unpack_band(ext.data(), geom, stencil::Side::North, band,
                               b.depth);
        });
    const std::string src = std::to_string(b.tile) + " x " +
                            std::to_string(b.depth) + " band";
    ctx.layer(std::string("halo.pack_gb_s.") + b.name, bytes / ps / 1e9,
              "GB/s", src);
    ctx.layer(std::string("halo.unpack_gb_s.") + b.name, bytes / us / 1e9,
              "GB/s", src);
  }
}

// ----------------------------------------------------------------- runtime

/// Median wall of `graph_of()` runs on a resident runtime, seconds.
double run_wall(Ctx& ctx, rt::Runtime& runtime, const std::string& span,
                int repeats, const std::function<rt::TaskGraph()>& graph_of) {
  std::vector<double> walls;
  for (int i = 0; i <= repeats; ++i) {
    rt::TaskGraph graph = graph_of();
    graph.seal(runtime.config().nranks);
    ctx.watchdog.arm(ctx.probe_op++, "ladder-run");
    const double t0 = now_s();
    runtime.run(graph);
    const double t1 = now_s();
    runtime.release_run();
    ctx.watchdog.disarm();
    if (i == 0) continue;  // warm-up
    ctx.tracer.add(span, t0, t1);
    walls.push_back(t1 - t0);
  }
  return median(walls);
}

/// A dependent chain of `n` tasks, task i on rank i % ranks, each passing a
/// one-double buffer to the next.
rt::TaskGraph chain(int n, int ranks) {
  rt::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    rt::TaskSpec t;
    t.key = rt::TaskKey{1, i, 0, 0};
    t.rank = i % ranks;
    if (i > 0) t.inputs.push_back(rt::FlowRef{rt::TaskKey{1, i - 1, 0, 0}, 0});
    t.body = [](rt::TaskContext& c) { c.publish(0, std::vector<double>{1.0}); };
    g.add_task(std::move(t));
  }
  return g;
}

rt::TaskGraph wide(int n, int ranks) {
  rt::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    rt::TaskSpec t;
    t.key = rt::TaskKey{2, i, 0, 0};
    t.rank = i % ranks;
    t.body = [](rt::TaskContext&) {};
    g.add_task(std::move(t));
  }
  return g;
}

void runtime_probes(Ctx& ctx) {
  const bool tiny = ctx.opt.tiny;
  const auto make = [](int ranks, int workers, bool stealing) {
    rt::Config c;
    c.nranks = ranks;
    c.workers_per_rank = workers;
    if (stealing) c.scheduler = rt::SchedPolicy::WorkStealing;
    return c;
  };
  {
    rt::Runtime r(make(1, 1, false));
    const int n = tiny ? 2000 : 20000;
    const double s = run_wall(ctx, r, "runtime.run.local_chain", 5,
                              [&] { return chain(n, 1); });
    ctx.layer("runtime.local_hop_us", s / n * 1e6, "us",
              "1 rank x 1 worker, chain of " + std::to_string(n));
  }
  {
    rt::Runtime r(make(2, 1, false));
    const int n = tiny ? 200 : 2000;
    const double s = run_wall(ctx, r, "runtime.run.remote_chain", 3,
                              [&] { return chain(n, 2); });
    ctx.layer("runtime.remote_hop_us", s / n * 1e6, "us",
              "2 ranks x 1 worker, plain Transport, chain of " +
                  std::to_string(n));
  }
  {
    rt::Runtime r(make(4, 1, false));
    const int n = tiny ? 4000 : 40000;
    const double s = run_wall(ctx, r, "runtime.run.wide", 3,
                              [&] { return wide(n, 4); });
    ctx.layer("runtime.task_us", s * 4 / n * 1e6, "us",
              "4 ranks x 1 worker, " + std::to_string(n) + " empty tasks");
  }
  {
    rt::Runtime r(make(2, 2, true));
    const double s = run_wall(ctx, r, "runtime.run.empty", tiny ? 10 : 50,
                              [&] { return wide(2, 2); });
    ctx.layer("runtime.empty_run_ms", s * 1e3, "ms",
              "2 ranks x 2 workers (the farm's shape), 2 empty tasks");
  }
}

// --------------------------------------------------------------------- net

void net_probes(Ctx& ctx, double budget) {
  const std::vector<std::uint64_t> header(6, 7);
  {
    net::Transport t(2);
    const std::vector<double> band(32, 0.5);  // base_halo band
    const double s = time_per_call(ctx, "net.transport.hop", budget, 256, [&] {
      net::Message m;
      m.src = 0;
      m.dst = 1;
      m.header = header;
      m.payload = band;
      t.send(std::move(m));
      if (!t.recv(1)) throw std::runtime_error("transport lost a message");
    });
    ctx.layer("net.hop_us.plain", s * 1e6, "us",
              "Transport send->recv, 32-double payload, one thread");
  }
  {
    auto inner = std::make_shared<net::Transport>(2);
    net::PersistentChannel chan(inner);
    net::RouteSpec route;
    route.id = 1;
    route.src = 0;
    route.dst = 1;
    route.doubles = 256 * 24;  // ca_fused band
    chan.negotiate({route});
    while (chan.try_recv(0) || chan.try_recv(1)) {
    }
    const double s =
        time_per_call(ctx, "net.persistent.hop", budget, 256, [&] {
          auto slot = chan.acquire(1);
          chan.send(chan.make_fragment(1, 0, slot, header));
          if (!chan.recv(1)) throw std::runtime_error("route lost a fragment");
        });
    ctx.layer("net.hop_us.persistent", s * 1e6, "us",
              "PersistentChannel acquire->send->recv, 6144-double route, "
              "one thread");
  }
}

}  // namespace

double llc_bytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                   _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return double(v);
  }
  return 0.0;
}

double stream_copy_gb_s(const Options& opt, double* array_bytes) {
  const double llc = llc_bytes() > 0 ? llc_bytes() : 32.0 * (1 << 20);
  const std::size_t n =
      opt.tiny ? (std::size_t(1) << 20) : std::size_t(4.0 * llc / 8.0) + 1;
  *array_bytes = double(n) * 8.0;
  return stream::run_stream(n, 3, 1).copy_Bps / 1e9;
}

void ladder_probes(Ctx& ctx) {
  const double budget = ctx.opt.tiny ? 0.01 : 0.15;
  kernel_probes(ctx, budget);
  dram_and_stream_probes(ctx);
  spec_probes(ctx, budget);
  halo_probes(ctx, budget);
  runtime_probes(ctx);
  net_probes(ctx, budget);
}

}  // namespace perfbench
