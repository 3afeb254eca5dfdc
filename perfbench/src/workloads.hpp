// The benchmark's workloads and the per-layer probes of its traced run.
//
// A workload's operations are solves; README.md gives the metric table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/models.hpp"

namespace perfbench {

// ------------------------------------------------------------------- solves

/// base_halo or ca_fused: solves of one problem, each run as build -> fuse
/// -> seal -> run -> gather -> release on a resident rt::Runtime.
void run_solve_workload(Ctx& ctx);

// -------------------------------------------------------------------- serve

/// serve.* and gen.* per-layer metrics from one short pass of mixed traffic
/// (open loop, then a drain) on a SolverFarm. A late generator makes the
/// run invalid.
void serve_layers(Ctx& ctx);

// ---------------------------------------------------------------------- DES

struct DesPair {
  double base_s = 0.0;  ///< wall time of the base projection
  double ca_s = 0.0;    ///< wall time of the CA projection
  std::uint64_t tasks = 0;     ///< base + CA simulated tasks
  std::uint64_t messages = 0;  ///< base + CA simulated messages
  double base_makespan = 0.0;
  double ca_makespan = 0.0;
};

/// Repeated projection pairs of one configuration; checks every pair against
/// the counts its decomposition implies and that repeats return the same
/// makespans.
class DesSampler {
 public:
  DesSampler(Ctx& ctx, const repro::sim::StencilSimParams& base,
             const repro::sim::StencilSimParams& ca, std::string source,
             long first_op);

  void sample();
  /// Samples one pair when the pairs so far took less than `share` of
  /// `elapsed_s`: spreads the samples over a workload's run.
  void keep_up(double elapsed_s, double share);
  /// One pair whose times are left out (still checked).
  void warm_up();
  /// Tops up to `min_samples` pairs, then reports des_s (untraced) or the
  /// sim.* layers (traced).
  void report(int min_samples);

 private:
  Ctx& ctx_;
  repro::sim::StencilSimParams base_, ca_;
  std::string source_;
  long op_;
  std::vector<DesPair> pairs_;
  DesPair first_;
  bool have_first_ = false;
  double spent_ = 0.0;
};

/// The fig. 7 pair at paper scale on the NaCL preset (N=23040, tile 288,
/// 8 x 8 nodes, base and CA s=15) at 10 iterations, sampled between a
/// workload's operations (about 5 % of the time) so that it sees the same
/// host conditions as they do. Untraced samplers come warmed up.
DesSampler des_probe(Ctx& ctx);

// ------------------------------------------------------------------- ladder

/// Traced-run probes of single layers: kernels, STREAM, halo pack/unpack,
/// spec compile and stage, runtime hops, channel hops, empty runs.
void ladder_probes(Ctx& ctx);

/// Single-thread STREAM COPY over arrays of at least 4x the last-level
/// cache each, GB/s. Returns the array size in bytes through `array_bytes`.
double stream_copy_gb_s(const Options& opt, double* array_bytes);

/// Last-level cache size in bytes (0 when unknown).
double llc_bytes();

}  // namespace perfbench
