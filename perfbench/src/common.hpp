// Shared plumbing of the benchmark binary: options, clocks, quantiles, the
// per-operation watchdog, the in-memory span tracer and the result record.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stencil/grid.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  unsigned long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every size and duration (the benchmark's own smoke tests).
  bool tiny = false;
  /// Test-only fault injection: "corrupt" flips one bit of the first
  /// operation's output, "hang" stalls the first operation past the
  /// watchdog deadline, "glue" spends 5 ms of every traced solve outside
  /// its layer spans.
  std::string inject;
  double watchdog_s = 60.0;
  /// Directory the traced run writes its spans to (inside the checkout).
  std::string out_dir = ".bench_build/out";
  /// Source identity recorded in the environment line (set by run.py).
  std::string source_id = "unknown";
};

double now_s();

/// q-quantile (q in [0,1]) with linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Harrell-Davis estimate of the q-quantile (q in (0,1)): a weighted mean
/// of all order statistics with Beta(q(n+1), (1-q)(n+1)) weights. A tail
/// percentile of a run's solves then rests on the solves around it, not on
/// the one or two nearest it, so it varies less between runs when a run
/// holds only about a hundred solves. 0 for an empty sample.
double hd_quantile(std::vector<double> v, double q);

/// Ask the kernel for a 0.1 ms scheduling slice for the calling thread
/// (SCHED_OTHER custom slice, Linux 6.12+). Returns false when refused.
bool request_short_slice();

/// Share of this machine's CPU time stolen by the hypervisor since the
/// previous call (/proc/stat); -1 when unknown.
double steal_frac_since_last_call();

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Turns a hang into a loud failure: if an armed operation is still running
/// when its deadline passes, the watchdog names the workload, the operation
/// index and the phase on stderr and ends the process with exit code 3.
/// (A blocked Runtime::run cannot be cancelled from outside, so exiting is
/// the only way to stay within the run's time limit.)
class Watchdog {
 public:
  Watchdog(std::string workload, double deadline_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start the deadline of operation `op`, currently in `phase`.
  void arm(long op, const char* phase);
  /// Record the phase the armed operation has reached (no deadline reset).
  void phase(const char* phase);
  void disarm();

 private:
  void loop();

  std::string workload_;
  double deadline_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool stop_ = false;
  long op_ = -1;
  const char* phase_ = "";
  double due_ = 0.0;
  std::thread thread_;
};

/// In-memory spans recorded from the benchmark's own code around calls into
/// the library's public functions. Recording a span is a vector push made
/// inside the traced operation, so its cost shows in the operation's wall.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
  };

  bool on = false;

  /// Append a finished span; returns its id (-1 when tracing is off).
  int add(const std::string& name, double t0, double t1, int parent = -1);
  /// Append a span that close() ends, so children can name it as parent.
  int open(const std::string& name, double t0, int parent = -1) {
    return add(name, t0, t0, parent);
  }
  void close(int id, double t1) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the part covered by direct children) summed
  /// per span name over the spans from index `first` on, seconds.
  std::map<std::string, double> self_times(std::size_t first = 0) const;

  /// Write every span as one JSON document.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  /// Which configuration each per-layer metric was measured on.
  std::map<std::string, std::string> layer_source;
  /// Invalid runs (e.g. a late open-loop generator) report correct=false.
  bool valid = true;
  /// Ledger inputs from the traced solves: points computed per solve and
  /// worker-seconds (workers x median solve wall) per solve.
  double ledger_points = 0.0;
  double ledger_worker_s = 0.0;
  /// Whether the open-loop generator got its short scheduling slice.
  bool generator_short_slice = false;
  /// Share of the traced solves' wall their layer spans left unattributed.
  double closure_unattributed = 0.0;
  /// Array size of the STREAM run the traced ladder made.
  double stream_array_bytes = 0.0;
};

struct Ctx {
  Options opt;
  Tracer tracer;
  Watchdog watchdog;
  Outcome out;
  /// Operation index of the next ladder probe, for the watchdog's messages.
  long probe_op = 3000000;

  explicit Ctx(const Options& o)
      : opt(o), watchdog(o.workload, o.watchdog_s) {
    tracer.on = o.trace;
  }

  /// Count a failed operation and say why on stderr.
  void fail(long op, const std::string& why);
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& source);
  void e2e(const std::string& name, double value, const std::string& unit);
};

/// True when the two grids (interior and ring) match bit for bit.
bool bit_identical(const repro::stencil::Grid2D& a,
                   const repro::stencil::Grid2D& b);

}  // namespace perfbench
