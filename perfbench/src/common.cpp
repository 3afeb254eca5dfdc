#include "common.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) {
    return std::fabs(v) < kTiny ? kTiny : v;
  };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double beta_reg(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace

double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double sum = 0.0, below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = beta_reg(a, b, static_cast<double>(i + 1) / n);
    sum += (upto - below) * v[i];
    below = upto;
  }
  return sum;
}

bool request_short_slice() {
#ifdef SYS_sched_setattr
  // struct sched_attr (include/uapi/linux/sched/types.h), SCHED_OTHER with
  // sched_runtime = the requested slice in ns.
  struct {
    std::uint32_t size;
    std::uint32_t sched_policy;
    std::uint64_t sched_flags;
    std::int32_t sched_nice;
    std::uint32_t sched_priority;
    std::uint64_t sched_runtime;
    std::uint64_t sched_deadline;
    std::uint64_t sched_period;
    std::uint32_t sched_util_min;
    std::uint32_t sched_util_max;
  } attr{};
  attr.size = sizeof attr;
  attr.sched_runtime = 100000;
  return syscall(SYS_sched_setattr, 0, &attr, 0) == 0;
#else
  return false;
#endif
}

double steal_frac_since_last_call() {
  static std::uint64_t last_steal = 0, last_total = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v = 0, total = 0, steal = 0;
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (int i = 0; i < 8 && (in >> v); ++i) {  // user .. steal
    total += v;
    if (i == 7) steal = v;
  }
  const std::uint64_t dt = total - last_total, ds = steal - last_steal;
  last_total = total;
  last_steal = steal;
  return dt > 0 ? double(ds) / double(dt) : -1.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ watchdog

Watchdog::Watchdog(std::string workload, double deadline_s)
    : workload_(std::move(workload)), deadline_s_(deadline_s) {
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(long op, const char* phase) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
    op_ = op;
    phase_ = phase;
    due_ = now_s() + deadline_s_;
  }
  cv_.notify_all();
}

void Watchdog::phase(const char* phase) {
  std::lock_guard<std::mutex> lock(mutex_);
  phase_ = phase;
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (!armed_) {
      cv_.wait(lock, [this] { return stop_ || armed_; });
      continue;
    }
    const double left = due_ - now_s();
    if (left > 0) {
      cv_.wait_for(lock, std::chrono::duration<double>(std::min(left, 0.05)));
      continue;
    }
    std::fprintf(stderr,
                 "perfbench: WATCHDOG: workload=%s operation=%ld phase=%s "
                 "did not finish within the %.1f s per-operation deadline\n",
                 workload_.c_str(), op_, phase_, deadline_s_);
    std::fflush(stderr);
    std::_Exit(3);
  }
}

// -------------------------------------------------------------------- tracer

int Tracer::add(const std::string& name, double t0, double t1, int parent) {
  if (!on) return -1;
  spans_.push_back(Span{name, t0, t1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_times(std::size_t first) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      covered[static_cast<std::size_t>(spans_[i].parent)] +=
          spans_[i].t1 - spans_[i].t0;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[spans_[i].name] += (spans_[i].t1 - spans_[i].t0) - covered[i];
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  char buf[160];
  out << "{\"schema\": \"perfbench.spans/v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d}",
                  (s.t0 - origin) * 1e6, (s.t1 - origin) * 1e6, s.parent);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ----------------------------------------------------------------------- ctx

void Ctx::fail(long op, const std::string& why) {
  ++out.failed;
  std::cerr << "perfbench: FAILED workload=" << opt.workload
            << " operation=" << op << ": " << why << "\n";
}

void Ctx::layer(const std::string& name, double value, const std::string& unit,
                const std::string& source) {
  out.layers[name] = Metric{value, unit};
  out.layer_source[name] = source;
}

void Ctx::e2e(const std::string& name, double value, const std::string& unit) {
  out.e2e[name] = Metric{value, unit};
}

bool bit_identical(const repro::stencil::Grid2D& a,
                   const repro::stencil::Grid2D& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = -1; i <= a.rows(); ++i) {
    for (int j = -1; j <= a.cols(); ++j) {
      const double x = a.at(i, j);
      const double y = b.at(i, j);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

}  // namespace perfbench
