// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload <base_halo|ca_fused> --seed <n> --seconds <s>
//             --trace <0|1> [--tiny] [--watchdog-s <s>]
//             [--inject <corrupt|hang|glue>] [--out <dir>] [--source-id <id>]
//
// The last line of stdout is the result object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit code 0 only when every
// operation matched its oracle and the run is valid.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "stencil/kernel_opt.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <base_halo|ca_fused> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--watchdog-s <s>] "
               "[--inject <corrupt|hang|glue>] [--out <dir>] "
               "[--source-id <id>]\n";
  std::exit(2);
}

double number(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    usage("bad value for " + key + ": '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = static_cast<unsigned long>(number(key, val));
    } else if (key == "--seconds") {
      o.seconds = number(key, val);
    } else if (key == "--trace") {
      o.trace = number(key, val) != 0.0;
    } else if (key == "--watchdog-s") {
      o.watchdog_s = number(key, val);
    } else if (key == "--inject") {
      o.inject = val;
    } else if (key == "--out") {
      o.out_dir = val;
    } else if (key == "--source-id") {
      o.source_id = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (o.workload != "base_halo" && o.workload != "ca_fused") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.seconds <= 0 || o.watchdog_s <= 0) {
    usage("--seconds and --watchdog-s must be positive");
  }
  if (!o.inject.empty() && o.inject != "corrupt" && o.inject != "hang" &&
      o.inject != "glue") {
    usage("unknown --inject '" + o.inject + "'");
  }
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_env(const Ctx& ctx, double copy_gb_s, double array_bytes) {
  const double steal = steal_frac_since_last_call();
  std::ostringstream o;
  o << "{\"env\": {\"workload\": " << json_string(ctx.opt.workload)
    << ", \"seed\": " << ctx.opt.seed
    << ", \"trace\": " << (ctx.opt.trace ? 1 : 0)
    << ", \"tiny\": " << (ctx.opt.tiny ? "true" : "false")
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"llc_bytes\": " << json_number(llc_bytes())
    << ", \"avx2_selected\": "
    << (repro::stencil::avx2_selected({}) ? "true" : "false")
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"source\": " << json_string(ctx.opt.source_id)
    << ", \"generator_short_slice\": "
    << (ctx.out.generator_short_slice ? "true" : "false")
    << ", \"host_steal_frac\": " << json_number(steal)
    << ", \"stream.copy_gb_s\": " << json_number(copy_gb_s)
    << ", \"stream_array_bytes\": " << json_number(array_bytes) << "}}";
  std::cout << o.str() << std::endl;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Ctx ctx(opt);
  steal_frac_since_last_call();

  run_solve_workload(ctx);

  double copy_gb_s = 0.0, array_bytes = 0.0;
  if (!opt.trace) {
    // Read before STREAM allocates its arrays.
    ctx.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    const long ok = ctx.out.attempted - ctx.out.failed;
    ctx.e2e("ok_frac",
            ctx.out.attempted > 0 ? double(ok) / double(ctx.out.attempted) : 0.0,
            "frac");
    copy_gb_s = stream_copy_gb_s(opt, &array_bytes);
  } else {
    // Layers the solves do not reach (README.md lists the source of every
    // metric).
    serve_layers(ctx);
    ladder_probes(ctx);
    const Metric& vec = ctx.out.layers.at("kernel.vector.mpts_s");
    ctx.layer("ledger.kernel_share",
              ctx.out.ledger_points / (vec.value * 1e6) /
                  ctx.out.ledger_worker_s,
              "frac", "computed points / kernel.vector.mpts_s / "
                      "(workers x solve wall)");
    copy_gb_s = ctx.out.layers.at("stream.copy_gb_s").value;
    array_bytes = ctx.out.stream_array_bytes;

    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/spans_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    ctx.tracer.write(path);
    std::ostringstream o;
    o << "{\"spans_file\": " << json_string(path)
      << ", \"solve_unattributed_frac\": "
      << json_number(ctx.out.closure_unattributed) << ", \"self_ms\": {";
    bool first = true;
    for (const auto& [name, s] : ctx.tracer.self_times()) {
      o << (first ? "" : ", ") << json_string(name) << ": "
        << json_number(s * 1e3);
      first = false;
    }
    o << "}, \"layer_source\": {";
    first = true;
    for (const auto& [name, src] : ctx.out.layer_source) {
      o << (first ? "" : ", ") << json_string(name) << ": " << json_string(src);
      first = false;
    }
    o << "}}";
    std::cout << o.str() << std::endl;
  }
  print_env(ctx, copy_gb_s, array_bytes);

  const auto& metrics = opt.trace ? ctx.out.layers : ctx.out.e2e;
  bool finite = true;
  std::ostringstream o;
  o << "{\"correct\": ";
  std::ostringstream m;
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    finite = finite && std::isfinite(metric.value);
    m << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
      << (std::isfinite(metric.value) ? json_number(metric.value) : "null")
      << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  if (!finite) std::cerr << "perfbench: a metric is not a finite number\n";
  const bool correct = ctx.out.failed == 0 && ctx.out.valid && finite &&
                       ctx.out.attempted > 0;
  o << (correct ? "true" : "false") << ", \"attempted\": " << ctx.out.attempted
    << ", \"failed\": " << ctx.out.failed << ", \"metrics\": {" << m.str()
    << "}}";
  std::cout << o.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
