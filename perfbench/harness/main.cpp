// dimbench: runs one benchmark workload and prints its report as a single
// JSON line (the last line of stdout). perfbench/run.py builds this binary,
// adds host provenance and turns the report into the benchmark's result.
//
//   dimbench <table2_grid|long_runs|serve_open> --seed N --seconds S
//            --trace 0|1 --scratch DIR [--tiny] [--inject-failure]
//   dimbench --build-info
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with layer spans and then the per-layer replays. The exit code
// is nonzero when any operation failed its check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/common.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string build_info() {
  return std::string("{\"compiler\": ") + json_string(DIMBENCH_COMPILER) +
         ", \"build_type\": " + json_string(DIMBENCH_BUILD_TYPE) +
         ", \"portable_dispatch\": " + (DIMBENCH_PORTABLE_DISPATCH ? "true" : "false") + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: dimbench <table2_grid|long_runs|serve_open> --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--tiny] [--inject-failure]\n"
               "       dimbench --build-info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--build-info") {
      std::printf("%s\n", build_info().c_str());
      return 0;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--scratch") {
      opt.scratch_dir = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--inject-failure") {
      opt.inject_failure = true;
    } else if (opt.workload.empty() && arg.rfind("--", 0) != 0) {
      opt.workload = arg;
    } else {
      return usage();
    }
  }
  if (opt.scratch_dir.empty()) return usage();

  pb::Report report;
  try {
    if (opt.workload == "table2_grid") {
      pb::run_table2_grid(opt, report);
    } else if (opt.workload == "long_runs") {
      pb::run_long_runs(opt, report);
    } else if (opt.workload == "serve_open") {
      pb::run_serve_open(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dimbench: %s\n", e.what());
    return 3;
  }
  if (!opt.trace) {
    const double ok = report.attempted
                          ? 1.0 - static_cast<double>(report.failed) / report.attempted
                          : 0.0;
    report.metric("ok_frac", ok, "ratio");
    report.metric("peak_rss_mb", pb::peak_rss_mb(), "MiB");
  }

  std::string out = "{\"workload\": " + json_string(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"build\": " + build_info() + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const pb::Metric& m = report.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) + ", \"errors\": {";
  bool first = true;
  for (const auto& [name, count] : report.errors) {
    out += (first ? "" : ", ") + json_string(name) + ": " + std::to_string(count);
    first = false;
  }
  out += "}, \"digest\": " + json_string(report.digest.hex()) + ", \"layers\": {";
  first = true;
  for (const auto& [name, s] : report.layers) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(s);
    first = false;
  }
  out += "}, \"traced_wall_s\": " + json_number(report.traced_wall_s) + ", \"notes\": {";
  first = true;
  for (const auto& [name, text] : report.notes) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_string(text);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return report.failed == 0 ? 0 : 1;
}
