// Shared helpers for the paper-reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "accel/sweep.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "work/workload.hpp"

namespace dim::bench {

struct PreparedWorkload {
  work::Workload workload;
  asmblr::Program program;
  accel::AccelStats baseline;
};

inline PreparedWorkload prepare(const std::string& name, int scale = 1) {
  PreparedWorkload p{work::make_workload(name, scale), {}, {}};
  p.program = asmblr::assemble(p.workload.source);
  p.baseline = accel::baseline_as_stats(p.program, sim::MachineConfig{});
  return p;
}

inline std::vector<PreparedWorkload> prepare_all(int scale = 1) {
  std::vector<PreparedWorkload> out;
  for (const std::string& name : work::workload_names()) out.push_back(prepare(name, scale));
  return out;
}

// Aborts unless `accelerated` is transparent to `baseline` — a bench that
// silently produced wrong results would be worthless.
inline void require_transparent(const std::string& name, const accel::AccelStats& baseline,
                                const accel::AccelStats& accelerated) {
  const accel::RunComparison c = accel::compare_runs(baseline, accelerated);
  if (!c.transparent()) {
    std::fprintf(stderr, "TRANSPARENCY VIOLATION in %s: %s\n", name.c_str(), c.detail.c_str());
    std::abort();
  }
}

// Runs accelerated and returns the speedup vs the prepared baseline.
inline double speedup_of(const PreparedWorkload& p, const accel::SystemConfig& cfg) {
  const accel::AccelStats st = accel::run_accelerated(p.program, cfg);
  require_transparent(p.workload.name, p.baseline, st);
  return static_cast<double>(p.baseline.cycles) / static_cast<double>(st.cycles);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Common flags for the sweep-engine benches:
//   --threads N         worker threads (0 = hardware concurrency)
//   --points N          truncate the grid to its first N points (CI smoke)
//   --json PATH         dump the aggregated sweep as JSON
//   --result-store DIR  memoize sweep cells on disk (snap::ResultStore);
//                       a warm store re-simulates nothing
// Anything else is left in `positional` for the bench to interpret.
struct SweepCli {
  unsigned threads = 0;
  size_t points = 0;  // 0 = full grid
  std::string json_path;
  std::string result_store_dir;
  std::vector<std::string> positional;
};

inline SweepCli parse_sweep_cli(int argc, char** argv) {
  SweepCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--threads") {
      cli.threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--points") {
      cli.points = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--json") {
      cli.json_path = value();
    } else if (arg == "--result-store") {
      cli.result_store_dir = value();
    } else {
      cli.positional.push_back(arg);
    }
  }
  return cli;
}

// One grid point backed by a prepared workload, sharing its precomputed
// baseline (so workers never redo the plain-MIPS run).
inline accel::SweepPoint point_of(const PreparedWorkload& p, std::string label,
                                  const accel::SystemConfig& cfg) {
  accel::SweepPoint pt;
  pt.label = std::move(label);
  pt.program = &p.program;
  pt.config = cfg;
  pt.baseline = &p.baseline;
  return pt;
}

// Aborts on the first non-transparent result — a bench that silently
// produced wrong results would be worthless.
inline void require_transparent(const std::vector<accel::SweepResult>& results) {
  for (const accel::SweepResult& r : results) {
    if (r.has_baseline && !r.transparent) {
      std::fprintf(stderr, "TRANSPARENCY VIOLATION at sweep point %s\n", r.label.c_str());
      std::abort();
    }
  }
}

inline void maybe_write_json(const SweepCli& cli,
                             const std::vector<accel::SweepResult>& results) {
  if (cli.json_path.empty()) return;
  std::ofstream out(cli.json_path);
  accel::write_sweep_json(out, results);
  std::printf("sweep JSON written to %s (%zu points)\n", cli.json_path.c_str(),
              results.size());
}

// Runs the grid (truncated to cli.points when set) and checks transparency.
inline std::vector<accel::SweepResult> run_sweep(std::vector<accel::SweepPoint> points,
                                                 const SweepCli& cli) {
  if (cli.points != 0 && cli.points < points.size()) points.resize(cli.points);
  const accel::SweepEngine engine({cli.threads});
  auto results = engine.run(points);
  require_transparent(results);
  return results;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace dim::bench
