// Micro-benchmark of the simulator stack itself: baseline interpreter and
// accelerated-system throughput (instr/s), each with the superblock trace
// dispatch on and off. Guards against performance regressions that would
// make the paper sweeps impractical, and pins the trace engine's speedup.
//
// Methodology: every mode gets one untimed warmup repetition (populates
// the decode/trace caches and the branch predictor tables, faults the
// working set in), then N timed repetitions; the reported rate is the
// median, so a single descheduled rep cannot flip the gate.
//
// Usage: bench_simulator_micro [--reps N] [--quick] [--json]
//                              [--min-speedup X] [--workload NAME]
// --min-speedup X exits nonzero unless the baseline fast/slow speedup is
// at least X (the CI pin; the trace dispatch must stay >= 3x).
// --workload NAME measures that kernel at scale 1 (default crc32).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "sim/machine.hpp"
#include "work/workload.hpp"

using namespace dim;

namespace {

using Clock = std::chrono::steady_clock;

// Runs `body` (which returns retired instructions) repeatedly for at least
// `min_seconds` and returns the aggregate rate in instr/s.
template <typename Body>
double measure_rate(double min_seconds, Body&& body) {
  uint64_t instructions = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    instructions += body();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(instructions) / elapsed;
}

template <typename Body>
double median_rate(int reps, double min_seconds, Body&& body) {
  body();  // warmup: caches hot, pages resident, not timed
  std::vector<double> rates;
  rates.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) rates.push_back(measure_rate(min_seconds, body));
  std::sort(rates.begin(), rates.end());
  const size_t n = rates.size();
  return n % 2 ? rates[n / 2] : 0.5 * (rates[n / 2 - 1] + rates[n / 2]);
}

struct Row {
  const char* name;
  double instr_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  double min_seconds = 0.2;
  double min_speedup = 0.0;
  bool json = false;
  std::string workload = "crc32";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      reps = 3;
      min_seconds = 0.05;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_simulator_micro [--reps N] [--quick] [--json] "
                   "[--min-speedup X] [--workload NAME]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  const std::vector<std::string>& names = work::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }

  const work::Workload wl = work::make_workload(workload, 1);
  const asmblr::Program program = asmblr::assemble(wl.source);

  sim::MachineConfig slow_cfg;
  slow_cfg.host_trace_dispatch = false;
  sim::MachineConfig fast_cfg;
  fast_cfg.host_trace_dispatch = true;

  accel::SystemConfig accel_slow =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  accel_slow.machine = slow_cfg;
  accel::SystemConfig accel_fast = accel_slow;
  accel_fast.machine = fast_cfg;

  Row rows[4] = {{"baseline_slow"}, {"baseline_fast"}, {"accel_slow"}, {"accel_fast"}};
  rows[0].instr_s = median_rate(reps, min_seconds, [&] {
    return sim::run_baseline(program, slow_cfg).instructions;
  });
  rows[1].instr_s = median_rate(reps, min_seconds, [&] {
    return sim::run_baseline(program, fast_cfg).instructions;
  });
  rows[2].instr_s = median_rate(reps, min_seconds, [&] {
    return accel::run_accelerated(program, accel_slow).instructions;
  });
  rows[3].instr_s = median_rate(reps, min_seconds, [&] {
    return accel::run_accelerated(program, accel_fast).instructions;
  });

  const double baseline_speedup = rows[1].instr_s / rows[0].instr_s;
  const double accel_speedup = rows[3].instr_s / rows[2].instr_s;

  if (json) {
    std::printf("{\n");
    std::printf("  \"format_version\": 1,\n");
    std::printf("  \"workload\": \"%s\",\n", workload.c_str());
    std::printf("  \"reps\": %d,\n", reps);
    for (const Row& r : rows) {
      std::printf("  \"%s_instr_per_s\": %.0f,\n", r.name, r.instr_s);
    }
    std::printf("  \"baseline_trace_speedup\": %.3f,\n", baseline_speedup);
    std::printf("  \"accel_trace_speedup\": %.3f\n", accel_speedup);
    std::printf("}\n");
  } else {
    std::printf("workload: %s\n", workload.c_str());
    for (const Row& r : rows) {
      std::printf("%-14s %12.2f Minstr/s\n", r.name, r.instr_s / 1e6);
    }
    std::printf("baseline trace speedup: %.2fx\n", baseline_speedup);
    std::printf("accel trace speedup:    %.2fx\n", accel_speedup);
  }

  if (min_speedup > 0.0 && baseline_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: baseline trace speedup %.2fx < required %.2fx\n",
                 baseline_speedup, min_speedup);
    return 1;
  }
  return 0;
}
