// Memory-hierarchy sensitivity (paper §4.3: "the operations that depend on
// the result of a load are allocated considering a cache hit as the total
// load delay. Then, if a miss occurs, the whole array operation stops until
// the miss is resolved"). Enables the I/D cache models and sweeps the miss
// penalty: the array's advantage must persist because baseline and array
// pay the same misses, while the array still removes issue slots.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "rra/array_shape.hpp"

using namespace dim;
using namespace dim::bench;

int main() {
  const auto workloads = prepare_all();

  std::printf("Memory sensitivity - D-cache miss penalty sweep (C#2, 64 slots, spec)\n");
  std::printf("(8 KiB direct-mapped D-cache, 32-byte lines; perfect I-cache)\n\n");
  std::printf("%-14s %12s %14s\n", "miss penalty", "avg speedup", "avg dcache MPKI");
  for (uint32_t penalty : {0u, 10u, 20u, 50u, 100u}) {
    std::vector<double> speedups;
    double mpki_sum = 0;
    for (const auto& p : workloads) {
      sim::MachineConfig machine;
      machine.timing.dcache.enabled = penalty > 0;
      machine.timing.dcache.miss_penalty = penalty;
      const sim::RunResult base = sim::run_baseline(p.program, machine);

      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      cfg.machine = machine;
      const accel::AccelStats st = accel::run_accelerated(p.program, cfg);
      require_transparent(p.workload.name, accel::baseline_as_stats(base), st);
      speedups.push_back(static_cast<double>(base.cycles) / static_cast<double>(st.cycles));
      mpki_sum += 1000.0 * static_cast<double>(base.dcache_misses) /
                  static_cast<double>(base.instructions);
    }
    std::printf("%-14u %12.2f %14.2f\n", penalty, mean(speedups),
                mpki_sum / static_cast<double>(workloads.size()));
  }

  std::printf("\nI-cache sweep (baseline fetches every instruction; the array does not)\n");
  std::printf("%-14s %12s\n", "miss penalty", "avg speedup");
  for (uint32_t penalty : {0u, 10u, 30u}) {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      sim::MachineConfig machine;
      machine.timing.icache.enabled = penalty > 0;
      machine.timing.icache.size_bytes = 1024;  // deliberately small
      machine.timing.icache.miss_penalty = penalty;
      const sim::RunResult base = sim::run_baseline(p.program, machine);
      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      cfg.machine = machine;
      const accel::AccelStats st = accel::run_accelerated(p.program, cfg);
      require_transparent(p.workload.name, accel::baseline_as_stats(base), st);
      speedups.push_back(static_cast<double>(base.cycles) / static_cast<double>(st.cycles));
    }
    std::printf("%-14u %12.2f%s\n", penalty, mean(speedups),
                penalty > 0 ? "   (array-resident code pays no I-cache misses)" : "");
  }
  return 0;
}
