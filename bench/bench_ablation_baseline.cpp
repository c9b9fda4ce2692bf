// Ablation: how strong a baseline does DIM survive? The paper motivates
// the technique against superscalars ("limited and time-varying ILP ...
// preclude the employment of these processors in low-energy devices");
// here we strengthen the baseline to a dual-issue in-order core and to a
// zero-penalty-branch core, and re-measure the array's advantage. The
// accelerated system uses the SAME core model, so the comparison stays
// apples-to-apples.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "rra/array_shape.hpp"

using namespace dim;
using namespace dim::bench;

namespace {

double avg_speedup(const std::vector<PreparedWorkload>& workloads,
                   const sim::TimingParams& timing) {
  std::vector<double> speedups;
  for (const auto& p : workloads) {
    sim::MachineConfig machine;
    machine.timing = timing;
    const sim::RunResult base = sim::run_baseline(p.program, machine);
    accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
    cfg.machine = machine;
    const accel::AccelStats st = accel::run_accelerated(p.program, cfg);
    require_transparent(p.workload.name, accel::baseline_as_stats(base), st);
    speedups.push_back(static_cast<double>(base.cycles) / static_cast<double>(st.cycles));
  }
  return mean(speedups);
}

}  // namespace

int main() {
  const auto workloads = prepare_all();

  std::printf("Ablation - baseline core strength (C#2, 64 slots, speculation)\n\n");
  std::printf("%-44s %12s\n", "baseline core", "avg speedup");

  sim::TimingParams scalar;  // the paper's Minimips-class core
  std::printf("%-44s %12.2f   <- paper baseline\n", "scalar, 2-cycle taken-branch redirect",
              avg_speedup(workloads, scalar));

  sim::TimingParams fast_branch = scalar;
  fast_branch.taken_branch_penalty = 0;  // e.g. perfectly filled delay slots
  std::printf("%-44s %12.2f\n", "scalar, free branches", avg_speedup(workloads, fast_branch));

  sim::TimingParams dual = scalar;
  dual.issue_width = 2;
  std::printf("%-44s %12.2f\n", "dual-issue in-order", avg_speedup(workloads, dual));

  sim::TimingParams dual_fast = dual;
  dual_fast.taken_branch_penalty = 0;
  std::printf("%-44s %12.2f\n", "dual-issue, free branches",
              avg_speedup(workloads, dual_fast));

  std::printf(
      "\nShape to verify: the advantage shrinks against stronger cores but does\n"
      "not vanish — the array still collapses dependent chains (3 rows/cycle)\n"
      "and removes fetch/issue slots, which no in-order pipeline recovers.\n");
  return 0;
}
