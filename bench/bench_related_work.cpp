// Quantifying the paper's §2 related-work arguments on our suite:
//
// 1. CCA-style arrays (Clark et al., MICRO-37): "the CCA does not support
//    memory operations or shifts, limiting its field of application and,
//    as a consequence, it supports only a limited number of inputs and
//    outputs." We emulate that restriction (no LD/ST, no shifts, no
//    multiplier, 4 inputs / 2 outputs) on the same detection hardware.
//
// 2. Warp-processing-style kernel-only optimization (Lysecky/Stitt/Vahid):
//    the CAD flow translates only the profiled hot spots, so coverage is
//    capped by how concentrated the program is — the paper's Figure 3a
//    argument for optimizing *everything* dynamically.
//
// 3. Execution-mode personalities (src/rra/exec_mode/): the same detection
//    hardware and the same configurations, re-timed under the row-sync and
//    elastic (dataflow firing through bounded per-row FIFOs) array
//    disciplines — a 2 x 18 SweepEngine grid. Counts the workloads where
//    elastic beats row-sync and emits a deterministic JSON artifact
//    (BENCH_related_modes.json) that is byte-identical for any --threads
//    value.
//
// Flags (bench_util SweepCli): --threads N, --points N (truncates the mode
// grid; CI smoke), --modes-json PATH (write the mode-grid artifact),
// --modes-only (skip sections 1 and 2).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "power/power_model.hpp"
#include "prof/bb_profiler.hpp"
#include "rra/array_shape.hpp"
#include "sim/machine.hpp"

using namespace dim;
using namespace dim::bench;

namespace {

// One mode personality of the section-3 grid. Both share the headline
// C#2 / 64-slot / speculation system; only the execution model differs, so
// the speedup deltas are pure timing-discipline effects.
struct ModePersonality {
  const char* key;
  rra::ExecModeParams exec;
};

std::vector<ModePersonality> mode_personalities() {
  std::vector<ModePersonality> modes(2);
  modes[0].key = "row_sync";
  modes[1].key = "elastic";
  modes[1].exec.mode = rra::ExecMode::kElastic;
  modes[1].exec.fifo_capacity = 4;
  return modes;
}

// Deterministic double formatting for the JSON artifact: %.6g depends only
// on the value, so the file is byte-identical for any worker count.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void run_mode_grid(const std::vector<PreparedWorkload>& workloads,
                   const SweepCli& cli, const std::string& json_path) {
  const auto modes = mode_personalities();
  const accel::SystemConfig base =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);

  std::vector<accel::SweepPoint> points;
  for (const ModePersonality& m : modes) {
    for (const PreparedWorkload& p : workloads) {
      accel::SystemConfig cfg = base;
      cfg.exec_mode = m.exec;
      points.push_back(point_of(p, std::string(m.key) + "/" + p.workload.name, cfg));
    }
  }
  const auto results = run_sweep(points, cli);

  std::printf(
      "Related work 3 - execution-mode personalities (C#2, 64 slots, spec)\n"
      "(row-sync vs elastic fifo=4; speedup over plain MIPS)\n\n");
  std::printf("%-16s %9s %9s %11s\n", "Algorithm", "row-sync", "elastic", "fifo-stall");
  const size_t n = workloads.size();
  std::vector<double> avg(modes.size(), 0.0);
  // With --points the grid may be truncated; index math below only reads
  // cells that exist.
  const auto cell = [&](size_t mode, size_t wl) -> const accel::SweepResult* {
    const size_t idx = mode * n + wl;
    return idx < results.size() ? &results[idx] : nullptr;
  };
  // Workloads with both cells present, and those where elastic takes
  // strictly fewer cycles than row-sync.
  size_t compared = 0;
  size_t elastic_wins = 0;
  for (size_t w = 0; w < n; ++w) {
    if (cell(0, w) == nullptr) break;
    const accel::SweepResult* rs = cell(0, w);
    const accel::SweepResult* el = cell(1, w);
    std::printf("%-16s %8.2fx %8.2fx %11llu\n", workloads[w].workload.display.c_str(),
                rs->speedup(), el != nullptr ? el->speedup() : 0.0,
                static_cast<unsigned long long>(
                    el != nullptr ? el->accelerated.fifo_stall_cycles : 0));
    if (el == nullptr) continue;
    ++compared;
    if (el->accelerated.cycles < rs->accelerated.cycles) ++elastic_wins;
  }
  for (size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> sp;
    for (size_t w = 0; w < n; ++w) {
      if (cell(m, w) != nullptr) sp.push_back(cell(m, w)->speedup());
    }
    avg[m] = mean(sp);
  }
  std::printf("%-16s %8.2fx %8.2fx\n", "Average", avg[0], avg[1]);
  std::printf("elastic beats row-sync on %zu of %zu workloads\n\n", elastic_wins, compared);

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"related_modes\",\n"
      << "  \"system\": {\"shape\": \"config2\", \"cache_slots\": 64, "
         "\"speculation\": true},\n"
      << "  \"elastic_wins\": " << elastic_wins << ", \"workloads_compared\": " << compared
      << ",\n  \"modes\": [\n";
  for (size_t m = 0; m < modes.size(); ++m) {
    out << "    {\"mode\": \"" << modes[m].key << "\"";
    if (modes[m].exec.mode == rra::ExecMode::kElastic) {
      out << ", \"fifo_capacity\": " << modes[m].exec.fifo_capacity;
    }
    out << ", \"avg_speedup\": " << num(avg[m]) << ",\n     \"workloads\": [\n";
    bool first = true;
    for (size_t w = 0; w < n; ++w) {
      const accel::SweepResult* r = cell(m, w);
      if (r == nullptr) break;
      const double energy =
          power::compute_energy(r->accelerated, base.cache_slots).total();
      if (!first) out << ",\n";
      first = false;
      out << "      {\"name\": \"" << workloads[w].workload.name
          << "\", \"cycles\": " << r->accelerated.cycles
          << ", \"speedup\": " << num(r->speedup())
          << ", \"energy_nj\": " << num(energy)
          << ", \"fifo_stall_cycles\": " << r->accelerated.fifo_stall_cycles
          << ", \"deadlock_fallbacks\": " << r->accelerated.elastic_deadlock_fallbacks
          << "}";
    }
    out << "\n    ]}" << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("mode grid JSON written to %s (%zu points)\n", json_path.c_str(),
              results.size());
}

}  // namespace

int main(int argc, char** argv) {
  SweepCli cli = parse_sweep_cli(argc, argv);
  bool modes_only = false;
  std::string modes_json;
  for (size_t i = 0; i < cli.positional.size(); ++i) {
    if (cli.positional[i] == "--modes-only") {
      modes_only = true;
    } else if (cli.positional[i] == "--modes-json" && i + 1 < cli.positional.size()) {
      modes_json = cli.positional[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_related_work [--threads N] [--points N]\n"
                   "                          [--modes-json PATH] [--modes-only]\n");
      return 2;
    }
  }

  const auto workloads = prepare_all();

  if (modes_only) {
    run_mode_grid(workloads, cli, modes_json);
    return 0;
  }

  std::printf("Related work 1 - CCA-style FU restrictions (C#2, 64 slots, spec)\n\n");
  std::printf("%-16s %10s %12s %12s\n", "Algorithm", "DIM array", "CCA-style", "coverage");
  std::vector<double> dim_speedups, cca_speedups;
  for (const auto& p : workloads) {
    const accel::SystemConfig dim_cfg =
        accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
    accel::SystemConfig cca_cfg = dim_cfg;
    cca_cfg.allow_mem = false;
    cca_cfg.allow_shifts = false;
    cca_cfg.allow_mult = false;
    cca_cfg.max_input_regs = 4;
    cca_cfg.max_output_regs = 2;

    const double dim_speedup = speedup_of(p, dim_cfg);
    const accel::AccelStats cca = accel::run_accelerated(p.program, cca_cfg);
    const double cca_speedup =
        static_cast<double>(p.baseline.cycles) / static_cast<double>(cca.cycles);
    dim_speedups.push_back(dim_speedup);
    cca_speedups.push_back(cca_speedup);
    std::printf("%-16s %9.2fx %11.2fx %11.1f%%\n", p.workload.display.c_str(), dim_speedup,
                cca_speedup, 100.0 * cca.array_coverage());
  }
  std::printf("%-16s %9.2fx %11.2fx\n\n", "Average", mean(dim_speedups), mean(cca_speedups));

  std::printf("Related work 2 - kernel-only translation (warp-processing style)\n");
  std::printf("(only the K hottest basic blocks are eligible for translation)\n\n");
  std::printf("%-10s %12s\n", "K hottest", "avg speedup");
  for (int k : {1, 3, 5, 10, 20}) {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      // Profile to find the hot basic-block leaders.
      sim::Machine machine(p.program);
      prof::BbProfiler profiler;
      machine.run([&profiler](const sim::StepInfo& info) { profiler.observe(info); });
      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      int count = 0;
      for (const auto& block : profiler.blocks_by_weight()) {
        if (count++ >= k) break;
        cfg.allowed_starts.insert(block.start_pc);
      }
      speedups.push_back(speedup_of(p, cfg));
    }
    std::printf("%-10d %11.2fx\n", k, mean(speedups));
  }
  {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      speedups.push_back(
          speedup_of(p, accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true)));
    }
    std::printf("%-10s %11.2fx   <- DIM (everything eligible)\n", "all", mean(speedups));
  }
  std::printf(
      "\nShape to verify: the restricted CCA-style array accelerates only the\n"
      "pure-ALU codes; kernel-only translation approaches DIM as K grows —\n"
      "for kernel-less programs only slowly, the paper's case for optimizing\n"
      "the whole application transparently.\n\n");

  run_mode_grid(workloads, cli, modes_json);
  return 0;
}
