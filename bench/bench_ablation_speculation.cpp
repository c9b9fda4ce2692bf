// Ablation: the speculation policy — depth of speculative basic blocks,
// misspeculation penalty, the flush rule (the paper flushes when the
// branch counter reaches the opposite saturation; a naive small misspec
// cap destroys loop configurations on every loop exit) — and the
// control-flow ablation: speculation vs if-conversion (predication) over
// the full workload set, exported as
// BENCH_ablation_controlflow.json via --json for tools/bench_diff.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "rra/array_shape.hpp"

using namespace dim;
using namespace dim::bench;

namespace {

// The four control-flow policies: neither, speculation only (paper
// setting), if-conversion only, and both combined.
struct ControlFlowVariant {
  const char* name;
  bool speculation;
  bool predication;
};

constexpr ControlFlowVariant kVariants[] = {
    {"nospec", false, false},
    {"spec3", true, false},
    {"pred", false, true},
    {"spec3+pred", true, true},
};

accel::SystemConfig variant_config(const ControlFlowVariant& v) {
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, v.speculation);
  cfg.predication = v.predication;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const SweepCli cli = parse_sweep_cli(argc, argv);
  const auto workloads = prepare_all();

  std::printf("Ablation - speculative basic-block depth (C#2, 64 slots)\n");
  std::printf("%-12s %10s\n", "depth", "avg speedup");
  {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      speedups.push_back(speedup_of(p, accel::SystemConfig::with(rra::ArrayShape::config2(), 64, false)));
    }
    std::printf("%-12s %10.2f\n", "off", mean(speedups));
  }
  for (int depth : {1, 2, 3, 5}) {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      cfg.max_spec_bbs = depth;
      speedups.push_back(speedup_of(p, cfg));
    }
    std::printf("%-12d %10.2f%s\n", depth, mean(speedups),
                depth == 3 ? "   <- paper setting (up to three basic blocks)" : "");
  }

  std::printf("\nAblation - misspeculation flush policy\n");
  std::printf("%-24s %10s\n", "policy", "avg speedup");
  for (int threshold : {0, 1, 4, 16}) {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      cfg.misspec_flush_threshold = threshold;
      speedups.push_back(speedup_of(p, cfg));
    }
    char label[64];
    if (threshold == 0) {
      std::snprintf(label, sizeof label, "counter rule only");
    } else {
      std::snprintf(label, sizeof label, "counter + cap %d", threshold);
    }
    std::printf("%-24s %10.2f%s\n", label, mean(speedups),
                threshold == 0 ? "   <- paper rule" : "");
  }

  std::printf("\nAblation - misspeculation penalty (pipeline refill cycles)\n");
  std::printf("%-12s %10s\n", "penalty", "avg speedup");
  for (int penalty : {0, 2, 8, 32}) {
    std::vector<double> speedups;
    for (const auto& p : workloads) {
      accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      cfg.array_timing.misspec_penalty = penalty;
      speedups.push_back(speedup_of(p, cfg));
    }
    std::printf("%-12d %10.2f\n", penalty, mean(speedups));
  }

  // Control-flow ablation: speculation vs if-conversion. Run as one sweep
  // grid so --threads/--json apply; the committed artifact is produced by
  //   bench_ablation_speculation --json BENCH_ablation_controlflow.json
  // and diffed across revisions by tools/bench_diff.py.
  constexpr size_t kNumVariants = sizeof kVariants / sizeof kVariants[0];
  std::vector<accel::SweepPoint> points;
  for (const auto& p : workloads) {
    for (const auto& v : kVariants) {
      points.push_back(point_of(p, p.workload.name + "/" + v.name, variant_config(v)));
    }
  }
  const auto results = run_sweep(std::move(points), cli);

  std::printf("\nAblation - control flow: speculation vs if-conversion (C#2, 64 slots)\n");
  std::printf("%-16s", "workload");
  for (const auto& v : kVariants) std::printf(" %12s", v.name);
  std::printf("\n");
  std::vector<std::vector<double>> per_variant(kNumVariants);
  for (size_t w = 0; w * kNumVariants + kNumVariants <= results.size(); ++w) {
    std::printf("%-16s", workloads[w].workload.name.c_str());
    for (size_t v = 0; v < kNumVariants; ++v) {
      const double s = results[w * kNumVariants + v].speedup();
      per_variant[v].push_back(s);
      std::printf(" %12.2f", s);
    }
    std::printf("\n");
  }
  std::printf("%-16s", "mean");
  for (size_t v = 0; v < kNumVariants; ++v) std::printf(" %12.2f", mean(per_variant[v]));
  std::printf("\n");

  maybe_write_json(cli, results);
  return 0;
}
