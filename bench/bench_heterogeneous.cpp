// The paper's motivating scenario (§5.1): "an embedded system runs RawAudio
// decoder, JPEG encoder and decoder, and the StringSearch" — ~45 basic
// blocks would need acceleration for a 2x speedup, so a shared, dynamically
// managed reconfiguration cache is essential.
//
// We emulate the multi-application device: the four applications are linked
// at disjoint addresses and executed in a round-robin of time slices, with
// ONE persistent reconfiguration cache shared across all of them (carried
// between slices with ReconfigCache::export_entries / preload — the
// translation state survives task switches, and a carried configuration is
// not counted as a new insertion).
// Sweeping the slot count exposes the capacity pressure that a single
// kernel cannot: exactly the effect behind the slot columns of Table 2.
#include <cstdio>
#include <vector>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "bench/bench_util.hpp"
#include "rra/array_shape.hpp"

using namespace dim;
using namespace dim::bench;

namespace {

struct App {
  std::string name;
  asmblr::Program program;
  uint64_t baseline_cycles = 0;
};

}  // namespace

int main() {
  // The paper's four-application mix, linked at disjoint bases so their
  // configurations compete honestly in one cache.
  const char* names[4] = {"rawaudio_d", "jpeg_e", "jpeg_d", "stringsearch"};
  std::vector<App> apps;
  uint32_t text_base = 0x00400000;
  uint32_t data_base = 0x10010000;
  for (const char* name : names) {
    const work::Workload wl = work::make_workload(name, 1);
    asmblr::AsmOptions options;
    options.text_base = text_base;
    options.data_base = data_base;
    text_base += 0x00100000;
    data_base += 0x00400000;
    App app;
    app.name = wl.display;
    app.program = asmblr::assemble(wl.source, options);
    app.baseline_cycles = accel::baseline_as_stats(app.program, sim::MachineConfig{}).cycles;
    apps.push_back(std::move(app));
  }

  std::printf("Heterogeneous device - 4 applications sharing one reconfiguration cache\n");
  std::printf("(RawAudio D. + JPEG E. + JPEG D. + Stringsearch, C#2, speculation,\n");
  std::printf(" 3 round-robin passes; translations persist across task switches)\n\n");
  std::printf("%-8s %18s %12s %12s\n", "slots", "aggregate speedup", "insertions", "evictions");

  for (size_t slots : {4u, 8u, 16u, 32u, 64u, 128u}) {
    uint64_t base_total = 0;
    uint64_t accel_total = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    std::vector<rra::Configuration> carried;

    const int passes = 3;
    for (int pass = 0; pass < passes; ++pass) {
      for (const App& app : apps) {
        accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), slots, true);
        accel::AcceleratedSystem system(app.program, cfg);
        for (rra::Configuration& config : carried) {
          system.rcache().preload(std::move(config));
        }
        const accel::AccelStats st = system.run();
        carried = system.rcache().export_entries();

        base_total += app.baseline_cycles;
        accel_total += st.cycles;
        insertions += st.rcache_insertions;
        evictions += st.rcache_evictions;
      }
    }
    std::printf("%-8zu %17.2fx %12llu %12llu\n", slots,
                static_cast<double>(base_total) / static_cast<double>(accel_total),
                static_cast<unsigned long long>(insertions),
                static_cast<unsigned long long>(evictions));
  }

  std::printf(
      "\nShape to verify: with few slots the four applications evict each\n"
      "other's configurations at every task switch (re-translation churn);\n"
      "enough slots keep every application resident — the paper's argument\n"
      "for sizing the cache to the whole workload mix, not a single kernel.\n");
  return 0;
}
