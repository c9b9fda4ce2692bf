// Rcache warm-start files: the translated configurations sitting in the
// reconfiguration cache at the end of a run, exported keyed by program
// hash + translation fingerprint. A second run of the same program under
// the same translation knobs preloads them and starts hot — the detection
// phase is skipped for every preloaded sequence, which is where DIM's
// first-iteration translation cost goes (bench_warmstart pins the cycle
// savings).
//
// Loading is transparent by construction: preloaded entries are exactly
// what the cold run would (re-)translate, and preloading is silent — no
// events, no counter accounting — so the warm run's statistics measure
// only what the run itself does. Cold and warm runs retire the same
// instruction stream to the same architectural state; they differ only in
// translation-phase counters and cycles (see tests/test_warmstart.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "accel/system.hpp"
#include "asm/program.hpp"
#include "snap/snapshot.hpp"

namespace dim::snap {

// Exports every configuration currently cached by `system` (oldest first).
std::vector<uint8_t> encode_warm_start(const accel::AcceleratedSystem& system,
                                       const asmblr::Program& program);
void save_warm_start(std::ostream& out, const accel::AcceleratedSystem& system,
                     const asmblr::Program& program);
void save_warm_start_file(const std::string& path,
                          const accel::AcceleratedSystem& system,
                          const asmblr::Program& program);

// Preloads the file's configurations into `system`'s reconfiguration
// cache. The system must run the same program image under the same
// translation fingerprint (shape, speculation, translator restrictions) —
// SnapshotError(kMismatch) otherwise; the cache geometry may differ.
// Returns the number of configurations actually preloaded: loading never
// evicts, so a smaller cache takes entries oldest-first until full, and
// already-present start PCs are skipped.
size_t load_warm_start_payload(accel::AcceleratedSystem& system,
                               const std::vector<uint8_t>& payload,
                               const asmblr::Program& program);
size_t load_warm_start(accel::AcceleratedSystem& system, std::istream& in,
                       const asmblr::Program& program);
size_t load_warm_start_file(accel::AcceleratedSystem& system,
                            const std::string& path,
                            const asmblr::Program& program);

struct WarmStartInfo {
  uint64_t program_hash = 0;
  uint64_t translation_fingerprint = 0;
  std::vector<SnapshotRcacheEntry> entries;  // oldest first
};

WarmStartInfo inspect_warm_start(const std::vector<uint8_t>& payload);

}  // namespace dim::snap
