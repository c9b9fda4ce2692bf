// Content-addressed result store: on-disk memoization of SweepEngine
// cells. Each cell is keyed by everything that determines the simulated
// outcome — program image hash, full system fingerprint, whether a
// baseline run is part of the cell, whether a profile is collected, and a
// code version bumped whenever the simulator's behavior changes — so a hit
// can only ever return the bytes the simulation would recompute. Sweep
// output is byte-identical with the store enabled, disabled, or shared
// across runs and thread counts; a warm store just does zero simulations.
//
// Cells are written atomically (temp file + rename) so concurrent sweeps
// can share a directory; a corrupt or truncated cell is counted and
// treated as a miss, never an error. So is a cell that cannot be written:
// the sweep still returns the result it computed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "accel/sweep.hpp"

namespace dim::snap {

class ResultStore : public accel::ResultCache {
 public:
  // Creates `directory` (and parents) if needed; throws
  // SnapshotError(kIo) when that fails.
  explicit ResultStore(std::string directory);

  bool load(const accel::SweepPoint& point, bool collect_profiles,
            accel::SweepResult& out) override;
  void store(const accel::SweepPoint& point, bool collect_profiles,
             const accel::SweepResult& result) override;

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t corrupt_discards = 0;  // unreadable/mismatched cells skipped
    uint64_t write_failures = 0;    // cells not written (e.g. disk full)
  };
  Counters counters() const;

  // The cell identity of a point. Label and index are presentation fields
  // and excluded; a live `point.baseline` pointer is excluded too (the
  // caller supplies it again on load — only a worker-computed baseline is
  // part of the cell).
  static uint64_t cell_key(const accel::SweepPoint& point, bool collect_profiles);

  std::string cell_path(uint64_t key) const;
  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
  mutable std::mutex mutex_;
  Counters counters_;
};

}  // namespace dim::snap
