// Timing-only cache model (direct-mapped). The functional simulator always
// reads/writes the backing Memory; this model just decides hit/miss so the
// pipeline can charge stall cycles, mirroring how the paper charges load
// latency ("the operations that depend on the result of a load are allocated
// considering a cache hit as the total load delay ... if a miss occurs, the
// whole array operation stops until the miss is resolved").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace dim::mem {

struct CacheParams {
  uint32_t size_bytes = 8 * 1024;
  uint32_t line_bytes = 32;
  uint32_t miss_penalty = 20;  // extra cycles on a miss
  bool enabled = false;        // default: perfect memory (paper baseline)
};

// Mutable state of a Cache (everything except its geometry): what a
// checkpoint persists. `tags` holds tag+1 per line (0 == invalid).
struct CacheState {
  std::vector<uint64_t> tags;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Cache {
 public:
  explicit Cache(const CacheParams& params);

  // Touches `addr`; returns the extra stall cycles (0 on hit or if disabled).
  uint32_t access(uint32_t addr);

  void reset();

  // Checkpoint support. check_state throws std::invalid_argument when the
  // tag count does not match this cache's geometry; restore_state checks,
  // then assigns.
  const CacheState& export_state() const { return s_; }
  void check_state(const CacheState& state) const;
  void restore_state(CacheState state) {
    check_state(state);
    s_ = std::move(state);
  }

  uint64_t hits() const { return s_.hits; }
  uint64_t misses() const { return s_.misses; }
  const CacheParams& params() const { return params_; }

 private:
  CacheParams params_;
  uint32_t num_lines_ = 0;
  uint32_t line_shift_ = 0;
  CacheState s_;
};

}  // namespace dim::mem
