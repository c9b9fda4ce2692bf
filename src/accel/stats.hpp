// Statistics of one accelerated (or baseline) run — the raw material for
// every speedup, power and energy figure in the paper.
#pragma once

#include <cstdint>

#include "sim/cpu_state.hpp"

namespace dim::accel {

struct AccelStats {
  // Work.
  uint64_t instructions = 0;        // total committed (processor + array)
  uint64_t proc_instructions = 0;   // retired through the pipeline
  uint64_t array_instructions = 0;  // committed inside the array

  // Time. The array taxonomy is exhaustive: array_exec_cycles +
  // reconfig_stall_cycles + array_dcache_stall_cycles +
  // array_finalize_cycles + misspec_penalty_cycles == array_cycles.
  uint64_t cycles = 0;
  uint64_t proc_cycles = 0;
  uint64_t array_cycles = 0;
  uint64_t array_exec_cycles = 0;          // row evaluation
  uint64_t reconfig_stall_cycles = 0;      // visible reconfiguration stalls
  uint64_t array_dcache_stall_cycles = 0;  // load/store misses inside the array
  uint64_t array_finalize_cycles = 0;      // write-back drain
  uint64_t misspec_penalty_cycles = 0;

  // Array / DIM events.
  uint64_t array_activations = 0;
  uint64_t misspeculations = 0;
  uint64_t config_flushes = 0;
  uint64_t extensions = 0;
  uint64_t rcache_hits = 0;    // dispatch hits == array activations
  uint64_t rcache_misses = 0;  // untranslated sequence-start encounters
  uint64_t rcache_insertions = 0;
  uint64_t rcache_evictions = 0;
  uint64_t bt_observed = 0;
  uint64_t hammocks_merged = 0;   // if-converted hammocks (translator)
  uint64_t residency_hits = 0;    // dispatches that skipped the config reload
  uint64_t residency_drops = 0;   // residency invalidations (SMC / rewrite)

  // Execution-mode extensions (src/rra/exec_mode/). All zero under the
  // default row-sync personality, which is why serialized formats carry
  // them in optional trailing sections (snap/), so row-sync artifacts keep
  // their v3 bytes. (Older versions are rejected with kBadVersion.)
  uint64_t fifo_stall_cycles = 0;           // elastic: backpressure share of
                                            // array_exec_cycles (a subset,
                                            // not a sixth taxonomy term)
  uint64_t elastic_deadlock_fallbacks = 0;  // dispatches run row-sync because
                                            // the config failed the deadlock check

  // Activity for the power model.
  uint64_t array_alu_ops = 0;
  uint64_t array_mul_ops = 0;
  uint64_t array_mem_ops = 0;
  uint64_t proc_mem_accesses = 0;
  uint64_t config_words_loaded = 0;   // reconfiguration cache reads
  uint64_t config_words_written = 0;  // reconfiguration cache writes

  // Outcome.
  bool hit_limit = false;
  sim::CpuState final_state;
  uint64_t memory_hash = 0;

  double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
  // Fraction of committed instructions that ran on the array ("coverage").
  double array_coverage() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(array_instructions) / static_cast<double>(instructions);
  }
};

}  // namespace dim::accel
