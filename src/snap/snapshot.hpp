// Full-system snapshots: the complete state of an AcceleratedSystem —
// CPU registers, sparse memory image, pipeline hazard latches and caches,
// bimodal counters, reconfiguration-cache entries in eviction order, the
// translator (including an in-flight capture), and the accumulated run
// statistics — serialized so a run can stop at an instruction boundary
// (AcceleratedSystem::run_until) and a restored system continues
// bit-identically, as if the run had never paused.
//
// A snapshot is tied to its (program, configuration) pair: restoring
// validates the program hash and the system fingerprint and throws
// SnapshotError(kMismatch) on any disagreement, because state restored
// into a differently-configured system would diverge silently.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "sim/cpu_state.hpp"

namespace dim::snap {

// Serializes the complete state of `system`, which is running `program`
// (the program bytes are not stored — only their hash, which pins the
// snapshot to the image it was taken from).
std::vector<uint8_t> encode_snapshot(const accel::AcceleratedSystem& system,
                                     const asmblr::Program& program);
void save_snapshot(std::ostream& out, const accel::AcceleratedSystem& system,
                   const asmblr::Program& program);

// Restores a snapshot into `system`, which must have been constructed from
// the same program image and a configuration with an equal system
// fingerprint. Throws SnapshotError: kMismatch when the snapshot belongs
// to a different program/configuration, kMalformed (and the other
// container taxonomy codes for the stream variant) on a corrupt
// artifact. Every check runs before the first mutation: on throw the
// system is unchanged.
void restore_snapshot_payload(accel::AcceleratedSystem& system,
                              const std::vector<uint8_t>& payload,
                              const asmblr::Program& program);
void restore_snapshot(accel::AcceleratedSystem& system, std::istream& in,
                      const asmblr::Program& program);

// Human-readable summary of a snapshot, decoded without a target system —
// what `dimsim-analyze --snapshot` prints.
struct SnapshotRcacheEntry {
  uint32_t start_pc = 0;
  uint32_t end_pc = 0;
  int rows_used = 0;
  int ops = 0;
  int num_bbs = 0;
};

struct SnapshotInfo {
  uint64_t program_hash = 0;
  uint64_t system_fingerprint = 0;
  sim::CpuState cpu;
  size_t memory_pages = 0;
  uint64_t pipeline_cycles = 0;
  size_t predictor_branches = 0;
  size_t predictor_saturated = 0;  // counters at 0 or 3
  bt::RcacheCounters rcache_counters;
  std::vector<SnapshotRcacheEntry> rcache_entries;  // oldest first
  bt::TranslatorStats translator_stats;
  bool capture_in_flight = false;
  uint32_t capture_pc = 0;   // valid when capture_in_flight
  int capture_ops = 0;       // ops placed so far in the in-flight capture
  accel::AccelStats stats;
};

SnapshotInfo inspect_snapshot(const std::vector<uint8_t>& payload);

}  // namespace dim::snap
