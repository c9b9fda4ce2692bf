// Internal to src/snap: the one gate through AcceleratedSystem's private
// state (friended in accel/system.hpp). Serialization code reads and
// writes the system exclusively through these accessors so the coupling
// surface stays explicit and greppable. Not part of the public snap API.
#pragma once

#include <cstdint>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "mem/memory.hpp"
#include "sim/cpu_state.hpp"
#include "sim/pipeline.hpp"

namespace dim::snap {

struct SystemAccess {
  static const accel::SystemConfig& config(const accel::AcceleratedSystem& s) {
    return s.config_;
  }
  static const mem::Memory& memory(const accel::AcceleratedSystem& s) {
    return s.memory_;
  }
  static mem::Memory& memory(accel::AcceleratedSystem& s) { return s.memory_; }
  static const sim::CpuState& state(const accel::AcceleratedSystem& s) {
    return s.state_;
  }
  static sim::CpuState& state(accel::AcceleratedSystem& s) { return s.state_; }
  static const sim::PipelineModel& pipeline(const accel::AcceleratedSystem& s) {
    return s.pipeline_;
  }
  static sim::PipelineModel& pipeline(accel::AcceleratedSystem& s) {
    return s.pipeline_;
  }
  static const bt::BimodalPredictor& predictor(const accel::AcceleratedSystem& s) {
    return s.predictor_;
  }
  static bt::BimodalPredictor& predictor(accel::AcceleratedSystem& s) {
    return s.predictor_;
  }
  static const bt::ReconfigCache& rcache(const accel::AcceleratedSystem& s) {
    return *s.rcache_;
  }
  static bt::ReconfigCache& rcache(accel::AcceleratedSystem& s) {
    return *s.rcache_;
  }
  static const bt::Translator& translator(const accel::AcceleratedSystem& s) {
    return *s.translator_;
  }
  static bt::Translator& translator(accel::AcceleratedSystem& s) {
    return *s.translator_;
  }
  static const accel::AccelStats& stats(const accel::AcceleratedSystem& s) {
    return s.stats_;
  }
  static accel::AccelStats& stats(accel::AcceleratedSystem& s) { return s.stats_; }

  static void set_extension(accel::AcceleratedSystem& s, bool candidate,
                            uint32_t config_pc, uint32_t branch_pc) {
    s.extension_candidate_ = candidate;
    s.extension_config_pc_ = config_pc;
    s.extension_branch_pc_ = branch_pc;
  }
  static bool extension_candidate(const accel::AcceleratedSystem& s) {
    return s.extension_candidate_;
  }
  static uint32_t extension_config_pc(const accel::AcceleratedSystem& s) {
    return s.extension_config_pc_;
  }
  static uint32_t extension_branch_pc(const accel::AcceleratedSystem& s) {
    return s.extension_branch_pc_;
  }
  static uint64_t array_cycle_acc(const accel::AcceleratedSystem& s) {
    return s.array_cycle_acc_;
  }
  static void set_array_cycle_acc(accel::AcceleratedSystem& s, uint64_t v) {
    s.array_cycle_acc_ = v;
  }

  static bool has_resident(const accel::AcceleratedSystem& s) {
    return s.has_resident_;
  }
  static uint32_t resident_pc(const accel::AcceleratedSystem& s) {
    return s.resident_pc_;
  }
  static uint64_t resident_rev(const accel::AcceleratedSystem& s) {
    return s.resident_rev_;
  }
  static uint32_t resident_lo(const accel::AcceleratedSystem& s) {
    return s.resident_lo_;
  }
  static uint32_t resident_hi(const accel::AcceleratedSystem& s) {
    return s.resident_hi_;
  }
  static void set_residency_latch(accel::AcceleratedSystem& s, bool has,
                                  uint32_t pc, uint64_t rev, uint32_t lo,
                                  uint32_t hi) {
    s.has_resident_ = has;
    s.resident_pc_ = pc;
    s.resident_rev_ = rev;
    s.resident_lo_ = lo;
    s.resident_hi_ = hi;
  }

  // Restoring replaces the memory image wholesale (restore_pages
  // invalidates page pointers) — both host-side caches must forget
  // everything they decoded from the old image. Architecture-invisible:
  // they rebuild lazily and revalidate against memory, but the trace
  // cache's cached page pointer would dangle without this.
  static void clear_host_caches(accel::AcceleratedSystem& s) {
    s.decode_cache_.clear();
    s.trace_cache_.clear();
  }
};

}  // namespace dim::snap
