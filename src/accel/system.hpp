// The complete system of the paper: MIPS core + DIM binary translator +
// reconfigurable array + reconfiguration cache + bimodal speculation.
//
// Per retired PC the reconfiguration cache is probed; on a hit the array is
// reconfigured (overlapped with the pipeline front-end), executes the
// translated sequence as a functional unit, writes results back and bumps
// the PC past the sequence. On a miss the instruction goes through the
// normal pipeline while DIM observes it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "accel/stats.hpp"
#include "mem/memory.hpp"
#include "obs/event.hpp"
#include "rra/array_exec.hpp"
#include "rra/array_shape.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "sim/executor.hpp"
#include "sim/machine.hpp"
#include "sim/pipeline.hpp"

namespace dim::accel {
class AcceleratedSystem;
}

namespace dim::snap {
// Checkpoint save/restore (snap/snapshot.hpp): friends of the system.
std::vector<uint8_t> encode_snapshot(const accel::AcceleratedSystem& system,
                                     const asmblr::Program& program);
void restore_snapshot_payload(accel::AcceleratedSystem& system,
                              const std::vector<uint8_t>& payload,
                              const asmblr::Program& program);
}  // namespace dim::snap

namespace dim::accel {

// The translator's knobs (shape, speculation, related-work restrictions,
// predication, exec_mode, fault injection — see bt::TranslatorParams) plus
// the system's own.
struct SystemConfig : bt::TranslatorParams {
  sim::MachineConfig machine;          // baseline core timing + run limits
  rra::ArrayTimingParams array_timing;
  size_t cache_slots = 64;
  bt::Replacement cache_replacement = bt::Replacement::kFifo;  // paper: FIFO
  // Residency: the last dispatched configuration stays latched on the
  // array, so re-dispatching it skips the configuration-word reload
  // (rra::resident_stall_cycles). Off (the paper) reloads on every
  // dispatch. Strictly a timing knob: architectural state is identical
  // either way.
  bool residency = false;
  // A configuration is flushed when its mispredicted branch reaches the
  // opposite counter saturation (paper rule). Optionally also after this
  // many misspeculations (0 = disabled; kept for the ablation bench — a
  // small cap destroys loop configurations on every loop exit).
  int misspec_flush_threshold = 0;
  // Cycles charged to the processor per translated instruction when a
  // configuration is inserted. 0 = the paper's hardware DIM (translation
  // runs in parallel, free). Nonzero emulates software binary translation
  // (warp-processing-style CAD) — see bench_ablation_btcost.
  uint64_t translation_cost_per_instr = 0;
  // Configuration-lifecycle event tracing (see obs/event.hpp). Not owned;
  // must outlive the system. Null (the default) disables tracing at the
  // cost of one pointer test per event site — observation only, so the
  // simulated cycle/instruction counts are identical either way.
  obs::EventSink* event_sink = nullptr;

  static SystemConfig with(const rra::ArrayShape& s, size_t slots, bool spec) {
    SystemConfig c;
    c.shape = s;
    c.cache_slots = slots;
    c.speculation = spec;
    return c;
  }
};

// The system's own run latches: what the snapshot's sys section persists.
struct RunLatches {
  // Speculation-extension bookkeeping: set after a fully-committed array
  // execution whose resume instruction is a conditional branch.
  bool extension_candidate = false;
  uint32_t extension_config_pc = 0;
  uint32_t extension_branch_pc = 0;
  uint64_t array_cycle_acc = 0;  // array cycles (outside the pipeline model)
  // Residency latch: the configuration currently held on the array.
  // Valid only while the cached entry's revision still matches (the rcache
  // stamps every write); resident_lo/hi cover the translated code bytes
  // so stores into them (SMC) drop the latch.
  bool has_resident = false;
  uint32_t resident_pc = 0;
  uint64_t resident_rev = 0;
  uint32_t resident_lo = 0;
  uint32_t resident_hi = 0;  // exclusive
};

class AcceleratedSystem : private obs::RunClock {
 public:
  AcceleratedSystem(const asmblr::Program& program, const SystemConfig& config);
  ~AcceleratedSystem();

  // Runs to halt or the configured instruction limit. Statistics live in
  // the system and accumulate across calls, so run() after run_until() is
  // exactly the continuation of the same run.
  AccelStats run();

  // Runs until halt, the configured limit, or `instruction_boundary`
  // committed instructions — whichever comes first — and returns the
  // statistics so far. A run stopped here and then continued (run() /
  // run_until()) retires the identical instruction stream, cycle for
  // cycle, as one uninterrupted run: the loop merely pauses between two
  // retirements. This is the checkpoint hook of snap/snapshot.hpp —
  // stop at a boundary, save_snapshot, and a restored system continues
  // bit-identically (pinned by the resume-equals-straight-run oracle in
  // tests/test_snapshot.cpp). The boundary can be overshot by one array
  // activation, which commits a whole translated sequence at once.
  AccelStats run_until(uint64_t instruction_boundary);

  // Statistics accumulated so far (the counters the next run_until
  // continues from; derived fields are refreshed on every run_until exit).
  const AccelStats& stats() const { return stats_; }
  const SystemConfig& config() const { return config_; }
  // The reconfiguration cache: export and preload across runs, and tests.
  bt::ReconfigCache& rcache() { return *rcache_; }
  const bt::ReconfigCache& rcache() const { return *rcache_; }

  // Introspection for tests.
  bt::BimodalPredictor& predictor() { return predictor_; }
  sim::CpuState& state() { return state_; }
  mem::Memory& memory() { return memory_; }
  const sim::TraceCache& trace_cache() const { return trace_cache_; }

 private:
  friend std::vector<uint8_t> snap::encode_snapshot(const AcceleratedSystem&,
                                                     const asmblr::Program&);
  friend void snap::restore_snapshot_payload(AcceleratedSystem&,
                                             const std::vector<uint8_t>&,
                                             const asmblr::Program&);

  // Per-op hooks the superblock trace engine calls so a trace-dispatched
  // stretch retires exactly like the slow loop (defined in system.cpp).
  struct TraceEnv;

  void execute_on_array(rra::Configuration* config, AccelStats& stats);

  // The one retire body of a core-retired instruction, shared by the slow
  // loop and trace dispatch. retire_on_core counts it, charges the
  // pipeline (`rec` carries the static classification; its dynamic fields
  // come from `info`) and drops the residency latch on a store into the
  // resident code. observe_retired feeds DIM and charges the software-BT
  // cost of any configuration the observation inserted.
  void retire_on_core(sim::RetireRecord rec, const sim::StepInfo& info);
  void observe_retired(const sim::StepInfo& info);

  // Drops the residency latch (SMC overwrite or config rewrite detected):
  // clears the latch, counts the drop and emits kResidencyDropped for `pc`.
  void drop_residency(AccelStats& stats, uint32_t pc);

  // obs::RunClock — the stamp every emitted event carries.
  uint64_t retired_instructions() const override { return stats_.instructions; }
  uint64_t clock_proc_cycles() const override { return pipeline_.cycles(); }
  uint64_t clock_array_cycles() const override { return latches_.array_cycle_acc; }

  SystemConfig config_;
  mem::Memory memory_;
  sim::CpuState state_;
  sim::PipelineModel pipeline_;
  sim::DecodeCache decode_cache_;  // host-side fetch/decode memoization
  sim::TraceCache trace_cache_;    // host-side superblock fast path
  bt::BimodalPredictor predictor_;
  std::unique_ptr<bt::ReconfigCache> rcache_;
  std::unique_ptr<bt::Translator> translator_;

  RunLatches latches_;

  // The array's execution personality (row-sync by default).
  rra::ExecutionModel exec_model_;

  // The run's live counters (event stamps read instructions from here).
  AccelStats stats_;

  // Event tracing: stamped stream shared with the translator and rcache;
  // points at config_.event_sink (null = off).
  obs::EventStream events_;
};

// Runs `program` both on the plain MIPS and on MIPS+DIM+array with the same
// core timing; the pair is what every speedup figure reports.
struct SpeedupResult {
  AccelStats baseline;
  AccelStats accelerated;
  double speedup() const {
    return accelerated.cycles == 0
               ? 0.0
               : static_cast<double>(baseline.cycles) / static_cast<double>(accelerated.cycles);
  }
};

// The transparency verdict, the paper's core claim: does a candidate run
// (the accelerated system, or the fast dispatch) end in the reference
// run's architectural state? Every bench, the sweep engine, the result
// store, serve and both fuzz oracles decide it with compare_runs.
enum class Verdict : uint8_t {
  kTransparent,   // both halted and every compared field matches
  kDivergent,     // exactly one halted, or both halted and a field differs
  kInconclusive,  // neither halted: two cut-off runs make no claim
};

// The compared fields, in the order compare_runs checks them.
enum class RunField : uint8_t {
  kNone = 0,
  kTermination,  // exactly one side halted
  kOutput,       // syscall output bytes
  kRegister,     // a general register or the PC (the detail names which)
  kHiLo,
  kMemory,
  kRetiredCount,
};

struct RunComparison {
  Verdict verdict = Verdict::kTransparent;
  RunField field = RunField::kNone;  // first differing field
  std::string detail;                // that field, with both values
  // An inconclusive pair is not a violation.
  bool transparent() const { return verdict != Verdict::kDivergent; }
};

// How the detail names the two runs, and optionally their memories: with
// both given, memory is compared byte for byte and the detail names the
// first differing address; otherwise memory_hash decides.
struct CompareSides {
  const char* reference = "reference";
  const char* candidate = "candidate";
  const mem::Memory* reference_memory = nullptr;
  const mem::Memory* candidate_memory = nullptr;
};

// Both halted: transparent when output, registers, PC, HI/LO, memory and
// retired count all match, else divergent at the first differing field.
// Exactly one halted: divergent at kTermination. Neither halted:
// inconclusive, but the fields are still diffed into field/detail for a
// caller that requires two cut-off runs to agree (the dispatch oracle).
RunComparison compare_runs(const AccelStats& reference, const AccelStats& candidate,
                           const CompareSides& sides = {});

AccelStats run_accelerated(const asmblr::Program& program, const SystemConfig& config);
AccelStats baseline_as_stats(const asmblr::Program& program,
                             const sim::MachineConfig& machine);
// The statistics of a plain-core run that has already happened.
AccelStats baseline_as_stats(const sim::RunResult& run);
SpeedupResult measure_speedup(const asmblr::Program& program, const SystemConfig& config);

}  // namespace dim::accel
