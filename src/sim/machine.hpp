// Baseline machine: the standalone MIPS core running a program to
// completion, with cycle accounting. This is the reference the paper's
// speedups are measured against, and the oracle for transparency tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "asm/program.hpp"
#include "mem/memory.hpp"
#include "sim/cpu_state.hpp"
#include "sim/executor.hpp"
#include "sim/pipeline.hpp"
#include "sim/trace_cache.hpp"

namespace dim::sim {

struct RunResult {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  bool hit_limit = false;  // stopped by max_instructions, not by halt
  CpuState state;
  uint64_t memory_hash = 0;
  uint64_t icache_misses = 0;
  uint64_t dcache_misses = 0;
  uint64_t mem_accesses = 0;
};

struct MachineConfig {
  TimingParams timing;
  uint64_t max_instructions = 200'000'000;
  // Superblock trace-threaded dispatch (sim/trace_cache.hpp): the host
  // fast path for unobserved runs. Bit-identical to the slow path by
  // contract (fuzzed by dimsim-fuzz --cmp-dispatch); on by default so
  // every golden/regression run exercises it. Observed runs (profiler)
  // always take the per-instruction path: observers need every StepInfo.
  bool host_trace_dispatch = true;
};

class Machine {
 public:
  Machine(const asmblr::Program& program, const MachineConfig& config = {});

  // Runs to halt (or instruction limit). `observer`, when set, sees every
  // retired instruction — used by the profiler.
  RunResult run(const std::function<void(const StepInfo&)>& observer = nullptr);

  // Replaces the loaded image with `program` and rewinds every piece of
  // run state: memory, CPU state, pipeline latches/cycles, and both
  // host-side caches (decoded words and superblock traces must not
  // survive an image swap — see their clear() contracts).
  void reset(const asmblr::Program& program);

  mem::Memory& memory() { return memory_; }
  CpuState& state() { return state_; }
  const TraceCache& trace_cache() const { return trace_cache_; }
  DecodeCache& decode_cache() { return decode_cache_; }

 private:
  MachineConfig config_;
  mem::Memory memory_;
  CpuState state_;
  PipelineModel pipeline_;
  DecodeCache decode_cache_;
  TraceCache trace_cache_;
};

// Convenience: assemble-load-run in one call.
RunResult run_baseline(const asmblr::Program& program, const MachineConfig& config = {});

}  // namespace dim::sim
