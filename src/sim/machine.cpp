#include "sim/machine.hpp"

namespace dim::sim {

Machine::Machine(const asmblr::Program& program, const MachineConfig& config)
    : config_(config), state_(entry_state(program.entry)), pipeline_(config.timing) {
  program.load_into(memory_);
}

void Machine::reset(const asmblr::Program& program) {
  memory_ = mem::Memory{};
  program.load_into(memory_);
  state_ = entry_state(program.entry);
  pipeline_.reset();
  decode_cache_.clear();
  trace_cache_.clear();
}

RunResult Machine::run(const std::function<void(const StepInfo&)>& observer) {
  RunResult result;
  // Observers need every StepInfo, so observed runs take the slow path.
  const bool fast = config_.host_trace_dispatch && !observer;
  while (!state_.halted && result.instructions < config_.max_instructions) {
    if (fast) {
      const uint64_t budget = config_.max_instructions - result.instructions;
      const uint64_t executed = trace_cache_.step_baseline(state_, memory_, pipeline_,
                                                           budget, &result.mem_accesses);
      result.instructions += executed;
      if (executed == budget) break;
      // No hot trace at this PC: retire it on the slow path without a
      // second head visit, then chain again.
    }
    const StepInfo info = step(state_, memory_, &decode_cache_);
    ++result.instructions;
    pipeline_.retire(info);
    if (info.mem_access) ++result.mem_accesses;
    if (observer) observer(info);
  }
  result.hit_limit = !state_.halted;
  result.cycles = pipeline_.cycles();
  result.state = state_;
  result.memory_hash = memory_.content_hash();
  result.icache_misses = pipeline_.icache().misses();
  result.dcache_misses = pipeline_.dcache().misses();
  return result;
}

RunResult run_baseline(const asmblr::Program& program, const MachineConfig& config) {
  Machine machine(program, config);
  return machine.run();
}

}  // namespace dim::sim
