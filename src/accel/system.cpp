#include "accel/system.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "common/bitutil.hpp"
#include "isa/decoder.hpp"
#include "sim/executor.hpp"

namespace dim::accel {

AcceleratedSystem::AcceleratedSystem(const asmblr::Program& program,
                                     const SystemConfig& config)
    : config_(config), state_(sim::entry_state(program.entry)),
      pipeline_(config.machine.timing), exec_model_(config.exec_mode) {
  program.load_into(memory_);

  rcache_ = std::make_unique<bt::ReconfigCache>(config_.cache_slots,
                                                config_.cache_replacement);
  translator_ = std::make_unique<bt::Translator>(config_, rcache_.get(), &predictor_);
  // Hammock detection must read ahead of the retired stream (the not-taken
  // arm has not retired yet when the branch is observed). Raw decode, not
  // the decode cache: a translation-time peek is not a fetch.
  translator_->set_code_reader([this](uint32_t pc) -> std::optional<isa::Instr> {
    return isa::decode(memory_.read32(pc));
  });

  events_.attach(config_.event_sink, this);
  rcache_->set_event_stream(&events_);
  translator_->set_event_stream(&events_);
}

AcceleratedSystem::~AcceleratedSystem() = default;

void AcceleratedSystem::drop_residency(AccelStats& stats, uint32_t pc) {
  latches_.has_resident = false;
  ++stats.residency_drops;
  if (events_.enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kResidencyDropped;
    e.config_pc = pc;
    events_.emit(e);
  }
}

void AcceleratedSystem::execute_on_array(rra::Configuration* config,
                                         AccelStats& stats) {
  translator_->on_array_executed();
  latches_.extension_candidate = false;

  const uint32_t config_pc = config->start_pc;

  // Residency: the configuration from the previous dispatch may still
  // be latched on the array. Valid only when both the start PC and the
  // rcache revision stamp match — any rewrite of the entry (extension,
  // re-translation after a flush) bumped the revision.
  bool resident = false;
  if (latches_.has_resident && latches_.resident_pc == config_pc) {
    if (latches_.resident_rev != config->revision) {
      drop_residency(stats, config_pc);
    } else {
      resident = true;
    }
  }

  const rra::ArrayExecOutcome outcome = exec_model_.execute(
      *config, state_, memory_, &pipeline_.dcache(), config_.array_timing, resident);

  ++stats.array_activations;
  if (outcome.elastic_fallback) ++stats.elastic_deadlock_fallbacks;
  stats.array_instructions += static_cast<uint64_t>(outcome.committed_ops);
  stats.instructions += static_cast<uint64_t>(outcome.committed_ops);
  latches_.array_cycle_acc += outcome.total_cycles();
  stats.array_exec_cycles += outcome.exec_cycles;
  stats.reconfig_stall_cycles += outcome.reconfig_stall_cycles;
  stats.array_dcache_stall_cycles += outcome.dcache_stall_cycles;
  stats.array_finalize_cycles += outcome.finalize_cycles;
  stats.misspec_penalty_cycles += outcome.misspec_penalty_cycles;
  stats.array_alu_ops += static_cast<uint64_t>(outcome.alu_ops);
  stats.array_mul_ops += static_cast<uint64_t>(outcome.mul_ops);
  stats.array_mem_ops += static_cast<uint64_t>(outcome.mem_ops);
  stats.fifo_stall_cycles += outcome.fifo_stall_cycles;
  // A resident dispatch skips the configuration-word reload entirely.
  if (resident) {
    ++stats.residency_hits;
  } else {
    stats.config_words_loaded += static_cast<uint64_t>(config->instruction_count());
  }

  if (events_.enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kArrayActivation;
    e.config_pc = config_pc;
    e.ops = outcome.committed_ops;
    e.depth = outcome.committed_bbs;
    e.exec_cycles = outcome.exec_cycles;
    e.reconfig_stall_cycles = outcome.reconfig_stall_cycles;
    e.dcache_stall_cycles = outcome.dcache_stall_cycles;
    e.finalize_cycles = outcome.finalize_cycles;
    e.misspec_penalty_cycles = outcome.misspec_penalty_cycles;
    events_.emit(e);
  }
  if (resident && events_.enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kResidencyHit;
    e.config_pc = config_pc;
    events_.emit(e);
  }

  // Update the bimodal counters with every branch the array resolved.
  for (const rra::BranchOutcome& b : outcome.branch_outcomes) {
    predictor_.update(b.pc, b.taken);
  }

  // Latch update — what the array holds after this dispatch. Done before the
  // misspeculation exit: a partially-committed run still loaded (or kept)
  // the configuration bits.
  if (config_.residency && !resident) {
    uint32_t hi = config_pc;
    for (const rra::ArrayOp& op : config->ops) hi = std::max(hi, op.pc);
    latches_.has_resident = true;
    latches_.resident_pc = config_pc;
    latches_.resident_rev = config->revision;
    latches_.resident_lo = config_pc;
    latches_.resident_hi = hi + 4;
  }

  // Self-modifying code from inside the array: a committed store into the
  // latched code range invalidates the residency (conservatively, by the
  // store bytes actually written).
  if (latches_.has_resident && outcome.wrote_memory &&
      outcome.store_lo < latches_.resident_hi && outcome.store_hi > latches_.resident_lo) {
    drop_residency(stats, latches_.resident_pc);
  }

  if (outcome.misspeculated) {
    ++stats.misspeculations;
    if (events_.enabled()) {
      obs::Event e;
      e.kind = obs::EventKind::kMisspeculation;
      e.config_pc = config_pc;
      e.branch_pc = outcome.misspec_branch_pc;
      e.depth = outcome.committed_bbs;
      events_.emit(e);
    }
    ++config->misspec_count;
    // Flush when the counter reached the opposite saturation for the
    // mispredicted direction, or after the safety cap.
    bool flush = config_.misspec_flush_threshold > 0 &&
                 config->misspec_count >= config_.misspec_flush_threshold;
    const auto dir = predictor_.saturated_direction(outcome.misspec_branch_pc);
    if (dir.has_value()) {
      for (const rra::ArrayOp& op : config->ops) {
        if (op.is_branch && op.pc == outcome.misspec_branch_pc &&
            op.predicted_taken != *dir) {
          flush = true;
          break;
        }
      }
    }
    if (flush) {
      rcache_->flush(config_pc);
      ++stats.config_flushes;
    }
    return;
  }

  // Fully committed. If the resume instruction is a conditional branch and
  // there is speculation depth left, arm the extension check: when that
  // branch retires we may merge its following basic block.
  if (config_.speculation && !config->no_extend &&
      config->num_bbs <= config_.max_spec_bbs) {
    const uint32_t word = memory_.read32(state_.pc);
    const isa::Instr next = decode_cache_.get(state_.pc, word);
    if (isa::is_branch(next.op)) {
      latches_.extension_candidate = true;
      latches_.extension_config_pc = config_pc;
      latches_.extension_branch_pc = state_.pc;
    }
  }
}

AccelStats AcceleratedSystem::run() {
  return run_until(std::numeric_limits<uint64_t>::max());
}

// Both retire helpers are inline: they run once per core-retired
// instruction, and an out-of-line call each costs the trace hot path.
inline void AcceleratedSystem::retire_on_core(sim::RetireRecord rec,
                                              const sim::StepInfo& info) {
  ++stats_.instructions;
  ++stats_.proc_instructions;
  rec.pc = info.pc;
  rec.mem_access = info.mem_access;
  rec.mem_addr = info.mem_addr;
  rec.taken = info.taken;
  pipeline_.retire(rec);
  if (info.mem_access) ++stats_.proc_mem_accesses;
  // Processor store into the resident code range (SMC): drop the latch.
  // Conservative 4-byte width — sub-word stores still hit their word.
  if (latches_.has_resident && info.mem_access && isa::is_store(info.instr.op) &&
      info.mem_addr < latches_.resident_hi && info.mem_addr + 4 > latches_.resident_lo) {
    drop_residency(stats_, latches_.resident_pc);
  }
}

inline void AcceleratedSystem::observe_retired(const sim::StepInfo& info) {
  // Software-BT emulation: inserting a configuration costs the processor
  // time proportional to its size (0 per word for the paper's hardware DIM).
  const uint64_t words_before = rcache_->words_written();
  translator_->observe(info);
  pipeline_.charge((rcache_->words_written() - words_before) *
                   config_.translation_cost_per_instr);
}

// Trace-dispatch env: the slow loop's retire body for every trace op, and
// the loop-top rcache probe for trace-interior PCs.
struct AcceleratedSystem::TraceEnv {
  static constexpr bool kDispatchProbe = true;
  AcceleratedSystem* sys;
  rra::Configuration* hit = nullptr;  // set when pre_dispatch stops the trace

  bool pre_dispatch(uint32_t pc) {
    if (!sys->translator_->extending()) {
      if (rra::Configuration* config = sys->rcache_->lookup(pc)) {
        hit = config;  // the caller dispatches it; re-probing would double-count
        return true;
      }
    }
    return false;
  }

  void retired(const sim::TraceOp& op, uint32_t next_pc, bool taken,
               bool mem_access, uint32_t mem_addr) {
    sim::StepInfo info;
    info.instr = op.instr;
    info.pc = op.pc;
    info.next_pc = next_pc;
    info.is_branch = isa::is_branch(op.instr.op);
    info.taken = taken;
    info.mem_access = mem_access;
    info.mem_addr = mem_addr;
    info.halted = false;  // halting ops never enter a trace
    sys->retire_on_core(op.rec, info);
    sys->observe_retired(info);
  }
};

AccelStats AcceleratedSystem::run_until(uint64_t instruction_boundary) {
  AccelStats& stats = stats_;
  const uint64_t max_instructions = config_.machine.max_instructions;

  while (!state_.halted && stats.instructions < max_instructions &&
         stats.instructions < instruction_boundary) {
    // Probe the reconfiguration cache (unless an extension capture is in
    // flight — DIM must then observe the raw stream).
    if (!translator_->extending()) {
      if (rra::Configuration* config = rcache_->lookup(state_.pc)) {
        execute_on_array(config, stats);
        continue;
      }
    }

    // Superblock fast path: the probe above missed, so this PC retires on
    // the core either way; a hot trace retires the whole straight-line run
    // in one call, probing the rcache before every interior PC exactly as
    // the loop top would. Skipped while an extension check is armed — that
    // state is consumed by the slow path's next retirement.
    if (config_.machine.host_trace_dispatch && !latches_.extension_candidate) {
      const uint64_t limit = std::min(max_instructions, instruction_boundary);
      TraceEnv env{this};
      const sim::TraceExecResult res =
          trace_cache_.step_env(state_, memory_, limit - stats.instructions, env);
      if (res.dispatch_stop && env.hit != nullptr) {
        execute_on_array(env.hit, stats);
        continue;
      }
      if (res.executed > 0) continue;
    }

    const bool was_extension_candidate = latches_.extension_candidate;
    latches_.extension_candidate = false;

    const sim::StepInfo info = sim::step(state_, memory_, &decode_cache_);
    retire_on_core(sim::RetireRecord::classify(info.instr), info);

    // Extension: the branch at the end of a fully-committed configuration
    // just retired. If its counter is saturated in the direction it went,
    // the following basic block becomes part of the configuration.
    bool branch_absorbed_by_extension = false;
    if (was_extension_candidate && info.pc == latches_.extension_branch_pc &&
        isa::is_branch(info.instr.op)) {
      const auto dir = predictor_.saturated_direction(info.pc);
      if (dir.has_value() && *dir == info.taken) {
        // Bookkeeping access, not a dispatch: probe() keeps the hit count
        // equal to the number of array activations.
        if (rra::Configuration* config = rcache_->probe(latches_.extension_config_pc)) {
          if (!translator_->begin_extension(*config, info.instr, info.pc, *dir)) {
            config->no_extend = true;
          } else {
            ++stats.extensions;
            // The branch is already part of the extension builder; observing
            // it again would merge a duplicate. Keep the predictor current.
            predictor_.update(info.pc, info.taken);
            branch_absorbed_by_extension = true;
          }
        }
      }
    }

    if (!branch_absorbed_by_extension) observe_retired(info);
  }

  // Derived fields are recomputed from the live components on every exit,
  // so they are correct both at a checkpoint boundary and at the end.
  stats.hit_limit = !state_.halted && stats.instructions >= max_instructions;
  stats.proc_cycles = pipeline_.cycles();
  stats.array_cycles = latches_.array_cycle_acc;
  stats.cycles = stats.proc_cycles + stats.array_cycles;
  stats.rcache_hits = rcache_->hits();
  stats.rcache_misses = rcache_->misses();
  stats.rcache_insertions = rcache_->insertions();
  stats.rcache_evictions = rcache_->evictions();
  stats.bt_observed = translator_->stats().observed_instructions;
  stats.hammocks_merged = translator_->stats().hammocks_merged;
  stats.config_words_written = rcache_->words_written();
  stats.final_state = state_;
  stats.memory_hash = memory_.content_hash();
  return stats;
}

AccelStats run_accelerated(const asmblr::Program& program, const SystemConfig& config) {
  AcceleratedSystem system(program, config);
  return system.run();
}

namespace {

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

std::string hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

RunComparison compare_runs(const AccelStats& reference, const AccelStats& candidate,
                           const CompareSides& sides) {
  const sim::CpuState& a = reference.final_state;
  const sim::CpuState& b = candidate.final_state;
  const size_t reg = static_cast<size_t>(
      std::mismatch(a.regs.begin(), a.regs.end(), b.regs.begin()).first - a.regs.begin());
  const bool byte_exact =
      sides.reference_memory != nullptr && sides.candidate_memory != nullptr;
  std::optional<uint32_t> byte;  // first differing memory byte
  if (byte_exact) byte = sides.reference_memory->first_difference(*sides.candidate_memory);

  RunComparison c;
  // "<what>: <reference> <x> vs <candidate> <y>"
  const auto differ = [&](RunField field, const std::string& what, const std::string& x,
                          const std::string& y) {
    c.field = field;
    c.detail = what + ": " + sides.reference + " " + x + " vs " + sides.candidate + " " + y;
  };
  if (a.halted != b.halted) {
    differ(RunField::kTermination, "halted", a.halted ? "true" : "false",
           b.halted ? "true" : "false");
  } else if (a.output != b.output) {
    differ(RunField::kOutput, "program output differs", "\"" + a.output + "\"",
           "\"" + b.output + "\"");
  } else if (reg < a.regs.size()) {
    differ(RunField::kRegister, "register $" + std::to_string(reg), hex32(a.regs[reg]),
           hex32(b.regs[reg]));
  } else if (a.pc != b.pc) {
    differ(RunField::kRegister, "pc", hex32(a.pc), hex32(b.pc));
  } else if (a.hi != b.hi || a.lo != b.lo) {
    differ(RunField::kHiLo, "hi/lo", hex32(a.hi) + "/" + hex32(a.lo),
           hex32(b.hi) + "/" + hex32(b.lo));
  } else if (byte.has_value()) {
    differ(RunField::kMemory, "memory byte at " + hex32(*byte),
           hex32(sides.reference_memory->read8(*byte)),
           hex32(sides.candidate_memory->read8(*byte)));
  } else if (!byte_exact && reference.memory_hash != candidate.memory_hash) {
    differ(RunField::kMemory, "memory hash", hex64(reference.memory_hash),
           hex64(candidate.memory_hash));
  } else if (reference.instructions != candidate.instructions) {
    differ(RunField::kRetiredCount, "retired instructions",
           std::to_string(reference.instructions), std::to_string(candidate.instructions));
  }

  if (a.halted != b.halted) {
    c.verdict = Verdict::kDivergent;
  } else if (!a.halted) {
    c.verdict = Verdict::kInconclusive;
  } else {
    c.verdict = c.field == RunField::kNone ? Verdict::kTransparent : Verdict::kDivergent;
  }
  return c;
}

AccelStats baseline_as_stats(const asmblr::Program& program,
                             const sim::MachineConfig& machine) {
  return baseline_as_stats(sim::run_baseline(program, machine));
}

AccelStats baseline_as_stats(const sim::RunResult& r) {
  AccelStats stats;
  stats.instructions = r.instructions;
  stats.proc_instructions = r.instructions;
  stats.cycles = r.cycles;
  stats.proc_cycles = r.cycles;
  stats.proc_mem_accesses = r.mem_accesses;
  stats.hit_limit = r.hit_limit;
  stats.final_state = r.state;
  stats.memory_hash = r.memory_hash;
  return stats;
}

SpeedupResult measure_speedup(const asmblr::Program& program, const SystemConfig& config) {
  SpeedupResult result;
  result.baseline = baseline_as_stats(program, config.machine);
  result.accelerated = run_accelerated(program, config);
  return result;
}

}  // namespace dim::accel
