#include "accel/system.hpp"

#include <algorithm>
#include <limits>

#include "common/bitutil.hpp"
#include "isa/decoder.hpp"
#include "sim/executor.hpp"

namespace dim::accel {

AcceleratedSystem::AcceleratedSystem(const asmblr::Program& program,
                                     const SystemConfig& config)
    : config_(config), pipeline_(config.machine.timing) {
  program.load_into(memory_);
  state_.pc = program.entry;
  state_.regs[29] = config_.machine.initial_sp;
  state_.regs[28] = config_.machine.initial_gp;

  bt::TranslatorParams tparams;
  tparams.shape = config_.shape;
  tparams.speculation = config_.speculation;
  tparams.max_spec_bbs = config_.max_spec_bbs;
  tparams.min_instructions = config_.min_instructions;
  tparams.allow_mem = config_.allow_mem;
  tparams.allow_shifts = config_.allow_shifts;
  tparams.allow_mult = config_.allow_mult;
  tparams.max_input_regs = config_.max_input_regs;
  tparams.max_output_regs = config_.max_output_regs;
  tparams.allowed_starts = config_.allowed_starts;
  tparams.predication = config_.predication;
  tparams.max_hammock_ops = config_.max_hammock_ops;
  tparams.max_pred_slots = config_.max_pred_slots;
  tparams.fault = config_.fault_injection;
  tparams.exec_mode = config_.exec_mode;
  exec_model_ = rra::make_execution_model(config_.exec_mode);
  rcache_ = std::make_unique<bt::ReconfigCache>(config_.cache_slots,
                                                config_.cache_replacement);
  translator_ = std::make_unique<bt::Translator>(tparams, rcache_.get(), &predictor_);
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
  has_resident_ = false;
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
  extension_candidate_ = false;

  const uint32_t config_pc = config->start_pc;

  // Loop residency: the configuration from the previous dispatch may still
  // be latched on the array. Valid only when both the start PC and the
  // rcache revision stamp match — any rewrite of the entry (extension,
  // re-translation after a flush) bumped the revision.
  bool resident = false;
  if (has_resident_ && resident_pc_ == config_pc) {
    if (resident_rev_ != config->revision) {
      drop_residency(stats, config_pc);
    } else {
      resident = true;
    }
  }

  // Elastic deadlock fallback: a configuration whose bounded-FIFO handshake
  // graph is cyclic cannot fire elastically and executes row-synchronously.
  // The translator classifies at config-build time; entries arriving via
  // snapshot restore or warm-start preload carry no memo and are
  // classified lazily on first dispatch.
  bool elastic_fallback = false;
  if (config_.exec_mode.mode == rra::ExecMode::kElastic) {
    if (config->elastic_memo < 0) {
      config->elastic_memo = exec_model_->admits(*config) ? 1 : 0;
    }
    elastic_fallback = config->elastic_memo == 0;
  }
  if (elastic_fallback) ++stats.elastic_deadlock_fallbacks;

  const rra::ArrayExecOutcome outcome =
      elastic_fallback
          ? rra::execute_configuration(*config, state_, memory_,
                                       &pipeline_.dcache(), config_.array_timing,
                                       resident)
          : exec_model_->execute(*config, state_, memory_, &pipeline_.dcache(),
                                 config_.array_timing, resident);

  ++stats.array_activations;
  stats.array_instructions += static_cast<uint64_t>(outcome.committed_ops);
  stats.instructions += static_cast<uint64_t>(outcome.committed_ops);
  array_cycle_acc_ += outcome.total_cycles();
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
  // the configuration bits. Backward-closed configs resume at their own
  // start PC, which is what makes them loop-resident under kLoop.
  const bool latchable =
      config_.residency == Residency::kAny ||
      (config_.residency == Residency::kLoop && config->end_pc == config_pc);
  if (latchable) {
    if (!resident) {
      uint32_t hi = config_pc;
      for (const rra::ArrayOp& op : config->ops) hi = std::max(hi, op.pc);
      has_resident_ = true;
      resident_pc_ = config_pc;
      resident_rev_ = config->revision;
      resident_lo_ = config_pc;
      resident_hi_ = hi + 4;
    }
  } else {
    has_resident_ = false;
  }

  // Self-modifying code from inside the array: a committed store into the
  // latched code range invalidates the residency (conservatively, by the
  // store bytes actually written).
  if (has_resident_ && outcome.wrote_memory && outcome.store_lo < resident_hi_ &&
      outcome.store_hi > resident_lo_) {
    drop_residency(stats, resident_pc_);
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
      extension_candidate_ = true;
      extension_config_pc_ = config_pc;
      extension_branch_pc_ = state_.pc;
    }
  }
}

AccelStats AcceleratedSystem::run() {
  return run_until(std::numeric_limits<uint64_t>::max());
}

// Trace-dispatch env: reproduces the slow loop's per-retirement body —
// counters, pipeline retire, translator observation (with the software-BT
// cost charge) — and the loop-top rcache probe for trace-interior PCs.
// Event stamps read stats_.instructions / pipeline cycles, so the update
// order here must match the slow loop exactly.
struct AcceleratedSystem::TraceEnv {
  static constexpr bool kDispatchProbe = true;
  AcceleratedSystem* sys;
  AccelStats* stats;
  rra::Configuration* hit = nullptr;  // set when pre_dispatch stops the trace

  bool pre_dispatch(uint32_t pc) {
    if (sys->config_.array_enabled && !sys->translator_->extending()) {
      if (rra::Configuration* config = sys->rcache_->lookup(pc)) {
        hit = config;  // the caller dispatches it; re-probing would double-count
        return true;
      }
    }
    return false;
  }

  void retired(const sim::TraceOp& op, uint32_t next_pc, bool taken,
               bool mem_access, uint32_t mem_addr) {
    ++stats->instructions;
    ++stats->proc_instructions;
    sim::RetireRecord rec = op.rec;
    rec.mem_access = mem_access;
    rec.mem_addr = mem_addr;
    rec.taken = taken;
    sys->pipeline_.retire(rec);
    if (mem_access) ++stats->proc_mem_accesses;
    // Processor store into the resident code range (SMC): drop the latch.
    // Conservative 4-byte width — sub-word stores still hit their word.
    if (sys->has_resident_ && mem_access && isa::is_store(op.instr.op) &&
        mem_addr < sys->resident_hi_ && mem_addr + 4 > sys->resident_lo_) {
      sys->drop_residency(*stats, sys->resident_pc_);
    }

    sim::StepInfo info;
    info.instr = op.instr;
    info.pc = op.pc;
    info.next_pc = next_pc;
    info.is_branch = isa::is_branch(op.instr.op);
    info.taken = taken;
    info.mem_access = mem_access;
    info.mem_addr = mem_addr;
    info.halted = false;  // halting ops never enter a trace
    if (sys->config_.translation_cost_per_instr > 0) {
      const uint64_t words_before = sys->rcache_->words_written();
      sys->translator_->observe(info);
      const uint64_t inserted = sys->rcache_->words_written() - words_before;
      if (inserted > 0) {
        sys->pipeline_.charge(inserted * sys->config_.translation_cost_per_instr);
      }
    } else {
      sys->translator_->observe(info);
    }
  }
};

AccelStats AcceleratedSystem::run_until(uint64_t instruction_boundary) {
  AccelStats& stats = stats_;
  const uint64_t max_instructions = config_.machine.max_instructions;

  while (!state_.halted && stats.instructions < max_instructions &&
         stats.instructions < instruction_boundary) {
    // Probe the reconfiguration cache (unless an extension capture is in
    // flight — DIM must then observe the raw stream).
    if (config_.array_enabled && !translator_->extending()) {
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
    if (config_.machine.host_trace_dispatch && !extension_candidate_) {
      const uint64_t limit = std::min(max_instructions, instruction_boundary);
      TraceEnv env{this, &stats};
      const sim::TraceExecResult res =
          trace_cache_.step_env(state_, memory_, limit - stats.instructions, env);
      if (res.dispatch_stop && env.hit != nullptr) {
        execute_on_array(env.hit, stats);
        continue;
      }
      if (res.executed > 0) continue;
    }

    const bool was_extension_candidate = extension_candidate_;
    extension_candidate_ = false;

    const sim::StepInfo info = sim::step(state_, memory_, &decode_cache_);
    ++stats.instructions;
    ++stats.proc_instructions;
    pipeline_.retire(info);
    if (info.mem_access) ++stats.proc_mem_accesses;
    // Mirror of TraceEnv::retired — SMC into the resident range drops the
    // latch regardless of which path retired the store.
    if (has_resident_ && info.mem_access && isa::is_store(info.instr.op) &&
        info.mem_addr < resident_hi_ && info.mem_addr + 4 > resident_lo_) {
      drop_residency(stats, resident_pc_);
    }

    // Extension: the branch at the end of a fully-committed configuration
    // just retired. If its counter is saturated in the direction it went,
    // the following basic block becomes part of the configuration.
    bool branch_absorbed_by_extension = false;
    if (was_extension_candidate && info.pc == extension_branch_pc_ &&
        isa::is_branch(info.instr.op)) {
      const auto dir = predictor_.saturated_direction(info.pc);
      if (dir.has_value() && *dir == info.taken) {
        // Bookkeeping access, not a dispatch: probe() keeps the hit count
        // equal to the number of array activations.
        if (rra::Configuration* config = rcache_->probe(extension_config_pc_)) {
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

    if (!branch_absorbed_by_extension) {
      if (config_.translation_cost_per_instr > 0) {
        // Software-BT emulation: inserting a configuration costs the
        // processor time proportional to its size.
        const uint64_t words_before = rcache_->words_written();
        translator_->observe(info);
        const uint64_t inserted = rcache_->words_written() - words_before;
        if (inserted > 0) {
          pipeline_.charge(inserted * config_.translation_cost_per_instr);
        }
      } else {
        translator_->observe(info);
      }
    }
  }

  // Derived fields are recomputed from the live components on every exit,
  // so they are correct both at a checkpoint boundary and at the end.
  stats.hit_limit = !state_.halted && stats.instructions >= max_instructions;
  stats.proc_cycles = pipeline_.cycles();
  stats.array_cycles = array_cycle_acc_;
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

AccelStats baseline_as_stats(const asmblr::Program& program,
                             const sim::MachineConfig& machine) {
  const sim::RunResult r = sim::run_baseline(program, machine);
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
