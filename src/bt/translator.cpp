#include "bt/translator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/executor.hpp"

namespace dim::bt {

using isa::FuKind;
using isa::Instr;
using isa::Op;

namespace {

// Does this instruction carry an immediate the array must store?
bool uses_immediate(const Instr& i) {
  switch (i.op) {
    case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
    case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kLui:
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
    case Op::kSb: case Op::kSh: case Op::kSw:
      return true;
    default:
      return false;
  }
}

// Instructions the array can host. mfhi/mflo become routing moves of the
// HI/LO context registers, so they are translatable even though
// isa::dim_supported (which classifies FU needs) excludes them.
bool translatable(Op op) {
  return isa::dim_supported(op) || op == Op::kMfhi || op == Op::kMflo;
}

FuKind fu_for(const Instr& i, bool is_branch) {
  if (is_branch) return FuKind::kAlu;  // branches compare on an ALU
  if (i.op == Op::kMfhi || i.op == Op::kMflo) return FuKind::kAlu;
  return isa::fu_kind(i.op);
}

// Can the array host this instruction? Translatable, and not barred by
// the related-work restrictions (CCA-style arrays; see TranslatorParams).
bool op_allowed(const Instr& i, const TranslatorParams& p) {
  if (!translatable(i.op)) return false;
  if (!p.allow_mem && (isa::is_load(i.op) || isa::is_store(i.op))) return false;
  if (!p.allow_shifts && isa::is_shift(i.op)) return false;
  return p.allow_mult || (i.op != Op::kMult && i.op != Op::kMultu &&
                          i.op != Op::kMfhi && i.op != Op::kMflo);
}

// Can this instruction live inside an if-converted hammock arm? Same
// restrictions as try_add, plus: no control flow (arms are straight-line).
bool arm_op_allowed(const Instr& i, const TranslatorParams& p) {
  return !isa::is_branch(i.op) && !isa::is_jump(i.op) && op_allowed(i, p);
}

// Longest hammock the if-conversion path merges: total arm instructions
// (the join jump is free).
constexpr int kMaxHammockOps = 4;

// The diamond's internal unconditional jump: `b join` assembles to
// `beq $0, $0, disp`.
bool is_join_jump_instr(const Instr& i) {
  return i.op == Op::kBeq && i.rs == 0 && i.rt == 0;
}

}  // namespace

// --- ConfigBuilder -----------------------------------------------------------

ConfigBuilder::ConfigBuilder(uint32_t start_pc, const TranslatorParams& params)
    : params_(&params) {
  s_.start_pc = start_pc;
  s_.last_writer_row.fill(-1);
}

bool ConfigBuilder::place(const Instr& instr, uint32_t pc, const PlaceOpts& opts) {
  const TranslatorParams& params = *params_;
  // The join jump compares $0 == $0 on an ALU, like any other branch slot.
  const FuKind kind =
      opts.is_join_jump ? FuKind::kAlu : fu_for(instr, opts.is_branch);

  // RAW dependences: the instruction must sit strictly below every producer.
  int srcs[2];
  const int nsrc = rra::array_srcs(instr, srcs);
  // Predicated ops additionally wait for their predicate line (placed
  // strictly below the pred-defining branch so the write-back gate is
  // resolved by the time the row drives the bus).
  int min_row = opts.min_row_floor;
  uint64_t new_inputs = 0;
  for (int k = 0; k < nsrc; ++k) {
    const int s = srcs[k];
    if (s == 0) continue;  // $zero
    const int producer = s_.last_writer_row[static_cast<size_t>(s)];
    if (producer >= 0) {
      min_row = std::max(min_row, producer + 1);
    } else if (((s_.input_ctx_bits >> s) & 1) == 0) {
      new_inputs |= uint64_t{1} << s;
    }
  }

  // Memory ordering: no disambiguation hardware — loads may not pass
  // stores, stores may not pass any memory operation.
  if (isa::is_load(instr.op)) {
    min_row = std::max(min_row, s_.last_store_row + 1);
  } else if (isa::is_store(instr.op)) {
    min_row = std::max(min_row, s_.last_mem_row + 1);
  }

  // Capacity checks that must not mutate state on failure.
  if (static_cast<size_t>(std::popcount(s_.input_ctx_bits | new_inputs)) >
      static_cast<size_t>(params.max_input_regs)) {
    return false;
  }
  int dests[2];
  const int ndst = rra::array_dests(instr, dests);
  uint64_t new_written = s_.written_bits;
  for (int k = 0; k < ndst; ++k) new_written |= uint64_t{1} << dests[k];
  if (static_cast<size_t>(std::popcount(new_written)) >
      static_cast<size_t>(params.max_output_regs)) {
    return false;
  }

  // Resource table: first line >= min_row with a free unit of this group.
  const size_t group = kind == FuKind::kAlu ? 0 : kind == FuKind::kMul ? 1 : 2;
  const int per_line = group == 0   ? params.shape.alus_per_line
                       : group == 1 ? params.shape.muls_per_line
                                    : params.shape.ldsts_per_line;
  if (per_line <= 0) return false;
  int row = -1;
  int col = -1;
  for (int r = min_row; r < params.shape.lines; ++r) {
    if (r >= static_cast<int>(s_.rows.size())) {
      s_.rows.resize(static_cast<size_t>(r) + 1);
    }
    int& used = s_.rows[static_cast<size_t>(r)][group];
    if (used < per_line) {
      row = r;
      col = used;
      ++used;
      break;
    }
  }
  if (row < 0) return false;

  // Commit all table updates.
  s_.input_ctx_bits |= new_inputs;
  s_.written_bits = new_written;
  const bool predicated_write = opts.pred_slot >= 0 && !opts.is_pred_def;
  for (int k = 0; k < ndst; ++k) {
    int& writer = s_.last_writer_row[static_cast<size_t>(dests[k])];
    // A predicated write may be squashed at runtime, so a later reader must
    // sit below BOTH the other arm's writer and this one: keep the deepest
    // writer row instead of overwriting it.
    writer = predicated_write ? std::max(writer, row) : row;
  }
  if (isa::is_load(instr.op)) {
    s_.last_mem_row = std::max(s_.last_mem_row, row);
  } else if (isa::is_store(instr.op)) {
    s_.last_mem_row = std::max(s_.last_mem_row, row);
    s_.last_store_row = std::max(s_.last_store_row, row);
  }
  if (uses_immediate(instr)) ++s_.immediates;

  rra::ArrayOp op;
  op.instr = instr;
  // Planted-bug hook for the differential fuzzer: corrupt the stored
  // semantics (never the dependence/resource bookkeeping above, which used
  // the pristine instruction) so the bug surfaces only as divergent
  // architectural state when the configuration executes.
  if (params.fault == FaultInjection::kAddiuImmOffByOne && instr.op == Op::kAddiu) {
    op.instr.imm16 ^= 1;
  } else if (params.fault == FaultInjection::kSubuSwapOperands &&
             instr.op == Op::kSubu) {
    std::swap(op.instr.rs, op.instr.rt);
  }
  op.pc = pc;
  op.row = row;
  op.col = col;
  op.kind = kind;
  op.bb_index = s_.bb;
  op.is_branch = opts.is_branch;
  op.predicted_taken = opts.predicted_taken;
  op.pred_slot = opts.pred_slot;
  op.pred_when_taken = opts.pred_when_taken;
  op.is_pred_def = opts.is_pred_def;
  op.is_join_jump = opts.is_join_jump;
  s_.ops.push_back(op);
  return true;
}

bool ConfigBuilder::try_add(const Instr& instr, uint32_t pc) {
  return op_allowed(instr, *params_) && place(instr, pc, PlaceOpts{});
}

bool ConfigBuilder::try_add_branch(const Instr& instr, uint32_t pc,
                                   bool predicted_taken) {
  if (!isa::is_branch(instr.op)) return false;
  // The and-link variants write $ra unconditionally — the array's branch
  // slots only evaluate a condition, so those stay on the processor.
  if (instr.op == Op::kBltzal || instr.op == Op::kBgezal) return false;
  PlaceOpts opts;
  opts.is_branch = true;
  opts.predicted_taken = predicted_taken;
  if (!place(instr, pc, opts)) return false;
  ++s_.bb;  // subsequent ops belong to the next (speculative) basic block
  return true;
}

bool ConfigBuilder::try_merge_hammock(const Instr& branch, uint32_t branch_pc,
                                      const std::vector<HammockOp>& not_taken_arm,
                                      const HammockOp* join_jump,
                                      const std::vector<HammockOp>& taken_arm) {
  const int slot = s_.pred_slots;
  if (slot >= rra::kMaxPredSlots) return false;

  PlaceOpts def;
  def.is_branch = true;
  def.is_pred_def = true;
  def.pred_slot = slot;
  if (!place(branch, branch_pc, def)) return false;
  const int pred_row = s_.ops.back().row;

  PlaceOpts arm;
  arm.pred_slot = slot;
  arm.min_row_floor = pred_row + 1;
  arm.pred_when_taken = false;  // fall-through arm runs when NOT taken
  for (const HammockOp& h : not_taken_arm) {
    if (!arm_op_allowed(h.instr, *params_)) return false;
    if (!place(h.instr, h.pc, arm)) return false;
  }
  if (join_jump != nullptr) {
    PlaceOpts jj = arm;
    jj.is_join_jump = true;
    if (!place(join_jump->instr, join_jump->pc, jj)) return false;
  }
  arm.pred_when_taken = true;
  for (const HammockOp& h : taken_arm) {
    if (!arm_op_allowed(h.instr, *params_)) return false;
    if (!place(h.instr, h.pc, arm)) return false;
  }
  ++s_.pred_slots;
  return true;
}

bool ConfigBuilder::replay(const rra::Configuration& config) {
  // Pred-def rows seen so far, to restore the min-row floor of arm ops.
  std::array<int, rra::kMaxPredSlots> pred_row;
  pred_row.fill(-1);
  for (const rra::ArrayOp& op : config.ops) {
    PlaceOpts opts;
    opts.is_branch = op.is_branch;
    opts.predicted_taken = op.predicted_taken;
    opts.pred_slot = op.pred_slot;
    opts.pred_when_taken = op.pred_when_taken;
    opts.is_pred_def = op.is_pred_def;
    opts.is_join_jump = op.is_join_jump;
    if (op.pred_slot >= 0 && !op.is_pred_def) {
      opts.min_row_floor = pred_row[static_cast<size_t>(op.pred_slot)] + 1;
    }
    if (!place(op.instr, op.pc, opts)) return false;
    if (op.is_pred_def) pred_row[static_cast<size_t>(op.pred_slot)] = s_.ops.back().row;
    if (op.is_branch && !op.is_pred_def) ++s_.bb;
  }
  s_.pred_slots = config.pred_slots;
  return true;
}

rra::Configuration ConfigBuilder::finalize(uint32_t end_pc) const {
  rra::Configuration config;
  config.start_pc = s_.start_pc;
  config.end_pc = end_pc;
  config.ops = s_.ops;
  config.num_bbs = s_.bb + 1;
  config.input_regs = std::popcount(s_.input_ctx_bits);
  config.output_regs = std::popcount(s_.written_bits);
  config.immediates = s_.immediates;
  config.pred_slots = s_.pred_slots;

  int rows_used = 0;
  for (const rra::ArrayOp& op : s_.ops) rows_used = std::max(rows_used, op.row + 1);
  config.rows_used = rows_used;
  config.row_kinds.assign(static_cast<size_t>(rows_used), rra::RowKind::kAlu);
  for (const rra::ArrayOp& op : s_.ops) {
    rra::RowKind& kind = config.row_kinds[static_cast<size_t>(op.row)];
    if (op.kind == FuKind::kLdSt) {
      kind = rra::RowKind::kMem;
    } else if (op.kind == FuKind::kMul && kind == rra::RowKind::kAlu) {
      kind = rra::RowKind::kMul;
    }
  }
  return config;
}

// --- Translator --------------------------------------------------------------

Translator::Translator(const TranslatorParams& params, ReconfigCache* cache,
                       BimodalPredictor* predictor)
    : params_(params), cache_(cache), predictor_(predictor) {}

void Translator::emit(obs::EventKind kind, uint32_t config_pc, int32_t ops,
                      int32_t depth, uint32_t branch_pc) {
  if (events_ == nullptr) return;
  obs::Event e;
  e.kind = kind;
  e.config_pc = config_pc;
  e.ops = ops;
  e.depth = depth;
  e.branch_pc = branch_pc;
  events_->emit(e);
}

void Translator::finalize_capture(uint32_t end_pc) {
  if (!builder_) return;
  if (builder_->size() >= params_.min_instructions) {
    emit(obs::EventKind::kConfigFinalized, builder_->start_pc(),
         builder_->size(), builder_->num_bbs());
    if (s_.extending) {
      ++s_.stats.extensions_completed;
      emit(obs::EventKind::kExtensionCompleted, builder_->start_pc(),
           builder_->size(), builder_->num_bbs());
    }
    rra::Configuration config = builder_->finalize(end_pc);
    if (params_.exec_mode.mode == rra::ExecMode::kElastic) {
      // Config-build-time deadlock-freedom check: the execution model
      // trusts the memo and never re-analyzes a cached configuration.
      config.elastic_memo =
          rra::elastic_admissible(config, params_.exec_mode.fifo_capacity) ? 1 : 0;
      if (config.elastic_memo == 0) {
        emit(obs::EventKind::kElasticRejected, config.start_pc,
             config.instruction_count());
      }
    }
    cache_->insert(std::move(config));
    ++s_.stats.configs_inserted;
  } else {
    ++s_.stats.too_short;
    emit(obs::EventKind::kCaptureTooShort, builder_->start_pc(), builder_->size());
  }
  builder_.reset();
  s_.extending = false;
  s_.skipping = false;
}

void Translator::abort_capture() {
  if (builder_) {
    ++s_.stats.captures_aborted;
    emit(obs::EventKind::kCaptureAborted, builder_->start_pc(), builder_->size());
  }
  builder_.reset();
  s_.extending = false;
  s_.skipping = false;
}

void Translator::on_array_executed() {
  abort_capture();
  // The configuration's resume point behaves like a sequence boundary: the
  // next branch retirement will re-arm detection (handled by observe()).
  s_.start_pending = false;
}

bool Translator::begin_extension(const rra::Configuration& config,
                                 const Instr& branch, uint32_t branch_pc,
                                 bool predicted_taken) {
  abort_capture();
  ConfigBuilder builder(config.start_pc, params_);
  if (!builder.replay(config) ||
      !builder.try_add_branch(branch, branch_pc, predicted_taken)) {
    return false;
  }
  builder_ = std::move(builder);
  s_.extending = true;
  ++s_.stats.captures_started;
  emit(obs::EventKind::kExtensionBegun, config.start_pc,
       config.instruction_count(), config.num_bbs);
  return true;
}

void Translator::restore_state(const TranslatorState& state,
                               std::optional<BuilderState> capture) {
  s_ = state;
  if (capture) {
    builder_.emplace(std::move(*capture), params_);
  } else {
    builder_.reset();
  }
}

bool Translator::try_hammock_merge(const Instr& branch, uint32_t branch_pc) {
  if (!params_.predication || !code_reader_ || !builder_) return false;
  if (branch.op == Op::kBltzal || branch.op == Op::kBgezal) return false;
  const uint32_t target = sim::branch_target(branch, branch_pc);
  if (target <= branch_pc + 4) return false;  // backward or degenerate

  const int fall_len = static_cast<int>((target - branch_pc) / 4) - 1;
  if (fall_len == 0) return false;  // branch-to-next: nothing to convert
  if (fall_len > kMaxHammockOps + 1) {
    // Even a diamond (whose fall-through region carries one join jump on
    // top of the arm) cannot fit — the cap fallback the tests exercise.
    ++s_.stats.hammock_rejects;
    return false;
  }

  // Read the fall-through region [branch_pc+4, target).
  std::vector<HammockOp> fall;
  fall.reserve(static_cast<size_t>(fall_len));
  for (int k = 0; k < fall_len; ++k) {
    const uint32_t pc = branch_pc + 4 + static_cast<uint32_t>(k) * 4;
    std::optional<Instr> instr = code_reader_(pc);
    if (!instr) return false;
    fall.push_back(HammockOp{*instr, pc});
  }

  std::vector<HammockOp> not_taken = fall;
  std::optional<HammockOp> join_jump;
  std::vector<HammockOp> taken;
  uint32_t join_pc = target;

  const bool straight = std::all_of(fall.begin(), fall.end(), [&](const HammockOp& h) {
    return arm_op_allowed(h.instr, params_);
  });
  if (!straight) {
    // Diamond: every fall-through op but the last is straight-line, and the
    // last is `b join` (beq $0,$0) hopping over the taken arm.
    const HammockOp& last = fall.back();
    const bool body_ok =
        std::all_of(fall.begin(), fall.end() - 1, [&](const HammockOp& h) {
          return arm_op_allowed(h.instr, params_);
        });
    if (!body_ok || !is_join_jump_instr(last.instr)) {
      ++s_.stats.hammock_rejects;
      return false;
    }
    join_pc = sim::branch_target(last.instr, last.pc);
    if (join_pc <= target) {
      ++s_.stats.hammock_rejects;
      return false;
    }
    const int taken_len = static_cast<int>((join_pc - target) / 4);
    if (fall_len - 1 + taken_len > kMaxHammockOps) {
      ++s_.stats.hammock_rejects;
      return false;
    }
    taken.reserve(static_cast<size_t>(taken_len));
    for (int k = 0; k < taken_len; ++k) {
      const uint32_t pc = target + static_cast<uint32_t>(k) * 4;
      std::optional<Instr> instr = code_reader_(pc);
      if (!instr || !arm_op_allowed(*instr, params_)) {
        ++s_.stats.hammock_rejects;
        return false;
      }
      taken.push_back(HammockOp{*instr, pc});
    }
    not_taken.pop_back();
    join_jump = last;
  } else if (fall_len > kMaxHammockOps) {
    ++s_.stats.hammock_rejects;
    return false;
  }

  // Merge into a copy: a failed attempt must leave the capture exactly as
  // the speculation/finalize path expects it.
  ConfigBuilder trial = *builder_;
  if (!trial.try_merge_hammock(branch, branch_pc, not_taken,
                               join_jump ? &*join_jump : nullptr, taken)) {
    ++s_.stats.hammock_rejects;
    return false;
  }
  builder_ = std::move(trial);
  s_.skipping = true;
  s_.skip_lo = branch_pc + 4;
  s_.skip_until = join_pc;
  ++s_.stats.hammocks_merged;
  emit(obs::EventKind::kHammockMerged, builder_->start_pc(),
       static_cast<int32_t>(not_taken.size() + taken.size()),
       builder_->pred_slots(), branch_pc);
  return true;
}

void Translator::observe(const sim::StepInfo& info) {
  ++s_.stats.observed_instructions;
  const Instr& i = info.instr;
  const bool is_cond_branch = isa::is_branch(i.op);
  const bool is_flow = is_cond_branch || isa::is_jump(i.op);

  if (builder_ && s_.skipping) {
    if (info.pc == s_.skip_until) {
      // The hammock's join point: both arms are already placed, resume the
      // normal capture with this instruction.
      s_.skipping = false;
    } else if (info.pc >= s_.skip_lo && info.pc < s_.skip_until) {
      // Inside the merged hammock: whichever arm retires on the processor
      // is already in the configuration. Only the predictor observes it
      // (the join jump included — exactly what the software path trains).
      if (is_cond_branch) predictor_->update(info.pc, info.taken);
      return;
    } else {
      // Control left the hammock region some other way; drop the capture
      // and let the normal detection logic classify this instruction.
      abort_capture();
    }
  }

  if (builder_) {
    if (is_cond_branch) {
      // The current basic block ends here. Merge it and keep going only if
      // speculation is enabled, depth remains, and this branch's counter is
      // saturated in the direction actually taken right now (otherwise the
      // following instructions are not the speculated path).
      bool merged = false;
      // Depth guard: max_spec_bbs counts SPECULATIVE blocks beyond the
      // entry block (the paper speculates "up to 3 basic blocks deep" on
      // top of the detected sequence). Merging is allowed while the
      // builder holds <= max_spec_bbs blocks, so a finished configuration
      // spans at most max_spec_bbs + 1 blocks total — pinned by
      // Translator.SpeculationDepthCountsBlocksBeyondTheFirst.
      if (params_.speculation && builder_->num_bbs() <= params_.max_spec_bbs) {
        const auto dir = predictor_->saturated_direction(info.pc);
        if (dir.has_value() && *dir == info.taken) {
          merged = builder_->try_add_branch(i, info.pc, *dir);
        }
      }
      // If-conversion is tried only after the speculation path declined, so
      // enabling predication never changes what speculation alone would do.
      if (!merged) merged = try_hammock_merge(i, info.pc);
      if (!merged) {
        finalize_capture(info.pc);
        s_.start_pending = true;  // next instruction follows a branch
      }
    } else if (!translatable(i.op)) {
      finalize_capture(info.pc);
      s_.start_pending = is_flow;  // jumps also delimit basic blocks
    } else if (!builder_->try_add(i, info.pc)) {
      // Array capacity exhausted: save what fits (this instruction resumes
      // on the processor).
      finalize_capture(info.pc);
      s_.start_pending = false;
    }
  } else {
    if (s_.start_pending && !is_flow && translatable(i.op) &&
        cache_->probe(info.pc) == nullptr &&
        (params_.allowed_starts.empty() || params_.allowed_starts.count(info.pc) != 0)) {
      // A genuine sequence start with no stored configuration: the one
      // event that counts as a reconfiguration-cache miss.
      cache_->note_miss();
      builder_.emplace(info.pc, params_);
      ++s_.stats.captures_started;
      emit(obs::EventKind::kCaptureStarted, info.pc);
      s_.start_pending = false;
      if (!builder_->try_add(i, info.pc)) abort_capture();
    } else if (is_flow) {
      s_.start_pending = true;
    } else if (s_.start_pending && cache_->contains(info.pc)) {
      // Already translated; wait for the next boundary.
      s_.start_pending = false;
    }
  }

  if (is_cond_branch) predictor_->update(info.pc, info.taken);
}

}  // namespace dim::bt
