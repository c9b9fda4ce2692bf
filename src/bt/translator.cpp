#include "bt/translator.hpp"

#include <algorithm>
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
    : params_(params), start_pc_(start_pc) {
  last_writer_row_.fill(-1);
}

ConfigBuilder::ConfigBuilder(const BuilderState& state, const TranslatorParams& params)
    : params_(params), start_pc_(state.start_pc) {
  ops_ = state.ops;
  rows_.reserve(state.rows.size());
  for (const std::array<int, 3>& r : state.rows) {
    rows_.push_back(RowUse{r[0], r[1], r[2]});
  }
  last_writer_row_ = state.last_writer_row;
  input_ctx_ = std::bitset<rra::kNumCtxRegs>(state.input_ctx_bits);
  written_ = std::bitset<rra::kNumCtxRegs>(state.written_bits);
  last_mem_row_ = state.last_mem_row;
  last_store_row_ = state.last_store_row;
  bb_ = state.bb;
  immediates_ = state.immediates;
  pred_slots_ = state.pred_slots;
}

BuilderState ConfigBuilder::export_state() const {
  BuilderState s;
  s.start_pc = start_pc_;
  s.ops = ops_;
  s.rows.reserve(rows_.size());
  for (const RowUse& r : rows_) s.rows.push_back({r.alu, r.mul, r.ldst});
  s.last_writer_row = last_writer_row_;
  s.input_ctx_bits = input_ctx_.to_ullong();
  s.written_bits = written_.to_ullong();
  s.last_mem_row = last_mem_row_;
  s.last_store_row = last_store_row_;
  s.bb = bb_;
  s.immediates = immediates_;
  s.pred_slots = pred_slots_;
  return s;
}

bool ConfigBuilder::place(const Instr& instr, uint32_t pc, const PlaceOpts& opts) {
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
  std::bitset<rra::kNumCtxRegs> new_inputs;
  for (int k = 0; k < nsrc; ++k) {
    const int s = srcs[k];
    if (s == 0) continue;  // $zero
    const int producer = last_writer_row_[static_cast<size_t>(s)];
    if (producer >= 0) {
      min_row = std::max(min_row, producer + 1);
    } else if (!input_ctx_.test(static_cast<size_t>(s))) {
      new_inputs.set(static_cast<size_t>(s));
    }
  }

  // Memory ordering: no disambiguation hardware — loads may not pass
  // stores, stores may not pass any memory operation.
  if (isa::is_load(instr.op)) {
    min_row = std::max(min_row, last_store_row_ + 1);
  } else if (isa::is_store(instr.op)) {
    min_row = std::max(min_row, last_mem_row_ + 1);
  }

  // Capacity checks that must not mutate state on failure.
  if ((input_ctx_ | new_inputs).count() >
      static_cast<size_t>(params_.max_input_regs)) {
    return false;
  }
  int dests[2];
  const int ndst = rra::array_dests(instr, dests);
  std::bitset<rra::kNumCtxRegs> new_written = written_;
  for (int k = 0; k < ndst; ++k) new_written.set(static_cast<size_t>(dests[k]));
  if (new_written.count() > static_cast<size_t>(params_.max_output_regs)) return false;

  // Resource table: first line >= min_row with a free unit of this group.
  const int per_line = kind == FuKind::kAlu    ? params_.shape.alus_per_line
                       : kind == FuKind::kMul  ? params_.shape.muls_per_line
                                               : params_.shape.ldsts_per_line;
  if (per_line <= 0) return false;
  int row = -1;
  int col = -1;
  for (int r = min_row; r < params_.shape.lines; ++r) {
    if (r >= static_cast<int>(rows_.size())) {
      rows_.resize(static_cast<size_t>(r) + 1);
    }
    RowUse& use = rows_[static_cast<size_t>(r)];
    int& used = kind == FuKind::kAlu ? use.alu : kind == FuKind::kMul ? use.mul : use.ldst;
    if (used < per_line) {
      row = r;
      col = used;
      ++used;
      break;
    }
  }
  if (row < 0) return false;

  // Commit all table updates.
  input_ctx_ |= new_inputs;
  written_ = new_written;
  const bool predicated_write = opts.pred_slot >= 0 && !opts.is_pred_def;
  for (int k = 0; k < ndst; ++k) {
    int& writer = last_writer_row_[static_cast<size_t>(dests[k])];
    // A predicated write may be squashed at runtime, so a later reader must
    // sit below BOTH the other arm's writer and this one: keep the deepest
    // writer row instead of overwriting it.
    writer = predicated_write ? std::max(writer, row) : row;
  }
  if (isa::is_load(instr.op)) {
    last_mem_row_ = std::max(last_mem_row_, row);
  } else if (isa::is_store(instr.op)) {
    last_mem_row_ = std::max(last_mem_row_, row);
    last_store_row_ = std::max(last_store_row_, row);
  }
  if (uses_immediate(instr)) ++immediates_;

  rra::ArrayOp op;
  op.instr = instr;
  // Planted-bug hook for the differential fuzzer: corrupt the stored
  // semantics (never the dependence/resource bookkeeping above, which used
  // the pristine instruction) so the bug surfaces only as divergent
  // architectural state when the configuration executes.
  if (params_.fault == FaultInjection::kAddiuImmOffByOne && instr.op == Op::kAddiu) {
    op.instr.imm16 ^= 1;
  } else if (params_.fault == FaultInjection::kSubuSwapOperands &&
             instr.op == Op::kSubu) {
    std::swap(op.instr.rs, op.instr.rt);
  }
  op.pc = pc;
  op.row = row;
  op.col = col;
  op.kind = kind;
  op.bb_index = bb_;
  op.is_branch = opts.is_branch;
  op.predicted_taken = opts.predicted_taken;
  op.pred_slot = opts.pred_slot;
  op.pred_when_taken = opts.pred_when_taken;
  op.is_pred_def = opts.is_pred_def;
  op.is_join_jump = opts.is_join_jump;
  ops_.push_back(op);
  return true;
}

bool ConfigBuilder::try_add(const Instr& instr, uint32_t pc) {
  return op_allowed(instr, params_) && place(instr, pc, PlaceOpts{});
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
  ++bb_;  // subsequent ops belong to the next (speculative) basic block
  return true;
}

bool ConfigBuilder::try_merge_hammock(const Instr& branch, uint32_t branch_pc,
                                      const std::vector<HammockOp>& not_taken_arm,
                                      const HammockOp* join_jump,
                                      const std::vector<HammockOp>& taken_arm) {
  const int slot = pred_slots_;
  if (slot >= rra::kMaxPredSlots) return false;

  PlaceOpts def;
  def.is_branch = true;
  def.is_pred_def = true;
  def.pred_slot = slot;
  if (!place(branch, branch_pc, def)) return false;
  const int pred_row = ops_.back().row;

  PlaceOpts arm;
  arm.pred_slot = slot;
  arm.min_row_floor = pred_row + 1;
  arm.pred_when_taken = false;  // fall-through arm runs when NOT taken
  for (const HammockOp& h : not_taken_arm) {
    if (!arm_op_allowed(h.instr, params_)) return false;
    if (!place(h.instr, h.pc, arm)) return false;
  }
  if (join_jump != nullptr) {
    PlaceOpts jj = arm;
    jj.is_join_jump = true;
    if (!place(join_jump->instr, join_jump->pc, jj)) return false;
  }
  arm.pred_when_taken = true;
  for (const HammockOp& h : taken_arm) {
    if (!arm_op_allowed(h.instr, params_)) return false;
    if (!place(h.instr, h.pc, arm)) return false;
  }
  ++pred_slots_;
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
    if (op.is_pred_def) pred_row[static_cast<size_t>(op.pred_slot)] = ops_.back().row;
    if (op.is_branch && !op.is_pred_def) ++bb_;
  }
  pred_slots_ = config.pred_slots;
  return true;
}

rra::Configuration ConfigBuilder::finalize(uint32_t end_pc) const {
  rra::Configuration config;
  config.start_pc = start_pc_;
  config.end_pc = end_pc;
  config.ops = ops_;
  config.num_bbs = bb_ + 1;
  config.input_regs = static_cast<int>(input_ctx_.count());
  config.output_regs = static_cast<int>(written_.count());
  config.immediates = immediates_;
  config.pred_slots = pred_slots_;

  int rows_used = 0;
  for (const rra::ArrayOp& op : ops_) rows_used = std::max(rows_used, op.row + 1);
  config.rows_used = rows_used;
  config.row_kinds.assign(static_cast<size_t>(rows_used), rra::RowKind::kAlu);
  for (const rra::ArrayOp& op : ops_) {
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
    if (extending_) {
      ++stats_.extensions_completed;
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
    ++stats_.configs_inserted;
  } else {
    ++stats_.too_short;
    emit(obs::EventKind::kCaptureTooShort, builder_->start_pc(), builder_->size());
  }
  builder_.reset();
  extending_ = false;
  skipping_ = false;
}

void Translator::abort_capture() {
  if (builder_) {
    ++stats_.captures_aborted;
    emit(obs::EventKind::kCaptureAborted, builder_->start_pc(), builder_->size());
  }
  builder_.reset();
  extending_ = false;
  skipping_ = false;
}

void Translator::on_array_executed() {
  abort_capture();
  // The configuration's resume point behaves like a sequence boundary: the
  // next branch retirement will re-arm detection (handled by observe()).
  start_pending_ = false;
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
  extending_ = true;
  ++stats_.captures_started;
  emit(obs::EventKind::kExtensionBegun, config.start_pc,
       config.instruction_count(), config.num_bbs);
  return true;
}

TranslatorState Translator::export_state() const {
  TranslatorState s;
  s.stats = stats_;
  s.start_pending = start_pending_;
  s.extending = extending_;
  s.skipping = skipping_;
  s.skip_lo = skip_lo_;
  s.skip_until = skip_until_;
  if (builder_) s.builder = builder_->export_state();
  return s;
}

void Translator::restore_state(const TranslatorState& state) {
  stats_ = state.stats;
  start_pending_ = state.start_pending;
  extending_ = state.extending;
  skipping_ = state.skipping;
  skip_lo_ = state.skip_lo;
  skip_until_ = state.skip_until;
  if (state.builder) {
    builder_.emplace(*state.builder, params_);
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
    ++stats_.hammock_rejects;
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
      ++stats_.hammock_rejects;
      return false;
    }
    join_pc = sim::branch_target(last.instr, last.pc);
    if (join_pc <= target) {
      ++stats_.hammock_rejects;
      return false;
    }
    const int taken_len = static_cast<int>((join_pc - target) / 4);
    if (fall_len - 1 + taken_len > kMaxHammockOps) {
      ++stats_.hammock_rejects;
      return false;
    }
    taken.reserve(static_cast<size_t>(taken_len));
    for (int k = 0; k < taken_len; ++k) {
      const uint32_t pc = target + static_cast<uint32_t>(k) * 4;
      std::optional<Instr> instr = code_reader_(pc);
      if (!instr || !arm_op_allowed(*instr, params_)) {
        ++stats_.hammock_rejects;
        return false;
      }
      taken.push_back(HammockOp{*instr, pc});
    }
    not_taken.pop_back();
    join_jump = last;
  } else if (fall_len > kMaxHammockOps) {
    ++stats_.hammock_rejects;
    return false;
  }

  // Merge into a copy: a failed attempt must leave the capture exactly as
  // the speculation/finalize path expects it.
  ConfigBuilder trial = *builder_;
  if (!trial.try_merge_hammock(branch, branch_pc, not_taken,
                               join_jump ? &*join_jump : nullptr, taken)) {
    ++stats_.hammock_rejects;
    return false;
  }
  builder_ = std::move(trial);
  skipping_ = true;
  skip_lo_ = branch_pc + 4;
  skip_until_ = join_pc;
  ++stats_.hammocks_merged;
  emit(obs::EventKind::kHammockMerged, builder_->start_pc(),
       static_cast<int32_t>(not_taken.size() + taken.size()),
       builder_->pred_slots(), branch_pc);
  return true;
}

void Translator::observe(const sim::StepInfo& info) {
  ++stats_.observed_instructions;
  const Instr& i = info.instr;
  const bool is_cond_branch = isa::is_branch(i.op);
  const bool is_flow = is_cond_branch || isa::is_jump(i.op);

  if (builder_ && skipping_) {
    if (info.pc == skip_until_) {
      // The hammock's join point: both arms are already placed, resume the
      // normal capture with this instruction.
      skipping_ = false;
    } else if (info.pc >= skip_lo_ && info.pc < skip_until_) {
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
        start_pending_ = true;  // next instruction follows a branch
      }
    } else if (!translatable(i.op)) {
      finalize_capture(info.pc);
      start_pending_ = is_flow;  // jumps also delimit basic blocks
    } else if (!builder_->try_add(i, info.pc)) {
      // Array capacity exhausted: save what fits (this instruction resumes
      // on the processor).
      finalize_capture(info.pc);
      start_pending_ = false;
    }
  } else {
    if (start_pending_ && !is_flow && translatable(i.op) &&
        cache_->probe(info.pc) == nullptr &&
        (params_.allowed_starts.empty() || params_.allowed_starts.count(info.pc) != 0)) {
      // A genuine sequence start with no stored configuration: the one
      // event that counts as a reconfiguration-cache miss.
      cache_->note_miss();
      builder_.emplace(info.pc, params_);
      ++stats_.captures_started;
      emit(obs::EventKind::kCaptureStarted, info.pc);
      start_pending_ = false;
      if (!builder_->try_add(i, info.pc)) abort_capture();
    } else if (is_flow) {
      start_pending_ = true;
    } else if (start_pending_ && cache_->contains(info.pc)) {
      // Already translated; wait for the next boundary.
      start_pending_ = false;
    }
  }

  if (is_cond_branch) predictor_->update(info.pc, info.taken);
}

}  // namespace dim::bt
