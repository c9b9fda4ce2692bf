#include "sim/trace_cache.hpp"

#include "isa/decoder.hpp"

namespace dim::sim {

using isa::Op;

namespace {

// Maps one decoded instruction onto its trace-op form (kind + extracted
// operands/immediates). Returns false for ops formation must stop before
// (invalid, syscall, break): the slow path owns those retirements.
bool classify_op(const isa::Instr& i, uint32_t pc, TraceOp* op) {
  TKind k;
  uint8_t a = 0;
  uint8_t b = 0;
  int32_t imm = 0;
  switch (i.op) {
    case Op::kSll: k = TKind::kTSllK; b = i.rt; imm = i.shamt; break;
    case Op::kSrl: k = TKind::kTSrlK; b = i.rt; imm = i.shamt; break;
    case Op::kSra: k = TKind::kTSraK; b = i.rt; imm = i.shamt; break;
    case Op::kSllv: k = TKind::kTSllv; a = i.rs; b = i.rt; break;
    case Op::kSrlv: k = TKind::kTSrlv; a = i.rs; b = i.rt; break;
    case Op::kSrav: k = TKind::kTSrav; a = i.rs; b = i.rt; break;
    // add/sub are executed without the overflow trap, exactly like step().
    case Op::kAdd: case Op::kAddu: k = TKind::kTAddu; a = i.rs; b = i.rt; break;
    case Op::kSub: case Op::kSubu: k = TKind::kTSubu; a = i.rs; b = i.rt; break;
    case Op::kAnd: k = TKind::kTAnd; a = i.rs; b = i.rt; break;
    case Op::kOr: k = TKind::kTOr; a = i.rs; b = i.rt; break;
    case Op::kXor: k = TKind::kTXor; a = i.rs; b = i.rt; break;
    case Op::kNor: k = TKind::kTNor; a = i.rs; b = i.rt; break;
    case Op::kSlt: k = TKind::kTSlt; a = i.rs; b = i.rt; break;
    case Op::kSltu: k = TKind::kTSltu; a = i.rs; b = i.rt; break;
    case Op::kMult: k = TKind::kTMult; a = i.rs; b = i.rt; break;
    case Op::kMultu: k = TKind::kTMultu; a = i.rs; b = i.rt; break;
    case Op::kDiv: k = TKind::kTDiv; a = i.rs; b = i.rt; break;
    case Op::kDivu: k = TKind::kTDivu; a = i.rs; b = i.rt; break;
    case Op::kMfhi: k = TKind::kTMfhi; break;
    case Op::kMflo: k = TKind::kTMflo; break;
    case Op::kMthi: k = TKind::kTMthi; a = i.rs; break;
    case Op::kMtlo: k = TKind::kTMtlo; a = i.rs; break;
    case Op::kJr: k = TKind::kTJr; a = i.rs; break;
    case Op::kJalr: k = TKind::kTJalr; a = i.rs; break;
    case Op::kJ:
      k = TKind::kTJ;
      imm = static_cast<int32_t>(((pc + 4) & 0xF0000000u) | (i.target26 << 2));
      break;
    case Op::kJal:
      k = TKind::kTJal;
      imm = static_cast<int32_t>(((pc + 4) & 0xF0000000u) | (i.target26 << 2));
      break;
    case Op::kAddi: case Op::kAddiu: k = TKind::kTAddiu; a = i.rs; imm = i.simm(); break;
    case Op::kSlti: k = TKind::kTSlti; a = i.rs; imm = i.simm(); break;
    case Op::kSltiu: k = TKind::kTSltiu; a = i.rs; imm = i.simm(); break;
    case Op::kAndi: k = TKind::kTAndi; a = i.rs; imm = static_cast<int32_t>(i.uimm()); break;
    case Op::kOri: k = TKind::kTOri; a = i.rs; imm = static_cast<int32_t>(i.uimm()); break;
    case Op::kXori: k = TKind::kTXori; a = i.rs; imm = static_cast<int32_t>(i.uimm()); break;
    case Op::kLui: k = TKind::kTLui; imm = static_cast<int32_t>(i.uimm() << 16); break;
    case Op::kBeq: k = TKind::kTBeq; break;
    case Op::kBne: k = TKind::kTBne; break;
    case Op::kBlez: k = TKind::kTBlez; break;
    case Op::kBgtz: k = TKind::kTBgtz; break;
    case Op::kBltz: k = TKind::kTBltz; break;
    case Op::kBgez: k = TKind::kTBgez; break;
    case Op::kBltzal: k = TKind::kTBltzal; break;
    case Op::kBgezal: k = TKind::kTBgezal; break;
    case Op::kLb: k = TKind::kTLb; a = i.rs; imm = i.simm(); break;
    case Op::kLbu: k = TKind::kTLbu; a = i.rs; imm = i.simm(); break;
    case Op::kLh: k = TKind::kTLh; a = i.rs; imm = i.simm(); break;
    case Op::kLhu: k = TKind::kTLhu; a = i.rs; imm = i.simm(); break;
    case Op::kLw: k = TKind::kTLw; a = i.rs; imm = i.simm(); break;
    case Op::kSb: k = TKind::kTSb; a = i.rs; b = i.rt; imm = i.simm(); break;
    case Op::kSh: k = TKind::kTSh; a = i.rs; b = i.rt; imm = i.simm(); break;
    case Op::kSw: k = TKind::kTSw; a = i.rs; b = i.rt; imm = i.simm(); break;
    case Op::kInvalid: case Op::kSyscall: case Op::kBreak:
    default:
      return false;
  }
  if (tkind_is_control(k) && !tkind_is_terminal(k)) {
    a = i.rs;
    b = i.rt;
    imm = static_cast<int32_t>(branch_target(i, pc));
  }
  const int dr = isa::dest_reg(i);
  op->kind = k;
  op->a = a;
  op->b = b;
  op->d = dr > 0 ? static_cast<uint8_t>(dr) : 0;  // $0 writes become no-ops
  op->imm = imm;
  op->pc = pc;
  op->instr = i;
  op->rec = RetireRecord::classify(i);
  op->rec.pc = pc;
  return true;
}

// Baseline env: folded timing, so retirement only counts memory accesses.
struct FoldedEnv {
  static constexpr bool kDispatchProbe = false;
  uint64_t mem = 0;
  bool pre_dispatch(uint32_t) { return false; }
  void retired(const TraceOp&, uint32_t, bool, bool mem_access, uint32_t) {
    mem += mem_access ? 1 : 0;
  }
};

// Baseline env with exact per-op timing (dual issue or cache models):
// charges the shared retire(RetireRecord) per op.
struct TimedEnv {
  static constexpr bool kDispatchProbe = false;
  PipelineModel* pipe;
  uint64_t mem = 0;
  bool pre_dispatch(uint32_t) { return false; }
  void retired(const TraceOp& op, uint32_t, bool taken, bool mem_access,
               uint32_t mem_addr) {
    RetireRecord r = op.rec;
    r.mem_access = mem_access;
    r.mem_addr = mem_addr;
    r.taken = taken;
    pipe->retire(r);
    mem += mem_access ? 1 : 0;
  }
};

// Commits the cycles of one folded execution of `t` that retired `res`:
// k issue cycles, the precomputed internal load-use stalls, the entry
// correction against the pipeline's live pending load, the HI/LO waits,
// and the taken-branch penalty when the trace left through a taken branch
// or a jump. Leaves every hazard latch as per-op retires would. The folded
// env never touches the pipeline, so after the run its latches still hold
// the entry values.
void commit_folded(const Trace& t, const TraceExecResult& res, PipelineModel& pipeline) {
  const uint64_t k = res.executed;
  const uint64_t stall = pipeline.load_use_stall_cycles();
  const int entry_pending = pipeline.pending_load_reg();
  uint64_t entry_stall = 0;
  if (entry_pending > 0) {
    const RetireRecord& r0 = t.ops[0].rec;
    if ((r0.nsrc > 0 && r0.src0 == entry_pending) ||
        (r0.nsrc > 1 && r0.src1 == entry_pending)) {
      entry_stall = stall;
    }
  }
  // Replay the HI/LO interlock for the HI/LO ops that ran, each on the
  // clock retire() would have reached: entry clock, static offset, and
  // the waits before it. hilo_ready may still be pending from an earlier
  // trace.
  const uint64_t entry_clock = pipeline.cycles() + entry_stall;
  uint64_t hilo_ready = pipeline.hilo_ready();
  uint64_t waits = 0;
  for (const uint8_t i : t.hilo_ops) {
    if (i >= k) break;
    const uint64_t issued = entry_clock + i + 1 + t.stall_prefix[i + 1] * stall + waits;
    uint64_t clock = issued;
    pipeline.hilo_interlock(t.ops[i].rec, clock, hilo_ready);
    waits += clock - issued;
  }
  uint64_t cycles = k + t.stall_prefix[k] * stall + entry_stall + waits;
  if (res.taken_exit) cycles += pipeline.taken_branch_penalty();
  const TraceOp& last = t.ops[k - 1];
  pipeline.fold_commit(cycles, last.pending_after, last.rec.dest, last.rec.is_mem_op,
                       last.rec.is_hilo_write, hilo_ready);
}

// The trace's words still match memory (the stamp-mismatch path).
bool validate(const Trace& t, const mem::Memory& memory) {
  for (size_t k = 0; k < t.words.size(); ++k) {
    if (t.words[k] != memory.read32(t.start_pc + static_cast<uint32_t>(4 * k))) return false;
  }
  return true;
}

}  // namespace

bool TraceCache::build_trace(Trace& t, uint32_t pc, mem::Memory& memory) {
  t.ops.clear();
  t.words.clear();
  t.stall_prefix.clear();
  t.hilo_ops.clear();
  t.start_pc = pc;
  t.end64 = 0;

  uint64_t p = pc;
  while (t.ops.size() < kMaxOps && p <= 0xFFFFFFFCull) {
    const uint32_t word = memory.read32(static_cast<uint32_t>(p));
    TraceOp op;
    if (!classify_op(isa::decode(word), static_cast<uint32_t>(p), &op)) break;
    // A straight-line op at 0xFFFFFFFC falls through to PC 0 (wraparound);
    // that breaks the pc+4 contract, so the slow path handles it. A branch
    // or jump there is fine: its next PC, taken or not, is computed in
    // uint32, wrapping exactly like step(), and it is the trace's last op.
    if (!tkind_is_control(op.kind) && p == 0xFFFFFFFCull) break;
    t.ops.push_back(op);
    t.words.push_back(word);
    p += 4;
    if (tkind_is_terminal(op.kind)) break;
  }
  if (t.ops.empty()) return false;

  t.end64 = t.start_pc + 4ull * t.words.size();
  memory.watch_code(t.start_pc, t.end64);
  t.stamp = memory.code_writes();
  t.stall_prefix.assign(t.ops.size() + 1, 0);
  int pending = -1;  // entry assumption; op 0's correction is dynamic
  for (size_t k = 0; k < t.ops.size(); ++k) {
    const RetireRecord& r = t.ops[k].rec;
    const bool stall =
        pending > 0 && ((r.nsrc > 0 && r.src0 == pending) ||
                        (r.nsrc > 1 && r.src1 == pending));
    t.stall_prefix[k + 1] =
        static_cast<uint8_t>(t.stall_prefix[k] + (stall ? 1 : 0));
    pending = r.is_load ? r.dest : -1;
    t.ops[k].pending_after = static_cast<int8_t>(pending);
    if (r.is_hilo_write || r.is_hilo_touch) t.hilo_ops.push_back(static_cast<uint8_t>(k));
  }
  return true;
}

Trace* TraceCache::hot_trace_slow(uint32_t pc, mem::Memory& memory) {
  Head& h = heads_[slot_index(pc)];
  if (h.head == pc) {
    if (h.rejected) return nullptr;
    Trace& t = pool_[h.trace];
    ++stats_.word_checks;
    if (validate(t, memory)) {
      t.stamp = memory.code_writes();
      return &t;
    }
    // Stale words (self-modifying code or image change without clear()):
    // rebuild from what memory holds now.
    ++stats_.revalidation_rebuilds;
    if (build_trace(t, pc, memory)) return &t;
    h.rejected = true;
    ++stats_.rejected_heads;
    return nullptr;
  }
  // Rival head warming up in this slot; it takes over at kHeat visits and
  // reuses the slot's pool entry, if it has one.
  if (h.cand_pc == pc) {
    if (++h.cand_heat < kHeat) return nullptr;
    if (h.trace == kNoTrace) {
      h.trace = static_cast<uint16_t>(pool_.size());
      pool_.emplace_back();
    }
    h.cand_pc = 1;
    h.cand_heat = 0;
    h.head = pc;
    Trace& t = pool_[h.trace];
    if (build_trace(t, pc, memory)) {
      h.rejected = false;
      ++stats_.traces_built;
      return &t;
    }
    h.rejected = true;
    ++stats_.rejected_heads;
    return nullptr;
  }
  h.cand_pc = pc;
  h.cand_heat = 1;
  return nullptr;
}

uint64_t TraceCache::step_baseline(CpuState& state, mem::Memory& memory,
                                   PipelineModel& pipeline, uint64_t budget,
                                   uint64_t* mem_accesses) {
  uint64_t done = 0;
  if (pipeline.fold_eligible()) {
    FoldedEnv env;
    while (done < budget) {
      Trace* t = hot_trace(state.pc, memory);
      if (t == nullptr) break;
      const TraceExecResult res = execute(*t, state, memory, budget - done, env);
      commit_folded(*t, res, pipeline);
      ++stats_.folded_executions;
      done += res.executed;
    }
    *mem_accesses += env.mem;
    return done;
  }
  TimedEnv env{&pipeline};
  while (done < budget) {
    Trace* t = hot_trace(state.pc, memory);
    if (t == nullptr) break;
    done += execute(*t, state, memory, budget - done, env).executed;
  }
  *mem_accesses += env.mem;
  return done;
}

}  // namespace dim::sim
