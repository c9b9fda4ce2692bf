// Superblock trace cache: the host-side fast path of the simulator.
//
// The paper's bet is that caching translated units of straight-line work
// beats re-interpreting instruction by instruction; this applies the same
// trick to the simulator itself. Runs of pre-decoded instructions between
// unconditional control transfers are recorded once and then executed as
// whole traces via computed-goto threaded dispatch, with the pipeline
// timing model folded into per-trace precomputed cycle prefixes whenever
// the timing parameters permit.
//
// Transparency contract (pinned by tests/test_trace_cache.cpp and the
// dimsim-fuzz --cmp-dispatch campaign): a run with the trace cache enabled
// is bit-identical to the per-instruction slow path — registers, memory,
// output, retired counts, cycle accounting, stats and obs event streams.
//
// Formation rules:
//   - a trace starts at a PC once it has been seen twice as a trace head
//     (direct-mapped head table, so cold straight-line code is never traced)
//   - a trace is one contiguous word range: straight-line ops (ALU, shifts,
//     immediates, HI/LO arithmetic and moves, loads/stores) and conditional
//     branches (beq/bne/blez/bgtz/bltz/bgez, bltzal/bgezal). A taken branch
//     leaves the trace at its target; a not-taken one runs on at pc+4
//     inside the trace, so one trace spans several basic blocks
//   - j/jal/jr/jalr end formation and are executed as the trace's
//     terminal op
//   - syscall/break/invalid words stop formation *before* them: the slow
//     path retires those
//   - formation stops at kMaxOps and at 0xFFFFFFFC: the fall-through of a
//     straight-line op there wraps the PC to 0, breaking the pc+4 contract
//     (the slow path handles address-space wraparound; see test_executor).
//     A control transfer there is fine: its next PC wraps in uint32
//     exactly like step()
//   - every length counts, down to a single op: the short basic blocks of
//     control-dominated code are the common case. A head is rejected (and
//     remembered) only when its first word cannot start a trace: syscall,
//     break, invalid, or a straight-line op at 0xFFFFFFFC
//
// Invalidation (write stamps):
//   - every write that could change a trace's words moves a counter:
//     mem::Memory counts the writes made through its API (the slow path,
//     the array core, loaders, tests), and the trace executor, whose
//     stores go through a raw page pointer instead, bumps the cache's code
//     epoch when a store lands in the union of all built traces' word
//     ranges. A trace records memory.writes() + epoch when it is built or
//     validated; an entry whose stamp still matches runs without looking
//     at its words
//   - on a stamp mismatch the entry revalidates the words against memory
//     by memcmp: against the code page cached at formation when the trace
//     lies in one allocated page, else one page lookup per page spanned.
//     Matching words re-stamp the trace; stale words rebuild it. The cache
//     is exact under self-modifying code just like DecodeCache
//   - a store *into the executing trace's own code range* finishes that
//     store, then bails to the slow path (the interpreter would fetch the
//     freshly written word; the trace must not keep running stale ops)
//   - clear() drops everything: Machine::reset and snapshot restore call
//     it so no host-side decoded state survives an image replacement, and
//     no cached page pointer outlives its page
//
// Folded timing: under single issue with both caches off, a trace's
// cycles are committed in one step from precomputed load-use stall
// counts; the taken-branch penalty is added only when the trace left
// through a taken branch or a jump. Every execution retires a prefix of
// the trace's ops, so the static counts hold wherever it exits. HI/LO
// interlocks are replayed at commit for the few HI/LO ops that ran, so
// traces with mult/div and mfhi/mflo fold too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/cpu_state.hpp"
#include "sim/executor.hpp"
#include "sim/pipeline.hpp"

namespace dim::sim {

// Host-level semantic kind of one trace op. Kinds below kTBeq are
// straight-line; conditional branches (kTBeq..kTBgezal, one kind per
// condition) leave the trace when taken and run on when not; kinds >= kTJ
// are terminals (always the last op of their trace).
enum class TKind : uint8_t {
  // ALU, three-register
  kTAddu, kTSubu, kTAnd, kTOr, kTXor, kTNor, kTSlt, kTSltu,
  // shifts
  kTSllK, kTSrlK, kTSraK, kTSllv, kTSrlv, kTSrav,
  // immediates
  kTAddiu, kTSlti, kTSltiu, kTAndi, kTOri, kTXori, kTLui,
  // HI/LO
  kTMult, kTMultu, kTDiv, kTDivu, kTMfhi, kTMflo, kTMthi, kTMtlo,
  // memory
  kTLb, kTLbu, kTLh, kTLhu, kTLw, kTSb, kTSh, kTSw,
  // conditional branches
  kTBeq, kTBne, kTBlez, kTBgtz, kTBltz, kTBgez, kTBltzal, kTBgezal,
  // terminals
  kTJ, kTJal, kTJr, kTJalr,
};

inline bool tkind_is_control(TKind k) { return k >= TKind::kTBeq; }
inline bool tkind_is_terminal(TKind k) { return k >= TKind::kTJ; }

// One pre-decoded trace op: operand indexes and immediates are extracted
// once at formation time, and the timing model's classification
// (RetireRecord) is precomputed so per-op timing costs one call with no
// re-classification.
struct TraceOp {
  TKind kind = TKind::kTAddu;
  uint8_t a = 0;   // rs-class operand (base register, shift amount source)
  uint8_t b = 0;   // rt-class operand (value register)
  uint8_t d = 0;   // destination register; 0 = architectural no-write
  int32_t imm = 0;  // sign-/zero-extended immediate, shamt, lui value,
                    // or precomputed branch/jump target
  uint32_t pc = 0;
  int8_t pending_after = -1;  // pipeline pending_load_reg after this op
  isa::Instr instr{};         // exact decoded form (StepInfo reconstruction)
  RetireRecord rec{};         // static timing classification (pc preset)
};

struct Trace {
  uint32_t start_pc = 1;  // word-aligned head PC, set at formation
  uint64_t end64 = 0;     // start_pc + 4 * words (64-bit: no wrap ambiguity)
  std::vector<TraceOp> ops;
  std::vector<uint32_t> words;  // fetched encodings, for revalidation
  // The page holding every word, cached at formation when the trace lies
  // in one allocated page (else null): revalidation compares against it
  // without a page lookup. Same lifetime contract as DataTlb: the page
  // lives until its Memory's image is replaced, and TraceCache's clear(),
  // copy constructor and copy assignment drop the pointer.
  const uint8_t* code_page = nullptr;
  // memory.writes() + code epoch when the words were last read or
  // compared (see "Invalidation" above); kUnstamped forces a compare.
  uint64_t stamp = kUnstamped;
  static constexpr uint64_t kUnstamped = ~0ull;
  // Folded timing (valid when PipelineModel::fold_eligible):
  // stall_prefix[k] = number of internal load-use stalls among the first k
  // ops, assuming no pending load at entry (corrected dynamically from op
  // 0's sources). Folded cycles for k ops = k + stall_prefix[k] * stall +
  // entry correction + HI/LO waits + dynamic taken penalty — counts, not
  // cycles, so the trace is independent of the TimingParams values.
  std::vector<uint8_t> stall_prefix;
  // Indexes of the ops that write or touch HI/LO, ascending. Op i's static
  // cycle offset from the entry is i + 1 issue cycles plus
  // stall_prefix[i + 1] load-use stalls; a folded commit replays
  // PipelineModel::hilo_interlock at those offsets for the ops that ran.
  std::vector<uint8_t> hilo_ops;
};

struct TraceStats {
  uint64_t traces_built = 0;
  uint64_t executions = 0;      // trace entries that retired >= 1 op
  uint64_t ops_executed = 0;
  uint64_t folded_executions = 0;  // entries that used precomputed timing
  uint64_t word_checks = 0;     // entries that compared words with memory
  uint64_t revalidation_rebuilds = 0;  // stale words at entry -> rebuilt
  uint64_t smc_bails = 0;       // store into the live trace's code range
  uint64_t rejected_heads = 0;  // head whose first word cannot start a trace
  uint64_t dispatch_stops = 0;  // accel: rcache hit at a trace-interior PC
};

struct TraceExecResult {
  uint64_t executed = 0;         // instructions retired by this entry
  bool dispatch_stop = false;    // env asked to stop before an interior op
  bool taken_exit = false;       // left through a taken branch or a jump
};

// 1-entry host TLB over mem::Memory pages for trace-interior loads/stores:
// one hash lookup per page *change* instead of per access. Pointers are
// stable until restore_pages (see mem::Memory::page_data); TraceCache::clear
// resets it. Null pages are not cached so a later allocating store is seen.
struct DataTlb {
  uint32_t key = 0xFFFFFFFFu;  // page index (addr >> kPageBits), sentinel
  uint8_t* data = nullptr;
};

namespace trace_detail {

inline uint8_t* tlb_page(DataTlb& tlb, mem::Memory& mem, uint32_t addr) {
  const uint32_t key = addr >> mem::Memory::kPageBits;
  if (tlb.key == key) return tlb.data;
  uint8_t* p = mem.page_data_mut(addr);
  if (p != nullptr) {
    tlb.key = key;
    tlb.data = p;
  }
  return p;
}

constexpr uint32_t kOffMask = mem::Memory::kPageSize - 1;

inline uint32_t t_read8(DataTlb& tlb, mem::Memory& mem, uint32_t addr) {
  if (uint8_t* p = tlb_page(tlb, mem, addr)) return p[addr & kOffMask];
  return mem.read8(addr);
}

inline uint32_t t_read16(DataTlb& tlb, mem::Memory& mem, uint32_t addr) {
  const uint32_t off = addr & kOffMask;
  if (off <= mem::Memory::kPageSize - 2) {
    if (uint8_t* p = tlb_page(tlb, mem, addr)) {
      return static_cast<uint32_t>(p[off]) | (static_cast<uint32_t>(p[off + 1]) << 8);
    }
  }
  return mem.read16(addr);
}

inline uint32_t t_read32(DataTlb& tlb, mem::Memory& mem, uint32_t addr) {
  const uint32_t off = addr & kOffMask;
  if (off <= mem::Memory::kPageSize - 4) {
    if (uint8_t* p = tlb_page(tlb, mem, addr)) {
      return static_cast<uint32_t>(p[off]) | (static_cast<uint32_t>(p[off + 1]) << 8) |
             (static_cast<uint32_t>(p[off + 2]) << 16) |
             (static_cast<uint32_t>(p[off + 3]) << 24);
    }
  }
  return mem.read32(addr);
}

inline void t_write8(DataTlb& tlb, mem::Memory& mem, uint32_t addr, uint8_t v) {
  if (uint8_t* p = tlb_page(tlb, mem, addr)) {
    p[addr & kOffMask] = v;
    return;
  }
  mem.write8(addr, v);  // allocates; the next tlb_page re-resolves
}

inline void t_write16(DataTlb& tlb, mem::Memory& mem, uint32_t addr, uint16_t v) {
  const uint32_t off = addr & kOffMask;
  if (off <= mem::Memory::kPageSize - 2) {
    if (uint8_t* p = tlb_page(tlb, mem, addr)) {
      p[off] = static_cast<uint8_t>(v);
      p[off + 1] = static_cast<uint8_t>(v >> 8);
      return;
    }
  }
  mem.write16(addr, v);
}

inline void t_write32(DataTlb& tlb, mem::Memory& mem, uint32_t addr, uint32_t v) {
  const uint32_t off = addr & kOffMask;
  if (off <= mem::Memory::kPageSize - 4) {
    if (uint8_t* p = tlb_page(tlb, mem, addr)) {
      p[off] = static_cast<uint8_t>(v);
      p[off + 1] = static_cast<uint8_t>(v >> 8);
      p[off + 2] = static_cast<uint8_t>(v >> 16);
      p[off + 3] = static_cast<uint8_t>(v >> 24);
      return;
    }
  }
  mem.write32(addr, v);
}

}  // namespace trace_detail

class TraceCache {
 public:
  TraceCache() : heads_(kSlots) {}

  // The data TLB and each trace's code page point into the source's
  // Memory, and each stamp counts the source's writes; a copied cache must
  // not alias either, so copies start with a cold TLB, unstamped traces
  // and no code pages: each trace revalidates once through page lookups
  // in the copy's own Memory (where it caches no page until rebuilt).
  TraceCache(const TraceCache& o)
      : heads_(o.heads_),
        pool_(o.pool_),
        stats_(o.stats_),
        code_epoch_(o.code_epoch_),
        code_lo_(o.code_lo_),
        code_hi_(o.code_hi_) {
    detach_from_memory();
  }
  TraceCache& operator=(const TraceCache& o) {
    heads_ = o.heads_;
    pool_ = o.pool_;
    stats_ = o.stats_;
    code_epoch_ = o.code_epoch_;
    code_lo_ = o.code_lo_;
    code_hi_ = o.code_hi_;
    tlb_ = DataTlb{};
    detach_from_memory();
    return *this;
  }

  // Baseline fast path (Machine::run): executes hot, valid traces one
  // after another from state.pc, charging cycles exactly as
  // per-instruction retires would (folded when the pipeline state
  // permits), until the budget is spent or the PC has no hot trace.
  // Returns the instructions retired: `budget` when the budget is spent,
  // fewer when state.pc has no hot trace — the caller then retires that
  // one instruction on the slow path (its head visit is already counted)
  // and calls again. Adds the memory accesses to *mem_accesses.
  uint64_t step_baseline(CpuState& state, mem::Memory& memory, PipelineModel& pipeline,
                         uint64_t budget, uint64_t* mem_accesses);

  // Hooked fast path (AcceleratedSystem): Env supplies the per-op
  // behavior the accelerated loop needs between DIM dispatches:
  //   static constexpr bool kDispatchProbe;        // probe before interior ops
  //   bool pre_dispatch(uint32_t pc);              // true = stop before pc
  //   void retired(const TraceOp&, uint32_t next_pc, bool taken,
  //                bool mem_access, uint32_t mem_addr);
  // retired() owns timing/stats/observation, so ordering matches the slow
  // loop exactly. pre_dispatch is NOT called for op 0 (the caller already
  // probed that boundary).
  template <class Env>
  TraceExecResult step_env(CpuState& state, mem::Memory& memory, uint64_t budget,
                           Env& env) {
    Trace* t = hot_trace(state.pc, memory);
    if (t == nullptr) return {};
    return execute<Env>(*t, state, memory, budget, env);
  }

  // Drops every trace, head counter and cached page pointer. Must be
  // called whenever the backing image is replaced (Machine::reset,
  // snapshot restore): a new image restarts or replays Memory's write
  // count, so a stale trace's stamp could match, and head heat, rejection
  // flags, code pages and the TLB are not word-checked either.
  void clear() {
    std::fill(heads_.begin(), heads_.end(), Head{});
    pool_.clear();
    tlb_ = DataTlb{};
    stats_ = TraceStats{};
    code_epoch_ = 0;
    code_lo_ = kNoCode;
    code_hi_ = 0;
  }

  const TraceStats& stats() const { return stats_; }

  // Formation/validation introspection for tests. The pointer is good
  // until the cache next runs (formation may move the pool).
  const Trace* peek(uint32_t pc) const {
    const Head& h = heads_[slot_index(pc)];
    return (h.head == pc && !h.rejected) ? &pool_[h.trace] : nullptr;
  }

  static constexpr size_t kMaxOps = 64;  // longest trace (<= 256 bytes of code)
  static constexpr uint8_t kHeat = 2;    // head visits before formation

  // Core executor, shared by step_baseline and step_env (public so the
  // envs in machine.cpp / system.cpp can instantiate it; not a stable API).
  template <class Env>
  TraceExecResult execute(Trace& t, CpuState& st, mem::Memory& mem, uint64_t budget,
                          Env& env);

 private:
  // One direct-mapped head slot. The trace itself lives in pool_, which
  // holds only the traces actually built, so a fresh or cleared cache is a
  // small table rather than kSlots embedded traces.
  static constexpr uint16_t kNoTrace = 0xFFFF;
  struct Head {
    uint32_t head = 1;      // established trace head (1 = none)
    uint32_t cand_pc = 1;   // rival head warming up
    uint16_t trace = kNoTrace;  // pool_ index, taken when a head is first established
    uint8_t cand_heat = 0;
    // No trace to run at `head`: its first word cannot start one, or no
    // head is established yet (so a PC equal to the sentinel never
    // reaches pool_).
    bool rejected = true;
  };
  static constexpr size_t kSlots = 4096;  // one pool entry per slot at most
  static_assert(kSlots < kNoTrace);

  static size_t slot_index(uint32_t pc) { return (pc >> 2) & (kSlots - 1); }

  // Returns the valid hot trace at `pc`, or nullptr (slow path). The common
  // case, an established head whose stamp still matches, is inline; heat
  // accounting, word compares and (re)formation are not. May grow pool_,
  // which moves every Trace: a returned pointer is good until the next
  // call.
  Trace* hot_trace(uint32_t pc, const mem::Memory& memory) {
    Head& h = heads_[slot_index(pc)];
    if (h.head == pc && !h.rejected) {
      Trace& t = pool_[h.trace];
      if (t.stamp == stamp(memory)) return &t;
    }
    return hot_trace_slow(pc, memory);
  }
  Trace* hot_trace_slow(uint32_t pc, const mem::Memory& memory);

  // The value a trace whose words match memory right now records.
  uint64_t stamp(const mem::Memory& memory) const { return memory.writes() + code_epoch_; }

  // Reads the trace at `pc` from memory, stamps it and widens the code
  // range to cover it.
  bool build_trace(Trace& t, uint32_t pc, const mem::Memory& memory);
  // The trace's words still match memory (the stamp-mismatch path).
  bool validate(const Trace& t, const mem::Memory& memory) const;
  void detach_from_memory() {
    for (Trace& t : pool_) {
      t.code_page = nullptr;
      t.stamp = Trace::kUnstamped;
    }
  }

  static constexpr uint64_t kNoCode = ~0ull;

  std::vector<Head> heads_;
  std::vector<Trace> pool_;
  DataTlb tlb_;
  TraceStats stats_;
  // Bumped by every executor store into [code_lo_, code_hi_), the union
  // of the word ranges of all traces built since clear() (64-bit bounds,
  // like Trace::end64; empty while code_lo_ is kNoCode).
  uint64_t code_epoch_ = 0;
  uint64_t code_lo_ = kNoCode;
  uint64_t code_hi_ = 0;
};

// --- Core trace executor -----------------------------------------------
//
// Each handler jumps straight to the next op's handler through a
// computed goto, a GCC/Clang extension; every compiler that builds the
// POSIX serve layer provides it.
#if defined(DIMSIM_PORTABLE_DISPATCH) || !(defined(__GNUC__) || defined(__clang__))
#error "the trace engine needs computed goto (GCC or Clang) and has no switch dispatch"
#endif

template <class Env>
TraceExecResult TraceCache::execute(Trace& t, CpuState& st, mem::Memory& mem,
                                    uint64_t budget, Env& env) {
  using trace_detail::t_read16;
  using trace_detail::t_read32;
  using trace_detail::t_read8;
  using trace_detail::t_write16;
  using trace_detail::t_write32;
  using trace_detail::t_write8;

  TraceExecResult result;
  const size_t limit =
      budget < t.ops.size() ? static_cast<size_t>(budget) : t.ops.size();
  if (limit == 0) return result;
  uint32_t* const r = st.regs.data();
  r[0] = 0;  // step() maintains this invariant after every retire
  DataTlb& tlb = tlb_;
  const uint64_t code_lo = code_lo_;  // fixed while a trace runs
  const uint64_t code_hi = code_hi_;
  const TraceOp* const first = t.ops.data();
  const TraceOp* const end = first + limit;
  const TraceOp* op = first;

// Handler epilogues. RETIRE_LINEAR advances past a straight-line op;
// BRANCH leaves at the target when taken and advances like RETIRE_LINEAR
// when not; terminals set the next PC and leave. A store into any trace's
// code range bumps the code epoch, so every trace compares its words at
// its next entry; one that hit this trace's own range also retires
// normally, then bails (the interpreter would fetch the freshly written
// word for the next op).
#define DIMSIM_RETIRE(next_pc, taken, memacc, addr) \
  env.retired(*op, (next_pc), (taken), (memacc), (addr))

#define DIMSIM_GOTO_KIND() goto* kLabels[static_cast<size_t>(op->kind)]

#define DIMSIM_NEXT()                          \
  do {                                         \
    if (++op == end) goto out_budget;          \
    if constexpr (Env::kDispatchProbe) {       \
      if (env.pre_dispatch(op->pc)) {          \
        st.pc = op->pc;                        \
        result.dispatch_stop = true;           \
        ++stats_.dispatch_stops;               \
        goto out;                              \
      }                                        \
    }                                          \
    DIMSIM_GOTO_KIND();                        \
  } while (0)

#define DIMSIM_RETIRE_LINEAR() \
  do {                         \
    DIMSIM_RETIRE(op->pc + 4, false, false, 0); \
    DIMSIM_NEXT();             \
  } while (0)

#define DIMSIM_STORE_TAIL(addr, width)                                        \
  do {                                                                        \
    DIMSIM_RETIRE(op->pc + 4, false, true, (addr));                           \
    const uint64_t a64 = static_cast<uint64_t>(addr);                         \
    if (a64 + (width) > code_lo && a64 < code_hi) {                           \
      ++code_epoch_;                                                          \
      if (a64 + (width) > t.start_pc && a64 < t.end64) {                      \
        ++stats_.smc_bails;                                                   \
        st.pc = op->pc + 4;                                                   \
        ++op;                                                                 \
        goto out;                                                             \
      }                                                                       \
    }                                                                         \
    DIMSIM_NEXT();                                                            \
  } while (0)

#define DIMSIM_BRANCH(cond)                                                   \
  do {                                                                        \
    if (cond) {                                                               \
      const uint32_t next = static_cast<uint32_t>(op->imm);                   \
      DIMSIM_RETIRE(next, true, false, 0);                                    \
      st.pc = next;                                                           \
      goto out_taken;                                                         \
    }                                                                         \
    DIMSIM_RETIRE_LINEAR();                                                   \
  } while (0)

  static const void* const kLabels[] = {
      &&H_TAddu, &&H_TSubu, &&H_TAnd, &&H_TOr, &&H_TXor, &&H_TNor, &&H_TSlt,
      &&H_TSltu, &&H_TSllK, &&H_TSrlK, &&H_TSraK, &&H_TSllv, &&H_TSrlv,
      &&H_TSrav, &&H_TAddiu, &&H_TSlti, &&H_TSltiu, &&H_TAndi, &&H_TOri,
      &&H_TXori, &&H_TLui, &&H_TMult, &&H_TMultu, &&H_TDiv, &&H_TDivu,
      &&H_TMfhi, &&H_TMflo, &&H_TMthi, &&H_TMtlo, &&H_TLb, &&H_TLbu, &&H_TLh,
      &&H_TLhu, &&H_TLw, &&H_TSb, &&H_TSh, &&H_TSw, &&H_TBeq, &&H_TBne,
      &&H_TBlez, &&H_TBgtz, &&H_TBltz, &&H_TBgez, &&H_TBltzal, &&H_TBgezal,
      &&H_TJ, &&H_TJal, &&H_TJr, &&H_TJalr,
  };
  DIMSIM_GOTO_KIND();

// --- straight-line ALU --------------------------------------------------
H_TAddu:
  if (op->d) r[op->d] = r[op->a] + r[op->b];
  DIMSIM_RETIRE_LINEAR();
H_TSubu:
  if (op->d) r[op->d] = r[op->a] - r[op->b];
  DIMSIM_RETIRE_LINEAR();
H_TAnd:
  if (op->d) r[op->d] = r[op->a] & r[op->b];
  DIMSIM_RETIRE_LINEAR();
H_TOr:
  if (op->d) r[op->d] = r[op->a] | r[op->b];
  DIMSIM_RETIRE_LINEAR();
H_TXor:
  if (op->d) r[op->d] = r[op->a] ^ r[op->b];
  DIMSIM_RETIRE_LINEAR();
H_TNor:
  if (op->d) r[op->d] = ~(r[op->a] | r[op->b]);
  DIMSIM_RETIRE_LINEAR();
H_TSlt:
  if (op->d) {
    r[op->d] = static_cast<int32_t>(r[op->a]) < static_cast<int32_t>(r[op->b]) ? 1u : 0u;
  }
  DIMSIM_RETIRE_LINEAR();
H_TSltu:
  if (op->d) r[op->d] = r[op->a] < r[op->b] ? 1u : 0u;
  DIMSIM_RETIRE_LINEAR();
H_TSllK:
  if (op->d) r[op->d] = r[op->b] << op->imm;
  DIMSIM_RETIRE_LINEAR();
H_TSrlK:
  if (op->d) r[op->d] = r[op->b] >> op->imm;
  DIMSIM_RETIRE_LINEAR();
H_TSraK:
  if (op->d) {
    r[op->d] = static_cast<uint32_t>(static_cast<int32_t>(r[op->b]) >> op->imm);
  }
  DIMSIM_RETIRE_LINEAR();
H_TSllv:
  if (op->d) r[op->d] = r[op->b] << (r[op->a] & 31);
  DIMSIM_RETIRE_LINEAR();
H_TSrlv:
  if (op->d) r[op->d] = r[op->b] >> (r[op->a] & 31);
  DIMSIM_RETIRE_LINEAR();
H_TSrav:
  if (op->d) {
    r[op->d] = static_cast<uint32_t>(static_cast<int32_t>(r[op->b]) >> (r[op->a] & 31));
  }
  DIMSIM_RETIRE_LINEAR();
H_TAddiu:
  if (op->d) r[op->d] = r[op->a] + static_cast<uint32_t>(op->imm);
  DIMSIM_RETIRE_LINEAR();
H_TSlti:
  if (op->d) r[op->d] = static_cast<int32_t>(r[op->a]) < op->imm ? 1u : 0u;
  DIMSIM_RETIRE_LINEAR();
H_TSltiu:
  if (op->d) r[op->d] = r[op->a] < static_cast<uint32_t>(op->imm) ? 1u : 0u;
  DIMSIM_RETIRE_LINEAR();
H_TAndi:
  if (op->d) r[op->d] = r[op->a] & static_cast<uint32_t>(op->imm);
  DIMSIM_RETIRE_LINEAR();
H_TOri:
  if (op->d) r[op->d] = r[op->a] | static_cast<uint32_t>(op->imm);
  DIMSIM_RETIRE_LINEAR();
H_TXori:
  if (op->d) r[op->d] = r[op->a] ^ static_cast<uint32_t>(op->imm);
  DIMSIM_RETIRE_LINEAR();
H_TLui:
  if (op->d) r[op->d] = static_cast<uint32_t>(op->imm);  // value precomputed
  DIMSIM_RETIRE_LINEAR();

// --- HI/LO --------------------------------------------------------------
H_TMult: {  // mult_eval's product, inline
  const uint64_t p = static_cast<uint64_t>(
      static_cast<int64_t>(static_cast<int32_t>(r[op->a])) *
      static_cast<int64_t>(static_cast<int32_t>(r[op->b])));
  st.lo = static_cast<uint32_t>(p);
  st.hi = static_cast<uint32_t>(p >> 32);
  DIMSIM_RETIRE_LINEAR();
}
H_TMultu: {
  const uint64_t p = static_cast<uint64_t>(r[op->a]) * static_cast<uint64_t>(r[op->b]);
  st.lo = static_cast<uint32_t>(p);
  st.hi = static_cast<uint32_t>(p >> 32);
  DIMSIM_RETIRE_LINEAR();
}
H_TDiv: {
  const int32_t a = static_cast<int32_t>(r[op->a]);
  const int32_t b = static_cast<int32_t>(r[op->b]);
  if (b == 0) {  // step()'s deterministic choice for the undefined case
    st.lo = 0;
    st.hi = r[op->a];
  } else if (a == INT32_MIN && b == -1) {
    st.lo = static_cast<uint32_t>(INT32_MIN);
    st.hi = 0;
  } else {
    st.lo = static_cast<uint32_t>(a / b);
    st.hi = static_cast<uint32_t>(a % b);
  }
  DIMSIM_RETIRE_LINEAR();
}
H_TDivu: {
  const uint32_t a = r[op->a];
  const uint32_t b = r[op->b];
  if (b == 0) {
    st.lo = 0;
    st.hi = a;
  } else {
    st.lo = a / b;
    st.hi = a % b;
  }
  DIMSIM_RETIRE_LINEAR();
}
H_TMfhi:
  if (op->d) r[op->d] = st.hi;
  DIMSIM_RETIRE_LINEAR();
H_TMflo:
  if (op->d) r[op->d] = st.lo;
  DIMSIM_RETIRE_LINEAR();
H_TMthi:
  st.hi = r[op->a];
  DIMSIM_RETIRE_LINEAR();
H_TMtlo:
  st.lo = r[op->a];
  DIMSIM_RETIRE_LINEAR();

// --- memory -------------------------------------------------------------
H_TLb: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  const uint32_t v =
      static_cast<uint32_t>(static_cast<int8_t>(t_read8(tlb, mem, addr)));
  if (op->d) r[op->d] = v;
  DIMSIM_RETIRE(op->pc + 4, false, true, addr);
  DIMSIM_NEXT();
}
H_TLbu: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  const uint32_t v = t_read8(tlb, mem, addr);
  if (op->d) r[op->d] = v;
  DIMSIM_RETIRE(op->pc + 4, false, true, addr);
  DIMSIM_NEXT();
}
H_TLh: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  const uint32_t v = static_cast<uint32_t>(
      static_cast<int16_t>(t_read16(tlb, mem, addr)));
  if (op->d) r[op->d] = v;
  DIMSIM_RETIRE(op->pc + 4, false, true, addr);
  DIMSIM_NEXT();
}
H_TLhu: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  const uint32_t v = t_read16(tlb, mem, addr);
  if (op->d) r[op->d] = v;
  DIMSIM_RETIRE(op->pc + 4, false, true, addr);
  DIMSIM_NEXT();
}
H_TLw: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  const uint32_t v = t_read32(tlb, mem, addr);
  if (op->d) r[op->d] = v;
  DIMSIM_RETIRE(op->pc + 4, false, true, addr);
  DIMSIM_NEXT();
}
H_TSb: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  t_write8(tlb, mem, addr, static_cast<uint8_t>(r[op->b]));
  DIMSIM_STORE_TAIL(addr, 1);
}
H_TSh: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  t_write16(tlb, mem, addr, static_cast<uint16_t>(r[op->b]));
  DIMSIM_STORE_TAIL(addr, 2);
}
H_TSw: {
  const uint32_t addr = r[op->a] + static_cast<uint32_t>(op->imm);
  t_write32(tlb, mem, addr, r[op->b]);
  DIMSIM_STORE_TAIL(addr, 4);
}

// --- conditional branches -----------------------------------------------
// Taken, the branch leaves the trace at its target; not taken, execution
// runs on to the next op (probed, and budget-checked, like any other).
H_TBeq:
  DIMSIM_BRANCH(r[op->a] == r[op->b]);
H_TBne:
  DIMSIM_BRANCH(r[op->a] != r[op->b]);
H_TBlez:
  DIMSIM_BRANCH(static_cast<int32_t>(r[op->a]) <= 0);
H_TBgtz:
  DIMSIM_BRANCH(static_cast<int32_t>(r[op->a]) > 0);
H_TBltz:
  DIMSIM_BRANCH(static_cast<int32_t>(r[op->a]) < 0);
H_TBgez:
  DIMSIM_BRANCH(static_cast<int32_t>(r[op->a]) >= 0);
H_TBltzal: {
  // The condition reads rs before the link write (rs may be $ra), and the
  // link happens whether or not the branch is taken, like step().
  const bool taken = static_cast<int32_t>(r[op->a]) < 0;
  r[31] = op->pc + 4;
  DIMSIM_BRANCH(taken);
}
H_TBgezal: {
  const bool taken = static_cast<int32_t>(r[op->a]) >= 0;
  r[31] = op->pc + 4;
  DIMSIM_BRANCH(taken);
}

// --- terminals ----------------------------------------------------------
H_TJ: {
  const uint32_t next = static_cast<uint32_t>(op->imm);
  DIMSIM_RETIRE(next, true, false, 0);
  st.pc = next;
  goto out_taken;
}
H_TJal: {
  const uint32_t next = static_cast<uint32_t>(op->imm);
  r[31] = op->pc + 4;
  DIMSIM_RETIRE(next, true, false, 0);
  st.pc = next;
  goto out_taken;
}
H_TJr: {
  const uint32_t next = r[op->a];
  DIMSIM_RETIRE(next, true, false, 0);
  st.pc = next;
  goto out_taken;
}
H_TJalr: {
  const uint32_t next = r[op->a];  // read before the link write (rd may == rs)
  if (op->d) r[op->d] = op->pc + 4;
  DIMSIM_RETIRE(next, true, false, 0);
  st.pc = next;
  goto out_taken;
}

out_taken:
  ++op;
  result.taken_exit = true;
  goto out;

out_budget:
  // op is one past the last executed instruction, a straight-line op or a
  // not-taken branch, so the run continues at its pc+4.
  st.pc = op[-1].pc + 4;
  goto out;

out:
  // op is one past the last op that retired.
  result.executed = static_cast<uint64_t>(op - first);
  ++stats_.executions;
  stats_.ops_executed += result.executed;
  return result;

#undef DIMSIM_RETIRE
#undef DIMSIM_GOTO_KIND
#undef DIMSIM_NEXT
#undef DIMSIM_RETIRE_LINEAR
#undef DIMSIM_STORE_TAIL
#undef DIMSIM_BRANCH
}

}  // namespace dim::sim
