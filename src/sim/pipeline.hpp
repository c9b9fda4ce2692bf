// Cycle model of the 5-stage in-order R3000-class pipeline (Minimips).
//
// The functional executor retires instructions; this model charges cycles:
//   - 1 cycle per instruction (single-issue, in-order)
//   - load-use interlock: 1 stall when an instruction reads the destination
//     of the immediately preceding load
//   - taken branches/jumps redirect the fetch after EX: 2 bubble cycles
//   - mult/div execute in a non-blocking HI/LO unit; mfhi/mflo stall until
//     the unit finishes
//   - optional I/D cache models add miss stalls
#pragma once

#include <cstdint>

#include "mem/cache.hpp"
#include "sim/cpu_state.hpp"

namespace dim::sim {

struct TimingParams {
  uint32_t taken_branch_penalty = 2;
  uint32_t load_use_stall = 1;
  uint32_t mult_latency = 4;
  uint32_t div_latency = 20;
  // 1 = the paper's scalar Minimips baseline. 2 = a dual-issue in-order
  // core (for the stronger-baseline ablation): two consecutive
  // instructions share a cycle when they have no RAW dependence, at most
  // one is a memory access, at most one targets HI/LO, and the first is
  // not a taken control transfer.
  uint32_t issue_width = 1;
  mem::CacheParams icache;
  mem::CacheParams dcache;
};

// Pre-classified retirement record: everything the timing model needs to
// know about one instruction, with the ISA-level classification already
// done. retire(StepInfo) builds one of these per call; the superblock
// trace engine (sim/trace_cache.hpp) precomputes the static fields once at
// trace-formation time and only fills in the dynamic ones (mem_addr,
// taken) per execution. Both paths charge cycles through the same
// retire(RetireRecord) implementation, so they cannot drift apart.
struct RetireRecord {
  int8_t dest = -1;           // isa::dest_reg ($0 reported as -1)
  int8_t src0 = 0, src1 = 0;  // isa::src_regs
  uint8_t nsrc = 0;
  bool is_load = false;
  bool is_mem_op = false;      // load or store (dual-issue slot class)
  bool is_hilo_write = false;  // mult/multu/div/divu
  bool is_div = false;         // div/divu (longer HI/LO latency)
  bool is_hilo_touch = false;  // mfhi/mflo/mthi/mtlo (stall until ready)
  uint32_t pc = 0;
  bool mem_access = false;  // dynamic: this retirement accessed memory
  uint32_t mem_addr = 0;    // dynamic
  bool taken = false;       // dynamic: taken branch / any jump

  // Static classification of `i` (dynamic fields left defaulted).
  static RetireRecord classify(const isa::Instr& i);
};

// The hazard latches of a PipelineModel: the cycle counter and every
// inter-instruction latch, all a resumed run needs (with the two cache
// models' own CacheState) to charge the next instruction exactly as an
// uninterrupted run would.
struct PipelineState {
  uint64_t cycles = 0;
  int pending_load_reg = -1;  // destination of the previous load, if any
  uint64_t hilo_ready = 0;    // absolute cycle when HI/LO become readable
  // Dual-issue pairing: the instruction occupying the first slot of the
  // current issue cycle (if any).
  bool slot_open = false;
  int slot_dest = -1;
  bool slot_mem = false;
  bool slot_hilo = false;
};

class PipelineModel {
 public:
  explicit PipelineModel(const TimingParams& params)
      : params_(params), icache_(params.icache), dcache_(params.dcache) {}

  // Accounts one retired instruction; returns the cycles it consumed.
  uint64_t retire(const StepInfo& info);

  // Same accounting from a pre-classified record (see RetireRecord). This
  // is the only implementation; retire(StepInfo) delegates to it.
  uint64_t retire(const RetireRecord& r);

  // --- Superblock trace support (sim/trace_cache.hpp) -----------------
  // True when per-trace folded timing reproduces retire() exactly: single
  // issue (no pairing state) and both cache models disabled (no dynamic
  // miss stalls, no hit/miss counters to maintain). HI/LO waits are
  // replayed per folded trace through hilo_interlock.
  bool fold_eligible() const {
    return params_.issue_width < 2 && !icache_.params().enabled &&
           !dcache_.params().enabled;
  }
  int pending_load_reg() const { return s_.pending_load_reg; }
  uint64_t hilo_ready() const { return s_.hilo_ready; }
  uint32_t load_use_stall_cycles() const { return params_.load_use_stall; }
  uint32_t taken_branch_penalty() const { return params_.taken_branch_penalty; }

  // The HI/LO interlock of retire(), for one instruction whose issue and
  // load-use stall have brought the clock to `clock`: a mult/div makes
  // HI/LO readable mult_latency/div_latency cycles later (`ready`); an
  // instruction that reads or moves HI/LO waits until then.
  void hilo_interlock(const RetireRecord& r, uint64_t& clock, uint64_t& ready) const {
    if (r.is_hilo_write) {
      ready = clock + (r.is_div ? params_.div_latency : params_.mult_latency);
    } else if (r.is_hilo_touch && clock < ready) {
      clock = ready;
    }
  }

  // Commits a folded trace: `cycles` precomputed issue+stall cycles, and
  // the exit values of every hazard latch retire() would have left behind
  // (slot_* from the last retired instruction; slot_open is false at
  // issue_width 1, the only width folding is eligible for).
  void fold_commit(uint64_t cycles, int exit_pending_load_reg, int slot_dest,
                   bool slot_mem, bool slot_hilo, uint64_t exit_hilo_ready) {
    s_.cycles += cycles;
    s_.pending_load_reg = exit_pending_load_reg;
    s_.hilo_ready = exit_hilo_ready;
    s_.slot_open = false;
    s_.slot_dest = slot_dest;
    s_.slot_mem = slot_mem;
    s_.slot_hilo = slot_hilo;
  }

  // Adds processor cycles outside retire(): the accelerated system charges
  // the software-BT cost of each configuration a core-retired instruction
  // made DIM insert (SystemConfig::translation_cost_per_instr, 0 for the
  // paper's hardware DIM).
  void charge(uint64_t cycles) { s_.cycles += cycles; }

  void reset();

  // Checkpoint support: the latches (see PipelineState). The cache models
  // persist their own state through icache() and dcache().
  const PipelineState& export_state() const { return s_; }
  void restore_state(const PipelineState& state) { s_ = state; }

  uint64_t cycles() const { return s_.cycles; }
  mem::Cache& icache() { return icache_; }
  mem::Cache& dcache() { return dcache_; }
  const mem::Cache& icache() const { return icache_; }
  const mem::Cache& dcache() const { return dcache_; }
  const TimingParams& params() const { return params_; }

 private:
  TimingParams params_;
  mem::Cache icache_;
  mem::Cache dcache_;
  PipelineState s_;
};

}  // namespace dim::sim
