// A configuration: the result of binary-translating one instruction
// sequence onto the array. Holds both the placed operations (for timing and
// area) and the original instruction semantics (for execution).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "rra/array_shape.hpp"

namespace dim::rra {

// The array context covers the 32 general registers plus HI and LO, so that
// mult / mfhi / mflo sequences translate naturally.
inline constexpr int kCtxHi = 32;
inline constexpr int kCtxLo = 33;
inline constexpr int kNumCtxRegs = 34;

// Context-register sources of `i` when executed inside the array.
int array_srcs(const isa::Instr& i, int out[2]);
// Context-register destinations (mult writes both HI and LO).
int array_dests(const isa::Instr& i, int out[2]);

enum class RowKind : uint8_t { kAlu, kMul, kMem };

// Upper bound on predicate slots per configuration (if-converted hammocks).
inline constexpr int kMaxPredSlots = 8;

// One placed operation. Conditional branches are placed too (they evaluate
// their condition on an ALU and guard the basic blocks that follow).
struct ArrayOp {
  isa::Instr instr;
  uint32_t pc = 0;
  int row = 0;
  int col = 0;
  isa::FuKind kind = isa::FuKind::kAlu;
  int bb_index = 0;  // 0 = non-speculative part, >0 = speculation depth
  bool is_branch = false;
  bool predicted_taken = false;  // only for branches

  // If-conversion (hammock merging). A predicate-defining branch evaluates
  // its condition into `pred_slot` and never misspeculates; ops guarded by a
  // slot execute on the array but write back (registers, HI/LO, stores) only
  // when the slot's value equals `pred_when_taken`. The join jump of a
  // diamond (`b join`) retires only on the fall-through arm.
  int pred_slot = -1;            // -1 = unpredicated
  bool pred_when_taken = false;  // arm is active when slot == this
  bool is_pred_def = false;      // branch writes pred_slot instead of guarding
  bool is_join_jump = false;     // diamond-internal unconditional jump
};

struct Configuration {
  uint32_t start_pc = 0;
  uint32_t end_pc = 0;  // PC to resume at when every prediction holds
  std::vector<ArrayOp> ops;  // in original program order
  int rows_used = 0;
  std::vector<RowKind> row_kinds;  // one entry per used row
  int num_bbs = 1;                 // basic blocks covered (1 = no speculation)
  int input_regs = 0;              // context registers fetched at start
  int output_regs = 0;             // context registers written back
  int immediates = 0;
  int pred_slots = 0;              // predicate slots used by if-conversion

  // Lifecycle flags managed by the accelerated system.
  int misspec_count = 0;
  bool no_extend = false;  // speculation extension failed; don't retry

  // Monotone stamp assigned by the rcache on insert/preload; a resident
  // dispatch is valid only while the cached entry's revision still matches.
  uint64_t revision = 0;

  // Elastic-admissibility memo (-1 unknown, 0 rejected, 1 admissible).
  // Derived from ops + fifo_capacity, so it is NOT serialized: entries
  // arriving via snapshot restore are reclassified lazily on first
  // dispatch, while a preloaded copy keeps the verdict of the system it was
  // exported from. Mutable because the execution model classifies through
  // a const reference (rra::ExecutionModel::execute).
  mutable int8_t elastic_memo = -1;

  int instruction_count() const { return static_cast<int>(ops.size()); }
};

// Cycles the array needs to execute rows [0, last_row] of `config`
// (exclusive of reconfiguration, write-back drain and cache-miss stalls).
uint64_t rows_exec_cycles(const Configuration& config, int last_row,
                          const ArrayTimingParams& timing);

// Cycles needed to load the configuration bits and fetch `inputs` operands,
// minus the overlap hidden by the pipeline front-end. This is the stall the
// processor sees ("in cases three cycles are not enough ... the processor
// will be stalled").
uint64_t reconfig_stall_cycles(const Configuration& config,
                               const ArrayTimingParams& timing);

// Stall for re-dispatching a configuration that is already resident in the
// array (residency): the configuration bits need no reload, only the
// input operands are fetched again.
uint64_t resident_stall_cycles(const Configuration& config,
                               const ArrayTimingParams& timing);

}  // namespace dim::rra
