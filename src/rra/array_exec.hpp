// Execution of a configuration on the reconfigurable array.
//
// Functionally the array is an in-order dataflow evaluation of the
// translated instructions: operands come from the register bank (input
// context) or from producing rows; speculative basic blocks commit only
// when their guarding branch resolves in the predicted direction; stores
// drain to memory at commit. We evaluate the ops in original program order
// against a context copy + store buffer — exactly the commit semantics of
// the hardware — which makes transparency (bit-identical architectural
// state) hold by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "rra/configuration.hpp"
#include "sim/cpu_state.hpp"

namespace dim::rra {

struct BranchOutcome {
  uint32_t pc = 0;
  bool taken = false;
  bool matched = false;  // outcome == prediction
};

struct ArrayExecOutcome {
  uint32_t next_pc = 0;
  int committed_ops = 0;  // translated instructions retired (incl. branches)
  int committed_bbs = 0;
  bool misspeculated = false;
  uint32_t misspec_branch_pc = 0;
  std::vector<BranchOutcome> branch_outcomes;

  // Timing.
  uint64_t exec_cycles = 0;           // row evaluation
  uint64_t reconfig_stall_cycles = 0; // visible part of reconfiguration
  uint64_t dcache_stall_cycles = 0;   // load/store misses during execution
  uint64_t finalize_cycles = 0;
  uint64_t misspec_penalty_cycles = 0;
  // Elastic execution only: the share of exec_cycles attributable to FIFO
  // backpressure (bounded-capacity makespan minus unbounded makespan). A
  // subset of exec_cycles, NOT a sixth component of total_cycles().
  uint64_t fifo_stall_cycles = 0;
  // Elastic execution only: the handshake graph deadlocks at the model's
  // FIFO capacity, so the activation kept its row-sync timing.
  bool elastic_fallback = false;
  uint64_t total_cycles() const {
    return exec_cycles + reconfig_stall_cycles + dcache_stall_cycles +
           finalize_cycles + misspec_penalty_cycles;
  }

  // Activity (for the power model).
  int alu_ops = 0;
  int mul_ops = 0;
  int mem_ops = 0;
  int loads = 0;
  int stores = 0;

  // Address range covered by the drained stores (for residency SMC checks).
  bool wrote_memory = false;
  uint32_t store_lo = 0;
  uint32_t store_hi = 0;  // exclusive
};

// Per-op record of one evaluation walk, consumed by the elastic
// execution model (src/rra/exec_mode/) to retime the activation. Entry k
// describes the k-th *evaluated* op — a misspeculation-truncated walk
// leaves trailing ops unrecorded.
struct ArrayExecTrace {
  struct OpTrace {
    bool active = false;          // predicate allowed the op to commit
    uint64_t dcache_penalty = 0;  // miss cycles this op's access cost (mem ops)
  };
  std::vector<OpTrace> ops;
};

// Executes `config` against the architectural state. On return the state
// (registers, HI/LO, memory) reflects every committed basic block and
// `next_pc` tells the processor where to resume. `dcache`, when non-null,
// is consulted for load/store stall cycles. `resident` charges the cheaper
// resident_stall_cycles (configuration bits already latched in the array)
// instead of a full reconfiguration — timing only, semantics unchanged.
// `trace`, when non-null, records per-op activity for mode-specific
// retiming; the architectural result is unaffected.
ArrayExecOutcome execute_configuration(const Configuration& config,
                                       sim::CpuState& state, mem::Memory& memory,
                                       mem::Cache* dcache,
                                       const ArrayTimingParams& timing,
                                       bool resident = false,
                                       ArrayExecTrace* trace = nullptr);

}  // namespace dim::rra
