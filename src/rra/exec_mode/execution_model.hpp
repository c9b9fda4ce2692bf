// Array execution personalities: *when ops fire and what that costs*.
//
// The paper's array is row-synchronous: a row fires when the whole previous
// row has fired, long-latency ops (multiplies, cache misses) stall every
// row behind them. That is one point in a larger CGRA design space.
// ExecutionModel times an activation under one of two personalities and
// keeps *what ops compute* in the shared functional core
// (rra::execute_configuration). Because both run the same functional core,
// the transparency contract — bit-identical architectural state versus
// pure software — holds for each by construction; they differ only in
// timing and stats (docs/execution-modes.md has the full writeup):
//
//   kRowSync — the paper's array: the functional core's own row-chained
//              timing (rra/configuration.cpp). The reference model.
//   kElastic — STRELA-style dataflow firing. Ops fire when their operands
//              arrive over per-edge valid/ready handshakes; each row's
//              results enter a bounded in-order output queue of
//              `fifo_capacity` tokens, and a producer whose queue slot is
//              still held by an unconsumed older result stalls
//              (backpressure). Cache-miss latency rides the dependence
//              edges instead of stalling rows. Configurations whose
//              handshake graph can deadlock execute row-synchronously.
#pragma once

#include <cstdint>
#include <memory>

#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "rra/array_exec.hpp"
#include "rra/array_shape.hpp"
#include "rra/configuration.hpp"
#include "sim/cpu_state.hpp"

namespace dim::rra {

enum class ExecMode : uint8_t {
  kRowSync = 0,
  kElastic = 1,
};

struct ExecModeParams {
  ExecMode mode = ExecMode::kRowSync;
  // Elastic: tokens each per-row output queue holds before producers on
  // that row see backpressure. Capacity 1 is the fully serialized
  // handshake; it still runs pure dependence chains at full throughput.
  // A capacity <= 0 means unbounded queues (no backpressure, no deadlock).
  int fifo_capacity = 4;
};

class ExecutionModel {
 public:
  explicit ExecutionModel(const ExecModeParams& params) : params_(params) {}

  // Executes the configuration against architectural state. Semantics are
  // identical across modes (both run execute_configuration); only the
  // timing fields of the outcome differ. Under elastic, a configuration
  // whose handshake graph deadlocks at `fifo_capacity` keeps its row-sync
  // timing and reports elastic_fallback. The verdict is memoized in
  // Configuration::elastic_memo: the translator sets it at build time, and
  // entries that arrive without one (snapshots, warm-start files) are
  // classified here on first dispatch.
  ArrayExecOutcome execute(const Configuration& config, sim::CpuState& state,
                           mem::Memory& memory, mem::Cache* dcache,
                           const ArrayTimingParams& timing, bool resident) const;

 private:
  ExecModeParams params_;
};

std::unique_ptr<ExecutionModel> make_execution_model(const ExecModeParams& params);

// Deadlock-freedom check for the elastic personality, exposed standalone so
// the translator can classify configurations at build time without
// instantiating a model. True iff the handshake event graph (dependence +
// in-order-queue + capacity backpressure edges) is acyclic at the given
// token capacity. Any prefix of an admissible configuration is itself
// admissible, so a misspeculation-truncated walk never deadlocks either.
// A capacity <= 0 means unbounded queues: trivially admissible.
bool elastic_admissible(const Configuration& config, int fifo_capacity);

}  // namespace dim::rra
