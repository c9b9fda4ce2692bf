// Elastic (STRELA-style) personality: dataflow firing over valid/ready
// handshakes with bounded per-row output queues.
//
// Timing model. Each evaluated op contributes two events — start (fires:
// all operands latched) and produce (its result enters the producing row's
// output queue) — connected by a static event graph measured in ALU slots
// (`alu_rows_per_cycle` slots per cycle, matching the row-sync chaining
// rate):
//
//   start(o)    -> produce(o)   taking duration(o) slots: 1 for ALU work,
//                               mul_row_cycles for multiplies, and
//                               mem_row_cycles plus the op's own cache-miss
//                               penalty for memory ops — misses ride the
//                               dependence edge instead of stalling rows.
//   produce(d)  -> start(o)     for each operand producer d (data deps via
//                               the context-register wiring, predicate-slot
//                               defs, and the memory-ordering spine: loads
//                               and stores wait on the last prior store, so
//                               independent loads overlap freely).
//   produce(p)  -> produce(o)   for p immediately before o on the same row:
//                               a row's results enter its queue in order.
//   start(c)    -> produce(o)   backpressure. o is the q-th op on its row
//                               and the (q - capacity)-th op's queue slot
//                               must free first — it frees once every
//                               consumer c of that older result has fired.
//
// The makespan is the longest path (deadlock = a cycle, rejected at
// config-build time via elastic_admissible); exec_cycles is the bounded
// makespan and fifo_stall_cycles the bounded-minus-unbounded difference,
// i.e. the share of exec attributable purely to token capacity. Any prefix
// of the op list (a misspeculation-truncated walk) only removes nodes and
// edges, so admissibility of the full graph covers every runtime walk.
#include <algorithm>
#include <array>
#include <vector>

#include "common/bitutil.hpp"
#include "rra/exec_mode/models_internal.hpp"

namespace dim::rra {
namespace {

// Node ids: start(i) = 2i, produce(i) = 2i + 1.
struct EventGraph {
  int n_ops = 0;
  std::vector<std::vector<int32_t>> succ;
  std::vector<uint64_t> cost;  // applied when the node completes
};

uint64_t op_duration_slots(const ArrayOp& op, const ArrayTimingParams& timing,
                           uint64_t spc, uint64_t dcache_penalty) {
  switch (op.kind) {
    case isa::FuKind::kMul:
      return static_cast<uint64_t>(timing.mul_row_cycles) * spc;
    case isa::FuKind::kLdSt:
      return (static_cast<uint64_t>(timing.mem_row_cycles) + dcache_penalty) * spc;
    default:
      return 1;
  }
}

// Builds the event graph over the first `n_ops` ops. `trace` (optional)
// supplies per-op cache penalties and is sized >= n_ops when present;
// without it all penalties are zero (the static/admissibility view).
// `capacity` <= 0 means unbounded queues (no backpressure edges).
EventGraph build_event_graph(const Configuration& config, int n_ops,
                             int capacity, const ArrayTimingParams& timing,
                             const ArrayExecTrace* trace) {
  EventGraph g;
  g.n_ops = n_ops;
  g.succ.assign(static_cast<size_t>(n_ops) * 2, {});
  g.cost.assign(static_cast<size_t>(n_ops) * 2, 0);

  const uint64_t spc =
      timing.alu_rows_per_cycle > 0 ? static_cast<uint64_t>(timing.alu_rows_per_cycle) : 1;

  auto edge = [&g](int from, int to) { g.succ[static_cast<size_t>(from)].push_back(to); };
  auto start_of = [](int i) { return 2 * i; };
  auto produce_of = [](int i) { return 2 * i + 1; };

  std::array<int, kNumCtxRegs> last_writer;
  last_writer.fill(-1);
  std::array<int, kMaxPredSlots> pred_def;
  pred_def.fill(-1);
  int last_store = -1;

  // Pass 1: dependence discovery. Consumers of an op always come LATER in
  // issue order, so the backpressure rule (which asks for the consumers of
  // an *older* row-mate) needs the full consumer lists before any
  // capacity edge can be placed — hence two passes.
  std::vector<std::vector<int32_t>> deps(static_cast<size_t>(n_ops));
  std::vector<std::vector<int32_t>> consumers(static_cast<size_t>(n_ops));
  // Issue order of ops per row, for in-order queues and capacity windows.
  std::vector<std::vector<int32_t>> row_ops(
      static_cast<size_t>(std::max(config.rows_used, 1)));

  for (int i = 0; i < n_ops; ++i) {
    const ArrayOp& op = config.ops[static_cast<size_t>(i)];
    const uint64_t penalty =
        (trace != nullptr && op.kind == isa::FuKind::kLdSt)
            ? trace->ops[static_cast<size_t>(i)].dcache_penalty
            : 0;
    g.cost[static_cast<size_t>(produce_of(i))] =
        op_duration_slots(op, timing, spc, penalty);

    auto depend = [&](int d) {
      deps[static_cast<size_t>(i)].push_back(d);
      consumers[static_cast<size_t>(d)].push_back(i);
    };

    // Data dependences through the context-register wiring. The wiring is
    // static (placement-time last writer), independent of predicates.
    int srcs[2];
    const int n_src = array_srcs(op.instr, srcs);
    for (int s = 0; s < n_src; ++s) {
      if (srcs[s] == 0) continue;
      const int d = last_writer[static_cast<size_t>(srcs[s])];
      if (d >= 0) depend(d);
    }
    // Predicated ops consume their slot's defining branch.
    if (!op.is_pred_def && op.pred_slot >= 0) {
      const int d = pred_def[static_cast<size_t>(op.pred_slot)];
      if (d >= 0) depend(d);
    }
    // Memory-ordering spine: stores serialize; loads wait on the last
    // prior store but run concurrently with each other.
    if (op.kind == isa::FuKind::kLdSt && last_store >= 0) depend(last_store);

    const size_t row = static_cast<size_t>(
        std::min(std::max(op.row, 0), std::max(config.rows_used - 1, 0)));
    row_ops[row].push_back(i);

    // Static bookkeeping for later ops.
    int dests[2];
    const int n_dst = array_dests(op.instr, dests);
    for (int d = 0; d < n_dst; ++d) {
      if (dests[d] > 0) last_writer[static_cast<size_t>(dests[d])] = i;
    }
    if (op.is_pred_def) pred_def[static_cast<size_t>(op.pred_slot)] = i;
    if (op.kind == isa::FuKind::kLdSt && isa::is_store(op.instr.op)) last_store = i;
  }

  // Pass 2: edges.
  for (int i = 0; i < n_ops; ++i) {
    edge(start_of(i), produce_of(i));
    for (const int32_t d : deps[static_cast<size_t>(i)]) {
      edge(produce_of(d), start_of(i));
    }
  }
  for (const std::vector<int32_t>& mates : row_ops) {
    for (size_t q = 0; q < mates.size(); ++q) {
      // A row's results enter its queue in order.
      if (q > 0) edge(produce_of(mates[q - 1]), produce_of(mates[q]));
      // Capacity backpressure: the q-th op on a row reuses the queue slot
      // of the (q - capacity)-th, which frees only once every consumer of
      // that older result has fired. With no consumers it drains straight
      // to the output bank, which the in-order chain already sequences.
      if (capacity > 0 && static_cast<int>(q) >= capacity) {
        const int older = mates[q - static_cast<size_t>(capacity)];
        for (const int32_t c : consumers[static_cast<size_t>(older)]) {
          edge(start_of(c), produce_of(mates[q]));
        }
      }
    }
  }
  return g;
}

// Kahn longest-path. Returns false on a cycle (deadlock); otherwise sets
// `makespan` to the latest completion over all nodes, in slots.
bool graph_makespan(const EventGraph& g, uint64_t* makespan) {
  const size_t n = g.succ.size();
  std::vector<int32_t> indeg(n, 0);
  for (const auto& adj : g.succ) {
    for (const int32_t v : adj) ++indeg[static_cast<size_t>(v)];
  }
  std::vector<uint64_t> ready(n, 0);
  std::vector<int32_t> queue;
  queue.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(static_cast<int32_t>(v));
  }
  uint64_t best = 0;
  size_t processed = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t u = static_cast<size_t>(queue[head]);
    ++processed;
    const uint64_t finish = ready[u] + g.cost[u];
    best = std::max(best, finish);
    for (const int32_t v : g.succ[u]) {
      const size_t vs = static_cast<size_t>(v);
      ready[vs] = std::max(ready[vs], finish);
      if (--indeg[vs] == 0) queue.push_back(v);
    }
  }
  if (processed != n) return false;  // cycle
  *makespan = best;
  return true;
}

uint64_t slots_to_cycles(uint64_t slots, const ArrayTimingParams& timing) {
  const uint64_t spc =
      timing.alu_rows_per_cycle > 0 ? static_cast<uint64_t>(timing.alu_rows_per_cycle) : 1;
  const uint64_t cycles = (slots + spc - 1) / spc;
  return cycles > 0 ? cycles : 1;
}

class ElasticModel final : public ExecutionModel {
 public:
  explicit ElasticModel(const ExecModeParams& params)
      : capacity_(params.fifo_capacity > 0 ? params.fifo_capacity : 1) {}

  bool admits(const Configuration& config) const override {
    return elastic_admissible(config, capacity_);
  }

  ArrayExecOutcome execute(const Configuration& config, sim::CpuState& state,
                           mem::Memory& memory, mem::Cache* dcache,
                           const ArrayTimingParams& timing,
                           bool resident) const override {
    ArrayExecTrace trace;
    ArrayExecOutcome out =
        execute_configuration(config, state, memory, dcache, timing, resident, &trace);

    const int evaluated = static_cast<int>(trace.ops.size());
    uint64_t bounded = 0;
    uint64_t unbounded = 0;
    const EventGraph g_cap =
        build_event_graph(config, evaluated, capacity_, timing, &trace);
    const EventGraph g_inf =
        build_event_graph(config, evaluated, /*capacity=*/0, timing, &trace);
    if (!graph_makespan(g_cap, &bounded) || !graph_makespan(g_inf, &unbounded)) {
      // Unreachable for admitted configurations (the dispatcher falls back
      // to row-sync on rejection); keep the row-sync timing untouched.
      return out;
    }
    const uint64_t exec = slots_to_cycles(bounded, timing);
    const uint64_t exec_free = slots_to_cycles(unbounded, timing);
    out.exec_cycles = exec;
    out.fifo_stall_cycles = exec - std::min(exec_free, exec);
    // Cache misses rode the dependence edges above — they are part of
    // exec_cycles now, not a separate serial stall.
    out.dcache_stall_cycles = 0;
    return out;
  }

 private:
  int capacity_;
};

}  // namespace

bool elastic_admissible(const Configuration& config, int fifo_capacity) {
  // <= 0 means unbounded queues: no backpressure edges, always acyclic.
  const EventGraph g =
      build_event_graph(config, config.instruction_count(), fifo_capacity,
                        ArrayTimingParams{}, nullptr);
  uint64_t ignored = 0;
  return graph_makespan(g, &ignored);
}

namespace detail {

std::unique_ptr<ExecutionModel> make_elastic_model(const ExecModeParams& params) {
  return std::make_unique<ElasticModel>(params);
}

}  // namespace detail
}  // namespace dim::rra
