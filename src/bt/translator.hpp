// DIM — Dynamic Instruction Merging. The hardware binary translator that
// watches the retired instruction stream and builds array configurations.
//
// Detection (paper §4.2): translation starts at the first instruction after
// a branch execution and stops at an unsupported instruction or another
// branch (unless speculating). Sequences longer than 3 instructions are
// saved to the reconfiguration cache, indexed by start PC.
//
// Allocation: for each incoming instruction the source operands are checked
// against the per-line bitmap of target registers (the dependence table);
// the instruction is placed in the first line below all of its producers
// that still has a free functional unit of the right group (the resource
// table), at the leftmost free column. False dependencies (WAR/WAW) need no
// serialization: operands are routed from the producing line's bus position,
// and only the last write of each register leaves the array.
//
// Speculation: once the bimodal counter of the terminating branch is
// saturated, the following basic block is merged into the configuration
// (up to `max_spec_bbs` levels deep).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "isa/instruction.hpp"
#include "obs/event.hpp"
#include "rra/array_shape.hpp"
#include "rra/configuration.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "sim/cpu_state.hpp"

namespace dim::bt {

// Deliberate translation bugs for fuzzer self-tests (src/fuzz/): the
// differential fuzzer must detect each of these as a transparency
// divergence and shrink a failing program to a small reproducer. Always
// kNone outside tests — see tests/test_fuzz.cpp and `dimsim-fuzz
// --self-test`. Faults corrupt only the *semantics* of the placed op
// (never its operand registers as seen by the dependence tables), so every
// placement invariant still holds and the bug is observable exclusively as
// wrong architectural state.
enum class FaultInjection : uint8_t {
  kNone = 0,
  kAddiuImmOffByOne,   // every addiu placed on the array gets imm16 ^= 1
  kSubuSwapOperands,   // every subu placed on the array computes rt - rs
};

struct TranslatorParams {
  rra::ArrayShape shape = rra::ArrayShape::config1();
  bool speculation = true;
  // Speculative basic blocks merged BEYOND the entry block ("up to 3 basic
  // blocks deep"): a configuration spans at most max_spec_bbs + 1 blocks
  // in total. See the depth guard in Translator::observe.
  int max_spec_bbs = 3;
  int min_instructions = 4;  // "more than three instructions"
  int max_input_regs = rra::kNumCtxRegs;
  int max_output_regs = rra::kNumCtxRegs;

  // Related-work emulation knobs (paper §2.2). The CCA of Clark et al.
  // "does not support memory operations or shifts, limiting its field of
  // application and, as a consequence, it supports only a limited number
  // of inputs and outputs" — model that by disallowing those operations.
  bool allow_mem = true;
  bool allow_shifts = true;
  bool allow_mult = true;

  // If-conversion (hammock predication). When enabled, a short forward
  // hammock (`if-then`) or diamond (`if-then-else` with an internal
  // unconditional join jump) whose terminating branch the speculation path
  // declined to merge is if-converted: both arms are placed into the same
  // configuration guarded by a predicate slot, and the branch becomes a
  // predicate-defining op that can never misspeculate. Oversized or
  // non-straight-line hammocks fall back to the speculation path untouched.
  // Arms hold at most 4 instructions in total (the join jump is free), and
  // a configuration holds at most rra::kMaxPredSlots hammocks.
  bool predication = false;

  // Warp-processing-style kernel-only optimization: when non-empty, only
  // sequences starting at these PCs (the profiled hot spots) are
  // translated — everything else stays on the processor.
  std::unordered_set<uint32_t> allowed_starts;

  // Array execution personality (src/rra/exec_mode/). The translator
  // consults it at config-build time: under the elastic mode every
  // finalized configuration is classified for deadlock freedom
  // (Configuration::elastic_memo) so the execution model can fall back to
  // row-sync without re-analyzing on the hot path.
  rra::ExecModeParams exec_mode;

  // Test-only planted translator bug (see FaultInjection above).
  FaultInjection fault = FaultInjection::kNone;
};

// The DIM detection-phase tables of one in-flight translation: the
// ConfigBuilder's whole state, and what a checkpoint persists of an open
// capture. A checkpoint can land in the middle of a capture, and a
// resumed run must keep building the configuration exactly where the
// straight run would — so the tables are serialized as-is, never
// reconstructed by replaying ops (replaying would re-apply fault
// injection and double-corrupt planted-bug ops).
struct BuilderState {
  uint32_t start_pc = 0;
  std::vector<rra::ArrayOp> ops;
  // Resource table: per line, the units in use of each group (alu, mul,
  // ldst).
  std::vector<std::array<int, 3>> rows;
  // Dependence table: last line writing each context register (-1 = none).
  std::array<int, rra::kNumCtxRegs> last_writer_row{};
  // Reads table (input context) and writes table, one bit per context
  // register: kNumCtxRegs (34) bits fit one u64.
  uint64_t input_ctx_bits = 0;
  uint64_t written_bits = 0;
  int last_mem_row = -1;
  int last_store_row = -1;
  int bb = 0;
  int immediates = 0;
  int pred_slots = 0;
};

// One look-ahead instruction of a hammock arm (static code at `pc`).
struct HammockOp {
  isa::Instr instr;
  uint32_t pc = 0;
};

// Reads and decodes static code at `pc` for hammock look-ahead (the
// translator's window into the fetch path). Returns nullopt when the
// address is unreadable. Wired by the accelerated system; not serialized —
// the owner re-attaches it after a checkpoint restore.
using CodeReader = std::function<std::optional<isa::Instr>(uint32_t)>;

// Places instructions into the detection-phase tables of one in-flight
// translation. It refers to `params` without copying them, so they must
// outlive the builder (the translator's own copy does); a temporary is
// refused at compile time.
class ConfigBuilder {
 public:
  ConfigBuilder(uint32_t start_pc, const TranslatorParams& params);
  ConfigBuilder(uint32_t start_pc, TranslatorParams&& params) = delete;

  // Checkpoint restore: adopts exported tables. The params must be the
  // ones the state was exported under.
  ConfigBuilder(BuilderState state, const TranslatorParams& params)
      : params_(&params), s_(std::move(state)) {}
  ConfigBuilder(BuilderState state, TranslatorParams&& params) = delete;

  // Attempts to place a (supported, non-branch) instruction. Returns false
  // when a capacity limit is hit; the builder is left unchanged.
  bool try_add(const isa::Instr& instr, uint32_t pc);

  // Attempts to place a conditional branch and open the next (speculative)
  // basic block behind it.
  bool try_add_branch(const isa::Instr& instr, uint32_t pc, bool predicted_taken);

  // Replays an existing configuration into this builder (used to extend a
  // cached configuration with a further basic block). Returns false if the
  // replay does not fit (it always should, for the shape it was built for).
  bool replay(const rra::Configuration& config);

  // If-conversion: places `branch` as a predicate-defining op and both arms
  // (and the diamond's join jump, when present) guarded by a fresh predicate
  // slot. On failure the builder may be left dirty — the caller merges into
  // a copy and discards it when this returns false.
  bool try_merge_hammock(const isa::Instr& branch, uint32_t branch_pc,
                         const std::vector<HammockOp>& not_taken_arm,
                         const HammockOp* join_jump,
                         const std::vector<HammockOp>& taken_arm);

  rra::Configuration finalize(uint32_t end_pc) const;

  const BuilderState& export_state() const { return s_; }

  int size() const { return static_cast<int>(s_.ops.size()); }
  int num_bbs() const { return s_.bb + 1; }
  int pred_slots() const { return s_.pred_slots; }
  uint32_t start_pc() const { return s_.start_pc; }

 private:
  // Placement options for the core routine shared by every add path.
  struct PlaceOpts {
    bool is_branch = false;
    bool predicted_taken = false;
    int pred_slot = -1;
    bool pred_when_taken = false;
    bool is_pred_def = false;
    bool is_join_jump = false;
    int min_row_floor = 0;  // predicated ops sit below their pred-def row
  };

  bool place(const isa::Instr& instr, uint32_t pc, const PlaceOpts& opts);

  const TranslatorParams* params_;  // never null
  BuilderState s_;
};

struct TranslatorStats {
  uint64_t captures_started = 0;
  uint64_t configs_inserted = 0;
  uint64_t captures_aborted = 0;    // capacity / stream discontinuity
  uint64_t too_short = 0;           // sequence did not exceed 3 instructions
  uint64_t extensions_completed = 0;
  uint64_t observed_instructions = 0;
  uint64_t hammocks_merged = 0;     // if-converted hammocks/diamonds
  uint64_t hammock_rejects = 0;     // candidates declined (caps / capacity)
};

// The translator's state outside an open capture: counters and detection
// latches. With the open capture's BuilderState (Translator::capture()),
// what a checkpoint persists.
struct TranslatorState {
  TranslatorStats stats;
  bool start_pending = true;  // program entry starts a sequence
  bool extending = false;
  // Hammock skip window: after a merge the already-placed arm instructions
  // retire on the processor and must not be re-captured.
  bool skipping = false;
  uint32_t skip_lo = 0;
  uint32_t skip_until = 0;
};

// The detection engine. Consumes the retired stream of the processor and
// fills the reconfiguration cache. Runs "in parallel": it costs no cycles.
class Translator {
 public:
  Translator(const TranslatorParams& params, ReconfigCache* cache,
             BimodalPredictor* predictor);
  // The open capture refers to params(), so a copy would dangle.
  Translator(const Translator&) = delete;
  Translator& operator=(const Translator&) = delete;

  // Observes one normally-retired instruction.
  void observe(const sim::StepInfo& info);

  // The array executed a configuration: the observed stream is
  // discontinuous, so any in-flight capture is dropped.
  void on_array_executed();

  // Starts extending `config` by one basic block: `branch` (at end_pc) was
  // just retired with outcome == predicted_taken and a saturated counter.
  // Returns false if the existing ops + branch do not fit.
  bool begin_extension(const rra::Configuration& config, const isa::Instr& branch,
                       uint32_t branch_pc, bool predicted_taken);

  bool extending() const { return s_.extending; }
  bool capturing() const { return builder_.has_value(); }
  const TranslatorStats& stats() const { return s_.stats; }
  const TranslatorParams& params() const { return params_; }

  // Checkpoint support: the latches, and the open capture's tables (null
  // when none is open). Restore is silent (no events): restoring state is
  // not translation activity.
  const TranslatorState& export_state() const { return s_; }
  const BuilderState* capture() const {
    return builder_ ? &builder_->export_state() : nullptr;
  }
  void restore_state(const TranslatorState& state, std::optional<BuilderState> capture);

  // Attaches the capture-lifecycle event stream (started / aborted /
  // too-short / finalized, extension begun / completed). Null disables.
  void set_event_stream(obs::EventStream* events) { events_ = events; }

  // Attaches the static-code look-ahead used by hammock detection. Without
  // a reader, predication is inert (no hammock is ever merged).
  void set_code_reader(CodeReader reader) { code_reader_ = std::move(reader); }

 private:
  void finalize_capture(uint32_t end_pc);
  void abort_capture();
  // Attempts to if-convert the hammock starting at `branch_pc`. On success
  // the merged ops are in the builder and the skip window is armed.
  bool try_hammock_merge(const isa::Instr& branch, uint32_t branch_pc);
  void emit(obs::EventKind kind, uint32_t config_pc, int32_t ops = 0,
            int32_t depth = 0, uint32_t branch_pc = 0);

  TranslatorParams params_;
  ReconfigCache* cache_;
  BimodalPredictor* predictor_;
  std::optional<ConfigBuilder> builder_;
  TranslatorState s_;
  obs::EventStream* events_ = nullptr;  // not owned; null = tracing off
  CodeReader code_reader_;              // null = no hammock look-ahead
};

}  // namespace dim::bt
