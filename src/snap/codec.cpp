#include "snap/codec.hpp"

#include <algorithm>
#include <vector>

namespace dim::snap {

uint64_t fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

void encode_cache_params(Writer& w, const mem::CacheParams& p) {
  w.u32(p.size_bytes);
  w.u32(p.line_bytes);
  w.u32(p.miss_penalty);
  w.boolean(p.enabled);
}

void encode_machine(Writer& w, const sim::MachineConfig& m) {
  w.u32(m.timing.taken_branch_penalty);
  w.u32(m.timing.load_use_stall);
  w.u32(m.timing.mult_latency);
  w.u32(m.timing.div_latency);
  w.u32(m.timing.issue_width);
  encode_cache_params(w, m.timing.icache);
  encode_cache_params(w, m.timing.dcache);
  w.u64(m.max_instructions);
  w.u32(m.initial_sp);
  w.u32(m.initial_gp);
  // host_trace_dispatch is deliberately NOT encoded: it selects a host-side
  // execution strategy with no architectural or timing effect (pinned by
  // dimsim-fuzz --cmp-dispatch), so snapshots restore across dispatch modes
  // and existing golden .snap fingerprints stay valid.
}

// The translator-facing knobs: everything that shapes WHICH configurations
// get built and how they are placed.
void encode_translation_knobs(Writer& w, const accel::SystemConfig& c) {
  w.i32(c.shape.lines);
  w.i32(c.shape.alus_per_line);
  w.i32(c.shape.muls_per_line);
  w.i32(c.shape.ldsts_per_line);
  w.boolean(c.speculation);
  w.i32(c.max_spec_bbs);
  w.i32(c.min_instructions);
  w.boolean(c.allow_mem);
  w.boolean(c.allow_shifts);
  w.boolean(c.allow_mult);
  w.i32(c.max_input_regs);
  w.i32(c.max_output_regs);
  std::vector<uint32_t> starts(c.allowed_starts.begin(), c.allowed_starts.end());
  std::sort(starts.begin(), starts.end());
  w.u64(starts.size());
  for (uint32_t pc : starts) w.u32(pc);
  w.boolean(c.predication);
  w.i32(c.max_hammock_ops);
  w.i32(c.max_pred_slots);
  w.u8(static_cast<uint8_t>(c.fault_injection));
}

}  // namespace

uint64_t program_hash(const asmblr::Program& program) {
  Writer w;
  w.u32(program.entry);
  w.u64(program.segments.size());
  for (const asmblr::Segment& seg : program.segments) {
    w.u32(seg.base);
    w.u64(seg.bytes.size());
    w.raw(seg.bytes.data(), seg.bytes.size());
  }
  return fnv1a64(w.bytes());
}

uint64_t system_fingerprint(const accel::SystemConfig& config) {
  Writer w;
  encode_machine(w, config.machine);
  encode_translation_knobs(w, config);
  w.i32(config.array_timing.alu_rows_per_cycle);
  w.i32(config.array_timing.mul_row_cycles);
  w.i32(config.array_timing.mem_row_cycles);
  w.i32(config.array_timing.reconfig_overlap_cycles);
  w.i32(config.array_timing.regfile_read_ports);
  w.i32(config.array_timing.regfile_write_ports);
  w.i32(config.array_timing.config_words_per_cycle);
  w.i32(config.array_timing.finalize_cycles);
  w.i32(config.array_timing.misspec_penalty);
  w.u64(config.cache_slots);
  w.u8(static_cast<uint8_t>(config.cache_replacement));
  w.u8(static_cast<uint8_t>(config.residency));
  w.i32(config.misspec_flush_threshold);
  w.u64(config.translation_cost_per_instr);
  w.boolean(config.array_enabled);
  // The execution-mode personality changes timing/stats, so it must key
  // the fingerprint — but it is appended ONLY when non-default, following
  // the host_trace_dispatch precedent above: every row-sync fingerprint
  // (including the committed golden .snap files) keeps its exact pre-mode
  // value.
  if (config.exec_mode.mode != rra::ExecMode::kRowSync) {
    w.u8(static_cast<uint8_t>(config.exec_mode.mode));
    w.i32(config.exec_mode.fifo_capacity);
    w.i32(4);  // reserved slot (codec.hpp)
  }
  return fnv1a64(w.bytes());
}

uint64_t translation_fingerprint(const accel::SystemConfig& config) {
  Writer w;
  encode_translation_knobs(w, config);
  return fnv1a64(w.bytes());
}

void put_cpu(Writer& w, const sim::CpuState& state) {
  for (uint32_t r : state.regs) w.u32(r);
  w.u32(state.pc);
  w.u32(state.hi);
  w.u32(state.lo);
  w.boolean(state.halted);
  w.str(state.output);
}

sim::CpuState get_cpu(Reader& r) {
  sim::CpuState state;
  for (uint32_t& reg : state.regs) reg = r.u32();
  state.pc = r.u32();
  state.hi = r.u32();
  state.lo = r.u32();
  state.halted = r.boolean();
  state.output = r.str();
  return state;
}

void put_stats(Writer& w, const accel::AccelStats& stats) {
  w.u64(stats.instructions);
  w.u64(stats.proc_instructions);
  w.u64(stats.array_instructions);
  w.u64(stats.cycles);
  w.u64(stats.proc_cycles);
  w.u64(stats.array_cycles);
  w.u64(stats.array_exec_cycles);
  w.u64(stats.reconfig_stall_cycles);
  w.u64(stats.array_dcache_stall_cycles);
  w.u64(stats.array_finalize_cycles);
  w.u64(stats.misspec_penalty_cycles);
  w.u64(stats.array_activations);
  w.u64(stats.misspeculations);
  w.u64(stats.config_flushes);
  w.u64(stats.extensions);
  w.u64(stats.rcache_hits);
  w.u64(stats.rcache_misses);
  w.u64(stats.rcache_insertions);
  w.u64(stats.rcache_evictions);
  w.u64(stats.bt_observed);
  w.u64(stats.hammocks_merged);
  w.u64(stats.residency_hits);
  w.u64(stats.residency_drops);
  w.u64(stats.array_alu_ops);
  w.u64(stats.array_mul_ops);
  w.u64(stats.array_mem_ops);
  w.u64(stats.proc_mem_accesses);
  w.u64(stats.config_words_loaded);
  w.u64(stats.config_words_written);
  w.boolean(stats.hit_limit);
  put_cpu(w, stats.final_state);
  w.u64(stats.memory_hash);
}

accel::AccelStats get_stats(Reader& r) {
  accel::AccelStats stats;
  stats.instructions = r.u64();
  stats.proc_instructions = r.u64();
  stats.array_instructions = r.u64();
  stats.cycles = r.u64();
  stats.proc_cycles = r.u64();
  stats.array_cycles = r.u64();
  stats.array_exec_cycles = r.u64();
  stats.reconfig_stall_cycles = r.u64();
  stats.array_dcache_stall_cycles = r.u64();
  stats.array_finalize_cycles = r.u64();
  stats.misspec_penalty_cycles = r.u64();
  stats.array_activations = r.u64();
  stats.misspeculations = r.u64();
  stats.config_flushes = r.u64();
  stats.extensions = r.u64();
  stats.rcache_hits = r.u64();
  stats.rcache_misses = r.u64();
  stats.rcache_insertions = r.u64();
  stats.rcache_evictions = r.u64();
  stats.bt_observed = r.u64();
  stats.hammocks_merged = r.u64();
  stats.residency_hits = r.u64();
  stats.residency_drops = r.u64();
  stats.array_alu_ops = r.u64();
  stats.array_mul_ops = r.u64();
  stats.array_mem_ops = r.u64();
  stats.proc_mem_accesses = r.u64();
  stats.config_words_loaded = r.u64();
  stats.config_words_written = r.u64();
  stats.hit_limit = r.boolean();
  stats.final_state = get_cpu(r);
  stats.memory_hash = r.u64();
  return stats;
}

bool has_exec_stats(const accel::AccelStats& stats) {
  return stats.fifo_stall_cycles != 0 || stats.elastic_deadlock_fallbacks != 0;
}

void put_exec_stats(Writer& w, const accel::AccelStats& stats) {
  w.u64(stats.fifo_stall_cycles);
  w.u64(stats.elastic_deadlock_fallbacks);
  w.u64(0);  // reserved slots (codec.hpp)
  w.u64(0);
}

void get_exec_stats(Reader& r, accel::AccelStats& stats) {
  stats.fifo_stall_cycles = r.u64();
  stats.elastic_deadlock_fallbacks = r.u64();
  r.u64();  // reserved slots (codec.hpp)
  r.u64();
}

void put_array_op(Writer& w, const rra::ArrayOp& op) {
  w.u8(static_cast<uint8_t>(op.instr.op));
  w.u8(op.instr.rs);
  w.u8(op.instr.rt);
  w.u8(op.instr.rd);
  w.u8(op.instr.shamt);
  w.u16(op.instr.imm16);
  w.u32(op.instr.target26);
  w.u32(op.pc);
  w.i32(op.row);
  w.i32(op.col);
  w.u8(static_cast<uint8_t>(op.kind));
  w.i32(op.bb_index);
  w.boolean(op.is_branch);
  w.boolean(op.predicted_taken);
  w.i32(op.pred_slot);
  w.boolean(op.pred_when_taken);
  w.boolean(op.is_pred_def);
  w.boolean(op.is_join_jump);
}

rra::ArrayOp get_array_op(Reader& r) {
  rra::ArrayOp op;
  const uint8_t raw_op = r.u8();
  if (raw_op == 0 || raw_op > static_cast<uint8_t>(isa::Op::kSw)) {
    r.fail("invalid opcode " + std::to_string(raw_op));
  }
  op.instr.op = static_cast<isa::Op>(raw_op);
  op.instr.rs = r.u8();
  op.instr.rt = r.u8();
  op.instr.rd = r.u8();
  op.instr.shamt = r.u8();
  op.instr.imm16 = r.u16();
  op.instr.target26 = r.u32();
  if (op.instr.rs > 31 || op.instr.rt > 31 || op.instr.rd > 31 || op.instr.shamt > 31) {
    r.fail("register field out of range");
  }
  op.pc = r.u32();
  op.row = r.i32();
  op.col = r.i32();
  const uint8_t raw_kind = r.u8();
  if (raw_kind > static_cast<uint8_t>(isa::FuKind::kNone)) {
    r.fail("invalid functional-unit kind " + std::to_string(raw_kind));
  }
  op.kind = static_cast<isa::FuKind>(raw_kind);
  op.bb_index = r.i32();
  op.is_branch = r.boolean();
  op.predicted_taken = r.boolean();
  op.pred_slot = r.i32();
  op.pred_when_taken = r.boolean();
  op.is_pred_def = r.boolean();
  op.is_join_jump = r.boolean();
  if (op.row < 0 || op.col < 0 || op.bb_index < 0) r.fail("negative placement field");
  if (op.pred_slot < -1 || op.pred_slot >= rra::kMaxPredSlots) {
    r.fail("predicate slot out of range");
  }
  if (op.pred_slot < 0 && (op.is_pred_def || op.pred_when_taken)) {
    r.fail("predicate flags without a slot");
  }
  return op;
}

void put_configuration(Writer& w, const rra::Configuration& config) {
  w.u32(config.start_pc);
  w.u32(config.end_pc);
  w.i32(config.num_bbs);
  w.i32(config.input_regs);
  w.i32(config.output_regs);
  w.i32(config.immediates);
  w.i32(config.misspec_count);
  w.boolean(config.no_extend);
  w.i32(config.pred_slots);
  w.u64(config.revision);
  w.i32(config.rows_used);
  w.u64(config.row_kinds.size());
  for (rra::RowKind k : config.row_kinds) w.u8(static_cast<uint8_t>(k));
  w.u64(config.ops.size());
  for (const rra::ArrayOp& op : config.ops) put_array_op(w, op);
}

rra::Configuration get_configuration(Reader& r) {
  rra::Configuration config;
  config.start_pc = r.u32();
  config.end_pc = r.u32();
  config.num_bbs = r.i32();
  config.input_regs = r.i32();
  config.output_regs = r.i32();
  config.immediates = r.i32();
  config.misspec_count = r.i32();
  config.no_extend = r.boolean();
  config.pred_slots = r.i32();
  config.revision = r.u64();
  config.rows_used = r.i32();
  if (config.num_bbs < 1 || config.rows_used < 0 || config.input_regs < 0 ||
      config.output_regs < 0 || config.immediates < 0) {
    r.fail("negative configuration header field");
  }
  if (config.pred_slots < 0 || config.pred_slots > rra::kMaxPredSlots) {
    r.fail("predicate slot count out of range");
  }
  const uint64_t nrows = r.u64();
  r.expect_count(nrows, 1);
  if (nrows != static_cast<uint64_t>(config.rows_used)) {
    r.fail("row_kinds count disagrees with rows_used");
  }
  config.row_kinds.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    const uint8_t k = r.u8();
    if (k > static_cast<uint8_t>(rra::RowKind::kMem)) {
      r.fail("invalid row kind " + std::to_string(k));
    }
    config.row_kinds.push_back(static_cast<rra::RowKind>(k));
  }
  const uint64_t nops = r.u64();
  r.expect_count(nops, 35);  // serialized ArrayOp size
  config.ops.reserve(nops);
  for (uint64_t i = 0; i < nops; ++i) {
    rra::ArrayOp op = get_array_op(r);
    if (op.row >= config.rows_used) r.fail("op row beyond rows_used");
    config.ops.push_back(op);
  }
  return config;
}

void put_profile(Writer& w, const obs::ProfileTable& table) {
  const std::vector<obs::ConfigProfile> profiles = table.by_start_pc();
  w.u64(profiles.size());
  for (const obs::ConfigProfile& p : profiles) {
    w.u32(p.start_pc);
    w.u64(p.activations);
    w.u64(p.committed_ops);
    w.u64(p.misspeculations);
    w.u64(p.exec_cycles);
    w.u64(p.reconfig_stall_cycles);
    w.u64(p.dcache_stall_cycles);
    w.u64(p.finalize_cycles);
    w.u64(p.misspec_penalty_cycles);
    w.u64(p.captures_started);
    w.u64(p.captures_aborted);
    w.u64(p.captures_too_short);
    w.u64(p.finalizations);
    w.u64(p.insertions);
    w.u64(p.evictions);
    w.u64(p.flushes);
    w.u64(p.extensions_begun);
    w.u64(p.extensions_completed);
    w.u64(p.hammocks_merged);
    w.u64(p.residency_hits);
    w.u64(p.residency_drops);
  }
}

obs::ProfileTable get_profile(Reader& r) {
  obs::ProfileTable table;
  const uint64_t count = r.u64();
  r.expect_count(count, 4 + 20 * 8);
  for (uint64_t i = 0; i < count; ++i) {
    obs::ConfigProfile p;
    p.start_pc = r.u32();
    p.activations = r.u64();
    p.committed_ops = r.u64();
    p.misspeculations = r.u64();
    p.exec_cycles = r.u64();
    p.reconfig_stall_cycles = r.u64();
    p.dcache_stall_cycles = r.u64();
    p.finalize_cycles = r.u64();
    p.misspec_penalty_cycles = r.u64();
    p.captures_started = r.u64();
    p.captures_aborted = r.u64();
    p.captures_too_short = r.u64();
    p.finalizations = r.u64();
    p.insertions = r.u64();
    p.evictions = r.u64();
    p.flushes = r.u64();
    p.extensions_begun = r.u64();
    p.extensions_completed = r.u64();
    p.hammocks_merged = r.u64();
    p.residency_hits = r.u64();
    p.residency_drops = r.u64();
    table.add_profile(p);
  }
  return table;
}

}  // namespace dim::snap
