#include "snap/codec.hpp"

#include <algorithm>
#include <vector>

#include "isa/instruction.hpp"

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
  // The entry $sp and $gp are constants; they stay in the hash so every
  // fingerprint, and with it every golden and store key, keeps its value.
  w.u32(sim::kInitialSp);
  w.u32(sim::kInitialGp);
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
  w.u8(static_cast<uint8_t>(c.fault));
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
  w.boolean(config.residency);
  w.i32(config.misspec_flush_threshold);
  w.u64(config.translation_cost_per_instr);
  // The execution-mode personality changes timing/stats, so it keys the
  // fingerprint. fifo_capacity only matters under elastic, so row-sync
  // systems that differ in it alone share a fingerprint.
  if (config.exec_mode.mode != rra::ExecMode::kRowSync) {
    w.u8(static_cast<uint8_t>(config.exec_mode.mode));
    w.i32(config.exec_mode.fifo_capacity);
  }
  return fnv1a64(w.bytes());
}

bool has_exec_stats(const accel::AccelStats& stats) {
  return stats.fifo_stall_cycles != 0 || stats.elastic_deadlock_fallbacks != 0;
}

template <class IO>
void cpu_fields(IO& io, Field<IO, sim::CpuState>& s) {
  for (auto& reg : s.regs) io.u32(reg);
  io.u32(s.pc);
  io.u32(s.hi);
  io.u32(s.lo);
  io.boolean(s.halted);
  io.str(s.output);
}

template <class IO>
void stats_fields(IO& io, Field<IO, accel::AccelStats>& s) {
  io.u64(s.instructions);
  io.u64(s.proc_instructions);
  io.u64(s.array_instructions);
  io.u64(s.cycles);
  io.u64(s.proc_cycles);
  io.u64(s.array_cycles);
  io.u64(s.array_exec_cycles);
  io.u64(s.reconfig_stall_cycles);
  io.u64(s.array_dcache_stall_cycles);
  io.u64(s.array_finalize_cycles);
  io.u64(s.misspec_penalty_cycles);
  io.u64(s.array_activations);
  io.u64(s.misspeculations);
  io.u64(s.config_flushes);
  io.u64(s.extensions);
  io.u64(s.rcache_hits);
  io.u64(s.rcache_misses);
  io.u64(s.rcache_insertions);
  io.u64(s.rcache_evictions);
  io.u64(s.bt_observed);
  io.u64(s.hammocks_merged);
  io.u64(s.residency_hits);
  io.u64(s.residency_drops);
  io.u64(s.array_alu_ops);
  io.u64(s.array_mul_ops);
  io.u64(s.array_mem_ops);
  io.u64(s.proc_mem_accesses);
  io.u64(s.config_words_loaded);
  io.u64(s.config_words_written);
  io.boolean(s.hit_limit);
  cpu_fields(io, s.final_state);
  io.u64(s.memory_hash);
}

template <class IO>
void exec_stats_fields(IO& io, Field<IO, accel::AccelStats>& s) {
  io.u64(s.fifo_stall_cycles);
  io.u64(s.elastic_deadlock_fallbacks);
}

template <class IO>
void array_op_fields(IO& io, Field<IO, rra::ArrayOp>& op) {
  io.enum8(op.instr.op, isa::Op::kSll, isa::Op::kSw);
  io.u8(op.instr.rs);
  io.u8(op.instr.rt);
  io.u8(op.instr.rd);
  io.u8(op.instr.shamt);
  io.u16(op.instr.imm16);
  io.u32(op.instr.target26);
  io.u32(op.pc);
  io.i32(op.row);
  io.i32(op.col);
  io.enum8(op.kind, isa::FuKind::kAlu, isa::FuKind::kNone);
  io.i32(op.bb_index);
  io.boolean(op.is_branch);
  io.boolean(op.predicted_taken);
  io.i32(op.pred_slot);
  io.boolean(op.pred_when_taken);
  io.boolean(op.is_pred_def);
  io.boolean(op.is_join_jump);
  if constexpr (IO::kReading) {
    const isa::Instr& in = op.instr;
    if (in.rs > 31 || in.rt > 31 || in.rd > 31 || in.shamt > 31) {
      io.fail("register field out of range");
    }
    if (op.row < 0 || op.col < 0 || op.bb_index < 0) io.fail("negative placement field");
    if (op.pred_slot < -1 || op.pred_slot >= rra::kMaxPredSlots) {
      io.fail("predicate slot out of range");
    }
    if (op.pred_slot < 0 && (op.is_pred_def || op.pred_when_taken)) {
      io.fail("predicate flags without a slot");
    }
  }
}

template <class IO>
void configuration_fields(IO& io, Field<IO, rra::Configuration>& c) {
  io.u32(c.start_pc);
  io.u32(c.end_pc);
  io.i32(c.num_bbs);
  io.i32(c.input_regs);
  io.i32(c.output_regs);
  io.i32(c.immediates);
  io.i32(c.misspec_count);
  io.boolean(c.no_extend);
  io.i32(c.pred_slots);
  io.u64(c.revision);
  io.i32(c.rows_used);
  io.count(c.row_kinds, 1);
  if constexpr (IO::kReading) {
    if (c.num_bbs < 1 || c.rows_used < 0 || c.input_regs < 0 || c.output_regs < 0 ||
        c.immediates < 0) {
      io.fail("negative configuration header field");
    }
    if (c.pred_slots < 0 || c.pred_slots > rra::kMaxPredSlots) {
      io.fail("predicate slot count out of range");
    }
    if (c.row_kinds.size() != static_cast<size_t>(c.rows_used)) {
      io.fail("row_kinds count disagrees with rows_used");
    }
  }
  for (auto& kind : c.row_kinds) io.enum8(kind, rra::RowKind::kAlu, rra::RowKind::kMem);
  io.count(c.ops, kArrayOpBytes);
  for (auto& op : c.ops) {
    array_op_fields(io, op);
    if constexpr (IO::kReading) {
      if (op.row >= c.rows_used) io.fail("op row beyond rows_used");
    }
  }
}

template <class IO>
void configurations_fields(IO& io, Field<IO, std::vector<rra::Configuration>>& list) {
  io.count(list, 50);  // minimum serialized Configuration size
  for (auto& config : list) configuration_fields(io, config);
}

template <class IO>
void profile_fields(IO& io, Field<IO, obs::ProfileTable>& table) {
  std::vector<obs::ConfigProfile> profiles;
  if constexpr (!IO::kReading) profiles = table.by_start_pc();
  io.count(profiles, 4 + 20 * 8);
  for (obs::ConfigProfile& p : profiles) {
    io.u32(p.start_pc);
    io.u64(p.activations);
    io.u64(p.committed_ops);
    io.u64(p.misspeculations);
    io.u64(p.exec_cycles);
    io.u64(p.reconfig_stall_cycles);
    io.u64(p.dcache_stall_cycles);
    io.u64(p.finalize_cycles);
    io.u64(p.misspec_penalty_cycles);
    io.u64(p.captures_started);
    io.u64(p.captures_aborted);
    io.u64(p.captures_too_short);
    io.u64(p.finalizations);
    io.u64(p.insertions);
    io.u64(p.evictions);
    io.u64(p.flushes);
    io.u64(p.extensions_begun);
    io.u64(p.extensions_completed);
    io.u64(p.hammocks_merged);
    io.u64(p.residency_hits);
    io.u64(p.residency_drops);
    if constexpr (IO::kReading) table.add_profile(p);
  }
}

template void cpu_fields(Writer&, const sim::CpuState&);
template void cpu_fields(Reader&, sim::CpuState&);
template void stats_fields(Writer&, const accel::AccelStats&);
template void stats_fields(Reader&, accel::AccelStats&);
template void exec_stats_fields(Writer&, const accel::AccelStats&);
template void exec_stats_fields(Reader&, accel::AccelStats&);
template void array_op_fields(Writer&, const rra::ArrayOp&);
template void array_op_fields(Reader&, rra::ArrayOp&);
template void configuration_fields(Writer&, const rra::Configuration&);
template void configuration_fields(Reader&, rra::Configuration&);
template void configurations_fields(Writer&, const std::vector<rra::Configuration>&);
template void configurations_fields(Reader&, std::vector<rra::Configuration>&);
template void profile_fields(Writer&, const obs::ProfileTable&);
template void profile_fields(Reader&, obs::ProfileTable&);

}  // namespace dim::snap
