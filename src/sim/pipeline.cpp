#include "sim/pipeline.hpp"

#include "isa/instruction.hpp"

namespace dim::sim {

using isa::Op;

RetireRecord RetireRecord::classify(const isa::Instr& i) {
  RetireRecord r;
  r.dest = static_cast<int8_t>(isa::dest_reg(i));
  int srcs[2];
  r.nsrc = static_cast<uint8_t>(isa::src_regs(i, srcs));
  if (r.nsrc > 0) r.src0 = static_cast<int8_t>(srcs[0]);
  if (r.nsrc > 1) r.src1 = static_cast<int8_t>(srcs[1]);
  r.is_load = isa::is_load(i.op);
  r.is_mem_op = r.is_load || isa::is_store(i.op);
  r.is_hilo_write = isa::is_mult_div(i.op);
  r.is_div = i.op == Op::kDiv || i.op == Op::kDivu;
  r.is_hilo_touch =
      isa::is_hilo_read(i.op) || i.op == Op::kMthi || i.op == Op::kMtlo;
  return r;
}

uint64_t PipelineModel::retire(const StepInfo& info) {
  RetireRecord r = RetireRecord::classify(info.instr);
  r.pc = info.pc;
  r.mem_access = info.mem_access;
  r.mem_addr = info.mem_addr;
  r.taken = info.taken;
  return retire(r);
}

uint64_t PipelineModel::retire(const RetireRecord& r) {
  const uint64_t before = cycles_;

  // Load-use interlock against the immediately preceding instruction.
  const bool load_use =
      pending_load_reg_ > 0 && ((r.nsrc > 0 && r.src0 == pending_load_reg_) ||
                                (r.nsrc > 1 && r.src1 == pending_load_reg_));

  // Dual-issue pairing: share the previous instruction's cycle when legal.
  bool paired = false;
  if (params_.issue_width >= 2 && slot_open_ && !load_use) {
    const bool raw = slot_dest_ > 0 && ((r.nsrc > 0 && r.src0 == slot_dest_) ||
                                        (r.nsrc > 1 && r.src1 == slot_dest_));
    if (!raw && !(slot_mem_ && r.is_mem_op) && !(slot_hilo_ && r.is_hilo_write)) {
      paired = true;
    }
  }

  if (paired) {
    slot_open_ = false;  // the pair is complete
  } else {
    cycles_ += 1;  // new issue cycle
    slot_open_ = params_.issue_width >= 2;
    slot_dest_ = r.dest;
    slot_mem_ = r.is_mem_op;
    slot_hilo_ = r.is_hilo_write;
  }

  cycles_ += icache_.access(r.pc);
  if (load_use) cycles_ += params_.load_use_stall;
  pending_load_reg_ = r.is_load ? r.dest : -1;

  if (r.mem_access) cycles_ += dcache_.access(r.mem_addr);

  hilo_interlock(r, cycles_, hilo_ready_);

  if (r.taken) {
    cycles_ += params_.taken_branch_penalty;
    slot_open_ = false;  // redirect: nothing pairs across a taken transfer
  }

  return cycles_ - before;
}

void PipelineModel::reset() {
  cycles_ = 0;
  pending_load_reg_ = -1;
  hilo_ready_ = 0;
  slot_open_ = false;
  slot_dest_ = -1;
  slot_mem_ = false;
  slot_hilo_ = false;
  icache_.reset();
  dcache_.reset();
}

PipelineState PipelineModel::export_state() const {
  PipelineState s;
  s.cycles = cycles_;
  s.pending_load_reg = pending_load_reg_;
  s.hilo_ready = hilo_ready_;
  s.slot_open = slot_open_;
  s.slot_dest = slot_dest_;
  s.slot_mem = slot_mem_;
  s.slot_hilo = slot_hilo_;
  s.icache = icache_.export_state();
  s.dcache = dcache_.export_state();
  return s;
}

void PipelineModel::restore_state(const PipelineState& state) {
  icache_.restore_state(state.icache);
  dcache_.restore_state(state.dcache);
  cycles_ = state.cycles;
  pending_load_reg_ = state.pending_load_reg;
  hilo_ready_ = state.hilo_ready;
  slot_open_ = state.slot_open;
  slot_dest_ = state.slot_dest;
  slot_mem_ = state.slot_mem;
  slot_hilo_ = state.slot_hilo;
}

}  // namespace dim::sim
