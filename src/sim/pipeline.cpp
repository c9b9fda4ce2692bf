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
  const uint64_t before = s_.cycles;

  // Load-use interlock against the immediately preceding instruction.
  const bool load_use =
      s_.pending_load_reg > 0 && ((r.nsrc > 0 && r.src0 == s_.pending_load_reg) ||
                                  (r.nsrc > 1 && r.src1 == s_.pending_load_reg));

  // Dual-issue pairing: share the previous instruction's cycle when legal.
  bool paired = false;
  if (params_.issue_width >= 2 && s_.slot_open && !load_use) {
    const bool raw = s_.slot_dest > 0 && ((r.nsrc > 0 && r.src0 == s_.slot_dest) ||
                                          (r.nsrc > 1 && r.src1 == s_.slot_dest));
    if (!raw && !(s_.slot_mem && r.is_mem_op) && !(s_.slot_hilo && r.is_hilo_write)) {
      paired = true;
    }
  }

  if (paired) {
    s_.slot_open = false;  // the pair is complete
  } else {
    s_.cycles += 1;  // new issue cycle
    s_.slot_open = params_.issue_width >= 2;
    s_.slot_dest = r.dest;
    s_.slot_mem = r.is_mem_op;
    s_.slot_hilo = r.is_hilo_write;
  }

  s_.cycles += icache_.access(r.pc);
  if (load_use) s_.cycles += params_.load_use_stall;
  s_.pending_load_reg = r.is_load ? r.dest : -1;

  if (r.mem_access) s_.cycles += dcache_.access(r.mem_addr);

  hilo_interlock(r, s_.cycles, s_.hilo_ready);

  if (r.taken) {
    s_.cycles += params_.taken_branch_penalty;
    s_.slot_open = false;  // redirect: nothing pairs across a taken transfer
  }

  return s_.cycles - before;
}

void PipelineModel::reset() {
  s_ = PipelineState{};
  icache_.reset();
  dcache_.reset();
}

}  // namespace dim::sim
