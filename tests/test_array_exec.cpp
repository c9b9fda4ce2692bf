// Functional and timing behavior of the reconfigurable array execution.
#include <gtest/gtest.h>

#include "bt/translator.hpp"
#include "rra/array_exec.hpp"
#include "sim/executor.hpp"

namespace dim::rra {
namespace {

using isa::Instr;
using isa::Op;

Instr r3(Op op, int rd, int rs, int rt) {
  Instr i;
  i.op = op;
  i.rd = static_cast<uint8_t>(rd);
  i.rs = static_cast<uint8_t>(rs);
  i.rt = static_cast<uint8_t>(rt);
  return i;
}

Instr imm(Op op, int rt, int rs, int16_t v) {
  Instr i;
  i.op = op;
  i.rt = static_cast<uint8_t>(rt);
  i.rs = static_cast<uint8_t>(rs);
  i.imm16 = static_cast<uint16_t>(v);
  return i;
}

bt::TranslatorParams default_params() {
  bt::TranslatorParams p;
  p.shape = ArrayShape::config1();
  return p;
}

TEST(ArrayExec, ComputesAluChain) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));   // t0 = 5
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));     // t1 = 10
  ASSERT_TRUE(b.try_add(imm(Op::kXori, 10, 9, 3), 0x108));   // t2 = 9
  const Configuration c = b.finalize(0x10C);

  sim::CpuState s;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(out.next_pc, 0x10Cu);
  EXPECT_EQ(out.committed_ops, 3);
  EXPECT_FALSE(out.misspeculated);
  EXPECT_EQ(s.regs[8], 5u);
  EXPECT_EQ(s.regs[9], 10u);
  EXPECT_EQ(s.regs[10], 9u);
  EXPECT_EQ(s.pc, 0x10Cu);
}

TEST(ArrayExec, UsesInputContextFromRegisterBank) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 10, 8, 9), 0x100));
  const Configuration c = b.finalize(0x104);
  sim::CpuState s;
  s.regs[8] = 30;
  s.regs[9] = 12;
  mem::Memory m;
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[10], 42u);
}

TEST(ArrayExec, WawOnlyLastWriteSurvives) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));  // reads first t0
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 99), 0x108));
  const Configuration c = b.finalize(0x10C);
  sim::CpuState s;
  mem::Memory m;
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[8], 99u);  // last writer
  EXPECT_EQ(s.regs[9], 2u);   // consumed the earlier value
}

TEST(ArrayExec, StoreToLoadForwardingInsideConfig) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 0x55), 0x100));
  ASSERT_TRUE(b.try_add(imm(Op::kSw, 8, 28, 0), 0x104));   // [gp] = t0
  ASSERT_TRUE(b.try_add(imm(Op::kLw, 9, 28, 0), 0x108));   // t1 = [gp]
  ASSERT_TRUE(b.try_add(imm(Op::kLb, 10, 28, 0), 0x10C));  // t2 = byte
  const Configuration c = b.finalize(0x110);
  sim::CpuState s;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[9], 0x55u);
  EXPECT_EQ(s.regs[10], 0x55u);
  EXPECT_EQ(m.read32(0x10008000), 0x55u);  // store drained at commit
}

TEST(ArrayExec, PartialStoreForwarding) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 0x7B), 0x100));
  ASSERT_TRUE(b.try_add(imm(Op::kSb, 8, 28, 1), 0x104));   // one byte at +1
  ASSERT_TRUE(b.try_add(imm(Op::kLw, 9, 28, 0), 0x108));   // word read overlapping
  const Configuration c = b.finalize(0x10C);
  sim::CpuState s;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  m.write32(0x10008000, 0xAABBCCDD);
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[9], 0xAABB7BDDu);  // byte merged over memory
}

TEST(ArrayExec, CorrectSpeculationCommitsAllBlocks) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  ASSERT_TRUE(b.try_add_branch(imm(Op::kBne, 0, 8, 3), 0x104, true));  // t0 != 0: taken
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x114));
  const Configuration c = b.finalize(0x118);
  sim::CpuState s;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_FALSE(out.misspeculated);
  EXPECT_EQ(out.committed_bbs, 2);
  EXPECT_EQ(out.next_pc, 0x118u);
  EXPECT_EQ(s.regs[9], 2u);
  ASSERT_EQ(out.branch_outcomes.size(), 1u);
  EXPECT_TRUE(out.branch_outcomes[0].taken);
  EXPECT_TRUE(out.branch_outcomes[0].matched);
}

TEST(ArrayExec, MisspeculationSquashesYoungerBlocks) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 0), 0x100));            // t0 = 0
  ASSERT_TRUE(b.try_add_branch(imm(Op::kBne, 0, 8, 3), 0x104, true)); // predicted taken; actual NT
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 77), 0x114));           // speculative
  ASSERT_TRUE(b.try_add(imm(Op::kSw, 9, 28, 0), 0x118));              // speculative store
  const Configuration c = b.finalize(0x11C);
  sim::CpuState s;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_TRUE(out.misspeculated);
  EXPECT_EQ(out.committed_bbs, 1);
  EXPECT_EQ(out.next_pc, 0x108u);     // fall-through of the branch
  EXPECT_EQ(s.regs[9], 0u);           // speculative write squashed
  EXPECT_EQ(m.read32(0x10008000), 0u);  // speculative store never drained
  EXPECT_EQ(out.committed_ops, 2);    // addiu + the resolving branch
  EXPECT_GT(out.misspec_penalty_cycles, 0u);
}

TEST(ArrayExec, MisspeculatedTakenBranchRedirectsToTarget) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));
  // Predicted not-taken, actually taken (t0 != 0). Displacement +3 words.
  ASSERT_TRUE(b.try_add_branch(imm(Op::kBne, 0, 8, 3), 0x104, false));
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 1), 0x108));
  const Configuration c = b.finalize(0x10C);
  sim::CpuState s;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_TRUE(out.misspeculated);
  EXPECT_EQ(out.next_pc, 0x104u + 4 + 12);
  EXPECT_EQ(s.regs[9], 0u);
}

TEST(ArrayExec, HiLoTravelThroughContext) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 7), 0x100));
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 6), 0x104));
  ASSERT_TRUE(b.try_add(r3(Op::kMult, 0, 8, 9), 0x108));
  ASSERT_TRUE(b.try_add(r3(Op::kMflo, 10, 0, 0), 0x10C));
  const Configuration c = b.finalize(0x110);
  sim::CpuState s;
  mem::Memory m;
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[10], 42u);
  EXPECT_EQ(s.lo, 42u);
  EXPECT_EQ(s.hi, 0u);
}

TEST(ArrayExec, HiLoInputContext) {
  // mflo with LO produced before the configuration.
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(r3(Op::kMflo, 10, 0, 0), 0x100));
  const Configuration c = b.finalize(0x104);
  sim::CpuState s;
  s.lo = 1234;
  mem::Memory m;
  execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  EXPECT_EQ(s.regs[10], 1234u);
}

// --- Timing -------------------------------------------------------------------

TEST(ArrayTiming, AluRowsPack) {
  Configuration c;
  c.rows_used = 6;
  c.row_kinds.assign(6, RowKind::kAlu);
  ArrayTimingParams t;
  t.alu_rows_per_cycle = 3;
  EXPECT_EQ(rows_exec_cycles(c, 5, t), 2u);  // 6 ALU rows / 3 per cycle
  EXPECT_EQ(rows_exec_cycles(c, 2, t), 1u);  // only 3 rows reached
  t.alu_rows_per_cycle = 1;
  EXPECT_EQ(rows_exec_cycles(c, 5, t), 6u);
}

TEST(ArrayTiming, MixedRowKinds) {
  Configuration c;
  c.rows_used = 5;
  c.row_kinds = {RowKind::kAlu, RowKind::kAlu, RowKind::kMem, RowKind::kAlu, RowKind::kMul};
  ArrayTimingParams t;  // 3 ALU rows per cycle, 1 cycle mem, 1 cycle mul
  // ceil(2/3) + 1 + ceil(1/3) + 1 = 1 + 1 + 1 + 1
  EXPECT_EQ(rows_exec_cycles(c, 4, t), 4u);
}

TEST(ArrayTiming, ReconfigStallHiddenByOverlap) {
  Configuration c;
  c.ops.resize(10);
  c.input_regs = 4;
  ArrayTimingParams t;  // 16 words/cycle, 4 read ports, 3 cycles hidden
  EXPECT_EQ(reconfig_stall_cycles(c, t), 0u);
  c.input_regs = 20;  // 5 fetch cycles > 3 overlap
  EXPECT_EQ(reconfig_stall_cycles(c, t), 2u);
  c.input_regs = 4;
  c.ops.resize(100);  // ceil(100/16) = 7 load cycles
  EXPECT_EQ(reconfig_stall_cycles(c, t), 4u);
}

TEST(ArrayTiming, MisspeculatedCommitDrainsOnlyCommittedWrites) {
  // Regression: the write-back drain used to be billed for the FULL
  // configuration's output_regs even when a misspeculation squashed the
  // suffix. A partial commit drains only the registers the committed prefix
  // actually wrote.
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 0), 0x100));             // t0 = 0 (1 write)
  ASSERT_TRUE(b.try_add_branch(imm(Op::kBne, 0, 8, 9), 0x104, true));  // predicted T; actual NT
  // Squashed suffix holds most of the configuration's outputs.
  for (int r = 9; r <= 14; ++r) {
    ASSERT_TRUE(b.try_add(imm(Op::kAddiu, r, 0, static_cast<int16_t>(r)),
                          0x12C + 4 * static_cast<uint32_t>(r - 9)));
  }
  const Configuration c = b.finalize(0x144);
  ASSERT_GE(c.output_regs, 7);  // t0..t6 are all outputs of the full config

  ArrayTimingParams t;
  t.regfile_write_ports = 1;  // makes the drain cost visible per register
  sim::CpuState s;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, t);
  ASSERT_TRUE(out.misspeculated);
  EXPECT_EQ(out.committed_ops, 2);  // addiu + the resolving branch
  // One committed register write -> one drain cycle (== the floor), not the
  // ~7 cycles the full output set would cost.
  EXPECT_EQ(out.finalize_cycles, 1u);
}

TEST(ArrayTiming, FullCommitStillDrainsAllOutputs) {
  // Companion to the regression above: a correct full commit is unchanged —
  // it drains every output register of the configuration.
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  for (int r = 8; r <= 14; ++r) {
    ASSERT_TRUE(b.try_add(imm(Op::kAddiu, r, 0, static_cast<int16_t>(r)),
                          0x100 + 4 * static_cast<uint32_t>(r - 8)));
  }
  const Configuration c = b.finalize(0x11C);
  ASSERT_EQ(c.output_regs, 7);

  ArrayTimingParams t;
  t.regfile_write_ports = 1;
  sim::CpuState s;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, t);
  ASSERT_FALSE(out.misspeculated);
  EXPECT_EQ(out.finalize_cycles, 7u);  // ceil(7 outputs / 1 port)
}

TEST(ArrayTiming, DcacheMissesStallArray) {
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kLw, 9, 28, 0), 0x100));
  const Configuration c = b.finalize(0x104);
  sim::CpuState s;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  mem::CacheParams cp;
  cp.enabled = true;
  cp.miss_penalty = 25;
  mem::Cache dcache(cp);
  const ArrayExecOutcome out = execute_configuration(c, s, m, &dcache, ArrayTimingParams{});
  EXPECT_EQ(out.dcache_stall_cycles, 25u);  // cold miss
}

}  // namespace
}  // namespace dim::rra
