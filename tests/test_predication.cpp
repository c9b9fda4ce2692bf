// Predicated if-conversion (hammock/diamond merging): writeback gating on
// registers, HI/LO and stores for both predicate directions, the arm-cap
// fallback to speculation, and end-to-end transparency of an if-converted
// diamond against the plain machine.
#include <gtest/gtest.h>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "bt/translator.hpp"
#include "rra/array_exec.hpp"
#include "sim/executor.hpp"
#include "transparency.hpp"

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

bt::TranslatorParams pred_params() {
  bt::TranslatorParams p;
  p.shape = ArrayShape::config1();
  p.predication = true;
  return p;
}

// A hand-built diamond:
//   0x100  addiu $t0, $0, 5
//   0x104  beq   $s0, $s1, taken       (pred-def)
//   0x108  addiu $t1, $0, 1            (fall-through arm)
//   0x10C  sw    $t1, 0($gp)
//   0x110  b     join                  (join jump, beq $0,$0)
//   0x114  addiu $t1, $0, 2            (taken arm)
//   0x118  mult  $t0, $t0
//   join = 0x11C
Configuration build_diamond() {
  const bt::TranslatorParams params = pred_params();
  bt::ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));
  const std::vector<bt::HammockOp> not_taken = {
      {imm(Op::kAddiu, 9, 0, 1), 0x108},
      {imm(Op::kSw, 9, 28, 0), 0x10C},
  };
  const bt::HammockOp join_jump{imm(Op::kBeq, 0, 0, 2), 0x110};
  const std::vector<bt::HammockOp> taken = {
      {imm(Op::kAddiu, 9, 0, 2), 0x114},
      {r3(Op::kMult, 0, 8, 8), 0x118},
  };
  EXPECT_TRUE(b.try_merge_hammock(imm(Op::kBeq, 17, 16, 3), 0x104, not_taken,
                                  &join_jump, taken));
  EXPECT_EQ(b.pred_slots(), 1);
  return b.finalize(0x11C);
}

TEST(Predication, FallThroughArmWritesTakenArmSquashed) {
  const Configuration c = build_diamond();
  EXPECT_EQ(c.pred_slots, 1);

  sim::CpuState s;
  s.regs[16] = 1;  // $s0 != $s1: branch not taken, fall-through arm active
  s.regs[17] = 2;
  s.regs[28] = 0x10008000;
  s.hi = 0xAAAA;
  s.lo = 0xBBBB;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});

  EXPECT_FALSE(out.misspeculated);  // a pred-def branch can never misspeculate
  EXPECT_EQ(out.next_pc, 0x11Cu);
  EXPECT_EQ(s.regs[8], 5u);
  EXPECT_EQ(s.regs[9], 1u);                      // fall-through write survives
  EXPECT_EQ(m.read32(0x10008000), 1u);           // fall-through store drains
  EXPECT_EQ(s.hi, 0xAAAAu);                      // taken arm's mult squashed
  EXPECT_EQ(s.lo, 0xBBBBu);
  // The join jump retires on the fall-through arm: its branch outcome is
  // recorded (so the predictor trains exactly like the software path).
  ASSERT_EQ(out.branch_outcomes.size(), 2u);
  EXPECT_EQ(out.branch_outcomes[0].pc, 0x104u);
  EXPECT_FALSE(out.branch_outcomes[0].taken);
  EXPECT_TRUE(out.branch_outcomes[0].matched);
  EXPECT_EQ(out.branch_outcomes[1].pc, 0x110u);
  EXPECT_TRUE(out.branch_outcomes[1].taken);
}

TEST(Predication, TakenArmWritesFallThroughStoreSuppressed) {
  const Configuration c = build_diamond();

  sim::CpuState s;
  s.regs[16] = 7;  // $s0 == $s1: branch taken, taken arm active
  s.regs[17] = 7;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  m.write32(0x10008000, 0xDEADBEEF);
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});

  EXPECT_FALSE(out.misspeculated);
  EXPECT_EQ(out.next_pc, 0x11Cu);
  EXPECT_EQ(s.regs[9], 2u);                      // taken-arm write survives
  EXPECT_EQ(m.read32(0x10008000), 0xDEADBEEFu);  // fall-through store suppressed
  EXPECT_FALSE(out.wrote_memory);
  EXPECT_EQ(s.lo, 25u);                          // taken-arm mult commits HI/LO
  EXPECT_EQ(s.hi, 0u);
  // Join jump is not on the taken path: only the pred-def branch retires.
  ASSERT_EQ(out.branch_outcomes.size(), 1u);
  EXPECT_EQ(out.branch_outcomes[0].pc, 0x104u);
  EXPECT_TRUE(out.branch_outcomes[0].taken);
  EXPECT_TRUE(out.branch_outcomes[0].matched);
}

TEST(Predication, SquashedOpsToggleFusButDoNotRetire) {
  const Configuration c = build_diamond();
  sim::CpuState s;
  s.regs[16] = 1;  // not taken: taken arm (addiu + mult) squashed
  s.regs[17] = 2;
  s.regs[28] = 0x10008000;
  mem::Memory m;
  const ArrayExecOutcome out = execute_configuration(c, s, m, nullptr, ArrayTimingParams{});
  // Committed: leading addiu, pred-def, arm addiu, arm sw, join jump = 5.
  EXPECT_EQ(out.committed_ops, 5);
  // The squashed mult still toggles its multiplier (power model sees it).
  EXPECT_EQ(out.mul_ops, 1);
}

TEST(Predication, PredSlotCapRejectsMerge) {
  // A configuration has kMaxPredSlots predicate slots; once all of them
  // guard a hammock, the next one is not merged.
  const bt::TranslatorParams params = pred_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));
  uint32_t pc = 0x104;
  for (int k = 0; k < kMaxPredSlots; ++k, pc += 8) {
    const std::vector<bt::HammockOp> arm = {{imm(Op::kAddiu, 18 + k, 0, 1), pc + 4}};
    ASSERT_TRUE(b.try_merge_hammock(imm(Op::kBeq, 17, 16, 1), pc, arm, nullptr, {}))
        << "hammock " << k;
  }
  const std::vector<bt::HammockOp> arm = {{imm(Op::kAddiu, 26, 0, 1), pc + 4}};
  EXPECT_FALSE(b.try_merge_hammock(imm(Op::kBeq, 17, 16, 1), pc, arm, nullptr, {}));
  EXPECT_EQ(b.pred_slots(), kMaxPredSlots);
}

TEST(Predication, ArmRejectsControlFlowAndUnsupportedOps) {
  const bt::TranslatorParams params = pred_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));
  // A branch inside an arm is never mergeable (arms are straight-line).
  const std::vector<bt::HammockOp> arm = {{imm(Op::kBne, 9, 8, 4), 0x108}};
  EXPECT_FALSE(b.try_merge_hammock(imm(Op::kBeq, 17, 16, 1), 0x104, arm,
                                   nullptr, {}));
}

}  // namespace
}  // namespace dim::rra

namespace dim::accel {
namespace {

// A hot loop with a data-dependent diamond in the body: the branch
// alternates every iteration, so the bimodal gate never saturates in the
// matching direction and speculation alone cannot merge past it.
const char* kDiamondLoop = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 300
        li $s1, 0
        li $s2, 0
        la $s4, buf
loop:   andi $t0, $s2, 1
        addu $t1, $s1, $s2
        bnez $t0, odd
        addiu $s1, $s1, 1
        sw $s1, 0($s4)
        b join
odd:    addiu $s1, $s1, 2
join:   addiu $s2, $s2, 1
        bne $s2, $s0, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

SystemConfig pred_config(bool predication) {
  SystemConfig cfg = SystemConfig::with(rra::ArrayShape::config2(), 64, false);
  cfg.predication = predication;
  return cfg;
}

TEST(Predication, DiamondLoopTransparentAndMerged) {
  const auto prog = asmblr::assemble(kDiamondLoop);
  const auto r = measure_speedup(prog, pred_config(true));
  expect_transparent(r);
  // Positive proof the merge path fired (not the speculation fallback).
  EXPECT_GT(r.accelerated.hammocks_merged, 0u);
}

TEST(Predication, PredicationOffNeverMerges) {
  const auto prog = asmblr::assemble(kDiamondLoop);
  const auto r = measure_speedup(prog, pred_config(false));
  expect_transparent(r);
  EXPECT_EQ(r.accelerated.hammocks_merged, 0u);
}

TEST(Predication, PredicationBeatsAlternatingBranchSpeculation) {
  // On this alternating branch, speculation is useless (the counter never
  // saturates the right way), so if-conversion must win cycles.
  const auto prog = asmblr::assemble(kDiamondLoop);
  SystemConfig spec = SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  SystemConfig pred = pred_config(true);
  const auto spec_run = run_accelerated(prog, spec);
  const auto pred_run = run_accelerated(prog, pred);
  EXPECT_LT(pred_run.cycles, spec_run.cycles);
}

TEST(Predication, OversizedArmFallsBackToSpeculation) {
  // The fall-through arm is 6 instructions — over the 4-instruction cap — so
  // the hammock is rejected and the run must stay transparent via the
  // plain speculation path.
  const char* wide_arm = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 200
        li $s1, 0
        li $s2, 0
        la $s4, buf
loop:   andi $t0, $s2, 1
        addu $t1, $s1, $s2
        bnez $t0, skip
        addiu $s1, $s1, 1
        addiu $s1, $s1, 2
        addiu $s1, $s1, 3
        addiu $s1, $s1, 4
        addiu $s1, $s1, 5
        sw $s1, 0($s4)
skip:   addiu $s2, $s2, 1
        bne $s2, $s0, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(wide_arm);
  SystemConfig cfg = SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  cfg.predication = true;
  const auto r = measure_speedup(prog, cfg);
  expect_transparent(r);
  EXPECT_EQ(r.accelerated.hammocks_merged, 0u);
}

TEST(Predication, ShortIfThenHammockMerges) {
  // If-then (no else arm, no join jump): forward branch over two ops.
  const char* if_then = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 300
        li $s1, 0
        li $s2, 0
        la $s4, buf
loop:   andi $t0, $s2, 1
        addu $t1, $s1, $s2
        bnez $t0, skip
        addiu $s1, $s1, 3
        sw $s1, 0($s4)
skip:   addiu $s2, $s2, 1
        bne $s2, $s0, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(if_then);
  const auto r = measure_speedup(prog, pred_config(true));
  expect_transparent(r);
  EXPECT_GT(r.accelerated.hammocks_merged, 0u);
}

}  // namespace
}  // namespace dim::accel
