// The DIM binary-translation algorithm: placement rules (RAW rows, resource
// limits, memory ordering), the detection state machine, and speculation
// gating.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "bt/translator.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"
#include "sim/executor.hpp"
#include "sim/machine.hpp"

namespace dim::bt {
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

TranslatorParams params_with(rra::ArrayShape shape) {
  TranslatorParams p;
  p.shape = shape;
  return p;
}

int row_of(const rra::Configuration& c, uint32_t pc) {
  for (const auto& op : c.ops) {
    if (op.pc == pc) return op.row;
  }
  return -999;
}

TEST(ConfigBuilder, IndependentOpsShareRowZero) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x104));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 10, 0, 3), 0x108));
  const auto c = b.finalize(0x10C);
  EXPECT_EQ(c.rows_used, 1);
  for (const auto& op : c.ops) EXPECT_EQ(op.row, 0);
  // Columns assigned left-to-right.
  EXPECT_EQ(c.ops[0].col, 0);
  EXPECT_EQ(c.ops[1].col, 1);
  EXPECT_EQ(c.ops[2].col, 2);
}

TEST(ConfigBuilder, RawDependenceForcesLowerRow) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));       // t0 @ row 0
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));         // t1 = t0+t0 @ row 1
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 10, 9, 8), 0x108));        // t2 = t1+t0 @ row 2
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 11, 0, 5), 0x10C));      // independent @ row 0
  const auto c = b.finalize(0x110);
  EXPECT_EQ(row_of(c, 0x100), 0);
  EXPECT_EQ(row_of(c, 0x104), 1);
  EXPECT_EQ(row_of(c, 0x108), 2);
  EXPECT_EQ(row_of(c, 0x10C), 0);
  EXPECT_EQ(c.rows_used, 3);
}

TEST(ConfigBuilder, ProducerRowInvariantHoldsOnRealCode) {
  // Assemble a nontrivial block and verify: every op sits strictly below
  // every producer of its sources (the paper's dependence-table rule).
  const char* body =
      "main: addiu $t0, $zero, 4\n"
      " addiu $t1, $zero, 9\n"
      " addu $t2, $t0, $t1\n"
      " sll $t3, $t2, 2\n"
      " xor $t4, $t3, $t0\n"
      " ori $t5, $t4, 0xF\n"
      " subu $t6, $t5, $t1\n"
      " break\n";
  const asmblr::Program p = asmblr::assemble(body);
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(p.entry, params);
  sim::CpuState st;
  st.pc = p.entry;
  mem::Memory m;
  p.load_into(m);
  std::vector<rra::ArrayOp> added;
  while (!st.halted) {
    const sim::StepInfo info = sim::step(st, m);
    if (info.instr.op == Op::kBreak) break;
    ASSERT_TRUE(b.try_add(info.instr, info.pc));
  }
  const auto c = b.finalize(0);
  std::array<int, rra::kNumCtxRegs> writer_row;
  writer_row.fill(-1);
  for (const auto& op : c.ops) {
    int srcs[2];
    const int n = rra::array_srcs(op.instr, srcs);
    for (int k = 0; k < n; ++k) {
      if (srcs[k] == 0) continue;
      const int prod = writer_row[static_cast<size_t>(srcs[k])];
      if (prod >= 0) {
        EXPECT_GT(op.row, prod);
      }
    }
    int dsts[2];
    const int nd = rra::array_dests(op.instr, dsts);
    for (int k = 0; k < nd; ++k) writer_row[static_cast<size_t>(dsts[k])] = op.row;
  }
}

TEST(ConfigBuilder, FalseDependenciesDoNotSerialize) {
  // WAR and WAW: t0 rewritten; reader of the OLD t0 can share the row of
  // the new writer (renaming through the context bus).
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));   // t0 = 1   row 0
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));     // t1 = t0+t0 row 1 (reads old t0)
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 7), 0x108));   // t0 = 7 (WAW) row 0
  const auto c = b.finalize(0x10C);
  EXPECT_EQ(row_of(c, 0x108), 0);  // WAW does not push it below row 0
}

TEST(ConfigBuilder, ResourceLimitFillsNextRow) {
  rra::ArrayShape tiny{8, 2, 1, 1};  // 2 ALUs per line
  const TranslatorParams params = params_with(tiny);
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x104));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 10, 0, 3), 0x108));  // row 0 full -> row 1
  const auto c = b.finalize(0x10C);
  EXPECT_EQ(row_of(c, 0x108), 1);
}

TEST(ConfigBuilder, CapacityExhaustionFails) {
  rra::ArrayShape tiny{2, 1, 1, 1};  // 2 lines x 1 ALU
  const TranslatorParams params = params_with(tiny);
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x104));
  EXPECT_FALSE(b.try_add(imm(Op::kAddiu, 10, 0, 3), 0x108));
  EXPECT_EQ(b.size(), 2);  // failed add left the builder unchanged
}

TEST(ConfigBuilder, MemoryOrderingLoadsMayNotPassStores) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kSw, 9, 28, 0), 0x100));   // store @ row 0
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 10, 28, 8), 0x104));  // independent addr load
  const auto c = b.finalize(0x108);
  EXPECT_GT(row_of(c, 0x104), row_of(c, 0x100));
}

TEST(ConfigBuilder, MemoryOrderingStoresMayNotPassLoads) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 10, 28, 8), 0x100));
  EXPECT_TRUE(b.try_add(imm(Op::kSw, 9, 28, 0), 0x104));
  const auto c = b.finalize(0x108);
  EXPECT_GT(row_of(c, 0x104), row_of(c, 0x100));
}

TEST(ConfigBuilder, LoadsMayRunInParallel) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 10, 28, 0), 0x100));
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 11, 28, 4), 0x104));
  const auto c = b.finalize(0x108);
  EXPECT_EQ(row_of(c, 0x100), 0);
  EXPECT_EQ(row_of(c, 0x104), 0);  // 2 LD/ST units per line in config #1
}

TEST(ConfigBuilder, MultWritesHiLoAndMfloReadsThem) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(r3(Op::kMult, 0, 8, 9), 0x100));
  EXPECT_TRUE(b.try_add(r3(Op::kMflo, 10, 0, 0), 0x104));
  EXPECT_TRUE(b.try_add(r3(Op::kMfhi, 11, 0, 0), 0x108));
  const auto c = b.finalize(0x10C);
  EXPECT_EQ(row_of(c, 0x100), 0);
  EXPECT_GT(row_of(c, 0x104), 0);
  EXPECT_GT(row_of(c, 0x108), 0);
  EXPECT_EQ(c.row_kinds[0], rra::RowKind::kMul);
}

TEST(ConfigBuilder, InputAndOutputContextCounted) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 10, 8, 9), 0x100));   // reads t0,t1 writes t2
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 11, 10, 8), 0x104));  // reads t2(int),t0 writes t3
  const auto c = b.finalize(0x108);
  EXPECT_EQ(c.input_regs, 2);   // t0, t1 (t2 produced internally)
  EXPECT_EQ(c.output_regs, 2);  // t2, t3
}

TEST(ConfigBuilder, ZeroRegisterIsNeverContext) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 10, 0, 0), 0x100));
  const auto c = b.finalize(0x104);
  EXPECT_EQ(c.input_regs, 0);
}

TEST(ConfigBuilder, BranchOpensSpeculativeBlock) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_TRUE(b.try_add_branch(imm(Op::kBne, 9, 8, -2), 0x104, true));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 10, 0, 2), 0x108));
  const auto c = b.finalize(0x10C);
  EXPECT_EQ(c.num_bbs, 2);
  EXPECT_EQ(c.ops[0].bb_index, 0);
  EXPECT_TRUE(c.ops[1].is_branch);
  EXPECT_EQ(c.ops[1].bb_index, 0);  // branch belongs to the block it ends
  EXPECT_EQ(c.ops[2].bb_index, 1);
}

TEST(ConfigBuilder, AndLinkBranchesRejected) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  Instr bz;
  bz.op = Op::kBltzal;
  EXPECT_FALSE(b.try_add_branch(bz, 0x100, true));
}

TEST(ConfigBuilder, ReplayReproducesConfiguration) {
  const TranslatorParams params = params_with(rra::ArrayShape::config1());
  ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  ASSERT_TRUE(b.try_add_branch(imm(Op::kBne, 9, 8, 4), 0x104, true));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 10, 8, 8), 0x108));
  const auto c = b.finalize(0x10C);

  ConfigBuilder b2(c.start_pc, params);
  ASSERT_TRUE(b2.replay(c));
  const auto c2 = b2.finalize(0x10C);
  ASSERT_EQ(c2.ops.size(), c.ops.size());
  for (size_t i = 0; i < c.ops.size(); ++i) {
    EXPECT_EQ(c2.ops[i].row, c.ops[i].row);
    EXPECT_EQ(c2.ops[i].col, c.ops[i].col);
    EXPECT_EQ(c2.ops[i].bb_index, c.ops[i].bb_index);
  }
}

// --- Detection state machine --------------------------------------------------

struct Harness {
  TranslatorParams params = params_with(rra::ArrayShape::config1());
  ReconfigCache cache{64};
  BimodalPredictor predictor;
};

sim::StepInfo step_of(Instr i, uint32_t pc, bool taken = false) {
  sim::StepInfo s;
  s.instr = i;
  s.pc = pc;
  s.next_pc = pc + 4;
  s.is_branch = isa::is_branch(i.op);
  s.taken = taken;
  return s;
}

TEST(Translator, CapturesSequenceAfterBranchAndStoresIt) {
  Harness h;
  h.params.speculation = false;
  Translator t(h.params, &h.cache, &h.predictor);
  // Entry: capture starts immediately (start_pending defaults to true).
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kXor, 10, 9, 8), 0x108));
  t.observe(step_of(imm(Op::kOri, 11, 10, 1), 0x10C));
  // A branch ends the sequence; >3 instructions -> cached.
  t.observe(step_of(imm(Op::kBne, 0, 8, -5), 0x110, true));
  ASSERT_TRUE(h.cache.contains(0x100));
  const rra::Configuration* c = h.cache.lookup(0x100);
  EXPECT_EQ(c->instruction_count(), 4);
  EXPECT_EQ(c->end_pc, 0x110u);
  EXPECT_EQ(c->num_bbs, 1);
}

TEST(Translator, ShortSequencesAreDiscarded) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(imm(Op::kBne, 0, 8, -3), 0x108, true));  // only 2 ops
  EXPECT_FALSE(h.cache.contains(0x100));
  EXPECT_EQ(t.stats().too_short, 1u);
}

TEST(Translator, UnsupportedInstructionEndsCaptureWithoutRearming) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  Instr sys;
  sys.op = Op::kSyscall;
  t.observe(step_of(sys, 0x110));
  EXPECT_TRUE(h.cache.contains(0x100));
  // Detection does not restart until the next branch.
  t.observe(step_of(imm(Op::kAddiu, 12, 0, 1), 0x114));
  EXPECT_FALSE(t.capturing());
  t.observe(step_of(imm(Op::kBne, 0, 8, 2), 0x118, true));
  t.observe(step_of(imm(Op::kAddiu, 12, 0, 1), 0x11C));
  EXPECT_TRUE(t.capturing());
}

TEST(Translator, DoesNotRecaptureCachedSequences) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  rra::Configuration c;
  c.start_pc = 0x100;
  h.cache.insert(c);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));  // start pending but cached
  EXPECT_FALSE(t.capturing());
}

TEST(Translator, SpeculationRequiresSaturatedCounter) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  const Instr br = imm(Op::kBne, 0, 8, 4);
  // Counter not saturated: capture ends at the branch.
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  t.observe(step_of(br, 0x110, true));
  ASSERT_TRUE(h.cache.contains(0x100));
  EXPECT_EQ(h.cache.lookup(0x100)->num_bbs, 1);

  // Saturate the counter, flush, recapture: now the branch is merged.
  h.predictor.update(0x110, true);  // counter: 2 -> 3 (one update came from observe)
  ASSERT_TRUE(h.predictor.saturated_direction(0x110).has_value());
  h.cache.flush(0x100);
  t.observe(step_of(br, 0x0FC, true));  // re-arm detection via a branch
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  t.observe(step_of(br, 0x110, true));  // saturated taken & actually taken: merge
  EXPECT_TRUE(t.capturing());
  t.observe(step_of(imm(Op::kAddiu, 12, 0, 2), 0x90));
  Instr sys;
  sys.op = Op::kSyscall;
  t.observe(step_of(sys, 0x94));
  ASSERT_TRUE(h.cache.contains(0x100));
  EXPECT_EQ(h.cache.lookup(0x100)->num_bbs, 2);
}

TEST(Translator, SpeculationDepthCountsBlocksBeyondTheFirst) {
  // max_spec_bbs counts SPECULATIVE basic blocks merged beyond the entry
  // block (the paper's "up to 3 basic blocks deep" speculation), so a
  // configuration holds at most max_spec_bbs + 1 blocks in total. With
  // max_spec_bbs = 2: two branches merge, the third ends the capture.
  Harness h;
  h.params.max_spec_bbs = 2;
  Translator t(h.params, &h.cache, &h.predictor);
  // Saturate every branch counter in the taken direction up front.
  for (uint32_t pc : {0x110u, 0x118u, 0x120u}) {
    h.predictor.update(pc, true);
    h.predictor.update(pc, true);
  }
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  t.observe(step_of(imm(Op::kBne, 0, 8, 4), 0x110, true));   // block 2 opens
  t.observe(step_of(imm(Op::kAddiu, 12, 0, 2), 0x114));
  t.observe(step_of(imm(Op::kBne, 0, 8, 4), 0x118, true));   // block 3 opens
  t.observe(step_of(imm(Op::kAddiu, 13, 0, 3), 0x11C));
  EXPECT_TRUE(t.capturing());
  t.observe(step_of(imm(Op::kBne, 0, 8, 4), 0x120, true));   // depth spent: ends capture
  EXPECT_FALSE(t.capturing());
  const rra::Configuration* c = h.cache.peek(0x100);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num_bbs, 3);  // max_spec_bbs + 1 total
  EXPECT_EQ(c->end_pc, 0x120u);
}

TEST(Translator, StartCandidateMissIsCounted) {
  // The translator registers exactly one rcache miss per untranslated
  // sequence-start candidate; plain observation of the body does not count.
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));  // start candidate: miss
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  EXPECT_EQ(h.cache.misses(), 1u);
  t.observe(step_of(imm(Op::kBne, 0, 8, -5), 0x110, true));  // stores the config
  // Re-encountering the now-cached start counts no further miss.
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_EQ(h.cache.misses(), 1u);
  EXPECT_EQ(t.stats().captures_started, 1u);
}

TEST(Translator, SpeculationDisabledNeverMerges) {
  Harness h;
  h.params.speculation = false;
  Translator t(h.params, &h.cache, &h.predictor);
  h.predictor.update(0x110, true);
  h.predictor.update(0x110, true);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  t.observe(step_of(r3(Op::kAddu, 9, 8, 8), 0x104));
  t.observe(step_of(r3(Op::kAddu, 10, 9, 8), 0x108));
  t.observe(step_of(r3(Op::kAddu, 11, 10, 8), 0x10C));
  t.observe(step_of(imm(Op::kBne, 0, 8, 4), 0x110, true));
  ASSERT_TRUE(h.cache.contains(0x100));
  EXPECT_EQ(h.cache.lookup(0x100)->num_bbs, 1);
}

TEST(Translator, ArrayExecutionAbortsCapture) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  t.observe(step_of(imm(Op::kAddiu, 8, 0, 1), 0x100));
  EXPECT_TRUE(t.capturing());
  t.on_array_executed();
  EXPECT_FALSE(t.capturing());
  EXPECT_EQ(t.stats().captures_aborted, 1u);
}

TEST(Translator, ExtensionAppendsBasicBlock) {
  Harness h;
  Translator t(h.params, &h.cache, &h.predictor);
  // Seed a cached config of 4 ops ending right before a branch at 0x110.
  ConfigBuilder b(0x100, h.params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 10, 9, 8), 0x108));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 11, 10, 8), 0x10C));
  h.cache.insert(b.finalize(0x110));

  const Instr br = imm(Op::kBne, 0, 8, 4);
  ASSERT_TRUE(t.begin_extension(*h.cache.lookup(0x100), br, 0x110, true));
  EXPECT_TRUE(t.extending());
  t.observe(step_of(imm(Op::kAddiu, 12, 0, 9), 0x124));
  Instr sys;
  sys.op = Op::kSyscall;
  t.observe(step_of(sys, 0x128));
  EXPECT_FALSE(t.extending());
  const rra::Configuration* c = h.cache.lookup(0x100);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num_bbs, 2);
  EXPECT_EQ(c->instruction_count(), 6);  // 4 + branch + 1
  EXPECT_EQ(c->end_pc, 0x128u);
  EXPECT_EQ(t.stats().extensions_completed, 1u);
}

}  // namespace
}  // namespace dim::bt
