// Component-level differential fuzzing: random *supported* instruction
// sequences are (a) executed step-by-step by the functional core and
// (b) translated by ConfigBuilder and executed on the array. Results must
// be bit-identical, and the placement must respect the dependence-table
// invariants. This isolates translator/array bugs without the whole system
// in the loop.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "bt/translator.hpp"
#include "fuzz/generator.hpp"
#include "isa/encoder.hpp"
#include "mem/memory.hpp"
#include "rra/array_exec.hpp"
#include "sim/executor.hpp"

namespace dim {
namespace {

using isa::Instr;
using isa::Op;

struct RandomSequence {
  std::vector<Instr> instrs;
};

// The full array-supported op set, grouped by encoding form. Any op DIM can
// place must appear in the random sequences (asserted by the coverage test
// below), so a translator or FU regression on a rare op can't hide.
const Op kThreeReg[] = {Op::kAddu, Op::kSubu, Op::kAdd,  Op::kSub,  Op::kAnd,
                        Op::kOr,   Op::kXor,  Op::kNor,  Op::kSlt,  Op::kSltu,
                        Op::kSllv, Op::kSrlv, Op::kSrav};
const Op kShiftImm[] = {Op::kSll, Op::kSrl, Op::kSra};
const Op kSignedImm[] = {Op::kAddi, Op::kAddiu, Op::kSlti, Op::kSltiu};
const Op kUnsignedImm[] = {Op::kAndi, Op::kOri, Op::kXori};
const Op kLoads[] = {Op::kLw, Op::kLh, Op::kLhu, Op::kLb, Op::kLbu};
const Op kStores[] = {Op::kSw, Op::kSh, Op::kSb};

// Access width in bytes, for keeping random offsets naturally aligned.
int mem_width(Op op) {
  switch (op) {
    case Op::kLw: case Op::kSw: return 4;
    case Op::kLh: case Op::kLhu: case Op::kSh: return 2;
    default: return 1;
  }
}

// Generates a sequence of array-supported instructions over $8..$15 with
// loads/stores into [0x10008000, +256).
RandomSequence make_sequence(uint32_t seed, int length) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto reg = [&] { return static_cast<uint8_t>(pick(8, 15)); };

  RandomSequence seq;
  for (int i = 0; i < length; ++i) {
    Instr instr;
    switch (pick(0, 10)) {
      case 0: case 1: case 2:
        instr.op = kThreeReg[pick(0, 12)];
        instr.rd = reg();
        instr.rs = reg();
        instr.rt = reg();
        break;
      case 3:
        instr.op = kShiftImm[pick(0, 2)];
        instr.rd = reg();
        instr.rt = reg();
        instr.shamt = static_cast<uint8_t>(pick(0, 31));
        break;
      case 4:
        instr.op = kSignedImm[pick(0, 3)];
        instr.rt = reg();
        instr.rs = reg();
        instr.imm16 = static_cast<uint16_t>(pick(-256, 255));
        break;
      case 5:
        instr.op = kUnsignedImm[pick(0, 2)];
        instr.rt = reg();
        instr.rs = reg();
        instr.imm16 = static_cast<uint16_t>(pick(0, 65535));
        break;
      case 6:
        instr.op = pick(0, 1) ? Op::kMult : Op::kMultu;
        instr.rs = reg();
        instr.rt = reg();
        break;
      case 7:
        instr.op = pick(0, 1) ? Op::kMflo : Op::kMfhi;
        instr.rd = reg();
        break;
      case 8: {
        instr.op = kLoads[pick(0, 4)];
        instr.rt = reg();
        instr.rs = 28;  // $gp points at the scratch buffer
        const int w = mem_width(instr.op);
        instr.imm16 = static_cast<uint16_t>(pick(0, 255 / w) * w);
        break;
      }
      case 9: {
        instr.op = kStores[pick(0, 2)];
        instr.rt = reg();
        instr.rs = 28;
        const int w = mem_width(instr.op);
        instr.imm16 = static_cast<uint16_t>(pick(0, 255 / w) * w);
        break;
      }
      default:
        instr.op = Op::kLui;
        instr.rt = reg();
        instr.imm16 = static_cast<uint16_t>(pick(0, 65535));
        break;
    }
    seq.instrs.push_back(instr);
  }
  return seq;
}

sim::CpuState seeded_state(uint32_t seed) {
  sim::CpuState s;
  std::mt19937 rng(seed ^ 0xABCD);
  for (int r = 8; r <= 15; ++r) s.regs[static_cast<size_t>(r)] = rng();
  s.regs[28] = 0x10008000;
  s.hi = rng();
  s.lo = rng();
  return s;
}

void seed_memory(mem::Memory& m, uint32_t seed) {
  std::mt19937 rng(seed ^ 0x1234);
  for (uint32_t a = 0; a < 256; a += 4) m.write32(0x10008000 + a, rng());
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, ArrayMatchesFunctionalExecution) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 2654435761u + 17;
  std::mt19937 meta(seed);
  const int length = std::uniform_int_distribution<int>(4, 60)(meta);
  const RandomSequence seq = make_sequence(seed, length);

  // (a) Functional reference: lay the sequence out in memory and step it.
  sim::CpuState ref_state = seeded_state(seed);
  mem::Memory ref_mem;
  seed_memory(ref_mem, seed);
  const uint32_t base = 0x00400000;
  for (size_t i = 0; i < seq.instrs.size(); ++i) {
    ref_mem.write32(base + static_cast<uint32_t>(4 * i), isa::encode(seq.instrs[i]));
  }
  // Terminator so the reference stops.
  Instr brk;
  brk.op = Op::kBreak;
  ref_mem.write32(base + static_cast<uint32_t>(4 * seq.instrs.size()), isa::encode(brk));
  ref_state.pc = base;
  while (!ref_state.halted) sim::step(ref_state, ref_mem);

  // (b) Translate + execute on the array.
  bt::TranslatorParams params;
  params.shape = rra::ArrayShape::config3();
  bt::ConfigBuilder builder(base, params);
  size_t placed = 0;
  for (size_t i = 0; i < seq.instrs.size(); ++i) {
    if (!builder.try_add(seq.instrs[i], base + static_cast<uint32_t>(4 * i))) break;
    ++placed;
  }
  ASSERT_EQ(placed, seq.instrs.size()) << "config #3 must fit 60 instructions";
  const rra::Configuration config =
      builder.finalize(base + static_cast<uint32_t>(4 * seq.instrs.size()));

  sim::CpuState array_state = seeded_state(seed);
  mem::Memory array_mem;
  seed_memory(array_mem, seed);
  const rra::ArrayExecOutcome outcome = rra::execute_configuration(
      config, array_state, array_mem, nullptr, rra::ArrayTimingParams{});

  // (c) Identical results.
  EXPECT_EQ(outcome.committed_ops, static_cast<int>(seq.instrs.size()));
  array_state.pc = ref_state.pc = 0;  // reference halted at break; ignore PC
  EXPECT_EQ(array_state.reg_hash(), ref_state.reg_hash()) << "seed " << seed;
  // The reference memory additionally contains the program text; compare
  // only the data buffer.
  for (uint32_t a = 0; a < 256; ++a) {
    ASSERT_EQ(array_mem.read8(0x10008000 + a), ref_mem.read8(0x10008000 + a))
        << "seed " << seed << " offset " << a;
  }

  // (d) Placement invariants (dependences + memory order).
  std::array<int, rra::kNumCtxRegs> writer;
  writer.fill(-1);
  int last_store_row = -1;
  int last_mem_row = -1;
  for (const rra::ArrayOp& op : config.ops) {
    int srcs[2];
    const int n = rra::array_srcs(op.instr, srcs);
    for (int k = 0; k < n; ++k) {
      if (srcs[k] != 0 && writer[static_cast<size_t>(srcs[k])] >= 0) {
        EXPECT_GT(op.row, writer[static_cast<size_t>(srcs[k])]);
      }
    }
    if (isa::is_load(op.instr.op)) {
      EXPECT_GT(op.row, last_store_row);
      last_mem_row = std::max(last_mem_row, op.row);
    } else if (isa::is_store(op.instr.op)) {
      EXPECT_GT(op.row, last_mem_row);  // strictly after all prior memory ops
      EXPECT_GT(op.row, last_store_row);
      last_mem_row = std::max(last_mem_row, op.row);
      last_store_row = std::max(last_store_row, op.row);
    }
    int dsts[2];
    const int nd = rra::array_dests(op.instr, dsts);
    for (int k = 0; k < nd; ++k) writer[static_cast<size_t>(dsts[k])] = op.row;
  }
}

// Seed budget is env-tunable (DIMSIM_FUZZ_SEEDS) so CI can run deeper
// campaigns without a rebuild; the default keeps the current cost.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(0, fuzz::seed_budget(100)));

// Predicated differential: a random hammock (if-then or diamond) is laid
// out as real branchy code and stepped by the functional core, and the same
// shape is if-converted with try_merge_hammock and executed on the array.
// Whatever direction the seeded state drives the branch, the merged
// configuration must commit exactly the architectural effects of the path
// the reference actually took — both predicate polarities are covered
// across the seed range.
class PredicatedDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PredicatedDifferentialFuzz, MergedHammockMatchesFunctionalExecution) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 2246822519u + 101;
  std::mt19937 meta(seed);
  auto pick = [&meta](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(meta);
  };

  const int prefix_len = pick(1, 4);
  const int fall_len = pick(1, 4);
  const bool diamond = pick(0, 1) == 1;
  const int taken_len = diamond ? pick(1, 4) : 0;
  const RandomSequence prefix = make_sequence(seed ^ 0x50F1, prefix_len);
  const RandomSequence fall_arm = make_sequence(seed ^ 0xA23B, fall_len);
  const RandomSequence taken_arm = make_sequence(seed ^ 0x77E5, taken_len);

  // The hammock branch: mix of two-reg equality and sign tests so the
  // seeded register state drives both directions across the seed range.
  Instr branch;
  switch (pick(0, 3)) {
    case 0:
      branch.op = Op::kBeq;
      branch.rs = static_cast<uint8_t>(pick(8, 15));
      branch.rt = branch.rs;  // always taken
      break;
    case 1:
      branch.op = Op::kBne;
      branch.rs = static_cast<uint8_t>(pick(8, 15));
      branch.rt = static_cast<uint8_t>(pick(8, 15));
      break;
    case 2:
      branch.op = Op::kBltz;
      branch.rs = static_cast<uint8_t>(pick(8, 15));
      break;
    default:
      branch.op = Op::kBgez;
      branch.rs = static_cast<uint8_t>(pick(8, 15));
      break;
  }
  // Fall-through region = fall arm (+ join jump for a diamond).
  branch.imm16 = static_cast<uint16_t>(fall_len + (diamond ? 1 : 0));

  // Lay the hammock out as real code for the functional reference.
  const uint32_t base = 0x00400000;
  std::vector<Instr> code(prefix.instrs);
  const uint32_t branch_pc = base + static_cast<uint32_t>(4 * code.size());
  code.push_back(branch);
  std::vector<bt::HammockOp> not_taken_ops, taken_ops;
  for (const Instr& i : fall_arm.instrs) {
    not_taken_ops.push_back({i, base + static_cast<uint32_t>(4 * code.size())});
    code.push_back(i);
  }
  std::optional<bt::HammockOp> join_jump;
  if (diamond) {
    Instr jj;  // `b join` == beq $0, $0, <over the taken arm>
    jj.op = Op::kBeq;
    jj.imm16 = static_cast<uint16_t>(taken_len);
    join_jump = bt::HammockOp{jj, base + static_cast<uint32_t>(4 * code.size())};
    code.push_back(jj);
    for (const Instr& i : taken_arm.instrs) {
      taken_ops.push_back({i, base + static_cast<uint32_t>(4 * code.size())});
      code.push_back(i);
    }
  }
  const uint32_t join_pc = base + static_cast<uint32_t>(4 * code.size());

  sim::CpuState ref_state = seeded_state(seed);
  mem::Memory ref_mem;
  seed_memory(ref_mem, seed);
  for (size_t i = 0; i < code.size(); ++i) {
    ref_mem.write32(base + static_cast<uint32_t>(4 * i), isa::encode(code[i]));
  }
  Instr brk;
  brk.op = Op::kBreak;
  ref_mem.write32(join_pc, isa::encode(brk));
  ref_state.pc = base;
  while (!ref_state.halted) sim::step(ref_state, ref_mem);

  // If-convert the same shape.
  bt::TranslatorParams params;
  params.shape = rra::ArrayShape::config3();
  params.predication = true;
  bt::ConfigBuilder builder(base, params);
  for (int i = 0; i < prefix_len; ++i) {
    ASSERT_TRUE(builder.try_add(prefix.instrs[static_cast<size_t>(i)],
                                base + static_cast<uint32_t>(4 * i)));
  }
  ASSERT_TRUE(builder.try_merge_hammock(branch, branch_pc, not_taken_ops,
                                        join_jump ? &*join_jump : nullptr,
                                        taken_ops))
      << "seed " << seed;
  const rra::Configuration config = builder.finalize(join_pc);
  ASSERT_EQ(config.pred_slots, 1);

  sim::CpuState array_state = seeded_state(seed);
  mem::Memory array_mem;
  seed_memory(array_mem, seed);
  const rra::ArrayExecOutcome outcome = rra::execute_configuration(
      config, array_state, array_mem, nullptr, rra::ArrayTimingParams{});

  EXPECT_FALSE(outcome.misspeculated) << "a pred-def branch cannot misspeculate";
  EXPECT_EQ(outcome.next_pc, join_pc);
  array_state.pc = ref_state.pc = 0;
  EXPECT_EQ(array_state.reg_hash(), ref_state.reg_hash()) << "seed " << seed;
  for (uint32_t a = 0; a < 256; ++a) {
    ASSERT_EQ(array_mem.read8(0x10008000 + a), ref_mem.read8(0x10008000 + a))
        << "seed " << seed << " offset " << a;
  }

  // Placement invariant: every predicated op sits strictly below its
  // pred-defining branch (the gate must be resolved before write-back).
  int pred_def_row = -1;
  for (const rra::ArrayOp& op : config.ops) {
    if (op.is_pred_def) pred_def_row = op.row;
  }
  ASSERT_GE(pred_def_row, 0);
  for (const rra::ArrayOp& op : config.ops) {
    if (op.pred_slot >= 0 && !op.is_pred_def) {
      EXPECT_GT(op.row, pred_def_row);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicatedDifferentialFuzz,
                         ::testing::Range(0, fuzz::seed_budget(100)));

// Every op the array can execute must actually be exercised somewhere in
// the seed range above — otherwise a rare-op regression is invisible to
// this suite and the "full op set" claim is vacuous.
TEST(DifferentialFuzzCoverage, EveryArraySupportedOpAppears) {
  std::set<Op> seen;
  const int seeds = fuzz::seed_budget(100);
  for (int p = 0; p < seeds; ++p) {
    const uint32_t seed = static_cast<uint32_t>(p) * 2654435761u + 17;
    std::mt19937 meta(seed);
    const int length = std::uniform_int_distribution<int>(4, 60)(meta);
    for (const Instr& instr : make_sequence(seed, length).instrs) {
      seen.insert(instr.op);
    }
  }
  std::vector<Op> required;
  required.insert(required.end(), std::begin(kThreeReg), std::end(kThreeReg));
  required.insert(required.end(), std::begin(kShiftImm), std::end(kShiftImm));
  required.insert(required.end(), std::begin(kSignedImm), std::end(kSignedImm));
  required.insert(required.end(), std::begin(kUnsignedImm), std::end(kUnsignedImm));
  required.insert(required.end(), std::begin(kLoads), std::end(kLoads));
  required.insert(required.end(), std::begin(kStores), std::end(kStores));
  required.push_back(Op::kLui);
  required.push_back(Op::kMult);
  required.push_back(Op::kMultu);
  required.push_back(Op::kMfhi);
  required.push_back(Op::kMflo);
  for (Op op : required) {
    EXPECT_TRUE(isa::dim_supported(op) || op == Op::kMfhi || op == Op::kMflo)
        << isa::op_name(op);
    EXPECT_TRUE(seen.count(op)) << "op never generated: " << isa::op_name(op);
  }
}

}  // namespace
}  // namespace dim
