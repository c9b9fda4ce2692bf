// Fidelity proof for the placement rule. The paper words the dependence
// check as: "the source operands are compared to a bitmap of target
// registers of each line (which compose the dependence table). If the
// current line and all above do not have that target register equal to one
// of the source operands ... it can be allocated in that line."
//
// ConfigBuilder implements the equivalent last-writer-row formulation. This
// test re-implements the paper's literal per-line bitmap walk and checks
// both formulations choose the same row for every instruction of random
// supported sequences.
#include <gtest/gtest.h>

#include <bitset>
#include <random>

#include "bt/translator.hpp"
#include "rra/configuration.hpp"

namespace dim::bt {
namespace {

using isa::Instr;
using isa::Op;

// The paper's literal algorithm: per line, a bitmap of context registers
// written in that line; a new op's minimum line is one below the deepest
// line whose bitmap contains any of its sources. Memory ordering and
// resource scanning as in the hardware.
class BitmapModel {
 public:
  explicit BitmapModel(const rra::ArrayShape& shape) : shape_(shape) {}

  // Returns the row the paper's walk would place this op in, or -1.
  int place(const Instr& instr, bool is_branch) {
    int srcs[2];
    const int nsrc = rra::array_srcs(instr, srcs);
    // Deepest line writing any source: scan bitmaps bottom-up.
    int min_row = 0;
    for (int line = static_cast<int>(write_bitmaps_.size()) - 1; line >= 0; --line) {
      bool conflict = false;
      for (int k = 0; k < nsrc; ++k) {
        if (srcs[k] != 0 && write_bitmaps_[static_cast<size_t>(line)]
                                .test(static_cast<size_t>(srcs[k]))) {
          conflict = true;
        }
      }
      if (conflict) {
        min_row = line + 1;
        break;
      }
    }
    if (!is_branch) {
      if (isa::is_load(instr.op)) min_row = std::max(min_row, last_store_row_ + 1);
      if (isa::is_store(instr.op)) min_row = std::max(min_row, last_mem_row_ + 1);
    }
    const isa::FuKind kind = is_branch ? isa::FuKind::kAlu
                             : (instr.op == Op::kMfhi || instr.op == Op::kMflo)
                                 ? isa::FuKind::kAlu
                                 : isa::fu_kind(instr.op);
    const int per_line = kind == isa::FuKind::kAlu    ? shape_.alus_per_line
                         : kind == isa::FuKind::kMul  ? shape_.muls_per_line
                                                      : shape_.ldsts_per_line;
    for (int r = min_row; r < shape_.lines; ++r) {
      if (r >= static_cast<int>(use_.size())) {
        use_.resize(static_cast<size_t>(r) + 1);
        write_bitmaps_.resize(static_cast<size_t>(r) + 1);
      }
      int& used = kind == isa::FuKind::kAlu  ? use_[static_cast<size_t>(r)].alu
                  : kind == isa::FuKind::kMul ? use_[static_cast<size_t>(r)].mul
                                              : use_[static_cast<size_t>(r)].ldst;
      if (used < per_line) {
        ++used;
        // Update the line's write bitmap. The hardware clears the bit in
        // OLDER lines when a register is re-written (otherwise a reader of
        // the new value could be mis-anchored to the stale producer); model
        // that by clearing the register everywhere first.
        int dsts[2];
        const int ndst = rra::array_dests(instr, dsts);
        for (int k = 0; k < ndst; ++k) {
          for (auto& bm : write_bitmaps_) bm.reset(static_cast<size_t>(dsts[k]));
          write_bitmaps_[static_cast<size_t>(r)].set(static_cast<size_t>(dsts[k]));
        }
        if (!is_branch && isa::is_load(instr.op)) last_mem_row_ = std::max(last_mem_row_, r);
        if (!is_branch && isa::is_store(instr.op)) {
          last_mem_row_ = std::max(last_mem_row_, r);
          last_store_row_ = std::max(last_store_row_, r);
        }
        return r;
      }
    }
    return -1;
  }

 private:
  struct Use {
    int alu = 0, mul = 0, ldst = 0;
  };
  rra::ArrayShape shape_;
  std::vector<std::bitset<rra::kNumCtxRegs>> write_bitmaps_;
  std::vector<Use> use_;
  int last_mem_row_ = -1;
  int last_store_row_ = -1;
};

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

class BitmapEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BitmapEquivalence, PaperBitmapWalkMatchesLastWriterTable) {
  const uint32_t seed = static_cast<uint32_t>(GetParam()) * 2246822519u + 5;
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto reg = [&] { return pick(8, 15); };

  TranslatorParams params;
  params.shape = rra::ArrayShape::config1();
  ConfigBuilder builder(0x400000, params);
  BitmapModel bitmap(params.shape);

  const int n = pick(5, 50);
  uint32_t pc = 0x400000;
  for (int i = 0; i < n; ++i) {
    Instr instr;
    switch (pick(0, 7)) {
      case 0: instr = r3(Op::kAddu, reg(), reg(), reg()); break;
      case 1: instr = r3(Op::kXor, reg(), reg(), reg()); break;
      case 2: instr = imm(Op::kAddiu, reg(), reg(), static_cast<int16_t>(pick(-50, 50))); break;
      case 3: instr = r3(Op::kSltu, reg(), reg(), reg()); break;
      case 4: instr = r3(Op::kMult, 0, reg(), reg()); break;
      case 5: instr = r3(Op::kMflo, reg(), 0, 0); break;
      case 6: instr = imm(Op::kLw, reg(), 28, static_cast<int16_t>(pick(0, 31) * 4)); break;
      default: instr = imm(Op::kSw, reg(), 28, static_cast<int16_t>(pick(0, 31) * 4)); break;
    }
    const bool ok = builder.try_add(instr, pc);
    const int expected_row = bitmap.place(instr, false);
    ASSERT_TRUE(ok);
    ASSERT_GE(expected_row, 0);
    pc += 4;
  }
  const rra::Configuration config = builder.finalize(pc);
  // Re-derive the bitmap walk once more over the final ops to compare rows
  // one-to-one (the models ran in lockstep above; rows must agree).
  BitmapModel replay(params.shape);
  for (const rra::ArrayOp& op : config.ops) {
    EXPECT_EQ(replay.place(op.instr, op.is_branch), op.row)
        << isa::op_name(op.instr.op) << " @ " << std::hex << op.pc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapEquivalence, ::testing::Range(0, 40));

}  // namespace
}  // namespace dim::bt
