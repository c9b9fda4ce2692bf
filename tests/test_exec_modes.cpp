// The execution modes (src/rra/exec_mode/): rra::ExecutionModel times an
// activation row-synchronously or as elastic dataflow firing with bounded
// per-row FIFOs.
//   1. Admissibility: a pure dependence chain fits capacity-1 FIFOs; two
//      independent same-row producers with a joint consumer deadlock at
//      capacity 1 and become admissible at capacity 2 or with unbounded
//      queues (capacity 0).
//   2. Backpressure is timing-only: the same configuration under elastic
//      retires the same architectural state as row-sync, stalls at
//      capacity 1 and stops stalling once the FIFOs are deep enough.
//   3. Deadlock fallback: the model executes a deadlocking configuration
//      with row-sync timing (transparent, counted, evented); deep or
//      unbounded queues run the same program with no fallback.
//   4. Per-mode snapshots: resume-equals-straight-run holds bit-for-bit
//      under elastic at capacities 0, 1 and 4, and the elastic snapshot
//      bytes (which carry the optional exec section) are frozen by a
//      committed golden.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "bt/translator.hpp"
#include "obs/event.hpp"
#include "rra/array_exec.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "snap/codec.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"

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

// ---------------------------------------------------------------------------
// 1. Admissibility at config-build time.

TEST(ExecModes, PureChainAdmissibleAtCapacityOne) {
  // Each op consumes its predecessor: one op per row, so no row ever holds
  // more tokens than its consumer has drained.
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 5), 0x100));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 9, 8, 8), 0x104));
  ASSERT_TRUE(b.try_add(r3(Op::kXor, 10, 9, 9), 0x108));
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 11, 10, 7), 0x10C));
  const Configuration c = b.finalize(0x110);
  EXPECT_TRUE(elastic_admissible(c, 1));
  EXPECT_TRUE(elastic_admissible(c, 4));
}

TEST(ExecModes, JointConsumerDeadlocksAtCapacityOne) {
  // Two independent producers land on the same row; their joint consumer
  // needs both tokens at once. With one slot in the row's output queue the
  // second producer cannot fire until the consumer drains the first token,
  // and the consumer cannot fire until the second producer does: deadlock.
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x100));
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x104));
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 10, 8, 9), 0x108));
  const Configuration c = b.finalize(0x10C);
  EXPECT_FALSE(elastic_admissible(c, 1));
  EXPECT_TRUE(elastic_admissible(c, 2));
  EXPECT_TRUE(elastic_admissible(c, 0));  // 0 = unbounded queues
}

// ---------------------------------------------------------------------------
// 2. Backpressure is timing-only.

TEST(ExecModes, BackpressureStallsAtCapacityOneOnly) {
  // Row 0 holds three ops in order: a chain root, then two independent
  // producers. The first producer's consumer also waits on the end of the
  // chain, so at capacity 1 the second producer sits behind an undrained
  // token (a stall, not a deadlock: nothing downstream of the second
  // producer feeds the chain).
  const bt::TranslatorParams params = default_params();
  bt::ConfigBuilder b(0x100, params);
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 15, 0, 3), 0x100));   // chain root, row 0
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 14, 15, 15), 0x104));   // row 1
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 13, 14, 14), 0x108));   // row 2
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 8, 0, 1), 0x10C));    // producer A, row 0
  ASSERT_TRUE(b.try_add(imm(Op::kAddiu, 9, 0, 2), 0x110));    // producer B, row 0
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 11, 8, 13), 0x114));    // consumer of A + chain
  ASSERT_TRUE(b.try_add(r3(Op::kAddu, 12, 9, 9), 0x118));     // consumer of B
  const Configuration c = b.finalize(0x11C);
  ASSERT_TRUE(elastic_admissible(c, 1));

  // One row per cycle so a one-slot makespan difference is visible in
  // cycles (the default 3 ALU rows per cycle can absorb it).
  ArrayTimingParams timing;
  timing.alu_rows_per_cycle = 1;

  const auto run_mode = [&](const ExecModeParams& mode, sim::CpuState& s,
                            mem::Memory& m) {
    const auto model = make_execution_model(mode);
    return model->execute(c, s, m, nullptr, timing, false);
  };

  ExecModeParams row_sync;
  ExecModeParams cap1;
  cap1.mode = ExecMode::kElastic;
  cap1.fifo_capacity = 1;
  ExecModeParams deep = cap1;
  deep.fifo_capacity = 8;

  sim::CpuState s_sync, s_cap1, s_deep;
  mem::Memory m_sync, m_cap1, m_deep;
  const ArrayExecOutcome o_sync = run_mode(row_sync, s_sync, m_sync);
  const ArrayExecOutcome o_cap1 = run_mode(cap1, s_cap1, m_cap1);
  const ArrayExecOutcome o_deep = run_mode(deep, s_deep, m_deep);

  // Transparency: identical architectural outcome across all three.
  EXPECT_EQ(s_sync.regs, s_cap1.regs);
  EXPECT_EQ(s_sync.regs, s_deep.regs);
  EXPECT_EQ(o_sync.next_pc, o_cap1.next_pc);
  EXPECT_EQ(o_sync.committed_ops, o_cap1.committed_ops);

  // Timing: the one-slot queue stalls, the deep queue does not.
  EXPECT_GT(o_cap1.fifo_stall_cycles, 0u);
  EXPECT_EQ(o_deep.fifo_stall_cycles, 0u);
  EXPECT_GE(o_cap1.exec_cycles, o_deep.exec_cycles);
  EXPECT_EQ(o_sync.fifo_stall_cycles, 0u);
}

// ---------------------------------------------------------------------------
// 3. Full-system fallback for rejected configurations.

// The loop body embeds the joint-consumer shape from above, so its
// configuration deadlocks at capacity 1 and the system must execute it
// row-synchronously instead — transparently.
const char* kDeadlockProgram = R"(
        .data
buf:    .space 64
        .text
main:   la $s0, buf
        li $s7, 60
        li $t5, 0
loop:   addiu $t0, $zero, 1
        addiu $t1, $zero, 2
        addu $t2, $t0, $t1
        addu $t5, $t5, $t2
        sw $t5, 0($s0)
        addiu $s7, $s7, -1
        bnez $s7, loop
        move $a0, $t5
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

accel::SystemConfig elastic_config(int capacity) {
  accel::SystemConfig cfg = accel::SystemConfig::with(ArrayShape::config2(), 8, true);
  cfg.exec_mode.mode = ExecMode::kElastic;
  cfg.exec_mode.fifo_capacity = capacity;
  return cfg;
}

TEST(ExecModes, DeadlockedConfigFallsBackToRowSync) {
  const auto program = asmblr::assemble(kDeadlockProgram);
  const accel::AccelStats base =
      accel::baseline_as_stats(program, sim::MachineConfig{});

  obs::RecordingSink sink;
  accel::SystemConfig cfg = elastic_config(1);
  cfg.event_sink = &sink;
  accel::AcceleratedSystem system(program, cfg);
  const accel::AccelStats st = system.run();

  // Transparent despite the rejection...
  EXPECT_EQ(st.final_state.output, base.final_state.output);
  EXPECT_EQ(st.memory_hash, base.memory_hash);
  EXPECT_EQ(st.instructions, base.instructions);
  // ...and the fallback is visible in stats and the event stream.
  EXPECT_GT(st.elastic_deadlock_fallbacks, 0u);
  bool saw_rejected = false;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kElasticRejected) saw_rejected = true;
  }
  EXPECT_TRUE(saw_rejected);

  // The same program with deep or unbounded (capacity 0) FIFOs runs
  // elastically: no fallbacks.
  for (const int capacity : {8, 0}) {
    accel::AcceleratedSystem deep(program, elastic_config(capacity));
    const accel::AccelStats st_deep = deep.run();
    EXPECT_EQ(st_deep.elastic_deadlock_fallbacks, 0u) << "capacity " << capacity;
    EXPECT_EQ(st_deep.final_state.output, base.final_state.output);
    EXPECT_EQ(st_deep.memory_hash, base.memory_hash);
  }
}

// ---------------------------------------------------------------------------
// 4. Per-mode snapshots.

// A loop long enough to fill the 8-slot cache and cross checkpoints amid
// translated execution; the body mixes the deadlock triple (so elastic
// capacity 1 accumulates fallbacks into the snapshot) with memory traffic.
const char* kModeCheckpointProgram = R"(
        .data
arr:    .word 0
        .space 1024
        .text
main:   la $t0, arr
        li $t1, 300
        li $t3, 0
loop:   addiu $t6, $zero, 1
        addiu $t7, $zero, 2
        addu $t5, $t6, $t7
        sll $t4, $t3, 2
        andi $t4, $t4, 511
        addu $t5, $t0, $t4
        lw $t6, 0($t5)
        addu $t6, $t6, $t3
        sw $t6, 0($t5)
        addu $t2, $t2, $t6
        addiu $t3, $t3, 1
        bne $t3, $t1, loop
        move $a0, $t2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

std::vector<uint8_t> stats_bytes(const accel::AccelStats& stats) {
  snap::Writer w;
  snap::stats_fields(w, stats);
  snap::exec_stats_fields(w, stats);  // mode counters ride outside stats_fields
  return w.take();
}

void expect_resume_equals_straight(const accel::SystemConfig& config,
                                   uint64_t boundary) {
  const auto program = asmblr::assemble(kModeCheckpointProgram);

  accel::AcceleratedSystem straight(program, config);
  const accel::AccelStats want = straight.run();

  std::stringstream file;
  {
    accel::AcceleratedSystem first(program, config);
    first.run_until(boundary);
    snap::save_snapshot(file, first, program);
  }
  accel::AcceleratedSystem second(program, config);
  snap::restore_snapshot(second, file, program);
  const accel::AccelStats got = second.run();

  EXPECT_EQ(stats_bytes(want), stats_bytes(got)) << "boundary " << boundary;
  EXPECT_EQ(want.final_state.output, got.final_state.output);
  EXPECT_EQ(want.memory_hash, got.memory_hash);
}

TEST(ExecModes, SnapshotResumeEqualsStraightRunPerMode) {
  for (const uint64_t boundary : {250u, 1200u}) {
    expect_resume_equals_straight(elastic_config(0), boundary);
    expect_resume_equals_straight(elastic_config(1), boundary);
    expect_resume_equals_straight(elastic_config(4), boundary);
  }
}

TEST(ExecModes, SnapshotCarriesModeCounters) {
  // The optional kSecExec section must round-trip nonzero counters: run an
  // elastic capacity-1 system past some fallbacks, snapshot, restore, and
  // the restored stats must already show them.
  const auto program = asmblr::assemble(kModeCheckpointProgram);
  accel::AcceleratedSystem first(program, elastic_config(1));
  first.run_until(1500);
  ASSERT_GT(first.stats().elastic_deadlock_fallbacks, 0u);
  std::stringstream file;
  snap::save_snapshot(file, first, program);

  accel::AcceleratedSystem second(program, elastic_config(1));
  snap::restore_snapshot(second, file, program);
  EXPECT_EQ(second.stats().elastic_deadlock_fallbacks,
            first.stats().elastic_deadlock_fallbacks);
  EXPECT_EQ(second.stats().fifo_stall_cycles, first.stats().fifo_stall_cycles);
}

// ---------------------------------------------------------------------------
// Format golden for the exec section (same regime as test_snapshot.cpp:
// regenerate with DIMSIM_REGEN_GOLDENS=1 together with a kFormatVersion
// bump when the bytes intentionally change).

std::string golden_path(const char* name) {
  return std::string(DIMSIM_TEST_DATA_DIR) + "/" + name;
}

TEST(ExecModesGolden, ElasticSnapshotFormatFrozen) {
  const auto program = asmblr::assemble(kModeCheckpointProgram);
  accel::AcceleratedSystem mid(program, elastic_config(1));
  mid.run_until(1500);
  ASSERT_GT(mid.stats().elastic_deadlock_fallbacks, 0u);  // section is live
  std::stringstream file;
  snap::save_snapshot(file, mid, program);
  const std::string produced = file.str();

  const std::string path = golden_path("golden_elastic.snap");
  if (std::getenv("DIMSIM_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << produced;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with DIMSIM_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  ASSERT_GE(golden.size(), size_t{6});
  const uint16_t golden_version =
      static_cast<uint16_t>(static_cast<uint8_t>(golden[4]) |
                            (static_cast<uint16_t>(static_cast<uint8_t>(golden[5])) << 8));
  if (golden_version == snap::kFormatVersion) {
    EXPECT_EQ(golden, produced)
        << "elastic snapshot bytes changed under unchanged kFormatVersion — "
        << "bump snap::kFormatVersion and regenerate";
  } else {
    // The tree moved to a new version: the old golden must be rejected as
    // such, not misparsed.
    std::istringstream old(golden);
    try {
      snap::read_container(old, snap::ArtifactKind::kSnapshot);
      ADD_FAILURE() << "old-version golden loaded";
    } catch (const snap::SnapshotError& e) {
      EXPECT_EQ(e.code(), snap::SnapErrc::kBadVersion);
    }
  }
}

}  // namespace
}  // namespace dim::rra
