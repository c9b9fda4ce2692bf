// Superblock trace-threaded dispatch (sim/trace_cache.hpp): the fast path
// must be bit-identical to the per-instruction slow path — architectural
// state, cycle accounting, stats, and (on the accelerated system) the
// stamped event stream. These tests pin that contract on hand-picked edge
// cases the fuzzer is unlikely to weight: self-modifying code, PC
// wraparound at 0xFFFFFFFC, page-straddling traces, branches into trace
// interiors, 1-op traces and traces that run on through not-taken
// branches, folded HI/LO interlocks, cache lifecycle across
// Machine::reset, copies and snapshot restore, and instruction-limit cuts
// landing mid-trace.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "isa/encoder.hpp"
#include "obs/event.hpp"
#include "sim/machine.hpp"
#include "sim/trace_cache.hpp"
#include "snap/snapshot.hpp"
#include "work/workload.hpp"

namespace dim::sim {
namespace {

void expect_same_state(const CpuState& slow, const CpuState& fast) {
  EXPECT_EQ(slow.regs, fast.regs);
  EXPECT_EQ(slow.pc, fast.pc);
  EXPECT_EQ(slow.hi, fast.hi);
  EXPECT_EQ(slow.lo, fast.lo);
  EXPECT_EQ(slow.halted, fast.halted);
  EXPECT_EQ(slow.output, fast.output);
}

// Runs `program` with the trace dispatch off and on; every RunResult field
// must match. Returns the fast run for extra assertions.
RunResult expect_dispatch_identical(const asmblr::Program& program,
                                    MachineConfig config = {}) {
  config.host_trace_dispatch = false;
  const RunResult slow = run_baseline(program, config);
  config.host_trace_dispatch = true;
  const RunResult fast = run_baseline(program, config);
  EXPECT_EQ(slow.instructions, fast.instructions);
  EXPECT_EQ(slow.cycles, fast.cycles);
  EXPECT_EQ(slow.hit_limit, fast.hit_limit);
  EXPECT_EQ(slow.memory_hash, fast.memory_hash);
  EXPECT_EQ(slow.icache_misses, fast.icache_misses);
  EXPECT_EQ(slow.dcache_misses, fast.dcache_misses);
  EXPECT_EQ(slow.mem_accesses, fast.mem_accesses);
  expect_same_state(slow.state, fast.state);
  return fast;
}

RunResult expect_dispatch_identical(const std::string& source,
                                    MachineConfig config = {}) {
  return expect_dispatch_identical(asmblr::assemble(source), config);
}

// A loop hot enough to form traces, with loads/stores and varied ALU work.
const char* kHotLoop = R"(
main:
        li   $t3, 200
        la   $t6, buf
loop:
        addiu $t0, $t0, 1
        sll   $t1, $t0, 2
        xor   $t2, $t1, $t3
        sw    $t2, 0($t6)
        lw    $t4, 0($t6)
        addu  $t5, $t5, $t4
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
        .data
buf:    .word 0
)";

TEST(TraceCache, FastMatchesSlowOnHotLoop) {
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  expect_dispatch_identical(p);

  // And the fast path actually ran traces (not a vacuous pass).
  MachineConfig fast;
  fast.host_trace_dispatch = true;
  Machine m(p, fast);
  m.run();
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_GT(st.traces_built, 0u);
  EXPECT_GT(st.executions, 0u);
  EXPECT_GT(st.ops_executed, 0u);
  // Default timing (scalar, no caches) permits folded commits.
  EXPECT_GT(st.folded_executions, 0u);
}

TEST(TraceCache, FastMatchesSlowUnderNonFoldableTimings) {
  // Dual issue, instruction cache, data cache: each disables the folded
  // commit and forces the per-op TimedEnv, which must still be identical.
  MachineConfig dual;
  dual.timing.issue_width = 2;
  expect_dispatch_identical(kHotLoop, dual);

  MachineConfig icache;
  icache.timing.icache.enabled = true;
  expect_dispatch_identical(kHotLoop, icache);

  MachineConfig dcache;
  dcache.timing.dcache.enabled = true;
  expect_dispatch_identical(kHotLoop, dcache);

  MachineConfig all;
  all.timing.issue_width = 2;
  all.timing.icache.enabled = true;
  all.timing.dcache.enabled = true;
  expect_dispatch_identical(kHotLoop, all);
}

TEST(TraceCache, FastMatchesSlowWithHiLoTraces) {
  // mult/div/mfhi/mflo inside the hot loop: the folded commit replays the
  // HI/LO interlock and must agree cycle for cycle with per-op retires
  // (incl. div-by-zero semantics).
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $t3, 120
        li   $t6, 7
loop:
        addiu $t0, $t0, 3
        mult  $t0, $t6
        mflo  $t1
        addu  $t5, $t5, $t1
        div   $t0, $t3
        mfhi  $t2
        xor   $t5, $t5, $t2
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
)");
  expect_dispatch_identical(p);

  Machine m(p);
  m.run();
  EXPECT_GT(m.trace_cache().stats().folded_executions, 0u);
}

// HI/LO results read inside one trace, across a taken jump into the next
// trace, across a slow-path syscall (a mult ends one trace and an mflo
// heads the next), and on the slow path after the loop; with load-use
// stalls in front of a HI/LO writer and a HI/LO mover.
const char* kHiLoChain = R"(
main:
        li    $t3, 30
        li    $t6, 7
        la    $t8, buf
        li    $v0, 11
        li    $a0, 46
loop:
        addiu $t0, $t0, 3
        div   $t0, $t6
        mfhi  $t1
        addu  $t5, $t5, $t1
        lw    $t7, 0($t8)
        multu $t7, $t6
        j     mid
mid:
        mflo  $t2
        sw    $t5, 0($t8)
        mult  $t0, $t3
        syscall
next:
        mflo  $t2
        xor   $t5, $t5, $t2
        lw    $t7, 0($t8)
        mtlo  $t7
        divu  $t5, $t6
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        mflo  $t4
        break
        .data
buf:    .word 5
)";

TEST(TraceCache, FoldedHiLoMatchesRetireForEveryLatency) {
  const asmblr::Program p = asmblr::assemble(kHiLoChain);
  for (const uint32_t mult : {0u, 1u, 4u, 20u, 37u}) {
    for (const uint32_t div : {0u, 1u, 4u, 20u, 37u}) {
      SCOPED_TRACE("mult_latency " + std::to_string(mult) + ", div_latency " +
                   std::to_string(div));
      MachineConfig cfg;
      cfg.timing.mult_latency = mult;
      cfg.timing.div_latency = div;
      expect_dispatch_identical(p, cfg);

      Machine m(p, cfg);
      m.run();
      const TraceStats& st = m.trace_cache().stats();
      EXPECT_GT(st.folded_executions, 0u);
      EXPECT_EQ(st.folded_executions, st.executions);
      const Trace* mid = m.trace_cache().peek(p.symbol("mid"));
      const Trace* next = m.trace_cache().peek(p.symbol("next"));
      ASSERT_NE(mid, nullptr);
      ASSERT_NE(next, nullptr);
      EXPECT_EQ(mid->ops.front().instr.op, isa::Op::kMflo);
      EXPECT_EQ(mid->ops.back().instr.op, isa::Op::kMult);
      EXPECT_EQ(next->ops.front().instr.op, isa::Op::kMflo);
    }
  }
}

// Runs `program` to halt in calls of at most `chunk` instructions (each
// run() stops at the limit; the next one continues).
RunResult run_in_chunks(const asmblr::Program& program, MachineConfig config,
                        uint64_t chunk) {
  config.max_instructions = chunk;
  Machine m(program, config);
  RunResult r = m.run();
  uint64_t instructions = r.instructions;
  while (r.hit_limit) {
    r = m.run();
    instructions += r.instructions;
  }
  r.instructions = instructions;
  return r;
}

TEST(TraceCache, InstructionLimitCutsBetweenHiLoWriterAndReader) {
  // Cuts at every position through the loop's traces (chunk 1 cuts after
  // each instruction; the primes shift the cut phase from one iteration to
  // the next), including the ones between a mult/div and its reader: the
  // continuation must see the pending HI/LO readiness the cut left behind.
  const asmblr::Program p = asmblr::assemble(kHiLoChain);
  MachineConfig cfg;
  cfg.timing.mult_latency = 20;
  cfg.timing.div_latency = 37;
  cfg.host_trace_dispatch = false;
  const RunResult straight = run_baseline(p, cfg);
  for (const uint64_t chunk : {1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    cfg.host_trace_dispatch = true;
    const RunResult fast = run_in_chunks(p, cfg, chunk);
    EXPECT_EQ(straight.instructions, fast.instructions);
    EXPECT_EQ(straight.cycles, fast.cycles);
    EXPECT_EQ(straight.memory_hash, fast.memory_hash);
    expect_same_state(straight.state, fast.state);
  }
}

// A loop whose main trace runs on through not-taken branches: the beq
// after a load never fires (with a load-use stall on it), a mult's product
// is read across it, and the andi/bne pair leaves the trace 3 times in 4.
const char* kInteriorBranchLoop = R"(
main:
        li    $t3, 60
        li    $t6, 7
        la    $t8, buf
loop:
        addiu $t0, $t0, 3
        multu $t0, $t6
        lw    $t7, 0($t8)
        beq   $t7, $zero, skip
        mflo  $t1
        addu  $t5, $t5, $t1
        andi  $t4, $t3, 3
        bne   $t4, $zero, next
        sw    $t5, 0($t8)
skip:
        xor   $t5, $t5, $t3
next:
        addiu $t3, $t3, -1
        bgtz  $t3, loop
        break
        .data
buf:    .word 5
)";

TEST(TraceCache, InstructionLimitCutsAroundInteriorBranches) {
  // Cuts at every position of a trace that holds interior not-taken
  // branches, including right after one: the continuation must resume at
  // the fall-through with the pipeline latches (pending load, HI/LO
  // readiness) the cut left behind.
  const asmblr::Program p = asmblr::assemble(kInteriorBranchLoop);
  MachineConfig cfg;
  cfg.timing.mult_latency = 20;
  cfg.host_trace_dispatch = false;
  const RunResult straight = run_baseline(p, cfg);
  for (const uint64_t chunk : {1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    cfg.host_trace_dispatch = true;
    const RunResult fast = run_in_chunks(p, cfg, chunk);
    EXPECT_EQ(straight.instructions, fast.instructions);
    EXPECT_EQ(straight.cycles, fast.cycles);
    EXPECT_EQ(straight.memory_hash, fast.memory_hash);
    expect_same_state(straight.state, fast.state);
  }

  Machine m(p, cfg);
  m.run();
  const Trace* t = m.trace_cache().peek(p.symbol("loop"));
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->ops.size(), 12u);  // loop .. bgtz, three conditional branches
  EXPECT_EQ(t->ops[3].instr.op, isa::Op::kBeq);
  EXPECT_EQ(t->ops[7].instr.op, isa::Op::kBne);
  EXPECT_EQ(m.trace_cache().stats().folded_executions, m.trace_cache().stats().executions);

  // Per-op timing charges each interior branch through retire(): no taken
  // penalty when it runs on, and dual issue pairs across it.
  MachineConfig dual;
  dual.timing.issue_width = 2;
  expect_dispatch_identical(p, dual);
  MachineConfig caches;
  caches.timing.icache.enabled = true;
  caches.timing.dcache.enabled = true;
  expect_dispatch_identical(p, caches);
}

TEST(TraceCache, EveryConditionalBranchKindRunsOnAndExits) {
  // Each condition has its own handler; every one is seen taken (leaving
  // the trace) and not taken (running on inside it) as $t3 sweeps from
  // negative to positive. bltzal/bgezal link whether or not they branch,
  // and read their condition before the link: `bltzal $ra` tests the old
  // $ra, as step() does.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li    $t3, -24
        li    $t7, 3
loop:
        andi  $t4, $t3, 3
        beq   $t4, $t7, a1
        addiu $t5, $t5, 1
a1:     bne   $t4, $zero, a2
        addiu $t5, $t5, 2
a2:     blez  $t3, a3
        addiu $t5, $t5, 4
a3:     bgtz  $t3, a4
        addiu $t5, $t5, 8
a4:     bltz  $t3, a5
        addiu $t5, $t5, 16
a5:     bgez  $t3, a6
        addiu $t5, $t5, 32
a6:     bltzal $t3, a7
        addiu $t5, $t5, 64
a7:     addu  $t6, $t6, $ra
        bgezal $t3, a8
        addiu $t5, $t5, 128
a8:     addu  $t6, $t6, $ra
        addiu $ra, $t3, 0
        bltzal $ra, a9
        addiu $t5, $t5, 256
a9:     addu  $t6, $t6, $ra
        addiu $t3, $t3, 1
        slti  $t8, $t3, 24
        bne   $t8, $zero, loop
        break
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_FALSE(fast.hit_limit);

  Machine m(p);
  m.run();
  const Trace* t = m.trace_cache().peek(p.symbol("loop"));
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->ops.back().instr.op, isa::Op::kBne);  // one trace holds every branch
  EXPECT_GT(m.trace_cache().stats().ops_executed, fast.instructions * 3 / 4);
}

TEST(TraceCache, StringsearchBaselineEntriesPinned) {
  // Trace entries are a deterministic count. Per-block traces entered
  // stringsearch 877,316 times for 2.7M instructions (3.1 ops per entry);
  // running on through not-taken branches cuts that below 400,000.
  const asmblr::Program p =
      asmblr::assemble(work::make_workload("stringsearch", 1).source);
  Machine m(p);
  const RunResult r = m.run();
  EXPECT_FALSE(r.hit_limit);
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_LE(st.executions, 400000u);
  EXPECT_GE(st.ops_executed * 2, st.executions * 13)  // >= 6.5 ops per entry
      << st.ops_executed << " ops in " << st.executions << " entries";
}

TEST(TraceCache, OneAndTwoOpBlocksFormTraces) {
  // The short blocks of control-dominated code. A not-taken conditional
  // branch does not end a trace, so the 2-op block at `loop` (addiu + beq)
  // runs on into the lone j after it: one 3-op trace with the beq
  // interior. The beq's taken exit reaches `back`, a lone j, which forms a
  // 1-op trace. Both fold and match the slow path bit for bit.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li    $t5, 3
outer:
        li    $t3, 20
loop:
        addiu $t3, $t3, -1
        beq   $t3, $zero, back
        j     loop
back:
        j     tail
tail:
        addiu $t5, $t5, -1
        bne   $t5, $zero, outer
        break
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_FALSE(fast.hit_limit);

  Machine m(p);
  m.run();
  const Trace* three = m.trace_cache().peek(p.symbol("loop"));
  const Trace* one = m.trace_cache().peek(p.symbol("back"));
  ASSERT_NE(three, nullptr);
  ASSERT_NE(one, nullptr);
  ASSERT_EQ(three->ops.size(), 3u);
  EXPECT_EQ(three->ops[0].instr.op, isa::Op::kAddiu);
  EXPECT_EQ(three->ops[1].instr.op, isa::Op::kBeq);
  EXPECT_EQ(three->ops[2].instr.op, isa::Op::kJ);
  ASSERT_EQ(one->ops.size(), 1u);
  EXPECT_EQ(one->ops[0].instr.op, isa::Op::kJ);
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_EQ(st.rejected_heads, 0u);
  EXPECT_EQ(st.folded_executions, st.executions);
  EXPECT_GT(st.ops_executed, fast.instructions * 3 / 4);
}

TEST(TraceCache, OnlyUnstartableHeadsAreRejected) {
  // Syscall heads cannot start a trace and are rejected once each; the
  // 1-op blocks between them (a straight-line op stopped by the next
  // syscall, a lone branch) form traces.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li    $t3, 40
        li    $v0, 11
        li    $a0, 46
loop:
        syscall
        addiu $t3, $t3, -1
        syscall
        bne   $t3, $zero, loop
        break
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_EQ(fast.state.output, std::string(80, '.'));

  Machine m(p);
  m.run();
  const uint32_t loop = p.symbol("loop");
  EXPECT_EQ(m.trace_cache().stats().rejected_heads, 2u);
  EXPECT_EQ(m.trace_cache().peek(loop), nullptr);
  EXPECT_EQ(m.trace_cache().peek(loop + 8), nullptr);
  for (const uint32_t head : {loop + 4, loop + 12}) {
    const Trace* t = m.trace_cache().peek(head);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->ops.size(), 1u);
  }
}

TEST(TraceCache, SelfModifyingPatchLoopMatchesSlowPath) {
  // Each iteration loads a donor instruction word and stores it over the
  // `site` instruction before executing it. The store lands inside the
  // trace being executed (bail), and the changed word makes revalidation
  // rebuild the trace on re-entry. Results must still match the slow path
  // exactly.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $t3, 60
        la   $t6, donor_a
        la   $t7, donor_b
        la   $t8, site
loop:
        andi  $t4, $t3, 1
        beq   $t4, $zero, even
        lw    $t1, 0($t6)
        j     patch
even:
        lw    $t1, 0($t7)
patch:
        sw    $t1, 0($t8)
site:
        addiu $t5, $t5, 1
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
donor_a:
        addiu $t5, $t5, 3
donor_b:
        addiu $t5, $t5, 5
)");
  expect_dispatch_identical(p);

  MachineConfig fast;
  fast.host_trace_dispatch = true;
  Machine m(p, fast);
  m.run();
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_GT(st.revalidation_rebuilds, 0u) << "patched word never noticed";
  EXPECT_GT(st.smc_bails, 0u) << "store into the live trace never bailed";
}

TEST(TraceCache, SameWordRewriteBailsWithoutRebuilding) {
  // Rewriting an instruction with its own value must still bail out of
  // the running trace (the engine is conservative about stores into its
  // code range) but must NOT rebuild: revalidation sees identical words.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $t3, 50
        la   $t6, loop
loop:
        lw    $t1, 0($t6)
        sw    $t1, 0($t6)
        addiu $t0, $t0, 1
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
)");
  expect_dispatch_identical(p);

  MachineConfig fast;
  fast.host_trace_dispatch = true;
  Machine m(p, fast);
  m.run();
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_GT(st.smc_bails, 0u);
  EXPECT_EQ(st.revalidation_rebuilds, 0u);
}

// Rebases a single-segment code-only program (no absolute addressing:
// branches are PC-relative, so the image is position-independent).
asmblr::Program rebase(const std::string& source, uint32_t base) {
  asmblr::Program p = asmblr::assemble(source);
  for (size_t i = 1; i < p.segments.size(); ++i) {
    EXPECT_TRUE(p.segments[i].bytes.empty()) << "rebase needs a code-only program";
  }
  EXPECT_EQ(p.entry, p.segments[0].base);
  p.segments[0].base = base;
  p.entry = base;
  return p;
}

TEST(TraceCache, StraightLineRunWrapsPcAtTopOfMemory) {
  // Init word at 0xFFFFFFDC, then eight straight-line adds filling
  // 0xFFFFFFE0..0xFFFFFFFC; execution falls off the top and the PC wraps
  // to 0, where the loop tail (counter + backward branch across the wrap)
  // lives. Trace formation must stop cleanly at the boundary and the
  // fast path must retire the identical stream.
  asmblr::Program top = rebase(R"(
main:
        addiu $t3, $zero, 80
        addiu $t0, $t0, 1
        addiu $t0, $t0, 2
        addiu $t0, $t0, 3
        addiu $t0, $t0, 4
        addiu $t0, $t0, 5
        addiu $t0, $t0, 6
        addiu $t0, $t0, 7
        addiu $t0, $t0, 8
)",
                               0xFFFFFFDCu);
  asmblr::Program low = asmblr::assemble(R"(
main:
        addiu $t1, $t1, 1
        addiu $t3, $t3, -1
        break
        break
)");
  // Patch word 2 with `bne $t3, $zero, <back to 0xFFFFFFE0>`: from
  // pc = 0x8 the target is pc + 4 + (simm << 2) in uint32 arithmetic, so
  // simm = (0xFFFFFFE0 - 0xC) >> 2 = -11 wraps backwards across zero.
  isa::Instr bne;
  bne.op = isa::Op::kBne;
  bne.rs = 11;  // $t3
  bne.rt = 0;
  bne.imm16 = static_cast<uint16_t>(-11);
  const uint32_t word = isa::encode(bne);
  for (int b = 0; b < 4; ++b) {
    low.segments[0].bytes[8 + static_cast<size_t>(b)] =
        static_cast<uint8_t>(word >> (8 * b));
  }

  asmblr::Program wrap;
  wrap.entry = top.entry;
  wrap.segments = top.segments;
  asmblr::Segment zero_seg;
  zero_seg.base = 0;
  zero_seg.bytes = low.segments[0].bytes;
  wrap.segments.push_back(zero_seg);

  const RunResult fast = expect_dispatch_identical(wrap);
  EXPECT_FALSE(fast.hit_limit);
  EXPECT_EQ(fast.state.regs[8], 80u * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));  // $t0
  EXPECT_EQ(fast.state.regs[9], 80u);                                    // $t1
}

TEST(TraceCache, TraceStraddlesDataPageBoundary) {
  // Loop head four words below a 64 KiB page boundary: the superblock
  // spans two pages, so revalidation and the per-page word check run on
  // both halves. The terminal branch sits past the boundary.
  const asmblr::Program p = rebase(R"(
main:
        addiu $t3, $zero, 150
loop:
        addiu $t0, $t0, 1
        addiu $t0, $t0, 2
        addiu $t0, $t0, 3
        addiu $t0, $t0, 4
        addiu $t1, $t1, 5
        addiu $t1, $t1, 6
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
)",
                                   0x0040FFECu);  // loop head at 0x0040FFF0
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_FALSE(fast.hit_limit);
}

TEST(TraceCache, BackwardBranchIntoTraceInterior) {
  // The inner branch re-enters the middle of the superblock formed from
  // `head`; the interior PC gets its own trace slot and both must stay
  // bit-identical to the slow path.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        addiu $t4, $zero, 40
outer:
        addiu $t3, $zero, 12
head:
        addiu $t0, $t0, 1
mid:
        addiu $t0, $t0, 2
        addiu $t1, $t1, 3
        addiu $t3, $t3, -1
        bne   $t3, $zero, mid
        addiu $t4, $t4, -1
        bne   $t4, $zero, outer
        break
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_FALSE(fast.hit_limit);

  MachineConfig cfg;
  cfg.host_trace_dispatch = true;
  Machine m(p, cfg);
  m.run();
  const uint32_t head = p.symbol("head");
  const uint32_t mid = p.symbol("mid");
  ASSERT_NE(m.trace_cache().peek(mid), nullptr) << "interior head never formed";
  const Trace* t = m.trace_cache().peek(head);
  if (t != nullptr) {
    EXPECT_GE(t->ops.size(), 1u);
    EXPECT_LE(t->ops.size(), TraceCache::kMaxOps);
  }
}

TEST(TraceCache, InstructionLimitCutsMidTrace) {
  // An odd max_instructions lands inside a superblock; the fast path must
  // stop at exactly the same instruction, PC and cycle as the slow path.
  for (const uint64_t limit : {7ull, 100ull, 101ull, 999ull, 1003ull}) {
    MachineConfig cfg;
    cfg.max_instructions = limit;
    const RunResult fast = expect_dispatch_identical(kHotLoop, cfg);
    EXPECT_TRUE(fast.hit_limit);
    EXPECT_EQ(fast.instructions, limit);
  }
}

TEST(TraceCache, MachineResetClearsHostCaches) {
  // reset(programB) after running programA must behave exactly like a
  // fresh machine on programB: stale decoded words or traces from A
  // surviving the image swap would corrupt the run (the original bug this
  // clear() contract pins).
  const asmblr::Program a = asmblr::assemble(kHotLoop);
  const asmblr::Program b = asmblr::assemble(R"(
main:
        li   $t3, 90
loop:
        addiu $t0, $t0, 7
        sll   $t1, $t0, 1
        subu  $t2, $t1, $t3
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
)");
  MachineConfig cfg;
  cfg.host_trace_dispatch = true;

  Machine reused(a, cfg);
  reused.run();
  EXPECT_GT(reused.trace_cache().stats().traces_built, 0u);
  reused.reset(b);
  EXPECT_EQ(reused.trace_cache().stats().traces_built, 0u);
  const RunResult after_reset = reused.run();

  Machine fresh(b, cfg);
  const RunResult direct = fresh.run();

  EXPECT_EQ(direct.instructions, after_reset.instructions);
  EXPECT_EQ(direct.cycles, after_reset.cycles);
  EXPECT_EQ(direct.memory_hash, after_reset.memory_hash);
  expect_same_state(direct.state, after_reset.state);
  EXPECT_EQ(fresh.trace_cache().stats().traces_built,
            reused.trace_cache().stats().traces_built);
  EXPECT_EQ(fresh.trace_cache().stats().executions,
            reused.trace_cache().stats().executions);
}

TEST(TraceCache, CopiedMachineValidatesAgainstItsOwnMemory) {
  // A copied Machine (copy-constructed or copy-assigned) carries the
  // source's hot traces and a copy of its Memory, whose page cache must
  // not point into the source's pages. Patching the copy's code must
  // rebuild the copy's traces from its own image. The source is destroyed
  // before the copy runs, so a read of its pages would be a
  // use-after-free.
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  isa::Instr subu;  // replaces `xor $t2, $t1, $t3`
  subu.op = isa::Op::kSubu;
  subu.rd = 10;
  subu.rs = 9;
  subu.rt = 11;
  const uint32_t site = p.symbol("loop") + 8;

  auto run_patched_copy = [&](bool fast, bool assign, TraceStats* stats) {
    MachineConfig cfg;
    cfg.host_trace_dispatch = fast;
    cfg.max_instructions = 400;  // stop mid-loop with hot traces
    auto source = std::make_unique<Machine>(p, cfg);
    source->run();
    std::unique_ptr<Machine> copy;
    if (assign) {
      copy = std::make_unique<Machine>(asmblr::assemble("main: break\n"), cfg);
      *copy = *source;
    } else {
      copy = std::make_unique<Machine>(*source);
    }
    source.reset();
    copy->memory().write32(site, isa::encode(subu));
    RunResult r = copy->run();
    while (r.hit_limit) r = copy->run();
    *stats = copy->trace_cache().stats();
    return r;
  };

  for (const bool assign : {false, true}) {
    SCOPED_TRACE(assign ? "copy assignment" : "copy construction");
    TraceStats slow_stats;
    TraceStats fast_stats;
    const RunResult slow = run_patched_copy(false, assign, &slow_stats);
    const RunResult fast = run_patched_copy(true, assign, &fast_stats);
    EXPECT_EQ(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.memory_hash, fast.memory_hash);
    expect_same_state(slow.state, fast.state);
    EXPECT_GT(fast_stats.revalidation_rebuilds, 0u) << "patched word never noticed";
  }
}

// --- every way a write reaches a hot trace's words ----------------------
//
// A trace runs without comparing its words while its stamp matches
// memory.code_writes(), so each path that can change code must move it.
// Each test below changes code through one path and must stay
// bit-identical to the slow path.

TEST(TraceCache, SlowPathStoreIntoHotTraceRebuildsIt) {
  // `loop` is hot in the first phase. Between the phases, code reached
  // once per phase (a head that is still warming up, so step() retires it)
  // rewrites the immediate byte of `site` with sb: that slow-path store
  // goes through Memory::write8, and the second phase must run the
  // patched add.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $s0, 2
        la   $t8, site
        li   $t1, 7
phase:
        li   $t3, 40
loop:
        addiu $t5, $t5, 2
site:
        addiu $t0, $t0, 1
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        j     patch
patch:
        sb    $t1, 0($t8)
        addiu $s0, $s0, -1
        bne   $s0, $zero, phase
        break
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_EQ(fast.state.regs[8], 40u * 1 + 40u * 7);  // $t0

  Machine m(p);
  m.run();
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_GT(st.revalidation_rebuilds, 0u) << "patched word never noticed";
  EXPECT_EQ(st.smc_bails, 0u) << "the patch ran inside a trace";
}

TEST(TraceCache, StoreFromOneTraceIntoAnotherRebuildsTheOther) {
  // The patch code ends in a jump, so its stores run in traces that do
  // not hold `site`: they move the code-write count instead of bailing,
  // and the victim trace must notice the new word at its next entry. The
  // donors alternate, so the site changes on every iteration.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $t3, 60
        la   $t6, donor_a
        la   $t7, donor_b
        la   $t8, site
        j    loop
victim:
site:
        addiu $t5, $t5, 1
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
loop:
        andi  $t4, $t3, 1
        beq   $t4, $zero, even
        lw    $t1, 0($t6)
        sw    $t1, 0($t8)
        j     victim
even:
        lw    $t1, 0($t7)
        sw    $t1, 0($t8)
        j     victim
donor_a:
        addiu $t5, $t5, 3
donor_b:
        addiu $t5, $t5, 5
)");
  const RunResult fast = expect_dispatch_identical(p);
  EXPECT_EQ(fast.state.regs[13], 30u * 3 + 30u * 5);  // $t5

  Machine m(p);
  m.run();
  const TraceStats& st = m.trace_cache().stats();
  EXPECT_GT(st.revalidation_rebuilds, 20u) << "the victim ran stale";
  EXPECT_EQ(st.smc_bails, 0u) << "a store hit its own trace";
}

TEST(TraceCache, MemoryWriteBetweenBudgetedRunsRebuilds) {
  // The host patches code through Memory::write32 while the machine is
  // paused between two budgeted run() calls; the resumed run must execute
  // the new word.
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  isa::Instr subu;  // replaces `xor $t2, $t1, $t3`
  subu.op = isa::Op::kSubu;
  subu.rd = 10;
  subu.rs = 9;
  subu.rt = 11;
  const uint32_t site = p.symbol("loop") + 8;

  auto run_patched = [&](bool fast, TraceStats* stats) {
    MachineConfig cfg;
    cfg.host_trace_dispatch = fast;
    cfg.max_instructions = 500;
    Machine m(p, cfg);
    EXPECT_TRUE(m.run().hit_limit);
    m.memory().write32(site, isa::encode(subu));
    RunResult r = m.run();
    while (r.hit_limit) r = m.run();
    *stats = m.trace_cache().stats();
    return r;
  };
  TraceStats slow_stats;
  TraceStats fast_stats;
  const RunResult slow = run_patched(false, &slow_stats);
  const RunResult fast = run_patched(true, &fast_stats);
  EXPECT_EQ(slow.cycles, fast.cycles);
  EXPECT_EQ(slow.memory_hash, fast.memory_hash);
  expect_same_state(slow.state, fast.state);
  EXPECT_GT(fast_stats.revalidation_rebuilds, 0u) << "patched word never noticed";
}

TEST(TraceCache, ResetToDifferentCodeMatchesSlowPath) {
  // Machine::reset replaces the image with one whose loop holds different
  // words at the same addresses, and restarts Memory's write count. Fast
  // and slow machines must agree after the reset as before it.
  const asmblr::Program a = asmblr::assemble(kHotLoop);
  std::string variant = kHotLoop;
  const std::string xor_line = "xor   $t2, $t1, $t3";
  const size_t at = variant.find(xor_line);
  ASSERT_NE(at, std::string::npos);
  variant.replace(at, xor_line.size(), "subu  $t2, $t1, $t3");
  const asmblr::Program b = asmblr::assemble(variant);
  ASSERT_EQ(a.symbol("loop"), b.symbol("loop"));

  auto run_reset = [&](bool fast) {
    MachineConfig cfg;
    cfg.host_trace_dispatch = fast;
    Machine m(a, cfg);
    m.run();
    m.reset(b);
    return m.run();
  };
  const RunResult slow = run_reset(false);
  const RunResult fast = run_reset(true);
  EXPECT_EQ(slow.instructions, fast.instructions);
  EXPECT_EQ(slow.cycles, fast.cycles);
  EXPECT_EQ(slow.memory_hash, fast.memory_hash);
  expect_same_state(slow.state, fast.state);
  EXPECT_EQ(fast.state.regs[13], run_baseline(b).state.regs[13]);  // $t5
}

TEST(TraceCache, ScaleOneBaselinesCompareWordsRarely) {
  // With write stamps, an entry compares its words with memory only after
  // a write that could have changed them. The 18 kernels at scale 1 enter
  // traces over a million times; a few dozen entries follow such a write.
  uint64_t word_checks = 0;
  uint64_t executions = 0;
  for (const std::string& name : work::workload_names()) {
    const work::Workload wl = work::make_workload(name, 1);
    Machine m(asmblr::assemble(wl.source));
    const RunResult r = m.run();
    EXPECT_EQ(r.state.output, wl.expected_output) << name;
    word_checks += m.trace_cache().stats().word_checks;
    executions += m.trace_cache().stats().executions;
  }
  EXPECT_LE(word_checks, 100u);
  EXPECT_GT(executions, 1'000'000u);
}

TEST(TraceCache, AcceleratedPathComparesWordsRarely) {
  // Array stores go through Memory like every other write, and only those
  // that overlap traced code move its code-write count; the array core's
  // data stores must not make the next trace entries compare their words.
  uint64_t word_checks = 0;
  uint64_t executions = 0;
  const accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  for (const std::string& name : work::workload_names()) {
    const work::Workload wl = work::make_workload(name, 1);
    accel::AcceleratedSystem system(asmblr::assemble(wl.source), cfg);
    const accel::AccelStats stats = system.run();
    EXPECT_EQ(stats.final_state.output, wl.expected_output) << name;
    word_checks += system.trace_cache().stats().word_checks;
    executions += system.trace_cache().stats().executions;
  }
  EXPECT_LE(word_checks, 100u);
  EXPECT_EQ(executions, 671'915u);
}

std::string stats_json(const accel::AccelStats& stats) {
  std::ostringstream out;
  accel::write_json(out, stats, "cmp");
  return out.str();
}

TEST(TraceCache, AcceleratedStatsAndEventsIdentical) {
  // On the accelerated system the fast path threads through the same
  // retire/observe sequence as the slow loop; the stats document and the
  // stamped event stream (instruction/cycle stamps included) must match,
  // with and without a software-BT charge and a residency latch.
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  for (const bool residency : {false, true}) {
    uint64_t free_proc_cycles = 0;
    for (const uint64_t bt_cost : {0u, 4u}) {
      SCOPED_TRACE("translation_cost_per_instr " + std::to_string(bt_cost) +
                   (residency ? ", residency on" : ", residency off"));
      accel::SystemConfig base =
          accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
      base.translation_cost_per_instr = bt_cost;
      base.residency = residency;

      obs::RecordingSink slow_sink;
      accel::SystemConfig slow_cfg = base;
      slow_cfg.machine.host_trace_dispatch = false;
      slow_cfg.event_sink = &slow_sink;
      accel::AcceleratedSystem slow(p, slow_cfg);
      const accel::AccelStats slow_stats = slow.run();

      obs::RecordingSink fast_sink;
      accel::SystemConfig fast_cfg = base;
      fast_cfg.machine.host_trace_dispatch = true;
      fast_cfg.event_sink = &fast_sink;
      accel::AcceleratedSystem fast(p, fast_cfg);
      const accel::AccelStats fast_stats = fast.run();

      EXPECT_EQ(stats_json(slow_stats), stats_json(fast_stats));
      ASSERT_EQ(slow_sink.events().size(), fast_sink.events().size());
      for (size_t i = 0; i < slow_sink.events().size(); ++i) {
        EXPECT_EQ(obs::format_event(slow_sink.events()[i]),
                  obs::format_event(fast_sink.events()[i]))
            << "event " << i;
      }

      // The charge is live: every inserted configuration word costs the
      // processor bt_cost cycles on top of the free-translation run.
      ASSERT_GT(slow_stats.config_words_written, 0u);
      if (bt_cost == 0) free_proc_cycles = slow_stats.proc_cycles;
      EXPECT_EQ(slow_stats.proc_cycles,
                free_proc_cycles + bt_cost * slow_stats.config_words_written);
    }
  }
}

TEST(TraceCache, AcceleratedArrayStoreIntoCodeMatchesSlowPath) {
  // The patch block (four ops after a branch) becomes an array
  // configuration, so its store into `site` runs on the array through
  // Memory::write32. The victim block is too short to translate and runs
  // on the core, through its trace; with speculation off DIM cannot merge
  // it into a configuration either.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li   $t3, 200
        la   $t6, donor_a
        la   $t7, donor_b
        la   $t8, site
        j    loop
victim:
site:
        addiu $t5, $t5, 1
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
loop:
        andi  $t4, $t3, 1
        beq   $t4, $zero, even
        lw    $t1, 0($t6)
        addu  $t9, $t9, $t1
        sw    $t1, 0($t8)
        addiu $t2, $t2, 1
        j     victim
even:
        lw    $t1, 0($t7)
        addu  $t9, $t9, $t1
        sw    $t1, 0($t8)
        addiu $t2, $t2, 1
        j     victim
donor_a:
        addiu $t5, $t5, 3
donor_b:
        addiu $t5, $t5, 5
)");
  const accel::SystemConfig base =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, /*spec=*/false);
  accel::SystemConfig slow_cfg = base;
  slow_cfg.machine.host_trace_dispatch = false;
  accel::AcceleratedSystem slow(p, slow_cfg);
  const accel::AccelStats slow_stats = slow.run();
  accel::SystemConfig fast_cfg = base;
  fast_cfg.machine.host_trace_dispatch = true;
  accel::AcceleratedSystem fast(p, fast_cfg);
  const accel::AccelStats fast_stats = fast.run();

  EXPECT_EQ(stats_json(slow_stats), stats_json(fast_stats));
  EXPECT_EQ(fast_stats.final_state.regs[13], 100u * 3 + 100u * 5);  // $t5
  EXPECT_GT(fast_stats.array_activations, 0u);
  EXPECT_GT(fast.trace_cache().stats().revalidation_rebuilds, 20u)
      << "the victim trace ran stale";
}

TEST(TraceCache, AcceleratedDispatchAtTraceInteriorPc) {
  // The loop body is a load, a beq that is almost never taken, and an ALU
  // block that DIM translates. The not-taken beq no longer ends the trace
  // at `loop`, so the configuration DIM builds for the block after it
  // starts at a trace-interior PC: the probe before that op must stop the
  // trace and dispatch the array exactly where the slow loop would.
  const asmblr::Program p = asmblr::assemble(R"(
main:
        li    $t3, 300
        la    $t8, buf
loop:
        lw    $t7, 0($t8)
        andi  $t4, $t3, 63
        beq   $t4, $zero, rare
        addu  $t0, $t0, $t7
        xor   $t1, $t0, $t3
        sll   $t2, $t1, 3
        subu  $t5, $t2, $t0
        or    $t6, $t5, $t1
next:
        addiu $t3, $t3, -1
        bne   $t3, $zero, loop
        break
rare:
        addiu $t9, $t9, 1
        sw    $t9, 0($t8)
        j     next
        .data
buf:    .word 5
)");
  accel::SystemConfig base = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);

  obs::RecordingSink slow_sink;
  accel::SystemConfig slow_cfg = base;
  slow_cfg.machine.host_trace_dispatch = false;
  slow_cfg.event_sink = &slow_sink;
  accel::AcceleratedSystem slow(p, slow_cfg);
  const accel::AccelStats slow_stats = slow.run();

  obs::RecordingSink fast_sink;
  accel::SystemConfig fast_cfg = base;
  fast_cfg.machine.host_trace_dispatch = true;
  fast_cfg.event_sink = &fast_sink;
  accel::AcceleratedSystem fast(p, fast_cfg);
  const accel::AccelStats fast_stats = fast.run();

  EXPECT_EQ(stats_json(slow_stats), stats_json(fast_stats));
  ASSERT_EQ(slow_sink.events().size(), fast_sink.events().size());
  for (size_t i = 0; i < slow_sink.events().size(); ++i) {
    EXPECT_EQ(obs::format_event(slow_sink.events()[i]),
              obs::format_event(fast_sink.events()[i]))
        << "event " << i;
  }
  EXPECT_GT(fast_stats.array_activations, 0u);
  EXPECT_GT(fast.trace_cache().stats().dispatch_stops, 0u)
      << "the configuration never started inside a trace";
}

TEST(TraceCache, RunUntilBoundariesSplitTracesCorrectly) {
  // Pausing at arbitrary instruction boundaries — including ones that land
  // mid-superblock — and continuing must retire the identical stream as
  // one uninterrupted fast run, and as the slow path.
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);

  cfg.machine.host_trace_dispatch = true;
  accel::AcceleratedSystem straight(p, cfg);
  const accel::AccelStats whole = straight.run();

  accel::AcceleratedSystem chunked(p, cfg);
  uint64_t boundary = 97;
  accel::AccelStats paused = chunked.run_until(boundary);
  while (!paused.final_state.halted && paused.instructions >= boundary) {
    boundary += 97;
    paused = chunked.run_until(boundary);
  }
  EXPECT_EQ(stats_json(whole), stats_json(paused));

  cfg.machine.host_trace_dispatch = false;
  accel::AcceleratedSystem slow(p, cfg);
  const accel::AccelStats slow_stats = slow.run();
  // host_trace_dispatch is host-side only, so the slow document is the
  // same one.
  EXPECT_EQ(stats_json(slow_stats), stats_json(whole));
}

TEST(TraceCache, SnapshotRestoreClearsHostCaches) {
  // Restore into a system whose decode/trace caches are hot from a full
  // prior run: restore_snapshot_payload must drop them (the old run's
  // traces and trace heat belong to the replaced image),
  // after which the continuation equals the straight run bit for bit.
  const asmblr::Program p = asmblr::assemble(kHotLoop);
  accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  cfg.machine.host_trace_dispatch = true;

  accel::AcceleratedSystem straight(p, cfg);
  const accel::AccelStats whole = straight.run();

  accel::AcceleratedSystem source(p, cfg);
  source.run_until(301);
  const std::vector<uint8_t> payload = snap::encode_snapshot(source, p);

  accel::AcceleratedSystem target(p, cfg);
  target.run();  // dirty: caches hot, state at halt
  EXPECT_GT(target.trace_cache().stats().traces_built, 0u);
  snap::restore_snapshot_payload(target, payload, p);
  EXPECT_EQ(target.trace_cache().stats().traces_built, 0u)
      << "restore left stale traces alive";
  const accel::AccelStats resumed = target.run();

  EXPECT_EQ(stats_json(whole), stats_json(resumed));
}

}  // namespace
}  // namespace dim::sim
