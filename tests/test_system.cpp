// Integration tests of the full accelerated system — the paper's central
// claims: transparency (identical architectural results), acceleration
// (never slower), and the speculation life-cycle.
#include <gtest/gtest.h>

#include "accel/system.hpp"
#include "asm/assembler.hpp"

namespace dim::accel {
namespace {

const char* kCountingLoop = R"(
        .data
arr:    .word 0
        .space 2048
        .text
main:   la $t0, arr
        li $t1, 500
        li $t2, 0
        li $t3, 0
loop:   sll $t4, $t3, 2
        andi $t4, $t4, 1023
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

void expect_transparent(const SpeedupResult& r) {
  EXPECT_EQ(r.baseline.final_state.output, r.accelerated.final_state.output);
  EXPECT_EQ(r.baseline.final_state.reg_hash(), r.accelerated.final_state.reg_hash());
  EXPECT_EQ(r.baseline.memory_hash, r.accelerated.memory_hash);
  EXPECT_FALSE(r.accelerated.hit_limit);
}

TEST(System, TransparentAndFasterOnLoop) {
  const auto prog = asmblr::assemble(kCountingLoop);
  for (bool spec : {false, true}) {
    const auto r = measure_speedup(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, spec));
    expect_transparent(r);
    EXPECT_GT(r.speedup(), 1.0) << "spec=" << spec;
  }
}

TEST(System, SpeculationBeatsNoSpeculationOnBiasedLoop) {
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto ns = run_accelerated(prog, SystemConfig::with(rra::ArrayShape::config3(), 64, false));
  const auto sp = run_accelerated(prog, SystemConfig::with(rra::ArrayShape::config3(), 64, true));
  EXPECT_LT(sp.cycles, ns.cycles);
  EXPECT_GT(sp.extensions, 0u);
}

TEST(System, ArrayDisabledMatchesBaselineCycles) {
  // The array is off when no configuration can be stored: on the default
  // configuration the run must then cost and output exactly the baseline.
  const auto prog = asmblr::assemble(kCountingLoop);
  SystemConfig cfg;
  cfg.cache_slots = 0;
  const auto st = run_accelerated(prog, cfg);
  const auto base = baseline_as_stats(prog, cfg.machine);
  EXPECT_EQ(st.cycles, base.cycles);
  EXPECT_EQ(st.array_activations, 0u);
  EXPECT_EQ(st.final_state.output, base.final_state.output);
}

TEST(System, InstructionConservation) {
  // Committed instructions must be identical between baseline and
  // accelerated runs — the array replaces instructions, it never adds or
  // drops any.
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto r = measure_speedup(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, false));
  EXPECT_EQ(r.baseline.instructions, r.accelerated.instructions);
  EXPECT_EQ(r.accelerated.instructions,
            r.accelerated.proc_instructions + r.accelerated.array_instructions);
}

TEST(System, SpeculativeRunMayReplayButNeverDropsWork) {
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto r = measure_speedup(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  // Misspeculated slots re-execute on the processor, so the committed count
  // can only match or exceed the baseline's (never drop below).
  EXPECT_GE(r.accelerated.instructions, r.baseline.instructions);
}

TEST(System, CyclesDecomposeExactly) {
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto st = run_accelerated(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  EXPECT_EQ(st.cycles, st.proc_cycles + st.array_cycles);
  EXPECT_GT(st.array_activations, 0u);
  EXPECT_GT(st.array_instructions, 0u);
}

TEST(System, ZeroSlotCacheDegradesToBaseline) {
  // With nowhere to store a configuration the array never fires, so the
  // system is exactly the plain baseline core.
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto st = run_accelerated(prog, SystemConfig::with(rra::ArrayShape::config2(), 0, true));
  const auto base = baseline_as_stats(prog, sim::MachineConfig{});
  EXPECT_EQ(st.cycles, base.cycles);
  EXPECT_EQ(st.array_activations, 0u);
  EXPECT_EQ(st.final_state.output, base.final_state.output);
}

TEST(System, TinyArrayStillTransparent) {
  const auto prog = asmblr::assemble(kCountingLoop);
  rra::ArrayShape tiny{4, 2, 1, 1};
  const auto r = measure_speedup(prog, SystemConfig::with(tiny, 8, true));
  expect_transparent(r);
}

TEST(System, MinInstructionThresholdRespected) {
  // A program whose loop body (between branches) is only 3 instructions
  // must never activate the array (sequences must exceed 3 instructions).
  const char* short_loop = R"(
main:   li $t1, 200
        li $t2, 0
loop:   addu $t2, $t2, $t1
        addiu $t1, $t1, -1
        bnez $t1, loop
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(short_loop);
  SystemConfig cfg = SystemConfig::with(rra::ArrayShape::config2(), 64, false);
  const auto st = run_accelerated(prog, cfg);
  EXPECT_EQ(st.array_activations, 0u);
}

TEST(System, AlternatingBranchFlushesConfiguration) {
  // A branch that alternates T/N/T/N defeats the bimodal gate; with
  // speculation the first captured direction goes stale, misspeculates,
  // and once the counter saturates the other way the config is flushed.
  const char* alternating = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 400
        li $s1, 0             # i
        la $s2, buf
loop:   andi $t0, $s1, 1
        sll $t1, $s1, 2
        andi $t1, $t1, 63
        addu $t2, $s2, $t1
        sw $t0, 0($t2)
        beqz $t0, even
        addiu $s3, $s3, 2
        b next
even:   addiu $s3, $s3, 1
next:   addiu $s1, $s1, 1
        bne $s1, $s0, loop
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(alternating);
  const auto r = measure_speedup(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  expect_transparent(r);
}

TEST(System, MisspecFlushThresholdAblation) {
  const auto prog = asmblr::assemble(kCountingLoop);
  SystemConfig aggressive = SystemConfig::with(rra::ArrayShape::config3(), 64, true);
  aggressive.misspec_flush_threshold = 1;  // flush on first misspeculation
  const auto st = run_accelerated(prog, aggressive);
  const auto base = baseline_as_stats(prog, sim::MachineConfig{});
  EXPECT_EQ(st.final_state.output, base.final_state.output);
  EXPECT_GE(st.config_flushes, 1u);
}

TEST(System, StatsAreInternallyConsistent) {
  const auto prog = asmblr::assemble(kCountingLoop);
  const auto st = run_accelerated(prog, SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  // Every processor retirement is observed by DIM except branches absorbed
  // directly into a speculation extension.
  EXPECT_EQ(st.bt_observed + st.extensions, st.proc_instructions);
  // Dispatch hits and array activations are the same event; misses count
  // only untranslated sequence starts, which is where captures begin.
  EXPECT_EQ(st.rcache_hits, st.array_activations);
  EXPECT_GT(st.rcache_misses, 0u);
  EXPECT_LT(st.rcache_misses, st.proc_instructions);
  EXPECT_GE(st.config_words_loaded, st.array_activations);  // >=1 word per activation
  EXPECT_GT(st.config_words_written, 0u);
}

TEST(System, ZeroSlotCacheChargesNoTranslationCost) {
  // Regression: with cache_slots = 0 nothing is ever stored, so software-BT
  // emulation (cycles per written configuration word) must charge nothing —
  // the accelerated run must cost exactly the baseline.
  const auto prog = asmblr::assemble(kCountingLoop);
  SystemConfig cfg = SystemConfig::with(rra::ArrayShape::config2(), 0, true);
  cfg.translation_cost_per_instr = 50;
  const auto st = run_accelerated(prog, cfg);
  const auto base = baseline_as_stats(prog, cfg.machine);
  EXPECT_EQ(st.cycles, base.cycles);
  EXPECT_EQ(st.config_words_written, 0u);
  EXPECT_EQ(st.array_activations, 0u);
}

TEST(System, FailedExtensionSetsNoExtendAndStopsRetrying) {
  // A loop body that exactly fills a 4-line, 1-ALU-per-line array: the
  // detected configuration commits fully and resumes at its own branch, so
  // the extension check arms — but replaying the four chained ops plus the
  // branch needs a fifth row, so begin_extension must fail, latch
  // no_extend, and never be retried (extensions stays 0).
  const char* full_array_loop = R"(
main:   li $t1, 200
        li $t2, 0
loop:   addu $t2, $t2, $t1
        addu $t2, $t2, $t1
        addu $t2, $t2, $t1
        addiu $t1, $t1, -1
        bnez $t1, loop
        move $a0, $t2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(full_array_loop);
  rra::ArrayShape narrow{4, 1, 1, 1};
  AcceleratedSystem system(prog, SystemConfig::with(narrow, 64, true));
  const AccelStats st = system.run();
  const auto base = baseline_as_stats(prog, sim::MachineConfig{});
  EXPECT_EQ(st.final_state.output, base.final_state.output);
  EXPECT_GT(st.array_activations, 0u);
  EXPECT_EQ(st.extensions, 0u);
  bool saw_no_extend = false;
  for (uint32_t pc : system.rcache().fifo_order()) {
    const rra::Configuration* c = system.rcache().peek(pc);
    if (c != nullptr && c->no_extend) saw_no_extend = true;
  }
  EXPECT_TRUE(saw_no_extend);
}

TEST(System, MisspecFlushThresholdCountsPerConfiguration) {
  // An inner loop re-entered by an outer loop misspeculates once per inner
  // exit. The configuration merges blocks four iterations deep, so the
  // iteration count (122 = 4*30 + 2) is chosen so the exit branch falls on
  // a branch merged INSIDE the configuration rather than on the processor
  // at a config boundary. The bimodal counter never reaches the opposite
  // saturation (one not-taken against a stream of takens), so with
  // threshold 0 the config survives every misspeculation; with a threshold
  // the flush fires once the per-configuration misspec count reaches it.
  const char* nested = R"(
main:   li $s0, 6              # outer iterations
        li $s1, 0
outer:  li $t1, 122            # inner iterations
        li $t2, 0
inner:  sll $t4, $t2, 1
        xor $t5, $t4, $t1
        addu $t2, $t2, $t5
        addiu $t1, $t1, -1
        bnez $t1, inner
        addu $s1, $s1, $t2
        addiu $s0, $s0, -1
        bnez $s0, outer
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(nested);
  SystemConfig lenient = SystemConfig::with(rra::ArrayShape::config3(), 64, true);
  lenient.misspec_flush_threshold = 0;
  const auto st0 = run_accelerated(prog, lenient);
  EXPECT_GT(st0.misspeculations, 1u);  // one per inner-loop exit
  EXPECT_EQ(st0.config_flushes, 0u);   // opposite saturation never reached

  SystemConfig strict = lenient;
  strict.misspec_flush_threshold = 3;
  const auto st3 = run_accelerated(prog, strict);
  EXPECT_GE(st3.config_flushes, 1u);
  // Transparency is unaffected by the flush policy.
  const auto base = baseline_as_stats(prog, sim::MachineConfig{});
  EXPECT_EQ(st0.final_state.output, base.final_state.output);
  EXPECT_EQ(st3.final_state.output, base.final_state.output);
}

}  // namespace
}  // namespace dim::accel
