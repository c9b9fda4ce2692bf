// DIM event tracing (obs/): stream contents, clock stamps, the
// per-configuration aggregation table, and the observation-only contract
// (attaching a sink never changes simulated results).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "obs/event.hpp"
#include "obs/profile.hpp"

namespace dim {
namespace {

// A loop hot enough for DIM to capture, insert, and repeatedly activate,
// with a conditional exit so at least one misspeculation occurs.
const char* kHotLoop = R"(
        .data
buf:    .space 256
        .text
main:   la $s0, buf
        li $s1, 40
        li $s2, 0
loop:   addiu $s1, $s1, -1
        sll $t0, $s1, 2
        andi $t0, $t0, 255
        addu $t1, $s0, $t0
        lw $t2, 0($t1)
        addu $t2, $t2, $s1
        sw $t2, 0($t1)
        addu $s2, $s2, $t2
        bnez $s1, loop
        move $a0, $s2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

accel::AccelStats traced_run(const asmblr::Program& prog, obs::RecordingSink* sink,
                             size_t cache_slots = 64) {
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), cache_slots, true);
  cfg.event_sink = sink;
  return accel::run_accelerated(prog, cfg);
}

TEST(ObsEvents, LifecycleEventsAreEmitted) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto st = traced_run(prog, &sink);
  ASSERT_FALSE(sink.events().empty());

  uint64_t starts = 0, finalized = 0, inserts = 0, activations = 0, misspecs = 0;
  for (const obs::Event& e : sink.events()) {
    switch (e.kind) {
      case obs::EventKind::kCaptureStarted: ++starts; break;
      case obs::EventKind::kConfigFinalized: ++finalized; break;
      case obs::EventKind::kRcacheInsert: ++inserts; break;
      case obs::EventKind::kArrayActivation: ++activations; break;
      case obs::EventKind::kMisspeculation: ++misspecs; break;
      default: break;
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_GT(finalized, 0u);
  EXPECT_EQ(activations, st.array_activations);
  EXPECT_EQ(misspecs, st.misspeculations);
  EXPECT_GE(inserts, st.rcache_insertions);  // in-place rewrites also emit
}

TEST(ObsEvents, StampsAreMonotonicAndBounded) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto st = traced_run(prog, &sink);
  uint64_t last_instr = 0, last_proc = 0, last_array = 0;
  for (const obs::Event& e : sink.events()) {
    EXPECT_GE(e.instructions, last_instr);
    EXPECT_GE(e.proc_cycles, last_proc);
    EXPECT_GE(e.array_cycles, last_array);
    last_instr = e.instructions;
    last_proc = e.proc_cycles;
    last_array = e.array_cycles;
  }
  EXPECT_LE(last_instr, st.instructions);
  EXPECT_LE(last_proc, st.proc_cycles);
  EXPECT_LE(last_array, st.array_cycles);
}

TEST(ObsEvents, MisspeculationCarriesBranchPc) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto st = traced_run(prog, &sink);
  ASSERT_GT(st.misspeculations, 0u) << "test program must misspeculate";
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kMisspeculation) {
      EXPECT_NE(e.branch_pc, 0u);
      EXPECT_GE(e.depth, 1);
    }
  }
}

TEST(ObsEvents, TracingIsObservationOnly) {
  // The whole point of a transparent observer: stats with a sink attached
  // are byte-identical (as JSON) to stats with the null sink.
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto traced = traced_run(prog, &sink);
  const auto plain = accel::run_accelerated(
      prog, accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  std::ostringstream a, b;
  accel::write_json(a, traced, "x");
  accel::write_json(b, plain, "x");
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(traced.memory_hash, plain.memory_hash);
  EXPECT_EQ(traced.final_state.output, plain.final_state.output);
}

TEST(ObsEvents, JsonlWriterEmitsOneObjectPerEvent) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  traced_run(prog, &sink);
  std::ostringstream out;
  obs::write_events_jsonl(out, sink.events());
  const std::string text = out.str();
  size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, sink.events().size());
  EXPECT_NE(text.find("\"event\": \"array_activation\""), std::string::npos);
  EXPECT_NE(text.find("\"event\": \"capture_started\""), std::string::npos);
}

TEST(ObsProfile, CycleBreakdownSumsToArrayCycles) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto st = traced_run(prog, &sink);

  obs::ProfileTable table;
  table.add_all(sink.events());
  ASSERT_FALSE(table.empty());

  // Per-configuration: the five components sum to the config's cycles.
  uint64_t total = 0;
  for (const obs::ConfigProfile& p : table.by_start_pc()) {
    EXPECT_EQ(p.exec_cycles + p.reconfig_stall_cycles + p.dcache_stall_cycles +
                  p.finalize_cycles + p.misspec_penalty_cycles,
              p.array_cycles());
    total += p.array_cycles();
  }
  // Whole table: per-config contributions sum to the run's array_cycles,
  // and the stats-level taxonomy agrees component-by-component.
  EXPECT_EQ(total, st.array_cycles);
  EXPECT_EQ(table.total_array_cycles(), st.array_cycles);
  EXPECT_EQ(table.total_activations(), st.array_activations);
  EXPECT_EQ(st.array_exec_cycles + st.reconfig_stall_cycles +
                st.array_dcache_stall_cycles + st.array_finalize_cycles +
                st.misspec_penalty_cycles,
            st.array_cycles);
}

TEST(ObsProfile, HotOrderAndMisspecRate) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  traced_run(prog, &sink);
  obs::ProfileTable table;
  table.add_all(sink.events());
  const auto hot = table.by_cycles();
  for (size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].array_cycles(), hot[i].array_cycles());
  }
  for (const auto& p : hot) {
    EXPECT_GE(p.misspec_rate(), 0.0);
    EXPECT_LE(p.misspec_rate(), 1.0);
  }
}

TEST(ObsProfile, EvictionChurnIsRecordedUnderCachePressure) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  const auto st = traced_run(prog, &sink, /*cache_slots=*/1);
  obs::ProfileTable table;
  table.add_all(sink.events());
  uint64_t evictions = 0;
  for (const auto& p : table.by_start_pc()) evictions += p.evictions;
  EXPECT_EQ(evictions, st.rcache_evictions);
}

TEST(ObsProfile, MergeIsAdditive) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  traced_run(prog, &sink);
  obs::ProfileTable once;
  once.add_all(sink.events());
  obs::ProfileTable twice;
  twice.merge(once);
  twice.merge(once);
  EXPECT_EQ(twice.total_array_cycles(), 2 * once.total_array_cycles());
  EXPECT_EQ(twice.total_activations(), 2 * once.total_activations());
  EXPECT_EQ(twice.size(), once.size());
}

TEST(ObsProfile, JsonAndTableExports) {
  const auto prog = asmblr::assemble(kHotLoop);
  obs::RecordingSink sink;
  traced_run(prog, &sink);
  obs::ProfileTable table;
  table.add_all(sink.events());

  std::ostringstream json;
  obs::write_profile_json(json, table);
  EXPECT_NE(json.str().find("\"configs\""), std::string::npos);
  EXPECT_NE(json.str().find("\"total_array_cycles\""), std::string::npos);

  std::ostringstream text;
  obs::write_profile_table(text, table, 2);
  EXPECT_NE(text.str().find("config"), std::string::npos);
  EXPECT_NE(text.str().find("total:"), std::string::npos);
}

TEST(ObsEvents, EventKindNamesAreUnique) {
  const obs::EventKind kinds[] = {
      obs::EventKind::kCaptureStarted, obs::EventKind::kCaptureAborted,
      obs::EventKind::kCaptureTooShort, obs::EventKind::kConfigFinalized,
      obs::EventKind::kRcacheInsert, obs::EventKind::kRcacheEvict,
      obs::EventKind::kRcacheFlush, obs::EventKind::kArrayActivation,
      obs::EventKind::kMisspeculation, obs::EventKind::kExtensionBegun,
      obs::EventKind::kExtensionCompleted, obs::EventKind::kHammockMerged,
      obs::EventKind::kResidencyHit, obs::EventKind::kResidencyDropped};
  std::set<std::string> names;
  for (obs::EventKind k : kinds) names.insert(obs::event_kind_name(k));
  EXPECT_EQ(names.size(), std::size(kinds));
}

// --- Residency lifecycle -----------------------------------------------------

// A loop shaped so the speculative extension closes the capture exactly at
// the loop head (end_pc == start_pc): with one ALU per line and five lines,
// the four-op dependence chain plus the merged backward branch fill the
// array, so the next iteration's first op does not fit and the extension
// finalizes at the loop-start PC. Every iteration then re-dispatches the
// latched configuration.
const char* kResidentLoop = R"(
main:   li $s1, 300
loop:   addiu $s1, $s1, -1
        addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        bnez $s1, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

accel::SystemConfig narrow_config(bool residency) {
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape{5, 1, 1, 1}, 64, true);
  cfg.residency = residency;
  // Small configs hide entirely behind the default reconfiguration overlap;
  // slow the configuration-word bus down so the reload a resident dispatch
  // skips is actually visible in the cycle count (same timing both runs).
  cfg.array_timing.config_words_per_cycle = 1;
  cfg.array_timing.reconfig_overlap_cycles = 0;
  return cfg;
}

TEST(ObsResidency, HotLoopConfigIsReusedWithoutReload) {
  const auto prog = asmblr::assemble(kResidentLoop);
  accel::SystemConfig cfg = narrow_config(true);
  obs::RecordingSink sink;
  cfg.event_sink = &sink;
  const auto on = accel::run_accelerated(prog, cfg);
  ASSERT_GT(on.residency_hits, 0u) << "loop config never stayed latched";

  uint64_t hit_events = 0, drop_events = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kResidencyHit) ++hit_events;
    if (e.kind == obs::EventKind::kResidencyDropped) ++drop_events;
  }
  EXPECT_EQ(hit_events, on.residency_hits);
  EXPECT_EQ(drop_events, on.residency_drops);

  // The per-config profile aggregates the same lifecycle counters.
  obs::ProfileTable table;
  table.add_all(sink.events());
  uint64_t hits = 0, drops = 0;
  for (const obs::ConfigProfile& p : table.by_start_pc()) {
    hits += p.residency_hits;
    drops += p.residency_drops;
  }
  EXPECT_EQ(hits, on.residency_hits);
  EXPECT_EQ(drops, on.residency_drops);

  // Residency is strictly a timing knob: identical architectural results,
  // strictly fewer configuration words loaded, never slower.
  const auto off = accel::run_accelerated(prog, narrow_config(false));
  EXPECT_EQ(off.residency_hits, 0u);
  EXPECT_EQ(on.final_state.output, off.final_state.output);
  EXPECT_EQ(on.final_state.reg_hash(), off.final_state.reg_hash());
  EXPECT_EQ(on.memory_hash, off.memory_hash);
  EXPECT_EQ(on.instructions, off.instructions);
  EXPECT_LT(on.config_words_loaded, off.config_words_loaded);
  EXPECT_LT(on.cycles, off.cycles);
}

TEST(ObsResidency, ProcessorStoreIntoLoopBodyDropsLatch) {
  // The outer loop patches an instruction of the (resident) inner loop with
  // its own word after every inner run — architecturally a no-op, but SMC
  // as far as the latch is concerned: the store lands inside the resident
  // code range and must drop residency. The next outer iteration re-latches.
  const char* patcher = R"(
main:   li $s0, 50
        la $s4, site
        lw $s5, 0($s4)
outer:  li $s1, 40
loop:   addiu $s1, $s1, -1
site:   addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        bnez $s1, loop
        sw $s5, 0($s4)
        addiu $s0, $s0, -1
        bnez $s0, outer
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(patcher);
  accel::SystemConfig cfg = narrow_config(true);
  obs::RecordingSink sink;
  cfg.event_sink = &sink;
  const auto st = accel::run_accelerated(prog, cfg);
  EXPECT_GT(st.residency_hits, 0u);
  EXPECT_GT(st.residency_drops, 0u) << "SMC store never invalidated the latch";

  uint64_t drop_events = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kResidencyDropped) ++drop_events;
  }
  EXPECT_EQ(drop_events, st.residency_drops);

  // Transparent despite the code-page stores.
  const auto off = accel::run_accelerated(prog, narrow_config(false));
  EXPECT_EQ(st.final_state.output, off.final_state.output);
  EXPECT_EQ(st.final_state.reg_hash(), off.final_state.reg_hash());
  EXPECT_EQ(st.memory_hash, off.memory_hash);
}

TEST(ObsResidency, RcacheRewriteDropsStaleLatch) {
  // Residency latches every dispatched configuration. The speculative
  // extension rewrites the hot config in place (fresh revision stamp), so
  // the next dispatch must detect the stale latch and drop it instead of
  // reusing the old contents.
  const auto prog = asmblr::assemble(kHotLoop);
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  cfg.residency = true;
  obs::RecordingSink sink;
  cfg.event_sink = &sink;
  const auto st = accel::run_accelerated(prog, cfg);
  ASSERT_GT(st.extensions, 0u) << "test program must extend (rewrite) a config";
  EXPECT_GT(st.residency_hits, 0u);
  EXPECT_GT(st.residency_drops, 0u) << "rewrite never invalidated the latch";

  // Timing-only, as always: residency matches the plain run architecturally.
  const auto plain = accel::run_accelerated(
      prog, accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true));
  EXPECT_EQ(st.final_state.output, plain.final_state.output);
  EXPECT_EQ(st.final_state.reg_hash(), plain.final_state.reg_hash());
  EXPECT_EQ(st.memory_hash, plain.memory_hash);
}

TEST(ObsResidency, HammockMergeEmitsEvents) {
  // If-conversion lifecycle: every merged hammock emits kHammockMerged with
  // the branch PC, and the count matches the stats counter.
  const char* diamond = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 200
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
        li $v0, 10
        syscall
)";
  const auto prog = asmblr::assemble(diamond);
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, false);
  cfg.predication = true;
  obs::RecordingSink sink;
  cfg.event_sink = &sink;
  const auto st = accel::run_accelerated(prog, cfg);
  ASSERT_GT(st.hammocks_merged, 0u);
  uint64_t merges = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kHammockMerged) {
      ++merges;
      EXPECT_NE(e.branch_pc, 0u);
    }
  }
  EXPECT_EQ(merges, st.hammocks_merged);

  obs::ProfileTable table;
  table.add_all(sink.events());
  uint64_t profiled = 0;
  for (const obs::ConfigProfile& p : table.by_start_pc()) profiled += p.hammocks_merged;
  EXPECT_EQ(profiled, st.hammocks_merged);
}

}  // namespace
}  // namespace dim
