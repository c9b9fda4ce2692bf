// Warm-start transparency (snap/warmstart.hpp): preloading a previous
// run's translated configurations must not change WHAT the program does —
// only how soon the array takes over. Cold and warm runs retire the same
// instruction stream to the same registers, output and memory image; the
// warm run pays fewer translation-phase costs (rcache misses, insertions,
// cycles). Preloading itself is silent: no events, no counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "rra/array_shape.hpp"
#include "snap/codec.hpp"
#include "snap/format.hpp"
#include "snap/snapshot.hpp"
#include "snap/warmstart.hpp"
#include "work/workload.hpp"

namespace dim {
namespace {

accel::SystemConfig warm_config() {
  // Enough slots that neither run evicts — isolates the translation-phase
  // delta from replacement noise.
  return accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
}

TEST(WarmStart, ColdAndWarmRunsAreArchitecturallyIdentical) {
  struct Case {
    const char* name;
    bool predication;
  };
  for (const Case& c : {Case{"crc32", false}, Case{"quicksort", false},
                        Case{"bitcount", false}, Case{"rawaudio_d", true}}) {
    SCOPED_TRACE(c.name);
    const auto program = asmblr::assemble(work::make_workload(c.name).source);
    accel::SystemConfig config = warm_config();
    config.predication = c.predication;

    accel::AcceleratedSystem cold(program, config);
    const accel::AccelStats cold_stats = cold.run();
    const std::vector<uint8_t> payload = snap::encode_warm_start(cold, program);

    accel::AcceleratedSystem warm(program, config);
    const size_t preloaded = snap::load_warm_start_payload(warm, payload, program);
    ASSERT_GT(preloaded, 0u);
    // Byte stability: right after preload the cache holds exactly the
    // entries the file carried, in order, so re-exporting reproduces the
    // file. (Checked before the run — running may legitimately extend
    // configurations.)
    EXPECT_EQ(snap::encode_warm_start(warm, program), payload);
    if (c.predication) {
      // If-converted configurations travel with their predicate fields:
      // the cold run merged hammocks, and the file preloaded at least one
      // predicated configuration.
      EXPECT_GT(cold_stats.hammocks_merged, 0u);
      const std::vector<rra::Configuration> entries = warm.rcache().export_entries();
      EXPECT_TRUE(std::any_of(entries.begin(), entries.end(), [](const auto& e) {
        return e.pred_slots > 0;
      }));
    }
    const accel::AccelStats warm_stats = warm.run();

    // Architectural state: identical, bit for bit.
    EXPECT_EQ(warm_stats.instructions, cold_stats.instructions);
    EXPECT_EQ(warm_stats.final_state.reg_hash(), cold_stats.final_state.reg_hash());
    EXPECT_EQ(warm_stats.final_state.output, cold_stats.final_state.output);
    EXPECT_EQ(warm_stats.memory_hash, cold_stats.memory_hash);
    EXPECT_EQ(warm_stats.final_state.pc, cold_stats.final_state.pc);

    // Translation phase: strictly cheaper or equal. Every preloaded
    // sequence skips its detection iteration, so the warm run inserts at
    // most what the cold run inserted and finishes no later. Without
    // if-conversion it also sees fewer misses and the array can only take
    // over earlier; with it the probe counts may move either way
    // (rawaudio_d: 6 more misses and 2 fewer activations than cold).
    EXPECT_LE(warm_stats.rcache_insertions, cold_stats.rcache_insertions);
    EXPECT_LE(warm_stats.cycles, cold_stats.cycles);
    if (!c.predication) {
      EXPECT_LE(warm_stats.rcache_misses, cold_stats.rcache_misses);
      EXPECT_GE(warm_stats.array_activations, cold_stats.array_activations);
    }
  }
}

TEST(WarmStart, PreloadIsSilent) {
  const auto program = asmblr::assemble(work::make_workload("crc32").source);
  accel::AcceleratedSystem cold(program, warm_config());
  cold.run();
  const std::vector<uint8_t> payload = snap::encode_warm_start(cold, program);

  accel::AcceleratedSystem warm(program, warm_config());
  ASSERT_GT(snap::load_warm_start_payload(warm, payload, program), 0u);
  // The cache is hot...
  EXPECT_EQ(warm.rcache().size(), cold.rcache().size());
  // ...but nothing was accounted: the warm run's statistics must measure
  // only the run itself.
  const bt::RcacheCounters c = warm.rcache().counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.words_written, 0u);
  EXPECT_EQ(warm.stats().instructions, 0u);
}

TEST(WarmStart, MismatchedProgramOrTranslationKnobsRejected) {
  const auto program = asmblr::assemble(work::make_workload("crc32").source);
  accel::AcceleratedSystem cold(program, warm_config());
  cold.run();
  const std::vector<uint8_t> payload = snap::encode_warm_start(cold, program);

  {  // Different program image.
    const auto other = asmblr::assemble(work::make_workload("bitcount").source);
    accel::AcceleratedSystem sys(other, warm_config());
    try {
      snap::load_warm_start_payload(sys, payload, other);
      FAIL() << "foreign program accepted";
    } catch (const snap::SnapshotError& e) {
      EXPECT_EQ(e.code(), snap::SnapErrc::kMismatch);
    }
  }
  {  // Same program, different translation knobs (speculation off).
    accel::SystemConfig cfg = warm_config();
    cfg.speculation = false;
    accel::AcceleratedSystem sys(program, cfg);
    try {
      snap::load_warm_start_payload(sys, payload, program);
      FAIL() << "foreign translation fingerprint accepted";
    } catch (const snap::SnapshotError& e) {
      EXPECT_EQ(e.code(), snap::SnapErrc::kMismatch);
    }
  }
  {  // Same program, smaller cache: geometry is NOT part of the
     // fingerprint — preload takes oldest-first until full, never evicts.
    accel::SystemConfig cfg = accel::SystemConfig::with(rra::ArrayShape::config2(), 2, true);
    accel::AcceleratedSystem sys(program, cfg);
    const size_t loaded = snap::load_warm_start_payload(sys, payload, program);
    EXPECT_LE(loaded, 2u);
    EXPECT_LE(sys.rcache().size(), 2u);
    const accel::AccelStats partial = sys.run();
    const accel::AccelStats straight = accel::run_accelerated(program, cfg);
    EXPECT_EQ(partial.final_state.output, straight.final_state.output);
    EXPECT_EQ(partial.memory_hash, straight.memory_hash);
    EXPECT_EQ(partial.instructions, straight.instructions);
  }
}

TEST(WarmStart, InspectReportsTheExportedEntries) {
  const auto program = asmblr::assemble(work::make_workload("quicksort").source);
  accel::AcceleratedSystem cold(program, warm_config());
  cold.run();
  const std::vector<uint8_t> payload = snap::encode_warm_start(cold, program);

  const snap::WarmStartInfo info = snap::inspect_warm_start(payload);
  EXPECT_EQ(info.program_hash, snap::program_hash(program));
  ASSERT_EQ(info.entries.size(), cold.rcache().size());
  const std::vector<uint32_t> order = cold.rcache().fifo_order();
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(info.entries[i].start_pc, order[i]);
    EXPECT_GT(info.entries[i].ops, 0);
  }
}

TEST(WarmStart, StreamRoundTripAndWrongKindRejected) {
  const auto program = asmblr::assemble(work::make_workload("crc32").source);
  accel::AcceleratedSystem cold(program, warm_config());
  cold.run();

  std::stringstream file;
  snap::save_warm_start(file, cold, program);
  accel::AcceleratedSystem warm(program, warm_config());
  EXPECT_GT(snap::load_warm_start(warm, file, program), 0u);

  // A snapshot container is a valid artifact of the wrong kind.
  std::stringstream snap_file;
  snap::save_snapshot(snap_file, cold, program);
  accel::AcceleratedSystem other(program, warm_config());
  try {
    snap::load_warm_start(other, snap_file, program);
    FAIL() << "snapshot accepted as warm-start";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(e.code(), snap::SnapErrc::kMismatch);
  }
}

}  // namespace
}  // namespace dim
