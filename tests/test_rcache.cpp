#include <gtest/gtest.h>

#include "bt/rcache.hpp"

namespace dim::bt {
namespace {

rra::Configuration cfg(uint32_t pc, int ops = 5) {
  rra::Configuration c;
  c.start_pc = pc;
  c.ops.resize(static_cast<size_t>(ops));
  return c;
}

TEST(ReconfigCache, MissThenHit) {
  ReconfigCache rc(4);
  // A dispatch lookup of an absent PC returns nothing and counts nothing:
  // the system probes on every retired PC, and the miss counter must not
  // absorb the whole non-translated instruction stream. The translator
  // registers the genuine miss via note_miss().
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.misses(), 0u);
  rc.note_miss();
  rc.insert(cfg(0x100));
  rra::Configuration* c = rc.lookup(0x100);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->start_pc, 0x100u);
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.misses(), 1u);
}

TEST(ReconfigCache, HitAndMissTotalsAreIndependent) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  // 3 counted hits, 2 translator-registered misses, any number of pure
  // probes: the totals reflect exactly the counted events.
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x100), nullptr);
  rc.note_miss();
  rc.note_miss();
  EXPECT_NE(rc.probe(0x100), nullptr);
  EXPECT_EQ(rc.probe(0x999), nullptr);
  EXPECT_EQ(rc.lookup(0x999), nullptr);
  EXPECT_EQ(rc.hits(), 3u);
  EXPECT_EQ(rc.misses(), 2u);
}

TEST(ReconfigCache, ProbeHasNoStatsOrRecencySideEffects) {
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  EXPECT_NE(rc.probe(0x100), nullptr);  // must NOT refresh recency
  EXPECT_EQ(rc.hits(), 0u);
  EXPECT_EQ(rc.misses(), 0u);
  rc.insert(cfg(0x300));  // evicts 0x100 (probe did not protect it)
  EXPECT_EQ(rc.probe(0x100), nullptr);
  EXPECT_NE(rc.probe(0x200), nullptr);
}

TEST(ReconfigCache, FifoEvictionOrder) {
  ReconfigCache rc(3);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.insert(cfg(0x300));
  // Hits must NOT refresh FIFO position (unlike LRU).
  EXPECT_NE(rc.lookup(0x100), nullptr);
  rc.insert(cfg(0x400));  // evicts 0x100, the oldest inserted
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x200), nullptr);
  EXPECT_EQ(rc.evictions(), 1u);
  rc.insert(cfg(0x500));  // evicts 0x200
  EXPECT_EQ(rc.lookup(0x200), nullptr);
  EXPECT_NE(rc.lookup(0x300), nullptr);
}

TEST(ReconfigCache, ReplacementKeepsFifoPosition) {
  ReconfigCache rc(2);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 5));
  rc.insert(cfg(0x100, 9));  // replaces in place (speculation extension)
  EXPECT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc.lookup(0x100)->ops.size(), 9u);
  rc.insert(cfg(0x300));  // 0x100 is still the oldest -> evicted
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_NE(rc.lookup(0x200), nullptr);
}

TEST(ReconfigCache, Flush) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.flush(0x100);
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.flushes(), 1u);
  EXPECT_EQ(rc.size(), 1u);
  rc.flush(0x999);  // flushing a non-entry is a no-op
  EXPECT_EQ(rc.flushes(), 1u);
  // After a flush, capacity is available again without eviction.
  rc.insert(cfg(0x300));
  rc.insert(cfg(0x400));
  rc.insert(cfg(0x500));
  EXPECT_EQ(rc.evictions(), 0u);
  EXPECT_EQ(rc.size(), 4u);
}

TEST(ReconfigCache, FifoOrderExposedForInspection) {
  ReconfigCache rc(8);
  rc.insert(cfg(3));
  rc.insert(cfg(1));
  rc.insert(cfg(2));
  ASSERT_EQ(rc.fifo_order().size(), 3u);
  EXPECT_EQ(rc.fifo_order()[0], 3u);
  EXPECT_EQ(rc.fifo_order()[1], 1u);
  EXPECT_EQ(rc.fifo_order()[2], 2u);
}

TEST(ReconfigCache, ZeroSlotsNeverStores) {
  ReconfigCache rc(0);
  rc.insert(cfg(0x100));
  EXPECT_EQ(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.size(), 0u);
}

TEST(ReconfigCache, ZeroSlotsWritesNoWords) {
  // Regression: a zero-slot cache stores nothing, so it must report zero
  // words written — the software-BT cost model charges cycles per written
  // word, and used to bill configurations that were silently dropped.
  ReconfigCache rc(0);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 7));
  EXPECT_EQ(rc.words_written(), 0u);
  EXPECT_EQ(rc.insertions(), 0u);
}

TEST(ReconfigCache, WordsWrittenAccumulates) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 7));
  rc.insert(cfg(0x100, 9));  // replacement rewrites the entry: counted
  EXPECT_EQ(rc.words_written(), 21u);
}

TEST(ReconfigCache, LruHitsRefreshPosition) {
  ReconfigCache rc(3, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  rc.insert(cfg(0x300));
  EXPECT_NE(rc.lookup(0x100), nullptr);  // refreshes 0x100
  rc.insert(cfg(0x400));                 // evicts 0x200, the least recent
  EXPECT_NE(rc.lookup(0x100), nullptr);
  EXPECT_EQ(rc.lookup(0x200), nullptr);
  EXPECT_NE(rc.lookup(0x300), nullptr);
}

TEST(ReconfigCache, LruReplacementRefreshesRecency) {
  // Regression: under LRU, an in-place rewrite (speculation extension) is a
  // use of the entry and must move it to MRU. The stale-recency bug left the
  // rewritten entry at its old position, so the very configuration DIM had
  // just extended was the next eviction victim.
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100, 5));
  rc.insert(cfg(0x200, 5));
  rc.insert(cfg(0x100, 9));  // rewrite: 0x100 becomes most recent
  EXPECT_EQ(rc.size(), 2u);
  EXPECT_EQ(rc.peek(0x100)->ops.size(), 9u);
  rc.insert(cfg(0x300));  // 0x200 is now the least recent -> evicted
  EXPECT_NE(rc.peek(0x100), nullptr);
  EXPECT_EQ(rc.peek(0x200), nullptr);
  EXPECT_NE(rc.peek(0x300), nullptr);
}

TEST(ReconfigCache, FifoIsTheDefaultPolicy) {
  ReconfigCache rc(4);
  EXPECT_EQ(rc.policy(), Replacement::kFifo);
}

TEST(ReconfigCache, PeekHasNoSideEffects) {
  ReconfigCache rc(2, Replacement::kLru);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  EXPECT_NE(rc.peek(0x100), nullptr);  // must NOT refresh recency
  EXPECT_EQ(rc.hits(), 0u);
  rc.insert(cfg(0x300));  // evicts 0x100 (peek did not protect it)
  EXPECT_EQ(rc.peek(0x100), nullptr);
  EXPECT_NE(rc.peek(0x200), nullptr);
}

TEST(ReconfigCache, ContainsDoesNotCountStats) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  EXPECT_TRUE(rc.contains(0x100));
  EXPECT_FALSE(rc.contains(0x200));
  EXPECT_EQ(rc.hits(), 0u);
  EXPECT_EQ(rc.misses(), 0u);
}

// --- Revision stamping (residency) ------------------------------------------
// Every cache write stamps a fresh monotone revision so an array-resident
// copy of an entry's old contents is detectable as stale at dispatch.

TEST(ReconfigCache, InsertStampsFreshMonotonicRevisions) {
  ReconfigCache rc(4);
  rc.insert(cfg(0x100));
  rc.insert(cfg(0x200));
  const uint64_t r1 = rc.peek(0x100)->revision;
  const uint64_t r2 = rc.peek(0x200)->revision;
  EXPECT_NE(r1, 0u);
  EXPECT_GT(r2, r1);
  // A rewrite (speculative extension re-inserting the same start PC) is a
  // fresh stamp: the resident latch must see the entry change identity.
  rc.insert(cfg(0x100, 7));
  EXPECT_GT(rc.peek(0x100)->revision, r2);
  EXPECT_EQ(rc.counters().revision_counter, 3u);
}

TEST(ReconfigCache, EvictAndReinsertNeverReusesARevision) {
  ReconfigCache rc(1);
  rc.insert(cfg(0x100));
  const uint64_t r1 = rc.peek(0x100)->revision;
  rc.insert(cfg(0x200));  // evicts 0x100 under pressure
  rc.insert(cfg(0x100));  // re-translation gets a new identity
  EXPECT_GT(rc.peek(0x100)->revision, r1);
}

TEST(ReconfigCache, PreloadKeepsRevisionButAdvancesCounter) {
  // Warm starts must re-export byte-identically, so preload keeps the
  // serialized stamp — but later insertions may never reissue it.
  ReconfigCache rc(4);
  rra::Configuration warm = cfg(0x100);
  warm.revision = 7;
  ASSERT_TRUE(rc.preload(std::move(warm)));
  EXPECT_EQ(rc.peek(0x100)->revision, 7u);
  rc.insert(cfg(0x200));
  EXPECT_EQ(rc.peek(0x200)->revision, 8u);
}

TEST(ReconfigCache, ZeroSlotInsertBurnsNoRevision) {
  ReconfigCache rc(0);
  rc.insert(cfg(0x100));  // nothing stored, nothing stamped
  EXPECT_EQ(rc.counters().revision_counter, 0u);
}

}  // namespace
}  // namespace dim::bt
