// The reconfiguration cache: FIFO-replaced storage for translated
// configurations, indexed by the PC of the first translated instruction.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/event.hpp"
#include "rra/configuration.hpp"

namespace dim::bt {

// Replacement policy. The paper's hardware uses FIFO ("a new entry in the
// cache (based on FIFO) is created"); LRU is provided for the ablation
// bench.
enum class Replacement : uint8_t { kFifo, kLru };

// The cache's counters: with the entries, what a checkpoint persists.
struct RcacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  uint64_t words_written = 0;
  // Monotone stamp source for Configuration::revision (residency): a
  // resident dispatch is valid only while the cached entry's revision
  // matches the one latched in the array. Serialized so a resumed run can
  // never reissue a stamp an old latch still holds.
  uint64_t revision_counter = 0;
};

class ReconfigCache {
 public:
  explicit ReconfigCache(size_t slots, Replacement policy = Replacement::kFifo)
      : slots_(slots), policy_(policy) {}

  // Dispatch lookup: a present entry counts a hit and, under LRU, has its
  // recency refreshed (O(1): the entry's list node is spliced to the back).
  // Absence is NOT counted here — the system probes on every retired PC,
  // and charging a miss per probe would inflate the miss count by the
  // entire non-translated instruction stream. Genuine misses (a sequence
  // start with no stored configuration) are registered by the translator
  // through note_miss().
  rra::Configuration* lookup(uint32_t pc);

  // Side-effect-free probe: no hit/miss accounting, no recency refresh.
  // Used by bookkeeping paths (translator start checks, speculation
  // extension) that must not perturb the dispatch statistics.
  rra::Configuration* probe(uint32_t pc) {
    auto it = entries_.find(pc);
    return it == entries_.end() ? nullptr : it->second.get();
  }

  // Registers one counted miss: a translation-start candidate had no
  // stored configuration. Called by the translator, not by probes.
  void note_miss() { ++c_.misses; }

  // True if `pc` has an entry (no hit/miss accounting) — used by the
  // translator to avoid re-translating cached sequences.
  bool contains(uint32_t pc) const { return entries_.count(pc) != 0; }

  // Read-only access with no stats or recency side effects (serialization,
  // tests).
  const rra::Configuration* peek(uint32_t pc) const {
    auto it = entries_.find(pc);
    return it == entries_.end() ? nullptr : it->second.get();
  }

  // Inserts (or replaces) the configuration for its start PC. On overflow
  // the oldest inserted entry is evicted (FIFO, per the paper).
  // words_written() grows only for configurations actually stored: a
  // zero-slot cache writes nothing (and must charge nothing downstream —
  // see SystemConfig::translation_cost_per_instr); a replacement rewrites
  // the entry in place and therefore does count. Under FIFO an in-place
  // rewrite (e.g. a speculation extension) keeps the entry's insertion
  // position; under LRU the rewrite is a use and refreshes its recency.
  void insert(rra::Configuration config);

  // Attaches the lifecycle event stream (insert / evict / flush events).
  // Null (the default) disables emission.
  void set_event_stream(obs::EventStream* events) { events_ = events; }

  // Removes one configuration (speculation flush).
  void flush(uint32_t pc);

  size_t size() const { return entries_.size(); }
  size_t slots() const { return slots_; }
  Replacement policy() const { return policy_; }

  uint64_t hits() const { return c_.hits; }
  uint64_t misses() const { return c_.misses; }
  uint64_t insertions() const { return c_.insertions; }
  uint64_t evictions() const { return c_.evictions; }
  uint64_t flushes() const { return c_.flushes; }
  // Total configuration words written across all insertions/replacements
  // (one word per translated instruction; feeds the power model).
  uint64_t words_written() const { return c_.words_written; }

  // Oldest-first eviction order, materialized for tests and serialization
  // (the live order is an intrusive list, not indexable).
  std::vector<uint32_t> fifo_order() const {
    return std::vector<uint32_t>(order_.begin(), order_.end());
  }

  const RcacheCounters& counters() const { return c_; }

  // Stored configurations in eviction order (oldest first) — together with
  // counters(), the cache's complete checkpointable state.
  std::vector<rra::Configuration> export_entries() const;

  // Throws std::invalid_argument for entries this cache cannot hold: more
  // than slots(), or one start PC twice. A checkpoint of a valid cache
  // never has them.
  void check_entries(const std::vector<rra::Configuration>& entries) const;

  // Checkpoint restore: checks `entries` (oldest first), then replaces the
  // whole cache with them and the given counters. Completely silent — no
  // statistics, no lifecycle events — because restoring state is not
  // cache activity.
  void restore(std::vector<rra::Configuration> entries,
               const RcacheCounters& counters);

  // Preload: stores one configuration silently (no insertion /
  // words-written accounting, no events) so a cache that carries
  // configurations over from an earlier run (bench_heterogeneous's task
  // switches) begins its run with zeroed statistics — the paper's counters
  // measure what the RUN does, not what was carried in. Returns false (and
  // stores nothing) when the cache is full or the start PC is already
  // present; unlike insert(), preloading never evicts.
  bool preload(rra::Configuration config);

 private:
  using OrderList = std::list<uint32_t>;

  void emit(obs::EventKind kind, uint32_t pc, int32_t words);

  size_t slots_;
  Replacement policy_;
  obs::EventStream* events_ = nullptr;  // not owned; null = tracing off
  std::unordered_map<uint32_t, std::unique_ptr<rra::Configuration>> entries_;
  // Eviction order (front = next victim) plus a PC -> node map so hits,
  // flushes and evictions never scan: LRU refresh is a splice, O(1).
  OrderList order_;
  std::unordered_map<uint32_t, OrderList::iterator> order_pos_;
  RcacheCounters c_;
};

}  // namespace dim::bt
