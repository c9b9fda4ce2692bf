#include "bt/rcache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace dim::bt {

void ReconfigCache::emit(obs::EventKind kind, uint32_t pc, int32_t words) {
  if (events_ == nullptr) return;
  obs::Event e;
  e.kind = kind;
  e.config_pc = pc;
  e.ops = words;
  events_->emit(e);
}

rra::Configuration* ReconfigCache::lookup(uint32_t pc) {
  auto it = entries_.find(pc);
  if (it == entries_.end()) return nullptr;  // misses are noted by the translator
  ++c_.hits;
  if (policy_ == Replacement::kLru) {
    // Refresh recency: splice this PC's node to the back of the order list.
    order_.splice(order_.end(), order_, order_pos_.find(pc)->second);
  }
  return it->second.get();
}

void ReconfigCache::insert(rra::Configuration config) {
  const uint32_t pc = config.start_pc;
  const uint64_t words = static_cast<uint64_t>(config.instruction_count());
  auto it = entries_.find(pc);
  if (it != entries_.end()) {
    // Every (re)write gets a fresh revision, so an array-resident copy of
    // the old contents is detectable as stale by the dispatching system.
    config.revision = ++c_.revision_counter;
    // Replacement (e.g. a speculation extension): the entry is rewritten in
    // place — a real cache write. FIFO keeps the original insertion
    // position; LRU treats the rewrite as a use and refreshes recency.
    c_.words_written += words;
    *it->second = std::move(config);
    if (policy_ == Replacement::kLru) {
      order_.splice(order_.end(), order_, order_pos_.find(pc)->second);
    }
    emit(obs::EventKind::kRcacheInsert, pc, static_cast<int32_t>(words));
    return;
  }
  if (slots_ == 0) return;  // nothing stored, nothing written
  while (entries_.size() >= slots_) {
    const uint32_t victim = order_.front();
    order_.pop_front();
    order_pos_.erase(victim);
    auto victim_it = entries_.find(victim);
    emit(obs::EventKind::kRcacheEvict, victim,
         victim_it->second->instruction_count());
    entries_.erase(victim_it);
    ++c_.evictions;
  }
  c_.words_written += words;
  config.revision = ++c_.revision_counter;
  entries_.emplace(pc, std::make_unique<rra::Configuration>(std::move(config)));
  order_.push_back(pc);
  order_pos_.emplace(pc, std::prev(order_.end()));
  ++c_.insertions;
  emit(obs::EventKind::kRcacheInsert, pc, static_cast<int32_t>(words));
}

std::vector<rra::Configuration> ReconfigCache::export_entries() const {
  std::vector<rra::Configuration> out;
  out.reserve(entries_.size());
  for (uint32_t pc : order_) out.push_back(*entries_.at(pc));
  return out;
}

void ReconfigCache::check_entries(const std::vector<rra::Configuration>& entries) const {
  if (entries.size() > slots_) {
    throw std::invalid_argument("restore of " + std::to_string(entries.size()) +
                                " entries into a " + std::to_string(slots_) +
                                "-slot cache");
  }
  std::unordered_set<uint32_t> pcs;
  for (const rra::Configuration& config : entries) {
    if (!pcs.insert(config.start_pc).second) {
      throw std::invalid_argument("duplicate start PC in restored cache entries");
    }
  }
}

void ReconfigCache::restore(std::vector<rra::Configuration> entries,
                            const RcacheCounters& counters) {
  check_entries(entries);
  entries_.clear();
  order_.clear();
  order_pos_.clear();
  for (rra::Configuration& config : entries) {
    const uint32_t pc = config.start_pc;
    entries_.emplace(pc, std::make_unique<rra::Configuration>(std::move(config)));
    order_.push_back(pc);
    order_pos_.emplace(pc, std::prev(order_.end()));
  }
  c_ = counters;
}

bool ReconfigCache::preload(rra::Configuration config) {
  if (entries_.size() >= slots_ || entries_.count(config.start_pc) != 0) return false;
  const uint32_t pc = config.start_pc;
  // Preloading keeps the revision the entry was saved with (so a warm run
  // re-exports byte-identically) and only advances the counter past it, so
  // later insertions can never reissue a stamp the file already used.
  c_.revision_counter = std::max(c_.revision_counter, config.revision);
  entries_.emplace(pc, std::make_unique<rra::Configuration>(std::move(config)));
  order_.push_back(pc);
  order_pos_.emplace(pc, std::prev(order_.end()));
  return true;
}

void ReconfigCache::flush(uint32_t pc) {
  auto it = entries_.find(pc);
  if (it == entries_.end()) return;
  emit(obs::EventKind::kRcacheFlush, pc, it->second->instruction_count());
  entries_.erase(it);
  auto pos = order_pos_.find(pc);
  order_.erase(pos->second);
  order_pos_.erase(pos);
  ++c_.flushes;
}

}  // namespace dim::bt
