// Sparse byte-addressable memory used both as instruction and data storage.
// Little-endian (MIPS is bi-endian; the Minimips the paper uses is
// configured little-endian, and all our workloads are written against that).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dim::mem {

class Memory {
 public:
  static constexpr uint32_t kPageBits = 16;  // 64 KiB pages
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  uint8_t read8(uint32_t addr) const;
  uint16_t read16(uint32_t addr) const;
  uint32_t read32(uint32_t addr) const;

  void write8(uint32_t addr, uint8_t value);
  void write16(uint32_t addr, uint16_t value);
  void write32(uint32_t addr, uint32_t value);

  // Bulk helpers for loaders and tests.
  void write_block(uint32_t addr, const uint8_t* data, size_t size);
  std::vector<uint8_t> read_block(uint32_t addr, size_t size) const;

  // Number of distinct pages touched (used by tests and stats).
  size_t pages_allocated() const { return pages_.size(); }

  // Count of writes made through this API (write8/16/32, write_block,
  // restore_pages); it only ever grows, and a copy carries it along. The
  // trace cache stamps each trace with it, so a trace whose stamp still
  // matches skips re-comparing its words. Stores through page_data_mut()
  // are not counted: their one user, the trace executor, tracks its own.
  uint64_t writes() const { return writes_; }

  // Content hash over all allocated pages — used by the transparency
  // property tests to compare baseline vs accelerated final memory state.
  uint64_t content_hash() const;

  // Lowest address whose byte differs from `other` (pages absent on one
  // side compare as zero), or nullopt when the images are identical. Used
  // by the differential fuzzer to pinpoint a memory divergence instead of
  // just reporting mismatching hashes.
  std::optional<uint32_t> first_difference(const Memory& other) const;

  // Sparse-page iteration for serialization: every allocated page as
  // (page index, bytes), ascending by index. The page index is the address
  // right-shifted by kPageBits; an allocated all-zero page IS reported
  // (it is part of the image identity — see content_hash). Pointers are
  // invalidated by any write to an unallocated page.
  std::vector<std::pair<uint32_t, const std::vector<uint8_t>*>> pages_sorted() const;

  // Replaces the entire image with exactly `pages` (deserialization).
  // Every page must be kPageSize bytes; throws std::invalid_argument
  // otherwise. Duplicate indices keep the last occurrence.
  void restore_pages(
      const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& pages);

  // Host-fast-path access for the superblock trace engine: the raw bytes
  // of the page containing `addr`, or nullptr when that page was never
  // allocated (absent pages read as zero; neither accessor allocates).
  // The pointer stays valid until restore_pages() replaces the image —
  // page buffers are heap-stable across map rehashes and are never freed
  // individually. Callers caching it must drop it on restore (the trace
  // cache's clear() hook).
  const uint8_t* page_data(uint32_t addr) const {
    const Page* p = find_page(addr);
    return p ? p->data() : nullptr;
  }
  uint8_t* page_data_mut(uint32_t addr) {
    auto it = pages_.find(addr >> kPageBits);
    return it == pages_.end() ? nullptr : it->second.data();
  }

 private:
  using Page = std::vector<uint8_t>;

  Page& page_for(uint32_t addr);
  const Page* find_page(uint32_t addr) const;

  std::unordered_map<uint32_t, Page> pages_;
  uint64_t writes_ = 0;
};

}  // namespace dim::mem
