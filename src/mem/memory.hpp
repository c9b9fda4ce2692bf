// Sparse byte-addressable memory used both as instruction and data storage.
// Little-endian (MIPS is bi-endian; the Minimips the paper uses is
// configured little-endian, and all our workloads are written against that).
//
// Every consumer (the slow path, the trace executor, the array core, the
// loaders) reaches the image through this class, which owns two decisions
// for all of them:
//   - where a page lives: each accessor goes through a two-entry
//     most-recently-used page cache before the page map. Two entries,
//     because the slow path alternates an instruction fetch from the text
//     page with a data access;
//   - which writes can change traced code: code_writes() moves on every
//     image replacement and on every write into the watched code range.
//
// Single-threaded, reads included: a read updates the page cache. Each
// thread (a sweep or fuzz-campaign worker, a serve executor) owns the
// systems it runs, and with them their Memory.
#pragma once

#include <algorithm>
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

  // Absent pages read as zero; reads never allocate. Writes allocate the
  // (zero-filled) page they land in. An access that straddles a page end
  // goes byte by byte, and its address wraps at 2^32. The inline part is
  // an access within the most recently used page; the rest is out of line.
  uint8_t read8(uint32_t addr) const {
    return hits(addr, 1) ? *at(addr) : static_cast<uint8_t>(read_slow(addr, 1));
  }
  uint16_t read16(uint32_t addr) const {
    return hits(addr, 2) ? static_cast<uint16_t>(load(at(addr), 2))
                         : static_cast<uint16_t>(read_slow(addr, 2));
  }
  uint32_t read32(uint32_t addr) const {
    return hits(addr, 4) ? load(at(addr), 4) : read_slow(addr, 4);
  }

  void write8(uint32_t addr, uint8_t value) { write(addr, 1, value); }
  void write16(uint32_t addr, uint16_t value) { write(addr, 2, value); }
  void write32(uint32_t addr, uint32_t value) { write(addr, 4, value); }

  // Bulk helpers for loaders and tests.
  void write_block(uint32_t addr, const uint8_t* data, size_t size);
  std::vector<uint8_t> read_block(uint32_t addr, size_t size) const;

  // Number of distinct pages touched (used by tests and stats).
  size_t pages_allocated() const { return pages_.size(); }

  // Code-write tracking for the trace cache, which watches the word range
  // of every trace it builds. code_writes() moves on each write8/16/32
  // whose bytes overlap the watched range and on each write_block and
  // restore_pages; other writes leave it alone. A trace whose recorded
  // count still matches runs without re-reading its words. The watched
  // range only grows ([lo, hi) in 64 bits, so hi may be 2^32), and a copy
  // carries the range and the count along.
  uint64_t code_writes() const { return code_writes_; }
  void watch_code(uint64_t lo, uint64_t hi) {
    watch_lo_ = std::min(watch_lo_, lo);
    watch_hi_ = std::max(watch_hi_, hi);
  }

  // Content hash over all allocated pages: the final memory state that a
  // run's statistics carry (AccelStats::memory_hash), which the
  // transparency verdict compares when it has no memories at hand.
  uint64_t content_hash() const;

  // Lowest address whose byte differs from `other` (pages absent on one
  // side compare as zero), or nullopt when the images are identical. The
  // transparency verdict uses it when given both memories (the fuzz
  // oracles), to pinpoint a memory divergence instead of just reporting
  // mismatching hashes.
  std::optional<uint32_t> first_difference(const Memory& other) const;

  // Sparse-page iteration for serialization: every allocated page as
  // (page index, bytes), ascending by index. The page index is the address
  // right-shifted by kPageBits; an allocated all-zero page IS reported
  // (it is part of the image identity — see content_hash). Pointers are
  // invalidated by any write to an unallocated page.
  std::vector<std::pair<uint32_t, const std::vector<uint8_t>*>> pages_sorted() const;

  // Replaces the entire image with exactly `pages` (deserialization),
  // moving each page's buffer in: pass an rvalue and no page is copied.
  // Every page must be kPageSize bytes; throws std::invalid_argument
  // otherwise, before changing anything. Duplicate indices keep the last
  // occurrence.
  void restore_pages(std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages);

 private:
  using Page = std::vector<uint8_t>;
  static constexpr uint32_t kOffMask = kPageSize - 1;

  // The two most recently used allocated pages, entry 0 the newer; an
  // absent page is never cached. The entries point into pages_, so a
  // copy or move of a Memory starts both sides empty.
  struct PageCache {
    static constexpr uint32_t kNoPage = ~0u;  // above every page index
    struct Entry {
      uint32_t key = kNoPage;
      uint8_t* data = nullptr;
    };
    Entry entry[2];

    PageCache() = default;
    PageCache(const PageCache&) {}
    PageCache(PageCache&& other) noexcept { other.reset(); }
    PageCache& operator=(const PageCache&) {
      reset();
      return *this;
    }
    PageCache& operator=(PageCache&& other) noexcept {
      reset();
      other.reset();
      return *this;
    }
    void reset() { entry[0] = entry[1] = Entry{}; }
  };

  // True when all `width` bytes at `addr` lie in the most recently used
  // page, whose bytes at(addr) then points to.
  bool hits(uint32_t addr, uint32_t width) const {
    return cache_.entry[0].key == addr >> kPageBits && (addr & kOffMask) <= kPageSize - width;
  }
  uint8_t* at(uint32_t addr) const { return cache_.entry[0].data + (addr & kOffMask); }

  // Little-endian value of `width` (1, 2 or 4) bytes; each caller passes
  // a constant, so these fold to one host load or store.
  static uint32_t load(const uint8_t* p, uint32_t width) {
    uint32_t value = p[0];
    if (width > 1) value |= static_cast<uint32_t>(p[1]) << 8;
    if (width > 2) {
      value |= (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
    }
    return value;
  }
  static void store(uint8_t* p, uint32_t width, uint32_t value) {
    p[0] = static_cast<uint8_t>(value);
    if (width > 1) p[1] = static_cast<uint8_t>(value >> 8);
    if (width > 2) {
      p[2] = static_cast<uint8_t>(value >> 16);
      p[3] = static_cast<uint8_t>(value >> 24);
    }
  }

  void write(uint32_t addr, uint32_t width, uint32_t value) {
    if (!hits(addr, width)) return write_slow(addr, width, value);
    note_write(addr, width);
    store(at(addr), width, value);
  }
  uint32_t read_slow(uint32_t addr, uint32_t width) const;
  void write_slow(uint32_t addr, uint32_t width, uint32_t value);
  // The page with index `key`, moved to the front of the cache:
  // find_page returns nullptr when it is absent, page allocates it.
  const uint8_t* find_page(uint32_t key) const;
  uint8_t* page(uint32_t key);

  void note_write(uint32_t addr, uint32_t width) {
    const uint64_t first = addr;
    if (first + width > watch_lo_ && first < watch_hi_) ++code_writes_;
  }

  std::unordered_map<uint32_t, Page> pages_;
  mutable PageCache cache_;
  uint64_t code_writes_ = 0;
  uint64_t watch_lo_ = ~0ull;  // empty until the first watch_code
  uint64_t watch_hi_ = 0;
};

}  // namespace dim::mem
