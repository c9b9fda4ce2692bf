#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hpp"
#include "mem/memory.hpp"

namespace dim::mem {
namespace {

TEST(Memory, ReadsZeroWhenUntouched) {
  Memory m;
  EXPECT_EQ(m.read8(0), 0u);
  EXPECT_EQ(m.read32(0x12345678), 0u);
  EXPECT_EQ(m.pages_allocated(), 0u);
}

TEST(Memory, ByteHalfWordRoundTrip) {
  Memory m;
  m.write8(100, 0xAB);
  m.write16(200, 0xCDEF);
  m.write32(300, 0x01234567);
  EXPECT_EQ(m.read8(100), 0xAB);
  EXPECT_EQ(m.read16(200), 0xCDEF);
  EXPECT_EQ(m.read32(300), 0x01234567u);
}

TEST(Memory, LittleEndianLayout) {
  Memory m;
  m.write32(0x1000, 0xAABBCCDD);
  EXPECT_EQ(m.read8(0x1000), 0xDD);
  EXPECT_EQ(m.read8(0x1001), 0xCC);
  EXPECT_EQ(m.read8(0x1002), 0xBB);
  EXPECT_EQ(m.read8(0x1003), 0xAA);
  EXPECT_EQ(m.read16(0x1000), 0xCCDD);
  EXPECT_EQ(m.read16(0x1002), 0xAABB);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  const uint32_t boundary = Memory::kPageSize;
  m.write32(boundary - 2, 0x11223344);
  EXPECT_EQ(m.read32(boundary - 2), 0x11223344u);
  EXPECT_EQ(m.read16(boundary - 2), 0x3344u);
  EXPECT_EQ(m.read16(boundary), 0x1122u);
  EXPECT_EQ(m.pages_allocated(), 2u);
}

TEST(Memory, BlockHelpers) {
  Memory m;
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  m.write_block(0x2000, data.data(), data.size());
  EXPECT_EQ(m.read_block(0x2000, 5), data);
  EXPECT_EQ(m.read8(0x2004), 5u);
}

// write_block must leave exactly the image a byte-by-byte write8 loop
// leaves: the same bytes and the same allocated pages, all-zero pages
// included (content_hash and pages_allocated count them).
void expect_block_matches_bytewise(uint32_t addr, const std::vector<uint8_t>& data) {
  Memory block;
  block.write_block(addr, data.data(), data.size());
  Memory bytewise;
  for (size_t i = 0; i < data.size(); ++i) {
    bytewise.write8(addr + static_cast<uint32_t>(i), data[i]);
  }
  EXPECT_EQ(block.pages_allocated(), bytewise.pages_allocated());
  EXPECT_EQ(block.content_hash(), bytewise.content_hash());
  EXPECT_EQ(block.first_difference(bytewise), std::nullopt);
}

TEST(Memory, WriteBlockStraddlingPagesMatchesBytewise) {
  std::vector<uint8_t> data(3 * Memory::kPageSize / 2 + 7);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 37 + 1);
  const uint32_t addr = 5 * Memory::kPageSize - 100;  // spans three pages
  expect_block_matches_bytewise(addr, data);

  Memory m;
  m.write_block(addr, data.data(), data.size());
  EXPECT_EQ(m.pages_allocated(), 3u);
  EXPECT_EQ(m.read_block(addr, data.size()), data);
  EXPECT_EQ(m.read8(addr - 1), 0u);
  EXPECT_EQ(m.read8(addr + static_cast<uint32_t>(data.size())), 0u);

  // A block that wraps past the top of the address space lands at 0.
  expect_block_matches_bytewise(0xFFFFFFF0u, std::vector<uint8_t>(40, 0xA5));
}

TEST(Memory, WriteBlockOfZerosAllocatesItsPages) {
  const std::vector<uint8_t> zeros(Memory::kPageSize + 16, 0);
  expect_block_matches_bytewise(Memory::kPageSize - 8, zeros);

  Memory m;
  m.write_block(Memory::kPageSize - 8, zeros.data(), zeros.size());
  EXPECT_EQ(m.pages_allocated(), 3u);
  EXPECT_NE(m.content_hash(), Memory{}.content_hash());

  // An empty block allocates nothing.
  Memory empty;
  empty.write_block(0x1000, zeros.data(), 0);
  EXPECT_EQ(empty.pages_allocated(), 0u);
}

TEST(Memory, ContentHashDetectsChanges) {
  Memory a, b;
  a.write32(0x1000, 42);
  b.write32(0x1000, 42);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.write8(0x5000, 1);
  EXPECT_NE(a.content_hash(), b.content_hash());
  b.write8(0x5000, 0);  // back to all-zero content in the same page
  EXPECT_EQ(a.content_hash(), b.content_hash());
  // Identical (zero) content in different pages hashes differently, because
  // the page address is mixed in.
  a.write8(5 * Memory::kPageSize, 0);
  b.write8(9 * Memory::kPageSize, 0);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(Memory, HashIsIterationOrderIndependent) {
  Memory a, b;
  a.write8(0x10000, 1);
  a.write8(0x50000, 2);
  b.write8(0x50000, 2);  // reversed allocation order
  b.write8(0x10000, 1);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

// content_hash, written the slow way: byte-serial FNV-1a over every page in
// ascending key order, each page as its key and then all of its bytes.
uint64_t reference_hash(const Memory& m) {
  std::map<uint32_t, const std::vector<uint8_t>*> pages;
  for (const auto& [key, bytes] : m.pages_sorted()) pages.emplace(key, bytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [key, bytes] : pages) {
    h ^= key;
    h *= 0x100000001b3ull;
    EXPECT_EQ(bytes->size(), Memory::kPageSize);
    for (const uint8_t b : *bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(Memory, ContentHashIsByteSerialFnv1a) {
  // The hash is part of every result digest and golden, so its value (not
  // just its equalities) must not move: each image is checked against the
  // byte-serial definition.
  Memory empty;
  EXPECT_EQ(empty.content_hash(), reference_hash(empty));

  Memory zero_page;
  zero_page.write8(0x20000, 0);
  ASSERT_EQ(zero_page.pages_allocated(), 1u);
  EXPECT_EQ(zero_page.content_hash(), reference_hash(zero_page));

  for (const uint32_t off : {0u, 7u, 8u, 65534u, 65535u}) {
    SCOPED_TRACE("single byte at offset " + std::to_string(off));
    Memory m;
    m.write8(3 * Memory::kPageSize + off, 0x5A);
    EXPECT_EQ(m.content_hash(), reference_hash(m));
  }

  std::mt19937 rng(20260);
  for (const uint32_t writes : {1u, 13u, 400u}) {
    SCOPED_TRACE("sparse pages, " + std::to_string(writes) + " random bytes");
    Memory m;
    for (uint32_t n = 0; n < writes; ++n) {
      m.write8((rng() % 3) * Memory::kPageSize + rng() % Memory::kPageSize,
               static_cast<uint8_t>(rng() | 1));
    }
    EXPECT_EQ(m.content_hash(), reference_hash(m));
  }
  {
    SCOPED_TRACE("dense pages");
    std::vector<uint8_t> bytes(2 * Memory::kPageSize + 100);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng() % 8 == 0 ? 0 : rng());
    Memory m;
    m.write_block(Memory::kPageSize - 50, bytes.data(), bytes.size());
    EXPECT_EQ(m.content_hash(), reference_hash(m));
  }

  Memory descending;  // pages inserted in descending key order
  for (const uint32_t page : {0x7FFFu, 0x1000u, 0x10u}) {
    descending.write32(page * Memory::kPageSize + 4 * page, 0xC0DE0000u | page);
  }
  EXPECT_EQ(descending.content_hash(), reference_hash(descending));
}

// --- the page cache -------------------------------------------------------
//
// Every accessor goes through a two-entry cache of page pointers. These
// tests run the sequences that could leave an entry stale or aliased.

TEST(Memory, AbsentPageReadThenAllocatingWrite) {
  Memory m;
  m.write8(0x20010, 0x5A);  // page 2 is cached
  EXPECT_EQ(m.read8(0x30010), 0u);  // page 3 is absent and must stay so
  EXPECT_EQ(m.read16(0x30010), 0u);
  EXPECT_EQ(m.read32(0x30010), 0u);
  EXPECT_EQ(m.pages_allocated(), 1u);
  m.write32(0x30010, 0xDEADBEEF);  // now it is allocated
  EXPECT_EQ(m.pages_allocated(), 2u);
  EXPECT_EQ(m.read32(0x30010), 0xDEADBEEFu);
  EXPECT_EQ(m.read8(0x20010), 0x5Au);
  EXPECT_EQ(m.read8(0x40000), 0u);  // a third page evicts the older entry
  m.write8(0x40000, 1);
  EXPECT_EQ(m.read32(0x30010), 0xDEADBEEFu);
  EXPECT_EQ(m.read8(0x20010), 0x5Au);
  EXPECT_EQ(m.read8(0x40000), 1u);
  EXPECT_EQ(m.pages_allocated(), 3u);
}

// Writes two pages and reads both, so both cache entries are warm.
std::unique_ptr<Memory> warm_memory() {
  auto m = std::make_unique<Memory>();
  m->write32(0x10000, 0x11111111);
  m->write32(0x7FFF0000, 0x22222222);
  EXPECT_EQ(m->read32(0x10000), 0x11111111u);
  EXPECT_EQ(m->read32(0x7FFF0000), 0x22222222u);
  return m;
}

// The copy holds the source's bytes in pages of its own: reads after the
// source is gone are right (a stale entry would read freed pages, which
// ASan reports), and writes to either side stay on that side.
void expect_own_pages(Memory& copy, std::unique_ptr<Memory> source) {
  source->write32(0x10000, 0x33333333);
  EXPECT_EQ(copy.read32(0x10000), 0x11111111u);
  copy.write32(0x7FFF0000, 0x44444444);
  EXPECT_EQ(source->read32(0x7FFF0000), 0x22222222u);
  source.reset();
  EXPECT_EQ(copy.read32(0x10000), 0x11111111u);
  EXPECT_EQ(copy.read32(0x7FFF0000), 0x44444444u);
  copy.write8(0x10001, 0xAB);
  EXPECT_EQ(copy.read32(0x10000), 0x1111AB11u);
}

TEST(Memory, CopyAndMoveStartWithTheirOwnPageCache) {
  {
    SCOPED_TRACE("copy construction");
    std::unique_ptr<Memory> source = warm_memory();
    Memory copy(*source);
    expect_own_pages(copy, std::move(source));
  }
  {
    SCOPED_TRACE("copy assignment");
    std::unique_ptr<Memory> source = warm_memory();
    Memory copy;
    copy.write32(0x10000, 0x55555555);  // warm entries into pages that go
    EXPECT_EQ(copy.read32(0x50000), 0u);
    copy = *source;
    expect_own_pages(copy, std::move(source));
  }
  {
    SCOPED_TRACE("move construction");
    std::unique_ptr<Memory> source = warm_memory();
    Memory moved(std::move(*source));
    EXPECT_EQ(moved.read32(0x10000), 0x11111111u);
    // The moved-from side writes pages of its own, not the moved ones.
    source->write32(0x10000, 0x66666666);
    EXPECT_EQ(moved.read32(0x10000), 0x11111111u);
    source.reset();
    EXPECT_EQ(moved.read32(0x7FFF0000), 0x22222222u);
  }
  {
    SCOPED_TRACE("move assignment");
    std::unique_ptr<Memory> source = warm_memory();
    Memory moved;
    moved.write32(0x7FFF0000, 0x77777777);
    moved = std::move(*source);
    source->write32(0x7FFF0000, 0x66666666);
    EXPECT_EQ(moved.read32(0x7FFF0000), 0x22222222u);
    source.reset();
    EXPECT_EQ(moved.read32(0x10000), 0x11111111u);
    EXPECT_EQ(moved.read32(0x7FFF0000), 0x22222222u);
  }
}

TEST(Memory, RestorePagesResetsThePageCache) {
  Memory m;
  m.write32(0x10000, 0x11111111);
  m.write32(0x20000, 0x22222222);
  EXPECT_EQ(m.read32(0x10000), 0x11111111u);  // both entries warm
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
  pages.emplace_back(1u, std::vector<uint8_t>(Memory::kPageSize, 0xCD));
  m.restore_pages(pages);  // page 1 replaced, page 2 gone
  EXPECT_EQ(m.read32(0x10000), 0xCDCDCDCDu);
  EXPECT_EQ(m.read32(0x20000), 0u);
  EXPECT_EQ(m.pages_allocated(), 1u);
  m.write8(0x20000, 9);
  EXPECT_EQ(m.read8(0x20000), 9u);
  EXPECT_EQ(m.read8(0x10000), 0xCDu);
  EXPECT_EQ(m.pages_allocated(), 2u);
}

TEST(Memory, AccessesStraddlingPageEndAndTopOfMemory) {
  for (const uint32_t end : {Memory::kPageSize, 0u}) {  // 0: the top wraps
    for (uint32_t back = 1; back <= 3; ++back) {
      const uint32_t addr = end - back;
      SCOPED_TRACE("address " + std::to_string(addr));
      Memory m;
      m.write32(addr, 0xA1B2C3D4);
      for (uint32_t k = 0; k < 4; ++k) {
        EXPECT_EQ(m.read8(addr + k), (0xA1B2C3D4u >> (8 * k)) & 0xFF);
      }
      EXPECT_EQ(m.read32(addr), 0xA1B2C3D4u);
      EXPECT_EQ(m.read16(addr + 1), 0xB2C3u);
      EXPECT_EQ(m.pages_allocated(), 2u);
      m.write16(addr + 2, 0x0102);
      EXPECT_EQ(m.read32(addr), 0x0102C3D4u);
      EXPECT_EQ(m.read16(end - 1), static_cast<uint16_t>(m.read8(end - 1) | (m.read8(end) << 8)));
    }
  }
}

// --- the code-write counter -----------------------------------------------

TEST(Memory, CodeWritesMoveOnlyForWatchedBytes) {
  Memory m;
  m.write32(0x1000, 1);
  EXPECT_EQ(m.code_writes(), 0u) << "nothing is watched yet";
  m.watch_code(0x1000, 0x1010);
  struct Case {
    uint32_t addr;
    int width;
    bool moves;
  };
  const Case cases[] = {
      {0x0FFF, 1, false}, {0x1000, 1, true},  {0x100F, 1, true},  {0x1010, 1, false},
      {0x0FFE, 2, false}, {0x0FFF, 2, true},  {0x100F, 2, true},  {0x1010, 2, false},
      {0x0FFC, 4, false}, {0x0FFD, 4, true},  {0x100D, 4, true},  {0x1010, 4, false},
      {0x1004, 4, true},  {0x2000, 4, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("width " + std::to_string(c.width) + " at " + std::to_string(c.addr));
    const uint64_t before = m.code_writes();
    switch (c.width) {
      case 1: m.write8(c.addr, 0x5A); break;
      case 2: m.write16(c.addr, 0x5A5A); break;
      default: m.write32(c.addr, 0x5A5A5A5A); break;
    }
    EXPECT_EQ(m.code_writes(), before + (c.moves ? 1 : 0));
  }
  const uint64_t before = m.code_writes();
  EXPECT_EQ(m.read32(0x1004), 0x5A5A5A5Au);  // reads never move it
  EXPECT_EQ(m.code_writes(), before);

  // The watch only widens.
  m.watch_code(0x3000, 0x3004);
  m.write8(0x2000, 1);
  EXPECT_EQ(m.code_writes(), before + 1) << "the union [0x1000, 0x3004) is watched";
}

TEST(Memory, CodeWritesSeeWrapsPastTheTopOfMemory) {
  Memory m;
  m.watch_code(0, 4);
  m.write32(0xFFFFFFFC, 1);  // bytes up to the top: outside
  EXPECT_EQ(m.code_writes(), 0u);
  m.write32(0xFFFFFFFE, 1);  // its last two bytes wrap into [0, 4)
  EXPECT_GT(m.code_writes(), 0u);

  Memory top;
  top.watch_code(0xFFFFFFFC, uint64_t{1} << 32);
  top.write8(0, 1);
  EXPECT_EQ(top.code_writes(), 0u);
  top.write8(0xFFFFFFFF, 1);
  EXPECT_EQ(top.code_writes(), 1u);
  top.write16(0xFFFFFFFF, 1);  // straddles the top: one byte inside
  EXPECT_GT(top.code_writes(), 1u);
}

TEST(Memory, ImageReplacementsAlwaysMoveCodeWrites) {
  Memory m;
  const uint8_t bytes[3] = {1, 2, 3};
  m.write_block(0x9000, bytes, sizeof bytes);  // nothing watched
  EXPECT_EQ(m.code_writes(), 1u);
  m.watch_code(0x1000, 0x1004);
  m.write_block(0x9000, bytes, sizeof bytes);  // far from the watch
  EXPECT_EQ(m.code_writes(), 2u);
  m.restore_pages({});
  EXPECT_EQ(m.code_writes(), 3u);

  // A copy carries the count and the watch along.
  Memory copy(m);
  EXPECT_EQ(copy.code_writes(), 3u);
  copy.write8(0x1003, 7);
  EXPECT_EQ(copy.code_writes(), 4u);
  EXPECT_EQ(m.code_writes(), 3u);
}

// ~100k mixed operations against a byte-map reference: accesses of every
// width at random addresses (clustered on page ends and the top of
// memory, so page changes and straddles are frequent), bulk reads and
// writes, copies, moves, restores and watch changes. Every read must match
// the reference, the allocated page set must match the pages written, and
// code_writes() must move exactly when a written byte is watched.
TEST(Memory, RandomizedOperationsMatchByteMapReference) {
  std::mt19937_64 rng(0xC0FFEE23u);
  auto pick = [&](uint64_t n) { return rng() % n; };
  const uint32_t kPages[] = {0x0000, 0x0001, 0x0040, 0x1001, 0x7FFF, 0xFFFF};
  auto random_addr = [&] {
    const uint32_t page = kPages[pick(std::size(kPages))];
    const uint32_t off = pick(2) ? static_cast<uint32_t>(pick(Memory::kPageSize))
                                 : Memory::kPageSize - 1 - static_cast<uint32_t>(pick(6));
    return (page << Memory::kPageBits) | off;
  };

  std::map<uint32_t, uint8_t> bytes;  // absent = 0
  std::set<uint32_t> pages;
  auto ref_read = [&](uint32_t addr, int width) {
    uint32_t v = 0;
    for (int k = 0; k < width; ++k) {
      const auto it = bytes.find(addr + static_cast<uint32_t>(k));
      if (it != bytes.end()) v |= static_cast<uint32_t>(it->second) << (8 * k);
    }
    return v;
  };
  auto ref_write = [&](uint32_t addr, int width, uint32_t v) {
    for (int k = 0; k < width; ++k) {
      const uint32_t at = addr + static_cast<uint32_t>(k);
      bytes[at] = static_cast<uint8_t>(v >> (8 * k));
      pages.insert(at >> Memory::kPageBits);
    }
  };
  uint64_t watch_lo = ~0ull;
  uint64_t watch_hi = 0;
  auto watched = [&](uint32_t addr, int width) {
    for (int k = 0; k < width; ++k) {
      const uint64_t at = static_cast<uint32_t>(addr + static_cast<uint32_t>(k));
      if (at >= watch_lo && at < watch_hi) return true;
    }
    return false;
  };

  auto m = std::make_unique<Memory>();
  for (int step = 0; step < 100'000; ++step) {
    const uint64_t op = pick(1000);
    const uint32_t addr = random_addr();
    const int width = 1 << pick(3);
    const uint64_t before = m->code_writes();
    bool moves = false;  // whether code_writes() must move
    if (op < 400) {
      const uint32_t v = static_cast<uint32_t>(rng());
      switch (width) {
        case 1: m->write8(addr, static_cast<uint8_t>(v)); break;
        case 2: m->write16(addr, static_cast<uint16_t>(v)); break;
        default: m->write32(addr, v); break;
      }
      ref_write(addr, width, v);
      moves = watched(addr, width);
    } else if (op < 880) {
      const uint32_t got = width == 1   ? m->read8(addr)
                           : width == 2 ? m->read16(addr)
                                        : m->read32(addr);
      ASSERT_EQ(got, ref_read(addr, width)) << "step " << step << " addr " << addr;
    } else if (op < 920) {
      std::vector<uint8_t> block(1 + pick(64));
      for (uint8_t& b : block) b = static_cast<uint8_t>(rng());
      m->write_block(addr, block.data(), block.size());
      for (size_t k = 0; k < block.size(); ++k) {
        ref_write(addr + static_cast<uint32_t>(k), 1, block[k]);
      }
      moves = true;
    } else if (op < 950) {
      const size_t n = 1 + pick(100);
      const std::vector<uint8_t> got = m->read_block(addr, n);
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(got[k], ref_read(addr + static_cast<uint32_t>(k), 1)) << "step " << step;
      }
    } else if (op < 970) {
      const uint64_t lo = random_addr();
      const uint64_t hi = std::min<uint64_t>(lo + 1 + pick(64), uint64_t{1} << 32);
      m->watch_code(lo, hi);
      watch_lo = std::min(watch_lo, lo);
      watch_hi = std::max(watch_hi, hi);
    } else if (op < 990) {
      // A copy or move replaces the live Memory; the old one is destroyed.
      auto next = std::make_unique<Memory>();
      next->write8(random_addr(), 1);  // pages and cache entries of its own
      switch (op % 4) {
        case 0: next = std::make_unique<Memory>(*m); break;
        case 1: *next = *m; break;
        case 2: next = std::make_unique<Memory>(std::move(*m)); break;
        default: *next = std::move(*m); break;
      }
      m = std::move(next);
    } else if (op < 991) {
      // Restore the reference image with one byte changed.
      ref_write(addr, 1, static_cast<uint8_t>(rng()));
      std::map<uint32_t, std::vector<uint8_t>> image;
      for (const uint32_t page : pages) image[page].assign(Memory::kPageSize, 0);
      for (const auto& [at, b] : bytes) image[at >> Memory::kPageBits][at & 0xFFFF] = b;
      m->restore_pages({image.begin(), image.end()});
      moves = true;
    }
    ASSERT_EQ(m->code_writes() > before, moves) << "step " << step;
    ASSERT_EQ(m->pages_allocated(), pages.size()) << "step " << step;
  }
  for (const auto& [at, b] : bytes) ASSERT_EQ(m->read8(at), b) << at;
}

TEST(Cache, DisabledIsFree) {
  Cache c(CacheParams{});  // enabled = false by default
  EXPECT_EQ(c.access(0x1234), 0u);
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, MissThenHit) {
  CacheParams p;
  p.enabled = true;
  p.size_bytes = 1024;
  p.line_bytes = 32;
  p.miss_penalty = 10;
  Cache c(p);
  EXPECT_EQ(c.access(0x100), 10u);
  EXPECT_EQ(c.access(0x104), 0u);  // same line
  EXPECT_EQ(c.access(0x11F), 0u);
  EXPECT_EQ(c.access(0x120), 10u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ConflictEviction) {
  CacheParams p;
  p.enabled = true;
  p.size_bytes = 64;  // 2 lines of 32
  p.line_bytes = 32;
  p.miss_penalty = 7;
  Cache c(p);
  EXPECT_EQ(c.access(0x000), 7u);
  EXPECT_EQ(c.access(0x040), 7u);  // same index, different tag -> evict
  EXPECT_EQ(c.access(0x000), 7u);  // miss again
}

TEST(Cache, Reset) {
  CacheParams p;
  p.enabled = true;
  Cache c(p);
  c.access(0);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_GT(c.access(0), 0u);  // cold again
}

TEST(Memory, FirstDifferenceIdenticalImages) {
  Memory a, b;
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  a.write32(0x1000, 0xDEADBEEF);
  b.write32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  EXPECT_EQ(b.first_difference(a), std::nullopt);
}

TEST(Memory, FirstDifferenceReportsLowestDifferingByte) {
  Memory a, b;
  a.write8(0x2003, 7);
  b.write8(0x2003, 9);
  a.write8(0x2001, 1);  // lower difference added later must still win
  EXPECT_EQ(a.first_difference(b), 0x2001u);
  EXPECT_EQ(b.first_difference(a), 0x2001u);
}

TEST(Memory, FirstDifferenceStraddlesPageBoundary) {
  // Last byte of page 0 equal, first byte of page 1 differs: the scan must
  // cross into the next page instead of stopping at the boundary.
  Memory a, b;
  a.write8(Memory::kPageSize - 1, 0x11);
  b.write8(Memory::kPageSize - 1, 0x11);
  a.write8(Memory::kPageSize, 0x22);
  b.write8(Memory::kPageSize, 0x33);
  EXPECT_EQ(a.first_difference(b), Memory::kPageSize);

  // A 32-bit write straddling the boundary differs only in its high bytes,
  // which land on the second page.
  Memory c, d;
  c.write32(Memory::kPageSize - 2, 0xAABBCCDD);
  d.write32(Memory::kPageSize - 2, 0x11BBCCDD);
  EXPECT_EQ(c.first_difference(d), Memory::kPageSize + 1);
}

TEST(Memory, FirstDifferenceTreatsAbsentPagesAsZero) {
  // One side allocated an all-zero page (write then overwrite with zero),
  // the other never touched it: the images hold the same bytes, so there
  // is no difference to report...
  Memory a, b;
  a.write8(0x30000, 0xFF);
  a.write8(0x30000, 0x00);
  EXPECT_EQ(a.pages_allocated(), 1u);
  EXPECT_EQ(b.pages_allocated(), 0u);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  EXPECT_EQ(b.first_difference(a), std::nullopt);
  // ...but the allocation set is part of the image identity, which the
  // hash does see (a run that touched a page is distinguishable).
  EXPECT_NE(a.content_hash(), b.content_hash());

  // An absent page on one side with real bytes on the other compares
  // against zeros.
  b.write8(0x50004, 0xAB);
  EXPECT_EQ(a.first_difference(b), 0x50004u);
}

TEST(Memory, PagesSortedAscendingAndSized) {
  Memory m;
  m.write8(3 * Memory::kPageSize + 5, 1);
  m.write8(0 * Memory::kPageSize + 9, 2);
  m.write8(7 * Memory::kPageSize + 1, 3);
  const auto pages = m.pages_sorted();
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0].first, 0u);
  EXPECT_EQ(pages[1].first, 3u);
  EXPECT_EQ(pages[2].first, 7u);
  for (const auto& [index, bytes] : pages) {
    ASSERT_NE(bytes, nullptr);
    EXPECT_EQ(bytes->size(), Memory::kPageSize);
  }
  EXPECT_EQ((*pages[1].second)[5], 1u);
}

TEST(Memory, RestorePagesReplacesTheImage) {
  Memory src;
  src.write32(0x1234, 0xCAFEBABE);
  src.write8(5 * Memory::kPageSize, 0x42);
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
  for (const auto& [index, bytes] : src.pages_sorted()) pages.emplace_back(index, *bytes);

  Memory dst;
  dst.write8(0x999, 0x77);  // must vanish: restore replaces, not merges
  dst.restore_pages(pages);
  EXPECT_EQ(dst.content_hash(), src.content_hash());
  EXPECT_EQ(dst.first_difference(src), std::nullopt);
  EXPECT_EQ(dst.read32(0x1234), 0xCAFEBABEu);
  EXPECT_EQ(dst.read8(0x999), 0u);

  // Wrong-sized pages are a deserialization bug, not a silent truncation.
  EXPECT_THROW(dst.restore_pages({{0u, std::vector<uint8_t>(100)}}), std::invalid_argument);
}

TEST(Memory, RestorePagesMovesTheCallersBuffers) {
  // Restore takes the staged pages over instead of copying them: each page
  // of the image is the very buffer the caller's vector held. Pages come
  // out of order, and index 9 twice: the last occurrence wins.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
  pages.emplace_back(9u, std::vector<uint8_t>(Memory::kPageSize, 0x09));
  pages.emplace_back(2u, std::vector<uint8_t>(Memory::kPageSize, 0x02));
  pages.emplace_back(9u, std::vector<uint8_t>(Memory::kPageSize, 0x99));
  std::map<uint32_t, const uint8_t*> buffers;
  for (const auto& [index, bytes] : pages) buffers[index] = bytes.data();

  Memory m;
  m.write8(0x50000, 1);  // replaced
  m.restore_pages(std::move(pages));
  const auto restored = m.pages_sorted();
  ASSERT_EQ(restored.size(), 2u);
  for (const auto& [index, bytes] : restored) {
    EXPECT_EQ(bytes->data(), buffers.at(index)) << "page " << index << " was copied";
  }
  EXPECT_EQ(m.read8(9 * Memory::kPageSize), 0x99u);
  EXPECT_EQ(m.read8(2 * Memory::kPageSize), 0x02u);

  // A page of the wrong size rejects the whole restore before any change.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> bad;
  bad.emplace_back(4u, std::vector<uint8_t>(Memory::kPageSize, 0x44));
  bad.emplace_back(5u, std::vector<uint8_t>(100));
  EXPECT_THROW(m.restore_pages(std::move(bad)), std::invalid_argument);
  EXPECT_EQ(m.pages_allocated(), 2u);
  EXPECT_EQ(m.read8(9 * Memory::kPageSize), 0x99u);
  EXPECT_EQ(m.read8(4 * Memory::kPageSize), 0u);
}

}  // namespace
}  // namespace dim::mem
