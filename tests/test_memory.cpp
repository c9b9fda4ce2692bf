#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
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

}  // namespace
}  // namespace dim::mem
