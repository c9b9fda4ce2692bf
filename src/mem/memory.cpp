#include "mem/memory.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

namespace dim::mem {

Memory::Page& Memory::page_for(uint32_t addr) {
  const uint32_t key = addr >> kPageBits;
  auto it = pages_.find(key);
  if (it == pages_.end()) {
    it = pages_.emplace(key, Page(kPageSize, 0)).first;
  }
  return it->second;
}

const Memory::Page* Memory::find_page(uint32_t addr) const {
  auto it = pages_.find(addr >> kPageBits);
  return it == pages_.end() ? nullptr : &it->second;
}

uint8_t Memory::read8(uint32_t addr) const {
  const Page* p = find_page(addr);
  return p ? (*p)[addr & (kPageSize - 1)] : 0;
}

uint16_t Memory::read16(uint32_t addr) const {
  return static_cast<uint16_t>(read8(addr) | (read8(addr + 1) << 8));
}

uint32_t Memory::read32(uint32_t addr) const {
  // Fast path: whole word within one page.
  const Page* p = find_page(addr);
  const uint32_t off = addr & (kPageSize - 1);
  if (p && off + 4 <= kPageSize) {
    return static_cast<uint32_t>((*p)[off]) |
           (static_cast<uint32_t>((*p)[off + 1]) << 8) |
           (static_cast<uint32_t>((*p)[off + 2]) << 16) |
           (static_cast<uint32_t>((*p)[off + 3]) << 24);
  }
  return static_cast<uint32_t>(read16(addr)) | (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

void Memory::write8(uint32_t addr, uint8_t value) {
  ++writes_;
  page_for(addr)[addr & (kPageSize - 1)] = value;
}

void Memory::write16(uint32_t addr, uint16_t value) {
  write8(addr, static_cast<uint8_t>(value));
  write8(addr + 1, static_cast<uint8_t>(value >> 8));
}

void Memory::write32(uint32_t addr, uint32_t value) {
  Page& p = page_for(addr);
  const uint32_t off = addr & (kPageSize - 1);
  if (off + 4 <= kPageSize) {
    ++writes_;
    p[off] = static_cast<uint8_t>(value);
    p[off + 1] = static_cast<uint8_t>(value >> 8);
    p[off + 2] = static_cast<uint8_t>(value >> 16);
    p[off + 3] = static_cast<uint8_t>(value >> 24);
    return;
  }
  write16(addr, static_cast<uint16_t>(value));
  write16(addr + 2, static_cast<uint16_t>(value >> 16));
}

void Memory::write_block(uint32_t addr, const uint8_t* data, size_t size) {
  // One page span at a time; the address wraps at 2^32 like write8 does.
  ++writes_;
  size_t done = 0;
  while (done < size) {
    const uint32_t at = addr + static_cast<uint32_t>(done);
    const uint32_t off = at & (kPageSize - 1);
    const size_t n = std::min(size - done, static_cast<size_t>(kPageSize - off));
    std::memcpy(page_for(at).data() + off, data + done, n);
    done += n;
  }
}

std::vector<uint8_t> Memory::read_block(uint32_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) out[i] = read8(addr + static_cast<uint32_t>(i));
  return out;
}

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// kFnvPrime^n mod 2^64: what n FNV-1a steps over zero bytes multiply by.
uint64_t fnv_prime_pow(size_t n) {
  uint64_t result = 1;
  uint64_t base = kFnvPrime;
  for (; n != 0; n >>= 1) {
    if (n & 1) result *= base;
    base *= base;
  }
  return result;
}

}  // namespace

uint64_t Memory::content_hash() const {
  // FNV-1a over every page in ascending key order (so the hash does not
  // depend on unordered_map iteration order): the key, then the page's
  // bytes. A zero byte's step is a bare multiply, so a run of zeros folds
  // into one multiply by kFnvPrime^n; non-zero bytes are found a word at a
  // time. The value is exactly the byte-serial hash.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [key, page] : pages_sorted()) {
    h ^= key;
    h *= kFnvPrime;
    const uint8_t* bytes = page->data();
    size_t zeros = 0;
    for (size_t i = 0; i < kPageSize; i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, bytes + i, 8);
      if (word == 0) {
        zeros += 8;
        continue;
      }
      if (zeros != 0) h *= fnv_prime_pow(zeros);
      zeros = 0;
      for (size_t k = 0; k < 8; ++k) {
        h ^= bytes[i + k];
        h *= kFnvPrime;
      }
    }
    h *= fnv_prime_pow(zeros);
  }
  return h;
}

std::vector<std::pair<uint32_t, const std::vector<uint8_t>*>> Memory::pages_sorted()
    const {
  std::vector<std::pair<uint32_t, const Page*>> out;
  out.reserve(pages_.size());
  for (const auto& [key, page] : pages_) out.emplace_back(key, &page);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Memory::restore_pages(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& pages) {
  for (const auto& [key, bytes] : pages) {
    if (bytes.size() != kPageSize) {
      throw std::invalid_argument("page " + std::to_string(key) + " has " +
                                  std::to_string(bytes.size()) + " bytes, expected " +
                                  std::to_string(kPageSize));
    }
  }
  ++writes_;
  pages_.clear();
  for (const auto& [key, bytes] : pages) pages_[key] = bytes;
}

std::optional<uint32_t> Memory::first_difference(const Memory& other) const {
  std::map<uint32_t, const Page*> mine, theirs;
  for (const auto& [key, page] : pages_) mine.emplace(key, &page);
  for (const auto& [key, page] : other.pages_) theirs.emplace(key, &page);

  auto page_byte = [](const Page* p, uint32_t off) -> uint8_t {
    return p == nullptr ? 0 : (*p)[off];
  };

  std::map<uint32_t, std::pair<const Page*, const Page*>> keys;
  for (const auto& [key, page] : mine) keys[key].first = page;
  for (const auto& [key, page] : theirs) keys[key].second = page;
  for (const auto& [key, pair] : keys) {
    for (uint32_t off = 0; off < kPageSize; ++off) {
      if (page_byte(pair.first, off) != page_byte(pair.second, off)) {
        return (key << kPageBits) | off;
      }
    }
  }
  return std::nullopt;
}

}  // namespace dim::mem
