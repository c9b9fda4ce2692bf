#include "mem/memory.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace dim::mem {

const uint8_t* Memory::find_page(uint32_t key) const {
  if (cache_.entry[0].key == key) return cache_.entry[0].data;
  if (cache_.entry[1].key != key) {
    auto it = pages_.find(key);
    if (it == pages_.end()) return nullptr;
    // The entries serve writes too; the bytes are this Memory's own.
    cache_.entry[1] = {key, const_cast<uint8_t*>(it->second.data())};
  }
  std::swap(cache_.entry[0], cache_.entry[1]);
  return cache_.entry[0].data;
}

uint8_t* Memory::page(uint32_t key) {
  if (cache_.entry[0].key == key) return cache_.entry[0].data;
  if (cache_.entry[1].key != key) {
    Page& p = pages_.try_emplace(key, kPageSize, uint8_t{0}).first->second;
    cache_.entry[1] = {key, p.data()};
  }
  std::swap(cache_.entry[0], cache_.entry[1]);
  return cache_.entry[0].data;
}

uint32_t Memory::read_slow(uint32_t addr, uint32_t width) const {
  if ((addr & kOffMask) > kPageSize - width) {
    uint32_t value = 0;
    for (uint32_t k = 0; k < width; ++k) value |= static_cast<uint32_t>(read8(addr + k)) << (8 * k);
    return value;
  }
  const uint8_t* p = find_page(addr >> kPageBits);
  return p == nullptr ? 0 : load(p + (addr & kOffMask), width);
}

void Memory::write_slow(uint32_t addr, uint32_t width, uint32_t value) {
  if ((addr & kOffMask) > kPageSize - width) {
    // Each byte is checked against the watch at its own, wrapped address.
    for (uint32_t k = 0; k < width; ++k) write8(addr + k, static_cast<uint8_t>(value >> (8 * k)));
    return;
  }
  note_write(addr, width);
  store(page(addr >> kPageBits) + (addr & kOffMask), width, value);
}

void Memory::write_block(uint32_t addr, const uint8_t* data, size_t size) {
  // One page span at a time; the address wraps at 2^32 like write8 does.
  ++code_writes_;
  size_t done = 0;
  while (done < size) {
    const uint32_t at = addr + static_cast<uint32_t>(done);
    const uint32_t off = at & kOffMask;
    const size_t n = std::min(size - done, static_cast<size_t>(kPageSize - off));
    std::memcpy(page(at >> kPageBits) + off, data + done, n);
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

void Memory::restore_pages(std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages) {
  for (const auto& [key, bytes] : pages) {
    if (bytes.size() != kPageSize) {
      throw std::invalid_argument("page " + std::to_string(key) + " has " +
                                  std::to_string(bytes.size()) + " bytes, expected " +
                                  std::to_string(kPageSize));
    }
  }
  ++code_writes_;
  cache_.reset();
  pages_.clear();
  for (auto& [key, bytes] : pages) pages_[key] = std::move(bytes);
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
