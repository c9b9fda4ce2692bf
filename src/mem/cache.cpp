#include "mem/cache.hpp"

#include <stdexcept>
#include <string>

namespace dim::mem {
namespace {

uint32_t log2_floor(uint32_t v) {
  uint32_t r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

}  // namespace

Cache::Cache(const CacheParams& params) : params_(params) {
  num_lines_ = params_.size_bytes / params_.line_bytes;
  if (num_lines_ == 0) num_lines_ = 1;
  line_shift_ = log2_floor(params_.line_bytes);
  s_.tags.assign(num_lines_, 0);
}

uint32_t Cache::access(uint32_t addr) {
  if (!params_.enabled) return 0;
  const uint32_t line = (addr >> line_shift_) % num_lines_;
  const uint64_t tag = (static_cast<uint64_t>(addr) >> line_shift_) / num_lines_ + 1;
  if (s_.tags[line] == tag) {
    ++s_.hits;
    return 0;
  }
  s_.tags[line] = tag;
  ++s_.misses;
  return params_.miss_penalty;
}

void Cache::reset() {
  s_ = CacheState{};
  s_.tags.assign(num_lines_, 0);
}

void Cache::check_state(const CacheState& state) const {
  if (state.tags.size() != num_lines_) {
    throw std::invalid_argument("cache state has " + std::to_string(state.tags.size()) +
                                " tags, geometry needs " + std::to_string(num_lines_));
  }
}

}  // namespace dim::mem
