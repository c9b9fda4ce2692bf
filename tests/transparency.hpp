// The suite's one transparency assertion, built on the verdict that the
// benches, the sweep engine, the result store, serve and the fuzzer use.
#pragma once

#include <gtest/gtest.h>

#include "accel/system.hpp"

namespace dim::accel {

// Both runs halted, and output, registers, PC, HI/LO, memory and retired
// count match.
inline void expect_transparent(const SpeedupResult& r) {
  const RunComparison c = compare_runs(r.baseline, r.accelerated);
  EXPECT_EQ(c.verdict, Verdict::kTransparent) << c.detail;
  EXPECT_FALSE(r.accelerated.hit_limit);
}

}  // namespace dim::accel
