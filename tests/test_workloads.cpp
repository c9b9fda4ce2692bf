// Workload validation: golden known-answer tests, and every MiBench-
// equivalent kernel must reproduce its golden model's output on the
// baseline simulator (parameterized over all 18 workloads).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "asm/assembler.hpp"
#include "sim/machine.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

// --- golden known-answer tests ------------------------------------------------

TEST(Golden, Crc32KnownAnswer) {
  const std::string s = "123456789";
  EXPECT_EQ(golden::crc32(std::vector<uint8_t>(s.begin(), s.end())), 0xCBF43926u);
  EXPECT_EQ(golden::crc32({}), 0u);
}

TEST(Golden, Sha1KnownAnswer) {
  // One whole block: "abc" padded per FIPS 180 gives the classic digest; our
  // helper hashes whole blocks, so feed the padded block directly.
  std::vector<uint8_t> block(64, 0);
  block[0] = 'a';
  block[1] = 'b';
  block[2] = 'c';
  block[3] = 0x80;
  block[63] = 24;  // bit length
  const auto h = golden::sha1_blocks(block);
  EXPECT_EQ(h[0], 0xA9993E36u);
  EXPECT_EQ(h[1], 0x4706816Au);
  EXPECT_EQ(h[2], 0xBA3E2571u);
  EXPECT_EQ(h[3], 0x7850C26Cu);
  EXPECT_EQ(h[4], 0x9CD0D89Du);
}

TEST(Golden, Aes128Fips197Vector) {
  const std::array<uint8_t, 16> key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                       0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const std::array<uint8_t, 16> pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                                      0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const std::array<uint8_t, 16> expect_ct = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                             0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                             0x19, 0x6a, 0x0b, 0x32};
  golden::Aes128 aes(key);
  EXPECT_EQ(aes.encrypt(pt), expect_ct);
  EXPECT_EQ(aes.decrypt(expect_ct), pt);
}

TEST(Golden, AesRoundTripRandomBlocks) {
  std::array<uint8_t, 16> key{};
  uint32_t seed = 99;
  for (auto& b : key) b = static_cast<uint8_t>(golden::lcg(seed));
  golden::Aes128 aes(key);
  for (int n = 0; n < 50; ++n) {
    std::array<uint8_t, 16> block;
    for (auto& b : block) b = static_cast<uint8_t>(golden::lcg(seed));
    EXPECT_EQ(aes.decrypt(aes.encrypt(block)), block);
  }
}

TEST(Golden, AdpcmRoundTripTracksInput) {
  // ADPCM is lossy but must track a slow ramp closely.
  std::vector<int16_t> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(static_cast<int16_t>(i * 8));
  const auto codes = golden::adpcm_encode(samples);
  const auto decoded = golden::adpcm_decode(codes, codes.size());
  ASSERT_EQ(decoded.size(), samples.size());
  for (size_t i = 100; i < samples.size(); ++i) {
    EXPECT_NEAR(decoded[i], samples[i], 256) << i;
  }
}

TEST(Golden, AdpcmIndexStaysInRange) {
  std::vector<int16_t> extremes;
  uint32_t seed = 7;
  for (int i = 0; i < 200; ++i) {
    extremes.push_back(static_cast<int16_t>(golden::lcg(seed)));
  }
  const auto codes = golden::adpcm_encode(extremes);
  for (uint8_t c : codes) EXPECT_LT(c, 16u);
}

TEST(Golden, DctIdctRoundTripApproximate) {
  int16_t in[64], freq[64], out[64];
  uint32_t seed = 5;
  for (auto& v : in) v = static_cast<int16_t>(static_cast<int>(golden::lcg(seed) % 256) - 128);
  golden::dct8x8(in, freq);
  golden::idct8x8(freq, out);
  // Two passes of 14-bit fixed-point truncation bound the error to ~8 LSB.
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(out[i], in[i], 8) << i;
}

TEST(Golden, DctOfFlatBlockIsDcOnly) {
  int16_t in[64], freq[64];
  for (auto& v : in) v = 64;
  golden::dct8x8(in, freq);
  EXPECT_NEAR(freq[0], 64 * 8, 8);  // DC = 8 * value (orthonormal scaling)
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(freq[i], 0, 2) << i;
}

TEST(Golden, GsmAnalysisSynthesisApproximatelyInvert) {
  std::vector<int16_t> samples;
  for (int i = 0; i < 400; ++i)
    samples.push_back(static_cast<int16_t>(4000.0 * std::sin(i * 0.05)));
  const auto residual = golden::gsm_analysis(samples);
  const auto synth = golden::gsm_synthesis(residual);
  ASSERT_EQ(synth.size(), samples.size());
  // The lattice pair is an approximate inverse (fixed-point truncation).
  for (size_t i = 50; i < samples.size(); ++i) {
    EXPECT_NEAR(synth[i], samples[i], 64) << i;
  }
}

TEST(Golden, SusanLutShape) {
  const auto lut = golden::susan_lut();
  ASSERT_EQ(lut.size(), 256u);
  EXPECT_EQ(lut[0], 100);       // identical brightness = max weight
  EXPECT_GT(lut[10], lut[100]);  // monotonically decreasing influence
  EXPECT_GE(lut[255], 0);
}

TEST(Golden, SusanCornersFindsCheckerboardCorners) {
  // A synthetic image with a single high-contrast rectangle has corners.
  std::vector<uint8_t> img(64 * 32, 50);
  for (int y = 10; y < 20; ++y)
    for (int x = 20; x < 40; ++x) img[static_cast<size_t>(y * 64 + x)] = 200;
  EXPECT_GT(golden::susan_corners(img, 64, 32), 0);
  EXPECT_GT(golden::susan_edges(img, 64, 32), golden::susan_corners(img, 64, 32));
}

// Patricia's expected output recomputed by brute force: the kernel's trie
// depth for a query is its longest common prefix with any inserted key, so
// compare every query with every key. Input generation mirrors
// wl_patricia.cpp.
std::string patricia_brute_force(int scale) {
  uint32_t seed = 0x9A721C1Au;
  std::vector<uint32_t> keys(static_cast<size_t>(900 * scale));
  for (auto& k : keys) k = golden::lcg(seed) & 0xFFFF;
  std::vector<uint32_t> queries(static_cast<size_t>(1800 * scale));
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i] = i % 2 == 0 ? keys[golden::lcg(seed) % keys.size()]
                            : golden::lcg(seed) & 0xFFFF;
  }
  const std::set<uint32_t> present(keys.begin(), keys.end());
  uint32_t hits = 0;
  uint32_t lpm_sum = 0;
  for (uint32_t q : queries) {
    hits += present.count(q) ? 1 : 0;
    int depth = 0;
    for (uint32_t k : present) {
      depth = std::max(depth, std::countl_zero(static_cast<uint16_t>(q ^ k)));
    }
    lpm_sum += static_cast<uint32_t>(depth);
  }
  return std::to_string(static_cast<int32_t>(hits + 17u * lpm_sum));
}

TEST(Golden, PatriciaLongestPrefixMatchPinned) {
  const char* pinned[] = {"400485", "828816", "1267143", "1713443"};
  for (int scale = 1; scale <= 4; ++scale) {
    const Workload wl = make_workload("patricia", scale);
    EXPECT_EQ(wl.expected_output, pinned[scale - 1]) << "scale " << scale;
    EXPECT_EQ(wl.expected_output, patricia_brute_force(scale)) << "scale " << scale;
  }
}

// --- assembly kernels vs golden (all 18) ---------------------------------------

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, BaselineMatchesGolden) {
  const Workload wl = make_workload(GetParam(), 1);
  const asmblr::Program prog = asmblr::assemble(wl.source);
  const sim::RunResult r = sim::run_baseline(prog);
  EXPECT_FALSE(r.hit_limit);
  EXPECT_EQ(r.state.output, wl.expected_output);
}

TEST_P(WorkloadTest, ScalingChangesWorkButNotCorrectness) {
  const Workload wl = make_workload(GetParam(), 2);
  const asmblr::Program prog = asmblr::assemble(wl.source);
  const sim::RunResult r = sim::run_baseline(prog);
  EXPECT_FALSE(r.hit_limit);
  EXPECT_EQ(r.state.output, wl.expected_output);
  const Workload small = make_workload(GetParam(), 1);
  const sim::RunResult rs = sim::run_baseline(asmblr::assemble(small.source));
  EXPECT_GT(r.instructions, rs.instructions);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(WorkloadRegistry, NamesAndGroups) {
  EXPECT_EQ(workload_names().size(), 18u);
  EXPECT_THROW(make_workload("nonexistent"), std::invalid_argument);
  const auto all = all_workloads(1);
  EXPECT_EQ(all.size(), 18u);
  // Table 2 ordering: dataflow group first.
  EXPECT_TRUE(all.front().dataflow_group);
  EXPECT_FALSE(all.back().dataflow_group);
}

}  // namespace
}  // namespace dim::work
