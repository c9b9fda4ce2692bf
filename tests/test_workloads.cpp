// Workload validation: golden known-answer tests, and every MiBench-
// equivalent kernel must reproduce its golden model's output on the
// baseline simulator (parameterized over all 18 workloads).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>

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

uint64_t fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Golden, KernelSourcesAndOutputsPinned) {
  // FNV-1a of every kernel's generated assembly text and expected output
  // at scales 1, 2, 4 and 8: the generators and golden models may get
  // faster, but not one source byte or expected output may move.
  struct Pin {
    const char* name;
    uint64_t source[4];
    uint64_t output[4];
  };
  const Pin pins[] = {
      {"rijndael_e",
       {0x0838d04b77a74e2full, 0xae5b5c79183f40c0ull, 0xed9435e8f22b1b4cull, 0x228a5794b89ae01eull},
       {0x6a6320db90eb72e8ull, 0xc8cf4de60cc1bd46ull, 0x0ebe03398c1a91b4ull, 0x0d00fe4ec6bd65e1ull}},
      {"rijndael_d",
       {0x94007a35c1dfb4e3ull, 0x90f2db7d86c21ca9ull, 0xfafa522f65128cb2ull, 0x662bac5eef4e1681ull},
       {0x252b97b78644384eull, 0x52f20d8293971dcaull, 0x1e7583a1ed0f6740ull, 0xe4cc156919afdb01ull}},
      {"gsm_e",
       {0x4b6464f2528811f3ull, 0xd0a2f287dbb6be4dull, 0xb2ad7deb772d3b76ull, 0x2b4f29ca7b968d3bull},
       {0xc6507b8a03c5eb5bull, 0xc8cf9ba049456624ull, 0x37bfb9fc055d0397ull, 0x0cba9de87f8554efull}},
      {"jpeg_e",
       {0x5722a0d7ee2751e4ull, 0x00968904d23e1686ull, 0xe65c65f57be9b987ull, 0x6c3a75e5407ca03cull},
       {0x04cb51a501238bcdull, 0xcabf278af72871abull, 0xcde2498e1b20f652ull, 0xdfc9930e4747d025ull}},
      {"sha",
       {0xeb4130fc4e0975d5ull, 0x3c248e11b8f538eeull, 0x570c9e87abe68faeull, 0x00d666f3ae932500ull},
       {0xba2c1c10529e8472ull, 0xa6754164c529d3afull, 0x4120ef91f3dd2205ull, 0xad11f3f2631e824bull}},
      {"susan_s",
       {0x13ad27c07d47fecbull, 0x0e62a8ba03c6b359ull, 0x093bcd78204ee27full, 0x6f7372c4f5b55082ull},
       {0x9099a317bbd6abc7ull, 0xa8bf91dc8fa5d037ull, 0x4e96c34eace9e00aull, 0x68977f3cb88d7968ull}},
      {"crc32",
       {0xed4b7a4424f6c507ull, 0xb3697933db82bdffull, 0x31d698d7604246f5ull, 0x72c7f44d803b9136ull},
       {0x8505928904316945ull, 0xf95bd224d4cdb7bbull, 0x9977604ea0a70e28ull, 0x7fcbdfbb3c1d7742ull}},
      {"jpeg_d",
       {0x42045ead70dfbe16ull, 0xe42f500bbdd7b8b3ull, 0x037c7d41c077f88bull, 0x7126be3f125d52c5ull},
       {0xbd13a9e076ae241dull, 0x64e6c8ab0a54885aull, 0x51828e8f281a956cull, 0xe634efdc048e5d25ull}},
      {"patricia",
       {0xf24f489d6459eb95ull, 0xe1e03f874d801e28ull, 0x0d92b2ee126d2402ull, 0x884cd83e294da2e9ull},
       {0x7d900ee84a0dbb1eull, 0xdf816251f2a5772cull, 0x2e6237acb24faeaeull, 0xd947bf3cc1fc1afaull}},
      {"susan_c",
       {0x17945123addcd5aeull, 0x3918097dcdf6b1adull, 0x16990c03284d14beull, 0xb0254475f0facbcfull},
       {0x34e4f4180efc890aull, 0xfbc315f0ee628e34ull, 0x8568560255b0d562ull, 0xf8776de186995445ull}},
      {"susan_e",
       {0x6df57d007ddf4d91ull, 0x3ceae65d503b092dull, 0xd5ce7146ffa109c7ull, 0x8a0c3c5e1228154aull},
       {0x1fb2a9f1031a9ecfull, 0xf5a2790b21f4b3c5ull, 0x7f6119d8b5429b5cull, 0x82e7987659caef53ull}},
      {"dijkstra",
       {0xf85a1fb4deffadabull, 0x79568a240312ef5eull, 0x4d1062f9992703d4ull, 0xc5681e0a0733d90full},
       {0xe1e1d4ea977bae76ull, 0x04eea37f30460f7eull, 0x57a50e1d6d29de96ull, 0x4d76f61ab508990eull}},
      {"gsm_d",
       {0x18a1a6d937e9df0bull, 0xb79b086214086748ull, 0x061b1cbfc3b90e44ull, 0x6a5029972a246dd8ull},
       {0x45f2af3c19e63820ull, 0xc1af059b747e1b3bull, 0x64a2b2a43f0a2cbdull, 0xab3913f35c9000b5ull}},
      {"bitcount",
       {0x5f9f2b5fd729a1e5ull, 0x6bad79ce75faa6bfull, 0x5023edfd4965516full, 0x5d7df0c9e9dba324ull},
       {0xb4f3229e8b1b1fafull, 0xf9557ed80345cfb8ull, 0x3105cb697cf01e96ull, 0x4de4c4f6804e2bcbull}},
      {"stringsearch",
       {0x8544463485b3064bull, 0x2a675865501bbe68ull, 0x14dc2a3379c906d9ull, 0xdcb893aec75c4ddeull},
       {0x1d68c743ddc34dbfull, 0xd2d5ea83383f483dull, 0x4a4e7c665354406aull, 0xdbcdff7f126db007ull}},
      {"quicksort",
       {0x39904dad78befa28ull, 0x8875d8e0721fa3cfull, 0x02605360e256fd89ull, 0x2b1056ed52db7999ull},
       {0x232cc730e3eafef8ull, 0xe707bd7d45a21e8aull, 0x33762c1aca82f759ull, 0x98aa08db8ac5f1a7ull}},
      {"rawaudio_e",
       {0xf58e6753fba009a0ull, 0x24db70a218f38b55ull, 0xa5bdb5357282393dull, 0x38b782bce6490424ull},
       {0x49ed913afa1377efull, 0xd0ea66767237381bull, 0xa19a05509592005full, 0x44bb324cec373d5cull}},
      {"rawaudio_d",
       {0x0282b9b7e890ca90ull, 0xb62170a005151b46ull, 0x4dca09af3b928951ull, 0x26b273ec2a77c5d2ull},
       {0x4681ef6756198051ull, 0x243cdbf16f430861ull, 0x1909c17b5a9e92faull, 0x1a6b7a173ae6a7a8ull}},
  };
  ASSERT_EQ(std::size(pins), workload_names().size());
  const int scales[] = {1, 2, 4, 8};
  for (const Pin& pin : pins) {
    for (size_t i = 0; i < std::size(scales); ++i) {
      const Workload wl = make_workload(pin.name, scales[i]);
      EXPECT_EQ(fnv1a(wl.source), pin.source[i])
          << pin.name << " scale " << scales[i] << " source: 0x" << std::hex
          << fnv1a(wl.source);
      EXPECT_EQ(fnv1a(wl.expected_output), pin.output[i])
          << pin.name << " scale " << scales[i] << " output: 0x" << std::hex
          << fnv1a(wl.expected_output);
    }
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
