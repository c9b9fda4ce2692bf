#include "work/golden.hpp"

#include <algorithm>
#include <cmath>

namespace dim::work::golden {

// --- CRC-32 ------------------------------------------------------------------

std::vector<uint32_t> crc32_table() {
  std::vector<uint32_t> table(256);
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

uint32_t crc32(const std::vector<uint8_t>& data) {
  static const std::vector<uint32_t> table = crc32_table();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : data) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// --- SHA-1 -------------------------------------------------------------------

std::array<uint32_t, 5> sha1_blocks(const std::vector<uint8_t>& data) {
  std::array<uint32_t, 5> h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                               0xC3D2E1F0u};
  auto rotl = [](uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };
  for (size_t off = 0; off + 64 <= data.size(); off += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[off + 4 * i]) << 24) |
             (static_cast<uint32_t>(data[off + 4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[off + 4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[off + 4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  return h;
}

// --- AES-128 -----------------------------------------------------------------

namespace {

constexpr std::array<uint8_t, 256> make_sbox() {
  // FIPS-197 S-box, stated directly (computing it needs GF inversion).
  return std::array<uint8_t, 256>{
      0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
      0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
      0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
      0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
      0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
      0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
      0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
      0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
      0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
      0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
      0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
      0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
      0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
      0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
      0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
      0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
      0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
      0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
      0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
      0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
      0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
      0xb0, 0x54, 0xbb, 0x16};
}

constexpr std::array<uint8_t, 256> make_inv_sbox() {
  std::array<uint8_t, 256> inv{};
  const auto sbox = make_sbox();
  for (int i = 0; i < 256; ++i) inv[sbox[static_cast<size_t>(i)]] = static_cast<uint8_t>(i);
  return inv;
}

constexpr uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

constexpr uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// x -> gmul(x, k) for InvMixColumns' four constants, built at compile time.
constexpr std::array<uint8_t, 256> make_mul_table(uint8_t k) {
  std::array<uint8_t, 256> t{};
  for (int x = 0; x < 256; ++x) t[static_cast<size_t>(x)] = gmul(static_cast<uint8_t>(x), k);
  return t;
}

constexpr std::array<uint8_t, 256> kMul9 = make_mul_table(9);
constexpr std::array<uint8_t, 256> kMul11 = make_mul_table(11);
constexpr std::array<uint8_t, 256> kMul13 = make_mul_table(13);
constexpr std::array<uint8_t, 256> kMul14 = make_mul_table(14);

}  // namespace

const std::array<uint8_t, 256> kAesSbox = make_sbox();
const std::array<uint8_t, 256> kAesInvSbox = make_inv_sbox();

Aes128::Aes128(const std::array<uint8_t, 16>& key) {
  std::copy(key.begin(), key.end(), round_keys.begin());
  uint8_t rcon = 1;
  for (int i = 16; i < 176; i += 4) {
    uint8_t t[4] = {round_keys[static_cast<size_t>(i - 4)], round_keys[static_cast<size_t>(i - 3)],
                    round_keys[static_cast<size_t>(i - 2)], round_keys[static_cast<size_t>(i - 1)]};
    if (i % 16 == 0) {
      const uint8_t tmp = t[0];
      t[0] = static_cast<uint8_t>(kAesSbox[t[1]] ^ rcon);
      t[1] = kAesSbox[t[2]];
      t[2] = kAesSbox[t[3]];
      t[3] = kAesSbox[tmp];
      rcon = xtime(rcon);
    }
    for (int k = 0; k < 4; ++k) {
      round_keys[static_cast<size_t>(i + k)] =
          static_cast<uint8_t>(round_keys[static_cast<size_t>(i + k - 16)] ^ t[k]);
    }
  }
}

std::array<uint8_t, 16> Aes128::encrypt(const std::array<uint8_t, 16>& block) const {
  std::array<uint8_t, 16> s = block;
  auto add_key = [&](int round) {
    for (int i = 0; i < 16; ++i)
      s[static_cast<size_t>(i)] ^= round_keys[static_cast<size_t>(round * 16 + i)];
  };
  add_key(0);
  for (int round = 1; round <= 10; ++round) {
    for (auto& b : s) b = kAesSbox[b];
    // ShiftRows (column-major state: s[r + 4c]).
    std::array<uint8_t, 16> t = s;
    for (int r = 1; r < 4; ++r)
      for (int c = 0; c < 4; ++c)
        s[static_cast<size_t>(r + 4 * c)] = t[static_cast<size_t>(r + 4 * ((c + r) % 4))];
    if (round < 10) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = &s[static_cast<size_t>(4 * c)];
        const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        col[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    add_key(round);
  }
  return s;
}

std::array<uint8_t, 16> Aes128::decrypt(const std::array<uint8_t, 16>& block) const {
  std::array<uint8_t, 16> s = block;
  auto add_key = [&](int round) {
    for (int i = 0; i < 16; ++i)
      s[static_cast<size_t>(i)] ^= round_keys[static_cast<size_t>(round * 16 + i)];
  };
  add_key(10);
  for (int round = 9; round >= 0; --round) {
    // InvShiftRows.
    std::array<uint8_t, 16> t = s;
    for (int r = 1; r < 4; ++r)
      for (int c = 0; c < 4; ++c)
        s[static_cast<size_t>(r + 4 * ((c + r) % 4))] = t[static_cast<size_t>(r + 4 * c)];
    for (auto& b : s) b = kAesInvSbox[b];
    add_key(round);
    if (round > 0) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = &s[static_cast<size_t>(4 * c)];
        const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(kMul14[a0] ^ kMul11[a1] ^ kMul13[a2] ^ kMul9[a3]);
        col[1] = static_cast<uint8_t>(kMul9[a0] ^ kMul14[a1] ^ kMul11[a2] ^ kMul13[a3]);
        col[2] = static_cast<uint8_t>(kMul13[a0] ^ kMul9[a1] ^ kMul14[a2] ^ kMul11[a3]);
        col[3] = static_cast<uint8_t>(kMul11[a0] ^ kMul13[a1] ^ kMul9[a2] ^ kMul14[a3]);
      }
    }
  }
  return s;
}

// --- IMA ADPCM ---------------------------------------------------------------

const std::array<int16_t, 89> kAdpcmStepTable = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,    19,
    21,    23,    25,    28,    31,    34,    37,    41,    45,    50,    55,
    60,    66,    73,    80,    88,    97,    107,   118,   130,   143,   157,
    173,   190,   209,   230,   253,   279,   307,   337,   371,   408,   449,
    494,   544,   598,   658,   724,   796,   876,   963,   1060,  1166,  1282,
    1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,  3024,  3327,  3660,
    4026,  4428,  4871,  5358,  5894,  6484,  7132,  7845,  8630,  9493,  10442,
    11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794,
    32767};

const std::array<int8_t, 16> kAdpcmIndexTable = {-1, -1, -1, -1, 2, 4, 6, 8,
                                                 -1, -1, -1, -1, 2, 4, 6, 8};

std::vector<uint8_t> adpcm_encode(const std::vector<int16_t>& samples) {
  std::vector<uint8_t> out;
  out.reserve(samples.size());
  int valpred = 0;
  int index = 0;
  for (int16_t sample : samples) {
    const int step = kAdpcmStepTable[static_cast<size_t>(index)];
    int diff = sample - valpred;
    int code = 0;
    if (diff < 0) {
      code = 8;
      diff = -diff;
    }
    int tempstep = step;
    if (diff >= tempstep) {
      code |= 4;
      diff -= tempstep;
    }
    tempstep >>= 1;
    if (diff >= tempstep) {
      code |= 2;
      diff -= tempstep;
    }
    tempstep >>= 1;
    if (diff >= tempstep) code |= 1;

    // Reconstruct predictor exactly like the decoder.
    int diffq = step >> 3;
    if (code & 4) diffq += step;
    if (code & 2) diffq += step >> 1;
    if (code & 1) diffq += step >> 2;
    if (code & 8) {
      valpred -= diffq;
    } else {
      valpred += diffq;
    }
    valpred = std::clamp(valpred, -32768, 32767);

    index += kAdpcmIndexTable[static_cast<size_t>(code)];
    index = std::clamp(index, 0, 88);
    out.push_back(static_cast<uint8_t>(code));
  }
  return out;
}

std::vector<int16_t> adpcm_decode(const std::vector<uint8_t>& codes, size_t sample_count) {
  std::vector<int16_t> out;
  out.reserve(sample_count);
  int valpred = 0;
  int index = 0;
  for (size_t n = 0; n < sample_count && n < codes.size(); ++n) {
    const int code = codes[n] & 0xF;
    const int step = kAdpcmStepTable[static_cast<size_t>(index)];
    int diffq = step >> 3;
    if (code & 4) diffq += step;
    if (code & 2) diffq += step >> 1;
    if (code & 1) diffq += step >> 2;
    if (code & 8) {
      valpred -= diffq;
    } else {
      valpred += diffq;
    }
    valpred = std::clamp(valpred, -32768, 32767);
    index += kAdpcmIndexTable[static_cast<size_t>(code)];
    index = std::clamp(index, 0, 88);
    out.push_back(static_cast<int16_t>(valpred));
  }
  return out;
}

// --- DCT / IDCT --------------------------------------------------------------

namespace {

std::array<int32_t, 64> make_cos14() {
  std::array<int32_t, 64> c{};
  for (int u = 0; u < 8; ++u) {
    const double alpha = (u == 0) ? std::sqrt(0.125) : 0.5;
    for (int x = 0; x < 8; ++x) {
      const double value = alpha * std::cos((2 * x + 1) * u * M_PI / 16.0);
      c[static_cast<size_t>(u * 8 + x)] = static_cast<int32_t>(std::lround(value * 16384.0));
    }
  }
  return c;
}

}  // namespace

const std::array<int32_t, 64> kDctCos14 = make_cos14();

const std::array<int16_t, 64> kJpegQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

void dct8x8(const int16_t in[64], int16_t out[64]) {
  int32_t tmp[64];
  // Rows: tmp[u][x] is in fact tmp = C * in (over rows).
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      int64_t acc = 0;
      for (int x = 0; x < 8; ++x) {
        acc += static_cast<int64_t>(kDctCos14[static_cast<size_t>(u * 8 + x)]) * in[y * 8 + x];
      }
      tmp[y * 8 + u] = static_cast<int32_t>(acc >> 14);
    }
  }
  // Columns.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      int64_t acc = 0;
      for (int y = 0; y < 8; ++y) {
        acc += static_cast<int64_t>(kDctCos14[static_cast<size_t>(v * 8 + y)]) * tmp[y * 8 + u];
      }
      out[v * 8 + u] = static_cast<int16_t>(acc >> 14);
    }
  }
}

void idct8x8(const int16_t in[64], int16_t out[64]) {
  int32_t tmp[64];
  for (int u = 0; u < 8; ++u) {
    for (int y = 0; y < 8; ++y) {
      int64_t acc = 0;
      for (int v = 0; v < 8; ++v) {
        acc += static_cast<int64_t>(kDctCos14[static_cast<size_t>(v * 8 + y)]) * in[v * 8 + u];
      }
      tmp[y * 8 + u] = static_cast<int32_t>(acc >> 14);
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      int64_t acc = 0;
      for (int u = 0; u < 8; ++u) {
        acc += static_cast<int64_t>(kDctCos14[static_cast<size_t>(u * 8 + x)]) * tmp[y * 8 + u];
      }
      out[y * 8 + x] = static_cast<int16_t>(acc >> 14);
    }
  }
}

// --- GSM-style lattice filters -------------------------------------------------

const std::array<int16_t, 8> kGsmReflection = {13107, -9830, 6553, -4915,
                                               3277,  -1638, 819,  -409};

// Structure of GSM 06.10 Short_term_analysis_filtering (lattice with u[]
// memory), with plain >>15 scaling instead of the saturating GSM_MULT_R.
std::vector<int16_t> gsm_analysis(const std::vector<int16_t>& samples) {
  std::vector<int16_t> out;
  out.reserve(samples.size());
  std::array<int32_t, 8> u{};
  for (int16_t sample : samples) {
    int32_t di = sample;
    int32_t sav = di;
    for (int i = 0; i < 8; ++i) {
      const int32_t ui = u[static_cast<size_t>(i)];
      const int32_t k = kGsmReflection[static_cast<size_t>(i)];
      u[static_cast<size_t>(i)] = sav;
      sav = ui + ((k * di) >> 15);
      di = di + ((k * ui) >> 15);
    }
    di = std::clamp(di, -32768, 32767);
    out.push_back(static_cast<int16_t>(di));
  }
  return out;
}

// Structure of GSM 06.10 Short_term_synthesis_filtering with v[] memory.
std::vector<int16_t> gsm_synthesis(const std::vector<int16_t>& residual) {
  std::vector<int16_t> out;
  out.reserve(residual.size());
  std::array<int32_t, 9> v{};
  for (int16_t r : residual) {
    int32_t sri = r;
    for (int i = 7; i >= 0; --i) {
      const int32_t k = kGsmReflection[static_cast<size_t>(i)];
      sri = sri - ((k * v[static_cast<size_t>(i)]) >> 15);
      v[static_cast<size_t>(i + 1)] = v[static_cast<size_t>(i)] + ((k * sri) >> 15);
    }
    sri = std::clamp(sri, -32768, 32767);
    v[0] = sri;
    out.push_back(static_cast<int16_t>(sri));
  }
  return out;
}

// --- SUSAN-style kernels -------------------------------------------------------

std::vector<int32_t> susan_lut() {
  std::vector<int32_t> lut(256);
  for (int d = 0; d < 256; ++d) lut[static_cast<size_t>(d)] = 100 / (1 + (d * d) / 512);
  return lut;
}

std::vector<uint8_t> susan_smooth(const std::vector<uint8_t>& img, int w, int h) {
  static const std::vector<int32_t> lut = susan_lut();
  std::vector<uint8_t> out = img;
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      const int center = img[static_cast<size_t>(y * w + x)];
      int32_t num = 0;
      int32_t den = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int p = img[static_cast<size_t>((y + dy) * w + (x + dx))];
          const int32_t weight = lut[static_cast<size_t>(std::abs(p - center))];
          num += weight * p;
          den += weight;
        }
      }
      out[static_cast<size_t>(y * w + x)] = static_cast<uint8_t>(num / den);
    }
  }
  return out;
}

int susan_corners(const std::vector<uint8_t>& img, int w, int h) {
  int corners = 0;
  const int t = 20;
  for (int y = 2; y < h - 2; ++y) {
    for (int x = 2; x < w - 2; ++x) {
      const int center = img[static_cast<size_t>(y * w + x)];
      int usan = 0;
      for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          const int p = img[static_cast<size_t>((y + dy) * w + (x + dx))];
          if (std::abs(p - center) < t) ++usan;
        }
      }
      if (usan < 13) ++corners;  // geometric threshold: half the 5x5 mask
    }
  }
  return corners;
}

int susan_edges(const std::vector<uint8_t>& img, int w, int h) {
  int edges = 0;
  const int t = 12;
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      const int center = img[static_cast<size_t>(y * w + x)];
      int usan = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int p = img[static_cast<size_t>((y + dy) * w + (x + dx))];
          if (std::abs(p - center) < t) ++usan;
        }
      }
      if (usan < 7) ++edges;
    }
  }
  return edges;
}

}  // namespace dim::work::golden
