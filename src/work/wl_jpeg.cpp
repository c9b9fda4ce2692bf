// JPEG (MiBench consumer/jpeg): the arithmetic core of the codec — 8x8
// forward DCT + quantization (encode) and dequantization + inverse DCT +
// clamp (decode), over many blocks. Multiplier-heavy dataflow code with a
// spread-out basic-block profile (the paper's example of a benchmark with
// no distinct kernel).
//
// The inline golden models below mirror the assembly arithmetic exactly
// (32-bit wrap-around multiply, arithmetic >>14), so expected outputs match
// bit-for-bit; golden::dct8x8/idct8x8 are validated separately in tests.
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

uint32_t mullo(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>(static_cast<int64_t>(static_cast<int32_t>(a)) *
                               static_cast<int64_t>(static_cast<int32_t>(b)));
}

uint32_t sra14(uint32_t x) { return static_cast<uint32_t>(static_cast<int32_t>(x) >> 14); }

std::vector<uint8_t> make_image(int blocks) {
  std::vector<uint8_t> img(static_cast<size_t>(blocks) * 64);
  uint32_t seed = 0x1AE6D00Du;
  // Smooth gradient + texture so DCT coefficients have realistic decay.
  for (int b = 0; b < blocks; ++b) {
    const int base = static_cast<int>(golden::lcg(seed) % 128) + 32;
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 8; ++x) {
        int v = base + 6 * x + 4 * y + static_cast<int>(golden::lcg(seed) % 24);
        if (v > 255) v = 255;
        img[static_cast<size_t>(b * 64 + y * 8 + x)] = static_cast<uint8_t>(v);
      }
    }
  }
  return img;
}

// Forward path mirroring the assembly: returns quantized coefficients and
// accumulates the encode checksum.
std::vector<int32_t> forward_blocks(const std::vector<uint8_t>& img, int blocks,
                                    uint32_t& checksum) {
  std::vector<int32_t> all_q(static_cast<size_t>(blocks) * 64);
  for (int b = 0; b < blocks; ++b) {
    uint32_t blk[64];
    for (int i = 0; i < 64; ++i) {
      blk[i] = static_cast<uint32_t>(static_cast<int32_t>(img[static_cast<size_t>(b * 64 + i)]) - 128);
    }
    uint32_t tmp[64];
    for (int y = 0; y < 8; ++y) {
      for (int u = 0; u < 8; ++u) {
        uint32_t acc = 0;
        for (int x = 0; x < 8; ++x) {
          acc += mullo(static_cast<uint32_t>(golden::kDctCos14[static_cast<size_t>(u * 8 + x)]),
                       blk[y * 8 + x]);
        }
        tmp[y * 8 + u] = sra14(acc);
      }
    }
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        uint32_t acc = 0;
        for (int y = 0; y < 8; ++y) {
          acc += mullo(static_cast<uint32_t>(golden::kDctCos14[static_cast<size_t>(v * 8 + y)]),
                       tmp[y * 8 + u]);
        }
        const int32_t coeff = static_cast<int32_t>(sra14(acc));
        const int32_t q = coeff / golden::kJpegQuant[static_cast<size_t>(v * 8 + u)];
        all_q[static_cast<size_t>(b * 64 + v * 8 + u)] = q;
        checksum += static_cast<uint32_t>(q ^ (v * 8 + u));
      }
    }
  }
  return all_q;
}

// Standard JPEG zigzag scan order (the entropy stage walks coefficients in
// this order so runs of zeros cluster).
const std::array<int32_t, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// Zigzag + run-length "entropy" pass over one quantized block, mirrored
// exactly by the assembly: zero runs accumulate, nonzero coefficients emit
// a (run, level) token folded into the checksum.
uint32_t rle_checksum(const int32_t* q) {
  uint32_t chk = 0;
  uint32_t run = 0;
  for (int i = 0; i < 64; ++i) {
    const uint32_t c = static_cast<uint32_t>(q[kZigzag[static_cast<size_t>(i)]]);
    if (c == 0) {
      ++run;
    } else {
      chk += ((run << 8) ^ (c & 0xFF)) + static_cast<uint32_t>(i);
      run = 0;
    }
  }
  return chk + run;  // end-of-block marker carries the final run
}

// The DCT cosine table and quantization matrix as .data.
void append_tables_data(std::string& out) {
  std::vector<int32_t> cos_table(golden::kDctCos14.begin(), golden::kDctCos14.end());
  std::vector<int32_t> quant(golden::kJpegQuant.begin(), golden::kJpegQuant.end());
  out += "costab:\n";
  append_words_i(out, cos_table);
  out += "quant:\n";
  append_words_i(out, quant);
}

}  // namespace

Workload make_jpeg_e(int scale) {
  const int blocks = 40 * scale;
  const std::vector<uint8_t> img = make_image(blocks);
  uint32_t checksum = 0;
  const std::vector<int32_t> coeffs = forward_blocks(img, blocks, checksum);
  for (int b = 0; b < blocks; ++b) {
    checksum += rle_checksum(&coeffs[static_cast<size_t>(b) * 64]);
  }

  std::string src;
  src += "        .data\n";
  append_tables_data(src);
  src += "zig:\n";
  append_words_i(src, std::vector<int32_t>(kZigzag.begin(), kZigzag.end()));
  src += "img:\n";
  append_bytes(src, img);
  src += "blk:    .space 256\n";   // centered input, int32
  src += "tmp:    .space 256\n";   // stage-1 output, int32
  src += "qblk:   .space 256\n";   // quantized coefficients, int32
  src += "        .text\n";
  src += "main:   la $s0, img\n";
  src += "        li $s6, " + std::to_string(blocks) + "\n";
  src += R"(        li $s7, 0             # checksum
block:
# center: blk[i] = img[i] - 128
        la $t0, blk
        li $t1, 64
center: lbu $t2, 0($s0)
        addiu $t2, $t2, -128
        sw $t2, 0($t0)
        addiu $s0, $s0, 1
        addiu $t0, $t0, 4
        addiu $t1, $t1, -1
        bnez $t1, center
# stage 1 (rows): tmp[y*8+u] = (sum_x cos[u*8+x] * blk[y*8+x]) >> 14
        la $s1, tmp           # output cursor (row-major y,u)
        li $s2, 0             # y
st1y:   li $s3, 0             # u
st1u:   la $t1, costab
        sll $t2, $s3, 5
        addu $t1, $t1, $t2    # cos row u
        la $t2, blk
        sll $t3, $s2, 5
        addu $t2, $t2, $t3    # blk row y
        li $t0, 0             # acc
        li $t3, 8
st1x:   lw $t4, 0($t1)
        lw $t5, 0($t2)
        mult $t4, $t5
        mflo $t6
        addu $t0, $t0, $t6
        addiu $t1, $t1, 4
        addiu $t2, $t2, 4
        addiu $t3, $t3, -1
        bnez $t3, st1x
        sra $t0, $t0, 14
        sw $t0, 0($s1)
        addiu $s1, $s1, 4
        addiu $s3, $s3, 1
        li $t4, 8
        bne $s3, $t4, st1u
        addiu $s2, $s2, 1
        li $t4, 8
        bne $s2, $t4, st1y
# stage 2 (columns) + quantization + checksum
        li $s2, 0             # u
st2u:   li $s3, 0             # v
st2v:   la $t1, costab
        sll $t2, $s3, 5
        addu $t1, $t1, $t2    # cos row v
        la $t2, tmp
        sll $t3, $s2, 2
        addu $t2, $t2, $t3    # tmp column u (stride 32)
        li $t0, 0
        li $t3, 8
st2y:   lw $t4, 0($t1)
        lw $t5, 0($t2)
        mult $t4, $t5
        mflo $t6
        addu $t0, $t0, $t6
        addiu $t1, $t1, 4
        addiu $t2, $t2, 32
        addiu $t3, $t3, -1
        bnez $t3, st2y
        sra $t0, $t0, 14      # coefficient
# q = coeff / quant[v*8+u]
        sll $t4, $s3, 3
        addu $t4, $t4, $s2    # idx = v*8+u
        la $t5, quant
        sll $t6, $t4, 2
        addu $t5, $t5, $t6
        lw $t5, 0($t5)
        div $t0, $t5
        mflo $t0
# store the quantized coefficient for the entropy pass
        la $t5, qblk
        sll $t6, $t4, 2
        addu $t5, $t5, $t6
        sw $t0, 0($t5)
        xor $t0, $t0, $t4
        addu $s7, $s7, $t0
        addiu $s3, $s3, 1
        li $t4, 8
        bne $s3, $t4, st2v
        addiu $s2, $s2, 1
        li $t4, 8
        bne $s2, $t4, st2u
# zigzag + run-length entropy pass over qblk
        la $t0, zig
        li $t1, 0             # i
        li $t2, 0             # current zero run
rle:    sll $t3, $t1, 2
        addu $t3, $t0, $t3
        lw $t3, 0($t3)        # zig[i]
        sll $t3, $t3, 2
        la $t4, qblk
        addu $t4, $t4, $t3
        lw $t4, 0($t4)        # coefficient
        bnez $t4, rletok
        addiu $t2, $t2, 1
        b rlenext
rletok: sll $t5, $t2, 8
        andi $t6, $t4, 0xFF
        xor $t5, $t5, $t6
        addu $t5, $t5, $t1
        addu $s7, $s7, $t5
        li $t2, 0
rlenext:
        addiu $t1, $t1, 1
        li $t3, 64
        bne $t1, $t3, rle
        addu $s7, $s7, $t2    # end-of-block marker carries the final run
        addiu $s6, $s6, -1
        bnez $s6, block
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "jpeg_e";
  w.display = "JPEG E.";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

Workload make_jpeg_d(int scale) {
  const int blocks = 40 * scale;
  const std::vector<uint8_t> img = make_image(blocks);
  uint32_t enc_checksum = 0;
  const std::vector<int32_t> coeffs = forward_blocks(img, blocks, enc_checksum);

  // Inline golden decode mirroring the assembly.
  uint32_t checksum = 0;
  for (int b = 0; b < blocks; ++b) {
    uint32_t deq[64];
    for (int i = 0; i < 64; ++i) {
      deq[i] = mullo(static_cast<uint32_t>(coeffs[static_cast<size_t>(b * 64 + i)]),
                     static_cast<uint32_t>(golden::kJpegQuant[static_cast<size_t>(i)]));
    }
    uint32_t tmp[64];
    for (int u = 0; u < 8; ++u) {
      for (int y = 0; y < 8; ++y) {
        uint32_t acc = 0;
        for (int v = 0; v < 8; ++v) {
          acc += mullo(static_cast<uint32_t>(golden::kDctCos14[static_cast<size_t>(v * 8 + y)]),
                       deq[v * 8 + u]);
        }
        tmp[y * 8 + u] = sra14(acc);
      }
    }
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 8; ++x) {
        uint32_t acc = 0;
        for (int u = 0; u < 8; ++u) {
          acc += mullo(static_cast<uint32_t>(golden::kDctCos14[static_cast<size_t>(u * 8 + x)]),
                       tmp[y * 8 + u]);
        }
        int32_t p = static_cast<int32_t>(sra14(acc)) + 128;
        if (p < 0) p = 0;
        if (p > 255) p = 255;
        checksum += static_cast<uint32_t>(p ^ (y * 8 + x));
      }
    }
  }

  std::string src;
  src += "        .data\n";
  append_tables_data(src);
  src += "coef:\n";
  append_words_i(src, coeffs);
  src += "deq:    .space 256\n";
  src += "tmp:    .space 256\n";
  src += "        .text\n";
  src += "main:   la $s0, coef\n";
  src += "        li $s6, " + std::to_string(blocks) + "\n";
  src += R"(        li $s7, 0             # checksum
block:
# dequantize: deq[i] = coef[i] * quant[i]
        la $t0, deq
        la $t1, quant
        li $t2, 64
deql:   lw $t3, 0($s0)
        lw $t4, 0($t1)
        mult $t3, $t4
        mflo $t3
        sw $t3, 0($t0)
        addiu $s0, $s0, 4
        addiu $t0, $t0, 4
        addiu $t1, $t1, 4
        addiu $t2, $t2, -1
        bnez $t2, deql
# stage 1: tmp[y*8+u] = (sum_v cos[v*8+y] * deq[v*8+u]) >> 14
        li $s2, 0             # u
is1u:   li $s3, 0             # y
is1y:   la $t1, costab
        sll $t2, $s3, 2
        addu $t1, $t1, $t2    # cos column y (stride 32)
        la $t2, deq
        sll $t3, $s2, 2
        addu $t2, $t2, $t3    # deq column u (stride 32)
        li $t0, 0
        li $t3, 8
is1v:   lw $t4, 0($t1)
        lw $t5, 0($t2)
        mult $t4, $t5
        mflo $t6
        addu $t0, $t0, $t6
        addiu $t1, $t1, 32
        addiu $t2, $t2, 32
        addiu $t3, $t3, -1
        bnez $t3, is1v
        sra $t0, $t0, 14
# tmp[y*8+u]
        sll $t4, $s3, 3
        addu $t4, $t4, $s2
        sll $t4, $t4, 2
        la $t5, tmp
        addu $t5, $t5, $t4
        sw $t0, 0($t5)
        addiu $s3, $s3, 1
        li $t4, 8
        bne $s3, $t4, is1y
        addiu $s2, $s2, 1
        li $t4, 8
        bne $s2, $t4, is1u
# stage 2: pixel[y*8+x] = clamp((sum_u cos[u*8+x] * tmp[y*8+u]) >> 14 + 128)
        li $s2, 0             # y
is2y:   li $s3, 0             # x
is2x:   la $t1, costab
        sll $t2, $s3, 2
        addu $t1, $t1, $t2    # cos column x (stride 32)
        la $t2, tmp
        sll $t3, $s2, 5
        addu $t2, $t2, $t3    # tmp row y (stride 4)
        li $t0, 0
        li $t3, 8
is2u:   lw $t4, 0($t1)
        lw $t5, 0($t2)
        mult $t4, $t5
        mflo $t6
        addu $t0, $t0, $t6
        addiu $t1, $t1, 32
        addiu $t2, $t2, 4
        addiu $t3, $t3, -1
        bnez $t3, is2u
        sra $t0, $t0, 14
        addiu $t0, $t0, 128
        bgez $t0, icl1
        li $t0, 0
icl1:   li $t4, 255
        ble $t0, $t4, icl2
        move $t0, $t4
icl2:   sll $t4, $s2, 3
        addu $t4, $t4, $s3    # idx = y*8+x
        xor $t0, $t0, $t4
        addu $s7, $s7, $t0
        addiu $s3, $s3, 1
        li $t4, 8
        bne $s3, $t4, is2x
        addiu $s2, $s2, 1
        li $t4, 8
        bne $s2, $t4, is2y
        addiu $s6, $s6, -1
        bnez $s6, block
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "jpeg_d";
  w.display = "JPEG D.";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
