// SHA (MiBench security/sha): full SHA-1 of an arbitrary-length byte
// stream — big-endian word packing, standard 0x80+zeros+length padding, and
// the 80-round compression, all in assembly. The round loops are long ALU
// dependence chains — huge basic blocks, which is why SHA benefits so
// strongly from speculation in the paper.
#include <cstdio>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

// Reference SHA-1 with standard padding (golden::sha1_blocks handles whole
// blocks; the kernel performs real padding, so mirror it here).
std::array<uint32_t, 5> sha1_full(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> padded = data;
  const uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bit_len >> (8 * i)));
  return golden::sha1_blocks(padded);
}

// Emits the next-padded-byte sequence into $t2:
//   data byte while $s6 > 0; else 0x80 once ($v1: 0 -> 1); else 0.
std::string emit_next_byte(const std::string& suffix) {
  std::string s;
  s += "gb" + suffix + ":  beqz $s6, gp" + suffix + "\n";
  s += R"(        lbu $t2, 0($s0)
        addiu $s0, $s0, 1
        addiu $s6, $s6, -1
)";
  s += "        b gs" + suffix + "\n";
  s += "gp" + suffix + ":  bnez $v1, gz" + suffix + "\n";
  s += R"(        li $t2, 0x80
        li $v1, 1
)";
  s += "        b gs" + suffix + "\n";
  s += "gz" + suffix + ":  li $t2, 0\n";
  s += "gs" + suffix + ":\n";
  return s;
}

}  // namespace

Workload make_sha(int scale) {
  // Deliberately not a multiple of 64 so the padding path is exercised.
  const int nbytes = 6000 * scale + 37;
  uint32_t seed = 0x5AA17709u;
  std::vector<uint8_t> data(static_cast<size_t>(nbytes));
  for (auto& b : data) b = static_cast<uint8_t>(golden::lcg(seed) >> 16);

  const auto h = sha1_full(data);
  const uint32_t checksum = h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4];
  const uint32_t bit_len = static_cast<uint32_t>(nbytes) * 8;

  std::string src;
  src += "        .data\n";
  src += "msg:\n";
  append_bytes(src, data);
  src += "        .align 2\n";
  src += "blk:    .space 64\n";   // staging for the current (padded) block
  src += "wbuf:   .space 320\n";  // W[0..79]
  src += "        .text\n";
  src += "main:   la $s0, msg\n";
  src += "        li $s6, " + std::to_string(nbytes) + "   # bytes remaining\n";
  src += R"(        li $s1, 0x67452301    # h0..h4
        li $s2, 0xEFCDAB89
        lui $s3, 0x98BA
        ori $s3, $s3, 0xDCFE
        li $s4, 0x10325476
        lui $s5, 0xC3D2
        ori $s5, $s5, 0xE1F0
        li $v1, 0             # padding phase: 0=data, 1=0x80 emitted, 2=length written
# ---- assemble the next 64-byte block into blk ----
nextblk:
        la $t0, blk
        li $t1, 56            # bytes 0..55: data / 0x80 / zeros
fill56:
)";
  src += emit_next_byte("a");
  src += R"(        sb $t2, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, -1
        bnez $t1, fill56
# bytes 56..63: the big-endian bit length, if all payload and the 0x80
# marker have been emitted; otherwise 8 more data/pad bytes.
        bnez $s6, tailfill
        li $t2, 1
        bne $v1, $t2, tailfill
        sb $zero, 0($t0)      # high word of the 64-bit length is zero
        sb $zero, 1($t0)
        sb $zero, 2($t0)
        sb $zero, 3($t0)
)";
  src += "        li $t3, " + std::to_string(bit_len) + "\n";
  src += R"(        srl $t4, $t3, 24
        sb $t4, 4($t0)
        srl $t4, $t3, 16
        sb $t4, 5($t0)
        srl $t4, $t3, 8
        sb $t4, 6($t0)
        sb $t3, 7($t0)
        li $v1, 2
        b compress
tailfill:
        li $t1, 8
fill8:
)";
  src += emit_next_byte("b");
  src += R"(        sb $t2, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, -1
        bnez $t1, fill8
compress:
# W[0..15]: pack big-endian words from blk
        la $t8, wbuf
        la $t0, blk
        li $t7, 16
wpack:  lbu $t1, 0($t0)
        lbu $t2, 1($t0)
        lbu $t3, 2($t0)
        lbu $t4, 3($t0)
        sll $t1, $t1, 24
        sll $t2, $t2, 16
        sll $t3, $t3, 8
        or $t1, $t1, $t2
        or $t1, $t1, $t3
        or $t1, $t1, $t4
        sw $t1, 0($t8)
        addiu $t0, $t0, 4
        addiu $t8, $t8, 4
        addiu $t7, $t7, -1
        bnez $t7, wpack
# W[16..79] = rotl1(W[i-3] ^ W[i-8] ^ W[i-14] ^ W[i-16])
        li $t7, 64
wexp:   lw $t0, -12($t8)
        lw $t1, -32($t8)
        xor $t0, $t0, $t1
        lw $t1, -56($t8)
        xor $t0, $t0, $t1
        lw $t1, -64($t8)
        xor $t0, $t0, $t1
        sll $t1, $t0, 1
        srl $t0, $t0, 31
        or $t0, $t0, $t1
        sw $t0, 0($t8)
        addiu $t8, $t8, 4
        addiu $t7, $t7, -1
        bnez $t7, wexp
# round variables: a=$a0 b=$a1 c=$a2 d=$a3 e=$t6
        move $a0, $s1
        move $a1, $s2
        move $a2, $s3
        move $a3, $s4
        move $t6, $s5
        la $t8, wbuf
)";
  const struct Phase {
    const char* label;
    const char* kind;  // "choice", "xor", "maj"
    uint32_t k;
  } phases[4] = {{"r1", "choice", 0x5A827999u},
                 {"r2", "xor", 0x6ED9EBA1u},
                 {"r3", "maj", 0x8F1BBCDCu},
                 {"r4", "xor", 0xCA62C1D6u}};
  for (const Phase& ph : phases) {
    char kbuf[48];
    std::snprintf(kbuf, sizeof kbuf, "        li $t9, 0x%08X\n", ph.k);
    src += "        li $t7, 20\n";
    src += kbuf;
    src += std::string(ph.label) + ":\n";
    if (std::string(ph.kind) == "choice") {
      src += "        and $t0, $a1, $a2\n"
             "        nor $t1, $a1, $zero\n"
             "        and $t1, $t1, $a3\n"
             "        or $t0, $t0, $t1\n";
    } else if (std::string(ph.kind) == "maj") {
      src += "        and $t0, $a1, $a2\n"
             "        and $t1, $a1, $a3\n"
             "        or $t0, $t0, $t1\n"
             "        and $t1, $a2, $a3\n"
             "        or $t0, $t0, $t1\n";
    } else {
      src += "        xor $t0, $a1, $a2\n"
             "        xor $t0, $t0, $a3\n";
    }
    src += R"(        sll $t1, $a0, 5
        srl $t2, $a0, 27
        or $t1, $t1, $t2
        addu $t0, $t0, $t1
        addu $t0, $t0, $t6
        addu $t0, $t0, $t9
        lw $t1, 0($t8)
        addu $t0, $t0, $t1
        move $t6, $a3
        move $a3, $a2
        sll $t1, $a1, 30
        srl $t2, $a1, 2
        or $a2, $t1, $t2
        move $a1, $a0
        move $a0, $t0
        addiu $t8, $t8, 4
        addiu $t7, $t7, -1
)";
    src += std::string("        bnez $t7, ") + ph.label + "\n";
  }
  src += R"(        addu $s1, $s1, $a0
        addu $s2, $s2, $a1
        addu $s3, $s3, $a2
        addu $s4, $s4, $a3
        addu $s5, $s5, $t6
# continue until the length field has been emitted
        li $t0, 2
        bne $v1, $t0, nextblk
# ---- checksum = h0^h1^h2^h3^h4 ----
        xor $a0, $s1, $s2
        xor $a0, $a0, $s3
        xor $a0, $a0, $s4
        xor $a0, $a0, $s5
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "sha";
  w.display = "SHA";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
