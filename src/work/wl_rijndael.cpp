// Rijndael (MiBench security/rijndael): AES-128 ECB encryption/decryption.
// Enormous straight-line basic blocks (unrolled MixColumns / InvMixColumns)
// — the paper's most dataflow-oriented benchmark pair.
#include <algorithm>
#include <array>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

constexpr std::array<uint8_t, 16> kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                          0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                          0x09, 0xcf, 0x4f, 0x3c};

std::vector<uint32_t> pack_le(const std::vector<uint8_t>& bytes) {
  std::vector<uint32_t> words(bytes.size() / 4);
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<uint32_t>(bytes[4 * i]) |
               (static_cast<uint32_t>(bytes[4 * i + 1]) << 8) |
               (static_cast<uint32_t>(bytes[4 * i + 2]) << 16) |
               (static_cast<uint32_t>(bytes[4 * i + 3]) << 24);
  }
  return words;
}

std::vector<uint8_t> make_plaintext(int blocks) {
  std::vector<uint8_t> pt(static_cast<size_t>(blocks) * 16);
  uint32_t seed = 0xAE5C8D11u;
  for (auto& b : pt) b = static_cast<uint8_t>(golden::lcg(seed) >> 8);
  return pt;
}

uint32_t rotl1(uint32_t v) { return (v << 1) | (v >> 31); }

uint32_t state_checksum(uint32_t chk, const std::array<uint8_t, 16>& block) {
  const std::vector<uint8_t> bytes(block.begin(), block.end());
  for (uint32_t w : pack_le(bytes)) chk = rotl1(chk) ^ w;
  return chk;
}

// Combined SubBytes+ShiftRows source map: new[r+4c] = old[r+4((c+r)%4)].
std::vector<uint8_t> enc_map() {
  std::vector<uint8_t> map(16);
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r)
      map[static_cast<size_t>(r + 4 * c)] = static_cast<uint8_t>(r + 4 * ((c + r) % 4));
  return map;
}

// Combined InvShiftRows source map: new[r+4c] = old[r+4((c-r+4)%4)].
std::vector<uint8_t> dec_map() {
  std::vector<uint8_t> map(16);
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r)
      map[static_cast<size_t>(r + 4 * c)] = static_cast<uint8_t>(r + 4 * ((c - r + 4) % 4));
  return map;
}

// Emits xtime($dst <- $src): dst = ((src << 1) ^ (((src >> 7) & 1) * 0x1B)) & 0xFF.
std::string emit_xtime(const std::string& dst, const std::string& src,
                       const std::string& tmp) {
  std::string out;
  out += "        srl " + tmp + ", " + src + ", 7\n";
  out += "        subu " + tmp + ", $zero, " + tmp + "\n";
  out += "        andi " + tmp + ", " + tmp + ", 0x1B\n";
  out += "        sll " + dst + ", " + src + ", 1\n";
  out += "        xor " + dst + ", " + dst + ", " + tmp + "\n";
  out += "        andi " + dst + ", " + dst + ", 0xFF\n";
  return out;
}

// MixColumns over all 4 columns, reading bytes from tb ($s5) and writing to
// st ($s4). Fully unrolled.
std::string emit_mixcolumns() {
  std::string out;
  for (int c = 0; c < 4; ++c) {
    const std::string base = std::to_string(4 * c);
    // Load a0..a3 into $t0..$t3.
    for (int j = 0; j < 4; ++j) {
      out += "        lbu $t" + std::to_string(j) + ", " + std::to_string(4 * c + j) +
             "($s5)\n";
    }
    // xt(a0..a3) into $t4..$t7.
    for (int j = 0; j < 4; ++j) {
      out += emit_xtime("$t" + std::to_string(4 + j), "$t" + std::to_string(j), "$t8");
    }
    // out0 = xt0 ^ xt1 ^ a1 ^ a2 ^ a3
    out += "        xor $t9, $t4, $t5\n";
    out += "        xor $t9, $t9, $t1\n";
    out += "        xor $t9, $t9, $t2\n";
    out += "        xor $t9, $t9, $t3\n";
    out += "        sb $t9, " + base + "($s4)\n";
    // out1 = a0 ^ xt1 ^ xt2 ^ a2 ^ a3
    out += "        xor $t9, $t0, $t5\n";
    out += "        xor $t9, $t9, $t6\n";
    out += "        xor $t9, $t9, $t2\n";
    out += "        xor $t9, $t9, $t3\n";
    out += "        sb $t9, " + std::to_string(4 * c + 1) + "($s4)\n";
    // out2 = a0 ^ a1 ^ xt2 ^ xt3 ^ a3
    out += "        xor $t9, $t0, $t1\n";
    out += "        xor $t9, $t9, $t6\n";
    out += "        xor $t9, $t9, $t7\n";
    out += "        xor $t9, $t9, $t3\n";
    out += "        sb $t9, " + std::to_string(4 * c + 2) + "($s4)\n";
    // out3 = xt0 ^ a0 ^ a1 ^ a2 ^ xt3
    out += "        xor $t9, $t4, $t0\n";
    out += "        xor $t9, $t9, $t1\n";
    out += "        xor $t9, $t9, $t2\n";
    out += "        xor $t9, $t9, $t7\n";
    out += "        sb $t9, " + std::to_string(4 * c + 3) + "($s4)\n";
  }
  return out;
}

// InvMixColumns over all 4 columns of st ($s4), in place. Accumulators
// out0..out3 live in $v0,$v1,$a1,$a2.
std::string emit_inv_mixcolumns() {
  std::string out;
  const char* outs[4] = {"$v0", "$v1", "$a1", "$a2"};
  // Contribution matrix: out[i] ^= m[i][j] * a_j with
  // m = [[14,11,13,9],[9,14,11,13],[13,9,14,11],[11,13,9,14]].
  const int m[4][4] = {{14, 11, 13, 9}, {9, 14, 11, 13}, {13, 9, 14, 11}, {11, 13, 9, 14}};
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 4; ++i) out += std::string("        li ") + outs[i] + ", 0\n";
    for (int j = 0; j < 4; ++j) {
      out += "        lbu $t0, " + std::to_string(4 * c + j) + "($s4)\n";  // a
      out += emit_xtime("$t1", "$t0", "$t8");                              // x2
      out += emit_xtime("$t2", "$t1", "$t8");                              // x4
      out += emit_xtime("$t3", "$t2", "$t8");                              // x8
      out += "        xor $t4, $t3, $t0\n";   // a9  = x8 ^ a
      out += "        xor $t5, $t4, $t1\n";   // a11 = a9 ^ x2
      out += "        xor $t6, $t4, $t2\n";   // a13 = a9 ^ x4
      out += "        xor $t7, $t6, $t0\n";
      out += "        xor $t7, $t7, $t1\n";   // a14 = a13 ^ a ^ x2
      for (int i = 0; i < 4; ++i) {
        const char* product = m[i][j] == 9    ? "$t4"
                              : m[i][j] == 11 ? "$t5"
                              : m[i][j] == 13 ? "$t6"
                                              : "$t7";
        out += std::string("        xor ") + outs[i] + ", " + outs[i] + ", " + product + "\n";
      }
    }
    for (int i = 0; i < 4; ++i) {
      out += std::string("        sb ") + outs[i] + ", " + std::to_string(4 * c + i) +
             "($s4)\n";
    }
  }
  return out;
}

// SubBytes(+ShiftRows) via a source-index map: tb[i] = sbox[st[map[i]]].
// Map base label passed in; sbox base in $s6.
std::string emit_subshift(const std::string& map_label) {
  std::string out;
  out += "        la $t0, " + map_label + "\n";
  out += R"(        move $t1, $s5
        li $t5, 16
ssl\L:  lbu $t2, 0($t0)
        addu $t3, $s4, $t2
        lbu $t3, 0($t3)
        addu $t3, $s6, $t3
        lbu $t3, 0($t3)
        sb $t3, 0($t1)
        addiu $t0, $t0, 1
        addiu $t1, $t1, 1
        addiu $t5, $t5, -1
        bnez $t5, ssl\L
)";
  return out;
}

std::string subst_label(std::string text, const std::string& suffix) {
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t hit = text.find("\\L", pos);
    if (hit == std::string::npos) {
      out += text.substr(pos);
      return out;
    }
    out += text.substr(pos, hit - pos);
    out += suffix;
    pos = hit + 2;
  }
}

// AddRoundKey: st ^= rk[round], rk byte offset passed as label+offset via a
// pointer in $t0 (already set). 4 word xors.
std::string emit_addkey_words() {
  std::string out;
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    out += "        lw $t1, " + off + "($s4)\n";
    out += "        lw $t2, " + off + "($t0)\n";
    out += "        xor $t1, $t1, $t2\n";
    out += "        sw $t1, " + off + "($s4)\n";
  }
  return out;
}

std::string common_data(const std::vector<uint8_t>& text_bytes, bool decrypt) {
  const golden::Aes128 aes(kKey);
  std::vector<uint8_t> rk(aes.round_keys.begin(), aes.round_keys.end());
  std::string out;
  out += "        .data\n";
  const std::array<uint8_t, 256>& sbox = decrypt ? golden::kAesInvSbox : golden::kAesSbox;
  out += "sbox:\n";
  append_bytes(out, std::vector<uint8_t>(sbox.begin(), sbox.end()));
  out += "map:\n";
  append_bytes(out, decrypt ? dec_map() : enc_map());
  out += "rk:\n";
  append_words(out, pack_le(rk));
  out += "input:\n";
  append_words(out, pack_le(text_bytes));
  out += "st:     .space 16\n";
  out += "tb:     .space 16\n";
  return out;
}

}  // namespace

Workload make_rijndael_e(int scale) {
  const int blocks = 48 * scale;
  const std::vector<uint8_t> pt = make_plaintext(blocks);
  const golden::Aes128 aes(kKey);

  uint32_t checksum = 0;
  for (int b = 0; b < blocks; ++b) {
    std::array<uint8_t, 16> block;
    std::copy_n(pt.begin() + 16 * b, 16, block.begin());
    checksum = state_checksum(checksum, aes.encrypt(block));
  }

  std::string src = common_data(pt, false);
  src += "        .text\n";
  src += "main:   la $s0, input\n";
  src += "        li $s1, " + std::to_string(blocks) + "\n";
  src += R"(        la $s4, st
        la $s5, tb
        la $s6, sbox
        li $s7, 0             # checksum
eblk:
# load block ^ rk0 into st
        la $t0, rk
)";
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    src += "        lw $t1, " + off + "($s0)\n";
    src += "        lw $t2, " + off + "($t0)\n";
    src += "        xor $t1, $t1, $t2\n";
    src += "        sw $t1, " + off + "($s4)\n";
  }
  src += R"(        addiu $s0, $s0, 16
        li $s2, 1             # round
erloop:
)";
  src += subst_label(emit_subshift("map"), "e");
  src += R"(        li $t4, 10
        beq $s2, $t4, elast
)";
  src += emit_mixcolumns();
  src += R"(# AddRoundKey(round)
        la $t0, rk
        sll $t1, $s2, 4
        addu $t0, $t0, $t1
)";
  src += emit_addkey_words();
  src += R"(        addiu $s2, $s2, 1
        b erloop
elast:
# final round: st = tb ^ rk10
        la $t0, rk
        addiu $t0, $t0, 160
)";
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    src += "        lw $t1, " + off + "($s5)\n";
    src += "        lw $t2, " + off + "($t0)\n";
    src += "        xor $t1, $t1, $t2\n";
    src += "        sw $t1, " + off + "($s4)\n";
  }
  src += R"(# checksum: chk = rotl1(chk) ^ word, over the 4 state words
)";
  for (int wdx = 0; wdx < 4; ++wdx) {
    src += "        sll $t1, $s7, 1\n";
    src += "        srl $t2, $s7, 31\n";
    src += "        or $s7, $t1, $t2\n";
    src += "        lw $t1, " + std::to_string(4 * wdx) + "($s4)\n";
    src += "        xor $s7, $s7, $t1\n";
  }
  src += R"(        addiu $s1, $s1, -1
        bnez $s1, eblk
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "rijndael_e";
  w.display = "Rijndael E.";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

Workload make_rijndael_d(int scale) {
  const int blocks = 36 * scale;
  const std::vector<uint8_t> pt = make_plaintext(blocks);
  const golden::Aes128 aes(kKey);

  // Ciphertext is the kernel input; the kernel decrypts it back.
  std::vector<uint8_t> ct(static_cast<size_t>(blocks) * 16);
  uint32_t checksum = 0;
  for (int b = 0; b < blocks; ++b) {
    std::array<uint8_t, 16> block;
    std::copy_n(pt.begin() + 16 * b, 16, block.begin());
    const auto enc = aes.encrypt(block);
    std::copy(enc.begin(), enc.end(), ct.begin() + 16 * b);
    checksum = state_checksum(checksum, aes.decrypt(enc));
  }

  std::string src = common_data(ct, true);
  src += "        .text\n";
  src += "main:   la $s0, input\n";
  src += "        li $s1, " + std::to_string(blocks) + "\n";
  src += R"(        la $s4, st
        la $s5, tb
        la $s6, sbox
        li $s7, 0
dblk:
# load block ^ rk10 into st
        la $t0, rk
        addiu $t0, $t0, 160
)";
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    src += "        lw $t1, " + off + "($s0)\n";
    src += "        lw $t2, " + off + "($t0)\n";
    src += "        xor $t1, $t1, $t2\n";
    src += "        sw $t1, " + off + "($s4)\n";
  }
  src += R"(        addiu $s0, $s0, 16
        li $s2, 9             # round
drloop:
)";
  // InvShiftRows + InvSubBytes: tb = invsbox[st[map]], then st = tb ^ rk[round].
  src += subst_label(emit_subshift("map"), "d");
  src += R"(        la $t0, rk
        sll $t1, $s2, 4
        addu $t0, $t0, $t1
)";
  // st = tb ^ rk[round]
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    src += "        lw $t1, " + off + "($s5)\n";
    src += "        lw $t2, " + off + "($t0)\n";
    src += "        xor $t1, $t1, $t2\n";
    src += "        sw $t1, " + off + "($s4)\n";
  }
  src += emit_inv_mixcolumns();
  src += R"(        addiu $s2, $s2, -1
        bnez $s2, drloop
# final: tb = invsbox[st[map]]; st = tb ^ rk0
)";
  src += subst_label(emit_subshift("map"), "f");
  src += "        la $t0, rk\n";
  for (int wdx = 0; wdx < 4; ++wdx) {
    const std::string off = std::to_string(4 * wdx);
    src += "        lw $t1, " + off + "($s5)\n";
    src += "        lw $t2, " + off + "($t0)\n";
    src += "        xor $t1, $t1, $t2\n";
    src += "        sw $t1, " + off + "($s4)\n";
  }
  for (int wdx = 0; wdx < 4; ++wdx) {
    src += "        sll $t1, $s7, 1\n";
    src += "        srl $t2, $s7, 31\n";
    src += "        or $s7, $t1, $t2\n";
    src += "        lw $t1, " + std::to_string(4 * wdx) + "($s4)\n";
    src += "        xor $s7, $s7, $t1\n";
  }
  src += R"(        addiu $s1, $s1, -1
        bnez $s1, dblk
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "rijndael_d";
  w.display = "Rijndael D.";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
