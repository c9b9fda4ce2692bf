// Bitcount (MiBench automotive/bitcount): counts set bits with three
// different methods (shift-and-mask loop, Kernighan's trick, nibble table),
// exactly like the original benchmark exercises multiple counters.
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_bitcount(int scale) {
  const int n = 3000 * scale;
  uint32_t seed = 0xB17C0017u;
  std::vector<uint32_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = golden::lcg(seed);

  // Golden: three methods over the same data (each counts every word).
  uint64_t total = 0;
  for (uint32_t v : data) {
    int c1 = 0;
    for (uint32_t x = v; x != 0; x >>= 1) c1 += static_cast<int>(x & 1);
    int c2 = 0;
    for (uint32_t x = v; x != 0; x &= x - 1) ++c2;
    int c3 = 0;
    for (uint32_t x = v, k = 0; k < 8; ++k, x >>= 4) {
      c3 += static_cast<int>((0x4332322132212110ull >> ((x & 0xF) * 4)) & 0xF);
    }
    total += static_cast<uint64_t>(c1 + c2 + c3);
  }

  std::vector<uint32_t> nibble_table = {0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4};

  std::string src;
  src += "        .data\n";
  src += "nibtab:\n";
  append_words(src, nibble_table);
  src += "data:\n";
  append_words(src, data);
  src += "        .text\n";
  src += "main:   li $s7, 0             # total\n";
  src += "        la $s0, data\n";
  src += "        li $s1, " + std::to_string(n) + "\n";
  src += R"(# --- method 1: shift-and-mask -------------------------------------------
m1out:  lw $t0, 0($s0)
        li $t1, 0
        beqz $t0, m1next
m1bit:  andi $t2, $t0, 1
        addu $t1, $t1, $t2
        srl $t0, $t0, 1
        bnez $t0, m1bit
m1next: addu $s7, $s7, $t1
        addiu $s0, $s0, 4
        addiu $s1, $s1, -1
        bnez $s1, m1out
# --- method 2: Kernighan ---------------------------------------------------
        la $s0, data
)";
  src += "        li $s1, " + std::to_string(n) + "\n";
  src += R"(m2out:  lw $t0, 0($s0)
        li $t1, 0
        beqz $t0, m2next
m2bit:  addiu $t2, $t0, -1
        and $t0, $t0, $t2
        addiu $t1, $t1, 1
        bnez $t0, m2bit
m2next: addu $s7, $s7, $t1
        addiu $s0, $s0, 4
        addiu $s1, $s1, -1
        bnez $s1, m2out
# --- method 3: nibble table (unrolled over the 8 nibbles) ------------------
        la $s0, data
)";
  src += "        li $s1, " + std::to_string(n) + "\n";
  src += R"(        la $s2, nibtab
m3out:  lw $t0, 0($s0)
        li $t1, 0
        li $t3, 8
m3nib:  andi $t2, $t0, 15
        sll $t2, $t2, 2
        addu $t2, $s2, $t2
        lw $t2, 0($t2)
        addu $t1, $t1, $t2
        srl $t0, $t0, 4
        addiu $t3, $t3, -1
        bnez $t3, m3nib
        addu $s7, $s7, $t1
        addiu $s0, $s0, 4
        addiu $s1, $s1, -1
        bnez $s1, m3out
# --- done -------------------------------------------------------------------
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "bitcount";
  w.display = "Bitcount";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(total));
  return w;
}

}  // namespace dim::work
