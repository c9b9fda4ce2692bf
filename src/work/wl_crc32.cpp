// CRC32 (MiBench telecomm/CRC32): table-driven CRC-32 over a byte buffer.
// A tiny, hot inner loop — the paper's example of a kernel-dominated
// benchmark ("just 3 basic blocks are responsible for almost 100% of all
// the program execution time").
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_crc32(int scale) {
  const int n = 12288 * scale;
  uint32_t seed = 0xC0FFEE01u;
  std::vector<uint8_t> data(static_cast<size_t>(n));
  for (auto& b : data) b = static_cast<uint8_t>(golden::lcg(seed) >> 24);

  const uint32_t crc = golden::crc32(data);

  std::string src;
  src += "        .data\n";
  src += "table:\n";
  append_words(src, golden::crc32_table());
  src += "data:\n";
  append_bytes(src, data);
  src += "        .text\n";
  src += "main:   la $s0, table\n";
  src += "        la $s1, data\n";
  src += "        li $s2, " + std::to_string(n) + "\n";
  src += R"(        li $s3, -1            # crc = 0xFFFFFFFF
loop:   lbu $t0, 0($s1)
        xor $t1, $s3, $t0
        andi $t1, $t1, 0xFF
        sll $t1, $t1, 2
        addu $t1, $s0, $t1
        lw $t2, 0($t1)
        srl $t3, $s3, 8
        xor $s3, $t2, $t3
        addiu $s1, $s1, 1
        addiu $s2, $s2, -1
        bnez $s2, loop
        nor $a0, $s3, $zero   # final xor with 0xFFFFFFFF
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "crc32";
  w.display = "CRC";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(crc));
  return w;
}

}  // namespace dim::work
