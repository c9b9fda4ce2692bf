// Quicksort (MiBench automotive/qsort_large): sorts 3-D vectors by squared
// magnitude — a multiplier-heavy precompute pass followed by an iterative
// quicksort (explicit work stack, Lomuto partition). The sort itself is
// control-flow dominated, exactly why the paper lists it in the
// control-flow group.
#include <algorithm>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_quicksort(int scale) {
  const int n = 1500 * scale;
  uint32_t seed = 0x50AE7123u;
  std::vector<int16_t> xs(static_cast<size_t>(n)), ys(static_cast<size_t>(n)),
      zs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<size_t>(i)] = static_cast<int16_t>(golden::lcg(seed) % 4096);
    ys[static_cast<size_t>(i)] = static_cast<int16_t>(golden::lcg(seed) % 4096);
    zs[static_cast<size_t>(i)] = static_cast<int16_t>(golden::lcg(seed) % 4096);
  }

  // Golden: magnitudes, sort, position-mixed checksum.
  std::vector<uint32_t> mags(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int32_t x = xs[static_cast<size_t>(i)];
    const int32_t y = ys[static_cast<size_t>(i)];
    const int32_t z = zs[static_cast<size_t>(i)];
    mags[static_cast<size_t>(i)] = static_cast<uint32_t>(x * x + y * y + z * z);
  }
  std::vector<uint32_t> sorted = mags;
  std::sort(sorted.begin(), sorted.end());
  uint32_t checksum = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    checksum += sorted[i] ^ static_cast<uint32_t>(i);
  }

  std::string src;
  src += "        .data\n";
  src += "xs:\n";
  append_halfs(src, xs);
  src += "ys:\n";
  append_halfs(src, ys);
  src += "zs:\n";
  append_halfs(src, zs);
  src += "        .align 2\n";
  src += "arr:    .space " + std::to_string(4 * n) + "\n";
  src += "stack:  .space " + std::to_string(8 * (n + 4)) + "\n";
  src += "        .text\n";
  src += "main:\n";
  src += "# ---- magnitude precompute: arr[i] = x^2 + y^2 + z^2 ----\n";
  src += "        la $t0, xs\n";
  src += "        la $t1, ys\n";
  src += "        la $t2, zs\n";
  src += "        la $t3, arr\n";
  src += "        li $t4, " + std::to_string(n) + "\n";
  src += R"(pre:    lh $t5, 0($t0)
        mult $t5, $t5
        mflo $t6
        lh $t5, 0($t1)
        mult $t5, $t5
        mflo $t7
        addu $t6, $t6, $t7
        lh $t5, 0($t2)
        mult $t5, $t5
        mflo $t7
        addu $t6, $t6, $t7
        sw $t6, 0($t3)
        addiu $t0, $t0, 2
        addiu $t1, $t1, 2
        addiu $t2, $t2, 2
        addiu $t3, $t3, 4
        addiu $t4, $t4, -1
        bnez $t4, pre
# ---- iterative quicksort over arr ----
        la $s0, arr
        la $s1, stack         # work-stack pointer (grows up)
        li $t0, 0
)";
  src += "        li $t1, " + std::to_string(n - 1) + "\n";
  src += R"(        sw $t0, 0($s1)        # push (lo=0, hi=n-1)
        sw $t1, 4($s1)
        addiu $s1, $s1, 8
        la $s2, stack
qloop:  beq $s1, $s2, qdone   # stack empty?
        addiu $s1, $s1, -8
        lw $s3, 0($s1)        # lo
        lw $s4, 4($s1)        # hi
        slt $t0, $s3, $s4
        beqz $t0, qloop       # skip ranges of size <= 1
# Lomuto partition, pivot = arr[hi]
        sll $t0, $s4, 2
        addu $t0, $s0, $t0
        lw $s5, 0($t0)        # pivot value
        addiu $s6, $s3, -1    # i = lo - 1
        move $s7, $s3         # j = lo
part:   bge $s7, $s4, partend
        sll $t0, $s7, 2
        addu $t0, $s0, $t0
        lw $t1, 0($t0)        # arr[j]
        bgtu $t1, $s5, noswap
        addiu $s6, $s6, 1     # ++i
        sll $t2, $s6, 2
        addu $t2, $s0, $t2
        lw $t3, 0($t2)        # arr[i]
        sw $t1, 0($t2)        # swap arr[i], arr[j]
        sw $t3, 0($t0)
noswap: addiu $s7, $s7, 1
        b part
partend:
        addiu $s6, $s6, 1     # p = i + 1
        sll $t0, $s6, 2
        addu $t0, $s0, $t0
        lw $t1, 0($t0)        # arr[p]
        sll $t2, $s4, 2
        addu $t2, $s0, $t2
        lw $t3, 0($t2)        # arr[hi]
        sw $t3, 0($t0)        # swap arr[p], arr[hi]
        sw $t1, 0($t2)
# push (lo, p-1) and (p+1, hi)
        addiu $t0, $s6, -1
        sw $s3, 0($s1)
        sw $t0, 4($s1)
        addiu $s1, $s1, 8
        addiu $t0, $s6, 1
        sw $t0, 0($s1)
        sw $s4, 4($s1)
        addiu $s1, $s1, 8
        b qloop
qdone:
# checksum = sum over i of arr[i] ^ i
        li $s3, 0             # i
)";
  src += "        li $s4, " + std::to_string(n) + "\n";
  src += R"(        li $s5, 0             # checksum
chk:    sll $t0, $s3, 2
        addu $t0, $s0, $t0
        lw $t1, 0($t0)
        xor $t1, $t1, $s3
        addu $s5, $s5, $t1
        addiu $s3, $s3, 1
        bne $s3, $s4, chk
        move $a0, $s5
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "quicksort";
  w.display = "Quicksort";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
