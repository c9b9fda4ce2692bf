// Patricia (MiBench network/patricia): radix-trie insert and lookup over
// 16-bit keys (routing-table style). Pointer chasing with a branch per
// bit — no hot kernel, many small basic blocks.
#include <algorithm>
#include <bit>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_patricia(int scale) {
  const int inserts = 900 * scale;
  const int lookups = 1800 * scale;
  uint32_t seed = 0x9A721C1Au;

  std::vector<uint32_t> keys(static_cast<size_t>(inserts));
  for (auto& k : keys) k = golden::lcg(seed) & 0xFFFF;

  std::vector<uint32_t> queries(static_cast<size_t>(lookups));
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % 2 == 0) {
      queries[i] = keys[(golden::lcg(seed) % keys.size())];
    } else {
      queries[i] = golden::lcg(seed) & 0xFFFF;
    }
  }

  // The distinct keys, sorted: one lower_bound per query finds both its
  // membership (hits) and its sorted neighbours.
  std::vector<uint32_t> present(keys);
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());

  // Longest-prefix-match pass (the routing-table lookup patricia exists
  // for): for each query, the depth of the deepest trie node on its path,
  // i.e. its longest common prefix with any key of the node-per-bit trie
  // the kernel builds. For fixed-width keys in sorted order that maximum is
  // reached at the query's sorted neighbours: lower_bound and the key
  // before it.
  auto common_bits = [](uint32_t a, uint32_t b) {
    return static_cast<uint32_t>(std::countl_zero(static_cast<uint16_t>(a ^ b)));
  };
  uint32_t hits = 0;
  uint32_t lpm_sum = 0;
  for (uint32_t q : queries) {
    uint32_t depth = 0;
    const auto next = std::lower_bound(present.begin(), present.end(), q);
    if (next != present.end()) {
      hits += *next == q ? 1 : 0;
      depth = common_bits(q, *next);
    }
    if (next != present.begin()) depth = std::max(depth, common_bits(q, next[-1]));
    lpm_sum += depth;
  }
  const uint32_t combined = hits + 17u * lpm_sum;

  // Node layout: [0]=left, [4]=right, [8]=key, [12]=valid — 16 bytes,
  // bump-allocated from the zero-initialized pool.
  const int pool_bytes = 16 * (16 * inserts + 2);

  std::string src;
  src += "        .data\n";
  src += "keys:\n";
  append_words(src, keys);
  src += "qrys:\n";
  append_words(src, queries);
  src += "pool:   .space " + std::to_string(pool_bytes) + "\n";
  src += "        .text\n";
  src += "main:   la $s0, pool          # root node\n";
  src += "        la $s1, pool\n";
  src += "        addiu $s1, $s1, 16    # bump allocator pointer\n";
  src += "        la $s2, keys\n";
  src += "        li $s3, " + std::to_string(inserts) + "\n";
  src += R"(# ---- insert phase ----
ins:    lw $t0, 0($s2)        # key
        addiu $s2, $s2, 4
        move $t1, $s0         # node = root
        li $t2, 15            # bit index
insbit: srlv $t3, $t0, $t2
        andi $t3, $t3, 1
        sll $t3, $t3, 2       # child offset 0/4
        addu $t4, $t1, $t3
        lw $t5, 0($t4)        # child pointer
        bnez $t5, insdesc
        move $t5, $s1         # allocate new node
        addiu $s1, $s1, 16
        sw $t5, 0($t4)
insdesc:
        move $t1, $t5
        addiu $t2, $t2, -1
        bgez $t2, insbit
        sw $t0, 8($t1)        # leaf: key
        li $t3, 1
        sw $t3, 12($t1)       # valid
        addiu $s3, $s3, -1
        bnez $s3, ins
# ---- lookup phase ----
        la $s2, qrys
)";
  src += "        li $s3, " + std::to_string(lookups) + "\n";
  src += R"(        li $s7, 0             # hits
look:   lw $t0, 0($s2)
        addiu $s2, $s2, 4
        move $t1, $s0
        li $t2, 15
lkbit:  srlv $t3, $t0, $t2
        andi $t3, $t3, 1
        sll $t3, $t3, 2
        addu $t4, $t1, $t3
        lw $t1, 0($t4)
        beqz $t1, lkmiss
        addiu $t2, $t2, -1
        bgez $t2, lkbit
        lw $t3, 12($t1)       # valid?
        beqz $t3, lkmiss
        lw $t3, 8($t1)
        bne $t3, $t0, lkmiss
        addiu $s7, $s7, 1
lkmiss: addiu $s3, $s3, -1
        bnez $s3, look
# ---- longest-prefix-match phase (routing-table style) ----
        la $s2, qrys
)";
  src += "        li $s3, " + std::to_string(lookups) + "\n";
  src += R"(        li $s5, 0             # lpm depth sum
lpm:    lw $t0, 0($s2)
        addiu $s2, $s2, 4
        move $t1, $s0         # node = root
        li $t2, 15
        li $t5, 0             # depth
lpmbit: srlv $t3, $t0, $t2
        andi $t3, $t3, 1
        sll $t3, $t3, 2
        addu $t4, $t1, $t3
        lw $t4, 0($t4)
        beqz $t4, lpmend
        addiu $t5, $t5, 1
        move $t1, $t4
        addiu $t2, $t2, -1
        bgez $t2, lpmbit
lpmend: addu $s5, $s5, $t5
        addiu $s3, $s3, -1
        bnez $s3, lpm
# combined = hits + 17 * lpm_sum
        sll $t0, $s5, 4
        addu $t0, $t0, $s5
        addu $a0, $s7, $t0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "patricia";
  w.display = "Patricia";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(combined));
  return w;
}

}  // namespace dim::work
