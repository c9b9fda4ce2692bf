// Stringsearch (MiBench office/stringsearch): Boyer-Moore-Horspool search
// of several patterns over a text, with a per-pattern bad-character table,
// as in the original Pratt-Boyer-Moore benchmark.
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {

Workload make_stringsearch(int scale) {
  const int text_len = 12288 * scale;
  const int num_patterns = 8;
  uint32_t seed = 0x57A65EA2u;

  // Text over a small alphabet so matches actually occur.
  std::vector<uint8_t> text(static_cast<size_t>(text_len));
  for (auto& c : text) c = static_cast<uint8_t>('a' + golden::lcg(seed) % 8);

  // Patterns: substrings of the text (guaranteed hits) of varied length.
  std::vector<std::vector<uint8_t>> patterns;
  for (int p = 0; p < num_patterns; ++p) {
    const int m = 4 + p % 5;  // 4..8
    const size_t pos = golden::lcg(seed) % static_cast<uint32_t>(text_len - 16);
    patterns.emplace_back(text.begin() + static_cast<long>(pos),
                          text.begin() + static_cast<long>(pos) + m);
  }

  // Golden: Boyer-Moore-Horspool pass counts matches; a second brute-force
  // pass (MiBench's suite also runs several search functions) accumulates
  // the positions of every occurrence.
  uint32_t matches = 0;
  uint32_t possum = 0;
  for (const auto& pat : patterns) {
    const int m = static_cast<int>(pat.size());
    int skip[256];
    for (int i = 0; i < 256; ++i) skip[i] = m;
    for (int i = 0; i < m - 1; ++i) skip[pat[static_cast<size_t>(i)]] = m - 1 - i;
    int pos = 0;
    while (pos + m <= text_len) {
      int j = m - 1;
      while (j >= 0 && text[static_cast<size_t>(pos + j)] == pat[static_cast<size_t>(j)]) --j;
      if (j < 0) ++matches;
      pos += skip[text[static_cast<size_t>(pos + m - 1)]];
    }
    for (pos = 0; pos + m <= text_len; ++pos) {
      int j = 0;
      while (j < m && text[static_cast<size_t>(pos + j)] == pat[static_cast<size_t>(j)]) ++j;
      if (j == m) possum += static_cast<uint32_t>(pos);
    }
  }
  const uint32_t combined = matches + 7u * possum;

  // Pattern storage: lengths table + concatenated bytes (each padded to 16).
  std::vector<uint32_t> plens;
  std::vector<uint8_t> pbytes;
  for (const auto& pat : patterns) {
    plens.push_back(static_cast<uint32_t>(pat.size()));
    std::vector<uint8_t> padded(pat);
    padded.resize(16, 0);
    pbytes.insert(pbytes.end(), padded.begin(), padded.end());
  }

  std::string src;
  src += "        .data\n";
  src += "text:\n";
  append_bytes(src, text);
  src += "plens:\n";
  append_words(src, plens);
  src += "pats:\n";
  append_bytes(src, pbytes);
  src += "skip:   .space 1024\n";
  src += "        .text\n";
  src += "main:   li $s7, 0             # matches (BMH)\n";
  src += "        li $s0, 0             # position sum (naive)\n";
  src += "        li $s6, 0             # pattern index\n";
  src += "ploop:  la $t0, plens\n";
  src += R"(        sll $t1, $s6, 2
        addu $t0, $t0, $t1
        lw $s5, 0($t0)        # m = pattern length
        la $s4, pats
        sll $t1, $s6, 4
        addu $s4, $s4, $t1    # pattern base
# build skip table: all entries = m
        la $t0, skip
        li $t1, 256
skinit: sw $s5, 0($t0)
        addiu $t0, $t0, 4
        addiu $t1, $t1, -1
        bnez $t1, skinit
# for i in 0..m-2: skip[pat[i]] = m-1-i
        li $t1, 0
        addiu $t2, $s5, -1    # m-1
skfill: bge $t1, $t2, skdone
        addu $t3, $s4, $t1
        lbu $t3, 0($t3)       # pat[i]
        sll $t3, $t3, 2
        la $t4, skip
        addu $t4, $t4, $t3
        subu $t5, $t2, $t1    # m-1-i
        sw $t5, 0($t4)
        addiu $t1, $t1, 1
        b skfill
skdone:
# search
        la $s3, text          # window pointer (text + pos)
)";
  src += "        li $t9, " + std::to_string(text_len) + "\n";
  src += R"(        la $t8, text
        addu $t9, $t8, $t9    # text end
        subu $t9, $t9, $s5    # last valid window + 1 boundary helper
        addiu $t9, $t9, 1     # loop while window <= text_end - m
search: subu $t0, $t9, $s3
        blez $t0, pdone       # pos + m > text_len
# compare backwards
        addiu $t1, $s5, -1    # j = m-1
cmp:    bltz $t1, hit
        addu $t2, $s3, $t1
        lbu $t2, 0($t2)       # text[pos+j]
        addu $t3, $s4, $t1
        lbu $t3, 0($t3)       # pat[j]
        bne $t2, $t3, shift
        addiu $t1, $t1, -1
        b cmp
hit:    addiu $s7, $s7, 1
shift:  addiu $t0, $s5, -1
        addu $t0, $s3, $t0
        lbu $t0, 0($t0)       # text[pos+m-1]
        sll $t0, $t0, 2
        la $t1, skip
        addu $t1, $t1, $t0
        lw $t1, 0($t1)
        addu $s3, $s3, $t1    # pos += skip[...]
        b search
pdone:
# ---- second searcher: brute force, accumulating match positions ----
        la $s3, text
naive:  subu $t0, $t9, $s3
        blez $t0, ndone
        li $t1, 0             # j
ncmp:   bge $t1, $s5, nhit
        addu $t2, $s3, $t1
        lbu $t2, 0($t2)
        addu $t3, $s4, $t1
        lbu $t3, 0($t3)
        bne $t2, $t3, nmiss
        addiu $t1, $t1, 1
        b ncmp
nhit:   la $t4, text
        subu $t4, $s3, $t4    # match position
        addu $s0, $s0, $t4
nmiss:  addiu $s3, $s3, 1
        b naive
ndone:  addiu $s6, $s6, 1
)";
  src += "        li $t0, " + std::to_string(num_patterns) + "\n";
  src += R"(        bne $s6, $t0, ploop
# combined = matches + 7 * possum
        sll $t0, $s0, 3
        subu $t0, $t0, $s0
        addu $a0, $s7, $t0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "stringsearch";
  w.display = "Stringsearch";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(combined));
  return w;
}

}  // namespace dim::work
