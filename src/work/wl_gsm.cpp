// GSM (MiBench telecomm/gsm): the short-term lattice filter at the heart of
// the GSM 06.10 full-rate codec — analysis (encode) and synthesis (decode),
// 8 reflection stages per sample with fixed-point multiplies.
#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

std::vector<int16_t> gsm_input(int n) {
  std::vector<int16_t> samples(static_cast<size_t>(n));
  uint32_t seed = 0x65A10CB7u;
  int32_t acc = 0;
  for (int i = 0; i < n; ++i) {
    // Band-limited-ish random walk.
    acc += static_cast<int32_t>(golden::lcg(seed) % 4001) - 2000;
    if (acc > 14000) acc = 14000;
    if (acc < -14000) acc = -14000;
    samples[static_cast<size_t>(i)] = static_cast<int16_t>(acc);
  }
  return samples;
}

void append_reflection_data(std::string& src) {
  std::vector<int32_t> k(golden::kGsmReflection.begin(), golden::kGsmReflection.end());
  src += "ktab:\n";
  append_words_i(src, k);
}

uint32_t out_checksum(const std::vector<int16_t>& out) {
  uint32_t chk = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    chk += static_cast<uint16_t>(out[i]) ^ static_cast<uint32_t>(i & 0xFFFF);
  }
  return chk;
}

// Shared epilogue: clamp $t0 to int16, checksum with position $s6, loop.
const char* kClampChecksum = R"(        li $t2, 32767
        ble $t0, $t2, cl1\L
        move $t0, $t2
cl1\L:  li $t2, -32768
        bge $t0, $t2, cl2\L
        move $t0, $t2
cl2\L:
)";

std::string subst(std::string text, const std::string& suffix) {
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t hit = text.find("\\L", pos);
    if (hit == std::string::npos) return out + text.substr(pos);
    out += text.substr(pos, hit - pos);
    out += suffix;
    pos = hit + 2;
  }
}

}  // namespace

Workload make_gsm_e(int scale) {
  const int n = 2600 * scale;
  const std::vector<int16_t> samples = gsm_input(n);

  // Preemphasis (GSM 06.10 preprocessing): e[k] = s[k] - (28180*s[k-1])>>15,
  // clamped to 16 bits, before the short-term analysis lattice.
  std::vector<int16_t> emphasized(samples.size());
  int32_t prev = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    int32_t e = samples[i] - ((28180 * prev) >> 15);
    if (e > 32767) e = 32767;
    if (e < -32768) e = -32768;
    emphasized[i] = static_cast<int16_t>(e);
    prev = samples[i];
  }
  const std::vector<int16_t> residual = golden::gsm_analysis(emphasized);
  const uint32_t checksum = out_checksum(residual);

  std::string src;
  src += "        .data\n";
  append_reflection_data(src);
  src += "pcm:\n";
  append_halfs(src, samples);
  src += "umem:   .space 32\n";  // u[0..7] as words
  src += "        .text\n";
  src += "main:   la $s0, ktab\n";
  src += "        la $s1, pcm\n";
  src += "        la $s2, umem\n";
  src += "        li $s5, " + std::to_string(n) + "\n";
  src += R"(        li $s6, 0             # position
        li $s7, 0             # checksum
        li $v1, 0             # previous raw sample (preemphasis state)
samp:   lh $t8, 0($s1)        # raw sample
        addiu $s1, $s1, 2
# preemphasis: di = clamp16(raw - (28180 * prev) >> 15)
        li $t2, 28180
        mult $t2, $v1
        mflo $t2
        sra $t2, $t2, 15
        subu $t0, $t8, $t2
        move $v1, $t8         # prev = raw
        li $t2, 32767
        ble $t0, $t2, pe1
        move $t0, $t2
pe1:    li $t2, -32768
        bge $t0, $t2, pe2
        move $t0, $t2
pe2:    move $t1, $t0         # sav = di
        li $t9, 0             # stage index i
stage:  sll $t2, $t9, 2
        addu $t3, $s2, $t2
        lw $t4, 0($t3)        # ui = u[i]
        addu $t5, $s0, $t2
        lw $t5, 0($t5)        # k[i]
        sw $t1, 0($t3)        # u[i] = sav
# sav = ui + ((k*di) >> 15)
        mult $t5, $t0
        mflo $t6
        sra $t6, $t6, 15
        addu $t1, $t4, $t6
# di = di + ((k*ui) >> 15)
        mult $t5, $t4
        mflo $t6
        sra $t6, $t6, 15
        addu $t0, $t0, $t6
        addiu $t9, $t9, 1
        li $t2, 8
        bne $t9, $t2, stage
)";
  src += subst(kClampChecksum, "e");
  src += R"(# checksum += (uint16)di ^ (pos & 0xFFFF)
        andi $t2, $t0, 0xFFFF
        andi $t3, $s6, 0xFFFF
        xor $t2, $t2, $t3
        addu $s7, $s7, $t2
        addiu $s6, $s6, 1
        addiu $s5, $s5, -1
        bnez $s5, samp
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "gsm_e";
  w.display = "GSM E.";
  w.dataflow_group = true;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

Workload make_gsm_d(int scale) {
  const int n = 2600 * scale;
  const std::vector<int16_t> samples = gsm_input(n);
  const std::vector<int16_t> residual = golden::gsm_analysis(samples);
  const std::vector<int16_t> synth = golden::gsm_synthesis(residual);
  const uint32_t checksum = out_checksum(synth);

  std::string src;
  src += "        .data\n";
  append_reflection_data(src);
  src += "res:\n";
  append_halfs(src, residual);
  src += "vmem:   .space 36\n";  // v[0..8] as words
  src += "        .text\n";
  src += "main:   la $s0, ktab\n";
  src += "        la $s1, res\n";
  src += "        la $s2, vmem\n";
  src += "        li $s5, " + std::to_string(n) + "\n";
  src += R"(        li $s6, 0
        li $s7, 0
samp:   lh $t0, 0($s1)        # sri = residual
        addiu $s1, $s1, 2
        li $t9, 7             # stage index i (downwards)
stage:  sll $t2, $t9, 2
        addu $t3, $s2, $t2    # &v[i]
        lw $t4, 0($t3)        # v[i]
        addu $t5, $s0, $t2
        lw $t5, 0($t5)        # k[i]
# sri = sri - ((k*v[i]) >> 15)
        mult $t5, $t4
        mflo $t6
        sra $t6, $t6, 15
        subu $t0, $t0, $t6
# v[i+1] = v[i] + ((k*sri) >> 15)
        mult $t5, $t0
        mflo $t6
        sra $t6, $t6, 15
        addu $t6, $t4, $t6
        sw $t6, 4($t3)
        addiu $t9, $t9, -1
        bgez $t9, stage
)";
  src += subst(kClampChecksum, "d");
  src += R"(        sw $t0, 0($s2)        # v[0] = clamped sri
        andi $t2, $t0, 0xFFFF
        andi $t3, $s6, 0xFFFF
        xor $t2, $t2, $t3
        addu $s7, $s7, $t2
        addiu $s6, $s6, 1
        addiu $s5, $s5, -1
        bnez $s5, samp
        move $a0, $s7
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "gsm_d";
  w.display = "GSM D.";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
