// RawAudio (MiBench telecomm/adpcm): IMA ADPCM encoder and decoder. Very
// branchy per-sample logic — the paper's most control-flow-oriented
// benchmarks (RawAudio D. has the smallest instructions/branch ratio).
#include <cmath>

#include "work/asmgen.hpp"
#include "work/golden.hpp"
#include "work/workload.hpp"

namespace dim::work {
namespace {

std::vector<int16_t> audio_samples(int n) {
  // Synthetic speech-ish signal: a couple of sines plus LCG noise.
  std::vector<int16_t> samples(static_cast<size_t>(n));
  uint32_t seed = 0xADC0FFEEu;
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    double v = 6000.0 * std::sin(t * 0.03) + 2500.0 * std::sin(t * 0.11);
    v += static_cast<double>(golden::lcg(seed) % 2001) - 1000.0;
    samples[static_cast<size_t>(i)] = static_cast<int16_t>(v);
  }
  return samples;
}

void append_step_tables(std::string& out) {
  std::vector<uint32_t> step(golden::kAdpcmStepTable.begin(), golden::kAdpcmStepTable.end());
  std::vector<int32_t> idx(golden::kAdpcmIndexTable.begin(), golden::kAdpcmIndexTable.end());
  out += "steptab:\n";
  append_words(out, step);
  out += "idxtab:\n";
  append_words_i(out, idx);
}

// Shared decoder core: takes code in $t0, updates valpred=$s3 index=$s4,
// using steptab=$s0 idxtab=$s1; clobbers $t2..$t6.
const char* kDecodeStep = R"(
        sll $t2, $s4, 2
        addu $t2, $s0, $t2
        lw $t2, 0($t2)        # step
        sra $t3, $t2, 3       # diffq = step >> 3
        andi $t4, $t0, 4
        beqz $t4, dq2\L
        addu $t3, $t3, $t2
dq2\L:  andi $t4, $t0, 2
        beqz $t4, dq1\L
        sra $t5, $t2, 1
        addu $t3, $t3, $t5
dq1\L:  andi $t4, $t0, 1
        beqz $t4, dq0\L
        sra $t5, $t2, 2
        addu $t3, $t3, $t5
dq0\L:  andi $t4, $t0, 8
        beqz $t4, dadd\L
        subu $s3, $s3, $t3
        b dclamp\L
dadd\L: addu $s3, $s3, $t3
dclamp\L:
        li $t4, 32767
        ble $s3, $t4, dcl1\L
        move $s3, $t4
dcl1\L: li $t4, -32768
        bge $s3, $t4, dcl2\L
        move $s3, $t4
dcl2\L: sll $t4, $t0, 2
        addu $t4, $s1, $t4
        lw $t4, 0($t4)        # index delta
        addu $s4, $s4, $t4
        bgez $s4, dix1\L
        li $s4, 0
dix1\L: li $t4, 88
        ble $s4, $t4, dix2\L
        move $s4, $t4
dix2\L:
)";

std::string instantiate(std::string text, const std::string& label_suffix) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t hit = text.find("\\L", pos);
    if (hit == std::string::npos) {
      out += text.substr(pos);
      break;
    }
    out += text.substr(pos, hit - pos);
    out += label_suffix;
    pos = hit + 2;
  }
  return out;
}

}  // namespace

Workload make_rawaudio_e(int scale) {
  const int n = 10000 * scale;
  const std::vector<int16_t> samples = audio_samples(n);
  const std::vector<uint8_t> codes = golden::adpcm_encode(samples);
  uint32_t checksum = 0;
  for (size_t i = 0; i < codes.size(); ++i) checksum += codes[i] * static_cast<uint32_t>(i % 64 + 1);

  std::string src;
  src += "        .data\n";
  append_step_tables(src);
  src += "pcm:\n";
  append_halfs(src, samples);
  src += "        .text\n";
  src += "main:   la $s0, steptab\n";
  src += "        la $s1, idxtab\n";
  src += "        la $s2, pcm\n";
  src += "        li $s3, 0             # valpred\n";
  src += "        li $s4, 0             # index\n";
  src += "        li $s5, " + std::to_string(n) + "\n";
  src += R"(        li $s6, 0             # checksum
        li $s7, 0             # position counter
enc:    lh $t7, 0($s2)        # sample
        addiu $s2, $s2, 2
        sll $t2, $s4, 2
        addu $t2, $s0, $t2
        lw $t2, 0($t2)        # step
        subu $t3, $t7, $s3    # diff
        li $t0, 0
        bgez $t3, epos
        li $t0, 8
        subu $t3, $zero, $t3
epos:   move $t4, $t2         # tempstep
        blt $t3, $t4, e4
        ori $t0, $t0, 4
        subu $t3, $t3, $t4
e4:     sra $t4, $t4, 1
        blt $t3, $t4, e2
        ori $t0, $t0, 2
        subu $t3, $t3, $t4
e2:     sra $t4, $t4, 1
        blt $t3, $t4, e1
        ori $t0, $t0, 1
e1:
)";
  src += instantiate(kDecodeStep, "e");
  src += R"(# checksum += code * (pos % 64 + 1)
        andi $t2, $s7, 63
        addiu $t2, $t2, 1
        mul $t2, $t0, $t2
        addu $s6, $s6, $t2
        addiu $s7, $s7, 1
        addiu $s5, $s5, -1
        bnez $s5, enc
        move $a0, $s6
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "rawaudio_e";
  w.display = "RawAudio E.";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

Workload make_rawaudio_d(int scale) {
  const int n = 10000 * scale;
  const std::vector<int16_t> samples = audio_samples(n);
  const std::vector<uint8_t> codes = golden::adpcm_encode(samples);
  const std::vector<int16_t> decoded = golden::adpcm_decode(codes, codes.size());
  uint32_t checksum = 0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    checksum += static_cast<uint16_t>(decoded[i]) ^ static_cast<uint32_t>(i);
  }

  std::string src;
  src += "        .data\n";
  append_step_tables(src);
  src += "codes:\n";
  append_bytes(src, codes);
  src += "        .text\n";
  src += "main:   la $s0, steptab\n";
  src += "        la $s1, idxtab\n";
  src += "        la $s2, codes\n";
  src += "        li $s3, 0             # valpred\n";
  src += "        li $s4, 0             # index\n";
  src += "        li $s5, " + std::to_string(n) + "\n";
  src += R"(        li $s6, 0             # checksum
        li $s7, 0             # position
dec:    lbu $t0, 0($s2)
        addiu $s2, $s2, 1
        andi $t0, $t0, 15
)";
  src += instantiate(kDecodeStep, "d");
  src += R"(# checksum += (uint16)valpred ^ pos
        andi $t2, $s3, 0xFFFF
        xor $t2, $t2, $s7
        addu $s6, $s6, $t2
        addiu $s7, $s7, 1
        addiu $s5, $s5, -1
        bnez $s5, dec
        move $a0, $s6
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

  Workload w;
  w.name = "rawaudio_d";
  w.display = "RawAudio D.";
  w.dataflow_group = false;
  w.source = std::move(src);
  w.expected_output = std::to_string(static_cast<int32_t>(checksum));
  return w;
}

}  // namespace dim::work
