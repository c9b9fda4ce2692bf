#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "asm/lexer.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "mem/memory.hpp"
#include "work/workload.hpp"

namespace dim::asmblr {
namespace {

using isa::Op;

// Assembles and returns the decoded instruction words of the text segment.
std::vector<isa::Instr> text_of(const std::string& source) {
  const Program p = assemble(source);
  const Segment& text = p.segments[0];
  std::vector<isa::Instr> out;
  for (size_t off = 0; off + 4 <= text.bytes.size(); off += 4) {
    const uint32_t word = static_cast<uint32_t>(text.bytes[off]) |
                          (static_cast<uint32_t>(text.bytes[off + 1]) << 8) |
                          (static_cast<uint32_t>(text.bytes[off + 2]) << 16) |
                          (static_cast<uint32_t>(text.bytes[off + 3]) << 24);
    out.push_back(isa::decode(word));
  }
  return out;
}

TEST(Lexer, TokenKinds) {
  auto toks = lex_line("label: addiu $t0, $t1, -42 # comment", 1);
  ASSERT_EQ(toks.size(), 9u);  // ident colon ident reg comma reg comma number end
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "label");
  EXPECT_EQ(toks[1].kind, TokKind::kColon);
  EXPECT_EQ(toks[3].kind, TokKind::kReg);
  EXPECT_EQ(toks[3].text, "$t0");
  EXPECT_EQ(toks[7].kind, TokKind::kNumber);
  EXPECT_EQ(toks[7].value, -42);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);
}

TEST(Lexer, HexCharAndString) {
  auto toks = lex_line(".word 0xDEADBEEF, 'A', '\\n'", 1);
  EXPECT_EQ(toks[1].value, 0xDEADBEEF);
  EXPECT_EQ(toks[3].value, 'A');
  EXPECT_EQ(toks[5].value, '\n');
  auto stoks = lex_line(".asciiz \"hi\\tthere\"", 2);
  EXPECT_EQ(stoks[1].kind, TokKind::kString);
  EXPECT_EQ(stoks[1].text, "hi\tthere");
}

TEST(Lexer, SlashSlashComment) {
  auto toks = lex_line("nop // trailing", 1);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "nop");
}

TEST(Lexer, Errors) {
  EXPECT_THROW(lex_line("\"unterminated", 3), AsmError);
  EXPECT_THROW(lex_line("'ab'", 3), AsmError);
  EXPECT_THROW(lex_line("addiu $t0, $t1, @", 3), AsmError);
}

TEST(Assembler, RTypeEncodings) {
  auto text = text_of("main: addu $t0, $t1, $t2\n sub $s0, $s1, $s2\n sll $t0, $t1, 5\n");
  ASSERT_EQ(text.size(), 3u);
  EXPECT_EQ(text[0].op, Op::kAddu);
  EXPECT_EQ(text[0].rd, 8);
  EXPECT_EQ(text[0].rs, 9);
  EXPECT_EQ(text[0].rt, 10);
  EXPECT_EQ(text[1].op, Op::kSub);
  EXPECT_EQ(text[2].op, Op::kSll);
  EXPECT_EQ(text[2].shamt, 5);
}

TEST(Assembler, MemoryOperands) {
  auto text = text_of("main: lw $t0, -8($sp)\n sw $t1, 12($gp)\n lbu $t2, 0($a0)\n");
  EXPECT_EQ(text[0].op, Op::kLw);
  EXPECT_EQ(text[0].simm(), -8);
  EXPECT_EQ(text[0].rs, 29);
  EXPECT_EQ(text[1].op, Op::kSw);
  EXPECT_EQ(text[1].simm(), 12);
  EXPECT_EQ(text[2].op, Op::kLbu);
}

TEST(Assembler, BranchOffsets) {
  auto text = text_of(
      "main: beq $t0, $t1, fwd\n"
      " nop\n"
      "fwd: bne $t0, $t1, main\n");
  EXPECT_EQ(text[0].op, Op::kBeq);
  EXPECT_EQ(text[0].simm(), 1);  // one instruction forward past the delay-free next
  EXPECT_EQ(text[2].op, Op::kBne);
  EXPECT_EQ(text[2].simm(), -3);
}

TEST(Assembler, JumpTargets) {
  const Program p = assemble("main: j main\n jal main\n");
  auto text = text_of("main: j main\n jal main\n");
  EXPECT_EQ(text[0].op, Op::kJ);
  EXPECT_EQ(text[0].target26 << 2, p.entry & 0x0FFFFFFF);
}

TEST(Assembler, LiExpansion) {
  auto text = text_of("main: li $t0, 100\n li $t1, 40000\n li $t2, 0x12345678\n li $t3, -5\n");
  ASSERT_EQ(text.size(), 5u);
  EXPECT_EQ(text[0].op, Op::kAddiu);   // small signed
  EXPECT_EQ(text[0].simm(), 100);
  EXPECT_EQ(text[1].op, Op::kOri);     // fits unsigned 16
  EXPECT_EQ(text[1].uimm(), 40000u);
  EXPECT_EQ(text[2].op, Op::kLui);     // 32-bit: lui+ori
  EXPECT_EQ(text[2].uimm(), 0x1234u);
  EXPECT_EQ(text[3].op, Op::kOri);
  EXPECT_EQ(text[3].uimm(), 0x5678u);
  EXPECT_EQ(text[4].op, Op::kAddiu);   // negative small
  EXPECT_EQ(text[4].simm(), -5);
}

TEST(Assembler, LaAlwaysTwoWords) {
  const Program p = assemble("        .data\nv:      .word 7\n        .text\nmain:   la $t0, v\n");
  EXPECT_EQ(p.symbol("v"), 0x10010000u);
  auto text = text_of("        .data\nv:      .word 7\n        .text\nmain:   la $t0, v\n");
  ASSERT_EQ(text.size(), 2u);
  EXPECT_EQ(text[0].op, Op::kLui);
  EXPECT_EQ(text[0].uimm(), 0x1001u);
  EXPECT_EQ(text[1].op, Op::kOri);
  EXPECT_EQ(text[1].uimm(), 0x0000u);
}

TEST(Assembler, ComparisonPseudos) {
  auto text = text_of("main: blt $t0, $t1, main\n bge $t0, $t1, main\n bgtu $t0, $t1, main\n");
  ASSERT_EQ(text.size(), 6u);
  EXPECT_EQ(text[0].op, Op::kSlt);
  EXPECT_EQ(text[0].rd, 1);  // $at
  EXPECT_EQ(text[1].op, Op::kBne);
  EXPECT_EQ(text[2].op, Op::kSlt);
  EXPECT_EQ(text[3].op, Op::kBeq);
  EXPECT_EQ(text[4].op, Op::kSltu);
  EXPECT_EQ(text[4].rs, 9);  // swapped for bgt
  EXPECT_EQ(text[4].rt, 8);
}

TEST(Assembler, MulPseudo) {
  auto text = text_of("main: mul $t0, $t1, $t2\n");
  ASSERT_EQ(text.size(), 2u);
  EXPECT_EQ(text[0].op, Op::kMult);
  EXPECT_EQ(text[1].op, Op::kMflo);
  EXPECT_EQ(text[1].rd, 8);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(
      "        .data\n"
      "w:      .word 1, -2, 0x30\n"
      "h:      .half 5, 6\n"
      "b:      .byte 7, 8, 9\n"
      "        .align 2\n"
      "s:      .asciiz \"ab\"\n"
      "sp:     .space 8\n"
      "        .text\n"
      "main:   nop\n");
  mem::Memory m;
  p.load_into(m);
  EXPECT_EQ(m.read32(p.symbol("w")), 1u);
  EXPECT_EQ(static_cast<int32_t>(m.read32(p.symbol("w") + 4)), -2);
  EXPECT_EQ(m.read32(p.symbol("w") + 8), 0x30u);
  EXPECT_EQ(m.read16(p.symbol("h")), 5u);
  EXPECT_EQ(m.read8(p.symbol("b") + 2), 9u);
  EXPECT_EQ(p.symbol("s") % 4, 0u);  // .align 2
  EXPECT_EQ(m.read8(p.symbol("s")), 'a');
  EXPECT_EQ(m.read8(p.symbol("s") + 2), 0u);
  EXPECT_EQ(p.symbol("sp") - p.symbol("s"), 3u);
}

TEST(Assembler, WordWithSymbolReference) {
  const Program p = assemble(
      "        .data\n"
      "a:      .word 1\n"
      "ptr:    .word a, a+4\n"
      "        .text\n"
      "main:   nop\n");
  mem::Memory m;
  p.load_into(m);
  EXPECT_EQ(m.read32(p.symbol("ptr")), p.symbol("a"));
  EXPECT_EQ(m.read32(p.symbol("ptr") + 4), p.symbol("a") + 4);
}

TEST(Assembler, EntryIsMainOrTextBase) {
  EXPECT_EQ(assemble("main: nop\n").entry, 0x00400000u);
  EXPECT_EQ(assemble("nop\nmain: nop\n").entry, 0x00400004u);
  EXPECT_EQ(assemble("start: nop\n").entry, 0x00400000u);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("main: bogus $t0\n"), AsmError);
  EXPECT_THROW(assemble("main: addiu $t0, $t1, 100000\n"), AsmError);  // imm range
  EXPECT_THROW(assemble("main: lw $t0, undefined_sym($t1)\n"), AsmError);
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), AsmError);  // duplicate label
  EXPECT_THROW(assemble("main: addu $t0, $t1\n"), AsmError);  // operand count
  EXPECT_THROW(assemble("main: sll $t0, $t1, 32\n"), AsmError);  // shamt range
  EXPECT_THROW(assemble(".data\nx: .word 1\n addu $t0, $t1, $t2\n"), AsmError);
  EXPECT_THROW(assemble("main: lw $t0, some_label\n"), AsmError);  // abs memref
}

TEST(Assembler, BranchRangeError) {
  std::string src = "main: beq $t0, $t1, far\n";
  for (int i = 0; i < 40000; ++i) src += " nop\n";
  src += "far: nop\n";
  EXPECT_THROW(assemble(src), AsmError);
}

TEST(Assembler, ImageRoundTripThroughDisasm) {
  // Every emitted word must decode to a valid instruction.
  auto text = text_of(
      "main: li $t0, 0xABCD1234\n la $t1, main\n move $t2, $t0\n not $t3, $t2\n"
      " neg $t4, $t3\n b main\n beqz $t0, main\n bnez $t0, main\n nop\n subiu $t5, $t4, 3\n");
  for (const auto& i : text) {
    EXPECT_NE(i.op, Op::kInvalid) << isa::disasm(i, 0);
  }
}

TEST(Assembler, ErrorMessagesAndLinesPinned) {
  // Exact what() text and line() of representative errors from every
  // stage: lexer, operand parser, layout and emission.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"main: nop\n  addiu $t0, $t1, @\n", "line 2: unexpected character: @"},
      {"nop\n.asciiz \"open\n", "line 2: unterminated string"},
      {".byte 'ab'\n", "line 1: bad char literal"},
      {".asciiz \"\\q\"\n", "line 1: unknown escape: \\q"},
      {"main: bogus $t0\n", "line 1: unknown mnemonic: bogus"},
      {"main: addu $t0, $t1\n", "line 1: addu: expected 3 operands, got 2"},
      {"main: addu $t0, 5, $t1\n", "line 1: addu: operand 2 must be a register"},
      {"main: addu $t0, $zz, $t1\n", "line 1: bad register: $zz"},
      {"main: lw $t0, 4($qq)\n", "line 1: bad register: $qq"},
      {"main: lw $t0, 4(7)\n", "line 1: expected base register"},
      {"main: lw $t0, 4($t1\n", "line 1: expected ')'"},
      {"main: lw $t0, x+\n", "line 1: expected number after +/-"},
      {"main: lw $t0, missing($t1)\n", "line 1: undefined symbol: missing"},
      {"main: j nowhere\n", "line 1: undefined symbol: nowhere"},
      {"main: addiu $t0, $t1, ,\n", "line 1: unexpected token in operands"},
      {"x: nop\n\nx: nop\n", "line 3: duplicate label: x"},
      {".data\nnop\n", "line 2: instruction outside .text"},
      {".bogus 1\n", "line 1: unknown directive: .bogus"},
      {"main: 5\n", "line 1: expected mnemonic"},
  };
  for (const auto& [source, message] : cases) {
    try {
      assemble(source);
      ADD_FAILURE() << "no error for: " << source;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.what(), message) << source;
      EXPECT_EQ(e.line(), std::stoi(message.substr(5))) << source;
    }
  }
}

// Asserts that `source` fails to assemble with exactly `message`, whose
// "line N: " prefix must also match AsmError::line().
void expect_asm_error(const std::string& source, const std::string& message) {
  try {
    assemble(source);
    ADD_FAILURE() << "no error for: " << source;
  } catch (const AsmError& e) {
    EXPECT_EQ(e.what(), message) << source;
    EXPECT_EQ(e.line(), std::stoi(message.substr(5))) << source;
  }
}

// Client-supplied text (a serve request's `source`) reaches the assembler,
// so a literal or an alignment past what 32-bit code can use is an error
// with its line, not arithmetic overflow.
TEST(Assembler, DecimalLiteralPastThirtyTwoBitsIsAnError) {
  expect_asm_error(".data\n.word 1\n.word 99999999999999999999\n",
                   "line 3: integer literal out of range");
  expect_asm_error("main: li $t0, -4294967296\n", "line 1: integer literal out of range");
  // The largest magnitude still assembles (and truncates to the width).
  const Program p = assemble(".data\nw: .word 4294967295, -4294967295\n");
  mem::Memory m;
  p.load_into(m);
  EXPECT_EQ(m.read32(p.symbol("w")), 0xFFFFFFFFu);
  EXPECT_EQ(m.read32(p.symbol("w") + 4), 1u);
}

TEST(Assembler, HexLiteralPastThirtyTwoBitsIsAnError) {
  expect_asm_error("main: nop\n  li $t0, 0x8000000000000000\n",
                   "line 2: integer literal out of range");
  expect_asm_error(".data\n.word 0x100000000\n", "line 2: integer literal out of range");
}

TEST(Assembler, AlignExponentOutOfRangeIsAnError) {
  expect_asm_error(".data\n.byte 1\n.align 40\n", "line 3: .align exponent out of range");
  expect_asm_error(".data\n.align -1\n", "line 2: .align exponent out of range");
  expect_asm_error(".data\n.align 32\n", "line 2: .align exponent out of range");
}

TEST(Assembler, SymbolOffsetPastThirtyTwoBitsIsAnError) {
  expect_asm_error(".data\nx: .word 1\n.word x+99999999999999999999\n",
                   "line 3: integer literal out of range");
  expect_asm_error("main: la $t0, main+0x1000000000\n", "line 1: integer literal out of range");
}

// A section image spans its lowest address to the highest location its
// counter reached, and may not pass 64 MiB or wrap past 2^32: otherwise a
// short source could make the assembler zero-fill up to 4 GiB. Each form
// below lands just past the bound.
TEST(Assembler, SpacePastSixtyFourMiBIsAnError) {
  expect_asm_error(".data\nx: .word 1\n.space 67108861\n",
                   "line 3: section image exceeds 64 MiB");
  expect_asm_error("main: nop\n.space 67108861\n", "line 2: section image exceeds 64 MiB");
  // Exactly 64 MiB still assembles.
  const Program p = assemble(".data\nx: .word 1\n.space 67108860\n");
  EXPECT_EQ(p.segments[1].bytes.size(), 64u << 20);
}

TEST(Assembler, NegativeSpaceIsAnError) {
  expect_asm_error(".data\n.space 16\n.space -4\n",
                   "line 3: location counter wraps past 0xFFFFFFFF");
}

TEST(Assembler, SectionAddressPastSixtyFourMiBIsAnError) {
  expect_asm_error(".data 0x14010001\n", "line 1: section image exceeds 64 MiB");
  expect_asm_error("main: nop\n.text 0x04400004\nnop\n",
                   "line 2: section image exceeds 64 MiB");
  // A lower address widens the image down to it.
  expect_asm_error(".data\n.space 4\n.data 0x0C00FFFC\n",
                   "line 3: section image exceeds 64 MiB");
}

TEST(Assembler, LocationCounterWrapIsAnError) {
  expect_asm_error(".data\n.space 4294967295\n.space 1\n",
                   "line 2: location counter wraps past 0xFFFFFFFF");
  AsmOptions top;
  top.text_base = 0xFFFFFFF8u;
  try {
    assemble("main: nop\nnop\nnop\n", top);
    ADD_FAILURE() << "no error for a third word past 0xFFFFFFFF";
  } catch (const AsmError& e) {
    EXPECT_STREQ(e.what(), "line 3: location counter wraps past 0xFFFFFFFF");
    EXPECT_EQ(e.line(), 3);
  }
  // Two words end exactly at the top of memory.
  EXPECT_EQ(assemble("main: nop\nnop\n", top).segments[0].bytes.size(), 8u);
}

TEST(Assembler, SectionAddressGoingBackKeepsEarlierData) {
  // The image covers every location the counter reached, so data laid
  // out before a move to a lower address stays in it.
  const Program p = assemble(".data 0x10010100\nb: .word 7\n.data 0x10010000\na: .word 5\n");
  EXPECT_EQ(p.segments[1].base, 0x10010000u);
  EXPECT_EQ(p.segments[1].bytes.size(), 0x104u);
  mem::Memory m;
  p.load_into(m);
  EXPECT_EQ(m.read32(p.symbol("a")), 5u);
  EXPECT_EQ(m.read32(p.symbol("b")), 7u);
}

// Random .byte/.half/.word lines in the forms the assembler accepts, with
// the image bytes and label addresses computed here independently. Plain
// decimal lists take the assembler's numeric fast path; labels, hex, char
// literals, comments and missing or trailing commas take the lexer path.
// Blanks, tabs and a trailing \r appear in both. Both paths must lay out
// and encode every line the same way.
TEST(Assembler, DataLinesMatchIndependentEncoding) {
  std::mt19937_64 rng(0x5EEDDA7Au);
  auto pick = [&](uint64_t n) { return rng() % n; };
  auto blanks = [&](size_t min) {
    std::string out(min + pick(3), ' ');
    for (char& c : out) c = pick(3) == 0 ? '\t' : ' ';
    return out;
  };
  const uint32_t base = AsmOptions{}.data_base;
  std::string source = "        .data\n";
  std::vector<uint8_t> expected;
  std::vector<std::pair<std::string, uint32_t>> labels;
  for (int line = 0; line < 3000; ++line) {
    const uint32_t width = uint32_t{1} << pick(3);
    const bool plain = pick(2) == 0;
    while (expected.size() % width != 0) expected.push_back(0);
    std::string text = blanks(0);
    if (!plain && pick(4) == 0) {
      const std::string name = "l" + std::to_string(line);
      labels.emplace_back(name, base + static_cast<uint32_t>(expected.size()));
      text += name + ":" + blanks(0);
    }
    text += width == 1 ? ".byte" : width == 2 ? ".half" : ".word";
    const int count = 1 + static_cast<int>(pick(12));
    for (int v = 0; v < count; ++v) {
      int64_t value = 0;
      std::string literal;
      switch (plain ? pick(3) : pick(6)) {
        case 0:  // small, either sign
          value = static_cast<int64_t>(pick(600)) - 300;
          literal = std::to_string(value);
          break;
        case 1:  // up to 0xFFFFFFFF: truncates to .byte/.half
          value = static_cast<int64_t>(pick(0x100000000ull));
          literal = std::to_string(value);
          break;
        case 2:  // down to -0xFFFFFFFF
          value = -static_cast<int64_t>(pick(0x100000000ull));
          literal = std::to_string(value);
          break;
        case 3: {  // hex
          value = static_cast<int64_t>(pick(0x100000000ull));
          char buf[16];
          std::snprintf(buf, sizeof buf, pick(2) ? "0x%llx" : "0X%llX",
                        static_cast<unsigned long long>(value));
          literal = buf;
          break;
        }
        case 4: {  // char literal
          const char c = static_cast<char>('a' + pick(26));
          value = c;
          literal = std::string("'") + c + "'";
          break;
        }
        default:  // escaped char literal
          value = '\n';
          literal = "'\\n'";
          break;
      }
      if (v == 0) {
        text += blanks(1);
      } else if (plain || pick(5) != 0) {
        text += blanks(0) + "," + blanks(0);
      } else {
        text += blanks(1);  // missing comma: the lexer path still takes it
      }
      text += literal;
      const uint32_t word = static_cast<uint32_t>(value);
      for (uint32_t b = 0; b < width; ++b) {
        expected.push_back(static_cast<uint8_t>(word >> (8 * b)));
      }
    }
    if (!plain && pick(4) == 0) text += blanks(0) + ",";  // trailing comma
    if (!plain && pick(4) == 0) text += blanks(0) + (pick(2) ? "# note" : "// note");
    text += blanks(0);
    if (pick(5) == 0) text += "\r";
    source += text + "\n";
  }

  const Program p = assemble(source);
  ASSERT_EQ(p.segments.size(), 2u);
  EXPECT_EQ(p.segments[1].base, base);
  const std::vector<uint8_t>& bytes = p.segments[1].bytes;
  ASSERT_EQ(bytes.size(), expected.size());
  const auto diff = std::mismatch(bytes.begin(), bytes.end(), expected.begin());
  EXPECT_TRUE(diff.first == bytes.end())
      << "first differing byte at data offset " << (diff.first - bytes.begin());
  for (const auto& [name, addr] : labels) EXPECT_EQ(p.symbol(name), addr) << name;
}

// FNV-1a over a program's entry, segments and symbol table (by name), so a
// pin covers every byte an assembled kernel loads plus every label.
uint64_t image_digest(const Program& p) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto byte = [&](uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  auto u32 = [&](uint32_t v) {
    for (int s = 0; s < 32; s += 8) byte(static_cast<uint8_t>(v >> s));
  };
  u32(p.entry);
  for (const Segment& seg : p.segments) {
    u32(seg.base);
    u32(static_cast<uint32_t>(seg.bytes.size()));
    for (uint8_t b : seg.bytes) byte(b);
  }
  std::vector<std::pair<std::string, uint32_t>> symbols(p.symbols.begin(),
                                                        p.symbols.end());
  std::sort(symbols.begin(), symbols.end());
  for (const auto& [name, addr] : symbols) {
    for (char c : name) byte(static_cast<uint8_t>(c));
    byte(0);
    u32(addr);
  }
  return h;
}

TEST(AssemblerGolden, KernelImagesPinned) {
  // Images and symbol tables of all 18 kernels at scales 1 and 4; any
  // change to the assembler's output (or to a kernel's source) moves them.
  struct Pin {
    const char* name;
    uint64_t scale1;
    uint64_t scale4;
  };
  const Pin pins[] = {
      {"rijndael_e", 0xc5da517ca8c27223ull, 0x8e33e0ad9d738ae7ull},
      {"rijndael_d", 0x2bf230c043c4d875ull, 0x5bbd6c2a9a7dffc2ull},
      {"gsm_e", 0x73cdd54e54f90667ull, 0x379720e9598dc991ull},
      {"jpeg_e", 0xa4a75dd9709702daull, 0xc76adabbf06e9d9aull},
      {"sha", 0x667eb28f7d558c4dull, 0x92a09de0306983bfull},
      {"susan_s", 0xd7eb3f0cf7ccbf69ull, 0xeb1645acef9dde95ull},
      {"crc32", 0x3c1a50a7b94bdef4ull, 0x5f0377c3cf9d7fbbull},
      {"jpeg_d", 0x2382ec01315be432ull, 0x31eacb35533bf0b2ull},
      {"patricia", 0xa90ffee910fe3fe4ull, 0x173aa06de205464eull},
      {"susan_c", 0xecad73f83b2691b4ull, 0xe5f480664150b2fcull},
      {"susan_e", 0x79b08a3d42dae599ull, 0xa8a2a66779de20f7ull},
      {"dijkstra", 0xa97d70061f77493bull, 0x562420e936cb94efull},
      {"gsm_d", 0xc9e76172aaa2c6ebull, 0x6a958e34c50dddedull},
      {"bitcount", 0x3c79ad8fd804c859ull, 0x1124a07034a119e2ull},
      {"stringsearch", 0x6e6abfe00e64f7e9ull, 0xeac996377578fcd9ull},
      {"quicksort", 0x15f524a51fe89ef1ull, 0x3a634395c1a66cfbull},
      {"rawaudio_e", 0xb0cd750c39cf73c2ull, 0x2a1e8dda2b128e29ull},
      {"rawaudio_d", 0xb270235eaece50b6ull, 0xc5c6e618c173b447ull},
  };
  ASSERT_EQ(std::size(pins), work::workload_names().size());
  for (const Pin& pin : pins) {
    const uint64_t d1 = image_digest(assemble(work::make_workload(pin.name, 1).source));
    const uint64_t d4 = image_digest(assemble(work::make_workload(pin.name, 4).source));
    EXPECT_EQ(d1, pin.scale1) << pin.name << " scale 1: 0x" << std::hex << d1;
    EXPECT_EQ(d4, pin.scale4) << pin.name << " scale 4: 0x" << std::hex << d4;
  }
}

}  // namespace
}  // namespace dim::asmblr
