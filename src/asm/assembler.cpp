#include "asm/assembler.hpp"

#include <cassert>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "asm/lexer.hpp"
#include "common/bitutil.hpp"
#include "isa/encoder.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"

namespace dim::asmblr {
namespace {

using isa::Instr;
using isa::Op;

// --- Parsed operand ---------------------------------------------------------

// Symbols are views of the source, which outlives the assembler's run, so
// an operand owns no heap memory.
struct Operand {
  enum class Kind : uint8_t { kReg, kImm, kSym, kMem } kind = Kind::kImm;
  int reg = 0;              // kReg / kMem base register
  int64_t value = 0;        // kImm / symbol offset / kMem displacement
  std::string_view symbol;  // kSym, or kMem symbolic displacement

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_imm() const { return kind == Kind::kImm; }
  bool is_sym() const { return kind == Kind::kSym; }
  bool is_mem() const { return kind == Kind::kMem; }
};

struct Statement {
  int line_no = 0;
  int section = 0;  // 0 = text, 1 = data
  uint32_t addr = 0;
  std::string mnemonic;  // lower-case instruction or directive (with '.')
  std::vector<Operand> operands;
  std::vector<std::string> strings;  // for .ascii/.asciiz
  uint32_t size_bytes = 0;
  // A numeric data line (see parse_numeric_data): its size_bytes image
  // bytes are already encoded at packed_offset in the assembler's arena,
  // and mnemonic and operands stay empty.
  bool packed = false;
  size_t packed_offset = 0;
};

// --- Mnemonic tables --------------------------------------------------------

const std::unordered_map<std::string, Op>& op_table() {
  static const std::unordered_map<std::string, Op> table = [] {
    std::unordered_map<std::string, Op> t;
    for (int raw = 1; raw <= static_cast<int>(Op::kSw); ++raw) {
      const Op op = static_cast<Op>(raw);
      t.emplace(isa::op_name(op), op);
    }
    return t;
  }();
  return table;
}

bool is_directive(const std::string& m) { return !m.empty() && m[0] == '.'; }

// Size in bytes of one pseudo/real instruction, decided in pass 1.
uint32_t instr_size(const Statement& s) {
  const std::string& m = s.mnemonic;
  if (m == "la") return 8;
  if (m == "li") {
    const int64_t v = s.operands.size() >= 2 ? s.operands[1].value : 0;
    return (fits_simm16(v) || fits_uimm16(v)) ? 4 : 8;
  }
  if (m == "blt" || m == "bgt" || m == "ble" || m == "bge" ||
      m == "bltu" || m == "bgtu" || m == "bleu" || m == "bgeu" ||
      m == "mul") {
    return 8;
  }
  return 4;
}

// --- Assembler proper -------------------------------------------------------

class Assembler {
 public:
  explicit Assembler(const AsmOptions& options)
      : options_(options),
        text_base_(options.text_base),
        data_base_(options.data_base),
        text_loc_(options.text_base),
        data_loc_(options.data_base) {}

  Program run(std::string_view source) {
    parse_all(source);
    emit_all();
    Program p;
    p.symbols = std::move(symbols_);
    if (auto it = p.symbols.find("main"); it != p.symbols.end()) {
      p.entry = it->second;
    } else {
      p.entry = text_base_;
    }
    p.segments.push_back(Segment{text_base_, std::move(text_)});
    p.segments.push_back(Segment{data_base_, std::move(data_)});
    return p;
  }

 private:
  // ---- pass 1: parse + layout ----
  void parse_all(std::string_view source) {
    int line_no = 0;
    size_t pos = 0;
    while (pos <= source.size()) {
      const size_t nl = source.find('\n', pos);
      const std::string_view line =
          source.substr(pos, nl == std::string_view::npos ? source.size() - pos : nl - pos);
      ++line_no;
      parse_line(line, line_no);
      if (nl == std::string_view::npos) break;
      pos = nl + 1;
    }
  }

  uint32_t& loc() { return section_ == 0 ? text_loc_ : data_loc_; }

  void define_label_at(std::string_view view, uint32_t addr, int line_no) {
    std::string name(view);
    if (symbols_.count(name)) throw AsmError(line_no, "duplicate label: " + name);
    symbols_[std::move(name)] = addr;
  }

  void define_label(std::string_view name, int line_no) {
    define_label_at(name, loc(), line_no);
  }

  void align_to(uint32_t alignment) {
    uint32_t& l = loc();
    l = (l + alignment - 1) & ~(alignment - 1);
  }

  // Pass 1's path for the bulk of generated kernels: a line that is exactly
  // `.byte`, `.half` or `.word` followed by comma-separated decimal
  // integers (optional leading '-'), blanks allowed between tokens. The
  // values are encoded straight into packed_ (truncated to the directive's
  // width and little-endian, as emit_data would write them), and the
  // Statement keeps the section, aligned address, size and arena offset.
  // Every other line returns false having laid out nothing, and takes the
  // lexer path: labels, hex, char literals, symbols, comments, missing or
  // trailing commas, and a literal the lexer rejects (magnitude above
  // 0xFFFFFFFF). So error texts and line numbers come from one place.
  bool parse_numeric_data(std::string_view line, int line_no) {
    const char* p = line.data();
    const char* const end = p + line.size();
    auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
    while (p != end && blank(*p)) ++p;
    if (end - p < 6 || p[0] != '.') return false;
    uint32_t width;
    if (std::memcmp(p, ".word", 5) == 0) {
      width = 4;
    } else if (std::memcmp(p, ".half", 5) == 0) {
      width = 2;
    } else if (std::memcmp(p, ".byte", 5) == 0) {
      width = 1;
    } else {
      return false;
    }
    p += 5;
    if (!blank(*p)) return false;
    const size_t offset = packed_.size();
    auto fall_back = [&] {
      packed_.resize(offset);
      return false;
    };
    for (;;) {
      while (p != end && blank(*p)) ++p;
      const bool neg = p != end && *p == '-';
      if (neg) ++p;
      if (p == end || *p < '0' || *p > '9') return fall_back();
      uint64_t magnitude = 0;
      do {
        magnitude = magnitude * 10 + static_cast<uint64_t>(*p - '0');
        if (magnitude > 0xFFFFFFFFu) return fall_back();
        ++p;
      } while (p != end && *p >= '0' && *p <= '9');
      const uint32_t value = static_cast<uint32_t>(neg ? 0 - magnitude : magnitude);
      for (uint32_t b = 0; b < width; ++b) {
        packed_.push_back(static_cast<uint8_t>(value >> (8 * b)));
      }
      while (p != end && blank(*p)) ++p;
      if (p == end) break;
      if (*p != ',') return fall_back();
      ++p;
    }
    align_to(width);
    Statement s;
    s.line_no = line_no;
    s.section = section_;
    s.addr = loc();
    s.size_bytes = static_cast<uint32_t>(packed_.size() - offset);
    s.packed = true;
    s.packed_offset = offset;
    loc() += s.size_bytes;
    statements_.push_back(std::move(s));
    return true;
  }

  void parse_line(std::string_view line, int line_no) {
    if (parse_numeric_data(line, line_no)) return;
    toks_.lex(line, line_no);
    const Tokens& toks = toks_;
    size_t i = 0;

    // Leading labels ("name:") — bound after the statement's alignment so
    // `h: .half ...` names the aligned datum.
    std::vector<std::string_view> labels;
    while (toks[i].kind == TokKind::kIdent && toks[i + 1].kind == TokKind::kColon) {
      labels.push_back(toks[i].text);
      i += 2;
    }
    auto bind_labels = [&] {
      for (std::string_view name : labels) define_label(name, line_no);
      labels.clear();
    };

    if (toks[i].kind == TokKind::kEnd) {
      bind_labels();  // label-only line: current location counter
      return;
    }
    if (toks[i].kind != TokKind::kIdent) throw AsmError(line_no, "expected mnemonic");

    Statement s;
    s.line_no = line_no;
    s.mnemonic = toks[i].text;
    for (char& c : s.mnemonic) c = static_cast<char>(tolower(c));
    ++i;

    parse_operands(toks, i, s, line_no);

    if (is_directive(s.mnemonic)) {
      // Section switches see labels bound in the *current* section first.
      if (s.mnemonic == ".text" || s.mnemonic == ".data") bind_labels();
      const uint32_t addr = layout_directive(s, line_no);
      for (std::string_view name : labels) define_label_at(name, addr, line_no);
      labels.clear();
      return;
    }

    if (section_ != 0) throw AsmError(line_no, "instruction outside .text");
    align_to(4);
    s.section = 0;
    s.addr = loc();
    bind_labels();
    s.size_bytes = instr_size(s);
    loc() += s.size_bytes;
    statements_.push_back(std::move(s));
  }

  void parse_operands(const Tokens& toks, size_t i, Statement& s, int line_no) {
    s.operands.reserve((toks.size() - i) / 2);  // operands are comma-separated
    while (toks[i].kind != TokKind::kEnd) {
      Operand op;
      const Token& t = toks[i];
      if (t.kind == TokKind::kReg) {
        auto r = isa::parse_reg(t.text);
        if (!r) throw AsmError(line_no, "bad register: " + std::string(t.text));
        op.kind = Operand::Kind::kReg;
        op.reg = *r;
        ++i;
      } else if (t.kind == TokKind::kNumber || t.kind == TokKind::kIdent ||
                 t.kind == TokKind::kLParen) {
        int64_t disp = 0;
        std::string_view sym;
        if (t.kind == TokKind::kNumber) {
          disp = t.value;
          ++i;
        } else if (t.kind == TokKind::kIdent) {
          sym = t.text;
          ++i;
          if (toks[i].kind == TokKind::kPlus || toks[i].kind == TokKind::kMinus) {
            const bool minus = toks[i].kind == TokKind::kMinus;
            ++i;
            if (toks[i].kind != TokKind::kNumber)
              throw AsmError(line_no, "expected number after +/-");
            disp = minus ? -toks[i].value : toks[i].value;
            ++i;
          }
        }
        if (toks[i].kind == TokKind::kLParen) {
          ++i;
          if (toks[i].kind != TokKind::kReg) throw AsmError(line_no, "expected base register");
          auto r = isa::parse_reg(toks[i].text);
          if (!r) throw AsmError(line_no, "bad register: " + std::string(toks[i].text));
          ++i;
          if (toks[i].kind != TokKind::kRParen) throw AsmError(line_no, "expected ')'");
          ++i;
          op.kind = Operand::Kind::kMem;
          op.reg = *r;
          op.value = disp;
          op.symbol = sym;
        } else if (!sym.empty()) {
          op.kind = Operand::Kind::kSym;
          op.symbol = sym;
          op.value = disp;
        } else {
          op.kind = Operand::Kind::kImm;
          op.value = disp;
        }
      } else if (t.kind == TokKind::kString) {
        s.strings.emplace_back(t.text);
        ++i;
        if (toks[i].kind == TokKind::kComma) ++i;
        continue;
      } else {
        throw AsmError(line_no, "unexpected token in operands");
      }
      s.operands.push_back(op);
      if (toks[i].kind == TokKind::kComma) ++i;
    }
  }

  // Lays out one directive; returns the address its labels should bind to
  // (the aligned statement address for sized directives, the post-align
  // location for .align, the current location otherwise).
  uint32_t layout_directive(Statement& s, int line_no) {
    const std::string& m = s.mnemonic;
    if (m == ".text") {
      section_ = 0;
      if (!s.operands.empty()) {
        text_loc_ = static_cast<uint32_t>(s.operands[0].value);
        if (text_loc_ < text_base_) text_base_ = text_loc_;
      }
      return loc();
    }
    if (m == ".data") {
      section_ = 1;
      if (!s.operands.empty()) {
        data_loc_ = static_cast<uint32_t>(s.operands[0].value);
        if (data_loc_ < data_base_) data_base_ = data_loc_;
      }
      return loc();
    }
    if (m == ".globl" || m == ".global" || m == ".ent" || m == ".end") return loc();

    s.section = section_;
    if (m == ".align") {
      if (s.operands.empty()) throw AsmError(line_no, ".align needs an argument");
      const int64_t exponent = s.operands[0].value;
      if (exponent < 0 || exponent > 31) throw AsmError(line_no, ".align exponent out of range");
      align_to(1u << exponent);
      return loc();
    }
    if (m == ".word") {
      align_to(4);
      s.addr = loc();
      s.size_bytes = static_cast<uint32_t>(s.operands.size()) * 4;
    } else if (m == ".half") {
      align_to(2);
      s.addr = loc();
      s.size_bytes = static_cast<uint32_t>(s.operands.size()) * 2;
    } else if (m == ".byte") {
      s.addr = loc();
      s.size_bytes = static_cast<uint32_t>(s.operands.size());
    } else if (m == ".space") {
      if (s.operands.empty()) throw AsmError(line_no, ".space needs a size");
      s.addr = loc();
      s.size_bytes = static_cast<uint32_t>(s.operands[0].value);
    } else if (m == ".ascii" || m == ".asciiz") {
      s.addr = loc();
      uint32_t bytes = 0;
      for (const std::string& str : s.strings)
        bytes += static_cast<uint32_t>(str.size()) + (m == ".asciiz" ? 1 : 0);
      s.size_bytes = bytes;
    } else {
      throw AsmError(line_no, "unknown directive: " + m);
    }
    const uint32_t addr = s.addr;
    loc() += s.size_bytes;
    statements_.push_back(std::move(s));
    return addr;
  }

  // ---- pass 2: emission ----
  void emit_all() {
    text_.assign(text_loc_ - text_base_, 0);
    data_.assign(data_loc_ - data_base_, 0);
    for (const Statement& s : statements_) {
      if (s.packed) {
        auto& bytes = section_bytes(s.section);
        const uint32_t off = s.addr - section_base(s.section);
        assert(off + s.size_bytes <= bytes.size());
        std::memcpy(bytes.data() + off, packed_.data() + s.packed_offset, s.size_bytes);
      } else if (is_directive(s.mnemonic)) {
        emit_data(s);
      } else {
        emit_instruction(s);
      }
    }
  }

  std::vector<uint8_t>& section_bytes(int section) { return section == 0 ? text_ : data_; }
  uint32_t section_base(int section) const {
    return section == 0 ? text_base_ : data_base_;
  }

  void put8(int section, uint32_t addr, uint8_t v) {
    auto& bytes = section_bytes(section);
    const uint32_t off = addr - section_base(section);
    assert(off < bytes.size());
    bytes[off] = v;
  }
  void put16(int section, uint32_t addr, uint16_t v) {
    put8(section, addr, static_cast<uint8_t>(v));
    put8(section, addr + 1, static_cast<uint8_t>(v >> 8));
  }
  void put32(int section, uint32_t addr, uint32_t v) {
    put16(section, addr, static_cast<uint16_t>(v));
    put16(section, addr + 2, static_cast<uint16_t>(v >> 16));
  }

  int64_t symbol_value(const Operand& op, int line_no) const {
    const std::string name(op.symbol);
    auto it = symbols_.find(name);
    if (it == symbols_.end()) throw AsmError(line_no, "undefined symbol: " + name);
    return static_cast<int64_t>(it->second) + op.value;
  }

  int64_t resolve(const Operand& op, int line_no) const {
    if (op.is_imm()) return op.value;
    if (op.is_sym()) return symbol_value(op, line_no);
    throw AsmError(line_no, "expected immediate or symbol");
  }

  int64_t resolve_mem_disp(const Operand& op, int line_no) const {
    return op.symbol.empty() ? op.value : symbol_value(op, line_no);
  }

  void emit_data(const Statement& s) {
    const std::string& m = s.mnemonic;
    uint32_t addr = s.addr;
    if (m == ".word") {
      for (const Operand& op : s.operands) {
        put32(s.section, addr, static_cast<uint32_t>(resolve(op, s.line_no)));
        addr += 4;
      }
    } else if (m == ".half") {
      for (const Operand& op : s.operands) {
        put16(s.section, addr, static_cast<uint16_t>(resolve(op, s.line_no)));
        addr += 2;
      }
    } else if (m == ".byte") {
      for (const Operand& op : s.operands) {
        put8(s.section, addr, static_cast<uint8_t>(resolve(op, s.line_no)));
        addr += 1;
      }
    } else if (m == ".ascii" || m == ".asciiz") {
      for (const std::string& str : s.strings) {
        for (char c : str) put8(s.section, addr++, static_cast<uint8_t>(c));
        if (m == ".asciiz") put8(s.section, addr++, 0);
      }
    }
    // .space: already zero-filled
  }

  // Emits one encoded word at the statement cursor.
  void word(uint32_t& addr, const Instr& i) {
    put32(0, addr, isa::encode(i));
    addr += 4;
  }

  static Instr r3(Op op, int rd, int rs, int rt) {
    Instr i;
    i.op = op;
    i.rd = static_cast<uint8_t>(rd);
    i.rs = static_cast<uint8_t>(rs);
    i.rt = static_cast<uint8_t>(rt);
    return i;
  }
  static Instr imm(Op op, int rt, int rs, uint16_t imm16) {
    Instr i;
    i.op = op;
    i.rt = static_cast<uint8_t>(rt);
    i.rs = static_cast<uint8_t>(rs);
    i.imm16 = imm16;
    return i;
  }

  uint16_t branch_disp(uint32_t branch_addr, int64_t target, int line_no) const {
    const int64_t diff = target - (static_cast<int64_t>(branch_addr) + 4);
    if (diff & 3) throw AsmError(line_no, "unaligned branch target");
    const int64_t words = diff >> 2;
    if (!fits_simm16(words)) throw AsmError(line_no, "branch target out of range");
    return static_cast<uint16_t>(words);
  }

  void check_ops(const Statement& s, size_t count) {
    if (s.operands.size() != count)
      throw AsmError(s.line_no, s.mnemonic + ": expected " + std::to_string(count) +
                                    " operands, got " + std::to_string(s.operands.size()));
  }

  int reg_op(const Statement& s, size_t idx) {
    if (idx >= s.operands.size() || !s.operands[idx].is_reg())
      throw AsmError(s.line_no, s.mnemonic + ": operand " + std::to_string(idx + 1) +
                                    " must be a register");
    return s.operands[idx].reg;
  }

  void emit_instruction(const Statement& s) {
    uint32_t addr = s.addr;
    const std::string& m = s.mnemonic;

    // ---- pseudo-instructions ----
    if (m == "nop") { word(addr, r3(Op::kSll, 0, 0, 0)); return; }
    if (m == "move") {
      check_ops(s, 2);
      word(addr, r3(Op::kAddu, reg_op(s, 0), reg_op(s, 1), 0));
      return;
    }
    if (m == "neg" || m == "negu") {
      check_ops(s, 2);
      word(addr, r3(m == "neg" ? Op::kSub : Op::kSubu, reg_op(s, 0), 0, reg_op(s, 1)));
      return;
    }
    if (m == "not") {
      check_ops(s, 2);
      word(addr, r3(Op::kNor, reg_op(s, 0), reg_op(s, 1), 0));
      return;
    }
    if (m == "li") {
      check_ops(s, 2);
      const int rt = reg_op(s, 0);
      const int64_t v = resolve(s.operands[1], s.line_no);
      if (fits_simm16(v)) {
        word(addr, imm(Op::kAddiu, rt, 0, static_cast<uint16_t>(v)));
      } else if (fits_uimm16(v)) {
        word(addr, imm(Op::kOri, rt, 0, static_cast<uint16_t>(v)));
      } else {
        const uint32_t u = static_cast<uint32_t>(v);
        word(addr, imm(Op::kLui, rt, 0, static_cast<uint16_t>(u >> 16)));
        word(addr, imm(Op::kOri, rt, rt, static_cast<uint16_t>(u)));
      }
      return;
    }
    if (m == "la") {
      check_ops(s, 2);
      const int rt = reg_op(s, 0);
      const uint32_t v = static_cast<uint32_t>(resolve(s.operands[1], s.line_no));
      word(addr, imm(Op::kLui, rt, 0, static_cast<uint16_t>(v >> 16)));
      word(addr, imm(Op::kOri, rt, rt, static_cast<uint16_t>(v)));
      return;
    }
    if (m == "b") {
      check_ops(s, 1);
      const int64_t target = resolve(s.operands[0], s.line_no);
      word(addr, imm(Op::kBeq, 0, 0, branch_disp(addr, target, s.line_no)));
      return;
    }
    if (m == "beqz" || m == "bnez") {
      check_ops(s, 2);
      const int rs = reg_op(s, 0);
      const int64_t target = resolve(s.operands[1], s.line_no);
      word(addr, imm(m == "beqz" ? Op::kBeq : Op::kBne, 0, rs,
                     branch_disp(addr, target, s.line_no)));
      return;
    }
    if (m == "blt" || m == "bgt" || m == "ble" || m == "bge" ||
        m == "bltu" || m == "bgtu" || m == "bleu" || m == "bgeu") {
      check_ops(s, 3);
      const int rs = reg_op(s, 0);
      const int rt = reg_op(s, 1);
      const int64_t target = resolve(s.operands[2], s.line_no);
      const bool usign = m.back() == 'u';
      const std::string base = usign ? m.substr(0, m.size() - 1) : m;
      const Op slt = usign ? Op::kSltu : Op::kSlt;
      // blt: slt $at,rs,rt ; bne $at
      // bge: slt $at,rs,rt ; beq $at
      // bgt: slt $at,rt,rs ; bne $at
      // ble: slt $at,rt,rs ; beq $at
      const bool swap = (base == "bgt" || base == "ble");
      const bool on_set = (base == "blt" || base == "bgt");
      word(addr, r3(slt, isa::kAt, swap ? rt : rs, swap ? rs : rt));
      word(addr, imm(on_set ? Op::kBne : Op::kBeq, 0, isa::kAt,
                     branch_disp(addr, target, s.line_no)));
      return;
    }
    if (m == "mul") {
      check_ops(s, 3);
      const int rd = reg_op(s, 0);
      Instr mi = r3(Op::kMult, 0, reg_op(s, 1), reg_op(s, 2));
      word(addr, mi);
      word(addr, r3(Op::kMflo, rd, 0, 0));
      return;
    }
    if (m == "subi" || m == "subiu") {
      check_ops(s, 3);
      const int64_t v = resolve(s.operands[2], s.line_no);
      if (!fits_simm16(-v)) throw AsmError(s.line_no, "subi immediate out of range");
      word(addr, imm(m == "subi" ? Op::kAddi : Op::kAddiu, reg_op(s, 0), reg_op(s, 1),
                     static_cast<uint16_t>(-v)));
      return;
    }

    // ---- real instructions ----
    auto it = op_table().find(m);
    if (it == op_table().end()) throw AsmError(s.line_no, "unknown mnemonic: " + m);
    const Op op = it->second;

    Instr i;
    i.op = op;
    switch (op) {
      case Op::kSll: case Op::kSrl: case Op::kSra: {
        check_ops(s, 3);
        i.rd = static_cast<uint8_t>(reg_op(s, 0));
        i.rt = static_cast<uint8_t>(reg_op(s, 1));
        const int64_t sh = resolve(s.operands[2], s.line_no);
        if (sh < 0 || sh > 31) throw AsmError(s.line_no, "shift amount out of range");
        i.shamt = static_cast<uint8_t>(sh);
        break;
      }
      case Op::kSllv: case Op::kSrlv: case Op::kSrav:
        check_ops(s, 3);
        i.rd = static_cast<uint8_t>(reg_op(s, 0));
        i.rt = static_cast<uint8_t>(reg_op(s, 1));
        i.rs = static_cast<uint8_t>(reg_op(s, 2));
        break;
      case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
      case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
      case Op::kSlt: case Op::kSltu:
        check_ops(s, 3);
        i.rd = static_cast<uint8_t>(reg_op(s, 0));
        i.rs = static_cast<uint8_t>(reg_op(s, 1));
        i.rt = static_cast<uint8_t>(reg_op(s, 2));
        break;
      case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu:
        check_ops(s, 2);
        i.rs = static_cast<uint8_t>(reg_op(s, 0));
        i.rt = static_cast<uint8_t>(reg_op(s, 1));
        break;
      case Op::kMfhi: case Op::kMflo:
        check_ops(s, 1);
        i.rd = static_cast<uint8_t>(reg_op(s, 0));
        break;
      case Op::kMthi: case Op::kMtlo:
        check_ops(s, 1);
        i.rs = static_cast<uint8_t>(reg_op(s, 0));
        break;
      case Op::kJr:
        check_ops(s, 1);
        i.rs = static_cast<uint8_t>(reg_op(s, 0));
        break;
      case Op::kJalr:
        if (s.operands.size() == 1) {
          i.rd = 31;
          i.rs = static_cast<uint8_t>(reg_op(s, 0));
        } else {
          check_ops(s, 2);
          i.rd = static_cast<uint8_t>(reg_op(s, 0));
          i.rs = static_cast<uint8_t>(reg_op(s, 1));
        }
        break;
      case Op::kSyscall: case Op::kBreak:
        break;
      case Op::kJ: case Op::kJal: {
        check_ops(s, 1);
        const uint32_t target = static_cast<uint32_t>(resolve(s.operands[0], s.line_no));
        if (target & 3) throw AsmError(s.line_no, "unaligned jump target");
        i.target26 = (target >> 2) & 0x03FFFFFFu;
        break;
      }
      case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu: {
        check_ops(s, 3);
        i.rt = static_cast<uint8_t>(reg_op(s, 0));
        i.rs = static_cast<uint8_t>(reg_op(s, 1));
        const int64_t v = resolve(s.operands[2], s.line_no);
        if (!fits_simm16(v)) throw AsmError(s.line_no, "immediate out of range");
        i.imm16 = static_cast<uint16_t>(v);
        break;
      }
      case Op::kAndi: case Op::kOri: case Op::kXori: {
        check_ops(s, 3);
        i.rt = static_cast<uint8_t>(reg_op(s, 0));
        i.rs = static_cast<uint8_t>(reg_op(s, 1));
        const int64_t v = resolve(s.operands[2], s.line_no);
        if (!fits_uimm16(v) && !fits_simm16(v))
          throw AsmError(s.line_no, "immediate out of range");
        i.imm16 = static_cast<uint16_t>(v);
        break;
      }
      case Op::kLui: {
        check_ops(s, 2);
        i.rt = static_cast<uint8_t>(reg_op(s, 0));
        const int64_t v = resolve(s.operands[1], s.line_no);
        if (!fits_uimm16(v)) throw AsmError(s.line_no, "lui immediate out of range");
        i.imm16 = static_cast<uint16_t>(v);
        break;
      }
      case Op::kBeq: case Op::kBne: {
        check_ops(s, 3);
        i.rs = static_cast<uint8_t>(reg_op(s, 0));
        i.rt = static_cast<uint8_t>(reg_op(s, 1));
        i.imm16 = branch_disp(addr, resolve(s.operands[2], s.line_no), s.line_no);
        break;
      }
      case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez:
      case Op::kBltzal: case Op::kBgezal: {
        check_ops(s, 2);
        i.rs = static_cast<uint8_t>(reg_op(s, 0));
        i.imm16 = branch_disp(addr, resolve(s.operands[1], s.line_no), s.line_no);
        break;
      }
      case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      case Op::kSb: case Op::kSh: case Op::kSw: {
        check_ops(s, 2);
        i.rt = static_cast<uint8_t>(reg_op(s, 0));
        const Operand& memop = s.operands[1];
        int64_t disp;
        if (memop.is_mem()) {
          i.rs = static_cast<uint8_t>(memop.reg);
          disp = resolve_mem_disp(memop, s.line_no);
        } else {
          // Absolute form "lw $t0, label" — base $zero. Only valid if the
          // address fits a signed 16-bit displacement, which our layouts
          // don't guarantee; require explicit la + 0($reg) instead.
          throw AsmError(s.line_no, "memory operand must be disp($reg)");
        }
        if (!fits_simm16(disp)) throw AsmError(s.line_no, "displacement out of range");
        i.imm16 = static_cast<uint16_t>(disp);
        break;
      }
      case Op::kInvalid:
        throw AsmError(s.line_no, "unknown mnemonic: " + m);
    }
    word(addr, i);
  }

  AsmOptions options_;
  uint32_t text_base_ = 0;  // lowest address used by each section
  uint32_t data_base_ = 0;
  int section_ = 0;
  uint32_t text_loc_ = 0;
  uint32_t data_loc_ = 0;
  std::vector<Statement> statements_;
  Tokens toks_;  // reused for every line
  std::vector<uint8_t> packed_;  // encoded bytes of the numeric data lines
  std::unordered_map<std::string, uint32_t> symbols_;
  std::vector<uint8_t> text_;
  std::vector<uint8_t> data_;
};

}  // namespace

Program assemble(std::string_view source, const AsmOptions& options) {
  Assembler assembler(options);
  return assembler.run(source);
}

}  // namespace dim::asmblr
