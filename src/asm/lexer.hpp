// Line-oriented tokenizer for the MIPS assembler.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dim::asmblr {

enum class TokKind : uint8_t {
  kIdent,     // labels, mnemonics, directives (".word" has the dot included)
  kReg,       // $t0, $3, ...
  kNumber,    // decimal, hex (0x..), negative, char literal 'a'
  kString,    // "..." with C escapes
  kComma,
  kLParen,
  kRParen,
  kColon,
  kPlus,
  kMinus,
  kEnd,       // end of line
};

struct Token {
  TokKind kind = TokKind::kEnd;
  // Idents, registers and punctuation: a view of the line. Strings: the
  // unescaped contents, held by the Tokens that lexed them. Numbers and
  // kEnd: empty.
  std::string_view text;
  int64_t value = 0;  // for numbers
  int column = 0;
};

// The tokens of one source line, ending in a kEnd token. lex() reuses the
// token and string buffers, so one Tokens lexes a whole file without
// allocating once it has seen the longest line. Views stay valid until the
// next lex() and as long as the line does; string views point into this
// object, so it is neither copyable nor movable.
class Tokens {
 public:
  Tokens() = default;
  Tokens(std::string_view line, int line_no) { lex(line, line_no); }
  Tokens(const Tokens&) = delete;
  Tokens& operator=(const Tokens&) = delete;

  // Tokenizes one source line. Throws AsmError (see assembler.hpp) on bad input.
  void lex(std::string_view line, int line_no);

  size_t size() const { return toks_.size(); }
  const Token& operator[](size_t i) const { return toks_[i]; }
  const Token& back() const { return toks_.back(); }

 private:
  std::vector<Token> toks_;
  std::string strings_;  // unescaped string literals of the current line
};

// Tokenizes one source line into a fresh Tokens.
inline Tokens lex_line(std::string_view line, int line_no) { return Tokens(line, line_no); }

}  // namespace dim::asmblr
