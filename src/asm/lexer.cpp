#include "asm/lexer.hpp"

#include "asm/assembler.hpp"

namespace dim::asmblr {
namespace {

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == '.';
}

bool is_ident_char(char c) {
  return is_ident_start(c) || (c >= '0' && c <= '9');
}

char unescape(char c, int line_no) {
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return '\0';
    case '\\': return '\\';
    case '"': return '"';
    case '\'': return '\'';
    default:
      throw AsmError(line_no, std::string("unknown escape: \\") + c);
  }
}

}  // namespace

void Tokens::lex(std::string_view line, int line_no) {
  toks_.clear();
  // Unescaped contents are never longer than the line, so string views
  // into strings_ stay valid while the line's literals are appended.
  strings_.clear();
  strings_.reserve(line.size());
  size_t i = 0;
  const size_t n = line.size();

  auto push = [&](TokKind kind, std::string_view text, int64_t value, size_t col) {
    toks_.push_back(Token{kind, text, value, static_cast<int>(col)});
  };

  while (i < n) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') break;
    if (c == '/' && i + 1 < n && line[i + 1] == '/') break;

    const size_t start = i;
    if (c == ',') { push(TokKind::kComma, line.substr(start, 1), 0, start); ++i; continue; }
    if (c == '(') { push(TokKind::kLParen, line.substr(start, 1), 0, start); ++i; continue; }
    if (c == ')') { push(TokKind::kRParen, line.substr(start, 1), 0, start); ++i; continue; }
    if (c == ':') { push(TokKind::kColon, line.substr(start, 1), 0, start); ++i; continue; }
    if (c == '+') { push(TokKind::kPlus, line.substr(start, 1), 0, start); ++i; continue; }

    if (c == '$') {
      ++i;
      while (i < n && is_ident_char(line[i])) ++i;
      push(TokKind::kReg, line.substr(start, i - start), 0, start);
      continue;
    }

    if (c == '\'') {
      if (i + 2 >= n) throw AsmError(line_no, "unterminated char literal");
      char value;
      if (line[i + 1] == '\\') {
        if (i + 3 >= n || line[i + 3] != '\'') throw AsmError(line_no, "bad char literal");
        value = unescape(line[i + 2], line_no);
        i += 4;
      } else {
        if (line[i + 2] != '\'') throw AsmError(line_no, "bad char literal");
        value = line[i + 1];
        i += 3;
      }
      push(TokKind::kNumber, {}, static_cast<unsigned char>(value), start);
      continue;
    }

    if (c == '"') {
      const size_t first = strings_.size();
      ++i;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= n) throw AsmError(line_no, "unterminated string");
          strings_.push_back(unescape(line[i + 1], line_no));
          i += 2;
        } else {
          strings_.push_back(line[i]);
          ++i;
        }
      }
      if (i >= n) throw AsmError(line_no, "unterminated string");
      ++i;  // closing quote
      push(TokKind::kString, std::string_view(strings_).substr(first), 0, start);
      continue;
    }

    const bool neg = (c == '-');
    if (neg || (c >= '0' && c <= '9')) {
      // Every value the assembler encodes fits 32 bits; bounding the
      // magnitude here also keeps label+offset arithmetic in range.
      constexpr int64_t kMaxMagnitude = 0xFFFFFFFF;
      size_t j = i + (neg ? 1 : 0);
      if (j >= n || line[j] < '0' || line[j] > '9') {
        if (neg) { push(TokKind::kMinus, line.substr(start, 1), 0, start); ++i; continue; }
      }
      int64_t value = 0;
      if (j + 1 < n && line[j] == '0' && (line[j + 1] == 'x' || line[j + 1] == 'X')) {
        j += 2;
        if (j >= n) throw AsmError(line_no, "bad hex literal");
        while (j < n) {
          const char h = line[j];
          int digit;
          if (h >= '0' && h <= '9') digit = h - '0';
          else if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
          else if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
          else break;
          value = value * 16 + digit;
          if (value > kMaxMagnitude) throw AsmError(line_no, "integer literal out of range");
          ++j;
        }
      } else {
        while (j < n && line[j] >= '0' && line[j] <= '9') {
          value = value * 10 + (line[j] - '0');
          if (value > kMaxMagnitude) throw AsmError(line_no, "integer literal out of range");
          ++j;
        }
      }
      i = j;
      push(TokKind::kNumber, {}, neg ? -value : value, start);
      continue;
    }

    if (is_ident_start(c)) {
      ++i;
      while (i < n && is_ident_char(line[i])) ++i;
      push(TokKind::kIdent, line.substr(start, i - start), 0, start);
      continue;
    }

    throw AsmError(line_no, std::string("unexpected character: ") + c);
  }

  push(TokKind::kEnd, {}, 0, n);
}

}  // namespace dim::asmblr
