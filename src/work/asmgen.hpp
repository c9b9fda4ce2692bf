// Helpers to embed generated input data into assembly .data sections.
//
// Each helper appends `values` to `out` as lines of one data directive,
// `per_line` decimal values to a line ("        .word 1, 2, 3\n"). The text
// is written with std::to_chars into one scratch buffer sized for the
// worst case and appended in one piece, so the caller's string grows by
// the exact text (no worst-case capacity is left in it).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dim::work {
namespace asmgen_detail {

template <class T>
void append_lines(std::string& out, std::string_view directive, size_t per_line,
                  const std::vector<T>& values) {
  // Longest decimal text of a T: every digit, plus a sign when signed.
  constexpr size_t kMaxChars =
      std::numeric_limits<T>::digits10 + 1 + (std::numeric_limits<T>::is_signed ? 1 : 0);
  const std::string_view indent = "        ";
  const size_t line_head = 1 + indent.size() + directive.size() + 1;
  const size_t lines = values.size() / per_line + 1;
  const size_t worst = values.size() * (kMaxChars + 2) + lines * line_head + 1;
  const std::unique_ptr<char[]> buf(new char[worst]);
  char* p = buf.get();
  auto put = [&p](std::string_view text) {
    std::memcpy(p, text.data(), text.size());
    p += text.size();
  };
  for (size_t i = 0; i < values.size(); ++i) {
    if (i % per_line == 0) {
      if (i != 0) *p++ = '\n';
      put(indent);
      put(directive);
      *p++ = ' ';
    } else {
      put(", ");
    }
    p = std::to_chars(p, buf.get() + worst, values[i]).ptr;
  }
  *p++ = '\n';
  out.append(buf.get(), static_cast<size_t>(p - buf.get()));
}

}  // namespace asmgen_detail

inline void append_words(std::string& out, const std::vector<uint32_t>& values) {
  asmgen_detail::append_lines(out, ".word", 8, values);
}

// Signed values are written as their 32-bit two's-complement words.
inline void append_words_i(std::string& out, const std::vector<int32_t>& values) {
  std::vector<uint32_t> u(values.size());
  for (size_t i = 0; i < values.size(); ++i) u[i] = static_cast<uint32_t>(values[i]);
  append_words(out, u);
}

inline void append_halfs(std::string& out, const std::vector<int16_t>& values) {
  asmgen_detail::append_lines(out, ".half", 12, values);
}

inline void append_bytes(std::string& out, const std::vector<uint8_t>& values) {
  asmgen_detail::append_lines(out, ".byte", 16, values);
}

}  // namespace dim::work
